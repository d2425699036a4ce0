//! Incremental-vs-fresh equivalence battery.
//!
//! [`IncrementalDp`] promises that re-solving after demand deltas — having
//! recomputed only the dirty ancestor closure — returns the *same bits* as
//! a from-scratch `dp_power` solve of the mutated instance: the same
//! placement, and `to_bits`-equal cost and power. This battery pins that
//! promise under adversarial conditions:
//!
//! * the shared random instances of `support/instances.rs`: topologies,
//!   mode sets, pre-existing replica sets, power, cost and capacity
//!   regimes;
//! * random delta sequences (including no-op writes and zeroed demand)
//!   applied in epochs of varying width, so dirty closures range from one
//!   root path to most of the tree;
//! * finite mid-frontier budgets as well as unconstrained epochs, each
//!   budget with its own solver (the bound is fixed at construction);
//! * the from-scratch oracle solved through one **dirty, long-lived**
//!   [`PrunedScratch`] shared across all proptest cases on the thread —
//!   exactly the arena-reuse regime the fleet runs — so bit-equality also
//!   re-proves that scratch history is invisible;
//! * interleaved [`IncrementalDp::greedy_fallback`] epochs, which must
//!   leave the exact state reconcilable (dirty marks intact).

use proptest::prelude::*;
use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::IncrementalDp;
use replica_model::Instance;
use replica_tree::ClientId;
use std::cell::RefCell;

#[path = "support/instances.rs"]
mod instances;

use instances::arbitrary_instance;

thread_local! {
    /// One from-scratch scratch across every case — deliberately dirty.
    static SCRATCH: RefCell<PrunedScratch> = RefCell::new(PrunedScratch::default());
}

fn fresh_solve(
    instance: &Instance,
    bound: f64,
) -> Result<(replica_model::Placement, f64, f64), ()> {
    SCRATCH.with(|cell| {
        solve_min_power_bounded_cost_in(instance, bound, &mut cell.borrow_mut()).map_err(|_| ())
    })
}

/// Epochs of `(client selector, new volume)` deltas. Selectors are reduced
/// modulo the instance's client count at apply time; volumes include 0
/// (demand vanishing) and repeats (no-op writes).
fn delta_epochs() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    prop::collection::vec(prop::collection::vec((0u32..10_000, 0u64..6), 0..8), 1..6)
}

/// One incremental epoch vs one from-scratch solve, bit for bit. `bound`
/// is the one `dp` was built with.
fn assert_epoch_matches(dp: &mut IncrementalDp, bound: f64) {
    let fresh = fresh_solve(dp.instance(), bound);
    let incr = dp.resolve();
    match (fresh, incr) {
        (Ok((fp, fc, fw)), Ok((ip, ic, iw))) => {
            assert_eq!(fp, ip, "placement diverged at bound {bound}");
            assert_eq!(fc.to_bits(), ic.to_bits(), "cost bits at bound {bound}");
            assert_eq!(fw.to_bits(), iw.to_bits(), "power bits at bound {bound}");
        }
        (Err(()), Err(_)) => {}
        (f, i) => panic!(
            "feasibility diverged at bound {bound}: fresh ok={} incremental ok={}",
            f.is_ok(),
            i.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random delta sequences on random trees: after every epoch the
    /// incremental solve is bit-identical to a fresh `dp_power` solve of
    /// the mutated instance (unconstrained epochs).
    #[test]
    fn incremental_matches_fresh_after_every_epoch(
        instance in arbitrary_instance(40),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut dp = IncrementalDp::new(instance, f64::INFINITY);
        assert_epoch_matches(&mut dp, f64::INFINITY);
        for epoch in epochs {
            for (pick, volume) in epoch {
                let c = ClientId::from_index(pick as usize % clients);
                dp.set_requests(c, volume);
            }
            assert_epoch_matches(&mut dp, f64::INFINITY);
        }
    }

    /// Same, under finite budgets: one solver per budget at 1.0, 0.6 and
    /// 0 × the start instance's unconstrained optimum cost, so the filter
    /// genuinely bites (and, at 0, refuses) while the 3-D fronts follow
    /// the deltas.
    #[test]
    fn incremental_matches_fresh_under_budgets(
        instance in arbitrary_instance(40),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        if let Ok((_, cost, _)) = fresh_solve(&instance, f64::INFINITY) {
            for bound in [cost, cost * 0.6, 0.0] {
                let mut dp = IncrementalDp::new(instance.clone(), bound);
                assert_epoch_matches(&mut dp, bound);
                for epoch in &epochs {
                    for &(pick, volume) in epoch {
                        let c = ClientId::from_index(pick as usize % clients);
                        dp.set_requests(c, volume);
                    }
                    assert_epoch_matches(&mut dp, bound);
                }
            }
        }
    }

    /// Greedy-fallback epochs interleaved with exact ones: the fallback
    /// answers from the live layout, never clears dirty marks, and the
    /// next exact epoch still reconciles bit-identically.
    #[test]
    fn greedy_fallback_epochs_do_not_perturb_exact_state(
        instance in arbitrary_instance(40),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut dp = IncrementalDp::new(instance, f64::INFINITY);
        for (i, epoch) in epochs.into_iter().enumerate() {
            for (pick, volume) in epoch {
                let c = ClientId::from_index(pick as usize % clients);
                dp.set_requests(c, volume);
            }
            if i % 2 == 0 {
                let dirty = dp.dirty_len();
                let _ = dp.greedy_fallback();
                assert_eq!(dp.dirty_len(), dirty, "fallback must not clear marks");
            } else {
                assert_epoch_matches(&mut dp, f64::INFINITY);
            }
        }
        // Whatever the interleaving left behind, one exact epoch restores
        // bit-exact agreement.
        assert_epoch_matches(&mut dp, f64::INFINITY);
    }
}
