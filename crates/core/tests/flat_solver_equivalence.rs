//! Flat-vs-reference equivalence battery: the flat-layout solver hot paths
//! against the pre-flat pointer-chasing pipelines preserved verbatim in
//! `support/reference.rs`.
//!
//! The flat conversion promised *bit-identical* results — not "equally
//! optimal", the same placements with the same `f64` bit patterns — and
//! this battery is where that promise is pinned: the shared random
//! instances of `support/instances.rs` (topologies, pre-existing replica
//! sets, one/two/three-mode instances, power, cost and capacity regimes),
//! and finite as well as infinite cost budgets, all solved through one
//! long-lived [`SolveArena`] so the scratch carries arbitrary history
//! between cases (exactly what fleet worker threads do).

use proptest::prelude::*;
use replica_core::{dp_power, dp_power_pruned, greedy, greedy_power, SolveArena};
use replica_model::Instance;
use std::cell::RefCell;

#[path = "support/instances.rs"]
mod instances;
#[path = "support/reference.rs"]
mod reference;

use instances::arbitrary_instance;

thread_local! {
    /// One arena across every proptest case on this thread — deliberately
    /// dirty between cases, like a fleet worker's.
    static ARENA: RefCell<SolveArena> = RefCell::new(SolveArena::new());
}

fn with_arena<T>(f: impl FnOnce(&mut SolveArena) -> T) -> T {
    ARENA.with(|cell| f(&mut cell.borrow_mut()))
}

/// Cost budgets exercised per instance: unconstrained, a fraction of the
/// unconstrained optimum's cost (bites mid-frontier), and impossible.
fn budgets_for(instance: &Instance) -> Vec<f64> {
    let mut budgets = vec![f64::INFINITY, 0.0];
    if let Ok((_, cost, _)) = reference::pruned_solve(instance, f64::INFINITY) {
        budgets.push(cost);
        budgets.push(cost * 0.6);
    }
    budgets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `GR` through the flat kernel == the pre-flat pointer version, for
    /// every trial capacity up to `W_M`.
    #[test]
    fn greedy_flat_matches_reference(instance in arbitrary_instance(45)) {
        let tree = instance.tree();
        for w in 1..=instance.max_capacity() {
            let flat = with_arena(|arena| {
                arena.flat.rebuild(tree);
                greedy::greedy_min_replicas_flat(&arena.flat, w, &mut arena.greedy)
            });
            match (flat, reference::greedy_min_replicas(tree, w)) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(f.placement, r.placement, "W = {}", w);
                    prop_assert_eq!(f.servers, r.servers);
                }
                (Err(_), Err(_)) => {}
                (f, r) => prop_assert!(
                    false,
                    "W = {}: flat {:?} vs reference {:?}",
                    w, f.map(|g| g.servers), r.map(|g| g.servers)
                ),
            }
        }
    }

    /// The dominance-pruned DP through the flat layout and a dirty arena
    /// == the pre-flat reference, bit for bit, across all budget regimes.
    /// The unbounded budget goes through the every-budget route, so this
    /// pins the 3-D front there too (`min_power_front` pins the (flow,
    /// power) front that an unbounded solve builds).
    #[test]
    fn pruned_flat_matches_reference_bitwise(instance in arbitrary_instance(45)) {
        for bound in budgets_for(&instance) {
            let flat = with_arena(|arena| {
                if bound != f64::INFINITY {
                    return dp_power_pruned::solve_min_power_bounded_cost_in(
                        &instance, bound, &mut arena.pruned,
                    );
                }
                let dp = dp_power_pruned::PrunedPowerDp::run_in(&instance, &mut arena.pruned)?;
                let best = *dp.best_within(bound).expect("a feasible run has candidates");
                let placement = dp.reconstruct(&best);
                dp.recycle(&mut arena.pruned);
                Ok((placement?, best.cost, best.power))
            });
            match (flat, reference::pruned_solve(&instance, bound)) {
                (Ok((fp, fc, fw)), Ok((rp, rc, rw))) => {
                    prop_assert_eq!(fp, rp, "placement at bound {}", bound);
                    prop_assert_eq!(fc.to_bits(), rc.to_bits(), "cost bits");
                    prop_assert_eq!(fw.to_bits(), rw.to_bits(), "power bits");
                }
                (Err(_), Err(_)) => {}
                (f, r) => prop_assert!(
                    false,
                    "bound {}: flat {:?} vs reference {:?}",
                    bound, f.is_ok(), r.is_ok()
                ),
            }
        }
    }

    /// The full-state §4.3 DP through the flat layout and a dirty arena
    /// == the pre-flat reference, bit for bit (the hash-table-order
    /// hazard the fresh-tables rule exists for).
    #[test]
    fn full_flat_matches_reference_bitwise(instance in arbitrary_instance(18)) {
        for bound in budgets_for(&instance) {
            let flat = with_arena(|arena| -> Result<_, replica_model::ModelError> {
                let dp = dp_power::PowerDp::run_in(&instance, &mut arena.full)?;
                let outcome = match dp.best_within(bound) {
                    Some(best) => dp.reconstruct(best).map(Some),
                    None => Ok(None),
                };
                dp.recycle(&mut arena.full);
                outcome
            });
            let reference = reference::full_solve(&instance, bound);
            match (flat, reference) {
                (Ok(Some(f)), Ok((rp, rc, rw))) => {
                    prop_assert_eq!(f.placement, rp, "placement at bound {}", bound);
                    prop_assert_eq!(f.cost.to_bits(), rc.to_bits(), "cost bits");
                    prop_assert_eq!(f.power.to_bits(), rw.to_bits(), "power bits");
                }
                (Ok(None), Err(_)) | (Err(_), Err(_)) => {}
                (f, r) => prop_assert!(
                    false,
                    "bound {}: flat ok={:?} vs reference ok={}",
                    bound, f.map(|o| o.is_some()), r.is_ok()
                ),
            }
        }
    }

    /// The swept `GR` baseline (§5.2) through the shared flat layout ==
    /// the pre-flat reference: identical sweep points, identical winner
    /// per budget.
    #[test]
    fn greedy_power_flat_matches_reference(instance in arbitrary_instance(45)) {
        let flat_sweep = with_arena(|arena| greedy_power::paper_sweep(&instance, arena));
        let reference_sweep = reference::greedy_power_sweep(&instance);
        prop_assert_eq!(flat_sweep.len(), reference_sweep.len());
        for (f, r) in flat_sweep.iter().zip(&reference_sweep) {
            prop_assert_eq!(f.trial_capacity, r.trial_capacity);
            prop_assert_eq!(&f.placement, &r.placement);
            prop_assert_eq!(f.cost.to_bits(), r.cost.to_bits());
            prop_assert_eq!(f.power.to_bits(), r.power.to_bits());
            prop_assert_eq!(f.servers, r.servers);
        }
        for bound in budgets_for(&instance) {
            let flat = with_arena(|arena| greedy_power::solve(&instance, bound, arena));
            match (flat, reference::greedy_power_solve(&instance, bound)) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(f.placement, r.placement, "bound {}", bound);
                    prop_assert_eq!(f.cost.to_bits(), r.cost.to_bits());
                    prop_assert_eq!(f.power.to_bits(), r.power.to_bits());
                }
                (Err(_), Err(_)) => {}
                (f, r) => prop_assert!(
                    false,
                    "bound {}: flat ok={} vs reference ok={}",
                    bound, f.is_ok(), r.is_ok()
                ),
            }
        }
    }
}
