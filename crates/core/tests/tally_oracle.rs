//! Tally-vs-oracle battery for the heuristic sweeps.
//!
//! The `(cap, τ)` passes of `heuristics::power_greedy` and the trial
//! capacities of the swept `GR` baseline (`greedy_power`) are scored from
//! tallies of the servers each pass places, not by evaluating a
//! `Solution`. `Solution::evaluate_with_policy` stays the oracle, and
//! this battery holds every pass to it on the shared random instances of
//! `support/instances.rs` (α ∈ {1, 2, 2.5, 3}, one to three modes,
//! W_M = 5000 cases, negative reuse weights):
//!
//! * the tallied cost and power equal the oracle's under
//!   `ModePolicy::LowestFeasible`, `to_bits` for `to_bits`;
//! * the server count matches;
//! * re-moding leaves the placement unchanged (a pass already runs each
//!   server at its load-fitting mode).
//!
//! It also pins the selection around the tallies: `power_greedy::solve`
//! returns what scoring every pass through the oracle and keeping the
//! best would, `greedy_power::solve` returns `best_within` of the full
//! sweep, and `IncrementalDp::greedy_fallback` returns what
//! `greedy_power::solve` returns on the same demand after random churn.

use proptest::prelude::*;
use replica_core::heuristics::power_greedy;
use replica_core::{greedy_power, IncrementalDp, SolveArena};
use replica_model::{le_tolerant, Instance, ModePolicy, Placement, Solution};
use replica_tree::ClientId;

#[path = "support/instances.rs"]
mod instances;

use instances::arbitrary_instance;

/// Fill thresholds tried per cap: the default grid plus two low ones,
/// which place servers at almost every node with flow.
const THRESHOLDS: [f64; 7] = [0.6, 0.7, 0.8, 0.9, 1.0, 0.05, 0.33];

/// A pass's tallied score against the oracle's evaluation of its
/// placement.
fn check_oracle(
    instance: &Instance,
    placement: &Placement,
    cost: f64,
    power: f64,
    servers: u64,
    what: &str,
) -> Result<(), String> {
    let sol = Solution::evaluate_with_policy(instance, placement, ModePolicy::LowestFeasible)
        .map_err(|e| format!("{what}: the oracle rejects the placement: {e}"))?;
    prop_assert_eq!(&sol.placement, placement, "{}: re-moding changed it", what);
    prop_assert_eq!(sol.cost.to_bits(), cost.to_bits(), "{}: cost bits", what);
    prop_assert_eq!(sol.power.to_bits(), power.to_bits(), "{}: power bits", what);
    prop_assert_eq!(sol.counts.total_servers(), servers, "{}: servers", what);
    Ok(())
}

/// Epochs of `(client selector, new volume)` deltas, as in
/// `incremental_equivalence`.
fn delta_epochs() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    prop::collection::vec(prop::collection::vec((0u32..10_000, 0u64..6), 0..8), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `(cap, τ)` pass scores like the oracle, and `solve` keeps
    /// the pass the oracle-scored grid would keep, under an unbounded
    /// and a biting budget.
    #[test]
    fn power_greedy_passes_score_like_the_oracle(instance in arbitrary_instance(45)) {
        for cap in instance.modes().indices() {
            for tau in THRESHOLDS {
                let Some(pass) = power_greedy::single_pass(&instance, cap, tau) else {
                    continue;
                };
                let what = format!("cap {cap}, τ {tau}");
                check_oracle(&instance, &pass.placement, pass.cost, pass.power, pass.servers, &what)?;
            }
        }
        let Ok(unbounded) = power_greedy::solve(&instance, f64::INFINITY) else {
            return Ok(());
        };
        for bound in [f64::INFINITY, unbounded.cost, unbounded.cost * 0.9] {
            // The pre-tally selection: evaluate each pass, keep the first
            // strictly better one within the budget.
            let mut expected: Option<Solution> = None;
            for cap in instance.modes().indices() {
                for &tau in power_greedy::DEFAULT_THRESHOLDS {
                    let Some(pass) = power_greedy::single_pass(&instance, cap, tau) else {
                        continue;
                    };
                    let sol = Solution::evaluate_with_policy(
                        &instance, &pass.placement, ModePolicy::LowestFeasible,
                    ).unwrap();
                    let wins = le_tolerant(sol.cost, bound)
                        && expected.as_ref().is_none_or(|b| {
                            sol.power < b.power - 1e-9
                                || (sol.power < b.power + 1e-9 && sol.cost < b.cost - 1e-9)
                        });
                    if wins {
                        expected = Some(sol);
                    }
                }
            }
            match (power_greedy::solve(&instance, bound), expected) {
                (Ok(got), Some(want)) => {
                    prop_assert_eq!(&got.placement, &want.placement, "bound {}", bound);
                    prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                    prop_assert_eq!(got.power.to_bits(), want.power.to_bits());
                    prop_assert_eq!(got.servers, want.counts.total_servers());
                }
                (Err(_), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "bound {}: solve ok={} vs oracle selection ok={}",
                    bound, got.is_ok(), want.is_some()
                ),
            }
        }
    }

    /// Every `GR` trial capacity scores like the oracle, and `solve`
    /// (which builds only the winner's placement) returns `best_within`
    /// of the full sweep.
    #[test]
    fn gr_trial_capacities_score_like_the_oracle(instance in arbitrary_instance(45)) {
        let mut arena = SolveArena::default();
        let points = greedy_power::paper_sweep(&instance, &mut arena);
        for p in &points {
            let what = format!("W = {}", p.trial_capacity);
            check_oracle(&instance, &p.placement, p.cost, p.power, p.servers, &what)?;
        }
        let bounds = match greedy_power::best_within(&points, f64::INFINITY) {
            Some(best) => vec![f64::INFINITY, best.cost, best.cost * 0.9, 0.0],
            None => vec![f64::INFINITY],
        };
        for bound in bounds {
            match (
                greedy_power::solve(&instance, bound, &mut arena),
                greedy_power::best_within(&points, bound),
            ) {
                (Ok(got), Some(want)) => {
                    prop_assert_eq!(got.trial_capacity, want.trial_capacity, "bound {}", bound);
                    prop_assert_eq!(&got.placement, &want.placement);
                    prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits());
                    prop_assert_eq!(got.power.to_bits(), want.power.to_bits());
                }
                (Err(_), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "bound {}: solve ok={} vs best_within some={}",
                    bound, got.is_ok(), want.is_some()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After random demand churn, the warm-started fallback returns what
    /// a fresh `greedy_power::solve` of the mutated instance returns:
    /// placement, cost bits and power bits, unbounded and under a budget.
    #[test]
    fn greedy_fallback_equals_greedy_power_solve(
        instance in arbitrary_instance(40),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut arena = SolveArena::default();
        let mut bounds = vec![f64::INFINITY];
        if let Ok(start) = greedy_power::solve(&instance, f64::INFINITY, &mut arena) {
            bounds.push(start.cost * 0.9);
        }
        for bound in bounds {
            let mut dp = IncrementalDp::new(instance.clone(), bound);
            for epoch in &epochs {
                for &(pick, volume) in epoch {
                    dp.set_requests(ClientId::from_index(pick as usize % clients), volume);
                }
                match (dp.greedy_fallback(), greedy_power::solve(dp.instance(), bound, &mut arena)) {
                    (Ok((placement, cost, power)), Ok(want)) => {
                        prop_assert_eq!(&placement, &want.placement, "bound {}", bound);
                        prop_assert_eq!(cost.to_bits(), want.cost.to_bits());
                        prop_assert_eq!(power.to_bits(), want.power.to_bits());
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => prop_assert!(
                        false,
                        "bound {}: fallback ok={} vs solve ok={}",
                        bound, got.is_ok(), want.is_ok()
                    ),
                }
            }
        }
    }
}
