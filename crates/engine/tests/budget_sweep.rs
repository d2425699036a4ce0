//! The budget-sweep API's contract, across every sweep-capable solver:
//!
//! * the frontier's achievable power is non-increasing in the budget
//!   (property-tested over random instances and budget pairs);
//! * the amortized frontier answers every budget exactly like independent
//!   per-budget solves through the plain [`Solver`] interface;
//! * the generic fallback adapter agrees with the amortized path on the
//!   solvers that have both;
//! * one acceptance check guards both entry points: an instance a solver
//!   refuses is refused by a plain solve and by a sweep alike.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_engine::{EngineError, Registry, SolveOptions};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig};

/// The registry solvers advertising an amortized sweep.
const SWEEPERS: [&str; 4] = ["dp_power", "dp_power_full", "greedy_power", "exhaustive"];

/// A small random two-mode instance (oracle-enumerable).
fn small_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.random_range(3usize..=8);
    let config = GeneratorConfig {
        internal_nodes: nodes,
        children_range: (1, 3),
        client_probability: 0.9,
        requests_range: (1, 4),
    };
    let tree = generate::random_tree(&config, &mut rng);
    let pre_count = if seed.is_multiple_of(2) {
        2.min(nodes)
    } else {
        0
    };
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
    Instance::builder(tree)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(PowerModel::new(1.0, 2.0))
        .modes(ModeSet::new(vec![3, 6]).unwrap())
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frontier_power_is_non_increasing_in_the_budget(
        seed in 0u64..10_000,
        lo in 0.0f64..20.0,
        extra in 0.0f64..20.0,
    ) {
        let registry = Registry::with_all();
        let instance = small_instance(seed);
        let options = SolveOptions::default();
        for name in SWEEPERS {
            let Ok(sweep) = registry.sweep(name, &instance, &options, &[]) else {
                continue; // infeasible instance: nothing to check
            };
            // A looser budget can never force more power...
            let tight = sweep.frontier.best_within(lo).map(|p| p.power);
            let loose = sweep.frontier.best_within(lo + extra).map(|p| p.power);
            match (tight, loose) {
                (Some(t), Some(l)) => prop_assert!(
                    l <= t + 1e-12,
                    "{name}: budget {lo} → {t}, budget {} → {l}",
                    lo + extra
                ),
                // ...and whatever a tight budget admits, a loose one does.
                (Some(_), None) => prop_assert!(false, "{name}: feasibility lost at a looser budget"),
                _ => {}
            }
            // The front itself is sorted: costs strictly up, powers strictly down.
            for pair in sweep.frontier.points().windows(2) {
                prop_assert!(pair[0].cost < pair[1].cost, "{name}: costs must increase");
                prop_assert!(pair[0].power > pair[1].power, "{name}: power must decrease");
            }
        }
    }
}

#[test]
fn amortized_frontier_equals_independent_per_budget_solves() {
    let registry = Registry::with_all();
    let budgets: Vec<f64> = (1..=16).map(|b| b as f64 * 0.75).collect();
    let mut compared = 0usize;
    for seed in 0..24u64 {
        let instance = small_instance(seed);
        let options = SolveOptions::default();
        for name in SWEEPERS {
            let Ok(sweep) = registry.sweep(name, &instance, &options, &budgets) else {
                continue;
            };
            assert!(sweep.amortized, "{name} must take its amortized path");
            for &bound in &budgets {
                let amortized = sweep.frontier.best_within(bound).map(|p| p.power);
                let direct = registry
                    .solve(name, &instance, &SolveOptions::with_cost_bound(bound))
                    .ok()
                    .map(|o| o.power);
                match (amortized, direct) {
                    (Some(a), Some(d)) => {
                        assert!(
                            (a - d).abs() < 1e-9,
                            "seed {seed} {name} bound {bound}: frontier {a} ≠ solve {d}"
                        );
                        compared += 1;
                    }
                    (None, None) => {}
                    other => panic!(
                        "seed {seed} {name} bound {bound}: feasibility disagreement {other:?}"
                    ),
                }
            }
        }
    }
    assert!(
        compared >= 200,
        "only {compared} (solver, bound) pairs compared"
    );
}

#[test]
fn exact_sweepers_share_one_frontier_and_dominate_the_greedy() {
    let registry = Registry::with_all();
    let options = SolveOptions::default();
    for seed in 50..60u64 {
        let instance = small_instance(seed);
        let sweeps: Vec<_> = SWEEPERS
            .iter()
            .filter_map(|name| registry.sweep(name, &instance, &options, &[]).ok())
            .collect();
        if sweeps.is_empty() {
            continue;
        }
        let oracle = &sweeps
            .iter()
            .find(|s| s.solver == "exhaustive")
            .expect("small instances are oracle-enumerable")
            .frontier;
        for sweep in &sweeps {
            for point in oracle.points() {
                let achieved = sweep.frontier.best_within(point.cost).map(|p| p.power);
                if sweep.solver == "greedy_power" {
                    // GR is inexact: it may not reach tight oracle costs
                    // at all, and where it does it can only burn more.
                    if let Some(power) = achieved {
                        assert!(
                            power >= point.power - 1e-9,
                            "seed {seed}: GR beats the oracle at cost {}",
                            point.cost
                        );
                    }
                } else {
                    let power = achieved.unwrap_or_else(|| {
                        panic!(
                            "seed {seed} {}: no point within oracle cost {}",
                            sweep.solver, point.cost
                        )
                    });
                    assert!(
                        (power - point.power).abs() < 1e-9,
                        "seed {seed} {}: {} ≠ oracle {} at cost {}",
                        sweep.solver,
                        power,
                        point.power,
                        point.cost
                    );
                }
            }
        }
    }
}

#[test]
fn refused_instances_are_refused_by_solve_and_sweep_alike() {
    let mut rng = StdRng::seed_from_u64(14);
    let config = GeneratorConfig {
        internal_nodes: 30,
        children_range: (1, 3),
        client_probability: 0.9,
        requests_range: (1, 4),
    };
    let tree = generate::random_tree(&config, &mut rng);
    assert_eq!(tree.internal_count(), 30);
    // Two modes over 30 nodes: 3^30 placements, far above the oracle's
    // enumeration cap, and more than one mode for the Theorem 1 DP.
    let instance = Instance::builder(tree)
        .power(PowerModel::new(1.0, 2.0))
        .modes(ModeSet::new(vec![3, 6]).unwrap())
        .build()
        .unwrap();
    let registry = Registry::with_all();
    let options = SolveOptions::default();
    for name in ["exhaustive", "dp_mincost"] {
        assert!(!registry.get(name).unwrap().supports(&instance), "{name}");
        let solved = registry.solve(name, &instance, &options);
        assert!(
            matches!(solved, Err(EngineError::Unsupported(_))),
            "{name}: solve gave {solved:?}"
        );
        let swept = registry.sweep(name, &instance, &options, &[1.0, 10.0]);
        assert!(
            matches!(swept, Err(EngineError::Unsupported(_))),
            "{name}: sweep gave {swept:?}"
        );
    }
}
