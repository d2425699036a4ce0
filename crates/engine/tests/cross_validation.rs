//! Registry-wide cross-validation against the exhaustive oracle.
//!
//! Every registered solver is run, through the uniform engine interface,
//! on 60 small random instances (30 two-mode, 30 single-mode; half with
//! pre-existing servers; static power from {1, 0, 6.4, U[0, 50)} and
//! α ∈ {1, 2, 2.5, 3}) and judged against the enumeration oracle:
//!
//! * exact `MinPower` solvers must match the oracle optimum exactly, at
//!   an unconstrained budget *and* at a tight budget read off the
//!   oracle's own Pareto front;
//! * the exact `MinCost` DP must match the oracle cost optimum;
//! * the count-optimal solvers (`greedy`, `dp_mincost_nopre`) must match
//!   the oracle's minimum server count;
//! * inexact solvers must return feasible placements that never beat the
//!   oracle optimum (soundness of the upper bound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_core::exhaustive;
use replica_engine::{Registry, SolveOptions};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig};

/// A small random instance the oracle can enumerate.
fn small_instance(seed: u64, two_mode: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.random_range(3usize..=8);
    let config = GeneratorConfig {
        internal_nodes: nodes,
        children_range: (1, 3),
        client_probability: 0.8,
        requests_range: if two_mode { (1, 3) } else { (1, 4) },
    };
    let tree = generate::random_tree(&config, &mut rng);
    let modes = if two_mode {
        ModeSet::new(vec![3, 6]).unwrap()
    } else {
        ModeSet::new(vec![5]).unwrap()
    };
    let pre_count = if seed.is_multiple_of(2) {
        2.min(nodes)
    } else {
        0
    };
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
    let pre_mode = rng.random_range(0..modes.count());
    let static_power = match rng.random_range(0..4usize) {
        0 => 1.0,
        1 => 0.0,
        2 => 6.4,
        _ => rng.random_range(0.0..50.0),
    };
    let alpha = [1.0, 2.0, 2.5, 3.0][rng.random_range(0..4usize)];
    // Two-mode instances use the paper's Eq. 4 cost matrices; single-mode
    // ones use the classical Eq. 2 scalars (the setting `dp_mincost` is
    // exact for).
    let cost = if two_mode {
        CostModel::uniform(2, 0.1, 0.01, 0.001)
    } else {
        CostModel::simple(0.1, 0.01)
    };
    Instance::builder(tree)
        .pre_existing(PreExisting::at_mode(pre, pre_mode))
        .cost(cost)
        .power(PowerModel::new(static_power, alpha))
        .modes(modes)
        .build()
        .unwrap()
}

/// Oracle facts about one instance.
struct Oracle {
    min_servers: u64,
    min_cost: f64,
    /// `(bound, optimal power under bound)` for ∞ and a tight bound.
    power_by_bound: Vec<(f64, f64)>,
}

fn oracle(instance: &Instance) -> Option<Oracle> {
    let candidates = exhaustive::enumerate(instance);
    if candidates.is_empty() {
        return None;
    }
    let min_servers = candidates.iter().map(|c| c.servers).min().unwrap();
    let min_cost = candidates
        .iter()
        .map(|c| c.cost)
        .fold(f64::INFINITY, f64::min);
    // A tight budget: halfway between the cheapest solution and the cost
    // of the power-optimal one (stresses the bounded-cost filtering).
    let front = exhaustive::pareto(instance);
    let tight = match (front.first(), front.last()) {
        (Some(&(c_min, _)), Some(&(c_opt, _))) => (c_min + c_opt) / 2.0,
        _ => f64::INFINITY,
    };
    let power_by_bound = [tight, f64::INFINITY]
        .into_iter()
        .filter_map(|bound| {
            exhaustive::min_power_bounded(instance, bound)
                .ok()
                .map(|c| (bound, c.power))
        })
        .collect();
    Some(Oracle {
        min_servers,
        min_cost,
        power_by_bound,
    })
}

#[test]
fn all_registered_solvers_agree_with_the_oracle_on_small_instances() {
    let registry = Registry::with_all();
    let mut checked_instances = 0usize;
    let mut per_solver_checks = vec![0usize; registry.len()];

    for seed in 0..60u64 {
        let instance = small_instance(seed, seed < 30);
        let Some(oracle) = oracle(&instance) else {
            continue; // no feasible placement at all: nothing to compare
        };
        checked_instances += 1;

        for (solver_idx, solver) in registry.iter().enumerate() {
            if !solver.supports(&instance) {
                continue;
            }
            for &(bound, oracle_power) in &oracle.power_by_bound {
                let options = SolveOptions {
                    cost_bound: bound,
                    seed: seed ^ 0xA5A5,
                };
                let outcome = match solver.solve(&instance, &options) {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        // Inexact solvers may miss tight budgets; exact
                        // ones must not (the oracle found a solution).
                        assert!(
                            !(solver.capabilities().exact && solver.capabilities().cost_bound),
                            "seed {seed}: exact solver {} failed at bound {bound}",
                            solver.name()
                        );
                        continue;
                    }
                };
                per_solver_checks[solver_idx] += 1;
                let caps = solver.capabilities();
                let name = solver.name();

                // Soundness for everyone: a returned outcome is feasible
                // (the engine re-evaluated it) and never beats the oracle.
                assert!(
                    outcome.power >= oracle_power - 1e-9,
                    "seed {seed} bound {bound}: {name} claims power {} below the optimum {}",
                    outcome.power,
                    oracle_power
                );
                if caps.cost_bound {
                    assert!(
                        outcome.cost <= bound + 1e-6,
                        "seed {seed}: {name} exceeded its budget"
                    );
                }

                // Exactness where claimed.
                if caps.exact && caps.cost_bound {
                    assert!(
                        (outcome.power - oracle_power).abs() < 1e-9,
                        "seed {seed} bound {bound}: {name} power {} ≠ oracle {}",
                        outcome.power,
                        oracle_power
                    );
                }
                if name == "dp_mincost" && bound.is_infinite() {
                    assert!(
                        (outcome.cost - oracle.min_cost).abs() < 1e-9,
                        "seed {seed}: dp_mincost cost {} ≠ oracle {}",
                        outcome.cost,
                        oracle.min_cost
                    );
                }
                if matches!(name, "greedy" | "dp_mincost_nopre") && bound.is_infinite() {
                    assert_eq!(
                        outcome.servers, oracle.min_servers,
                        "seed {seed}: {name} server count is not minimal"
                    );
                }
            }
        }
    }

    assert!(
        checked_instances >= 50,
        "only {checked_instances} feasible instances generated; need ≥ 50"
    );
    for (solver_idx, solver) in registry.iter().enumerate() {
        assert!(
            per_solver_checks[solver_idx] >= 50,
            "{} was only checked {} times",
            solver.name(),
            per_solver_checks[solver_idx]
        );
    }
}

#[test]
fn exact_power_solvers_agree_pairwise_on_larger_trees() {
    // Beyond the oracle's reach, the two exact DPs must still agree with
    // each other — through the uniform interface.
    let registry = Registry::with_all();
    for seed in 100..106u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(30), &mut rng);
        let pre = generate::random_pre_existing(&tree, 4, &mut rng);
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        let instance = Instance::builder(tree)
            .pre_existing(PreExisting::at_mode(pre, 1))
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(power)
            .modes(modes)
            .build()
            .unwrap();
        for bound in [25.0, 40.0, f64::INFINITY] {
            let options = SolveOptions::with_cost_bound(bound);
            let full = registry.solve("dp_power_full", &instance, &options);
            let pruned = registry.solve("dp_power", &instance, &options);
            match (full, pruned) {
                (Ok(a), Ok(b)) => assert!(
                    (a.power - b.power).abs() < 1e-6,
                    "seed {seed} bound {bound}: {} vs {}",
                    a.power,
                    b.power
                ),
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed} bound {bound}: feasibility disagreement {other:?}"),
            }
        }
    }
}
