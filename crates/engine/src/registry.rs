//! The solver registry: every algorithm in `replica-core` as one row of
//! a static [`Solver`] table, addressable by name.
//!
//! | Name | Wraps | Objective | Exact | Amortized sweep |
//! |---|---|---|---|---|
//! | `greedy` | [`replica_core::greedy`] (`GR` of \[19\]) | cost | count-optimal | — |
//! | `dp_mincost_nopre` | [`replica_core::dp_mincost_nopre`] (\[6\]) | cost | count-optimal | — |
//! | `dp_mincost` | [`replica_core::dp_mincost`] (Theorem 1) | cost | ✓ (single-mode) | — |
//! | `dp_power` | [`replica_core::dp_power_pruned`] (pruned Theorem 3) | power | ✓ | ✓ |
//! | `dp_power_full` | [`replica_core::dp_power`] (full-state Theorem 3) | power | ✓ | ✓ |
//! | `greedy_power` | [`replica_core::greedy_power`] (§5.2 baseline) | power | — | ✓ |
//! | `exhaustive` | [`replica_core::exhaustive`] (oracle) | power | ✓ (small instances) | ✓ |
//! | `heur_power_greedy` | [`replica_core::heuristics::power_greedy`] | power | — | — |
//! | `heur_local_search` | power_greedy + [`replica_core::heuristics::local_search`] | power | — | — |
//! | `heur_annealing` | power_greedy + [`replica_core::heuristics::annealing`] | power | — | — |
//!
//! Each row differs from the others only in data: its [`Capabilities`],
//! its acceptance check (`dp_mincost` takes single-mode instances only,
//! `exhaustive` only instances within its enumeration cap, every other
//! row takes everything), the [`ModePolicy`] its placement is read back
//! with, the algorithm, and the amortized frontier where it has one.
//!
//! `dp_power` is the dominance-*pruned* exact DP: it returns bit-equal
//! optima to the paper's full state-vector DP while running 1–2 orders of
//! magnitude faster in fleet runs, so it is the default. The full-state
//! algorithm stays registered as `dp_power_full`, the cross-check the
//! oracle suite exercises against the pruned one.
//!
//! `greedy` / `dp_mincost_nopre` are *count-optimal*: they return the
//! minimum replica count (the classical `MinCost` optimum), which equals
//! the Eq. 2 cost optimum only without pre-existing servers; their `exact`
//! flag is therefore `false` under the stricter Eq. 4 reading the
//! [`Capabilities`] docs define.
//!
//! Rows with an amortized frontier (`dp_power`, `dp_power_full`,
//! `greedy_power`, `exhaustive`) answer every cost budget from one run via
//! [`Registry::sweep`]; the rest are adapted per budget
//! ([`crate::sweep::sweep_via_solves`]).

use crate::solver::{
    with_thread_arena, Capabilities, EngineError, SolveOptions, SolveOutcome, Solver,
};
use crate::sweep::{sweep_via_solves, Frontier, SweepOutcome};
use replica_core::heuristics::{annealing, local_search, power_greedy};
use replica_core::{
    dp_mincost, dp_mincost_nopre, dp_power, dp_power_pruned, exhaustive, greedy, greedy_power,
    SolveArena,
};
use replica_model::{Instance, ModePolicy, ModelError, Placement};
use replica_obs::Span;
use std::time::Instant;

/// All registered solvers, addressable by name.
pub struct Registry {
    solvers: &'static [Solver],
}

impl Registry {
    /// Every algorithm in the workspace.
    pub fn with_all() -> Self {
        Registry { solvers: &SOLVERS }
    }

    /// Looks a solver up by name.
    pub fn get(&self, name: &str) -> Option<&Solver> {
        self.solvers.iter().find(|s| s.name == name)
    }

    /// Registered names, in table order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name).collect()
    }

    /// Iterates over the registered solvers.
    pub fn iter(&self) -> impl Iterator<Item = &Solver> {
        self.solvers.iter()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether no solver is registered.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    fn lookup(&self, name: &str) -> Result<&Solver, EngineError> {
        self.get(name)
            .ok_or_else(|| EngineError::Unsupported(format!("no solver named {name:?}")))
    }

    /// Solves `instance` with the named solver.
    pub fn solve(
        &self,
        name: &str,
        instance: &Instance,
        options: &SolveOptions,
    ) -> Result<SolveOutcome, EngineError> {
        self.lookup(name)?.solve(instance, options)
    }

    /// Budget sweep through the named solver: the full budget → (cost,
    /// power) [`Frontier`] of one instance.
    ///
    /// Refuses an instance the solver does not accept, through the same
    /// check as [`Solver::solve_in`]. Then runs the solver's amortized
    /// frontier when it has one (one algorithm run answers every budget;
    /// `budgets` is ignored) and otherwise adapts the plain per-solve
    /// interface with one solve per entry of `budgets`
    /// ([`sweep_via_solves`]).
    ///
    /// ```
    /// use replica_engine::prelude::*;
    ///
    /// let instance = Scenario::new(Topology::Fat, Demand::Uniform, 12).instance(7, 0);
    /// let registry = Registry::with_all();
    /// let budgets: Vec<f64> = (5..=30).map(f64::from).collect();
    /// let sweep = registry
    ///     .sweep("dp_power", &instance, &SolveOptions::default(), &budgets)
    ///     .unwrap();
    /// assert!(sweep.amortized, "the exact DP answers all budgets in one run");
    /// // Power is non-increasing in the budget along the frontier.
    /// let powers: Vec<Option<f64>> = sweep.frontier.sample(&budgets);
    /// for pair in powers.windows(2) {
    ///     if let (Some(a), Some(b)) = (pair[0], pair[1]) {
    ///         assert!(b <= a + 1e-9);
    ///     }
    /// }
    /// ```
    pub fn sweep(
        &self,
        name: &str,
        instance: &Instance,
        options: &SolveOptions,
        budgets: &[f64],
    ) -> Result<SweepOutcome, EngineError> {
        let solver = self.lookup(name)?;
        solver.accept(instance)?;
        let start = Instant::now();
        let frontier = match solver.frontier {
            Some(frontier) => {
                Frontier::from_points(with_thread_arena(|arena| frontier(instance, arena))?)
            }
            None => sweep_via_solves(solver, instance, options, budgets)?,
        };
        Ok(SweepOutcome {
            solver: solver.name,
            frontier,
            wall: start.elapsed(),
            amortized: solver.amortized_sweep(),
        })
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_all()
    }
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// Every row, in registry order.
static SOLVERS: [Solver; 10] = [
    // `GR` of [19] at capacity `W_M`, modes lowered to the load. The flat
    // layout and flow buffers come from the caller's arena, so fleet
    // threads (which re-enter the greedy thousands of times) run
    // allocation-free in steady state.
    Solver {
        name: "greedy",
        capabilities: COUNT_OPTIMAL,
        accepts: any_instance,
        policy: ModePolicy::LowestFeasible,
        algorithm: |instance, _, _, arena| {
            arena.flat.rebuild(instance.tree());
            let capacity = instance.max_capacity();
            greedy::greedy_min_replicas_flat(&arena.flat, capacity, &mut arena.greedy)
                .map(|s| s.placement)
        },
        frontier: None,
    },
    // The `O(N²)` replica-count DP of [6].
    Solver {
        name: "dp_mincost_nopre",
        capabilities: COUNT_OPTIMAL,
        accepts: any_instance,
        policy: ModePolicy::LowestFeasible,
        algorithm: |instance, _, _, _| {
            dp_mincost_nopre::solve_min_count(instance.tree(), instance.max_capacity())
                .map(|s| s.placement)
        },
        frontier: None,
    },
    // The `MinCost-WithPre` DP (Theorem 1); single-mode instances only.
    Solver {
        name: "dp_mincost",
        capabilities: Capabilities {
            cost_bound: false,
            exact: true,
        },
        accepts: single_mode,
        policy: ModePolicy::Assigned,
        algorithm: |instance, _, _, _| dp_mincost::solve_min_cost(instance).map(|s| s.placement),
        frontier: None,
    },
    // The dominance-pruned exact power DP (beyond the paper), the default:
    // bit-equal optima, 1–2 orders of magnitude faster in fleet runs than
    // the full-state formulation. An unbounded solve builds (flow, power)
    // fronts, a budgeted one 3-D fronts; the amortized frontier answers
    // every budget, so it always builds 3-D fronts.
    Solver {
        name: "dp_power",
        capabilities: EXACT_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: pruned_power_dp,
        frontier: Some(|instance, arena| {
            let dp = dp_power_pruned::PrunedPowerDp::run_in(instance, &mut arena.pruned)?;
            let points = dp.cost_power_points();
            dp.recycle(&mut arena.pruned);
            Ok(points)
        }),
    },
    // The full state-vector `MinPower-BoundedCost` DP (Theorem 3), kept as
    // the cross-check against the default pruned reformulation.
    Solver {
        name: "dp_power_full",
        capabilities: EXACT_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: full_power_dp,
        frontier: Some(|instance, arena| {
            let dp = dp_power::PowerDp::run_in(instance, &mut arena.full)?;
            let points = dp.cost_power_points();
            dp.recycle(&mut arena.full);
            Ok(points)
        }),
    },
    // The §5.2 baseline: `GR` swept over trial capacities, best power kept.
    // The whole `W₁..=W_M` sweep shares one flat layout and one set of
    // greedy buffers from the caller's arena. Its frontier computes the
    // capacity sweep once; an instance no trial capacity can serve yields
    // an empty frontier, not an error (matching the paper's "value 0 when
    // the algorithm fails" convention).
    Solver {
        name: "greedy_power",
        capabilities: HEURISTIC_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: |instance, options, _, arena| {
            greedy_power::solve(instance, options.cost_bound, arena).map(|s| s.placement)
        },
        frontier: Some(|instance, arena| {
            let sweep = greedy_power::paper_sweep(instance, arena);
            Ok(sweep.into_iter().map(|p| (p.cost, p.power)).collect())
        }),
    },
    // The exhaustive oracle.
    Solver {
        name: "exhaustive",
        capabilities: EXACT_POWER,
        accepts: within_enumeration_cap,
        policy: ModePolicy::Assigned,
        algorithm: |instance, options, _, _| {
            exhaustive::min_power_bounded(instance, options.cost_bound).map(|s| s.placement)
        },
        frontier: Some(|instance, _| Ok(exhaustive::pareto(instance))),
    },
    // The §6 constructive fill-threshold heuristic.
    Solver {
        name: "heur_power_greedy",
        capabilities: HEURISTIC_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: |instance, options, _, _| {
            power_greedy::solve(instance, options.cost_bound).map(|s| s.placement)
        },
        frontier: None,
    },
    // The constructive heuristic polished by first-improvement hill
    // climbing.
    Solver {
        name: "heur_local_search",
        capabilities: HEURISTIC_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: |instance, options, _, _| {
            let seed = power_greedy::solve(instance, options.cost_bound)?;
            let polish = local_search::LocalSearchOptions::default();
            local_search::solve(instance, &seed.placement, options.cost_bound, polish)
                .map(|s| s.placement)
        },
        frontier: None,
    },
    // The constructive heuristic polished by seeded simulated annealing.
    Solver {
        name: "heur_annealing",
        capabilities: HEURISTIC_POWER,
        accepts: any_instance,
        policy: ModePolicy::Assigned,
        algorithm: |instance, options, _, _| {
            let seed = power_greedy::solve(instance, options.cost_bound)?;
            let polish = annealing::AnnealingOptions {
                iterations: 5_000,
                seed: options.seed,
                ..Default::default()
            };
            annealing::solve(instance, &seed.placement, options.cost_bound, polish)
                .map(|s| s.placement)
        },
        frontier: None,
    },
];

/// A replica-count minimizer: exact for the classical `MinCost`, not for
/// Eq. 4, and blind to the cost bound.
const COUNT_OPTIMAL: Capabilities = Capabilities {
    cost_bound: false,
    exact: false,
};

/// An exact `MinPower-BoundedCost` solver.
const EXACT_POWER: Capabilities = Capabilities {
    cost_bound: true,
    exact: true,
};

/// A power heuristic that honors the cost bound.
const HEURISTIC_POWER: Capabilities = Capabilities {
    cost_bound: true,
    exact: false,
};

fn any_instance(_: &Instance) -> Result<(), String> {
    Ok(())
}

fn single_mode(instance: &Instance) -> Result<(), String> {
    if instance.mode_count() == 1 {
        Ok(())
    } else {
        Err("dp_mincost is the single-mode Theorem 1 DP; use dp_power for modes".into())
    }
}

/// The oracle refuses instances whose `(M + 1)^internal` placements it
/// could not enumerate.
fn within_enumeration_cap(instance: &Instance) -> Result<(), String> {
    let combos = (instance.mode_count() as u128 + 1)
        .checked_pow(instance.tree().internal_count() as u32)
        .unwrap_or(u128::MAX);
    if combos <= exhaustive::MAX_COMBINATIONS {
        Ok(())
    } else {
        Err(format!(
            "instance too large for exhaustive enumeration (> {} combinations)",
            exhaustive::MAX_COMBINATIONS
        ))
    }
}

// The two power DPs hang their phase spans off the solve span. Untraced
// solves pass a disabled span through the same body, so the phases always
// run identically and tracing stays out-of-band by construction.

fn pruned_power_dp(
    instance: &Instance,
    options: &SolveOptions,
    span: &Span,
    arena: &mut SolveArena,
) -> Result<Placement, ModelError> {
    let dp = {
        let _phase = span.child("phase", "dp_table");
        dp_power_pruned::PrunedPowerDp::run_for(instance, options.cost_bound, &mut arena.pruned)?
    };
    let _phase = span.child("phase", "reconstruct");
    let outcome = match dp.best_within(options.cost_bound).copied() {
        Some(best) => dp.reconstruct(&best),
        None => Err(no_fit(options.cost_bound)),
    };
    dp.recycle(&mut arena.pruned);
    outcome
}

/// Arena reuse is bit-invisible here too: the full DP keeps its hash
/// tables fresh per solve (see the determinism notes in
/// `replica_core::dp_power`).
fn full_power_dp(
    instance: &Instance,
    options: &SolveOptions,
    span: &Span,
    arena: &mut SolveArena,
) -> Result<Placement, ModelError> {
    let dp = {
        let _phase = span.child("phase", "dp_table");
        dp_power::PowerDp::run_in(instance, &mut arena.full)?
    };
    let _phase = span.child("phase", "reconstruct");
    let outcome = match dp.best_within(options.cost_bound) {
        Some(best) => dp.reconstruct(best).map(|s| s.placement),
        None => Err(no_fit(options.cost_bound)),
    };
    dp.recycle(&mut arena.full);
    outcome
}

fn no_fit(cost_bound: f64) -> ModelError {
    ModelError::Infeasible(format!("no placement fits the cost bound {cost_bound}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{ModeSet, PowerModel};
    use replica_tree::TreeBuilder;

    fn small_instance() -> Instance {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        let c = b.add_child(r);
        b.add_client(a, 4);
        b.add_client(c, 5);
        b.add_client(r, 2);
        Instance::builder(b.build().unwrap())
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .power(PowerModel::new(1.0, 2.0))
            .build()
            .unwrap()
    }

    #[test]
    fn registry_registers_all_ten() {
        let registry = Registry::with_all();
        assert_eq!(registry.len(), 10);
        for name in [
            "greedy",
            "dp_mincost_nopre",
            "dp_mincost",
            "dp_power",
            "dp_power_full",
            "greedy_power",
            "exhaustive",
            "heur_power_greedy",
            "heur_local_search",
            "heur_annealing",
        ] {
            assert!(registry.get(name).is_some(), "{name} missing");
        }
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn every_supporting_solver_solves_the_small_instance() {
        let registry = Registry::with_all();
        let instance = small_instance();
        let options = SolveOptions::default();
        for solver in registry.iter() {
            if !solver.supports(&instance) {
                continue;
            }
            let outcome = solver
                .solve(&instance, &options)
                .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
            assert!(outcome.servers >= 1, "{}", solver.name());
            assert!(outcome.power > 0.0, "{}", solver.name());
        }
    }

    #[test]
    fn mincost_dp_rejects_multi_mode() {
        let registry = Registry::with_all();
        let instance = small_instance();
        assert!(!registry.get("dp_mincost").unwrap().supports(&instance));
        let err = registry
            .solve("dp_mincost", &instance, &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn outcomes_are_model_reevaluated_and_agree_on_exact_solvers() {
        let registry = Registry::with_all();
        let instance = small_instance();
        let options = SolveOptions::default();
        let full = registry
            .solve("dp_power_full", &instance, &options)
            .unwrap();
        let pruned = registry.solve("dp_power", &instance, &options).unwrap();
        let oracle = registry.solve("exhaustive", &instance, &options).unwrap();
        assert!((full.power - oracle.power).abs() < 1e-9);
        assert!((pruned.power - oracle.power).abs() < 1e-9);
    }

    #[test]
    fn amortized_rows_are_the_dps_the_gr_sweep_and_the_oracle() {
        let amortized: Vec<&str> = Registry::with_all()
            .iter()
            .filter(|s| s.amortized_sweep())
            .map(|s| s.name())
            .collect();
        assert_eq!(
            amortized,
            ["dp_power", "dp_power_full", "greedy_power", "exhaustive"]
        );
    }

    #[test]
    fn native_sweep_matches_per_budget_solves() {
        let registry = Registry::with_all();
        let instance = small_instance();
        let options = SolveOptions::default();
        let budgets: Vec<f64> = (1..=12).map(f64::from).collect();
        for name in ["dp_power", "dp_power_full", "greedy_power", "exhaustive"] {
            let sweep = registry
                .sweep(name, &instance, &options, &budgets)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sweep.amortized, "{name} advertises an amortized path");
            for &bound in &budgets {
                let amortized = sweep.frontier.best_within(bound).map(|p| p.power);
                let direct = registry
                    .solve(name, &instance, &SolveOptions::with_cost_bound(bound))
                    .ok()
                    .map(|o| o.power);
                match (amortized, direct) {
                    (Some(a), Some(d)) => assert!(
                        (a - d).abs() < 1e-9,
                        "{name} bound {bound}: frontier {a} vs direct {d}"
                    ),
                    (None, None) => {}
                    other => {
                        panic!("{name} bound {bound}: feasibility disagreement {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn fallback_sweep_adapts_non_sweep_solvers() {
        let registry = Registry::with_all();
        let instance = small_instance();
        let budgets: Vec<f64> = (1..=12).map(f64::from).collect();
        let sweep = registry
            .sweep(
                "heur_power_greedy",
                &instance,
                &SolveOptions::default(),
                &budgets,
            )
            .unwrap();
        assert!(!sweep.amortized, "heuristics have no amortized path");
        assert!(!sweep.frontier.is_empty());
        // The fallback frontier never beats the exact DP's.
        let exact = registry
            .sweep("dp_power", &instance, &SolveOptions::default(), &budgets)
            .unwrap();
        for &bound in &budgets {
            if let (Some(h), Some(e)) = (
                sweep.frontier.best_within(bound),
                exact.frontier.best_within(bound),
            ) {
                assert!(h.power >= e.power - 1e-9, "bound {bound}");
            }
        }
    }
}
