//! The solver registry: every algorithm in `replica-core`, wrapped behind
//! [`Solver`] and addressable by name.
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
//! Solvers with an amortized budget sweep (`dp_power`, `dp_power_full`,
//! `greedy_power`, `exhaustive`) answer every cost budget from one run via
//! [`Registry::sweep`]; the rest are adapted per budget
//! ([`crate::sweep::sweep_via_solves`]).

use crate::solver::{
    evaluated_outcome, timed, with_thread_arena, Capabilities, EngineError, Objective,
    SolveOptions, SolveOutcome, Solver,
};
use crate::sweep::{sweep_via_solves, BudgetSweepSolver, Frontier, SweepOutcome};
use replica_core::heuristics::{annealing, local_search, power_greedy};
use replica_core::{
    dp_mincost, dp_mincost_nopre, dp_power, dp_power_pruned, exhaustive, greedy, greedy_power,
    SolveArena,
};
use replica_model::{Instance, ModePolicy, ModelError};
use replica_obs::Span;

/// All registered solvers, addressable by name.
pub struct Registry {
    solvers: Vec<Box<dyn Solver>>,
}

impl Registry {
    /// An empty registry (use [`Registry::with_all`] for the full set).
    pub fn new() -> Self {
        Registry {
            solvers: Vec::new(),
        }
    }

    /// Registers every algorithm in the workspace.
    pub fn with_all() -> Self {
        let mut registry = Registry::new();
        registry.register(Box::new(GreedySolver));
        registry.register(Box::new(MinCountDpSolver));
        registry.register(Box::new(MinCostDpSolver));
        registry.register(Box::new(PrunedPowerDpSolver));
        registry.register(Box::new(FullPowerDpSolver));
        registry.register(Box::new(GreedyPowerSolver));
        registry.register(Box::new(ExhaustiveSolver));
        registry.register(Box::new(PowerGreedySolver));
        registry.register(Box::new(LocalSearchSolver));
        registry.register(Box::new(AnnealingSolver));
        registry
    }

    /// Adds a solver. Replaces any existing solver of the same name.
    pub fn register(&mut self, solver: Box<dyn Solver>) {
        self.solvers.retain(|s| s.name() != solver.name());
        self.solvers.push(solver);
    }

    /// Looks a solver up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Iterates over the registered solvers.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether no solver is registered.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Solves `instance` with the named solver.
    pub fn solve(
        &self,
        name: &str,
        instance: &Instance,
        options: &SolveOptions,
    ) -> Result<SolveOutcome, EngineError> {
        let solver = self
            .get(name)
            .ok_or_else(|| EngineError::Unsupported(format!("no solver named {name:?}")))?;
        solver.solve(instance, options)
    }

    /// Budget sweep through the named solver: the full budget → (cost,
    /// power) [`Frontier`] of one instance.
    ///
    /// Dispatches to the solver's amortized
    /// [`BudgetSweepSolver`] path when it has one (one algorithm run
    /// answers every budget; `budgets` is ignored) and otherwise adapts
    /// the plain per-solve interface with one solve per entry of
    /// `budgets` ([`sweep_via_solves`]).
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
        let solver = self
            .get(name)
            .ok_or_else(|| EngineError::Unsupported(format!("no solver named {name:?}")))?;
        let (native, (result, wall)) = match solver.as_budget_sweep() {
            Some(amortized) => (true, timed(|| amortized.sweep_frontier(instance, options))),
            None => (
                false,
                timed(|| sweep_via_solves(solver, instance, options, budgets)),
            ),
        };
        Ok(SweepOutcome {
            solver: solver.name(),
            frontier: result?,
            wall,
            amortized: native,
        })
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_all()
    }
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

/// `GR` of [19] at capacity `W_M`, modes lowered to the load.
struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinCost,
            multi_mode: true,
            pre_existing: false,
            cost_bound: false,
            exact: false,
            amortized_sweep: false,
        }
    }

    // The flat layout and flow buffers come from the caller's arena, so
    // fleet threads (which re-enter the greedy thousands of times) run
    // allocation-free in steady state.
    fn solve_in(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
        _span: &Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| {
            arena.flat.rebuild(instance.tree());
            greedy::greedy_min_replicas_flat(
                &arena.flat,
                instance.max_capacity(),
                &mut arena.greedy,
            )
        });
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::LowestFeasible,
            wall,
        )
    }
}

/// The `O(N²)` replica-count DP of [6].
struct MinCountDpSolver;

impl Solver for MinCountDpSolver {
    fn name(&self) -> &'static str {
        "dp_mincost_nopre"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinCost,
            multi_mode: true,
            pre_existing: false,
            cost_bound: false,
            exact: false,
            amortized_sweep: false,
        }
    }

    fn solve_in(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) =
            timed(|| dp_mincost_nopre::solve_min_count(instance.tree(), instance.max_capacity()));
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::LowestFeasible,
            wall,
        )
    }
}

/// The `MinCost-WithPre` DP (Theorem 1); single-mode instances only.
struct MinCostDpSolver;

impl Solver for MinCostDpSolver {
    fn name(&self) -> &'static str {
        "dp_mincost"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinCost,
            multi_mode: false,
            pre_existing: true,
            cost_bound: false,
            exact: true,
            amortized_sweep: false,
        }
    }

    fn solve_in(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        if instance.mode_count() != 1 {
            return Err(EngineError::Unsupported(
                "dp_mincost is the single-mode Theorem 1 DP; use dp_power for modes".into(),
            ));
        }
        let (result, wall) = timed(|| dp_mincost::solve_min_cost(instance));
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }
}

/// The full state-vector `MinPower-BoundedCost` DP (Theorem 3), kept as
/// the cross-check against the default pruned reformulation.
struct FullPowerDpSolver;

impl Solver for FullPowerDpSolver {
    fn name(&self) -> &'static str {
        "dp_power_full"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: true,
            amortized_sweep: true,
        }
    }

    // Untraced solves pass a disabled span through this same body, so the
    // phases always run identically and tracing stays out-of-band by
    // construction; arena reuse is bit-invisible (the full DP keeps its
    // hash tables fresh per solve — see the determinism notes in
    // `replica_core::dp_power`).
    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        span: &Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| -> Result<_, ModelError> {
            let dp = {
                let _phase = span.child("phase", "dp_table");
                dp_power::PowerDp::run_in(instance, &mut arena.full)?
            };
            let _phase = span.child("phase", "reconstruct");
            let outcome = match dp.best_within(options.cost_bound) {
                Some(best) => dp.reconstruct(best),
                None => Err(ModelError::Infeasible(format!(
                    "no placement fits the cost bound {}",
                    options.cost_bound
                ))),
            };
            dp.recycle(&mut arena.full);
            outcome
        });
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }

    fn as_budget_sweep(&self) -> Option<&dyn BudgetSweepSolver> {
        Some(self)
    }
}

impl BudgetSweepSolver for FullPowerDpSolver {
    fn sweep_frontier(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
    ) -> Result<Frontier, EngineError> {
        with_thread_arena(|arena| {
            let dp = dp_power::PowerDp::run_in(instance, &mut arena.full)?;
            let points = dp.cost_power_points();
            dp.recycle(&mut arena.full);
            Ok(Frontier::from_points(points))
        })
    }
}

/// The dominance-pruned exact power DP (beyond the paper) — the default
/// `dp_power`: bit-equal optima, 1–2 orders of magnitude faster in fleet
/// runs than the full-state formulation.
struct PrunedPowerDpSolver;

impl Solver for PrunedPowerDpSolver {
    fn name(&self) -> &'static str {
        "dp_power"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: true,
            amortized_sweep: true,
        }
    }

    // Phases and arena as in `FullPowerDpSolver`.
    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        span: &Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| -> Result<_, ModelError> {
            let dp = {
                let _phase = span.child("phase", "dp_table");
                dp_power_pruned::PrunedPowerDp::run_in(instance, &mut arena.pruned)?
            };
            let _phase = span.child("phase", "reconstruct");
            let outcome = match dp.best_within(options.cost_bound).copied() {
                Some(best) => dp.reconstruct(&best),
                None => Err(ModelError::Infeasible(format!(
                    "no placement fits the cost bound {}",
                    options.cost_bound
                ))),
            };
            dp.recycle(&mut arena.pruned);
            outcome
        });
        evaluated_outcome(self.name(), instance, &result?, ModePolicy::Assigned, wall)
    }

    fn as_budget_sweep(&self) -> Option<&dyn BudgetSweepSolver> {
        Some(self)
    }
}

impl BudgetSweepSolver for PrunedPowerDpSolver {
    fn sweep_frontier(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
    ) -> Result<Frontier, EngineError> {
        with_thread_arena(|arena| {
            let dp = dp_power_pruned::PrunedPowerDp::run_in(instance, &mut arena.pruned)?;
            let points = dp.cost_power_points();
            dp.recycle(&mut arena.pruned);
            Ok(Frontier::from_points(points))
        })
    }
}

/// The §5.2 baseline: `GR` swept over trial capacities, best power kept.
struct GreedyPowerSolver;

impl Solver for GreedyPowerSolver {
    fn name(&self) -> &'static str {
        "greedy_power"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: false,
            cost_bound: true,
            exact: false,
            amortized_sweep: true,
        }
    }

    // The whole `W₁..=W_M` sweep shares one flat layout and one set of
    // greedy buffers from the caller's arena.
    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        _span: &Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| greedy_power::solve_in(instance, options.cost_bound, arena));
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }

    fn as_budget_sweep(&self) -> Option<&dyn BudgetSweepSolver> {
        Some(self)
    }
}

impl BudgetSweepSolver for GreedyPowerSolver {
    fn sweep_frontier(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
    ) -> Result<Frontier, EngineError> {
        // The capacity sweep is computed once; every budget filters the
        // same handful of points. An instance no trial capacity can serve
        // yields an empty frontier, not an error (matching the paper's
        // "value 0 when the algorithm fails" convention).
        let points = with_thread_arena(|arena| greedy_power::paper_sweep_in(instance, arena))
            .into_iter()
            .map(|p| (p.cost, p.power))
            .collect();
        Ok(Frontier::from_points(points))
    }
}

/// The exhaustive oracle (refuses instances beyond its enumeration cap).
struct ExhaustiveSolver;

impl Solver for ExhaustiveSolver {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: true,
            amortized_sweep: true,
        }
    }

    fn supports(&self, instance: &Instance) -> bool {
        let combos = (instance.mode_count() as u128 + 1)
            .checked_pow(instance.tree().internal_count() as u32)
            .unwrap_or(u128::MAX);
        combos <= exhaustive::MAX_COMBINATIONS
    }

    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        if !self.supports(instance) {
            return Err(EngineError::Unsupported(format!(
                "instance too large for exhaustive enumeration (> {} combinations)",
                exhaustive::MAX_COMBINATIONS
            )));
        }
        let (result, wall) = timed(|| exhaustive::min_power_bounded(instance, options.cost_bound));
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }

    fn as_budget_sweep(&self) -> Option<&dyn BudgetSweepSolver> {
        Some(self)
    }
}

impl BudgetSweepSolver for ExhaustiveSolver {
    fn sweep_frontier(
        &self,
        instance: &Instance,
        _options: &SolveOptions,
    ) -> Result<Frontier, EngineError> {
        if !self.supports(instance) {
            return Err(EngineError::Unsupported(format!(
                "instance too large for exhaustive enumeration (> {} combinations)",
                exhaustive::MAX_COMBINATIONS
            )));
        }
        Ok(Frontier::from_points(exhaustive::pareto(instance)))
    }
}

/// The §6 constructive fill-threshold heuristic.
struct PowerGreedySolver;

impl Solver for PowerGreedySolver {
    fn name(&self) -> &'static str {
        "heur_power_greedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: false,
            amortized_sweep: false,
        }
    }

    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| power_greedy::solve(instance, options.cost_bound));
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }
}

/// Constructive heuristic polished by first-improvement hill climbing.
struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "heur_local_search"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: false,
            amortized_sweep: false,
        }
    }

    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| -> Result<_, ModelError> {
            let seed = power_greedy::solve(instance, options.cost_bound)?;
            local_search::solve(
                instance,
                &seed.placement,
                options.cost_bound,
                local_search::LocalSearchOptions::default(),
            )
        });
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }
}

/// Constructive heuristic polished by seeded simulated annealing.
struct AnnealingSolver;

impl Solver for AnnealingSolver {
    fn name(&self) -> &'static str {
        "heur_annealing"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::MinPower,
            multi_mode: true,
            pre_existing: true,
            cost_bound: true,
            exact: false,
            amortized_sweep: false,
        }
    }

    fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        _span: &Span,
        _arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        let (result, wall) = timed(|| -> Result<_, ModelError> {
            let seed = power_greedy::solve(instance, options.cost_bound)?;
            annealing::solve(
                instance,
                &seed.placement,
                options.cost_bound,
                annealing::AnnealingOptions {
                    iterations: 5_000,
                    seed: options.seed,
                    ..Default::default()
                },
            )
        });
        evaluated_outcome(
            self.name(),
            instance,
            &result?.placement,
            ModePolicy::Assigned,
            wall,
        )
    }
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
    fn registration_replaces_same_name() {
        let mut registry = Registry::with_all();
        let before = registry.len();
        registry.register(Box::new(GreedySolver));
        assert_eq!(registry.len(), before);
    }

    #[test]
    fn sweep_capability_flag_agrees_with_the_sweep_hook() {
        let registry = Registry::with_all();
        let mut amortized = 0usize;
        for solver in registry.iter() {
            assert_eq!(
                solver.capabilities().amortized_sweep,
                solver.as_budget_sweep().is_some(),
                "{}: amortized_sweep flag out of sync",
                solver.name()
            );
            amortized += solver.capabilities().amortized_sweep as usize;
        }
        assert_eq!(
            amortized, 4,
            "dp_power, dp_power_full, greedy_power, exhaustive"
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
