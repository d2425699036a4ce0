//! The [`Solver`] row every algorithm in the workspace is wrapped as.
//!
//! A solver consumes a [`replica_model::Instance`] plus [`SolveOptions`]
//! and yields a [`SolveOutcome`]: a placement together with its cost,
//! power, server count and wall-clock time. Crucially, the outcome's
//! metrics are **not** whatever the wrapped algorithm claims: every
//! placement is re-evaluated through the model crate's independent
//! Eq. 2/3/4 semantics, so outcomes from different algorithms are always
//! comparable (and a lying solver is caught immediately).
//!
//! A [`Solver`] is data, not a trait: a name, its [`Capabilities`], one
//! acceptance check, the [`ModePolicy`] its placement is read back with,
//! the algorithm itself and, where one run answers every budget, an
//! amortized frontier. [`Solver::solve_in`] is written once for all of
//! them — refuse, time the algorithm, re-evaluate — so the rule "every
//! outcome is timed around the algorithm and scored by the model" holds
//! by construction. The rows themselves live in [`crate::registry`].

use replica_core::SolveArena;
use replica_model::{Instance, ModePolicy, ModelError, Placement, Solution};
use replica_obs::Span;
use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-worker solve arena: fleet threads re-enter the hot solvers
    /// thousands of times, and the arena lets every solve after the first
    /// run allocation-free in steady state.
    static SOLVE_ARENA: RefCell<SolveArena> = RefCell::new(SolveArena::new());
}

/// Runs `f` with this thread's [`SolveArena`].
///
/// Re-entrancy safe: if the thread-local arena is already borrowed (a
/// [`Solver::solve_in`] that calls back into [`Solver::solve`] would
/// otherwise double-borrow), `f` gets a fresh throwaway arena instead.
/// Arena reuse never changes results — see [`replica_core::arena`] — so
/// which arena `f` receives is unobservable.
pub fn with_thread_arena<T>(f: impl FnOnce(&mut SolveArena) -> T) -> T {
    SOLVE_ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut SolveArena::new()),
    })
}

/// What an algorithm guarantees about its answer.
#[derive(Clone, Copy, Debug)]
pub struct Capabilities {
    /// Honors [`SolveOptions::cost_bound`].
    pub cost_bound: bool,
    /// Provably optimal on every instance it accepts: Eq. 4 cost for a
    /// cost solver (a replica-count optimum alone does not qualify once
    /// pre-existing servers exist), Eq. 3 power within the cost bound for
    /// a power solver.
    pub exact: bool,
}

/// Per-solve knobs shared by every solver.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Budget for `MinPower-BoundedCost` solvers (`f64::INFINITY` =
    /// unconstrained, recovering plain `MinPower`).
    pub cost_bound: f64,
    /// Seed for randomized solvers (simulated annealing). Deterministic
    /// solvers ignore it; the fleet runner derives a distinct value per
    /// instance so fleets are reproducible end to end.
    pub seed: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            cost_bound: f64::INFINITY,
            seed: 0xF1EE7,
        }
    }
}

impl SolveOptions {
    /// Unconstrained options with the given cost budget.
    pub fn with_cost_bound(cost_bound: f64) -> Self {
        SolveOptions {
            cost_bound,
            ..Self::default()
        }
    }
}

/// A solved instance, with metrics re-derived by the model crate.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Name of the producing solver (registry key).
    pub solver: &'static str,
    /// The placement found (modes assigned).
    pub placement: Placement,
    /// Eq. 2 / Eq. 4 cost of the placement, independently re-evaluated.
    pub cost: f64,
    /// Eq. 3 power of the placement, independently re-evaluated.
    pub power: f64,
    /// Server count.
    pub servers: u64,
    /// Reused pre-existing servers (the `e` of Eq. 2).
    pub reused: u64,
    /// Wall-clock time of the algorithm proper (excludes re-evaluation).
    pub wall: Duration,
}

/// Why a solve produced no outcome.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The solver's acceptance check refused the instance (e.g. multiple
    /// modes handed to the single-mode `MinCost` DP), or no solver has the
    /// requested name.
    Unsupported(String),
    /// The underlying algorithm failed (usually infeasibility).
    Solver(ModelError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Unsupported(msg) => write!(f, "unsupported instance: {msg}"),
            EngineError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Solver(e)
    }
}

/// An algorithm run: the placement it found, before re-evaluation.
pub(crate) type Algorithm =
    fn(&Instance, &SolveOptions, &Span, &mut SolveArena) -> Result<Placement, ModelError>;

/// An amortized budget sweep: every achievable `(cost, power)` point
/// from one run. An error means the instance itself is infeasible, not
/// that some budget is too tight.
pub(crate) type AmortizedFrontier =
    fn(&Instance, &mut SolveArena) -> Result<Vec<(f64, f64)>, ModelError>;

/// One algorithm of the [`Registry`](crate::registry::Registry): a row of
/// data that [`Solver::solve_in`] turns into a timed, model-scored
/// [`SolveOutcome`].
pub struct Solver {
    pub(crate) name: &'static str,
    pub(crate) capabilities: Capabilities,
    /// Refuses an instance outside the algorithm's reach, with the reason.
    pub(crate) accepts: fn(&Instance) -> Result<(), String>,
    /// How the placement's modes are read back when re-evaluating.
    pub(crate) policy: ModePolicy,
    pub(crate) algorithm: Algorithm,
    /// One run answering every cost budget, when the algorithm has one.
    pub(crate) frontier: Option<AmortizedFrontier>,
}

impl Solver {
    /// Stable registry name (e.g. `"dp_power"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// What this solver guarantees.
    pub fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    /// Whether `instance` is within this solver's reach.
    pub fn supports(&self, instance: &Instance) -> bool {
        (self.accepts)(instance).is_ok()
    }

    /// Whether one run answers every cost budget
    /// ([`Registry::sweep`](crate::registry::Registry::sweep) then takes
    /// the amortized path).
    pub fn amortized_sweep(&self) -> bool {
        self.frontier.is_some()
    }

    /// The acceptance check as an engine error: the one gate in front of
    /// both [`Solver::solve_in`] and the registry's budget sweep.
    pub(crate) fn accept(&self, instance: &Instance) -> Result<(), EngineError> {
        (self.accepts)(instance).map_err(EngineError::Unsupported)
    }

    /// Solves one instance under an open telemetry span, with
    /// caller-provided working memory.
    ///
    /// Refuses an instance the row does not accept, times the algorithm
    /// alone (arena rebuild and recycling included, re-evaluation
    /// excluded) and re-evaluates its placement under the row's
    /// [`ModePolicy`].
    ///
    /// Phase-aware algorithms (the two power DPs) hang `phase` sub-spans —
    /// DP table build, reconstruction — off `span`; the rest ignore it. The
    /// outcome may not depend on the span in any way: tracing is strictly
    /// out-of-band (the trace-invariance proptest pins this through the
    /// fleet). The fleet runner passes one [`SolveArena`] per worker thread
    /// so the hot solvers (greedy, both power DPs, the `GR` sweep) reuse
    /// their flat-tree layout, DP tables and prune buffers across jobs;
    /// solvers without scratch ignore it. Arena reuse must be
    /// *bit-invisible* (the equivalence batteries in `replica-core` pin
    /// this through arbitrary reuse sequences).
    pub fn solve_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        span: &Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError> {
        self.accept(instance)?;
        let start = Instant::now();
        let placement = (self.algorithm)(instance, options, span, arena);
        let wall = start.elapsed();
        let solution = Solution::evaluate_with_policy(instance, &placement?, self.policy)?;
        Ok(SolveOutcome {
            solver: self.name,
            servers: solution.counts.total_servers(),
            reused: solution.counts.reused_total(),
            placement: solution.placement,
            cost: solution.cost,
            power: solution.power,
            wall,
        })
    }

    /// Solves one instance: [`Solver::solve_in`] with this thread's arena
    /// and a disabled span.
    pub fn solve(
        &self,
        instance: &Instance,
        options: &SolveOptions,
    ) -> Result<SolveOutcome, EngineError> {
        with_thread_arena(|arena| self.solve_in(instance, options, &Span::disabled(), arena))
    }
}
