//! # `replica-engine` — unified solver registry + parallel fleet runner
//!
//! The algorithms of `replica-core` are free functions with per-algorithm
//! signatures; this crate turns them into one subsystem (see
//! `docs/ARCHITECTURE.md` at the repository root for the full crate map
//! and data-flow diagrams):
//!
//! 1. **[`solver`]** — the [`Solver`] row: every algorithm becomes
//!    `solve(&Instance, &SolveOptions) -> SolveOutcome` through one
//!    body that refuses what the row does not accept, times the
//!    algorithm alone and re-derives the metrics through the model
//!    crate's independent Eq. 2/3/4 evaluation, so outcomes are always
//!    comparable. Two capability flags say whether the row honors the
//!    cost budget and whether its answer is exact.
//! 2. **[`registry`]** — a name-addressable [`Registry`] over one static
//!    table of ten rows (the pruned exact DP as the default `dp_power`,
//!    the full-state DP as its `dp_power_full` cross-check, both greedy
//!    baselines, the three §6 heuristics and the exhaustive oracle).
//! 3. **[`sweep`]** — the amortized budget-sweep API: one run per
//!    instance returns the whole budget → (cost, power) [`Frontier`]
//!    through [`Registry::sweep`], from the row's own frontier where the
//!    algorithm amortizes (the DPs, the capacity-swept `GR`, the oracle)
//!    and via a generic per-budget adapter everywhere else.
//! 4. **[`fleet`]** — the rayon-powered [`Fleet`] runner, built from a
//!    validated [`Campaign`] ([`Fleet::new`]): labelled instances ×
//!    solvers evaluated in parallel with deterministic per-instance
//!    seeding ([`seeding`]) and folded, in job order, into
//!    per-`(scenario, solver)` **streaming accumulators**
//!    ([`MetricAccumulator`], from `replica-obs`) —
//!    cost/power/gap distributions with P² percentile sketches,
//!    optimality gaps and speedups against the exact DP — without ever
//!    materializing the cell matrix. Jobs come from an **indexed lazy
//!    [`JobSpace`]** ([`jobspace`]): `index → FleetJob` as a pure
//!    function of the global job index, so running any contiguous range
//!    constructs only that range's jobs. The shard entry point
//!    ([`Fleet::run_shard`], whose cell tap records a shard's cells) and
//!    [`FleetFold`] (which replays them in shard order) let
//!    `replica-fleetd` split a fleet across processes — each worker
//!    `O(shard)` in generation and memory — and merge the pieces back
//!    byte-identically.
//! 5. **[`spec`]** — the declarative campaign API: [`CampaignSpec`], the
//!    single serde-serializable, *validated* description of any run
//!    (named scenario sets or inline scenario lists, solver lineup,
//!    reference, seed, batching, cost bound, budget grid, output
//!    format), with a fluent builder, JSON load/save, and the typed
//!    [`SpecError`] whose messages carry did-you-mean suggestions.
//!    Validation at load time resolves a spec into a [`Campaign`] — the
//!    self-contained form `fleetd` plans embed and the wire seam a
//!    multi-host dispatcher will ship. Committed examples:
//!    `examples/campaigns/` at the repository root. **[`output`]**
//!    holds the one report pipeline — rows of [`output::Field`]s, each
//!    tagged timing or not, written by three renderers (text table,
//!    CSV, JSON) — and renders any [`fleet::FleetReport`] and trace
//!    analysis in the spec-addressable formats (table / CSV / JSON; the
//!    `-det` variants are the same rows without the timing fields).
//!
//! **[`scenarios`]** supplies the fleets: named, reproducible instance
//! families crossing five topology shapes (fat, high, binary,
//! caterpillar, star) with seven demand patterns — the paper-aligned
//! four (uniform, skewed, flash-crowd, drifting) plus three churn
//! families backed by `replica-sim` evolutions (walk-drift over rounds,
//! quiet churn, heterogeneous per-subtree mixes).
//!
//! ## Quickstart
//!
//! ```
//! use replica_engine::prelude::*;
//!
//! // One instance, three algorithms, uniform interface.
//! let scenario = Scenario::new(Topology::High, Demand::Uniform, 20);
//! let instance = scenario.instance(42, 0);
//! let registry = Registry::with_all();
//! let options = SolveOptions::default();
//! let exact = registry.solve("dp_power", &instance, &options).unwrap();
//! let greedy = registry.solve("greedy_power", &instance, &options).unwrap();
//! assert!(exact.power <= greedy.power + 1e-9);
//!
//! // One amortized run answers every cost budget (Figures 8–11 style).
//! let budgets: Vec<f64> = (5..=40).map(f64::from).collect();
//! let sweep = registry.sweep("dp_power", &instance, &options, &budgets).unwrap();
//! assert!(sweep.amortized);
//! assert_eq!(
//!     sweep.frontier.best_within(f64::INFINITY).map(|p| p.power),
//!     Some(exact.power),
//! );
//!
//! // A seeded fleet, described declaratively: the spec validates
//! // against the registry before any job runs, then the runner streams
//! // jobs lazily from the campaign's indexed job space.
//! let campaign = CampaignSpec::builder()
//!     .scenarios([scenario])
//!     .instances_per_scenario(4)
//!     .solvers(["dp_power", "greedy_power"])
//!     .seed(42)
//!     .build()
//!     .validate(&registry)
//!     .unwrap();
//! let fleet = Fleet::new(&registry, &campaign).unwrap();
//! let report = fleet.run(&campaign.space(), &Obs::noop());
//! assert_eq!(report.summaries.len(), 2);
//! println!("{}", render(&report, OutputFormat::Table));
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod jobspace;
pub mod output;
pub mod registry;
pub mod scenarios;
pub mod seeding;
pub mod solver;
pub mod spec;
pub mod sweep;

pub use fleet::{
    CancelToken, CellOutcome, CellResult, Fleet, FleetCell, FleetFold, FleetJob, FleetReport,
    FleetSummary,
};
pub use jobspace::{CountingSpace, JobSpace, ScenarioSpace};
pub use output::{render, OutputFormat};
pub use registry::Registry;
pub use replica_obs::{MetricAccumulator, Stats};
pub use scenarios::{
    churn_families, extended_families, standard_families, Demand, Scenario, Topology,
};
pub use solver::{Capabilities, EngineError, SolveOptions, SolveOutcome, Solver};
pub use spec::{
    Campaign, CampaignSpec, CampaignSpecBuilder, ScenarioSet, ScenarioSetRef, SpecError,
};
pub use sweep::{Frontier, FrontierPoint, SweepOutcome};

/// The out-of-band telemetry layer (re-export of `replica-obs`): the
/// [`Obs`](replica_obs::Obs) handle the traced fleet entry points
/// consume, its [`Sink`](replica_obs::Sink)s, spans and events.
pub use replica_obs as obs;

/// One-stop imports for engine users.
pub mod prelude {
    pub use crate::fleet::{Fleet, FleetFold, FleetJob, FleetReport};
    pub use crate::jobspace::{CountingSpace, JobSpace, ScenarioSpace};
    pub use crate::output::{render, OutputFormat};
    pub use crate::registry::Registry;
    pub use crate::scenarios::{
        churn_families, extended_families, standard_families, Demand, Scenario, Topology,
    };
    pub use crate::solver::{Capabilities, EngineError, SolveOptions, SolveOutcome, Solver};
    pub use crate::spec::{
        Campaign, CampaignSpec, CampaignSpecBuilder, ScenarioSet, ScenarioSetRef, SpecError,
    };
    pub use crate::sweep::{Frontier, FrontierPoint, SweepOutcome};
    pub use replica_obs::{Obs, Verbosity};
}
