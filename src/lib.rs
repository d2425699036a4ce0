//! # `power-replica` — power-aware replica placement in tree networks
//!
//! A complete, production-quality Rust implementation of
//!
//! > Anne Benoit, Paul Renaud-Goud, Yves Robert,
//! > *Power-aware replica placement and update strategies in tree networks*,
//! > IPDPS 2011 (research report RR-LIP-2010-29).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tree`] — the distribution-tree substrate (arena trees, generators,
//!   traversals, Graphviz/serde I/O);
//! * [`model`] — problem semantics (closest policy, modes, Eq. 2/3/4);
//! * [`core`] — the algorithms: optimal DPs for `MinCost-WithPre`
//!   (Theorem 1) and `MinPower-BoundedCost` (Theorem 3), the `GR` baselines,
//!   the NP-completeness gadget (Theorem 2), heuristics, and an exhaustive
//!   oracle;
//! * [`engine`] — the unified solver subsystem: every algorithm as one row
//!   of a static [`Solver`](replica_engine::Solver) table, timed and
//!   re-evaluated in one place, a name-addressable registry with an amortized
//!   budget-sweep API ([`Registry::sweep`](replica_engine::Registry::sweep)
//!   — one run answers every cost budget), a rayon-parallel
//!   [`Fleet`](replica_engine::Fleet) runner with deterministic seeding
//!   and streaming per-group aggregation, named scenario families
//!   (five topology shapes × seven demand patterns, sim-backed churn
//!   included) for reproducible sweeps, and the declarative campaign
//!   layer ([`CampaignSpec`](replica_engine::CampaignSpec)): one
//!   serializable, registry-validated spec describing any run, with
//!   typed [`SpecError`](replica_engine::SpecError)s and committed
//!   examples under `examples/campaigns/`;
//! * [`fleetd`] — multi-process sharded fleet orchestration: plan /
//!   work / merge with a byte-identical deterministic merge (the
//!   `fleetd` CLI drives it, `--spec file.json` included);
//! * [`sim`] — dynamic replica management (request evolution, update
//!   strategies);
//! * [`experiments`] — the evaluation harness regenerating Figures 4–11,
//!   dispatching through the engine.
//!
//! The full crate map, the paper-notation-to-code table and the fleet
//! data-flow diagram live in `docs/ARCHITECTURE.md`.
//!
//! ## Fleet quickstart
//!
//! ```
//! use power_replica::engine::prelude::*;
//!
//! let registry = Registry::with_all();
//! let campaign = CampaignSpec::builder()
//!     .scenarios([
//!         Scenario::new(Topology::Fat, Demand::Uniform, 20),
//!         Scenario::new(Topology::Star, Demand::FlashCrowd, 20),
//!     ])
//!     .instances_per_scenario(3)
//!     .solvers(["dp_power", "greedy_power"])
//!     .seed(42)
//!     .validate(&registry)
//!     .unwrap();
//! // Jobs come from the campaign's indexed lazy job space: generated on
//! // demand, never materialized campaign-wide.
//! let fleet = Fleet::new(&registry, &campaign).unwrap();
//! let report = fleet.run(&campaign.space(), &Obs::noop());
//! assert_eq!(report.summaries.len(), campaign.scenarios.len() * 2);
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use power_replica::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A paper-shaped tree with five pre-existing servers.
//! let mut rng = StdRng::seed_from_u64(7);
//! let tree = random_tree(&GeneratorConfig::paper_fat(60), &mut rng);
//! let pre = random_pre_existing(&tree, 5, &mut rng);
//!
//! // Reconfigure at minimum cost (Theorem 1)…
//! let instance = Instance::min_cost(tree, 10, pre, 0.1, 0.01).unwrap();
//! let optimal = solve_min_cost(&instance).unwrap();
//! assert!(optimal.reused <= 5);
//!
//! // …and check it against the oblivious greedy baseline.
//! let greedy = greedy_min_replicas(instance.tree(), 10).unwrap();
//! assert_eq!(optimal.servers, greedy.servers);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios.

pub use replica_core as core;
pub use replica_engine as engine;
pub use replica_experiments as experiments;
pub use replica_fleetd as fleetd;
pub use replica_model as model;
pub use replica_serve as serve;
pub use replica_sim as sim;
pub use replica_tree as tree;

/// One-stop imports for applications.
pub mod prelude {
    pub use replica_core::{
        dp_power::{solve_min_power, solve_min_power_bounded_cost, PowerDp},
        greedy::greedy_min_replicas,
        greedy_power, heuristics, np_gadget, solve_min_cost, solve_min_count, SolveArena,
    };
    pub use replica_engine::{
        churn_families, extended_families, standard_families, Campaign, CampaignSpec, Demand,
        Fleet, Frontier, OutputFormat, Registry, Scenario, ScenarioSet, SolveOptions, SpecError,
        Topology,
    };
    pub use replica_model::prelude::*;
    pub use replica_sim::{
        run_dynamic, run_with_strategy, Algorithm, DynamicConfig, Evolution, UpdateStrategy,
    };
    pub use replica_tree::{
        generate::{balanced, caterpillar, path, random_pre_existing, random_tree, star},
        FlatTree, GeneratorConfig, NodeId, Tree, TreeBuilder, TreeShape, TreeStats,
    };
}
