//! # `replica-core` — the paper's algorithms
//!
//! Optimal and heuristic solvers for every problem of Benoit, Renaud-Goud &
//! Robert, *Power-aware replica placement and update strategies in tree
//! networks* (IPDPS 2011):
//!
//! | Problem | Solver | Paper reference |
//! |---|---|---|
//! | `MinCost-NoPre` | [`greedy::greedy_min_replicas`] (GR of \[19\]), [`dp_mincost_nopre::solve_min_count`] (\[6\]) | §2.3 |
//! | `MinCost-WithPre` | [`dp_mincost::solve_min_cost`] | §3.2, Algorithms 1–4, **Theorem 1** |
//! | `MinPower` | [`dp_power::solve_min_power`]; NP-completeness gadget in [`np_gadget`] | §4.2, **Theorem 2** |
//! | `MinPower-BoundedCost` (`NoPre`/`WithPre`) | [`dp_power::PowerDp`], [`dp_power::solve_min_power_bounded_cost`] | §4.3, **Theorem 3** |
//! | Experiment-3 baseline | [`greedy_power`] (capacity-swept GR) | §5.2 |
//! | §6 future-work heuristics | [`heuristics`] (fill-threshold, hill climbing, annealing) | §6 |
//! | Test oracle | [`exhaustive`] | — |
//!
//! All solvers consume the shared problem statement of
//! [`replica_model::Instance`] and return
//! [`replica_model::Placement`]s that the model crate can independently
//! re-evaluate — every optimum claimed by a DP is cross-checked against that
//! independent evaluation in the test suite.
//!
//! Where this crate sits in the workspace: `docs/ARCHITECTURE.md` at the
//! repository root (crate map, paper-notation table, data-flow diagrams).
//!
//! ## Quickstart
//!
//! ```
//! use replica_core::{dp_mincost, dp_power, greedy};
//! use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
//! use replica_tree::{generate, GeneratorConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let tree = generate::random_tree(&GeneratorConfig::paper_fat(50), &mut rng);
//! let pre = generate::random_pre_existing(&tree, 5, &mut rng);
//!
//! // MinCost-WithPre (Theorem 1):
//! let instance = Instance::min_cost(tree.clone(), 10, pre.clone(), 0.1, 0.01).unwrap();
//! let optimal = dp_mincost::solve_min_cost(&instance).unwrap();
//! let gr = greedy::greedy_min_replicas(&tree, 10).unwrap();
//! assert_eq!(optimal.servers, gr.servers); // same count, better reuse
//!
//! // MinPower-BoundedCost (Theorem 3):
//! let modes = ModeSet::new(vec![5, 10]).unwrap();
//! let power = PowerModel::paper_experiment3(&modes);
//! let instance = Instance::builder(tree)
//!     .modes(modes)
//!     .pre_existing(PreExisting::at_mode(pre, 1))
//!     .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
//!     .power(power)
//!     .build()
//!     .unwrap();
//! let dp = dp_power::PowerDp::run(&instance).unwrap();
//! let best = dp.best_within(40.0).expect("a solution fits this budget");
//! assert!(best.cost <= 40.0 + 1e-9);
//! ```

pub mod arena;
pub mod bounds;
pub mod dp_mincost;
pub mod dp_mincost_nopre;
pub mod dp_power;
pub mod dp_power_pruned;
pub mod exhaustive;
pub mod frontier;
pub mod greedy;
pub mod greedy_power;
pub mod heuristics;
pub mod incremental;
pub mod np_gadget;
pub mod state;

pub use arena::SolveArena;
pub use dp_mincost::{solve_min_cost, MinCostResult};
pub use dp_mincost_nopre::{solve_min_count, MinCountResult};
pub use dp_power::{
    solve_min_power, solve_min_power_bounded_cost, FullScratch, PowerDp, PowerResult, RootCandidate,
};
pub use dp_power_pruned::{PrunedPowerDp, PrunedScratch};
pub use greedy::{greedy_min_replicas, greedy_min_replicas_flat, GreedyResult, GreedyScratch};
pub use incremental::IncrementalDp;
