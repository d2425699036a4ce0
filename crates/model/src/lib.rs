//! # `replica-model` — problem semantics for replica placement
//!
//! This crate encodes §2 ("Framework") of Benoit, Renaud-Goud & Robert,
//! *Power-aware replica placement and update strategies in tree networks*
//! (IPDPS 2011): everything needed to *state* and *evaluate* a placement,
//! independent of any particular optimization algorithm.
//!
//! * [`modes`] — server operation modes `W₁ < … < W_M` (multi-speed
//!   processors; `M = 1` recovers the classical single-capacity model).
//! * [`placement`] — a replica set `R ⊆ N` with a mode assigned to each
//!   server.
//! * [`assignment`] — the **closest** request-service policy: every client is
//!   served by the first ancestor holding a replica; computes per-server
//!   loads, per-node up-flows and feasibility (Eq. 1).
//! * [`cost`] — the reconfiguration cost functions: Eq. 2 (scalar
//!   create/delete) as the `M = 1` special case of Eq. 4 (per-mode create,
//!   delete and mode-change matrices).
//! * [`power`] — Eq. 3: `P(R) = R·P_static + Σ_j W_{mode(j)}^α`.
//! * [`preexisting`] — the set `E` of servers already present, with their
//!   original modes.
//! * [`instance`] — a full problem instance bundling all of the above.
//! * [`solution`] — evaluated placements: server counts `nᵢ`, `eᵢᵢ'`, `kᵢ`,
//!   total cost and power.
//!
//! Where this crate sits in the workspace: `docs/ARCHITECTURE.md` at the
//! repository root (crate map, paper-notation table, data-flow diagrams).
//!
//! ## Example
//!
//! ```
//! use replica_model::prelude::*;
//! use replica_tree::TreeBuilder;
//!
//! // Figure 2 of the paper: modes {7, 10}, power 10 + W².
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let a = b.add_child(root);
//! let bb = b.add_child(a);
//! let c = b.add_child(a);
//! b.add_client(bb, 3);
//! b.add_client(c, 7);
//! b.add_client(root, 4);
//! let tree = b.build().unwrap();
//!
//! let instance = Instance::builder(tree)
//!     .modes(ModeSet::new(vec![7, 10]).unwrap())
//!     .power(PowerModel::new(10.0, 2.0))
//!     .build()
//!     .unwrap();
//!
//! // The paper's second local option: a server at C in mode W₁ lets three
//! // requests traverse A; the root (load 3 + 4 = 7) also fits mode W₁.
//! let mut placement = Placement::empty(instance.tree());
//! placement.insert(c, 0);
//! placement.insert(root, 0);
//! let solution = Solution::evaluate(&instance, &placement).unwrap();
//! assert_eq!(solution.counts.total_servers(), 2);
//! // Both run at W₁ = 7: power = 2·10 + 2·7².
//! assert!((solution.power - (20.0 + 2.0 * 49.0)).abs() < 1e-9);
//! ```

pub mod assignment;
pub mod cost;
pub mod error;
pub mod instance;
pub mod modes;
pub mod placement;
pub mod power;
pub mod preexisting;
pub mod solution;

pub use assignment::{compute_validated, Assignment};
pub use cost::{le_tolerant, CostModel, COST_EPSILON};
pub use error::ModelError;
pub use instance::{Instance, InstanceBuilder};
pub use modes::{ModeIdx, ModeSet};
pub use placement::Placement;
pub use power::PowerModel;
pub use preexisting::PreExisting;
pub use solution::{ModePolicy, Solution, SolutionCounts};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::assignment::Assignment;
    pub use crate::cost::CostModel;
    pub use crate::error::ModelError;
    pub use crate::instance::Instance;
    pub use crate::modes::{ModeIdx, ModeSet};
    pub use crate::placement::Placement;
    pub use crate::power::PowerModel;
    pub use crate::preexisting::PreExisting;
    pub use crate::solution::{ModePolicy, Solution, SolutionCounts};
}
