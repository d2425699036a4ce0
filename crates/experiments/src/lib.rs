//! # `replica-experiments` — the paper's evaluation, reproduced
//!
//! One module per experiment of §5, each regenerating the corresponding
//! figures:
//!
//! | Module | Figures | What is measured |
//! |---|---|---|
//! | [`exp1`] | 4, 6 | reused pre-existing servers vs `E`, DP vs GR |
//! | [`exp2`] | 5, 7 | cumulative reuse over 20 update steps + difference histogram |
//! | [`exp3`] | 8, 9, 10, 11 | inverse power vs cost bound, bi-criteria DP vs capacity-swept GR |
//! | [`scalability`] | §5 runtime claims | wall-clock vs tree size for all three DPs |
//! | [`heuristics_quality`] | (§6, ours) | §6 heuristics' power ratio to the exact optimum per budget regime |
//! | [`strategies_study`] | (§6, ours) | lazy/systematic/periodic/load-triggered update strategies × demand models |
//!
//! Every experiment is seeded and deterministic; trees are processed in
//! parallel with rayon (the natural grain here — hundreds of independent
//! trees per configuration). All dispatch goes through the engine registry
//! — per-solve for single-budget experiments, the amortized
//! `Registry::sweep` for the bounded-cost sweep of [`exp3`]. The
//! `experiments` binary drives everything and writes CSV + ASCII tables.
//!
//! Beyond the paper's figures, [`fleet_cmd`] runs arbitrary
//! scenario-fleet campaigns described by the engine's declarative
//! [`CampaignSpec`](replica_engine::CampaignSpec) — the same validated
//! spec files `fleetd` shards across processes (committed examples
//! under `examples/campaigns/`).
//!
//! Where this crate sits in the workspace: `docs/ARCHITECTURE.md` at the
//! repository root.

pub mod cli;
pub mod common;
pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod fleet_cmd;
pub mod heuristics_quality;
pub mod report;
pub mod scalability;
pub mod strategies_study;

pub use common::QuickScale;
pub use report::Table;
