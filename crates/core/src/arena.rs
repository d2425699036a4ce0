//! Per-solver reusable working memory — one arena per (thread, solver).
//!
//! Every hot solver allocates the same shapes over and over: the flat tree
//! layout, DP tables, prune buffers, greedy flow/contribution scratch. A
//! [`SolveArena`] bundles all of them so a fleet worker thread (or any
//! caller solving many instances) pays the allocations once and then runs
//! allocation-free in steady state:
//!
//! * [`SolveArena::flat`] — the shared [`FlatTree`] snapshot, rebuilt per
//!   instance by sweep-style callers ([`crate::greedy_power::paper_sweep`]);
//! * [`SolveArena::greedy`] — [`GreedyScratch`] for the `GR` kernel;
//! * [`SolveArena::pruned`] — [`PrunedScratch`] for the dominance-pruned DP
//!   ([`crate::dp_power_pruned::PrunedPowerDp::run_for`]);
//! * [`SolveArena::full`] — [`FullScratch`] for the full-state §4.3 DP
//!   ([`crate::dp_power::PowerDp::run_in`]).
//!
//! Arena reuse never changes results: the pruned/greedy paths are pure
//! `Vec` arithmetic (content-deterministic regardless of capacity history),
//! and the full-state DP deliberately keeps its hash tables fresh per solve
//! (see the determinism notes in [`crate::dp_power`]). The equivalence
//! batteries in `crates/core/tests/` pin bit-identical solutions through
//! arbitrary reuse sequences.

use crate::dp_power::FullScratch;
use crate::dp_power_pruned::PrunedScratch;
use crate::greedy::GreedyScratch;
use replica_tree::FlatTree;

/// Reusable scratch for all hot solvers (see the [module docs](self)).
///
/// Cheap to create empty (`Default`), intended to live long: one per worker
/// thread, reused across every job that thread solves.
#[derive(Default)]
pub struct SolveArena {
    /// Shared flat layout snapshot (rebuilt per instance by sweep callers).
    pub flat: FlatTree,
    /// Greedy (`GR`) flow and contribution buffers.
    pub greedy: GreedyScratch,
    /// Dominance-pruned DP tables, merge/prune buffers and weights.
    pub pruned: PrunedScratch,
    /// Full-state DP layout, outer table vector and unit-key buffers.
    pub full: FullScratch,
}

impl SolveArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}
