//! The epoch loop: a [`PlacementServer`] wraps
//! [`IncrementalDp`] and turns an event stream into per-epoch
//! [`EpochReport`]s.
//!
//! Between epoch marks the server only *ingests*: each delta updates one
//! client's volume through [`IncrementalDp::set_requests`], which
//! refreshes the flat demand snapshot and dirties the attach node's root
//! path — O(depth) per event, no solving. At the epoch mark exactly one
//! solver runs, chosen by policy:
//!
//! * **incremental** (the default): [`IncrementalDp::resolve`] recomputes
//!   the dirty closure only — bit-identical to a fresh solve;
//! * **greedy**: if the dirty fraction exceeds
//!   [`ServeConfig::warm_threshold`], the warm-started capacity-swept
//!   greedy answers instead, leaving the exact state reconcilable;
//! * **oracle** ([`ServeConfig::oracle`]): a from-scratch pruned DP per
//!   epoch. Same answers as incremental by the bit-identity contract —
//!   the CI smoke job byte-diffs the two — just slower, which is the
//!   point of `BENCH_serve.json`.
//!
//! Every solve uses [`ServeConfig::cost_bound`], which
//! [`PlacementServer::new`] hands to [`IncrementalDp::new`]: the bound
//! fixes the kind of Pareto front the cached tables hold, (flow, power)
//! for the default unbounded session and 3-D for a budget. The oracle
//! solves under the same bound, so it builds the same kind of front and
//! picks the same placement among tied optima.
//!
//! Each report carries the [`PlacementDiff`] against the previous epoch:
//! the adds/removals/re-modes an operator would actually push to a
//! fleet, in deterministic node order.

use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::IncrementalDp;
use replica_model::{Instance, ModelError, Placement};
use replica_tree::{ClientId, Tree};
use std::time::Instant;

/// Epoch-loop policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Cost budget passed to every solve (`f64::INFINITY` = unbounded).
    pub cost_bound: f64,
    /// Dirty-fraction threshold above which an epoch answers with the
    /// greedy fallback instead of the exact incremental DP. The default
    /// `1.0` can never be *exceeded*, so exact solving is the default
    /// policy; `0.0` makes every non-clean epoch greedy.
    pub warm_threshold: f64,
    /// Solve from scratch every epoch (the comparison baseline).
    pub oracle: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cost_bound: f64::INFINITY,
            warm_threshold: 1.0,
            oracle: false,
        }
    }
}

/// Which solver answered an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Exact dirty-closure recompute ([`IncrementalDp::resolve`]).
    Incremental,
    /// Warm-started capacity-swept greedy
    /// ([`IncrementalDp::greedy_fallback`]).
    Greedy,
    /// From-scratch pruned DP (`--oracle`).
    Oracle,
}

impl SolverKind {
    /// Stable lower-case label (tables, JSON, trace span labels).
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Incremental => "incremental",
            SolverKind::Greedy => "greedy",
            SolverKind::Oracle => "oracle",
        }
    }
}

/// The change an epoch made to the placement, in ascending node order.
///
/// Node identity is the internal-node index; modes are mode indices
/// into the instance's [`ModeSet`](replica_model::ModeSet).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlacementDiff {
    /// Nodes that newly hold a replica, with their mode.
    pub adds: Vec<(usize, usize)>,
    /// Nodes that no longer hold a replica.
    pub removals: Vec<usize>,
    /// Nodes that keep a replica but change mode: `(node, from, to)`.
    pub remodes: Vec<(usize, usize, usize)>,
}

impl PlacementDiff {
    /// Diffs two placements over the same tree. Both iterate servers in
    /// ascending node order, so the diff is deterministic.
    pub fn between(prev: &Placement, next: &Placement) -> PlacementDiff {
        let mut diff = PlacementDiff::default();
        for (node, mode) in next.servers() {
            match prev.mode_of(node) {
                None => diff.adds.push((node.index(), mode)),
                Some(old) if old != mode => diff.remodes.push((node.index(), old, mode)),
                Some(_) => {}
            }
        }
        for (node, _) in prev.servers() {
            if next.mode_of(node).is_none() {
                diff.removals.push(node.index());
            }
        }
        diff
    }

    /// True when the epoch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removals.is_empty() && self.remodes.is_empty()
    }
}

/// One epoch's outcome.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch number (0 is the initial solve, before any delta).
    pub epoch: u64,
    /// Deltas ingested since the previous epoch.
    pub events: u64,
    /// Deltas that actually changed an attach node's aggregate demand.
    pub changed: u64,
    /// Positions explicitly dirty at the epoch mark (before closure).
    pub dirty: usize,
    /// Positions the solver recomputed (0 for greedy epochs).
    pub recomputed: usize,
    /// Which solver answered.
    pub solver: SolverKind,
    /// Total cost of the new placement.
    pub cost: f64,
    /// Total power of the new placement.
    pub power: f64,
    /// Server count of the new placement.
    pub servers: usize,
    /// Change against the previous epoch's placement.
    pub diff: PlacementDiff,
    /// Wall-clock solve latency, milliseconds.
    pub latency_ms: f64,
}

/// Running totals across a serve session (for the end-of-stream
/// summary).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Epochs solved (the initial epoch 0 included).
    pub epochs: u64,
    /// Deltas ingested.
    pub events: u64,
    /// Deltas that changed demand.
    pub changed: u64,
    /// Replica adds across all epochs.
    pub adds: u64,
    /// Replica removals across all epochs.
    pub removals: u64,
    /// Mode changes across all epochs.
    pub remodes: u64,
}

impl Totals {
    /// Folds one epoch report in.
    pub fn absorb(&mut self, report: &EpochReport) {
        self.epochs += 1;
        self.events += report.events;
        self.changed += report.changed;
        self.adds += report.diff.adds.len() as u64;
        self.removals += report.diff.removals.len() as u64;
        self.remodes += report.diff.remodes.len() as u64;
    }
}

/// A live placement over one instance with streaming demand.
pub struct PlacementServer {
    dp: IncrementalDp,
    config: ServeConfig,
    placement: Placement,
    cost: f64,
    power: f64,
    epoch: u64,
    events: u64,
    changed: u64,
    oracle_scratch: PrunedScratch,
    totals: Totals,
}

impl PlacementServer {
    /// Builds the server and solves epoch 0 (the initial placement; its
    /// diff is against the empty placement, i.e. all adds).
    pub fn new(
        instance: Instance,
        config: ServeConfig,
    ) -> Result<(PlacementServer, EpochReport), ModelError> {
        let internal = instance.tree().internal_count();
        let mut server = PlacementServer {
            dp: IncrementalDp::new(instance, config.cost_bound),
            config,
            placement: Placement::with_slots(internal),
            cost: 0.0,
            power: 0.0,
            epoch: 0,
            events: 0,
            changed: 0,
            oracle_scratch: PrunedScratch::default(),
            totals: Totals::default(),
        };
        let report = server.end_epoch()?;
        Ok((server, report))
    }

    /// The instance being served (the generator reads current demand
    /// from its tree).
    pub fn tree(&self) -> &Tree {
        self.dp.instance().tree()
    }

    /// Epoch-loop policy in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Session totals so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Number of tree nodes (diff node indices range over this).
    pub fn node_count(&self) -> usize {
        self.dp.node_count()
    }

    /// Ingests one delta (no solving).
    pub fn apply_delta(&mut self, client: ClientId, volume: u64) {
        self.events += 1;
        if self.dp.set_requests(client, volume) {
            self.changed += 1;
        }
    }

    /// True if any ingested delta since the last epoch changed demand.
    pub fn has_pending_changes(&self) -> bool {
        self.changed > 0
    }

    /// Deltas ingested since the last epoch mark (changed or not).
    pub fn pending_events(&self) -> u64 {
        self.events
    }

    /// Solves the epoch, emits the report, and resets the per-epoch
    /// counters.
    pub fn end_epoch(&mut self) -> Result<EpochReport, ModelError> {
        let dirty = self.dp.dirty_len();
        let solver = if self.config.oracle {
            SolverKind::Oracle
        } else if self.dp.dirty_fraction() > self.config.warm_threshold {
            SolverKind::Greedy
        } else {
            SolverKind::Incremental
        };
        let start = Instant::now();
        let (placement, cost, power) = match solver {
            SolverKind::Incremental => self.dp.resolve()?,
            SolverKind::Greedy => self.dp.greedy_fallback()?,
            SolverKind::Oracle => solve_min_power_bounded_cost_in(
                self.dp.instance(),
                self.config.cost_bound,
                &mut self.oracle_scratch,
            )?,
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let recomputed = match solver {
            SolverKind::Incremental => self.dp.last_recomputed(),
            SolverKind::Greedy => 0,
            SolverKind::Oracle => self.dp.node_count(),
        };
        let report = EpochReport {
            epoch: self.epoch,
            events: self.events,
            changed: self.changed,
            dirty,
            recomputed,
            solver,
            cost,
            power,
            servers: placement.server_count(),
            diff: PlacementDiff::between(&self.placement, &placement),
            latency_ms,
        };
        self.placement = placement;
        self.cost = cost;
        self.power = power;
        self.epoch += 1;
        self.events = 0;
        self.changed = 0;
        self.totals.absorb(&report);
        Ok(report)
    }

    /// The current placement, cost, and power.
    pub fn current(&self) -> (&Placement, f64, f64) {
        (&self.placement, self.cost, self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use replica_engine::scenarios::fat_linear_power_instance;
    use replica_tree::NodeId;

    fn drive(config: ServeConfig, seed: u64) -> Vec<EpochReport> {
        let instance = fat_linear_power_instance(5, 40, 4);
        let clients = instance.tree().client_count();
        let (mut server, first) = PlacementServer::new(instance, config).unwrap();
        let mut reports = vec![first];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..6 {
            for _ in 0..8 {
                let c = ClientId::from_index(rng.random_range(0..clients));
                server.apply_delta(c, rng.random_range(0..10u64));
            }
            reports.push(server.end_epoch().unwrap());
        }
        reports
    }

    #[test]
    fn epoch_zero_is_all_adds_from_the_empty_placement() {
        let reports = drive(ServeConfig::default(), 1);
        let first = &reports[0];
        assert_eq!(first.epoch, 0);
        assert_eq!(first.events, 0);
        assert_eq!(first.servers, first.diff.adds.len());
        assert!(first.diff.removals.is_empty() && first.diff.remodes.is_empty());
    }

    #[test]
    fn diffs_replay_to_the_current_placement() {
        let instance = fat_linear_power_instance(5, 40, 4);
        let nodes = instance.tree().internal_count();
        let clients = instance.tree().client_count();
        let (mut server, first) = PlacementServer::new(instance, ServeConfig::default()).unwrap();
        let mut replayed = Placement::with_slots(nodes);
        let apply = |replayed: &mut Placement, report: &EpochReport| {
            for &(node, mode) in &report.diff.adds {
                replayed.insert(NodeId::from_index(node), mode);
            }
            for &node in &report.diff.removals {
                replayed.remove(NodeId::from_index(node));
            }
            for &(node, _, to) in &report.diff.remodes {
                replayed.insert(NodeId::from_index(node), to);
            }
        };
        apply(&mut replayed, &first);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            for _ in 0..6 {
                let c = ClientId::from_index(rng.random_range(0..clients));
                server.apply_delta(c, rng.random_range(0..9u64));
            }
            let report = server.end_epoch().unwrap();
            apply(&mut replayed, &report);
            assert_eq!(&replayed, server.current().0, "diff stream must replay");
        }
    }

    #[test]
    fn oracle_and_incremental_agree_bit_for_bit() {
        let exact = drive(ServeConfig::default(), 3);
        let oracle = drive(
            ServeConfig {
                oracle: true,
                ..ServeConfig::default()
            },
            3,
        );
        assert_eq!(exact.len(), oracle.len());
        for (e, o) in exact.iter().zip(&oracle) {
            assert_eq!(e.solver, SolverKind::Incremental);
            assert_eq!(o.solver, SolverKind::Oracle);
            assert_eq!(e.cost.to_bits(), o.cost.to_bits(), "epoch {}", e.epoch);
            assert_eq!(e.power.to_bits(), o.power.to_bits(), "epoch {}", e.epoch);
            assert_eq!(e.diff, o.diff, "epoch {}", e.epoch);
            assert_eq!((e.events, e.changed), (o.events, o.changed));
        }
    }

    #[test]
    fn zero_threshold_forces_greedy_on_every_dirty_epoch() {
        let reports = drive(
            ServeConfig {
                warm_threshold: 0.0,
                ..ServeConfig::default()
            },
            7,
        );
        // Epoch 0 has no dirt (fraction 0 is not > 0) → exact; later
        // epochs with changes go greedy.
        assert_eq!(reports[0].solver, SolverKind::Incremental);
        assert!(
            reports[1..]
                .iter()
                .any(|r| r.solver == SolverKind::Greedy && r.recomputed == 0),
            "churned epochs must take the fallback"
        );
    }

    #[test]
    fn totals_accumulate_across_the_session() {
        let reports = drive(ServeConfig::default(), 11);
        let instance = fat_linear_power_instance(5, 40, 4);
        let clients = instance.tree().client_count();
        let (mut server, _) = PlacementServer::new(instance, ServeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..6 {
            for _ in 0..8 {
                let c = ClientId::from_index(rng.random_range(0..clients));
                server.apply_delta(c, rng.random_range(0..10u64));
            }
            server.end_epoch().unwrap();
        }
        let totals = server.totals();
        assert_eq!(totals.epochs, reports.len() as u64);
        assert_eq!(totals.events, 48);
        assert_eq!(
            totals.adds,
            reports
                .iter()
                .map(|r| r.diff.adds.len() as u64)
                .sum::<u64>()
        );
    }
}
