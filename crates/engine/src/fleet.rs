//! The parallel scenario-fleet runner, with streaming aggregation.
//!
//! A [`Fleet`] evaluates a batch of labelled instances against a set of
//! registered solvers — the cartesian product `instances × solvers` — in
//! parallel with rayon, and folds every outcome into per-`(scenario,
//! solver)` online accumulators ([`crate::stream`]) the moment it is
//! produced: cost/power/gap distributions (count, mean, min, max, P²
//! p50/p90), server counts, wall-clock means, and speedups against a
//! reference solver (the exact DP by default). The full cell matrix is
//! **never materialized** — peak memory is bounded by one batch of jobs
//! ([`FleetConfig::batch_jobs`] × solver count) plus the fixed-size
//! accumulators, so fleets scale past what `instances × solvers` cells
//! would fit in memory. Callers who want the raw per-cell stream tap it
//! via [`Fleet::run_shard`]'s `observe` closure.
//!
//! Determinism: per-instance solver seeds derive from the fleet seed via
//! [`seeding::mix`]; jobs are solved in parallel batch by batch, but each
//! batch's results come back in job order and are folded **sequentially in
//! that order** — so every aggregate (including the quantile sketches) and
//! the per-cell checksum are byte-identical across runs and across thread
//! counts. [`FleetReport::digest`] exposes exactly the deterministic
//! portion; the determinism suite pins it.
//!
//! Job generation is **lazy and indexed**: the runner's primary currency
//! is a [`JobSpace`] — `index → FleetJob`, a pure function of the global
//! job index — and each streaming batch's jobs are constructed on demand
//! and dropped with the batch. Running a range of the space therefore
//! costs `O(range)` in both generation time and peak memory, not
//! `O(campaign)`. An eager `&[FleetJob]` list is itself a trivial
//! `JobSpace`.
//!
//! Two entry points reach the one run body: [`Fleet::run`] evaluates a
//! whole space, and [`Fleet::run_shard`] — the `replica-fleetd` seam —
//! runs one contiguous job range with the *global* per-job seeding, so
//! a shard worker produces exactly the cells the full run would while
//! constructing only that range's jobs. It also snapshots mergeable
//! per-group state ([`GroupState`]), taps the cell stream and honours a
//! [`CancelToken`]. [`FleetFold`] is the coordinator-side fold target
//! that replays shard cell streams — in shard order — into a report
//! byte-identical to a single-process [`Fleet::run`].

use crate::jobspace::JobSpace;
use crate::registry::Registry;
use crate::seeding;
use crate::solver::{SolveOptions, Solver};
use crate::spec::SpecError;
use crate::stream::{MetricAccumulator, MetricSink, RecordedMetric, Stats};
use rayon::prelude::*;
use replica_model::Instance;
use replica_obs::{Obs, Span};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cooperative cancellation flag for in-flight fleet runs.
///
/// Supervisors (e.g. `replica-fleetd`'s fault-tolerant scheduler) hand a
/// clone to a running shard and [`cancel`](CancelToken::cancel) it when
/// the work is no longer wanted — a dead sibling shard exhausted its
/// retries, a fault injector simulates a mid-shard kill, the whole
/// campaign is being torn down. The runner checks the token **between
/// streaming batches** (the natural safe point: a batch's results are
/// folded atomically or not at all), so cancellation never produces a
/// partial fold — a cancelled run returns `None`, not a half-aggregated
/// report that could silently corrupt a merge.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One labelled instance of a fleet.
#[derive(Clone)]
pub struct FleetJob {
    /// Scenario (grouping) label.
    pub scenario: String,
    /// Index within the scenario (also the seed stream of the instance).
    pub index: usize,
    /// The instance itself.
    pub instance: Instance,
}

/// Configuration of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Solver names to evaluate (must exist in the registry).
    pub solvers: Vec<String>,
    /// Options handed to every solve (the per-instance seed is derived
    /// from [`FleetConfig::seed`], overriding `options.seed`).
    pub options: SolveOptions,
    /// Fleet seed: drives per-instance solver seeds.
    pub seed: u64,
    /// Reference solver for gap/speedup columns (defaults to `dp_power`
    /// when present among [`FleetConfig::solvers`], then `dp_power_full`).
    pub reference: Option<String>,
    /// Worker-thread override (`None` = machine default). Results are
    /// identical for every value; only wall-clock changes.
    pub threads: Option<usize>,
    /// Jobs solved in parallel per streaming batch: the peak-memory knob.
    /// Results are identical for every valid value; only scheduling
    /// granularity changes. Must be at least 1 — [`Fleet::new`] rejects
    /// `0` as a configuration error (a zero-job batch cannot make
    /// progress, and silently clamping it would hide the typo).
    pub batch_jobs: usize,
}

impl FleetConfig {
    /// Validates the configuration against `registry` with the typed
    /// [`SpecError`] of the spec/config path: every solver name must be
    /// a registry key (unknown names come with a did-you-mean
    /// suggestion), the lineup must be duplicate-free, an explicit
    /// reference must be part of the lineup, `batch_jobs` and `threads`
    /// must be positive, and the cost bound must be a valid budget.
    pub fn validate(&self, registry: &Registry) -> Result<(), SpecError> {
        crate::spec::validate_lineup(&self.solvers, self.reference.as_deref(), registry)?;
        if self.batch_jobs == 0 {
            return Err(SpecError::ZeroBatchJobs);
        }
        if self.threads == Some(0) {
            return Err(SpecError::ZeroThreads);
        }
        if self.options.cost_bound.is_nan() || self.options.cost_bound < 0.0 {
            return Err(SpecError::InvalidCostBound {
                value: self.options.cost_bound,
            });
        }
        Ok(())
    }

    /// The reference solver this configuration resolves to: the explicit
    /// [`FleetConfig::reference`] when set, else the fast pruned DP over
    /// the full-state one, whichever appears among
    /// [`FleetConfig::solvers`] (regardless of position).
    ///
    /// Shared with `replica-fleetd` so sharded and in-process runs agree
    /// on the gap/speedup baseline by construction.
    pub fn resolved_reference(&self) -> Option<String> {
        self.reference.clone().or_else(|| {
            ["dp_power", "dp_power_full"]
                .into_iter()
                .find(|p| self.solvers.iter().any(|s| s == p))
                .map(str::to_string)
        })
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            solvers: vec![
                "greedy_power".into(),
                "heur_power_greedy".into(),
                "dp_power".into(),
            ],
            options: SolveOptions::default(),
            seed: 0xF1EE7,
            reference: None,
            threads: None,
            batch_jobs: 64,
        }
    }
}

/// The deterministic part of one solve.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Eq. 2/4 cost.
    pub cost: f64,
    /// Eq. 3 power.
    pub power: f64,
    /// Server count.
    pub servers: u64,
}

/// How one `(instance, solver)` evaluation ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CellResult {
    /// The solver produced a placement.
    Solved(CellOutcome),
    /// The instance is outside the solver's capabilities.
    Unsupported,
    /// The solver ran and failed (infeasible instance, budget missed).
    Failed(String),
}

impl CellResult {
    /// The outcome, when solved.
    pub fn outcome(&self) -> Option<&CellOutcome> {
        match self {
            CellResult::Solved(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// One `(instance, solver)` evaluation, as seen by the streaming observer
/// of [`Fleet::run_shard`]. Borrowed and transient: the cell is
/// gone after the callback returns (zero retention on the hot path).
pub struct FleetCell<'a> {
    /// Scenario label of the instance.
    pub scenario: &'a str,
    /// Instance index within the scenario.
    pub instance: usize,
    /// Solver name.
    pub solver: &'static str,
    /// How the evaluation ended.
    pub result: CellResult,
    /// Wall-clock seconds of the solve (non-deterministic; excluded from
    /// [`FleetReport::digest`]).
    pub wall_seconds: f64,
}

impl FleetCell<'_> {
    /// Writes the deterministic digest line of this cell (what the fleet
    /// checksum accumulates; timing excluded).
    fn write_digest(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.result {
            CellResult::Solved(o) => writeln!(
                out,
                "{}#{} {}: cost={:.9} power={:.9} servers={}",
                self.scenario, self.instance, self.solver, o.cost, o.power, o.servers
            ),
            CellResult::Unsupported => writeln!(
                out,
                "{}#{} {}: unsupported",
                self.scenario, self.instance, self.solver
            ),
            CellResult::Failed(e) => writeln!(
                out,
                "{}#{} {}: error={}",
                self.scenario, self.instance, self.solver, e
            ),
        }
    }
}

/// Aggregates of one `(scenario, solver)` group.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Scenario label.
    pub scenario: String,
    /// Solver name.
    pub solver: &'static str,
    /// Instances solved.
    pub solved: usize,
    /// Instances where the solver errored (infeasible/budget).
    pub failed: usize,
    /// Instances outside the solver's capabilities.
    pub unsupported: usize,
    /// Cost distribution over solved instances.
    pub cost: Stats,
    /// Power distribution over solved instances.
    pub power: Stats,
    /// Mean server count over solved instances.
    pub mean_servers: f64,
    /// Mean power ratio to the reference solver, over instances both
    /// solved (1.0 = matches the exact optimum when the reference is an
    /// exact DP).
    pub power_gap_vs_ref: Option<f64>,
    /// Full distribution of the per-instance power ratios behind
    /// [`FleetSummary::power_gap_vs_ref`].
    pub gap_vs_ref: Option<Stats>,
    /// Mean wall-clock seconds per solve (non-deterministic).
    pub mean_wall_seconds: f64,
    /// Full distribution of per-solve wall-clock seconds
    /// (non-deterministic; the telemetry layer's per-group histogram).
    pub wall: Stats,
    /// Reference mean wall over this solver's mean wall
    /// (non-deterministic; > 1 means faster than the reference).
    pub speedup_vs_ref: Option<f64>,
    /// Distribution of per-instance wall ratios (reference over this
    /// solver; non-deterministic).
    pub speedup_dist: Option<Stats>,
}

/// The outcome of a fleet run: streaming aggregates only — the cell
/// matrix itself is folded away as it is produced.
pub struct FleetReport {
    /// Per-`(scenario, solver)` aggregates, in first-appearance (job)
    /// order.
    pub summaries: Vec<FleetSummary>,
    /// Number of `(instance, solver)` cells evaluated.
    pub cell_count: usize,
    /// FNV-1a checksum over every cell's deterministic digest line, in
    /// job order — the cell matrix's fingerprint without its memory.
    pub cell_checksum: u64,
}

/// Streaming per-group state, generic over whether the metric
/// accumulators keep their observation tape ([`MetricSink`]):
/// [`MetricAccumulator`] for in-process runs, [`RecordedMetric`] for
/// shard workers that must serialize mergeable state.
struct GroupAcc<M> {
    scenario: String,
    solver: &'static str,
    solved: usize,
    failed: usize,
    unsupported: usize,
    cost: M,
    power: M,
    servers_sum: f64,
    gap: M,
    wall_sum: f64,
    wall: M,
    speedup: M,
}

impl<M: MetricSink> GroupAcc<M> {
    fn new(scenario: String, solver: &'static str) -> Self {
        GroupAcc {
            scenario,
            solver,
            solved: 0,
            failed: 0,
            unsupported: 0,
            cost: M::default(),
            power: M::default(),
            servers_sum: 0.0,
            gap: M::default(),
            wall_sum: 0.0,
            wall: M::default(),
            speedup: M::default(),
        }
    }
}

/// The sequential fold target: group accumulators in first-appearance
/// order plus the fleet-level cell fingerprint. Groups for a scenario
/// occupy `solvers.len()` consecutive slots (config solver order), so
/// the per-cell lookup is one borrowed-key map probe — the fold's hot
/// path allocates nothing.
struct Aggregation<M> {
    groups: Vec<GroupAcc<M>>,
    scenario_base: HashMap<String, usize>,
    has_reference: bool,
    cell_count: usize,
    checksum: FnvHasher,
}

/// Scales the value-typed fields of a distribution snapshot by
/// `factor` (count unchanged) — seconds→milliseconds for telemetry
/// histograms.
fn scale_stats(stats: Stats, factor: f64) -> Stats {
    Stats {
        count: stats.count,
        mean: stats.mean * factor,
        min: stats.min * factor,
        max: stats.max * factor,
        p50: stats.p50 * factor,
        p90: stats.p90 * factor,
        p99: stats.p99 * factor,
    }
}

/// Incremental FNV-1a over anything `write!`-able (the cell checksum
/// never materializes the formatted line). A shard merge also runs a
/// shard-local lane, restarted per shard, so each digest line is
/// formatted once and hashed into both.
struct FnvHasher {
    fleet: u64,
    shard: Option<u64>,
}

impl FnvHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        FnvHasher {
            fleet: Self::OFFSET,
            shard: None,
        }
    }

    fn hash(mut h: u64, s: &str) -> u64 {
        for byte in s.bytes() {
            h = (h ^ byte as u64).wrapping_mul(Self::PRIME);
        }
        h
    }
}

impl fmt::Write for FnvHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fleet = Self::hash(self.fleet, s);
        if let Some(shard) = &mut self.shard {
            *shard = Self::hash(*shard, s);
        }
        Ok(())
    }
}

impl<M: MetricSink> Aggregation<M> {
    fn new(has_reference: bool) -> Self {
        Aggregation {
            groups: Vec::new(),
            scenario_base: HashMap::new(),
            has_reference,
            cell_count: 0,
            checksum: FnvHasher::new(),
        }
    }

    /// First group slot of `scenario`, creating the scenario's group row
    /// on first appearance.
    fn scenario_base(&mut self, scenario: &str, solvers: &[&'static str]) -> usize {
        if let Some(&base) = self.scenario_base.get(scenario) {
            return base;
        }
        let base = self.groups.len();
        for solver in solvers {
            self.groups
                .push(GroupAcc::new(scenario.to_string(), solver));
        }
        self.scenario_base.insert(scenario.to_string(), base);
        base
    }

    /// Folds one job's row of cells in, in solver order.
    fn fold_row(
        &mut self,
        scenario: &str,
        instance: usize,
        row: Vec<(CellResult, f64)>,
        solvers: &[&'static str],
        reference_slot: Option<usize>,
        observe: &mut dyn FnMut(&FleetCell),
    ) {
        assert_eq!(row.len(), solvers.len(), "cell row width != solver count");
        let base = self.scenario_base(scenario, solvers);
        let reference = reference_slot
            .and_then(|s| row[s].0.outcome().map(|outcome| (outcome.power, row[s].1)));
        for (s, (result, wall_seconds)) in row.into_iter().enumerate() {
            let cell = FleetCell {
                scenario,
                instance,
                solver: solvers[s],
                result,
                wall_seconds,
            };
            observe(&cell);
            self.cell_count += 1;
            cell.write_digest(&mut self.checksum)
                .expect("hashing cannot fail");

            let group = &mut self.groups[base + s];
            match &cell.result {
                CellResult::Solved(outcome) => {
                    group.solved += 1;
                    group.cost.push(outcome.cost);
                    group.power.push(outcome.power);
                    group.servers_sum += outcome.servers as f64;
                    group.wall_sum += cell.wall_seconds;
                    group.wall.push(cell.wall_seconds);
                    if let Some((ref_power, ref_wall)) = reference {
                        if ref_power > 0.0 {
                            group.gap.push(outcome.power / ref_power);
                        }
                        if cell.wall_seconds > 0.0 {
                            group.speedup.push(ref_wall / cell.wall_seconds);
                        }
                    }
                }
                CellResult::Unsupported => group.unsupported += 1,
                CellResult::Failed(_) => group.failed += 1,
            }
        }
    }

    /// Final snapshot: summaries in first-appearance order.
    fn finish(self, reference: Option<&str>) -> FleetReport {
        // Reference mean wall per scenario, for the speedup column.
        let ref_wall: HashMap<&str, f64> = self
            .groups
            .iter()
            .filter(|g| Some(g.solver) == reference && g.solved > 0)
            .map(|g| (g.scenario.as_str(), g.wall_sum / g.solved as f64))
            .collect();

        let has_reference = self.has_reference;
        let summaries = self
            .groups
            .iter()
            .map(|g| {
                let mean_wall = if g.solved == 0 {
                    0.0
                } else {
                    g.wall_sum / g.solved as f64
                };
                FleetSummary {
                    scenario: g.scenario.clone(),
                    solver: g.solver,
                    solved: g.solved,
                    failed: g.failed,
                    unsupported: g.unsupported,
                    cost: g.cost.stats(),
                    power: g.power.stats(),
                    mean_servers: if g.solved == 0 {
                        0.0
                    } else {
                        g.servers_sum / g.solved as f64
                    },
                    power_gap_vs_ref: (has_reference && g.gap.count() > 0).then(|| g.gap.mean()),
                    gap_vs_ref: (has_reference && g.gap.count() > 0).then(|| g.gap.stats()),
                    mean_wall_seconds: mean_wall,
                    wall: g.wall.stats(),
                    speedup_vs_ref: ref_wall
                        .get(g.scenario.as_str())
                        .filter(|_| mean_wall > 0.0)
                        .map(|w| w / mean_wall),
                    speedup_dist: (g.speedup.count() > 0).then(|| g.speedup.stats()),
                }
            })
            .collect();
        FleetReport {
            summaries,
            cell_count: self.cell_count,
            cell_checksum: self.checksum.fleet,
        }
    }
}

impl Aggregation<RecordedMetric> {
    /// Snapshots every group's mergeable state, in first-appearance
    /// order.
    fn group_states(&self) -> Vec<GroupState> {
        self.groups
            .iter()
            .map(|g| GroupState {
                scenario: g.scenario.clone(),
                solver: g.solver.to_string(),
                solved: g.solved,
                failed: g.failed,
                unsupported: g.unsupported,
                servers_sum: g.servers_sum,
                wall_sum: g.wall_sum,
                cost: g.cost.clone(),
                power: g.power.clone(),
                gap: g.gap.clone(),
                wall: g.wall.clone(),
                speedup: g.speedup.clone(),
            })
            .collect()
    }
}

/// The serializable, mergeable aggregation state of one `(scenario,
/// solver)` group — what a `replica-fleetd` shard worker ships besides
/// its raw cell stream.
///
/// Merging contract: left-folding the group states of contiguous shards
/// in shard order ([`GroupState::merge_in_order`]) reproduces the
/// sequential in-process accumulators exactly — counts and integer-valued
/// sums pairwise, distribution metrics by ordered tape replay
/// ([`RecordedMetric::merge_in_order`]). The coordinator uses this as an
/// independent second route to the merged aggregates and cross-checks it
/// against the canonical cell-replay route ([`GroupState::agrees_with`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupState {
    /// Scenario label.
    pub scenario: String,
    /// Solver name (a registry key).
    pub solver: String,
    /// Instances solved.
    pub solved: usize,
    /// Instances where the solver errored.
    pub failed: usize,
    /// Instances outside the solver's capabilities.
    pub unsupported: usize,
    /// Sum of server counts over solved instances. Server counts are
    /// small integers, so this f64 sum is exact and order-independent —
    /// pairwise merge is bit-exact.
    pub servers_sum: f64,
    /// Sum of wall-clock seconds over solved instances. Non-deterministic
    /// measurement; its pairwise merge is exact only in real arithmetic
    /// (see [`GroupState::agrees_with`]).
    pub wall_sum: f64,
    /// Cost distribution (mergeable).
    pub cost: RecordedMetric,
    /// Power distribution (mergeable).
    pub power: RecordedMetric,
    /// Power-ratio-to-reference distribution (mergeable).
    pub gap: RecordedMetric,
    /// Per-solve wall-clock distribution (mergeable; the measurements
    /// are non-deterministic but the merge replays them exactly).
    pub wall: RecordedMetric,
    /// Wall-ratio-to-reference distribution (mergeable).
    pub speedup: RecordedMetric,
}

impl GroupState {
    /// Merges the state of the *immediately following* contiguous shard's
    /// same group into `self`. Errors if the group keys disagree.
    pub fn merge_in_order(&mut self, other: &GroupState) -> Result<(), String> {
        if self.scenario != other.scenario || self.solver != other.solver {
            return Err(format!(
                "group key mismatch: {}/{} merged with {}/{}",
                self.scenario, self.solver, other.scenario, other.solver
            ));
        }
        self.solved += other.solved;
        self.failed += other.failed;
        self.unsupported += other.unsupported;
        self.servers_sum += other.servers_sum;
        self.wall_sum += other.wall_sum;
        self.cost.merge_in_order(&other.cost);
        self.power.merge_in_order(&other.power);
        self.gap.merge_in_order(&other.gap);
        self.wall.merge_in_order(&other.wall);
        self.speedup.merge_in_order(&other.speedup);
        Ok(())
    }

    /// Checks this (merged) state against the corresponding summary of a
    /// sequentially folded report.
    ///
    /// Everything deterministic must match **exactly** (bit-for-bit):
    /// counts, the cost/power/gap distributions, the mean server count,
    /// the speedup *distribution* (its inputs are the recorded wall
    /// values, identical on both routes). The wall-clock *sum* is the one
    /// field whose pairwise merge is exact only in real arithmetic —
    /// floating-point addition is not associative — so the derived mean
    /// wall is compared within 1 ulp-scale relative tolerance instead.
    pub fn agrees_with(&self, summary: &FleetSummary) -> Result<(), String> {
        let context = format!("{}/{}", self.scenario, self.solver);
        let check = |what: &str, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "{context}: merged {what} diverged from the sequential fold"
                ))
            }
        };
        check(
            "group key",
            self.scenario == summary.scenario && self.solver == summary.solver,
        )?;
        check(
            "solved/failed/unsupported counts",
            (self.solved, self.failed, self.unsupported)
                == (summary.solved, summary.failed, summary.unsupported),
        )?;
        check("cost distribution", self.cost.stats() == summary.cost)?;
        check("power distribution", self.power.stats() == summary.power)?;
        let mean_servers = if self.solved == 0 {
            0.0
        } else {
            self.servers_sum / self.solved as f64
        };
        check("mean server count", mean_servers == summary.mean_servers)?;
        let gap = (self.gap.count() > 0).then(|| self.gap.stats());
        check("gap distribution", gap == summary.gap_vs_ref)?;
        check(
            "mean gap",
            (self.gap.count() > 0).then(|| self.gap.mean()) == summary.power_gap_vs_ref,
        )?;
        check(
            "speedup distribution",
            (self.speedup.count() > 0).then(|| self.speedup.stats()) == summary.speedup_dist,
        )?;
        // Same story as the speedup distribution: both routes fold the
        // identical recorded wall values in the identical order, so the
        // distribution matches bit for bit even though the values
        // themselves are measurements.
        check("wall distribution", self.wall.stats() == summary.wall)?;
        let mean_wall = if self.solved == 0 {
            0.0
        } else {
            self.wall_sum / self.solved as f64
        };
        check(
            "mean wall (tolerance)",
            (mean_wall - summary.mean_wall_seconds).abs()
                <= 1e-12 * summary.mean_wall_seconds.abs().max(1.0),
        )?;
        Ok(())
    }
}

/// Order-preserving fold target for externally produced cell rows — the
/// coordinator-side merge seam of sharded fleets.
///
/// `replica-fleetd` feeds every shard's recorded cells through
/// [`FleetFold::fold_row`] in shard order; because this drives the exact
/// same sequential fold as [`Fleet::run`], the finished report (aggregates,
/// cell count **and** FNV cell checksum) is byte-identical to the
/// single-process run by construction. Memory stays bounded by the group
/// accumulators — folded rows are dropped immediately.
pub struct FleetFold {
    agg: Aggregation<MetricAccumulator>,
    solvers: Vec<&'static str>,
    reference: Option<String>,
    reference_slot: Option<usize>,
}

impl FleetFold {
    /// A fold over rows of `solvers.len()` cells each, with gap/speedup
    /// columns against `reference` (when it names one of `solvers`).
    pub fn new(solvers: Vec<&'static str>, reference: Option<String>) -> Self {
        let reference_slot = reference
            .as_deref()
            .and_then(|r| solvers.iter().position(|s| *s == r));
        FleetFold {
            agg: Aggregation::new(reference.is_some()),
            solvers,
            reference,
            reference_slot,
        }
    }

    /// Folds one job's row of cells (one per solver, in solver order).
    /// Rows must arrive in job order for the determinism contract to
    /// hold.
    pub fn fold_row(&mut self, scenario: &str, instance: usize, row: Vec<(CellResult, f64)>) {
        self.agg.fold_row(
            scenario,
            instance,
            row,
            &self.solvers,
            self.reference_slot,
            &mut |_| {},
        );
    }

    /// Cells folded so far.
    pub fn cell_count(&self) -> usize {
        self.agg.cell_count
    }

    /// Restarts the shard-local checksum: from here on
    /// [`FleetFold::shard_checksum`] covers only the cells folded since,
    /// which is the checksum a worker that ran just those jobs reports.
    /// The running checksum goes on; each cell's digest line is formatted
    /// once and hashed into both.
    pub fn begin_shard(&mut self) {
        self.agg.checksum.shard = Some(FnvHasher::OFFSET);
    }

    /// FNV-1a checksum over the cells folded since the last
    /// [`FleetFold::begin_shard`]; `None` before the first.
    pub fn shard_checksum(&self) -> Option<u64> {
        self.agg.checksum.shard
    }

    /// Final snapshot.
    pub fn finish(self) -> FleetReport {
        let reference = self.reference;
        self.agg.finish(reference.as_deref())
    }
}

/// The outcome of [`Fleet::run_shard`]: the shard-local report
/// plus the mergeable per-group state a shard worker serializes.
pub struct ShardRun {
    /// Aggregates of the shard's own job range (shard-local counts and
    /// checksum — *not* the full-fleet values).
    pub report: FleetReport,
    /// Mergeable group states, in the shard's first-appearance order.
    pub groups: Vec<GroupState>,
}

/// The runner itself: a registry plus a configuration.
pub struct Fleet<'r> {
    registry: &'r Registry,
    config: FleetConfig,
}

impl<'r> Fleet<'r> {
    /// Builds a runner over `registry`.
    ///
    /// # Panics
    ///
    /// On configuration errors ([`FleetConfig::validate`]): an unknown
    /// or duplicated solver name, a reference outside the lineup,
    /// `batch_jobs == 0` (a zero-job streaming batch cannot make
    /// progress; the typo used to be silently clamped to 1, now it is
    /// rejected up front), `threads == Some(0)`, or an invalid cost
    /// bound. [`Fleet::try_new`] is the non-panicking form.
    pub fn new(registry: &'r Registry, config: FleetConfig) -> Self {
        Self::try_new(registry, config)
            .unwrap_or_else(|e| panic!("fleet configured with an invalid FleetConfig: {e}"))
    }

    /// Builds a runner over `registry`, rejecting configuration errors
    /// with the typed [`SpecError`] instead of panicking — the entry
    /// point the spec path ([`crate::spec::Campaign::fleet_config`])
    /// pairs with.
    pub fn try_new(registry: &'r Registry, config: FleetConfig) -> Result<Self, SpecError> {
        config.validate(registry)?;
        Ok(Fleet { registry, config })
    }

    /// Evaluates every job of `space` against every configured solver.
    /// Jobs are constructed one streaming batch at a time and dropped
    /// with their batch: peak memory is `O(batch_jobs)`, independent of
    /// the campaign size. An eager `&[FleetJob]` is a [`JobSpace`] too.
    ///
    /// Telemetry — spans, per-batch progress, per-group wall histograms
    /// and outcome counters — flows through `obs` ([`Obs::noop`] for
    /// none). It is strictly out-of-band: the returned report (checksum
    /// included) is byte-identical to an untraced run; the
    /// trace-invariance proptest pins this.
    pub fn run<S: JobSpace + ?Sized>(&self, space: &S, obs: &Obs) -> FleetReport {
        let reference = self.config.resolved_reference();
        self.run_range::<MetricAccumulator, S>(space, 0..space.len(), &mut |_| {}, obs, None)
            .expect("no cancel token given")
            .finish(reference.as_deref())
    }

    /// Runs one contiguous shard — jobs `range` — of the job space, over
    /// **recording** accumulators: besides the shard-local report it
    /// snapshots every group's mergeable [`GroupState`] (tapes included),
    /// which is what a shard worker serializes for the coordinator's
    /// state-merge cross-check. Recording costs `O(cells)` memory, so
    /// whole in-process runs should prefer [`Fleet::run`].
    ///
    /// Per-job seeds derive from the job's **global** index in `space`,
    /// so a shard evaluates exactly the cells a full [`Fleet::run`] would
    /// for those jobs, regardless of how the space is split — and it
    /// constructs only that range's jobs (`O(range)` generation; the
    /// `O(shard)` regression tests pin this through a
    /// [`CountingSpace`](crate::jobspace::CountingSpace)). The report's
    /// counts, checksum and aggregates cover only the range; replaying
    /// shard cell streams through a [`FleetFold`] in shard order
    /// reassembles the full-run report byte-for-byte.
    ///
    /// `observe` sees every cell the moment its batch is folded — in
    /// deterministic job order, regardless of thread count — and the
    /// cell is dropped right after the callback. `obs` carries telemetry
    /// as in [`Fleet::run`]. `cancel` is checked **between streaming
    /// batches** (a batch folds atomically or not at all): a cancelled
    /// run returns `None` and discards every partial aggregate, so a
    /// supervisor that kills a shard mid-run can never end up merging a
    /// half-folded report. Without a token, or with one that never
    /// fires, the result is always `Some`.
    pub fn run_shard<S: JobSpace + ?Sized>(
        &self,
        space: &S,
        range: Range<usize>,
        mut observe: impl FnMut(&FleetCell),
        obs: &Obs,
        cancel: Option<&CancelToken>,
    ) -> Option<ShardRun> {
        let reference = self.config.resolved_reference();
        let agg = self.run_range::<RecordedMetric, S>(space, range, &mut observe, obs, cancel)?;
        let groups = agg.group_states();
        Some(ShardRun {
            report: agg.finish(reference.as_deref()),
            groups,
        })
    }

    /// The shared run body: generate and solve `space[range]` batch by
    /// batch, fold sequentially in job order into `M`-backed group
    /// accumulators. Only indices inside `range` are ever handed to
    /// [`JobSpace::job`], and each batch's jobs are dropped before the
    /// next is generated.
    ///
    /// Telemetry (out-of-band by contract — it reads results, never
    /// writes them): a root `campaign` span over the whole range, one
    /// `batch` child span per streaming batch with a progress event
    /// (jobs done, jobs/sec, ETA) after its sequential fold, per-solve
    /// `solve` spans when `obs` is at [`replica_obs::Verbosity::Solve`],
    /// and — at the end — one wall-clock histogram per `(scenario,
    /// solver)` group plus the outcome counters.
    ///
    /// Cancellation: when `cancel` is given, the token is polled before
    /// each batch; a cancelled run stops generating work and returns
    /// `None` — no partial aggregation ever escapes.
    fn run_range<M: MetricSink, S: JobSpace + ?Sized>(
        &self,
        space: &S,
        range: Range<usize>,
        observe: &mut dyn FnMut(&FleetCell),
        obs: &Obs,
        cancel: Option<&CancelToken>,
    ) -> Option<Aggregation<M>> {
        assert!(
            range.start <= range.end && range.end <= space.len(),
            "shard range {range:?} outside the job space (len {})",
            space.len()
        );
        let solvers: Vec<&Solver> = self
            .config
            .solvers
            .iter()
            .map(|name| self.registry.get(name).expect("validated in Fleet::new"))
            .collect();
        let solver_names: Vec<&'static str> = solvers.iter().map(|s| s.name()).collect();
        let reference = self.config.resolved_reference();
        let reference_slot: Option<usize> = reference
            .as_deref()
            .and_then(|r| solver_names.iter().position(|s| *s == r));

        let batch = self.config.batch_jobs;
        let n_solvers = solvers.len();
        let total = range.end - range.start;
        let mut agg: Aggregation<M> = Aggregation::new(reference.is_some());
        let body = || {
            let run_span = obs.span("campaign", format!("jobs {}..{}", range.start, range.end));
            let run_start = Instant::now();
            let disabled = Span::disabled();
            let mut done = 0usize;
            for start in (range.start..range.end).step_by(batch) {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    drop(run_span);
                    obs.flush();
                    return None;
                }
                let end = (start + batch).min(range.end);
                let batch_span = run_span.child("batch", format!("jobs {start}..{end}"));
                // Per-solve spans only at full verbosity; a disabled
                // parent makes them free.
                let solve_parent: &Span = if obs.solve_detail() {
                    &batch_span
                } else {
                    &disabled
                };
                // Lazy generation, batch-bounded: construct only this
                // batch's jobs (in parallel — job(i) is a pure function
                // of the global index, so generation order is free)...
                let batch_jobs: Vec<FleetJob> =
                    (start..end).into_par_iter().map(|i| space.job(i)).collect();
                // ...then parallel solving at (job, solver) grain — a
                // slow solver never serializes behind its row-mates —
                // still bounded by the batch size...
                let tasks: Vec<(usize, usize)> = (0..batch_jobs.len())
                    .flat_map(|j| (0..n_solvers).map(move |s| (j, s)))
                    .collect();
                let cells: Vec<(CellResult, f64)> = tasks
                    .into_par_iter()
                    .map(|(j, s)| {
                        self.run_cell(&batch_jobs[j], start + j, solvers[s], solve_parent)
                    })
                    .collect();
                // ...then regrouped into job-major rows and folded
                // sequentially in job order (determinism). The batch's
                // jobs drop here: peak memory is one batch, not the
                // campaign.
                let mut cells = cells.into_iter();
                for job in &batch_jobs {
                    let row: Vec<(CellResult, f64)> = cells.by_ref().take(n_solvers).collect();
                    agg.fold_row(
                        &job.scenario,
                        job.index,
                        row,
                        &solver_names,
                        reference_slot,
                        observe,
                    );
                }
                drop(batch_span);
                done += end - start;
                obs.progress(done, total, run_start.elapsed().as_secs_f64());
            }
            if obs.enabled() {
                let (mut solved, mut failed, mut unsupported) = (0u64, 0u64, 0u64);
                for g in &agg.groups {
                    solved += g.solved as u64;
                    failed += g.failed as u64;
                    unsupported += g.unsupported as u64;
                    obs.histogram(
                        format!("{}/{}", g.scenario, g.solver),
                        "ms",
                        scale_stats(g.wall.stats(), 1e3),
                    );
                }
                obs.counter_add("cells", agg.cell_count as u64);
                obs.counter_add("cells_solved", solved);
                obs.counter_add("cells_failed", failed);
                obs.counter_add("cells_unsupported", unsupported);
                obs.flush_counters();
            }
            drop(run_span);
            obs.flush();
            Some(agg)
        };
        match self.config.threads {
            None => body(),
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool")
                .install(body),
        }
    }

    /// Solves one `(job, solver)` cell. `parent` is the enclosing batch
    /// span (disabled below solve-level verbosity): each cell gets a
    /// `solve` child span, and phase-aware solvers hang their DP phase
    /// sub-spans off it ([`Solver::solve_in`]).
    fn run_cell(
        &self,
        job: &FleetJob,
        job_index: usize,
        solver: &Solver,
        parent: &Span,
    ) -> (CellResult, f64) {
        let mut options = self.config.options;
        // Per-instance seed: reproducible, decorrelated, independent of
        // which solvers run alongside.
        options.seed = seeding::mix(self.config.seed, job_index as u64);
        if !solver.supports(&job.instance) {
            return (CellResult::Unsupported, 0.0);
        }
        let span = if parent.enabled() {
            parent.child(
                "solve",
                format!("{}#{} {}", job.scenario, job.index, solver.name()),
            )
        } else {
            Span::disabled()
        };
        // Worker threads solve thousands of cells: the thread arena keeps
        // each solver's flat layout, DP tables and scratch buffers warm
        // across jobs (bit-identical outcomes either way — see
        // `Solver::solve_in`).
        match crate::solver::with_thread_arena(|arena| {
            solver.solve_in(&job.instance, &options, &span, arena)
        }) {
            Ok(outcome) => (
                CellResult::Solved(CellOutcome {
                    cost: outcome.cost,
                    power: outcome.power,
                    servers: outcome.servers,
                }),
                outcome.wall.as_secs_f64(),
            ),
            Err(e) => (CellResult::Failed(e.to_string()), 0.0),
        }
    }
}

impl FleetReport {
    /// The deterministic portion of the report: the cell-matrix
    /// fingerprint (count + checksum over every cell's outcome line, in
    /// job order) and every aggregate, timing fields excluded.
    /// Byte-identical across runs, thread counts and batch sizes for a
    /// fixed seed.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "cells={} checksum={:016x}",
            self.cell_count, self.cell_checksum
        )
        .expect("writing to String cannot fail");
        for s in &self.summaries {
            writeln!(
                out,
                "{} {}: solved={} failed={} unsupported={} cost[{:.9}/{:.9}/{:.9}] \
                 power[{:.9}/{:.9}/{:.9}] power_p50={:.9} servers={:.4} gap={}",
                s.scenario,
                s.solver,
                s.solved,
                s.failed,
                s.unsupported,
                s.cost.min,
                s.cost.mean,
                s.cost.max,
                s.power.min,
                s.power.mean,
                s.power.max,
                s.power.p50,
                s.mean_servers,
                s.power_gap_vs_ref
                    .map_or("-".to_string(), |g| format!("{g:.9}")),
            )
            .expect("writing to String cannot fail");
        }
        out
    }

    /// Renders the aggregates as an aligned ASCII table (includes the
    /// non-deterministic timing columns).
    pub fn table(&self) -> String {
        let mut rows = vec![vec![
            "scenario".to_string(),
            "solver".into(),
            "solved".into(),
            "fail".into(),
            "power_mean".into(),
            "power_p90".into(),
            "cost_mean".into(),
            "servers".into(),
            "gap_vs_ref".into(),
            "ms/solve".into(),
            "ms_p90".into(),
            "speedup".into(),
        ]];
        for s in &self.summaries {
            let mut row = Self::deterministic_cells(s);
            row.push(format!("{:.3}", s.wall.mean * 1e3));
            row.push(format!("{:.3}", s.wall.p90 * 1e3));
            row.push(s.speedup_vs_ref.map_or("-".into(), |x| format!("{x:.1}x")));
            rows.push(row);
        }
        Self::render(&rows)
    }

    /// Renders the aggregates as an aligned ASCII table **without** the
    /// timing columns: every cell is a pure function of the fleet seed,
    /// so — like [`FleetReport::digest`] — this rendering is
    /// byte-identical across runs, thread counts, batch sizes *and*
    /// process shardings of the same configuration. `replica-fleetd`
    /// diffs it between merged and single-process runs.
    pub fn table_deterministic(&self) -> String {
        let mut rows = vec![vec![
            "scenario".to_string(),
            "solver".into(),
            "solved".into(),
            "fail".into(),
            "power_mean".into(),
            "power_p90".into(),
            "cost_mean".into(),
            "servers".into(),
            "gap_vs_ref".into(),
        ]];
        for s in &self.summaries {
            rows.push(Self::deterministic_cells(s));
        }
        Self::render(&rows)
    }

    /// The deterministic column cells of one summary row (shared by both
    /// table renderings).
    fn deterministic_cells(s: &FleetSummary) -> Vec<String> {
        vec![
            s.scenario.clone(),
            s.solver.to_string(),
            s.solved.to_string(),
            (s.failed + s.unsupported).to_string(),
            format!("{:.2}", s.power.mean),
            format!("{:.2}", s.power.p90),
            format!("{:.3}", s.cost.mean),
            format!("{:.1}", s.mean_servers),
            s.power_gap_vs_ref.map_or("-".into(), |g| format!("{g:.4}")),
        ]
    }

    /// Column-aligned rendering with a rule under the header row.
    fn render(rows: &[Vec<String>]) -> String {
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in rows.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspace::ScenarioSpace;
    use crate::scenarios::{Demand, Scenario, Topology};

    fn tiny_jobs() -> Vec<FleetJob> {
        let scenarios = vec![
            Scenario::new(Topology::High, Demand::Uniform, 12),
            Scenario::new(Topology::Star, Demand::Skewed, 12),
        ];
        ScenarioSpace::new(&scenarios, 11, 3).materialize()
    }

    #[test]
    fn fleet_runs_and_aggregates() {
        let registry = Registry::with_all();
        let config = FleetConfig {
            solvers: vec![
                "greedy".into(),
                "dp_power".into(),
                "heur_power_greedy".into(),
            ],
            ..Default::default()
        };
        let fleet = Fleet::new(&registry, config);
        let jobs = tiny_jobs();
        let report = fleet.run(&jobs[..], &Obs::noop());
        assert_eq!(report.cell_count, jobs.len() * 3);
        assert_eq!(report.summaries.len(), 2 * 3, "2 scenarios × 3 solvers");
        for s in &report.summaries {
            assert_eq!(
                s.solved, 3,
                "{}/{} should solve everything",
                s.scenario, s.solver
            );
            assert_eq!(s.cost.count, 3);
            assert!(s.power.min <= s.power.p50 && s.power.p50 <= s.power.max);
            if s.solver != "dp_power" {
                let gap = s.power_gap_vs_ref.expect("reference present");
                assert!(
                    gap >= 1.0 - 1e-9,
                    "{}: exact DP must win, gap {gap}",
                    s.solver
                );
                let dist = s.gap_vs_ref.expect("gap distribution present");
                assert_eq!(dist.count, 3);
                assert!((dist.mean - gap).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown solver")]
    fn unknown_solver_is_rejected_up_front() {
        let registry = Registry::with_all();
        let config = FleetConfig {
            solvers: vec!["not_a_solver".into()],
            ..Default::default()
        };
        let _ = Fleet::new(&registry, config);
    }

    #[test]
    fn digest_is_stable_across_runs_threads_and_batch_sizes() {
        let registry = Registry::with_all();
        let digest_with = |threads: Option<usize>, batch_jobs: usize| {
            let config = FleetConfig {
                solvers: vec![
                    "greedy_power".into(),
                    "dp_power".into(),
                    "heur_annealing".into(),
                ],
                threads,
                batch_jobs,
                ..Default::default()
            };
            Fleet::new(&registry, config)
                .run(&tiny_jobs()[..], &Obs::noop())
                .digest()
        };
        let base = digest_with(None, 64);
        assert_eq!(base, digest_with(None, 64), "same config, same digest");
        assert_eq!(
            base,
            digest_with(Some(1), 64),
            "single-threaded digest identical"
        );
        assert_eq!(
            base,
            digest_with(Some(7), 64),
            "odd thread count digest identical"
        );
        assert_eq!(
            base,
            digest_with(None, 1),
            "one-job batches digest identical"
        );
        assert_eq!(
            base,
            digest_with(Some(3), 2),
            "threads × batch interplay digest identical"
        );
        assert!(base.contains("dp_power"));
        assert!(base.starts_with("cells="));
    }

    #[test]
    fn observer_streams_cells_in_job_order() {
        let registry = Registry::with_all();
        let config = FleetConfig {
            solvers: vec!["greedy".into(), "greedy_power".into()],
            batch_jobs: 2,
            ..Default::default()
        };
        let jobs = tiny_jobs();
        let mut seen: Vec<(String, usize, &'static str)> = Vec::new();
        let run = Fleet::new(&registry, config)
            .run_shard(
                &jobs[..],
                0..jobs.len(),
                |cell| seen.push((cell.scenario.to_string(), cell.instance, cell.solver)),
                &Obs::noop(),
                None,
            )
            .expect("no cancel token given");
        assert_eq!(seen.len(), run.report.cell_count);
        let expected: Vec<(String, usize, &'static str)> = jobs
            .iter()
            .flat_map(|j| {
                [
                    (j.scenario.clone(), j.index, "greedy"),
                    (j.scenario.clone(), j.index, "greedy_power"),
                ]
            })
            .collect();
        assert_eq!(seen, expected, "cells observed in deterministic job order");
    }

    #[test]
    fn table_renders_header_and_rows() {
        let registry = Registry::with_all();
        let config = FleetConfig {
            solvers: vec!["greedy".into()],
            ..Default::default()
        };
        let report = Fleet::new(&registry, config).run(&tiny_jobs()[..], &Obs::noop());
        let table = report.table();
        assert!(table.contains("scenario"));
        assert!(table.lines().count() >= 2 + 2, "header + rule + 2 rows");
    }

    #[test]
    #[should_panic(expected = "batch_jobs = 0")]
    fn zero_batch_jobs_is_a_configuration_error() {
        let registry = Registry::with_all();
        let config = FleetConfig {
            batch_jobs: 0,
            ..Default::default()
        };
        let _ = Fleet::new(&registry, config);
    }

    fn shard_config() -> FleetConfig {
        FleetConfig {
            solvers: vec![
                "greedy_power".into(),
                "dp_power".into(),
                "heur_annealing".into(),
            ],
            batch_jobs: 2,
            ..Default::default()
        }
    }

    /// Splits `0..n_jobs` into `shards` contiguous near-equal ranges.
    fn split(n_jobs: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
        let chunk = n_jobs.div_ceil(shards.max(1));
        (0..shards)
            .map(|k| (k * chunk).min(n_jobs)..((k + 1) * chunk).min(n_jobs))
            .collect()
    }

    /// One recorded job row: scenario, instance, per-solver cells.
    type RecordedRow = (String, usize, Vec<(CellResult, f64)>);

    #[test]
    fn shard_runs_fold_back_into_the_sequential_report() {
        let registry = Registry::with_all();
        let fleet = Fleet::new(&registry, shard_config());
        let jobs = tiny_jobs();
        let whole = fleet.run(&jobs[..], &Obs::noop());

        for shards in [1, 2, 3, jobs.len() + 3] {
            // Worker side: run each contiguous range, recording cells and
            // mergeable group state.
            let mut fold = FleetFold::new(
                vec!["greedy_power", "dp_power", "heur_annealing"],
                Some("dp_power".into()),
            );
            let mut merged_groups: Option<Vec<GroupState>> = None;
            for range in split(jobs.len(), shards) {
                let mut rows: Vec<RecordedRow> = Vec::new();
                let record = |cell: &FleetCell| {
                    if rows.last().map(|(s, i, _)| (s.as_str(), *i))
                        != Some((cell.scenario, cell.instance))
                    {
                        rows.push((cell.scenario.to_string(), cell.instance, Vec::new()));
                    }
                    rows.last_mut()
                        .expect("row pushed above")
                        .2
                        .push((cell.result.clone(), cell.wall_seconds));
                };
                let shard = fleet
                    .run_shard(&jobs[..], range, record, &Obs::noop(), None)
                    .expect("no cancel token given");
                // Coordinator side, canonical route: replay the cells,
                // reproducing the worker's shard-local checksum on the way.
                fold.begin_shard();
                for (scenario, instance, row) in rows {
                    fold.fold_row(&scenario, instance, row);
                }
                assert_eq!(fold.shard_checksum(), Some(shard.report.cell_checksum));
                // Coordinator side, state route: merge the group states.
                merged_groups = Some(match merged_groups.take() {
                    None => shard.groups,
                    Some(mut acc) => {
                        for group in &shard.groups {
                            match acc
                                .iter_mut()
                                .find(|g| g.scenario == group.scenario && g.solver == group.solver)
                            {
                                Some(existing) => existing.merge_in_order(group).unwrap(),
                                None => acc.push(group.clone()),
                            }
                        }
                        acc
                    }
                });
            }
            let merged = fold.finish();
            assert_eq!(
                merged.digest(),
                whole.digest(),
                "{shards}-way shard replay must be byte-identical"
            );
            assert_eq!(merged.cell_count, whole.cell_count);
            assert_eq!(merged.cell_checksum, whole.cell_checksum);
            assert_eq!(merged.table_deterministic(), whole.table_deterministic());
            // And the independently merged group states agree, field by
            // field, with the canonical replay of the same shard cells
            // (not with `whole`: its wall-clock *measurements* differ
            // run to run, and the wall-based columns reflect that).
            let groups = merged_groups.expect("at least one shard");
            assert_eq!(groups.len(), merged.summaries.len());
            for (state, summary) in groups.iter().zip(&merged.summaries) {
                state.agrees_with(summary).unwrap();
            }
        }
    }

    #[test]
    fn cancellation_between_batches_discards_everything_or_nothing() {
        let registry = Registry::with_all();
        let fleet = Fleet::new(&registry, shard_config());
        let jobs = tiny_jobs();

        // A never-cancelled token changes nothing: byte-identical to a
        // run without one.
        let token = CancelToken::new();
        let run = fleet
            .run_shard(&jobs[..], 0..jobs.len(), |_| {}, &Obs::noop(), Some(&token))
            .expect("uncancelled run completes");
        let baseline = fleet
            .run_shard(&jobs[..], 0..jobs.len(), |_| {}, &Obs::noop(), None)
            .expect("no cancel token given");
        assert_eq!(run.report.digest(), baseline.report.digest());

        // Cancelling from the cell observer (batch_jobs = 2, so the
        // token trips mid-run) aborts at the next batch boundary and
        // yields None — observed cells are discarded, never folded into
        // a partial report.
        let mid = CancelToken::new();
        let mid_clone = mid.clone();
        let mut seen = 0usize;
        let cancelled = fleet.run_shard(
            &jobs[..],
            0..jobs.len(),
            |_| {
                seen += 1;
                if seen >= 3 {
                    mid_clone.cancel();
                }
            },
            &Obs::noop(),
            Some(&mid),
        );
        assert!(cancelled.is_none(), "mid-run cancellation must yield None");
        assert!(seen >= 3 && seen < jobs.len() * 3, "stopped early: {seen}");
        assert!(mid.is_cancelled());

        // A token cancelled up front runs nothing at all.
        let pre = CancelToken::new();
        pre.cancel();
        let mut observed = 0usize;
        let none = fleet.run_shard(
            &jobs[..],
            0..jobs.len(),
            |_| observed += 1,
            &Obs::noop(),
            Some(&pre),
        );
        assert!(none.is_none());
        assert_eq!(observed, 0, "pre-cancelled run must not solve a cell");
    }

    #[test]
    fn deterministic_table_drops_timing_columns() {
        let registry = Registry::with_all();
        let report = Fleet::new(&registry, shard_config()).run(&tiny_jobs()[..], &Obs::noop());
        let table = report.table_deterministic();
        assert!(table.contains("gap_vs_ref"));
        assert!(!table.contains("ms/solve"));
        assert!(!table.contains("speedup"));
    }

    #[test]
    fn group_state_round_trips_and_detects_divergence() {
        let registry = Registry::with_all();
        let fleet = Fleet::new(&registry, shard_config());
        let jobs = tiny_jobs();
        let shard = fleet
            .run_shard(&jobs[..], 0..jobs.len(), |_| {}, &Obs::noop(), None)
            .expect("no cancel token given");
        for (state, summary) in shard.groups.iter().zip(&shard.report.summaries) {
            // Wire round-trip preserves agreement bit for bit.
            let json = serde_json::to_string(state).unwrap();
            let back: GroupState = serde_json::from_str(&json).unwrap();
            back.agrees_with(summary).unwrap();
        }
        // A tampered state is caught.
        let mut bad = shard.groups[1].clone();
        bad.power.push(1.0);
        assert!(bad.agrees_with(&shard.report.summaries[1]).is_err());
        // Merging mismatched group keys is refused.
        let mut a = shard.groups[0].clone();
        let b = shard.groups[1].clone();
        assert!(a.merge_in_order(&b).is_err());
    }
}
