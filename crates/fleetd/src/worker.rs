//! The shard worker: one process, one contiguous job range — `O(shard)`
//! in both time and memory.
//!
//! A worker rebuilds the campaign's deterministic **job space** from the
//! plan (instances are pure functions of `(scenario, seed, index)` —
//! nothing is shipped), runs its shard range against it through the
//! engine's in-process fleet with **global** job indices (so
//! per-instance solver seeds match the unsharded run exactly), and
//! serializes a [`ShardReport`]: the raw cell stream and its exact
//! [`checksum`](crate::shard::checksum).
//!
//! Job generation is lazy: the engine queries
//! [`Campaign::space`](replica_engine::Campaign::space) only for the
//! indices in `manifest.start..manifest.end`, one streaming batch at a
//! time — a worker solving shard `k` of `n` constructs exactly
//! `len(shard k)` jobs, never the whole campaign (the counter-backed
//! regression suite in `tests/lazy_worker.rs` pins this through
//! [`run_shard_attempt`] and a
//! [`CountingSpace`](replica_engine::CountingSpace)).

use crate::error::FleetdError;
use crate::plan::ShardPlan;
use crate::shard::{self, CellRecord, ShardReport};
use replica_engine::obs::Obs;
use replica_engine::{CancelToken, Fleet, JobSpace, Registry};

/// Runs shard `shard` of `plan` in-process over the campaign's own lazy
/// job space and returns its report (attempt 0, no telemetry).
pub fn run_shard(plan: &ShardPlan, shard: usize) -> Result<ShardReport, FleetdError> {
    let report = run_shard_attempt(plan, shard, 0, &plan.campaign.space(), &Obs::noop(), None)?;
    Ok(report.expect("no cancel token given"))
}

/// Runs shard `shard` as attempt generation `attempt` over `space` — the
/// supervised coordinator's entry point. `space` is normally
/// [`Campaign::space`](replica_engine::Campaign::space); the `O(shard)`
/// regression tests pass a counting wrapper. It must describe the same
/// job universe as the plan's campaign (same length; same `index → job`
/// mapping for the shard's digest to validate).
///
/// The engine's shard run streams per-batch progress and timing events
/// into `obs` ([`Obs::noop`] for none) — this is how `fleetd work` feeds
/// its heartbeat file and `--trace` JSONL. Telemetry is strictly
/// out-of-band: the report is byte-identical to an untraced run's. The
/// returned report carries `attempt` so the fenced merge can tell a
/// winning attempt's report from a superseded zombie's. `Ok(None)` means
/// `cancel` fired between batches: the attempt produced nothing at all
/// (the engine's all-or-nothing fold), which is exactly what a kill
/// fault must look like.
pub fn run_shard_attempt<S: JobSpace + ?Sized>(
    plan: &ShardPlan,
    shard: usize,
    attempt: usize,
    space: &S,
    obs: &Obs,
    cancel: Option<&CancelToken>,
) -> Result<Option<ShardReport>, FleetdError> {
    let manifest = *plan.manifest(shard)?;
    if plan.campaign.fingerprint() != plan.fingerprint {
        return Err(FleetdError::Protocol(
            "plan fingerprint does not match its campaign (corrupted plan?)".into(),
        ));
    }
    if space.len() != plan.campaign.job_count() {
        return Err(FleetdError::Protocol(format!(
            "job space has {} jobs but the campaign describes {}",
            space.len(),
            plan.campaign.job_count()
        )));
    }
    let registry = Registry::with_all();
    let fleet = Fleet::new(&registry, &plan.campaign)?;
    let mut cells = Vec::with_capacity(manifest.len() * plan.campaign.solvers.len());
    let Some(report) = fleet.run_shard(
        space,
        manifest.start..manifest.end,
        |cell| {
            cells.push(CellRecord::from_cell(cell));
        },
        obs,
        cancel,
    ) else {
        return Ok(None);
    };

    Ok(Some(ShardReport {
        fingerprint: plan.fingerprint,
        shard: manifest.shard,
        attempt,
        shard_count: plan.shards.len(),
        start: manifest.start,
        end: manifest.end,
        cell_count: report.cell_count,
        checksum: shard::checksum(&cells),
        cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CellStatus;
    use replica_engine::Campaign;

    /// Every cell of `report` but its wall time: what two runs of one
    /// shard share exactly.
    fn cell_keys(report: &ShardReport) -> Vec<(&str, usize, &str, &CellStatus)> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.scenario.as_str(),
                    c.instance,
                    c.solver.as_str(),
                    &c.status,
                )
            })
            .collect()
    }

    fn tiny_plan(shards: usize) -> ShardPlan {
        let mut campaign = Campaign::from_set("standard", 12, 1, 3).unwrap();
        campaign.scenarios.truncate(2);
        campaign.solvers = vec!["dp_power".into(), "greedy_power".into()];
        ShardPlan::new(campaign, shards).unwrap()
    }

    #[test]
    fn worker_reports_cover_exactly_their_range() {
        let plan = tiny_plan(2);
        for manifest in &plan.shards {
            let report = run_shard(&plan, manifest.shard).unwrap();
            assert_eq!(report.start, manifest.start);
            assert_eq!(report.end, manifest.end);
            assert_eq!(report.cell_count, manifest.len() * 2);
            assert_eq!(report.cells.len(), report.cell_count);
            assert_eq!(report.fingerprint, plan.fingerprint);
        }
        assert!(run_shard(&plan, 99).is_err());
    }

    #[test]
    fn attempts_are_stamped_and_cancellation_yields_nothing() {
        let plan = tiny_plan(2);
        let base = run_shard(&plan, 0).unwrap();
        assert_eq!(base.attempt, 0, "plain runs are attempt 0");

        // A retry attempt produces the byte-identical payload — only the
        // attempt stamp differs.
        let space = plan.campaign.space();
        let retry = run_shard_attempt(&plan, 0, 3, &space, &Obs::noop(), None)
            .unwrap()
            .expect("no cancel token given");
        assert_eq!(retry.attempt, 3);
        assert_eq!(cell_keys(&retry), cell_keys(&base));
        assert_eq!(retry.cell_count, base.cell_count);

        // A pre-cancelled attempt returns nothing at all.
        let cancel = CancelToken::new();
        cancel.cancel();
        let killed = run_shard_attempt(&plan, 0, 1, &space, &Obs::noop(), Some(&cancel)).unwrap();
        assert!(killed.is_none(), "cancelled attempts produce no report");
    }

    #[test]
    fn worker_is_deterministic() {
        let plan = tiny_plan(3);
        let a = run_shard(&plan, 1).unwrap();
        let b = run_shard(&plan, 1).unwrap();
        assert_eq!(cell_keys(&a), cell_keys(&b));
        assert_eq!(a.cell_count, b.cell_count);
    }
}
