//! The `fleet` workload: `fleetd`'s [`run_plan`] with in-process workers
//! over a 4-shard plan of the `extended` scenario set.
//!
//! Thousands of small solves, so job generation, registry dispatch,
//! streaming aggregation and the shard merge carry the load and no single
//! kernel dominates. The traced run drives the public calls `run_plan`
//! makes for in-process workers — [`run_shard`] per shard, then
//! [`merge_reports`] — under spans, and times [`JobSpace::job`] and each
//! cell's solver from the shard reports.
//!
//! The campaign's trees are fixed (fleet seed [`TOPOLOGY_SEED`]): instance
//! generation depends on the scenario's name, the fleet seed and the
//! instance's index within the scenario, so a wholly seed-drawn campaign
//! would make run-to-run spread measure tree shapes rather than code.
//! `--seed` instead shuffles the scenario order, which moves every job's
//! global index, hence its solver seed and its shard.

use crate::{peak_rss_mb, stats, trace::Tracer, Run, PEAK_RSS_AFTER, TOPOLOGY_SEED};
use rand::{seq::SliceRandom, SeedableRng};
use replica_engine::{Campaign, CampaignSpec, JobSpace, Registry, ScenarioSet};
use replica_fleetd::coordinator::{run_plan, run_single_process, Workers};
use replica_fleetd::shard::CellStatus;
use replica_fleetd::worker::run_shard;
use replica_fleetd::{merge_reports, ShardPlan};
use std::time::{Duration, Instant};

/// Internal nodes per scenario tree.
pub const NODES: usize = 400;

/// Instances per scenario.
pub const INSTANCES: usize = 4;

/// Shards in the plan.
pub const SHARDS: usize = 4;

/// Worker threads (the benchmark machine's core count).
pub const THREADS: usize = 2;

/// The solver lineup, in cell-row order.
pub const SOLVERS: [&str; 4] = ["greedy", "greedy_power", "dp_power", "heur_power_greedy"];

/// Set-ups timed before each `run_plan`; `setup_s` is their median.
/// Spread over the whole run like the runs themselves, so a disturbed
/// moment of a shared machine moves set-up time no more than run time.
const SETUPS_PER_RUN: usize = 8;

/// The workload's validated campaign for `seed`: the `extended` scenario
/// set in a seed-shuffled order over the fixed trees.
pub fn campaign(seed: u64) -> Result<Campaign, String> {
    let mut scenarios = ScenarioSet::Extended.families(NODES);
    scenarios.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    CampaignSpec::builder()
        .scenarios(scenarios)
        .instances_per_scenario(INSTANCES)
        .solvers(SOLVERS)
        .seed(TOPOLOGY_SEED)
        .threads(THREADS)
        .validate(&Registry::with_all())
        .map_err(|e| format!("campaign: {e}"))
}

/// One set-up, validate plus plan, timed into `run.setup_s`.
fn set_up(seed: u64, run: &mut Run, tracer: &mut Tracer) -> Result<ShardPlan, String> {
    let start = Instant::now();
    let campaign = campaign(seed)?;
    let plan = tracer
        .time("fleetd.plan", 0, || ShardPlan::new(campaign, SHARDS))
        .map_err(|e| format!("plan: {e}"))?;
    run.setup_s.push(start.elapsed().as_secs_f64());
    Ok(plan)
}

/// Runs `fleet` for `seconds` and checks its outputs.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut plan = set_up(seed, &mut run, tracer)?;
    let mut checksums = Vec::new();
    let mut walls: Vec<(String, f64)> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut round = 0u64;
    while (round as usize) < PEAK_RSS_AFTER || start.elapsed() < budget {
        round += 1;
        for _ in 0..SETUPS_PER_RUN {
            plan = set_up(seed, &mut run, tracer)?;
        }
        let began = Instant::now();
        let report = tracer
            .time("fleetd.run_plan", round, || {
                run_plan(&plan, &Workers::InProcess)
            })
            .map_err(|e| format!("run {round}: {e}"))?;
        let took = began.elapsed();
        run.op_ms.push(took.as_secs_f64() * 1e3);
        run.wall += took;
        if tracer.is_on() {
            // The same run, call by call: what `run_plan` does per shard
            // and at the merge, outside the operation's timing.
            let span = tracer.begin("fleetd.breakdown", round);
            let mut reports = Vec::with_capacity(SHARDS);
            for shard in 0..SHARDS {
                let report = tracer
                    .time("fleetd.shard", shard as u64, || run_shard(&plan, shard))
                    .map_err(|e| format!("shard {shard}: {e}"))?;
                walls.extend(report.cells.iter().map(|c| (c.solver.clone(), c.wall)));
                if let Some(cell) = report
                    .cells
                    .iter()
                    .find(|c| matches!(c.status, CellStatus::Failed { .. }))
                {
                    run.mismatch(format!(
                        "cell {} #{} / {} failed",
                        cell.scenario, cell.instance, cell.solver
                    ));
                }
                reports.push(report);
            }
            let merged = tracer
                .time("fleetd.merge", round, || merge_reports(&plan, &reports))
                .map_err(|e| format!("merge {round}: {e}"))?;
            tracer.end(span);
            if merged.cell_checksum != report.cell_checksum {
                run.mismatch(format!(
                    "run {round}: shard-by-shard merge differs from run_plan"
                ));
            }
        }
        let failed: usize = report.summaries.iter().map(|s| s.failed).sum();
        run.attempted += report.cell_count as u64;
        run.failed += failed as u64;
        run.work += report.cell_count as u64;
        checksums.push(report.cell_checksum);
        if round as usize == PEAK_RSS_AFTER {
            run.peak_rss_mb = peak_rss_mb();
        }
    }

    // Correctness, after timing: every run merged to the checksum of a
    // single-process run of the same campaign.
    let single = run_single_process(&plan).map_err(|e| format!("single-process run: {e}"))?;
    let off = checksums
        .iter()
        .filter(|&&c| c != single.cell_checksum)
        .count();
    if off > 0 {
        run.mismatch(format!(
            "{off} of {} runs merged to another checksum than the single-process {:016x}",
            checksums.len(),
            single.cell_checksum
        ));
        run.failed = run.attempted;
    }
    if run.failed > 0 {
        run.mismatch(format!("{} failed cells", run.failed));
    }
    run.note(
        "cells",
        run.work as f64,
        "count",
        &format!("in {round} runs"),
    );
    run.note(
        "cell_checksum",
        single.cell_checksum as f64,
        "hash",
        &format!("{:016x}", single.cell_checksum),
    );

    if tracer.is_on() {
        let space = plan.campaign.space();
        let probe = tracer.begin("jobspace.job", 0);
        for index in 0..space.len() {
            std::hint::black_box(space.job(index));
        }
        tracer.end_calls(probe, space.len() as u64);
        layers(tracer, &walls, &mut run);
    }
    Ok(run)
}

/// Per-layer values from the traced runs.
fn layers(tracer: &Tracer, walls: &[(String, f64)], run: &mut Run) {
    let spans = tracer.spans();
    let median = |values: Vec<f64>| stats::median(&values).unwrap_or(0.0);
    let ms = |name| median(crate::trace::durations_ms(spans, name));
    let job = crate::trace::layer_totals(spans)
        .get("jobspace.job")
        .map_or(0.0, |t| t.self_ns as f64 / t.calls.max(1) as f64 / 1e3);
    run.layers.insert("fleetd.plan_ms", ms("fleetd.plan"));
    run.layers.insert("jobspace.job_us", job);
    run.layers.insert("fleetd.shard_ms", ms("fleetd.shard"));
    run.layers.insert("fleetd.merge_ms", ms("fleetd.merge"));
    for (solver, name) in SOLVERS.iter().zip([
        "registry.greedy.cell_ms_p50",
        "registry.greedy_power.cell_ms_p50",
        "registry.dp_power.cell_ms_p50",
        "registry.heur_power_greedy.cell_ms_p50",
    ]) {
        let cells = walls
            .iter()
            .filter(|(s, _)| s == solver)
            .map(|(_, wall)| wall * 1e3)
            .collect();
        run.layers.insert(name, median(cells));
    }
}
