//! Telemetry overhead benches: the same fleet campaign untraced (the
//! no-op `Obs` handle), traced into memory at full `Solve` verbosity,
//! and traced to a JSONL file.
//!
//! The obs layer's contract is "out-of-band and nearly free": the no-op
//! handle must cost nothing measurable, and even a real file-backed
//! trace must stay within a few percent of the untraced run. The
//! committed `BENCH_obs.json` artifact (from the `obs_overhead` binary,
//! same workload) pins the numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use replica_bench::standard_campaign;
use replica_engine::obs::{JsonlSink, MemorySink, Obs, Verbosity};
use replica_engine::{Fleet, Registry};
use std::hint::black_box;
use std::sync::Arc;

/// 20 standard scenarios × 4 instances across the default solver
/// lineup (exact DP, greedy, heuristic) — the standard campaign shape.
const NODES: usize = 64;
const PER_SCENARIO: usize = 4;
const SEED: u64 = 0xB0B5;

fn bench_obs_overhead(c: &mut Criterion) {
    let campaign = standard_campaign(
        SEED,
        NODES,
        PER_SCENARIO,
        ["dp_power", "greedy_power", "heur_power_greedy"],
    );
    let registry = Registry::with_all();
    let fleet = Fleet::try_new(&registry, campaign.fleet_config())
        .expect("validated campaigns configure valid fleets");
    let space = campaign.space();

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("untraced", |b| {
        let obs = Obs::noop();
        b.iter(|| black_box(fleet.run(&space, &obs)))
    });
    group.bench_function("memory_sink_solve_verbosity", |b| {
        let obs = Obs::new(Arc::new(MemorySink::new()), Verbosity::Solve);
        b.iter(|| black_box(fleet.run(&space, &obs)))
    });
    group.bench_function("jsonl_sink_solve_verbosity", |b| {
        let path = std::env::temp_dir().join(format!("obs-bench-{}.jsonl", std::process::id()));
        let obs = Obs::new(
            Arc::new(JsonlSink::create(&path).expect("temp trace file")),
            Verbosity::Solve,
        );
        b.iter(|| black_box(fleet.run(&space, &obs)));
        let _ = std::fs::remove_file(&path);
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
