//! Job-generation and shard-worker-startup benches: lazy indexed
//! [`ScenarioSpace`] vs eager `Vec<FleetJob>` materialization.
//!
//! The numbers quantify the `O(shard)` claim of the lazy `JobSpace`
//! refactor: generating one shard of a 16-way split must cost ~1/16th
//! of materializing the campaign, and a shard worker's end-to-end run
//! (generation + solving its range) must not pay the campaign-sized
//! generation tax the eager path used to. The committed trajectory
//! artifact `BENCH_jobspace.json` is produced by the `jobspace_trajectory`
//! binary from the same workload.

use criterion::{criterion_group, criterion_main, Criterion};
use replica_bench::standard_campaign;
use replica_engine::obs::Obs;
use replica_engine::{Fleet, JobSpace, Registry};
use std::hint::black_box;

/// 20 standard scenarios × 8 instances = 160 jobs, split 16 ways.
const NODES: usize = 16;
const PER_SCENARIO: usize = 8;
const SHARDS: usize = 16;
const SEED: u64 = 0xBE7C;

fn bench_generation(c: &mut Criterion) {
    // The campaign comes from the declarative spec layer — the lazy
    // space and the eager list below are the two faces of one spec.
    let campaign = standard_campaign(SEED, NODES, PER_SCENARIO, ["greedy_power"]);
    let space = campaign.space();
    let shard_len = space.len() / SHARDS;

    let mut group = c.benchmark_group("jobspace_generation");
    group.sample_size(10);
    group.bench_function("eager_campaign", |b| {
        b.iter(|| black_box(black_box(&space).materialize()))
    });
    group.bench_function("lazy_shard_0_of_16", |b| {
        b.iter(|| {
            for i in 0..shard_len {
                black_box(space.job(i));
            }
        })
    });
    group.finish();
}

fn bench_worker_startup(c: &mut Criterion) {
    let campaign = standard_campaign(SEED, NODES, PER_SCENARIO, ["greedy_power"]);
    let registry = Registry::with_all();
    let fleet = Fleet::try_new(&registry, campaign.fleet_config())
        .expect("validated campaigns configure valid fleets");
    let space = campaign.space();
    let range = 0..space.len() / SHARDS;

    let mut group = c.benchmark_group("shard_worker");
    group.sample_size(10);
    // The historical worker: materialize the whole campaign, then solve
    // one shard of it.
    group.bench_function("eager_generate_campaign_then_solve_shard", |b| {
        b.iter(|| {
            let jobs = space.materialize();
            black_box(fleet.run_shard(&jobs[..], range.clone(), |_| {}, &Obs::noop(), None))
        })
    });
    // The lazy worker: generation happens inside the run, only for the
    // shard's own indices.
    group.bench_function("lazy_generate_only_shard", |b| {
        b.iter(|| black_box(fleet.run_shard(&space, range.clone(), |_| {}, &Obs::noop(), None)))
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_worker_startup);
criterion_main!(benches);
