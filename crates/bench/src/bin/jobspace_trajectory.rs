//! Emits `BENCH_jobspace.json` — the committed perf-trajectory artifact
//! for the indexed lazy `JobSpace` refactor.
//!
//! Measures, over the same workload as `benches/jobspace.rs` (20
//! standard scenarios × 8 instances = 160 jobs, split 16 ways):
//!
//! * `eager_campaign_generation_ms` — materializing the whole campaign's
//!   job list (the historical per-worker startup cost);
//! * `lazy_shard_generation_ms` — generating only shard 0's jobs through
//!   the space (`O(shard)`);
//! * `worker_eager_ms` / `worker_lazy_ms` — a shard worker end to end
//!   (generation + solving its range with `greedy_power`), eager vs
//!   lazy.
//!
//! Each number is the median of 9 timed repetitions after one warm-up.
//! Usage: `cargo run --release -p replica-bench --bin jobspace_trajectory
//! [-- OUT.json]` (default `BENCH_jobspace.json` in the working
//! directory — the repository root under `cargo run`).

use replica_bench::standard_campaign;
use replica_engine::obs::Obs;
use replica_engine::{Fleet, JobSpace, Registry};
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 16;
const PER_SCENARIO: usize = 8;
const SHARDS: usize = 16;
const SEED: u64 = 0xBE7C;
const REPS: usize = 9;

/// Median wall-clock milliseconds of `REPS` runs of `f` (one warm-up).
fn median_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_jobspace.json".into());

    // Built through the declarative spec layer, like every other
    // campaign in the workspace.
    let campaign = standard_campaign(SEED, NODES, PER_SCENARIO, ["greedy_power"]);
    let space = campaign.space();
    let jobs = space.len();
    let shard_len = jobs / SHARDS;

    let eager_generation = median_ms(|| space.materialize());
    let lazy_shard_generation = median_ms(|| {
        for i in 0..shard_len {
            black_box(space.job(i));
        }
    });

    let registry = Registry::with_all();
    let fleet = Fleet::new(&registry, &campaign).expect("validated campaigns build valid fleets");
    let range = 0..shard_len;
    let worker_eager = median_ms(|| {
        let jobs = space.materialize();
        fleet.run_shard(&jobs[..], range.clone(), |_| {}, &Obs::noop(), None)
    });
    let worker_lazy =
        median_ms(|| fleet.run_shard(&space, range.clone(), |_| {}, &Obs::noop(), None));

    let json = format!(
        "{{\n  \"bench\": \"jobspace\",\n  \"campaign\": {{ \"scenarios\": {}, \"per_scenario\": {}, \"nodes\": {}, \"jobs\": {} }},\n  \"shards\": {},\n  \"shard_jobs\": {},\n  \"eager_campaign_generation_ms\": {:.3},\n  \"lazy_shard_generation_ms\": {:.3},\n  \"generation_speedup\": {:.2},\n  \"worker_eager_ms\": {:.3},\n  \"worker_lazy_ms\": {:.3},\n  \"worker_speedup\": {:.2}\n}}\n",
        campaign.scenarios.len(),
        PER_SCENARIO,
        NODES,
        jobs,
        SHARDS,
        shard_len,
        eager_generation,
        lazy_shard_generation,
        eager_generation / lazy_shard_generation,
        worker_eager,
        worker_lazy,
        worker_eager / worker_lazy,
    );
    std::fs::write(&out, &json).expect("cannot write the trajectory artifact");
    eprint!("{json}");
    eprintln!("→ {out}");
}
