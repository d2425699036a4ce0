//! Streaming re-solve hot path: incremental vs from-scratch per epoch.
//!
//! The criterion twin of the `serve_trajectory` binary (which emits the
//! committed `BENCH_serve.json`): same α = 1 fat-tree regime, same
//! single-delta and subtree-mix workloads, statistical sampling instead
//! of a point estimate. The from-scratch ladder stops at 10⁴ nodes —
//! a 10⁵ full solve is seconds and the committed artifact already
//! carries that point; the incremental ladder goes to 10⁵.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::IncrementalDp;
use replica_engine::scenarios::fat_linear_power_instance;
use replica_serve::{Generator, Preset};
use replica_tree::ClientId;
use std::hint::black_box;

const SEED: u64 = 9;

fn single_delta(rng: &mut StdRng, current: u64, clients: usize) -> (ClientId, u64) {
    let client = ClientId::from_index(rng.random_range(0..clients));
    let mut volume = rng.random_range(0..=9u64);
    if volume == current {
        volume = (volume + 1) % 10;
    }
    (client, volume)
}

fn bench_single_delta_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_single_delta");
    group.sample_size(10);
    for nodes in [1_000usize, 10_000, 100_000] {
        let mut dp = IncrementalDp::new(
            fat_linear_power_instance(SEED, nodes, nodes / 10),
            f64::INFINITY,
        );
        dp.resolve().unwrap();
        let clients = dp.instance().tree().client_count();
        let mut rng = StdRng::seed_from_u64(SEED);
        group.bench_function(BenchmarkId::new("incremental", nodes), |b| {
            b.iter(|| {
                let (client, volume) = single_delta(&mut rng, 0, clients);
                let current = dp.instance().tree().requests(client);
                let volume = if volume == current {
                    (volume + 1) % 10
                } else {
                    volume
                };
                dp.set_requests(client, volume);
                black_box(dp.resolve().unwrap());
            })
        });
    }
    for nodes in [1_000usize, 10_000] {
        let mut instance = fat_linear_power_instance(SEED, nodes, nodes / 10);
        let clients = instance.tree().client_count();
        let mut scratch = PrunedScratch::default();
        let mut rng = StdRng::seed_from_u64(SEED);
        group.bench_function(BenchmarkId::new("from_scratch", nodes), |b| {
            b.iter(|| {
                let (client, volume) = single_delta(&mut rng, 0, clients);
                instance.tree_mut().set_requests(client, volume);
                black_box(
                    solve_min_power_bounded_cost_in(&instance, f64::INFINITY, &mut scratch)
                        .unwrap(),
                );
            })
        });
    }
    group.finish();
}

fn bench_subtree_mix_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_subtree_mix");
    group.sample_size(10);
    for nodes in [1_000usize, 10_000, 100_000] {
        let mut dp = IncrementalDp::new(
            fat_linear_power_instance(SEED, nodes, nodes / 10),
            f64::INFINITY,
        );
        dp.resolve().unwrap();
        let mut generator = Generator::new(Preset::SubtreeMix, dp.instance().tree(), SEED, 32);
        group.bench_function(BenchmarkId::new("incremental_rate32", nodes), |b| {
            b.iter(|| {
                for _ in 0..32 {
                    let delta = generator.next_delta(dp.instance().tree()).unwrap();
                    dp.set_requests(delta.client, delta.volume);
                }
                black_box(dp.resolve().unwrap());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_delta_epochs, bench_subtree_mix_epochs);
criterion_main!(benches);
