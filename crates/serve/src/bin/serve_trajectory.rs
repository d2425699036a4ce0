//! Emits `BENCH_serve.json` — the committed perf artifact for the
//! incremental placement server.
//!
//! Measures ns/epoch for streaming re-solves over Experiment-3-style
//! fat trees under the **energy-proportional** (α = 1) power model —
//! the regime where the exact pruned DP reaches 10⁵ nodes (see
//! `BENCH_solvers.json` and `docs/ARCHITECTURE.md`):
//!
//! * `incremental_single_delta` — one client's volume changes per
//!   epoch, then [`IncrementalDp::resolve`]: the dirty closure is a
//!   single root path, so table work is O(depth · frontier) and the
//!   epoch is dominated by the root rescan + reconstruct;
//! * `from_scratch_single_delta` — the *same* delta stream answered by
//!   a fresh `solve_min_power_bounded_cost_in` per epoch (persistent
//!   scratch, so the comparison is pure recompute, not allocation);
//! * `incremental_subtree_mix` — 32-event subtree-local bursts per
//!   epoch from the `subtree-mix` generator preset: many deltas, but a
//!   shared root path, the serve workload the server is built for.
//!
//! The `speedup_single_delta` section divides the two single-delta
//! curves; the acceptance floor is ≥ 5× at 10⁵ nodes. Usage:
//! `cargo run --release -p replica-serve --bin serve_trajectory
//! [-- OUT.json [--fast]]`. `--fast` caps the ladder at CI-smoke sizes;
//! the committed artifact is a full run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_bench::fat_linear_power_instance;
use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::IncrementalDp;
use replica_serve::{Generator, Preset};
use replica_tree::ClientId;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 9;
const ALPHA1: &str = "energy_proportional(P_s=10, alpha=1)";
const MIX_RATE: u64 = 32;

/// One deterministic single-client delta: a uniform client draw and a
/// volume that is guaranteed to differ from the current one (so every
/// epoch really dirties a root path).
fn next_single_delta(
    rng: &mut StdRng,
    current_of: impl Fn(ClientId) -> u64,
    clients: usize,
) -> (ClientId, u64) {
    let client = ClientId::from_index(rng.random_range(0..clients));
    let mut volume = rng.random_range(0..=9u64);
    if volume == current_of(client) {
        volume = (volume + 1) % 10;
    }
    (client, volume)
}

struct Point {
    nodes: usize,
    ns_per_epoch: f64,
    epochs: usize,
}

fn mean_ns(epochs: usize, mut epoch: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..epochs {
        epoch();
    }
    start.elapsed().as_secs_f64() * 1e9 / epochs as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out = args
        .iter()
        .find(|a| a.as_str() != "--fast")
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".into());

    let sizes: Vec<usize> = if fast {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    // From-scratch epochs are full solves (seconds at 10⁵ nodes); the
    // incremental side is cheap enough to average over many more.
    let incr_epochs = |_n: usize| 64usize;
    let scratch_epochs = |n: usize| match n {
        n if n >= 100_000 => 3usize,
        n if n >= 10_000 => 8,
        _ => 32,
    };

    let mut incremental = Vec::new();
    let mut from_scratch = Vec::new();
    let mut mix = Vec::new();
    let mut speedups = Vec::new();

    for &nodes in &sizes {
        let pre = nodes / 10;
        let clients = fat_linear_power_instance(SEED, nodes, pre)
            .tree()
            .client_count();

        // Incremental: warm tables once, then one delta + resolve per
        // epoch.
        let mut dp = IncrementalDp::new(fat_linear_power_instance(SEED, nodes, pre), f64::INFINITY);
        dp.resolve().expect("feasible");
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1);
        let epochs = incr_epochs(nodes);
        let ns = mean_ns(epochs, || {
            let (client, volume) = {
                let tree = dp.instance().tree();
                next_single_delta(&mut rng, |c| tree.requests(c), clients)
            };
            dp.set_requests(client, volume);
            black_box(dp.resolve().expect("feasible"));
        });
        eprintln!(
            "incremental_single_delta  n={nodes:<8} {:.3} ms/epoch",
            ns / 1e6
        );
        incremental.push(Point {
            nodes,
            ns_per_epoch: ns,
            epochs,
        });

        // From-scratch oracle: identical delta stream, full pruned solve
        // per epoch, persistent scratch.
        let mut instance = fat_linear_power_instance(SEED, nodes, pre);
        let mut scratch = PrunedScratch::default();
        solve_min_power_bounded_cost_in(&instance, f64::INFINITY, &mut scratch).expect("feasible");
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1);
        let epochs = scratch_epochs(nodes);
        let ns = mean_ns(epochs, || {
            let (client, volume) = {
                let tree = instance.tree();
                next_single_delta(&mut rng, |c| tree.requests(c), clients)
            };
            instance.tree_mut().set_requests(client, volume);
            black_box(
                solve_min_power_bounded_cost_in(&instance, f64::INFINITY, &mut scratch)
                    .expect("feasible"),
            );
        });
        eprintln!(
            "from_scratch_single_delta n={nodes:<8} {:.3} ms/epoch",
            ns / 1e6
        );
        from_scratch.push(Point {
            nodes,
            ns_per_epoch: ns,
            epochs,
        });

        let speedup =
            from_scratch.last().unwrap().ns_per_epoch / incremental.last().unwrap().ns_per_epoch;
        eprintln!("                 speedup  n={nodes:<8} {speedup:.1}x");
        speedups.push((nodes, speedup));

        // Subtree-mix bursts through the server's own generator.
        let mut dp = IncrementalDp::new(fat_linear_power_instance(SEED, nodes, pre), f64::INFINITY);
        dp.resolve().expect("feasible");
        let mut generator = Generator::new(
            Preset::SubtreeMix,
            dp.instance().tree(),
            SEED ^ 0xD2,
            MIX_RATE,
        );
        let epochs = incr_epochs(nodes);
        let ns = mean_ns(epochs, || {
            for _ in 0..MIX_RATE {
                let delta = generator
                    .next_delta(dp.instance().tree())
                    .expect("instances have clients");
                dp.set_requests(delta.client, delta.volume);
            }
            black_box(dp.resolve().expect("feasible"));
        });
        eprintln!(
            "incremental_subtree_mix   n={nodes:<8} {:.3} ms/epoch",
            ns / 1e6
        );
        mix.push(Point {
            nodes,
            ns_per_epoch: ns,
            epochs,
        });
    }

    let curve_json = |solver: &str, workload: &str, points: &[Point]| {
        let pts: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "        {{ \"nodes\": {}, \"ns_per_epoch\": {:.0}, \"epochs\": {} }}",
                    p.nodes, p.ns_per_epoch, p.epochs
                )
            })
            .collect();
        format!(
            "    {{\n      \"solver\": \"{}\",\n      \"workload\": \"{}\",\n      \"power\": \"{}\",\n      \"points\": [\n{}\n      ]\n    }}",
            solver,
            workload,
            ALPHA1,
            pts.join(",\n")
        )
    };
    let curves = [
        curve_json(
            "incremental_single_delta",
            "one changed client volume per epoch",
            &incremental,
        ),
        curve_json(
            "from_scratch_single_delta",
            "one changed client volume per epoch",
            &from_scratch,
        ),
        curve_json(
            "incremental_subtree_mix",
            "32-event subtree-local bursts per epoch",
            &mix,
        ),
    ];
    let speedup_json: Vec<String> = speedups
        .iter()
        .map(|(nodes, s)| format!("    {{ \"nodes\": {nodes}, \"speedup\": {s:.1} }}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{}\",\n  \"regime\": {{\n    \"tree\": \"paper_fat\",\n    \"modes\": [5, 10],\n    \"pre_existing\": \"nodes/10 at mode 1\",\n    \"cost\": \"uniform(0.1, 0.01, 0.001)\",\n    \"power\": \"{}\",\n    \"seed\": {}\n  }},\n  \"curves\": [\n{}\n  ],\n  \"speedup_single_delta\": [\n{}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        ALPHA1,
        SEED,
        curves.join(",\n"),
        speedup_json.join(",\n")
    );
    std::fs::write(&out, &json).expect("cannot write the trajectory artifact");
    eprintln!("→ {out}");
}
