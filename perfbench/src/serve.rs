//! The `serve-mix` and `serve-flood` workloads: a closed-loop replay of a
//! generated JSONL delta stream through `replica-serve`.
//!
//! One feeder, one epoch at a time: the epoch's lines go through
//! [`ServeEvent::parse`], its deltas through
//! [`PlacementServer::apply_delta`], and its mark through
//! [`PlacementServer::end_epoch`] and [`render::epoch_line`] in
//! `json-det`; the next epoch is fed only after that line exists. This is
//! the call order of the `placed` binary's session loop, minus its output
//! buffering.
//!
//! The stream is made by [`Generator`] driven against a shadow copy of the
//! tree ([`generate_stream`]); the server sees only the bytes. A run
//! replays a fixed window of the stream in passes, each from a freshly
//! built server, so every run does the same work per epoch however fast
//! the server is: epoch cost drifts as the stream moves demand away from
//! its start, and a time-bounded single replay would reach further into
//! that drift the faster the code got.

use crate::{
    fnv_line, peak_rss_mb, seeded_demand, stats, trace::Tracer, Run, FNV_OFFSET, PEAK_RSS_AFTER,
    TOPOLOGY_SEED,
};
use replica_bench::fat_linear_power_instance;
use replica_core::dp_power_pruned::solve_min_power_bounded_cost;
use replica_engine::output::OutputFormat;
use replica_model::{Instance, Placement};
use replica_serve::{
    render, EpochReport, Generator, PlacementDiff, PlacementServer, Preset, ServeConfig,
    ServeEvent, SolverKind,
};
use replica_tree::{ClientId, FlatTree, NodeId};
use std::time::{Duration, Instant};

/// One serve workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Generator preset.
    pub preset: Preset,
    /// Deltas per epoch.
    pub rate: u64,
    /// Internal nodes of the α = 1 fat tree.
    pub nodes: usize,
    /// Epochs of stream applied to the start demand before the replayed
    /// window, so the window starts past the stream's opening transient.
    pub burn_in: usize,
    /// Epochs in the replayed window.
    pub window: usize,
}

/// `serve-mix`: subtree-local bursts of 32 deltas, tens of positions
/// recomputed per epoch, so fixed per-epoch costs dominate.
pub const MIX: Shape = Shape {
    preset: Preset::SubtreeMix,
    rate: 32,
    nodes: 100_000,
    burn_in: 32,
    window: 40,
};

/// `serve-flood`: 4096 quiet-churn deltas per epoch, thousands of
/// positions recomputed and thousands of diff entries per epoch.
pub const FLOOD: Shape = Shape {
    preset: Preset::QuietChurn,
    rate: 4096,
    nodes: 100_000,
    burn_in: 32,
    window: 40,
};

/// Epochs a run replays at least, whatever its time budget: the
/// percentile rule reports a p95 from 200 samples on. With a 40-epoch
/// window this is also five passes, hence five setups.
const MIN_EPOCHS: usize = 200;

/// Decorrelates the demand stream from the instance draw (as `placed`).
const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A generated delta stream: the burn-in deltas, then per window epoch its
/// JSONL bytes (deltas, then the epoch mark) and the `(client, volume)`
/// pairs they encode.
pub struct Stream {
    /// Deltas applied to the start demand during setup.
    pub burn_in: Vec<(u32, u32)>,
    /// JSONL text of each window epoch.
    pub epochs: Vec<String>,
    /// The deltas of each window epoch, as generated.
    pub deltas: Vec<Vec<(u32, u32)>>,
}

/// The workload's base instance for `seed`: the fixed α = 1 fat tree with
/// seed-drawn demand, before burn-in.
pub fn instance(shape: &Shape, seed: u64) -> Instance {
    let fixed = fat_linear_power_instance(TOPOLOGY_SEED, shape.nodes, shape.nodes / 10);
    seeded_demand(fixed, seed)
}

/// Sets each `(client, volume)` pair on `instance`'s tree, in order.
fn apply(instance: &mut Instance, deltas: &[(u32, u32)]) {
    let tree = instance.tree_mut();
    for &(client, volume) in deltas {
        tree.set_requests(ClientId::from_index(client as usize), u64::from(volume));
    }
}

/// Generates `shape`'s stream for `seed` against a shadow copy of the
/// base instance's tree. The same seed gives the same bytes.
pub fn generate_stream(shape: &Shape, seed: u64) -> Stream {
    let mut shadow = instance(shape, seed).tree().clone();
    let mut generator = Generator::new(shape.preset, &shadow, seed ^ STREAM_SALT, shape.rate);
    let mut next = || {
        let delta = generator
            .next_delta(&shadow)
            .expect("the workload trees have clients");
        shadow.set_requests(delta.client, delta.volume);
        let client = u32::try_from(delta.client.index()).expect("client index fits u32");
        let volume = u32::try_from(delta.volume).expect("generated volumes are small");
        (client, volume)
    };
    let burn_in = (0..shape.burn_in as u64 * shape.rate)
        .map(|_| next())
        .collect();
    let epoch_mark = ServeEvent::Epoch.to_json_line();
    let mut epochs = Vec::with_capacity(shape.window);
    let mut deltas = Vec::with_capacity(shape.window);
    for _ in 0..shape.window {
        let epoch: Vec<(u32, u32)> = (0..shape.rate).map(|_| next()).collect();
        let mut text = String::new();
        for &(client, volume) in &epoch {
            let event = ServeEvent::Delta {
                client: ClientId::from_index(client as usize),
                volume: u64::from(volume),
            };
            text.push_str(&event.to_json_line());
            text.push('\n');
        }
        text.push_str(&epoch_mark);
        text.push('\n');
        epochs.push(text);
        deltas.push(epoch);
    }
    Stream {
        burn_in,
        epochs,
        deltas,
    }
}

/// What one epoch reported, kept for the checks and the layer figures
/// once its report and rendered line are gone.
struct EpochStats {
    /// Whether the exact incremental solver answered.
    exact: bool,
    events: u64,
    changed: u64,
    dirty: usize,
    recomputed: usize,
    latency_ms: f64,
    /// Adds + removals + remodes of the epoch's diff.
    diff_ops: usize,
    /// Bytes of the rendered line, its newline included.
    bytes: usize,
}

/// What one pass over the window produced, folded as the pass runs: no
/// epoch report or rendered line outlives its epoch, so the benchmark's
/// own memory does not grow with the number of passes.
struct Pass {
    epochs: Vec<EpochStats>,
    epoch_ms: Vec<f64>,
    deltas: u64,
    /// Summed time of the pass's epochs, from feeding the first line to
    /// the rendered diff line (the per-epoch bookkeeping below excluded).
    wall: Duration,
    /// FNV-1a digest of the pass's `json-det` diff lines.
    digest: u64,
    /// Whether the pass's diffs, epoch 0 included, replay to the
    /// server's final placement.
    replays: bool,
    /// The server's cost and power after the last epoch.
    cost: f64,
    power: f64,
    /// The server's `node_count()`.
    nodes: usize,
}

/// Applies `diff` to `placement`.
fn replay_diff(placement: &mut Placement, diff: &PlacementDiff) {
    for &(node, mode) in &diff.adds {
        placement.insert(NodeId::from_index(node), mode);
    }
    for &node in &diff.removals {
        placement.remove(NodeId::from_index(node));
    }
    for &(node, _, to) in &diff.remodes {
        placement.insert(NodeId::from_index(node), to);
    }
}

/// Feeds every window epoch of `stream` to `server`. Span ids number the
/// epochs of all passes consecutively from 1.
fn replay(
    server: &mut PlacementServer,
    first: EpochReport,
    stream: &Stream,
    pass: usize,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let clients = server.tree().client_count();
    let mut placement = Placement::with_slots(server.current().0.slots());
    replay_diff(&mut placement, &first.diff);
    let mut out = Pass {
        epochs: Vec::with_capacity(stream.epochs.len()),
        epoch_ms: Vec::with_capacity(stream.epochs.len()),
        deltas: 0,
        wall: Duration::ZERO,
        digest: FNV_OFFSET,
        replays: false,
        cost: 0.0,
        power: 0.0,
        nodes: server.node_count(),
    };
    let mut events = Vec::with_capacity(stream.deltas.first().map_or(0, Vec::len) + 1);
    for (epoch, text) in stream.epochs.iter().enumerate() {
        let op = (pass * stream.epochs.len() + epoch) as u64 + 1;
        let fed = Instant::now();
        events.clear();
        let parse = tracer.begin("wire.parse", op);
        for (idx, line) in text.lines().enumerate() {
            events.push(ServeEvent::parse(line, idx + 1)?);
        }
        tracer.end_calls(parse, events.len() as u64);

        let Some((ServeEvent::Epoch, deltas)) = events.split_last() else {
            return Err(format!(
                "epoch {op}: stream does not end with an epoch mark"
            ));
        };
        let apply = tracer.begin("server.apply", op);
        for event in deltas {
            let ServeEvent::Delta { client, volume } = *event else {
                return Err(format!("epoch {op}: unexpected {event:?} before the mark"));
            };
            if client.index() >= clients {
                return Err(format!(
                    "epoch {op}: client {} out of range",
                    client.index()
                ));
            }
            server.apply_delta(client, volume);
        }
        tracer.end_calls(apply, deltas.len() as u64);
        out.deltas += deltas.len() as u64;

        let mark = Instant::now();
        let span = tracer.begin("serve.epoch", op);
        let end = tracer.begin("server.end_epoch", op);
        let report = server.end_epoch().map_err(|e| format!("epoch {op}: {e}"))?;
        tracer.end(end);
        let render = tracer.begin("render.epoch_line", op);
        let line = render::epoch_line(&report, OutputFormat::JsonDeterministic);
        tracer.end(render);
        tracer.end(span);
        let done = Instant::now();
        out.epoch_ms.push((done - mark).as_secs_f64() * 1e3);
        out.wall += done - fed;

        out.digest = fnv_line(out.digest, &line);
        replay_diff(&mut placement, &report.diff);
        let diff = &report.diff;
        out.epochs.push(EpochStats {
            exact: report.solver == SolverKind::Incremental,
            events: report.events,
            changed: report.changed,
            dirty: report.dirty,
            recomputed: report.recomputed,
            latency_ms: report.latency_ms,
            diff_ops: diff.adds.len() + diff.removals.len() + diff.remodes.len(),
            bytes: line.len() + 1,
        });
    }
    let (current, cost, power) = server.current();
    out.replays = placement == *current;
    (out.cost, out.power) = (cost, power);
    Ok(out)
}

/// Builds the instance (base demand plus burn-in) and the server, whose
/// construction solves epoch 0. Returns the setup time in seconds.
fn set_up(
    shape: &Shape,
    seed: u64,
    stream: &Stream,
    pass: u64,
    tracer: &mut Tracer,
) -> Result<(PlacementServer, EpochReport, f64), String> {
    let start = Instant::now();
    let instance = tracer.time("tree.generate", pass, || {
        let mut instance = instance(shape, seed);
        apply(&mut instance, &stream.burn_in);
        instance
    });
    let (server, first) = tracer
        .time("server.new", pass, || {
            PlacementServer::new(instance, ServeConfig::default())
        })
        .map_err(|e| format!("initial solve: {e}"))?;
    Ok((server, first, start.elapsed().as_secs_f64()))
}

/// Runs one serve workload for at least `seconds` (and at least
/// [`MIN_EPOCHS`] epochs, in whole passes) and checks its outputs.
pub fn run(shape: &Shape, seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Run, String> {
    // Inputs, before any timing.
    let stream = generate_stream(shape, seed);

    let mut run = Run::default();
    let mut passes: Vec<Pass> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while passes.len() * shape.window < MIN_EPOCHS
        || passes.len() < PEAK_RSS_AFTER
        || start.elapsed() < budget
    {
        let (mut server, first, secs) = set_up(shape, seed, &stream, passes.len() as u64, tracer)?;
        run.setup_s.push(secs);
        if passes.is_empty() && tracer.is_on() {
            let _layout = tracer.time("layout.build", 0, || FlatTree::new(server.tree()));
        }
        passes.push(replay(&mut server, first, &stream, passes.len(), tracer)?);
        if passes.len() == PEAK_RSS_AFTER {
            run.peak_rss_mb = peak_rss_mb();
        }
    }
    for pass in &passes {
        run.attempted += pass.epochs.len() as u64;
        run.op_ms.extend(&pass.epoch_ms);
        run.work += pass.deltas;
        run.wall += pass.wall;
    }

    check(shape, seed, &stream, &passes, &mut run)?;
    describe(&passes, &mut run);
    if tracer.is_on() {
        layers(&passes, tracer, &mut run);
    }
    Ok(run)
}

/// The correctness gate. A pass's diff replay is compared with the
/// server after that pass's last timed epoch; the rest runs after all
/// timing. An epoch fails when another solver than the exact incremental
/// DP answered it or its delta count is off; a pass fails wholesale when
/// its diff stream differs from the first pass's, does not replay to its
/// final placement, or ends on another cost or power than a fresh exact
/// solve of the final demand.
fn check(
    shape: &Shape,
    seed: u64,
    stream: &Stream,
    passes: &[Pass],
    run: &mut Run,
) -> Result<(), String> {
    let mut fresh = instance(shape, seed);
    apply(&mut fresh, &stream.burn_in);
    for deltas in &stream.deltas {
        apply(&mut fresh, deltas);
    }
    let (_, want_cost, want_power) = solve_min_power_bounded_cost(&fresh, f64::INFINITY)
        .map_err(|e| format!("fresh solve: {e}"))?;
    let digest = passes[0].digest;
    run.note(
        "diff_stream_fnv",
        digest as f64,
        "hash",
        &format!("{digest:016x} per pass of {} epochs", shape.window),
    );

    for (index, pass) in passes.iter().enumerate() {
        let mut wrong = pass
            .epochs
            .iter()
            .zip(&stream.deltas)
            .filter(|(epoch, deltas)| !epoch.exact || epoch.events != deltas.len() as u64)
            .count() as u64;
        if wrong > 0 {
            run.mismatch(format!(
                "pass {index}: {wrong} epochs answered inexactly or miscounted deltas"
            ));
        }
        let mut fail = |run: &mut Run, message: String| {
            run.mismatch(format!("pass {index}: {message}"));
            wrong = pass.epochs.len() as u64;
        };
        if pass.digest != digest {
            fail(
                run,
                "the json-det diff stream differs from the first pass's".into(),
            );
        }
        if !pass.replays {
            fail(
                run,
                "the diff stream does not replay to the server's placement".into(),
            );
        }
        let (cost, power) = (pass.cost, pass.power);
        if (cost.to_bits(), power.to_bits()) != (want_cost.to_bits(), want_power.to_bits()) {
            fail(
                run,
                format!("final epoch ({cost}, {power}) differs from a fresh solve ({want_cost}, {want_power})"),
            );
        }
        run.failed += wrong;
    }
    Ok(())
}

/// The issue's epoch percentiles, with their sample count, in the report.
fn describe(passes: &[Pass], run: &mut Run) {
    let n = run.op_ms.len();
    let count = format!("n={n} epochs in {} passes", passes.len());
    if let Some(p50) = stats::percentile(&run.op_ms, 0.5) {
        run.note("epoch_p50_ms", p50, "ms", &count);
    }
    match stats::percentile(&run.op_ms, 0.95) {
        Some(p95) => run.note("epoch_p95_ms", p95, "ms", &count),
        None => run
            .notes
            .push(format!("epoch_p95_ms - ms  not reported: {n} < 200 epochs")),
    }
}

/// Per-layer values from the traced passes.
fn layers(passes: &[Pass], tracer: &Tracer, run: &mut Run) {
    let spans = tracer.spans();
    let totals = crate::trace::layer_totals(spans);
    let per_call = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.calls.max(1) as f64)
    };
    let median = |values: Vec<f64>| stats::median(&values).unwrap_or(0.0);
    let ms = |name| crate::trace::durations_ms(spans, name);
    let epochs: Vec<&EpochStats> = passes.iter().flat_map(|p| &p.epochs).collect();
    let over = |f: fn(&EpochStats) -> f64| median(epochs.iter().map(|e| f(e)).collect());
    let nodes = passes[0].nodes.max(1) as f64;
    let ingested: u64 = epochs.iter().map(|e| e.events).sum();
    let changed: u64 = epochs.iter().map(|e| e.changed).sum();
    let bytes: usize = epochs.iter().map(|e| e.bytes).sum();
    let recomputed_p50 = over(|e| e.recomputed as f64);
    let diff_ms = ms("server.end_epoch")
        .iter()
        .zip(&epochs)
        .map(|(wall, e)| wall - e.latency_ms)
        .collect();
    let render_us = ms("render.epoch_line")
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect();

    let l = &mut run.layers;
    l.insert("wire.parse_ns_per_line", per_call("wire.parse"));
    l.insert("server.apply_ns_per_delta", per_call("server.apply"));
    l.insert(
        "server.changed_ratio",
        changed as f64 / ingested.max(1) as f64,
    );
    l.insert("incremental.resolve_ms_p50", over(|e| e.latency_ms));
    l.insert("incremental.dirty_p50", over(|e| e.dirty as f64));
    l.insert("incremental.recomputed_p50", recomputed_p50);
    l.insert("incremental.recomputed_share", recomputed_p50 / nodes);
    l.insert("server.diff_ms_p50", median(diff_ms));
    l.insert("server.diff_ops_p50", over(|e| e.diff_ops as f64));
    l.insert("render.line_us_p50", median(render_us));
    l.insert(
        "render.bytes_per_epoch",
        bytes as f64 / epochs.len().max(1) as f64,
    );
    l.insert("server.new_ms", median(ms("server.new")));
    l.insert("tree.generate_ms", median(ms("tree.generate")));
    l.insert("layout.build_ms", median(ms("layout.build")));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        preset: Preset::SubtreeMix,
        rate: 16,
        nodes: 300,
        burn_in: 2,
        window: 6,
    };

    #[test]
    fn streams_are_deterministic_per_seed() {
        for preset in [Preset::SubtreeMix, Preset::QuietChurn] {
            let shape = Shape { preset, ..SMALL };
            let a = generate_stream(&shape, 5);
            let b = generate_stream(&shape, 5);
            let c = generate_stream(&shape, 6);
            assert_eq!(a.epochs, b.epochs, "{preset:?}");
            assert_eq!(a.deltas, b.deltas, "{preset:?}");
            assert_eq!(a.burn_in, b.burn_in, "{preset:?}");
            assert_ne!(a.epochs, c.epochs, "{preset:?} must depend on the seed");
            assert_eq!(a.burn_in.len(), 32);
            assert_eq!(a.epochs.len(), 6);
            assert!(a.epochs.iter().all(|e| e.lines().count() == 17));
        }
    }

    #[test]
    fn a_small_replay_passes_its_own_checks() {
        let mut tracer = Tracer::new(true);
        let run = run(&SMALL, 3, 0, &mut tracer).expect("replay runs");
        assert!(run.mismatches.is_empty(), "{:?}", run.mismatches);
        assert_eq!(run.failed, 0);
        // Whole passes up to the 200-epoch floor: 34 passes of 6.
        assert_eq!(run.attempted, 204);
        assert_eq!(run.setup_s.len(), 34);
        assert!(run.layers["wire.parse_ns_per_line"] > 0.0);
        assert_eq!(
            run.layers["server.changed_ratio"].clamp(0.0, 1.0),
            run.layers["server.changed_ratio"]
        );
    }
}
