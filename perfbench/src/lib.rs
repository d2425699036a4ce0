//! # `perfbench` — the repository's end-to-end and per-layer benchmark
//!
//! One command runs one workload in its own process:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-flood --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The four workloads ([`WORKLOADS`]) drive `replica-serve` epochs
//! ([`serve`]), exact `dp_power` solves ([`solve`]) and sharded fleet
//! runs ([`fleet`]) through the crates' public functions; nothing is
//! added inside those crates. Inputs are generated from the seed before
//! timing starts, outputs are checked after it ends, and the last line
//! of standard output is one JSON object ([`result_line`]).
//!
//! With `--trace 0` the run is untraced and reports the
//! [`END_TO_END`] metrics. With `--trace 1` the workload runs twice, once
//! untraced and once with every layer call wrapped in a [`trace`] span,
//! and reports the [`PER_LAYER`] metrics plus the tracing overhead.
//! `README.md` next to this crate maps every metric to its layer and to
//! the end-to-end metric it should move.

pub mod fleet;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Seed of the fixed base instance (tree, pre-existing servers, demand)
/// the serve and solve workloads start from — the instance seed of the
/// repository's solver and serve trajectories.
///
/// Solve and epoch times follow the exact frontier sizes, which follow
/// the tree and its demand, so a wholly seed-drawn instance would make
/// run-to-run spread measure instance shapes rather than code. `--seed`
/// instead redraws a [`PERTURBED`] share of the demand (and, for serve,
/// drives the whole delta stream).
pub const TOPOLOGY_SEED: u64 = 9;

/// Share of clients whose demand `--seed` redraws.
pub const PERTURBED: f64 = 0.01;

/// Inclusive per-client request range of redrawn demand (the paper's
/// fat-tree range).
pub const REQUESTS: (u64, u64) = (1, 6);

/// `instance` with a [`PERTURBED`] share of its clients' demand redrawn
/// from `seed`.
pub fn seeded_demand(mut instance: replica_model::Instance, seed: u64) -> replica_model::Instance {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tree = instance.tree_mut();
    for client in tree.client_ids().collect::<Vec<_>>() {
        if rng.random_bool(PERTURBED) {
            tree.set_requests(client, rng.random_range(REQUESTS.0..=REQUESTS.1));
        }
    }
    instance
}

/// Workload names, in documentation order.
pub const WORKLOADS: [&str; 4] = ["serve-mix", "serve-flood", "solve-a3", "fleet"];

/// End-to-end metrics `(name, unit)`, reported by every workload.
///
/// `op_p50_ms` is the median of the workload's unit of user-visible work
/// (a serve epoch, one exact solve, one whole fleet run) and
/// `throughput_per_s` its work rate (deltas ingested, solves, cells).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`. A workload that never calls a layer
/// reports 0 for it.
///
/// `op_p95_ms` is the one end-to-end figure among them: the p95 of the
/// untraced run's operation times, which the percentile rule
/// ([`stats::percentile`]) allows only from 200 operations on — the serve
/// workloads; it cannot sit with the end-to-end metrics, which every
/// workload must report.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("op_p95_ms", "ms"),
    ("wire.parse_ns_per_line", "ns"),
    ("server.apply_ns_per_delta", "ns"),
    ("server.changed_ratio", "ratio"),
    ("incremental.resolve_ms_p50", "ms"),
    ("incremental.dirty_p50", "count"),
    ("incremental.recomputed_p50", "count"),
    ("incremental.recomputed_share", "ratio"),
    ("server.diff_ms_p50", "ms"),
    ("server.diff_ops_p50", "count"),
    ("render.line_us_p50", "us"),
    ("render.bytes_per_epoch", "bytes"),
    ("server.new_ms", "ms"),
    ("tree.generate_ms", "ms"),
    ("layout.build_ms", "ms"),
    ("pruned.forward_ms", "ms"),
    ("pruned.reconstruct_ms", "ms"),
    ("pruned.reconstruct_share", "ratio"),
    ("pruned.table_entries", "count"),
    ("pruned.root_candidates", "count"),
    ("pruned.front_len", "count"),
    ("registry.overhead_ms", "ms"),
    ("fleetd.plan_ms", "ms"),
    ("jobspace.job_us", "us"),
    ("fleetd.shard_ms", "ms"),
    ("registry.greedy.cell_ms_p50", "ms"),
    ("registry.greedy_power.cell_ms_p50", "ms"),
    ("registry.dp_power.cell_ms_p50", "ms"),
    ("registry.heur_power_greedy.cell_ms_p50", "ms"),
    ("fleetd.merge_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (epochs, solves or cells).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Correctness-check failures, one message each.
    pub mismatches: Vec<String>,
    /// Setup time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Duration of each timed operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Work units done in the timed window (deltas, solves, cells).
    pub work: u64,
    /// Summed wall time of the operations that did `work`; the
    /// benchmark's own set-ups and bookkeeping between them do not count.
    pub wall: Duration,
    /// Peak resident set size after the workload's first
    /// [`PEAK_RSS_AFTER`] operations (serve: passes), MiB
    /// ([`peak_rss_mb`]).
    pub peak_rss_mb: f64,
    /// Per-layer values this workload produced (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific report lines (`name value unit  note`).
    pub notes: Vec<String>,
}

impl Run {
    /// Records a failed correctness check.
    pub fn mismatch(&mut self, message: impl Into<String>) {
        self.mismatches.push(message.into());
    }

    /// Adds a workload-specific report line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.notes.push(format!("{name} {value} {unit}  {detail}"));
    }

    /// The end-to-end values, in [`END_TO_END`] order. Throughput is total
    /// work over the total wall time of the timed window.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            stats::median(&self.setup_s).unwrap_or(0.0),
            stats::median(&self.op_ms).unwrap_or(0.0),
            self.work as f64 / self.wall.as_secs_f64().max(1e-9),
            self.peak_rss_mb,
        ]
    }
}

/// Operations after which every workload reads its peak RSS, and which it
/// therefore always runs. A fixed amount of work: repeated exact solves of
/// one instance keep raising the process's high-water mark, so a
/// high-water mark read at the end of the run would grow with how many
/// operations a faster program fits into it.
pub const PEAK_RSS_AFTER: usize = 5;

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a offset basis: the digest of no lines.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a digest `hash` by `line` and a terminating `\n`, so
/// a stream of lines can be digested as it is produced.
pub fn fnv_line(hash: u64, line: &str) -> u64 {
    line.bytes()
        .chain(std::iter::once(b'\n'))
        .fold(hash, |hash, byte| {
            (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The result object the benchmark prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("epoch p50"));
        assert!(!valid_metric_name("a/b"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
                .collect()
        };
        let listed = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_in("end_to_end"), listed(&END_TO_END));
        assert_eq!(names_in("per_layer"), listed(&PER_LAYER));
        // `serve-mix` runs on request but is not in the guarded set.
        let guarded = names_in("workloads");
        assert_eq!(guarded, ["serve-flood", "solve-a3", "fleet"]);
        assert!(guarded.iter().all(|w| WORKLOADS.contains(&w.as_str())));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(
            true,
            3,
            0,
            &[("op_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn fnv_depends_on_line_boundaries() {
        let digest = |lines: &[&str]| lines.iter().fold(FNV_OFFSET, |h, l| fnv_line(h, l));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["x"]), digest(&["x"]));
        assert_ne!(digest(&["x"]), FNV_OFFSET);
    }
}
