//! Worker heartbeats: tiny progress files written next to each
//! [`ShardReport`](crate::ShardReport), and the status summary the
//! coordinator (and `fleetd status`) renders from them.
//!
//! A worker writes `shard-K.hb.json` beside its `--out` file: shard
//! index, pid, lifecycle [`WorkerState`], jobs/cells done and a
//! wall-clock `updated_unix_ms` stamp. Writes are atomic
//! (temp-file-then-rename), so a reader never observes a torn JSON
//! document; writes are also *advisory* — an unwritable heartbeat never
//! fails the shard (the report is the product, the heartbeat is
//! telemetry).
//!
//! Progress flows in through [`HeartbeatSink`], an
//! [`replica_obs::Sink`] that reacts to the engine's per-batch
//! [`Event::Progress`] stream — the worker needs no second
//! instrumentation seam. Liveness is judged by the *reader*:
//! [`summarize`] classifies each heartbeat as live / stale / done /
//! failed from its age against a staleness threshold, as a pure
//! function of `(heartbeats, now, stale_ms)` so the classification is
//! unit-testable without clocks or files.

use crate::error::FleetdError;
use replica_engine::output::OutputFormat;
use replica_obs::{Event, Sink};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The heartbeat file suffix: `shard-K.json` → `shard-K.hb.json`.
pub const HEARTBEAT_SUFFIX: &str = ".hb.json";

/// Lifecycle state a worker advertises in its heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerState {
    /// The worker is solving its shard.
    Running,
    /// The shard report was written successfully.
    Done,
    /// The worker hit an error; its stderr has the story.
    Failed,
}

/// One worker's progress file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Shard index within the plan.
    pub shard: usize,
    /// Attempt generation of the worker writing this heartbeat (0 =
    /// first launch; defaults on deserialization so pre-fencing
    /// heartbeats stay readable).
    #[serde(default)]
    pub attempt: usize,
    /// OS process id of the worker (0 for in-process shards).
    pub pid: u32,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Jobs of the shard range completed so far.
    pub jobs_done: usize,
    /// Total jobs in the shard range.
    pub jobs_total: usize,
    /// Cells (jobs × solvers) completed so far.
    pub cells_done: usize,
    /// Wall-clock stamp of the last update (Unix epoch, milliseconds).
    pub updated_unix_ms: u64,
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Heartbeat {
    /// A fresh `Running` heartbeat for shard `shard` of `jobs_total`
    /// jobs, stamped now.
    pub fn starting(shard: usize, jobs_total: usize) -> Heartbeat {
        Heartbeat::starting_attempt(shard, 0, jobs_total)
    }

    /// [`Heartbeat::starting`] for a specific attempt generation.
    pub fn starting_attempt(shard: usize, attempt: usize, jobs_total: usize) -> Heartbeat {
        Heartbeat {
            shard,
            attempt,
            pid: std::process::id(),
            state: WorkerState::Running,
            jobs_done: 0,
            jobs_total,
            cells_done: 0,
            updated_unix_ms: now_unix_ms(),
        }
    }

    /// Writes the heartbeat atomically: serialize to `path` + `.tmp`,
    /// then rename over `path` — a concurrent reader sees either the
    /// previous heartbeat or this one, never a torn file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, path)
    }

    /// Loads a heartbeat file.
    pub fn load(path: &Path) -> Result<Heartbeat, FleetdError> {
        crate::coordinator::read_json(path)
    }

    /// The heartbeat's age at `now_ms` (clock skew clamps to 0).
    pub fn age_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.updated_unix_ms)
    }

    /// Classifies this heartbeat at `now_ms`: terminal states are
    /// immune to staleness; a `Running` heartbeat older than `stale_ms`
    /// is stale (worker hung, killed, or host unreachable).
    pub fn status(&self, now_ms: u64, stale_ms: u64) -> ShardStatus {
        match self.state {
            WorkerState::Done => ShardStatus::Done,
            WorkerState::Failed => ShardStatus::Failed,
            WorkerState::Running if self.age_ms(now_ms) > stale_ms => ShardStatus::Stale,
            WorkerState::Running => ShardStatus::Live,
        }
    }
}

/// The heartbeat path for a shard report path: `shard-K.json` →
/// `shard-K.hb.json` (same directory; the heartbeat travels with the
/// report).
pub fn path_for_report(report: &Path) -> PathBuf {
    report.with_extension("hb.json")
}

/// Stamps the heartbeat at `path` as [`WorkerState::Failed`] — the
/// coordinator's post-mortem mark after it kills a stale worker or
/// reaps a crashed one that died too abruptly to stamp itself. Missing
/// or unreadable heartbeats are stamped from scratch so `fleetd status`
/// still counts the failure. Best-effort like all heartbeat I/O.
pub fn stamp_failed(path: &Path, shard: usize, attempt: usize) {
    let mut hb = Heartbeat::load(path).unwrap_or_else(|_| {
        let mut hb = Heartbeat::starting_attempt(shard, attempt, 0);
        hb.pid = 0;
        hb
    });
    hb.state = WorkerState::Failed;
    hb.updated_unix_ms = now_unix_ms();
    let _ = hb.write(path);
}

/// Loads every heartbeat (`*.hb.json`) in `dir`, sorted by shard index.
pub fn load_dir(dir: &Path) -> Result<Vec<Heartbeat>, FleetdError> {
    let entries = fs::read_dir(dir).map_err(|e| FleetdError::Io {
        path: dir.display().to_string(),
        message: format!("cannot read directory: {e}"),
    })?;
    let mut heartbeats = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| FleetdError::Io {
            path: dir.display().to_string(),
            message: format!("cannot read directory entry: {e}"),
        })?;
        let path = entry.path();
        let is_heartbeat = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(HEARTBEAT_SUFFIX));
        if is_heartbeat {
            heartbeats.push(Heartbeat::load(&path)?);
        }
    }
    heartbeats.sort_by_key(|hb| hb.shard);
    Ok(heartbeats)
}

/// Reader-side classification of one heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// Running and recently updated.
    Live,
    /// Running but not updated within the staleness threshold.
    Stale,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
}

impl ShardStatus {
    /// Lower-case label (`live` / `stale` / `done` / `failed`).
    pub fn label(self) -> &'static str {
        match self {
            ShardStatus::Live => "live",
            ShardStatus::Stale => "stale",
            ShardStatus::Done => "done",
            ShardStatus::Failed => "failed",
        }
    }
}

/// Fleet-wide progress summary over a set of heartbeats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusSummary {
    /// Shards running and fresh.
    pub live: usize,
    /// Shards running but past the staleness threshold.
    pub stale: usize,
    /// Shards finished successfully.
    pub done: usize,
    /// Shards finished with an error.
    pub failed: usize,
    /// Jobs completed across all shards.
    pub jobs_done: usize,
    /// Jobs planned across all shards.
    pub jobs_total: usize,
}

/// Summarizes `heartbeats` as seen at `now_ms` with staleness threshold
/// `stale_ms` — a pure function, so liveness logic is testable without
/// clocks.
pub fn summarize(heartbeats: &[Heartbeat], now_ms: u64, stale_ms: u64) -> StatusSummary {
    let mut summary = StatusSummary::default();
    for hb in heartbeats {
        match hb.status(now_ms, stale_ms) {
            ShardStatus::Live => summary.live += 1,
            ShardStatus::Stale => summary.stale += 1,
            ShardStatus::Done => summary.done += 1,
            ShardStatus::Failed => summary.failed += 1,
        }
        summary.jobs_done += hb.jobs_done;
        summary.jobs_total += hb.jobs_total;
    }
    summary
}

impl StatusSummary {
    /// One-line rendering, the coordinator's live ticker:
    /// `3 live, 0 stale, 1 done, 0 failed — jobs 37/96`.
    pub fn line(&self) -> String {
        format!(
            "{} live, {} stale, {} done, {} failed — jobs {}/{}",
            self.live, self.stale, self.done, self.failed, self.jobs_done, self.jobs_total
        )
    }
}

/// The `fleetd status` rendering: one row per shard, summary line last.
pub fn render_status(heartbeats: &[Heartbeat], now_ms: u64, stale_ms: u64) -> String {
    let mut out = String::from("shard  att  state   jobs         cells   age_ms  pid\n");
    for hb in heartbeats {
        let _ = writeln!(
            out,
            "{:<5}  {:<3}  {:<6}  {:>5}/{:<5}  {:>6}  {:>6}  {}",
            hb.shard,
            hb.attempt,
            hb.status(now_ms, stale_ms).label(),
            hb.jobs_done,
            hb.jobs_total,
            hb.cells_done,
            hb.age_ms(now_ms),
            hb.pid,
        );
    }
    let _ = writeln!(out, "{}", summarize(heartbeats, now_ms, stale_ms).line());
    out
}

/// [`render_status`] in any [`OutputFormat`]. The deterministic
/// variants drop the per-row wall-clock age and pid — the columns that
/// differ between two observations of the same fleet state — so a
/// `table-det`/`json-det` status can be diffed across reruns.
pub fn render_status_as(
    heartbeats: &[Heartbeat],
    now_ms: u64,
    stale_ms: u64,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Table => render_status(heartbeats, now_ms, stale_ms),
        OutputFormat::TableDeterministic => {
            let mut out = String::from("shard  att  state   jobs         cells\n");
            for hb in heartbeats {
                let _ = writeln!(
                    out,
                    "{:<5}  {:<3}  {:<6}  {:>5}/{:<5}  {:>6}",
                    hb.shard,
                    hb.attempt,
                    hb.status(now_ms, stale_ms).label(),
                    hb.jobs_done,
                    hb.jobs_total,
                    hb.cells_done,
                );
            }
            let _ = writeln!(out, "{}", summarize(heartbeats, now_ms, stale_ms).line());
            out
        }
        OutputFormat::Csv => {
            let mut out =
                String::from("shard,attempt,state,jobs_done,jobs_total,cells_done,age_ms,pid\n");
            for hb in heartbeats {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    hb.shard,
                    hb.attempt,
                    hb.status(now_ms, stale_ms).label(),
                    hb.jobs_done,
                    hb.jobs_total,
                    hb.cells_done,
                    hb.age_ms(now_ms),
                    hb.pid,
                );
            }
            out
        }
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            let timing = format == OutputFormat::Json;
            format!("{}\n", status_json(heartbeats, now_ms, stale_ms, timing))
        }
    }
}

/// The JSON status document: one object per shard plus the fleet-wide
/// summary. `timing` gates the wall-clock fields (`age_ms`, `pid`).
fn status_json(heartbeats: &[Heartbeat], now_ms: u64, stale_ms: u64, timing: bool) -> String {
    let int = |n: usize| Value::Int(n as i128);
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let shards: Vec<Value> = heartbeats
        .iter()
        .map(|hb| {
            let mut fields = vec![
                ("shard", int(hb.shard)),
                ("attempt", int(hb.attempt)),
                (
                    "state",
                    Value::Str(hb.status(now_ms, stale_ms).label().into()),
                ),
                ("jobs_done", int(hb.jobs_done)),
                ("jobs_total", int(hb.jobs_total)),
                ("cells_done", int(hb.cells_done)),
            ];
            if timing {
                fields.push(("age_ms", Value::Int(hb.age_ms(now_ms) as i128)));
                fields.push(("pid", Value::Int(hb.pid as i128)));
            }
            object(fields)
        })
        .collect();
    let summary = summarize(heartbeats, now_ms, stale_ms);
    let doc = object(vec![
        ("shards", Value::Array(shards)),
        (
            "summary",
            object(vec![
                ("live", int(summary.live)),
                ("stale", int(summary.stale)),
                ("done", int(summary.done)),
                ("failed", int(summary.failed)),
                ("jobs_done", int(summary.jobs_done)),
                ("jobs_total", int(summary.jobs_total)),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

/// An [`replica_obs::Sink`] that folds the engine's per-batch
/// [`Event::Progress`] stream into the shard's heartbeat file. All
/// other events pass through untouched (fan this sink out next to a
/// JSONL trace sink to get both).
pub struct HeartbeatSink {
    path: PathBuf,
    cells_per_job: usize,
    state: Mutex<Heartbeat>,
    frozen: std::sync::atomic::AtomicBool,
}

impl HeartbeatSink {
    /// Creates the sink and writes the initial `Running` heartbeat
    /// (best-effort: heartbeat I/O failures never fail the shard).
    pub fn new(path: PathBuf, shard: usize, jobs_total: usize, cells_per_job: usize) -> Self {
        HeartbeatSink::for_attempt(path, shard, 0, jobs_total, cells_per_job)
    }

    /// [`HeartbeatSink::new`] for a specific attempt generation.
    pub fn for_attempt(
        path: PathBuf,
        shard: usize,
        attempt: usize,
        jobs_total: usize,
        cells_per_job: usize,
    ) -> Self {
        let heartbeat = Heartbeat::starting_attempt(shard, attempt, jobs_total);
        let _ = heartbeat.write(&path);
        HeartbeatSink {
            path,
            cells_per_job,
            state: Mutex::new(heartbeat),
            frozen: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Freezes the heartbeat file: every later progress update and
    /// [`HeartbeatSink::finish`] becomes a no-op, so the file's
    /// `updated_unix_ms` stops advancing while the worker keeps
    /// running. This is the `stale:K` fault — the worker *looks* dead
    /// to the coordinator and gets reassigned, then finishes as a
    /// zombie the attempt fence must keep out of the merge.
    pub fn freeze(&self) {
        self.frozen.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Stamps the terminal state (with every job accounted for when
    /// `Done`) and writes the final heartbeat.
    pub fn finish(&self, state: WorkerState) {
        if self.is_frozen() {
            return;
        }
        let mut hb = self.state.lock().expect("heartbeat state poisoned");
        hb.state = state;
        if state == WorkerState::Done {
            hb.jobs_done = hb.jobs_total;
            hb.cells_done = hb.jobs_total * self.cells_per_job;
        }
        hb.updated_unix_ms = now_unix_ms();
        let _ = hb.write(&self.path);
    }
}

impl Sink for HeartbeatSink {
    fn emit(&self, event: &Event) {
        if self.is_frozen() {
            return;
        }
        if let Event::Progress { done, total, .. } = event {
            let mut hb = self.state.lock().expect("heartbeat state poisoned");
            hb.jobs_done = *done;
            hb.jobs_total = *total;
            hb.cells_done = *done * self.cells_per_job;
            hb.updated_unix_ms = now_unix_ms();
            let _ = hb.write(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(shard: usize, state: WorkerState, jobs_done: usize, updated: u64) -> Heartbeat {
        Heartbeat {
            shard,
            attempt: 0,
            pid: 7,
            state,
            jobs_done,
            jobs_total: 10,
            cells_done: jobs_done * 3,
            updated_unix_ms: updated,
        }
    }

    #[test]
    fn heartbeat_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("fleetd-hb-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = path_for_report(&dir.join("shard-2.json"));
        assert!(path.to_str().unwrap().ends_with("shard-2.hb.json"));
        let hb = beat(2, WorkerState::Running, 4, 1234);
        hb.write(&path).unwrap();
        assert_eq!(Heartbeat::load(&path).unwrap(), hb);
        // Overwrites atomically (the .tmp never lingers).
        beat(2, WorkerState::Done, 10, 2000).write(&path).unwrap();
        assert_eq!(Heartbeat::load(&path).unwrap().state, WorkerState::Done);
        assert!(!path.with_extension("tmp").exists());
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].shard, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_without_attempt_decodes_as_attempt_zero() {
        let fields = r#""shard":1,"pid":7,"state":"Done","jobs_done":10,"jobs_total":10,"cells_done":30,"updated_unix_ms":5"#;
        let hb: Heartbeat = serde_json::from_str(&format!("{{{fields}}}")).unwrap();
        assert_eq!(hb, beat(1, WorkerState::Done, 10, 5));
        let hb: Heartbeat = serde_json::from_str(&format!(r#"{{"attempt":2,{fields}}}"#)).unwrap();
        assert_eq!(hb.attempt, 2);
        // `default` covers an absent key only: an explicit null is still
        // not a usize.
        let err = serde_json::from_str::<Heartbeat>(&format!(r#"{{"attempt":null,{fields}}}"#))
            .unwrap_err();
        assert!(err.to_string().contains("Heartbeat.attempt"), "{err}");
    }

    #[test]
    fn staleness_is_judged_by_the_reader() {
        let now = 100_000;
        let fresh = beat(0, WorkerState::Running, 3, now - 1_000);
        let hung = beat(1, WorkerState::Running, 5, now - 60_000);
        let done = beat(2, WorkerState::Done, 10, now - 60_000);
        let failed = beat(3, WorkerState::Failed, 2, now - 500);
        assert_eq!(fresh.status(now, 10_000), ShardStatus::Live);
        assert_eq!(hung.status(now, 10_000), ShardStatus::Stale);
        // Terminal states never go stale, however old.
        assert_eq!(done.status(now, 10_000), ShardStatus::Done);
        assert_eq!(failed.status(now, 10_000), ShardStatus::Failed);
        // The same hung worker is live under a looser threshold.
        assert_eq!(hung.status(now, 120_000), ShardStatus::Live);

        let all = [fresh, hung, done, failed];
        let summary = summarize(&all, now, 10_000);
        assert_eq!((summary.live, summary.stale), (1, 1));
        assert_eq!((summary.done, summary.failed), (1, 1));
        assert_eq!(summary.jobs_done, 3 + 5 + 10 + 2);
        assert_eq!(summary.jobs_total, 40);
        assert_eq!(
            summary.line(),
            "1 live, 1 stale, 1 done, 1 failed — jobs 20/40"
        );
        let table = render_status(&all, now, 10_000);
        assert!(table.contains("stale"), "{table}");
        assert!(table.lines().count() == 1 + all.len() + 1, "{table}");
    }

    #[test]
    fn status_renders_in_every_format() {
        let now = 100_000;
        let all = [
            beat(0, WorkerState::Running, 3, now - 1_000),
            beat(1, WorkerState::Done, 10, now - 60_000),
        ];
        for format in OutputFormat::ALL {
            let text = render_status_as(&all, now, 10_000, format);
            assert!(text.contains("done"), "{format:?}: {text}");
        }
        let csv = render_status_as(&all, now, 10_000, OutputFormat::Csv);
        assert!(
            csv.starts_with("shard,attempt,state,jobs_done,jobs_total,cells_done,age_ms,pid\n"),
            "{csv}"
        );
        assert!(csv.contains("0,0,live,3,10,9,1000,7"), "{csv}");
        let json = render_status_as(&all, now, 10_000, OutputFormat::Json);
        assert!(json.contains("\"age_ms\":1000"), "{json}");
        assert!(json.contains("\"summary\":"), "{json}");
        // The deterministic variants carry no wall-clock or pid noise.
        for format in [
            OutputFormat::TableDeterministic,
            OutputFormat::JsonDeterministic,
        ] {
            let det = render_status_as(&all, now, 10_000, format);
            assert!(!det.contains("age_ms"), "{det}");
            assert!(!det.contains("pid"), "{det}");
            assert_eq!(
                det,
                render_status_as(&all, now + 500, 10_000, format),
                "same states observed at a different instant must render identically"
            );
        }
    }

    #[test]
    fn sink_folds_progress_events_into_the_file() {
        let dir = std::env::temp_dir().join(format!("fleetd-hbsink-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.hb.json");
        let sink = HeartbeatSink::new(path.clone(), 0, 8, 2);
        let initial = Heartbeat::load(&path).unwrap();
        assert_eq!(initial.state, WorkerState::Running);
        assert_eq!((initial.jobs_done, initial.jobs_total), (0, 8));

        sink.emit(&Event::Progress {
            done: 3,
            total: 8,
            jobs_per_sec: 1.5,
            eta_secs: 3.3,
        });
        // Non-progress events leave the heartbeat alone.
        sink.emit(&Event::Counter {
            name: "cells_solved".into(),
            value: 6,
        });
        let mid = Heartbeat::load(&path).unwrap();
        assert_eq!((mid.jobs_done, mid.cells_done), (3, 6));
        assert_eq!(mid.state, WorkerState::Running);

        sink.finish(WorkerState::Done);
        let done = Heartbeat::load(&path).unwrap();
        assert_eq!(done.state, WorkerState::Done);
        assert_eq!((done.jobs_done, done.cells_done), (8, 16));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_sink_stops_updating_and_stamp_failed_marks_the_attempt() {
        let dir = std::env::temp_dir().join(format!("fleetd-hbfreeze-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-3.a1.hb.json");
        let sink = HeartbeatSink::for_attempt(path.clone(), 3, 1, 8, 2);
        let initial = Heartbeat::load(&path).unwrap();
        assert_eq!((initial.shard, initial.attempt), (3, 1));

        sink.freeze();
        sink.emit(&Event::Progress {
            done: 5,
            total: 8,
            jobs_per_sec: 1.0,
            eta_secs: 3.0,
        });
        sink.finish(WorkerState::Done);
        let after = Heartbeat::load(&path).unwrap();
        assert_eq!(after, initial, "frozen heartbeat never changes");

        // The coordinator's post-mortem stamp overrides the frozen file…
        stamp_failed(&path, 3, 1);
        let stamped = Heartbeat::load(&path).unwrap();
        assert_eq!(stamped.state, WorkerState::Failed);
        assert_eq!((stamped.shard, stamped.attempt), (3, 1));
        // …and works from scratch for a worker that never wrote one.
        let missing = dir.join("shard-4.a0.hb.json");
        stamp_failed(&missing, 4, 0);
        let fresh = Heartbeat::load(&missing).unwrap();
        assert_eq!(fresh.state, WorkerState::Failed);
        assert_eq!((fresh.shard, fresh.attempt, fresh.pid), (4, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }
}
