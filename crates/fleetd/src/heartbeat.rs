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
//! unit-testable without clocks or files. [`render_status`] prints the
//! result through the engine's report writers in any output format;
//! the wall-clock `age_ms` and the `pid` are its timing fields, so the
//! `-det` formats leave them out.

use crate::error::FleetdError;
use replica_engine::output::{csv_table, json_row, text_table, Field, OutputFormat};
use replica_obs::{Event, Sink};
use serde::{Deserialize, Serialize, Value};
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
    /// A fresh `Running` heartbeat for attempt `attempt` of shard
    /// `shard`, `jobs_total` jobs, stamped now.
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

/// The `fleetd status` rendering in `format`: one row per shard —
/// `age_ms` and `pid` are timing, the columns that differ between two
/// observations of the same fleet state — and the fleet-wide summary,
/// as the line under a table and the `summary` object of the JSON.
pub fn render_status(
    heartbeats: &[Heartbeat],
    now_ms: u64,
    stale_ms: u64,
    format: OutputFormat,
) -> String {
    let rows: Vec<Vec<Field>> = heartbeats
        .iter()
        .map(|hb| {
            vec![
                Field::int("shard", hb.shard),
                Field::int("attempt", hb.attempt),
                Field::str("state", hb.status(now_ms, stale_ms).label()),
                Field::int("jobs_done", hb.jobs_done),
                Field::int("jobs_total", hb.jobs_total),
                Field::int("cells_done", hb.cells_done),
                Field::int("age_ms", hb.age_ms(now_ms)).timing(),
                Field::int("pid", hb.pid).timing(),
            ]
        })
        .collect();
    let summary = summarize(heartbeats, now_ms, stale_ms);
    let timing = format.keeps_timing();
    match format {
        OutputFormat::Table | OutputFormat::TableDeterministic => {
            format!("{}{}\n", text_table(&rows, timing), summary.line())
        }
        OutputFormat::Csv => csv_table(&rows),
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            let shards = rows.into_iter().map(|row| json_row(row, timing));
            let summary = vec![
                Field::int("live", summary.live),
                Field::int("stale", summary.stale),
                Field::int("done", summary.done),
                Field::int("failed", summary.failed),
                Field::int("jobs_done", summary.jobs_done),
                Field::int("jobs_total", summary.jobs_total),
            ];
            let doc = vec![
                Field::new("shards", Value::Array(shards.collect()), String::new()),
                Field::new("summary", json_row(summary, timing), String::new()),
            ];
            format!(
                "{}\n",
                serde_json::to_string(&json_row(doc, timing)).unwrap_or_default()
            )
        }
    }
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
    /// Creates the sink for attempt `attempt` of shard `shard` and
    /// writes the initial `Running` heartbeat (best-effort: heartbeat
    /// I/O failures never fail the shard).
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
        let table = render_status(&all, now, 10_000, OutputFormat::Table);
        assert!(table.contains("stale"), "{table}");
        // Header, dash rule, one row per shard, summary line.
        assert!(table.lines().count() == 2 + all.len() + 1, "{table}");
    }

    #[test]
    fn status_renders_in_every_format() {
        let now = 100_000;
        let all = [
            beat(0, WorkerState::Running, 3, now - 1_000),
            beat(1, WorkerState::Done, 10, now - 60_000),
        ];
        for format in OutputFormat::ALL {
            let text = render_status(&all, now, 10_000, format);
            assert!(text.contains("done"), "{format:?}: {text}");
        }
        let csv = render_status(&all, now, 10_000, OutputFormat::Csv);
        assert!(
            csv.starts_with("shard,attempt,state,jobs_done,jobs_total,cells_done,age_ms,pid\n"),
            "{csv}"
        );
        assert!(csv.contains("0,0,live,3,10,9,1000,7"), "{csv}");
        let json = render_status(&all, now, 10_000, OutputFormat::Json);
        assert!(json.contains("\"age_ms\":1000"), "{json}");
        assert!(json.contains("\"summary\":"), "{json}");
        // Exact renderings (trailing alignment spaces dropped from the
        // table).
        let table_det = render_status(&all, now, 10_000, OutputFormat::TableDeterministic);
        let trimmed: String = table_det
            .lines()
            .map(|line| line.trim_end().to_string() + "\n")
            .collect();
        assert_eq!(
            trimmed,
            "shard  attempt  state  jobs_done  jobs_total  cells_done\n\
             ----------------------------------------------------------\n\
             0      0        live   3          10          9\n\
             1      0        done   10         10          30\n\
             1 live, 0 stale, 1 done, 0 failed — jobs 13/20\n"
        );
        assert_eq!(
            render_status(&all, now, 10_000, OutputFormat::JsonDeterministic),
            "{\"shards\":[{\"shard\":0,\"attempt\":0,\"state\":\"live\",\"jobs_done\":3,\
             \"jobs_total\":10,\"cells_done\":9},{\"shard\":1,\"attempt\":0,\"state\":\"done\",\
             \"jobs_done\":10,\"jobs_total\":10,\"cells_done\":30}],\"summary\":{\"live\":1,\
             \"stale\":0,\"done\":1,\"failed\":0,\"jobs_done\":13,\"jobs_total\":20}}\n"
        );
        assert_eq!(
            csv,
            "shard,attempt,state,jobs_done,jobs_total,cells_done,age_ms,pid\n\
             0,0,live,3,10,9,1000,7\n\
             1,0,done,10,10,30,60000,7\n"
        );
        // The det renderings are the full ones without the timing
        // fields: `age_ms` and `pid`.
        let mut full: Value = serde_json::from_str(&json).unwrap();
        if let Value::Object(fields) = &mut full {
            for (key, shards) in fields.iter_mut() {
                if let (true, Value::Array(shards)) = (key == "shards", shards) {
                    for shard in shards {
                        if let Value::Object(shard) = shard {
                            shard.retain(|(k, _)| k != "age_ms" && k != "pid");
                        }
                    }
                }
            }
        }
        let det: Value = serde_json::from_str(&render_status(
            &all,
            now,
            10_000,
            OutputFormat::JsonDeterministic,
        ))
        .unwrap();
        assert_eq!(full, det);
        let header = |text: &str| -> Vec<String> {
            let line = text.lines().next().unwrap_or_default();
            line.split_whitespace().map(str::to_string).collect()
        };
        let mut table_header = header(&render_status(&all, now, 10_000, OutputFormat::Table));
        table_header.retain(|c| c != "age_ms" && c != "pid");
        assert_eq!(table_header, header(&table_det));
        // The deterministic variants carry no wall-clock or pid noise.
        for format in [
            OutputFormat::TableDeterministic,
            OutputFormat::JsonDeterministic,
        ] {
            let det = render_status(&all, now, 10_000, format);
            assert!(!det.contains("age_ms"), "{det}");
            assert!(!det.contains("pid"), "{det}");
            assert_eq!(
                det,
                render_status(&all, now + 500, 10_000, format),
                "same states observed at a different instant must render identically"
            );
        }
    }

    #[test]
    fn sink_folds_progress_events_into_the_file() {
        let dir = std::env::temp_dir().join(format!("fleetd-hbsink-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.hb.json");
        let sink = HeartbeatSink::for_attempt(path.clone(), 0, 0, 8, 2);
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
