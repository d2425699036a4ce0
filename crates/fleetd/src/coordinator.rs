//! The coordinator: supervising shard workers and merging their reports.
//!
//! The multi-process path re-invokes this same binary (`fleetd work`)
//! once per shard attempt via [`std::process::Command`], hands each
//! worker the plan file plus its shard index and attempt generation,
//! supervises the fleet, then merges the winning reports with
//! [`crate::merge::merge_reports_fenced`]. Workers are plain OS
//! processes — no shared memory, no IPC beyond the JSON files — so the
//! same plan/work/merge protocol extends to many machines with a shared
//! filesystem (or any file transport) unchanged.
//!
//! Supervision is the [`Scheduler`] state machine driven by the real
//! clock: every launch first claims its `(shard, attempt)` in the
//! [`crate::pool`] (atomic hard-link claims, per-attempt files), worker
//! exits and torn reports feed `on_success`/`on_failure`, and a worker
//! whose heartbeat goes [`ShardStatus::Stale`] — hung, killed, host
//! unreachable — is killed and its shard reassigned with bounded
//! backoff (`--max-retries`, `--steal`). Attempt fencing means a
//! superseded worker's late report sits harmlessly in its own
//! `shard-K.aA.json`; only the scheduler's winning attempts merge.
//!
//! [`Workers::InProcess`] runs the same scheduler without spawning,
//! on a **virtual clock** that jumps straight to the next backoff gate:
//! the mode for examples, tests and environments where spawning is
//! unavailable — and the deterministic half of the fault-injection
//! battery, via [`RunOptions::faults`].
//!
//! While subprocess workers run, the coordinator polls their heartbeat
//! files ([`crate::heartbeat`]) and renders a live status ticker to
//! stderr; each attempt's stderr is captured to `shard-K.aA.stderr` so
//! a failing attempt's diagnostics land in the
//! [`FleetdError::Protocol`] message instead of interleaving with the
//! others.
//!
//! Every supervision decision is also a telemetry event: claims,
//! launches, steals, retries (with their backoff gate), stale-kills,
//! fence rejections and terminal done/exhausted verdicts are emitted
//! as [`Event::Sched`] lines. The subprocess supervisor always writes
//! them to `sched.trace.jsonl` in the work directory — `fleetd analyze
//! DIR` reads the supervision stream of any run, traced or not — and
//! [`RunOptions::trace`] additionally threads a `--trace` JSONL
//! request down to every worker and assembles the per-attempt traces
//! into one file, each attempt's lines prefixed with an
//! [`Event::ShardSegment`] provenance marker so span ids from
//! different worker processes can never collide in the reader.

use crate::error::FleetdError;
use crate::fault::{FaultKind, FaultPlan};
use crate::heartbeat::{self, Heartbeat, ShardStatus};
use crate::merge::merge_reports_fenced;
use crate::plan::ShardPlan;
use crate::pool::{self, ClaimRecord};
use crate::sched::{FailureOutcome, Launch, SchedConfig, Scheduler};
use crate::shard::ShardReport;
use crate::worker::run_shard_attempt;
use replica_engine::obs::{Event, Obs, SchedOp, Sink, Verbosity};
use replica_engine::{CancelToken, Fleet, FleetReport, Registry};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// How shard workers are executed.
#[derive(Clone, Debug)]
pub enum Workers {
    /// Run every shard attempt sequentially in the current process
    /// (each shard still solves its own jobs with rayon), with the
    /// scheduler on a virtual clock. No subprocesses; no files.
    InProcess,
    /// Spawn one OS process per shard attempt, re-invoking `exe work …`
    /// — the production mode. Shard reports travel through `work_dir`
    /// (a unique temp directory when `None`, removed after the merge).
    Processes {
        /// The `fleetd` binary to invoke (usually
        /// [`std::env::current_exe`]).
        exe: PathBuf,
        /// Directory for `plan.json` / `shard-K.aA.json`; kept if
        /// given, temporary otherwise. Use a fresh directory per run —
        /// claims are never unclaimed, so a reused directory's stale
        /// claims count against the new run's retries.
        work_dir: Option<PathBuf>,
    },
}

impl Workers {
    /// The multi-process mode driving this very binary (the common
    /// case for the `fleetd` CLI). Reports travel through `work_dir`
    /// when given, a removed-after-merge temp directory otherwise.
    pub fn current_exe(work_dir: Option<PathBuf>) -> Result<Workers, FleetdError> {
        Ok(Workers::Processes {
            exe: std::env::current_exe().map_err(|e| {
                FleetdError::Protocol(format!("cannot resolve the current executable: {e}"))
            })?,
            work_dir,
        })
    }
}

/// Coordinator options for a planned run: telemetry plus the
/// fault-tolerance policy.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Write a JSONL trace of the run here. Subprocess workers each
    /// trace to `shard-K.aA.trace.jsonl` in the work directory; the
    /// coordinator assembles the supervision stream plus every
    /// attempt's trace — behind `segment` provenance markers, in
    /// (shard, attempt) order — into this file. In-process runs trace
    /// straight to it, markers and supervision events interleaved.
    pub trace: Option<PathBuf>,
    /// Render a live status ticker (heartbeat summary) to stderr while
    /// subprocess workers run.
    pub live_status: bool,
    /// Retry/steal/backoff/staleness policy (CLI: `--max-retries`,
    /// `--slots`, `--steal`, `--stale-ms`, `--backoff-ms`).
    pub sched: SchedConfig,
    /// Deterministic fault injection (CLI: `--inject`, test-only).
    /// Forwarded verbatim to subprocess workers; converted to
    /// engine-level cancellations and virtual-clock stalls in-process.
    pub faults: FaultPlan,
}

/// Runs a planned campaign shard by shard — retrying, stealing and
/// fencing per the default [`SchedConfig`] — and merges the results.
pub fn run_plan(plan: &ShardPlan, workers: &Workers) -> Result<FleetReport, FleetdError> {
    run_plan_with(plan, workers, &RunOptions::default())
}

/// [`run_plan`] with options. Telemetry and fault tolerance are
/// strictly out-of-band: whatever `options` says — tracing on or off,
/// workers killed and retried, shards stolen — a run that completes
/// merges to the byte-identical report.
pub fn run_plan_with(
    plan: &ShardPlan,
    workers: &Workers,
    options: &RunOptions,
) -> Result<FleetReport, FleetdError> {
    let (reports, winning) = match workers {
        Workers::InProcess => run_in_process(plan, options)?,
        Workers::Processes { exe, work_dir } => {
            spawn_workers(plan, exe, work_dir.as_deref(), options)?
        }
    };
    merge_reports_fenced(plan, &reports, &winning)
}

/// How often the coordinator polls worker exit status and heartbeats.
const POLL_INTERVAL: Duration = Duration::from_millis(150);

/// How many trailing bytes of a failed worker's stderr make it into
/// the error message.
const STDERR_TAIL_BYTES: usize = 2048;

/// The error a run ends with when some shard ran out of retries:
/// every recorded failure, most recent last, so the typed error names
/// each dead attempt (`shard K attempt A: …`).
fn exhausted_error(sched: &Scheduler, failures: &[String]) -> FleetdError {
    let shards: Vec<String> = sched
        .exhausted()
        .iter()
        .map(|(shard, attempt)| format!("shard {shard} (after attempt {attempt})"))
        .collect();
    FleetdError::Protocol(format!(
        "retries exhausted for {}: {}",
        shards.join(", "),
        failures.join("; ")
    ))
}

/// The supervision stream of a subprocess run, written into the work
/// directory unconditionally (tracing on or off): `fleetd analyze DIR`
/// reads the scheduler's decisions from any completed or in-flight
/// run.
pub const SCHED_TRACE_FILE: &str = "sched.trace.jsonl";

/// One supervision event, ready to emit.
fn sched_event(op: SchedOp, shard: usize, attempt: usize, not_before_ms: Option<u64>) -> Event {
    Event::Sched {
        op,
        shard,
        attempt,
        not_before_ms,
    }
}

/// Emits the launch decision: a plain `launch`, or a `steal` when the
/// scheduler jumped a backoff-gated earlier shard.
fn emit_launch(obs: &Obs, launch: &Launch) {
    let op = if launch.stolen {
        SchedOp::Steal
    } else {
        SchedOp::Launch
    };
    obs.emit(sched_event(op, launch.shard, launch.attempt, None));
}

/// Emits what [`Scheduler::on_failure`] decided about a failed
/// attempt: `retry` (with its backoff gate), `exhausted`, or
/// `fence_reject` for a superseded generation's late verdict. The
/// event names the attempt the verdict was *about*, not the retry it
/// scheduled — the analyzer pairs it with that attempt's launch.
fn emit_failure(obs: &Obs, shard: usize, attempt: usize, outcome: FailureOutcome) {
    let event = match outcome {
        FailureOutcome::WillRetry { not_before_ms, .. } => {
            sched_event(SchedOp::Retry, shard, attempt, Some(not_before_ms))
        }
        FailureOutcome::Exhausted => sched_event(SchedOp::Exhausted, shard, attempt, None),
        FailureOutcome::Fenced => sched_event(SchedOp::FenceReject, shard, attempt, None),
    };
    obs.emit(event);
}

/// The in-process supervised runner: the same [`Scheduler`] the
/// subprocess supervisor uses, driven synchronously on a **virtual
/// clock** — backoff gates and staleness windows are jumped over, not
/// slept through, so a fault schedule that kills every attempt of
/// every shard still settles in milliseconds. Injected faults map to
/// their in-process analogues:
///
/// * `Kill{after_cells}` — a [`CancelToken`] fired from the progress
///   stream once enough cells completed; the engine's all-or-nothing
///   fold returns nothing, exactly like a dead worker.
/// * `Hang` — the virtual clock jumps past the staleness window and
///   the attempt is failed, as the subprocess supervisor would after
///   killing the hung worker.
/// * `TruncateReport` — the attempt's report is serialized, torn in
///   half, and re-parsed; the parse failure becomes the attempt's
///   typed failure (the same path a torn file takes).
/// * `StaleHeartbeat` — the attempt *completes* and its report enters
///   the pool, but the coordinator has already written it off as
///   stale: a true zombie that only the attempt fence keeps out.
fn run_in_process(
    plan: &ShardPlan,
    options: &RunOptions,
) -> Result<(Vec<ShardReport>, Vec<Option<usize>>), FleetdError> {
    let obs = match &options.trace {
        Some(path) => Obs::jsonl(path, Verbosity::Solve).map_err(|e| FleetdError::Io {
            path: path.display().to_string(),
            message: format!("cannot create trace file: {e}"),
        })?,
        None => Obs::noop(),
    };
    let cells_per_job = plan.campaign.solvers.len().max(1);
    let space = plan.campaign.space();
    let mut sched = Scheduler::new(plan.shards.len(), options.sched);
    let mut now: u64 = 0;
    let mut pool: Vec<ShardReport> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    while !sched.all_settled() {
        let launches = sched.launches(now);
        if launches.is_empty() {
            // Nothing is ever in flight here (attempts run to
            // completion synchronously), so an empty launch set means
            // every pending shard is gated: jump the clock.
            match sched.next_wakeup_ms() {
                Some(gate) => now = now.max(gate.max(now + 1)),
                None => break,
            }
            continue;
        }
        for launch in launches {
            let Launch { shard, attempt, .. } = launch;
            // Supervision telemetry: the launch decision, then a
            // segment marker so the attempt's span ids are scoped to
            // this (shard, attempt) in the reader.
            emit_launch(&obs, &launch);
            obs.emit(Event::ShardSegment { shard, attempt });
            match options.faults.fault_for(shard, attempt) {
                None => match run_shard_attempt(plan, shard, attempt, &space, &obs, None) {
                    Ok(Some(report)) => {
                        if sched.on_success(shard, attempt) {
                            obs.emit(sched_event(SchedOp::Done, shard, attempt, None));
                        }
                        pool.push(report);
                    }
                    Ok(None) => unreachable!("no cancel token given"),
                    Err(e) => {
                        failures.push(format!("shard {shard} attempt {attempt}: {e}"));
                        emit_failure(&obs, shard, attempt, sched.on_failure(shard, attempt, now));
                    }
                },
                Some(FaultKind::Kill { after_cells }) => {
                    let cancel = CancelToken::new();
                    if after_cells == 0 {
                        cancel.cancel();
                    }
                    let sink: Arc<dyn Sink> = Arc::new(CancelAfterCells::new(
                        cancel.clone(),
                        after_cells,
                        cells_per_job,
                    ));
                    let fault_obs = Obs::new(sink, Verbosity::Progress);
                    // Whether the cancellation landed between batches
                    // (None) or the shard finished first (Some — died
                    // after solving, before writing), a killed worker
                    // delivers nothing.
                    let _ =
                        run_shard_attempt(plan, shard, attempt, &space, &fault_obs, Some(&cancel));
                    failures.push(format!(
                        "shard {shard} attempt {attempt}: worker killed after {after_cells} cells (injected)"
                    ));
                    emit_failure(&obs, shard, attempt, sched.on_failure(shard, attempt, now));
                }
                Some(FaultKind::Hang) => {
                    now += options.sched.stale_ms + 1;
                    failures.push(format!(
                        "shard {shard} attempt {attempt}: heartbeat stale after {}ms (injected hang), worker killed",
                        options.sched.stale_ms
                    ));
                    obs.emit(sched_event(SchedOp::StaleKill, shard, attempt, None));
                    emit_failure(&obs, shard, attempt, sched.on_failure(shard, attempt, now));
                }
                Some(FaultKind::TruncateReport) => {
                    let failure =
                        match run_shard_attempt(plan, shard, attempt, &space, &Obs::noop(), None) {
                            Ok(Some(report)) => {
                                // Tear the report the way a killed writer
                                // would and take the parse error as the
                                // typed failure.
                                let json = serde_json::to_string(&report).unwrap_or_default();
                                let torn = &json[..json.len() / 2];
                                let parse = serde_json::from_str::<ShardReport>(torn)
                                    .expect_err("a torn report must not parse");
                                FleetdError::shard_protocol(
                                    shard,
                                    attempt,
                                    format!(
                                    "cannot parse shard report ({parse}) — torn write (injected)"
                                ),
                                )
                            }
                            Ok(None) => unreachable!("no cancel token given"),
                            Err(e) => e,
                        };
                    failures.push(failure.to_string());
                    emit_failure(&obs, shard, attempt, sched.on_failure(shard, attempt, now));
                }
                Some(FaultKind::StaleHeartbeat) => {
                    // The worker completes — its report lands in the
                    // pool — but its heartbeat froze, so the
                    // coordinator wrote the attempt off long ago. The
                    // report is a zombie the fenced merge must skip.
                    if let Ok(Some(report)) =
                        run_shard_attempt(plan, shard, attempt, &space, &Obs::noop(), None)
                    {
                        pool.push(report);
                    }
                    now += options.sched.stale_ms + 1;
                    failures.push(format!(
                        "shard {shard} attempt {attempt}: heartbeat stale after {}ms (injected freeze), worker written off",
                        options.sched.stale_ms
                    ));
                    obs.emit(sched_event(SchedOp::StaleKill, shard, attempt, None));
                    emit_failure(&obs, shard, attempt, sched.on_failure(shard, attempt, now));
                }
            }
        }
    }
    obs.flush();

    if !sched.exhausted().is_empty() {
        return Err(exhausted_error(&sched, &failures));
    }
    Ok((pool, sched.winning_attempts()))
}

/// An [`Sink`] that fires a [`CancelToken`] once the progress stream
/// shows `after_cells` cells complete — the in-process analogue of
/// `kill:K@N` (granularity: the engine's streaming batch, which is all
/// a between-batches cancellation can see anyway).
struct CancelAfterCells {
    cancel: CancelToken,
    after_cells: usize,
    cells_per_job: usize,
}

impl CancelAfterCells {
    fn new(cancel: CancelToken, after_cells: usize, cells_per_job: usize) -> Self {
        CancelAfterCells {
            cancel,
            after_cells,
            cells_per_job,
        }
    }
}

impl Sink for CancelAfterCells {
    fn emit(&self, event: &replica_engine::obs::Event) {
        if let replica_engine::obs::Event::Progress { done, .. } = event {
            if done * self.cells_per_job >= self.after_cells {
                self.cancel.cancel();
            }
        }
    }
}

/// One subprocess shard attempt in flight.
struct Inflight {
    shard: usize,
    attempt: usize,
    child: Child,
    out: PathBuf,
    stderr_path: PathBuf,
    hb_path: PathBuf,
    launched_ms: u64,
}

/// The subprocess supervisor: drives the [`Scheduler`] with the real
/// clock — claim, spawn, reap, stale-kill, retry — and returns the
/// report pool plus the winning attempt per shard.
fn spawn_workers(
    plan: &ShardPlan,
    exe: &Path,
    work_dir: Option<&Path>,
    options: &RunOptions,
) -> Result<(Vec<ShardReport>, Vec<Option<usize>>), FleetdError> {
    let (dir, ephemeral) = match work_dir {
        Some(dir) => (dir.to_path_buf(), false),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "fleetd-{}-{:016x}",
                std::process::id(),
                plan.fingerprint
            ));
            (dir, true)
        }
    };
    fs::create_dir_all(&dir).map_err(|e| FleetdError::Io {
        path: dir.display().to_string(),
        message: format!("cannot create work directory: {e}"),
    })?;
    let result = supervise(plan, exe, &dir, options);
    if ephemeral {
        let _ = fs::remove_dir_all(&dir);
    }
    result
}

fn supervise(
    plan: &ShardPlan,
    exe: &Path,
    dir: &Path,
    options: &RunOptions,
) -> Result<(Vec<ShardReport>, Vec<Option<usize>>), FleetdError> {
    let plan_path = dir.join("plan.json");
    write_json(&plan_path, plan)?;

    // The supervision stream, written unconditionally: every claim,
    // launch, steal, retry, stale-kill, fence rejection and terminal
    // verdict, as it happens. Telemetry must never fail the run, so a
    // directory we cannot trace into degrades to no stream.
    let sobs = Obs::jsonl(&dir.join(SCHED_TRACE_FILE), Verbosity::Progress)
        .unwrap_or_else(|_| Obs::noop());
    let mut sched = Scheduler::new(plan.shards.len(), options.sched);
    let mut inflight: Vec<Inflight> = Vec::new();
    let mut pool: Vec<ShardReport> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut last_line = String::new();

    loop {
        let now = heartbeat::now_unix_ms();

        // Launch every attempt the scheduler releases: claim its
        // generation in the pool, then spawn `fleetd work` with the
        // attempt number (and the fault schedule, forwarded verbatim —
        // the worker looks up its own (shard, attempt) entry).
        for launch in sched.launches(now) {
            let Launch { shard, attempt, .. } = launch;
            if !pool::try_claim(dir, &ClaimRecord::new(shard, attempt, "coordinator"))? {
                failures.push(format!(
                    "shard {shard} attempt {attempt}: claim already held (reused work dir?)"
                ));
                emit_failure(&sobs, shard, attempt, sched.on_failure(shard, attempt, now));
                continue;
            }
            sobs.emit(sched_event(SchedOp::Claim, shard, attempt, None));
            match spawn_attempt(exe, dir, &plan_path, shard, attempt, options) {
                Ok(worker) => {
                    emit_launch(&sobs, &launch);
                    inflight.push(worker);
                }
                Err(e) => {
                    failures.push(format!("shard {shard} attempt {attempt}: {e}"));
                    emit_failure(&sobs, shard, attempt, sched.on_failure(shard, attempt, now));
                }
            }
        }

        // Reap exits and stale-kill hung workers. Every verdict is
        // delivered to the scheduler under the attempt that earned it —
        // the fence discards verdicts about superseded generations.
        let mut still = Vec::with_capacity(inflight.len());
        for mut w in inflight.drain(..) {
            let exit = w.child.try_wait().map_err(|e| {
                FleetdError::shard_protocol(w.shard, w.attempt, format!("waiting for worker: {e}"))
            })?;
            match exit {
                Some(status) if status.success() => {
                    match read_json::<ShardReport>(&w.out) {
                        Ok(report) if (report.shard, report.attempt) == (w.shard, w.attempt) => {
                            let op = if sched.on_success(w.shard, w.attempt) {
                                SchedOp::Done
                            } else {
                                // A superseded zombie delivered late:
                                // its report enters the pool but the
                                // fence keeps it out of the merge.
                                SchedOp::FenceReject
                            };
                            sobs.emit(sched_event(op, w.shard, w.attempt, None));
                            pool.push(report);
                        }
                        Ok(report) => {
                            failures.push(
                                FleetdError::shard_protocol(
                                    w.shard,
                                    w.attempt,
                                    format!(
                                        "report identifies as shard {} attempt {}",
                                        report.shard, report.attempt
                                    ),
                                )
                                .to_string(),
                            );
                            heartbeat::stamp_failed(&w.hb_path, w.shard, w.attempt);
                            let outcome = sched.on_failure(w.shard, w.attempt, now);
                            emit_failure(&sobs, w.shard, w.attempt, outcome);
                        }
                        Err(e) => {
                            // Exit 0 but unreadable/torn report: the
                            // typed protocol failure names the attempt;
                            // the retry gets a fresh generation.
                            failures.push(
                                FleetdError::shard_protocol(
                                    w.shard,
                                    w.attempt,
                                    format!("unreadable shard report ({e}) — killed mid-write?"),
                                )
                                .to_string(),
                            );
                            heartbeat::stamp_failed(&w.hb_path, w.shard, w.attempt);
                            let outcome = sched.on_failure(w.shard, w.attempt, now);
                            emit_failure(&sobs, w.shard, w.attempt, outcome);
                        }
                    }
                }
                Some(status) => {
                    let tail = stderr_tail(&w.stderr_path, STDERR_TAIL_BYTES);
                    failures.push(
                        FleetdError::shard_protocol(
                            w.shard,
                            w.attempt,
                            if tail.is_empty() {
                                format!("worker exited with {status}")
                            } else {
                                format!("worker exited with {status}; stderr tail:\n{tail}")
                            },
                        )
                        .to_string(),
                    );
                    heartbeat::stamp_failed(&w.hb_path, w.shard, w.attempt);
                    let outcome = sched.on_failure(w.shard, w.attempt, now);
                    emit_failure(&sobs, w.shard, w.attempt, outcome);
                }
                None => {
                    // Still running: judge liveness from its heartbeat
                    // (a worker that never wrote one is judged from its
                    // launch time). Stale ⇒ kill and reassign — the
                    // satellite fix: staleness now *schedules*, it is
                    // no longer render-only.
                    let status = match Heartbeat::load(&w.hb_path) {
                        Ok(hb) if hb.attempt == w.attempt => hb.status(now, options.sched.stale_ms),
                        _ if now.saturating_sub(w.launched_ms) > options.sched.stale_ms => {
                            ShardStatus::Stale
                        }
                        _ => ShardStatus::Live,
                    };
                    if status == ShardStatus::Stale {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        heartbeat::stamp_failed(&w.hb_path, w.shard, w.attempt);
                        failures.push(
                            FleetdError::shard_protocol(
                                w.shard,
                                w.attempt,
                                format!(
                                    "heartbeat stale (no update for {}ms) — worker killed",
                                    options.sched.stale_ms
                                ),
                            )
                            .to_string(),
                        );
                        sobs.emit(sched_event(SchedOp::StaleKill, w.shard, w.attempt, None));
                        let outcome = sched.on_failure(w.shard, w.attempt, now);
                        emit_failure(&sobs, w.shard, w.attempt, outcome);
                    } else {
                        still.push(w);
                    }
                }
            }
        }
        inflight = still;

        if options.live_status {
            if let Ok(heartbeats) = heartbeat::load_dir(dir) {
                if !heartbeats.is_empty() {
                    let line =
                        heartbeat::summarize(&heartbeats, now, options.sched.stale_ms).line();
                    if line != last_line {
                        eprintln!("fleetd: {line}");
                        last_line = line;
                    }
                }
            }
        }

        if inflight.is_empty() && sched.all_settled() {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }

    sobs.flush();
    if !sched.exhausted().is_empty() {
        return Err(exhausted_error(&sched, &failures));
    }
    let winning = sched.winning_attempts();
    let retries = sched.attempts_launched() - plan.shards.len();
    if options.live_status && retries > 0 {
        eprintln!(
            "fleetd: recovered after {retries} retr{}",
            if retries == 1 { "y" } else { "ies" }
        );
    }
    if let Some(trace) = &options.trace {
        write_text(trace, &assemble_trace_text(dir)?)?;
    }
    Ok((pool, winning))
}

/// Spawns one `fleetd work` process for `(shard, attempt)`.
fn spawn_attempt(
    exe: &Path,
    dir: &Path,
    plan_path: &Path,
    shard: usize,
    attempt: usize,
    options: &RunOptions,
) -> Result<Inflight, FleetdError> {
    let out = pool::report_path(dir, shard, attempt);
    let stderr_path = pool::stderr_path(dir, shard, attempt);
    let stderr_file = fs::File::create(&stderr_path).map_err(|e| FleetdError::Io {
        path: stderr_path.display().to_string(),
        message: format!("cannot create worker stderr file: {e}"),
    })?;
    let mut command = Command::new(exe);
    command
        .arg("work")
        .arg("--plan")
        .arg(plan_path)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--attempt")
        .arg(attempt.to_string())
        .arg("--out")
        .arg(&out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr_file));
    if options.trace.is_some() {
        command
            .arg("--trace")
            .arg(pool::trace_path(dir, shard, attempt));
    }
    if !options.faults.is_empty() {
        command.arg("--inject").arg(options.faults.to_spec());
    }
    let child = command
        .spawn()
        .map_err(|e| FleetdError::Protocol(format!("cannot spawn worker: {e}")))?;
    Ok(Inflight {
        shard,
        attempt,
        child,
        out,
        stderr_path,
        hb_path: heartbeat::path_for_report(&pool::report_path(dir, shard, attempt)),
        launched_ms: heartbeat::now_unix_ms(),
    })
}

/// The last `max_bytes` of `path`, trimmed — empty when the file is
/// missing or blank (a worker that died before writing anything).
fn stderr_tail(path: &Path, max_bytes: usize) -> String {
    let Ok(text) = fs::read_to_string(path) else {
        return String::new();
    };
    let text = text.trim();
    match text.char_indices().nth_back(max_bytes.saturating_sub(1)) {
        Some((cut, _)) => format!("…{}", &text[cut..]),
        None => text.to_string(),
    }
}

/// Assembles one forensic trace from a fleetd work directory: the
/// supervision stream ([`SCHED_TRACE_FILE`]) first, then every
/// `shard-K.aA.trace.jsonl` in (shard, attempt) order, each prefixed
/// with a `segment` provenance marker line. Worker processes number
/// their span ids independently, so two attempts' traces reuse the
/// same ids — the marker is what lets the reader keep their spans
/// distinct. Failed attempts' traces are included deliberately: the
/// lines a killed worker got out before dying are where the forensics
/// live. Missing files are skipped silently (the trace is telemetry,
/// not a deliverable); an unreadable directory is an error.
pub fn assemble_trace_text(dir: &Path) -> Result<String, FleetdError> {
    let entries = fs::read_dir(dir).map_err(|e| FleetdError::Io {
        path: dir.display().to_string(),
        message: format!("cannot read work directory: {e}"),
    })?;
    let mut attempts: Vec<(usize, usize, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((shard, attempt)) = parse_trace_name(name) {
            attempts.push((shard, attempt, entry.path()));
        }
    }
    attempts.sort();
    let mut combined = fs::read_to_string(dir.join(SCHED_TRACE_FILE)).unwrap_or_default();
    for (shard, attempt, path) in attempts {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        combined.push_str(&Event::ShardSegment { shard, attempt }.to_json_line(None));
        combined.push('\n');
        combined.push_str(&text);
    }
    Ok(combined)
}

/// `shard-K.aA.trace.jsonl` → `(K, A)`.
fn parse_trace_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".trace.jsonl")?;
    let (shard, attempt) = rest.split_once(".a")?;
    Some((shard.parse().ok()?, attempt.parse().ok()?))
}

/// Runs the same campaign single-process ([`Fleet::run`] over the
/// campaign's lazy job space) — the baseline of the determinism proof.
pub fn run_single_process(plan: &ShardPlan) -> Result<FleetReport, FleetdError> {
    let registry = Registry::with_all();
    let fleet = Fleet::new(&registry, &plan.campaign)?;
    Ok(fleet.run(&plan.campaign.space(), &Obs::noop()))
}

/// Proves a merged report equivalent to a fresh single-process run of
/// the same plan: byte-identical digest (aggregates + cell count + FNV
/// cell checksum) and deterministic table. Returns the proof line to
/// print.
pub fn prove_against_single_process(
    plan: &ShardPlan,
    merged: &FleetReport,
) -> Result<String, FleetdError> {
    let single = run_single_process(plan)?;
    if merged.digest() != single.digest() {
        return Err(FleetdError::Protocol(format!(
            "determinism violation: merged digest differs from the single-process run\n\
             merged:\n{}\nsingle:\n{}",
            merged.digest(),
            single.digest()
        )));
    }
    if merged.table_deterministic() != single.table_deterministic() {
        return Err(FleetdError::Protocol(
            "determinism violation: deterministic tables differ".into(),
        ));
    }
    Ok(format!(
        "determinism proof: merged == single-process ({} cells, checksum {:016x})",
        merged.cell_count, merged.cell_checksum
    ))
}

/// Writes `text` to `path`, creating parent directories — the one copy
/// of the create-dirs-then-write idiom in this crate (plan/shard/report
/// files and CLI `--out` renderings all go through it).
pub fn write_text(path: &Path, text: &str) -> Result<(), FleetdError> {
    let io = |message: String| FleetdError::Io {
        path: path.display().to_string(),
        message,
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| FleetdError::Io {
                path: parent.display().to_string(),
                message: format!("cannot create directory: {e}"),
            })?;
        }
    }
    fs::write(path, text).map_err(|e| io(format!("cannot write: {e}")))
}

/// Serializes `value` as JSON to `path`.
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), FleetdError> {
    let json = serde_json::to_string(value).map_err(|e| FleetdError::Io {
        path: path.display().to_string(),
        message: format!("serializing: {e}"),
    })?;
    write_text(path, &json)
}

/// Parses a JSON file into `T`.
pub fn read_json<T: for<'de> serde::Deserialize<'de>>(path: &Path) -> Result<T, FleetdError> {
    let io = |message: String| FleetdError::Io {
        path: path.display().to_string(),
        message,
    };
    let text = fs::read_to_string(path).map_err(|e| io(format!("cannot read: {e}")))?;
    serde_json::from_str(&text).map_err(|e| io(format!("cannot parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use replica_engine::Campaign;

    fn tiny_plan(shards: usize) -> ShardPlan {
        let mut campaign = Campaign::from_set("standard", 12, 1, 11).unwrap();
        campaign.scenarios.truncate(2);
        campaign.instances_per_scenario = 2;
        campaign.solvers = vec!["greedy_power".into(), "dp_power".into()];
        ShardPlan::new(campaign, shards).unwrap()
    }

    #[test]
    fn in_process_coordination_proves_out() {
        let plan = tiny_plan(3);
        let merged = run_plan(&plan, &Workers::InProcess).unwrap();
        let proof = prove_against_single_process(&plan, &merged).unwrap();
        assert!(proof.contains("merged == single-process"), "{proof}");
    }

    #[test]
    fn json_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("fleetd-test-{}", std::process::id()));
        let path = dir.join("plan.json");
        let plan = tiny_plan(2);
        write_json(&path, &plan).unwrap();
        let back: ShardPlan = read_json(&path).unwrap();
        assert_eq!(back.fingerprint, plan.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_in_process_recover_to_the_identical_digest() {
        let plan = tiny_plan(3);
        let baseline = run_single_process(&plan).unwrap().digest();
        let options = RunOptions {
            faults: FaultPlan::parse("kill:0@3,hang:1,truncate:2,stale:0.1").unwrap(),
            ..RunOptions::default()
        };
        let merged = run_plan_with(&plan, &Workers::InProcess, &options).unwrap();
        assert_eq!(
            merged.digest(),
            baseline,
            "recovery must not perturb the merge"
        );
    }

    #[test]
    fn dooming_a_shard_in_process_is_a_typed_error_naming_the_attempts() {
        let plan = tiny_plan(2);
        let options = RunOptions {
            faults: FaultPlan::parse("kill:1,hang:1.1,truncate:1.2").unwrap(),
            ..RunOptions::default()
        };
        assert!(options.faults.dooms_some_shard(options.sched.max_retries));
        let err = run_plan_with(&plan, &Workers::InProcess, &options)
            .err()
            .expect("a doomed shard cannot merge");
        assert!(matches!(err, FleetdError::Protocol(_)));
        let message = err.to_string();
        assert!(message.contains("retries exhausted"), "{message}");
        assert!(message.contains("shard 1 attempt 2"), "{message}");
        assert_eq!(err.exit_code(), 1);
    }
}
