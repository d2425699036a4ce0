//! The `fleetd` command-line interface: `spec`, `plan`, `work`,
//! `merge`, `run`, `status`.
//!
//! The subcommands are the sharding protocol made visible:
//!
//! ```text
//! fleetd spec  … --out spec.json          # emit the campaign spec JSON
//! fleetd plan  … --shards N --out plan.json          # split the job space
//! fleetd work  --plan plan.json --shard K --out shard-K.json   # × N processes
//! fleetd merge --plan plan.json shard-*.json                   # deterministic merge
//! fleetd run   … --shards N               # all of the above + determinism proof
//! ```
//!
//! Campaigns are described by the engine's declarative
//! [`CampaignSpec`]: `--spec file.json` loads one, and the legacy
//! campaign flags *build one internally and round-trip it through the
//! serializer* — the flag path and the file path are the same wire
//! format by construction (`fleetd spec` prints the JSON the flags
//! build). Either way the spec is validated against the solver registry
//! and the scenario families before any job runs; a bad spec fails with
//! an actionable [`SpecError`] (unknown
//! names come with a did-you-mean suggestion) and a non-zero exit code.
//!
//! `run` spawns the workers itself (re-invoking this binary), merges,
//! and — unless `--no-verify` — re-runs the campaign single-process and
//! proves the merged report byte-identical.

use crate::coordinator::{
    assemble_trace_text, prove_against_single_process, read_json, run_plan_with, write_json,
    RunOptions, Workers,
};
use crate::error::FleetdError;
use crate::fault::{FaultKind, FaultPlan};
use crate::heartbeat::{self, HeartbeatSink, WorkerState};
use crate::merge::merge_reports;
use crate::plan::ShardPlan;
use crate::sched::SchedConfig;
use crate::shard::ShardReport;
use crate::worker;
use replica_engine::obs::{Analysis, Event, FanoutSink, JsonlSink, Obs, Sink, Trace, Verbosity};
use replica_engine::output::{render, render_analysis, OutputFormat};
use replica_engine::spec::{Campaign, CampaignSpec, SpecError, CAMPAIGN_FLAG_NAMES};
use replica_engine::Registry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "\
fleetd — sharded multi-process fleet campaigns with deterministic merge

USAGE:
    fleetd spec  [CAMPAIGN FLAGS] [--format F] [--out spec.json]
    fleetd plan  [CAMPAIGN FLAGS] --shards N --out plan.json
    fleetd work  --plan plan.json --shard K --out shard-K.json
                 [--attempt A] [--trace t.jsonl] [--inject SPEC]
    fleetd merge --plan plan.json [--format F] [--out FILE] shard-0.json shard-1.json …
    fleetd run   [CAMPAIGN FLAGS] --shards N [--format F] [--out FILE]
                 [--in-process] [--no-verify] [--work-dir DIR] [--trace t.jsonl]
                 [--max-retries N] [--slots N] [--steal] [--stale-ms MS]
                 [--backoff-ms MS] [--inject SPEC]
    fleetd status DIR [--stale-ms N] [--format F]
    fleetd analyze DIR|trace.jsonl [--format F] [--out FILE] [--top N]
    fleetd help

CAMPAIGN FLAGS (spec, plan, run):
    --spec FILE         load a campaign spec (JSON); excludes the flags below
    --scenarios SET     standard | churn | extended      [default: standard]
    --nodes N           internal nodes per tree          [default: 16]
    --count K           instances per scenario           [default: 2]
    --solvers a,b,c     registry solver names            [default: dp_power,greedy_power,heur_power_greedy]
    --reference NAME    gap/speedup baseline             [default: engine preference]
    --seed N            fleet seed                       [default: 991987]
    --batch-jobs N      worker streaming batch size      [default: 64]
    --threads N         worker thread override           [default: machine]
    --cost-bound X      cost budget per solve            [default: unconstrained]
    --budgets a,b,c     budget grid stored in the spec (consumed by
                        `experiments fleet`)

OUTPUT:
    --format F          table | table-det | csv | json | json-det
                        [default: the spec's `output` field, else table]
    --out FILE          write the rendering to FILE instead of stdout

TELEMETRY (work, run, status, analyze):
    --trace FILE        write a JSONL event trace (spans, progress,
                        counters, histograms, supervision events) —
                        strictly out-of-band: deterministic outputs are
                        byte-identical with or without it
    --stale-ms N        `status`: a Running heartbeat older than N ms
                        counts as stale                  [default: 10000]
    --top N             `analyze`: slowest solves to list [default: 10]

`analyze` reads a trace back: give it a trace file, or a run's
--work-dir and it assembles the supervision stream
(`sched.trace.jsonl`, written by every supervised run) plus each
attempt's trace. The report covers phase self/total time, slowest
solves, per-shard retry/steal/stale-kill/fence timelines, slot
occupancy and throughput; malformed lines are reported with their line
numbers, never fatal. `--format table-det`/`json-det` render the same
forensics timing-free for byte-diffable CI runs.

FAULT TOLERANCE (run):
    --max-retries N     retries per shard after its first attempt
                        (attempt generations 0..=N)      [default: 2]
    --slots N           concurrent worker attempts       [default: unbounded]
    --steal             let idle slots claim any eligible shard instead
                        of waiting in strict shard order
    --stale-ms MS       a Running heartbeat older than MS counts as
                        stale: the worker is killed and the shard
                        reassigned                       [default: 10000]
    --backoff-ms MS     retry backoff base; attempt A waits MS×2^A,
                        capped at 5000ms                 [default: 200]
    --inject SPEC       deterministic fault injection (TEST ONLY):
                        kind:shard[.attempt][@cells], kinds
                        kill|hang|truncate|stale, comma-separated —
                        e.g. kill:3@5,hang:7,truncate:2.1. Faults are
                        keyed by (shard, attempt): a fault on attempt 0
                        retries clean on attempt 1.

Every shard attempt gets its own claim / report / heartbeat / stderr /
trace files (`shard-K.aA.*`): a superseded worker that finishes late
can never overwrite its retry's report, and the merge only admits the
scheduler's winning attempt per shard — recovery never perturbs the
deterministic merge. A shard that fails every attempt ends the run
with a typed error naming each dead attempt; use a fresh --work-dir
per run (claims are never recycled).

Workers write `shard-K.aA.hb.json` heartbeats next to their reports;
`fleetd status DIR` renders them (DIR is the run's --work-dir), and
`run` folds them into a live stderr ticker. Legacy flags build a spec
internally and round-trip it through the serializer; `fleetd spec`
prints that JSON. `run` prints the determinism proof (merged vs
single-process digest, cell count, FNV cell checksum) to stderr;
`--no-verify` skips the comparison run.
";

/// Boolean switches (flags without a value).
const SWITCHES: &[&str] = &["--in-process", "--no-verify", "--steal", "--help"];

/// Valued flags accepted per subcommand (a misspelled flag must be an
/// error, not a silently ignored entry that runs the wrong campaign).
/// The campaign flags themselves are the engine's shared CLI grammar
/// ([`CAMPAIGN_FLAG_NAMES`]).
fn allowed_flags(command: &str) -> Option<Vec<&'static str>> {
    let mut allowed: Vec<&'static str> = match command {
        "spec" => vec!["format", "out"],
        "plan" => vec!["shards", "out"],
        "work" => return Some(vec!["plan", "shard", "attempt", "out", "trace", "inject"]),
        "merge" => return Some(vec!["plan", "format", "out"]),
        "status" => return Some(vec!["stale-ms", "format"]),
        "analyze" => return Some(vec!["format", "out", "top"]),
        "run" => vec![
            "shards",
            "format",
            "out",
            "work-dir",
            "trace",
            "max-retries",
            "slots",
            "stale-ms",
            "backoff-ms",
            "inject",
        ],
        _ => return None,
    };
    allowed.extend_from_slice(CAMPAIGN_FLAG_NAMES);
    Some(allowed)
}

/// The most bare arguments `command` takes: the campaign commands take
/// none, `status` and `analyze` one directory or trace, and `merge` any
/// number of report files.
fn max_positional(command: &str) -> usize {
    match command {
        "spec" | "plan" | "work" | "run" => 0,
        "status" | "analyze" => 1,
        _ => usize::MAX,
    }
}

/// Parsed command line: `--flag value` pairs, boolean switches, and
/// positional arguments. A flag or switch may appear once.
#[derive(Debug)]
struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], allowed: Option<&[&str]>) -> Result<Args, FleetdError> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if SWITCHES.contains(&arg.as_str()) {
                if switches.contains(arg) {
                    return Err(FleetdError::Usage(format!("flag {arg} given twice")));
                }
                switches.push(arg.clone());
            } else if let Some(name) = arg.strip_prefix("--") {
                if let Some(allowed) = allowed {
                    if !allowed.contains(&name) {
                        return Err(FleetdError::Usage(format!(
                            "unknown flag --{name} (run `fleetd help` for the accepted flags)"
                        )));
                    }
                }
                let value = iter
                    .next()
                    .ok_or_else(|| FleetdError::Usage(format!("flag --{name} needs a value")))?;
                if flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(FleetdError::Usage(format!("flag --{name} given twice")));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args {
            flags,
            switches,
            positional,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FleetdError> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| FleetdError::Usage(format!("--{name}: cannot parse {text:?}"))),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// The campaign spec this invocation describes: `--spec file.json`, or
/// the legacy flags — the engine's shared CLI grammar
/// ([`CampaignSpec::from_cli`]) — round-tripped through the serializer
/// (so the flag path exercises the exact wire format a spec file uses).
fn spec_from(args: &Args) -> Result<CampaignSpec, FleetdError> {
    let spec = match CampaignSpec::from_cli(&|name| args.get(name)) {
        // Mixing --spec with campaign flags is CLI misuse (exit 2),
        // not a bad campaign description.
        Err(conflict @ SpecError::SpecFlagConflict { .. }) => {
            return Err(FleetdError::Usage(conflict.to_string()))
        }
        other => other.map_err(FleetdError::Spec)?,
    };
    if args.get("spec").is_some() {
        return Ok(spec);
    }
    CampaignSpec::from_json(&spec.to_json()).map_err(FleetdError::Spec)
}

/// Loads/builds and validates the campaign of this invocation.
fn campaign_from(args: &Args, registry: &Registry) -> Result<Campaign, FleetdError> {
    Ok(spec_from(args)?.validate(registry)?)
}

/// Resolves the output format: `--format` when given, the campaign
/// spec's `output` preference otherwise.
fn format_of(args: &Args, campaign: &Campaign) -> Result<OutputFormat, FleetdError> {
    match args.get("format") {
        Some(name) => OutputFormat::parse(name).map_err(FleetdError::Spec),
        None => Ok(campaign.output),
    }
}

/// Writes `text` to `--out` when given, else to stdout.
fn emit(args: &Args, text: &str) -> Result<(), FleetdError> {
    match args.get("out") {
        Some(path) => crate::coordinator::write_text(&PathBuf::from(path), text),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_spec(args: &Args) -> Result<(), FleetdError> {
    let mut spec = spec_from(args)?;
    // --format lands in the emitted spec's `output` field, so a
    // flags-built spec file can carry its preferred rendering (like the
    // committed examples do).
    if let Some(name) = args.get("format") {
        spec.output = Some(OutputFormat::parse(name).map_err(FleetdError::Spec)?);
    }
    // Validation is the whole point of the spec layer: a spec this
    // command emits is guaranteed to load and run.
    let campaign = spec.validate(&Registry::with_all())?;
    eprintln!(
        "spec: {} scenarios × {} instances × {} solvers = {} cells, fingerprint {:016x}",
        campaign.scenarios.len(),
        campaign.instances_per_scenario,
        campaign.solvers.len(),
        campaign.job_count() * campaign.solvers.len(),
        campaign.fingerprint(),
    );
    emit(args, &format!("{}\n", spec.to_json()))
}

fn cmd_plan(args: &Args) -> Result<(), FleetdError> {
    let campaign = campaign_from(args, &Registry::with_all())?;
    let shards = args.parsed("shards", 2usize)?;
    let plan = ShardPlan::new(campaign, shards)?;
    let out = args
        .get("out")
        .ok_or_else(|| FleetdError::Usage("plan needs --out <plan.json>".into()))?
        .to_string();
    write_json(&PathBuf::from(&out), &plan)?;
    eprintln!(
        "planned {} jobs into {} shards ({}), fingerprint {:016x} → {out}",
        plan.campaign.job_count(),
        plan.shards.len(),
        plan.shards
            .iter()
            .map(|s| s.len().to_string())
            .collect::<Vec<_>>()
            .join("+"),
        plan.fingerprint,
    );
    Ok(())
}

/// An [`Sink`] that aborts the process once the progress stream shows
/// enough cells complete — the subprocess half of `kill:K@N`. Exiting
/// without a report or a terminal heartbeat is the point: this *is*
/// the abrupt death the supervisor must recover from.
struct ExitAfterCells {
    after_cells: usize,
    cells_per_job: usize,
}

impl Sink for ExitAfterCells {
    fn emit(&self, event: &Event) {
        if let Event::Progress { done, .. } = event {
            if done * self.cells_per_job >= self.after_cells {
                std::process::exit(101);
            }
        }
    }
}

/// Sleeps forever (well past any plausible staleness threshold) in
/// small slices; the supervisor's stale-kill ends it.
fn sleep_until_killed() {
    loop {
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

fn cmd_work(args: &Args) -> Result<(), FleetdError> {
    let plan_path = args
        .get("plan")
        .ok_or_else(|| FleetdError::Usage("work needs --plan <plan.json>".into()))?;
    let plan: ShardPlan = read_json(&PathBuf::from(plan_path))?;
    let shard: usize = match args.get("shard") {
        Some(text) => text
            .parse()
            .map_err(|_| FleetdError::Usage(format!("--shard: cannot parse {text:?}")))?,
        None => return Err(FleetdError::Usage("work needs --shard <index>".into())),
    };
    let attempt: usize = args.parsed("attempt", 0)?;
    let out = args
        .get("out")
        .ok_or_else(|| FleetdError::Usage("work needs --out <shard.json>".into()))?;
    let fault = match args.get("inject") {
        Some(spec) => FaultPlan::parse(spec)?.fault_for(shard, attempt),
        None => None,
    };

    // Telemetry: a heartbeat file next to the report, plus an optional
    // JSONL trace, fanned into one obs handle. Per-solve span detail is
    // only worth emitting when someone asked for the trace.
    let jobs_total = plan.shards.get(shard).map_or(0, |m| m.len());
    let cells_per_job = plan.campaign.solvers.len();
    let heartbeat_sink = Arc::new(HeartbeatSink::for_attempt(
        heartbeat::path_for_report(Path::new(out)),
        shard,
        attempt,
        jobs_total,
        cells_per_job,
    ));
    let mut sinks: Vec<Arc<dyn Sink>> = vec![heartbeat_sink.clone()];
    let verbosity = match args.get("trace") {
        Some(trace) => {
            let jsonl = JsonlSink::create(Path::new(trace)).map_err(|e| FleetdError::Io {
                path: trace.to_string(),
                message: format!("cannot create trace file: {e}"),
            })?;
            sinks.push(Arc::new(jsonl));
            Verbosity::Solve
        }
        None => Verbosity::Progress,
    };

    // Injected faults, acted out for real: this process genuinely
    // dies / hangs / tears its report — the supervisor sees exactly
    // what a production failure looks like.
    match fault {
        Some(FaultKind::Kill { after_cells }) => {
            if after_cells == 0 {
                std::process::exit(101);
            }
            sinks.push(Arc::new(ExitAfterCells {
                after_cells,
                cells_per_job: cells_per_job.max(1),
            }));
        }
        Some(FaultKind::Hang) => {
            // Stop heartbeating and stop progressing: the starting
            // heartbeat was written, then nothing — Stale, killed.
            heartbeat_sink.freeze();
            sleep_until_killed();
        }
        Some(FaultKind::StaleHeartbeat) => {
            // Freeze the heartbeat but keep living: the coordinator
            // classifies the worker stale and kills it mid-nap. (The
            // in-process runner is where this fault survives to become
            // a true zombie — see coordinator::run_in_process.)
            heartbeat_sink.freeze();
            sleep_until_killed();
        }
        Some(FaultKind::TruncateReport) | None => {}
    }
    let obs = Obs::new(Arc::new(FanoutSink::new(sinks)), verbosity);

    let space = plan.campaign.space();
    let result = worker::run_shard_attempt(&plan, shard, attempt, &space, &obs, None)
        .map(|report| report.expect("no cancel token given"))
        .and_then(|report| {
            if let Some(FaultKind::TruncateReport) = fault {
                // Tear the write the way `kill -9` mid-write would:
                // half the JSON bytes, then exit 0 as if all were well.
                let json = serde_json::to_string(&report).map_err(|e| FleetdError::Io {
                    path: out.to_string(),
                    message: format!("serializing: {e}"),
                })?;
                crate::coordinator::write_text(&PathBuf::from(out), &json[..json.len() / 2])?;
            } else {
                write_json(&PathBuf::from(out), &report)?;
            }
            Ok(report)
        });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            heartbeat_sink.finish(WorkerState::Failed);
            return Err(e);
        }
    };
    heartbeat_sink.finish(WorkerState::Done);
    eprintln!(
        "shard {}/{} attempt {}: jobs {}..{}, {} cells, checksum {:016x} → {out}",
        report.shard,
        report.shard_count,
        report.attempt,
        report.start,
        report.end,
        report.cell_count,
        report.checksum,
    );
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), FleetdError> {
    let plan_path = args
        .get("plan")
        .ok_or_else(|| FleetdError::Usage("merge needs --plan <plan.json>".into()))?;
    let plan: ShardPlan = read_json(&PathBuf::from(plan_path))?;
    if args.positional.is_empty() {
        return Err(FleetdError::Usage(
            "merge needs the shard report files as arguments".into(),
        ));
    }
    let reports: Vec<ShardReport> = args
        .positional
        .iter()
        .map(|p| read_json(&PathBuf::from(p)))
        .collect::<Result<_, _>>()?;
    let merged = merge_reports(&plan, &reports)?;
    eprintln!(
        "merged {} shards: {} cells, checksum {:016x}",
        reports.len(),
        merged.cell_count,
        merged.cell_checksum
    );
    let format = format_of(args, &plan.campaign)?;
    emit(args, &render(&merged, format))
}

fn cmd_run(args: &Args) -> Result<(), FleetdError> {
    let campaign = campaign_from(args, &Registry::with_all())?;
    let format = format_of(args, &campaign)?;
    let shards = args.parsed("shards", 2usize)?;
    let plan = ShardPlan::new(campaign, shards)?;
    let workers = if args.has("--in-process") {
        Workers::InProcess
    } else {
        Workers::current_exe(args.get("work-dir").map(PathBuf::from))?
    };
    eprintln!(
        "running {} jobs × {} solvers over {} shards ({})",
        plan.campaign.job_count(),
        plan.campaign.solvers.len(),
        plan.shards.len(),
        if args.has("--in-process") {
            "in-process"
        } else {
            "one process per shard"
        },
    );
    let defaults = SchedConfig::default();
    let options = RunOptions {
        trace: args.get("trace").map(PathBuf::from),
        live_status: true,
        sched: SchedConfig {
            max_retries: args.parsed("max-retries", defaults.max_retries)?,
            slots: args.parsed("slots", defaults.slots)?,
            steal: args.has("--steal"),
            stale_ms: args.parsed("stale-ms", defaults.stale_ms)?,
            backoff_ms: args.parsed("backoff-ms", defaults.backoff_ms)?,
        },
        faults: match args.get("inject") {
            Some(spec) => FaultPlan::parse(spec)?,
            None => FaultPlan::none(),
        },
    };
    let merged = run_plan_with(&plan, &workers, &options)?;
    if !args.has("--no-verify") {
        eprintln!("{}", prove_against_single_process(&plan, &merged)?);
    }
    emit(args, &render(&merged, format))
}

fn cmd_status(args: &Args) -> Result<(), FleetdError> {
    let dir = args.positional.first().ok_or_else(|| {
        FleetdError::Usage("status needs the run's work directory as an argument".into())
    })?;
    let stale_ms = args.parsed("stale-ms", 10_000u64)?;
    let format = match args.get("format") {
        Some(name) => OutputFormat::parse(name).map_err(FleetdError::Spec)?,
        None => OutputFormat::Table,
    };
    let heartbeats = heartbeat::load_dir(Path::new(dir))?;
    if heartbeats.is_empty() {
        return Err(FleetdError::Protocol(format!(
            "no heartbeat files (*{}) in {dir} — is it a fleetd work directory?",
            heartbeat::HEARTBEAT_SUFFIX
        )));
    }
    print!(
        "{}",
        heartbeat::render_status_as(&heartbeats, heartbeat::now_unix_ms(), stale_ms, format)
    );
    Ok(())
}

/// `fleetd analyze DIR|trace.jsonl`: parse a JSONL trace back into
/// events and render the forensic report. A directory argument means a
/// run's work directory — the supervision stream plus every attempt's
/// trace, assembled exactly as `--trace` would have; a file argument
/// is read as-is.
fn cmd_analyze(args: &Args) -> Result<(), FleetdError> {
    let target = args.positional.first().ok_or_else(|| {
        FleetdError::Usage(
            "analyze needs a trace file or a run's work directory as an argument".into(),
        )
    })?;
    let path = Path::new(target);
    let text = if path.is_dir() {
        assemble_trace_text(path)?
    } else {
        std::fs::read_to_string(path).map_err(|e| FleetdError::Io {
            path: target.clone(),
            message: format!("cannot read trace: {e}"),
        })?
    };
    let trace = Trace::parse(&text);
    if trace.lines.is_empty() && trace.errors.is_empty() {
        return Err(FleetdError::Protocol(format!(
            "no trace lines in {target} — was the run traced (or supervised)?"
        )));
    }
    let top = args.parsed("top", 10usize)?;
    let analysis = Analysis::with_top(&trace, top);
    let format = match args.get("format") {
        Some(name) => OutputFormat::parse(name).map_err(FleetdError::Spec)?,
        None => OutputFormat::Table,
    };
    emit(args, &render_analysis(&analysis, format))
}

/// Entry point: returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let parsed = Args::parse(rest, allowed_flags(command).as_deref()).and_then(|args| {
        match args.positional.get(max_positional(command)) {
            Some(stray) => Err(FleetdError::Usage(format!(
                "unexpected argument {stray:?} (run `fleetd help` for the usage)"
            ))),
            None => Ok(args),
        }
    });
    let parsed = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fleetd: {e}");
            return e.exit_code();
        }
    };
    if parsed.has("--help") {
        eprint!("{USAGE}");
        return 0;
    }
    let result = match command.as_str() {
        "spec" => cmd_spec(&parsed),
        "plan" => cmd_plan(&parsed),
        "work" => cmd_work(&parsed),
        "merge" => cmd_merge(&parsed),
        "run" => cmd_run(&parsed),
        "status" => cmd_status(&parsed),
        "analyze" => cmd_analyze(&parsed),
        "help" | "--help" | "-h" => {
            eprint!("{USAGE}");
            return 0;
        }
        other => {
            eprintln!("fleetd: unknown command {other:?}\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleetd: {e}");
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_switches_and_positionals() {
        let args = Args::parse(
            &[
                "--plan".into(),
                "p.json".into(),
                "a.json".into(),
                "--in-process".into(),
                "b.json".into(),
            ],
            allowed_flags("merge").as_deref(),
        )
        .unwrap();
        assert_eq!(args.get("plan"), Some("p.json"));
        assert!(args.has("--in-process"));
        assert_eq!(args.positional, vec!["a.json", "b.json"]);
        assert!(
            Args::parse(&["--plan".into()], None).is_err(),
            "value missing"
        );
    }

    #[test]
    fn unknown_and_misspelled_flags_are_rejected() {
        // `--shard` is a `work` flag; on `run` the correct one is
        // `--shards` — the typo must fail, not silently run 2 shards.
        let err = Args::parse(
            &["--shard".into(), "4".into()],
            allowed_flags("run").as_deref(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown flag --shard"), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(Args::parse(
            &["--scenario".into(), "churn".into()],
            allowed_flags("plan").as_deref(),
        )
        .is_err());
        // The same flag is fine where it belongs.
        assert!(Args::parse(
            &["--shard".into(), "4".into()],
            allowed_flags("work").as_deref(),
        )
        .is_ok());
        // End to end: exit code 2, nothing runs.
        assert_eq!(
            main(vec!["run".into(), "--shard".into(), "4".into()]),
            2,
            "typoed flag must be a usage error"
        );
        // A repeated flag or switch is an error naming it, not a
        // silent last-one-wins.
        for (tokens, flag) in [
            (&["--seed", "3", "--seed", "4"][..], "--seed"),
            (&["--steal", "--in-process", "--steal"], "--steal"),
        ] {
            let tokens: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
            let err = Args::parse(&tokens, allowed_flags("run").as_deref()).unwrap_err();
            assert!(
                err.to_string().contains(&format!("{flag} given twice")),
                "{err}"
            );
            assert_eq!(err.exit_code(), 2);
        }
        // A bare token where the command takes none, or one too many,
        // is a usage error too; so is a repeated flag, end to end.
        let cheap = "--scenarios standard --nodes 10 --count 1 --solvers greedy \
                     --in-process --no-verify";
        for line in [
            format!("run stray {cheap}"),
            format!("run {cheap} --seed 3 --seed 4"),
            "spec stray --scenarios standard".to_string(),
            "status dir other".to_string(),
            "analyze trace.jsonl other".to_string(),
        ] {
            let tokens = line.split_whitespace().map(str::to_string).collect();
            assert_eq!(main(tokens), 2, "{line}");
        }
    }

    #[test]
    fn campaign_flags_apply_through_the_spec_round_trip() {
        let args = Args::parse(
            &[
                "--scenarios".into(),
                "churn".into(),
                "--nodes".into(),
                "10".into(),
                "--count".into(),
                "3".into(),
                "--solvers".into(),
                "dp_power,greedy_power".into(),
                "--seed".into(),
                "7".into(),
                "--threads".into(),
                "2".into(),
            ],
            allowed_flags("run").as_deref(),
        )
        .unwrap();
        let campaign = campaign_from(&args, &Registry::with_all()).unwrap();
        assert_eq!(campaign.scenarios.len(), 15);
        assert_eq!(campaign.instances_per_scenario, 3);
        assert_eq!(campaign.solvers, vec!["dp_power", "greedy_power"]);
        assert_eq!(campaign.seed, 7);
        assert_eq!(campaign.threads, Some(2));
        assert!(campaign.cost_bound.is_none());
    }

    #[test]
    fn solver_typo_fails_validation_with_a_suggestion() {
        let args = Args::parse(
            &["--solvers".into(), "dp_pwoer".into()],
            allowed_flags("run").as_deref(),
        )
        .unwrap();
        let err = campaign_from(&args, &Registry::with_all()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("did you mean `dp_power`?"), "{message}");
        assert_eq!(err.exit_code(), 1);
        // End to end: the run exits 1 before any job starts.
        assert_eq!(
            main(vec![
                "run".into(),
                "--solvers".into(),
                "dp_pwoer".into(),
                "--in-process".into(),
            ]),
            1
        );
    }

    #[test]
    fn spec_flag_excludes_campaign_flags() {
        let args = Args::parse(
            &[
                "--spec".into(),
                "c.json".into(),
                "--seed".into(),
                "7".into(),
            ],
            allowed_flags("run").as_deref(),
        )
        .unwrap();
        let err = campaign_from(&args, &Registry::with_all()).unwrap_err();
        assert_eq!(
            err.exit_code(),
            2,
            "mixing --spec and flags is a usage error"
        );
        assert!(err.to_string().contains("--spec"), "{err}");
    }

    #[test]
    fn missing_spec_file_is_an_io_error() {
        let args = Args::parse(
            &["--spec".into(), "/nonexistent/campaign.json".into()],
            allowed_flags("run").as_deref(),
        )
        .unwrap();
        let err = campaign_from(&args, &Registry::with_all()).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(matches!(
            err,
            FleetdError::Spec(replica_engine::SpecError::Io { .. })
        ));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert_eq!(main(vec!["frobnicate".into()]), 2);
        assert_eq!(main(vec![]), 2);
    }
}
