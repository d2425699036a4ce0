//! Output renderings of a [`FleetReport`]: ASCII tables, CSV and JSON,
//! each with a deterministic, timing-free variant suitable for
//! byte-level diffing between runs (and, through `replica-fleetd`,
//! between sharded and single-process executions).
//!
//! [`OutputFormat`] is also a field of the declarative campaign spec
//! ([`crate::spec::CampaignSpec`]): a spec names its preferred rendering
//! with the same labels the CLIs accept (`table`, `table-det`, `csv`,
//! `json`, `json-det`), and serializes as that label.
//!
//! The same five labels render trace forensics too:
//! [`render_analysis`] turns an [`Analysis`] (the digest `replica-obs`
//! computes from a parsed JSONL trace — phase profiles, slowest solves,
//! supervision timelines) into the matching report; the `-det` variants
//! drop every wall-clock-derived number so CI can byte-diff forensic
//! reports across runs.

use crate::fleet::{FleetReport, FleetSummary};
use crate::obs::{Analysis, AttemptEvent, SchedOp, ShardTimeline, Stats};
use crate::spec::{did_you_mean, SpecError};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// A rendering of a fleet report, addressable by CLI/spec label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum OutputFormat {
    /// Aligned ASCII table, timing columns included (label `table`).
    #[default]
    Table,
    /// Aligned ASCII table, deterministic columns only (`table-det`).
    TableDeterministic,
    /// CSV, one row per `(scenario, solver)` group, P² percentile
    /// columns included; the timing columns come last (`csv`).
    Csv,
    /// Compact JSON document of the full report (`json`).
    Json,
    /// Compact JSON document without the timing fields — byte-diffable
    /// across runs and shardings (`json-det`).
    JsonDeterministic,
}

impl OutputFormat {
    /// Every format, in documentation order.
    pub const ALL: [OutputFormat; 5] = [
        OutputFormat::Table,
        OutputFormat::TableDeterministic,
        OutputFormat::Csv,
        OutputFormat::Json,
        OutputFormat::JsonDeterministic,
    ];

    /// The CLI/spec label of this format.
    pub fn label(self) -> &'static str {
        match self {
            OutputFormat::Table => "table",
            OutputFormat::TableDeterministic => "table-det",
            OutputFormat::Csv => "csv",
            OutputFormat::Json => "json",
            OutputFormat::JsonDeterministic => "json-det",
        }
    }

    /// Parses a CLI/spec format label, with a nearest-name suggestion on
    /// a miss.
    pub fn parse(name: &str) -> Result<OutputFormat, SpecError> {
        OutputFormat::ALL
            .into_iter()
            .find(|f| f.label() == name)
            .ok_or_else(|| SpecError::UnknownFormat {
                got: name.to_string(),
                suggestion: did_you_mean(name, OutputFormat::ALL.iter().map(|f| f.label()))
                    .map(str::to_string),
            })
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<OutputFormat> for String {
    fn from(format: OutputFormat) -> String {
        format.label().to_string()
    }
}

impl TryFrom<String> for OutputFormat {
    type Error = SpecError;

    fn try_from(name: String) -> Result<OutputFormat, SpecError> {
        OutputFormat::parse(&name)
    }
}

/// Renders `report` in the requested format.
pub fn render(report: &FleetReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => report.table(),
        OutputFormat::TableDeterministic => report.table_deterministic(),
        OutputFormat::Csv => csv(report),
        OutputFormat::Json => json(report, true),
        OutputFormat::JsonDeterministic => json(report, false),
    }
}

/// One CSV field as RFC 4180 writes it: wrapped in `"` with every inner
/// `"` doubled when it holds a `,`, a `"` or a line break, as is
/// otherwise. Scenario names come from spec files and may hold any of
/// them.
pub fn csv_field(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// CSV rendering: every deterministic aggregate — including the P²
/// p50/p90 percentile columns for power, cost and gap — then the
/// non-deterministic timing columns last.
pub fn csv(report: &FleetReport) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario,solver,solved,failed,unsupported,\
         power_mean,power_p50,power_p90,power_min,power_max,\
         cost_mean,cost_p50,cost_p90,\
         servers_mean,gap_mean,gap_p50,gap_p90,\
         ms_per_solve,ms_p90,speedup_vs_ref\n",
    );
    for s in &report.summaries {
        let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.6}"));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.4},{},{},{},{:.4},{:.4},{}",
            csv_field(&s.scenario),
            s.solver,
            s.solved,
            s.failed,
            s.unsupported,
            s.power.mean,
            s.power.p50,
            s.power.p90,
            s.power.min,
            s.power.max,
            s.cost.mean,
            s.cost.p50,
            s.cost.p90,
            s.mean_servers,
            opt(s.power_gap_vs_ref),
            opt(s.gap_vs_ref.map(|g| g.p50)),
            opt(s.gap_vs_ref.map(|g| g.p90)),
            s.mean_wall_seconds * 1e3,
            s.wall.p90 * 1e3,
            opt(s.speedup_vs_ref),
        );
    }
    out
}

/// Serializable mirror of one summary row.
#[derive(Serialize)]
struct SummaryDoc {
    scenario: String,
    solver: String,
    solved: usize,
    failed: usize,
    unsupported: usize,
    cost: Stats,
    power: Stats,
    mean_servers: f64,
    power_gap_vs_ref: Option<f64>,
    gap_vs_ref: Option<Stats>,
    mean_wall_seconds: Option<f64>,
    wall: Option<Stats>,
    speedup_vs_ref: Option<f64>,
    speedup_dist: Option<Stats>,
}

/// Serializable mirror of a report.
#[derive(Serialize)]
struct ReportDoc {
    cell_count: usize,
    cell_checksum: String,
    summaries: Vec<SummaryDoc>,
}

/// Compact JSON; `timing = false` drops every wall-clock-derived field,
/// making the document a pure function of the fleet seed.
pub fn json(report: &FleetReport, timing: bool) -> String {
    let doc = ReportDoc {
        cell_count: report.cell_count,
        cell_checksum: format!("{:016x}", report.cell_checksum),
        summaries: report.summaries.iter().map(|s| doc_of(s, timing)).collect(),
    };
    serde_json::to_string(&doc).expect("report serialization cannot fail")
}

fn doc_of(s: &FleetSummary, timing: bool) -> SummaryDoc {
    SummaryDoc {
        scenario: s.scenario.clone(),
        solver: s.solver.to_string(),
        solved: s.solved,
        failed: s.failed,
        unsupported: s.unsupported,
        cost: s.cost,
        power: s.power,
        mean_servers: s.mean_servers,
        power_gap_vs_ref: s.power_gap_vs_ref,
        gap_vs_ref: s.gap_vs_ref,
        mean_wall_seconds: timing.then_some(s.mean_wall_seconds),
        wall: timing.then_some(s.wall),
        speedup_vs_ref: if timing { s.speedup_vs_ref } else { None },
        speedup_dist: if timing { s.speedup_dist } else { None },
    }
}

// ---------------------------------------------------------------------------
// Trace forensics rendering
// ---------------------------------------------------------------------------

/// Renders a trace [`Analysis`] in the requested format. The `-det`
/// variants omit every wall-clock-derived number (span durations,
/// timestamps, backoff gates, throughput, slot occupancy) and put the
/// supervision timeline into canonical `(attempt, op)` order, so two
/// runs of the same deterministic fault schedule render byte-identical
/// reports.
pub fn render_analysis(analysis: &Analysis, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => analysis_table(analysis, true),
        OutputFormat::TableDeterministic => analysis_table(analysis, false),
        OutputFormat::Csv => analysis_csv(analysis),
        OutputFormat::Json => analysis_json(analysis, true),
        OutputFormat::JsonDeterministic => analysis_json(analysis, false),
    }
}

/// The rank of `op` in [`SchedOp::ALL`] — the canonical within-attempt
/// event order (claim before launch/steal before settle).
fn op_rank(op: SchedOp) -> usize {
    SchedOp::ALL
        .iter()
        .position(|o| *o == op)
        .unwrap_or(usize::MAX)
}

/// A shard's events for rendering: trace order with timing, canonical
/// `(attempt, op)` order without (wall-clock interleaving across shards
/// must not leak into a deterministic report).
fn timeline_events(shard: &ShardTimeline, timing: bool) -> Vec<AttemptEvent> {
    let mut events = shard.events.clone();
    if !timing {
        events.sort_by_key(|e| (e.attempt, op_rank(e.op)));
    }
    events
}

fn timeline_entry(event: &AttemptEvent, timing: bool) -> String {
    let mut entry = format!("a{} {}", event.attempt, event.op);
    if timing {
        if let Some(gate) = event.not_before_ms {
            let _ = write!(entry, "(not before {gate}ms)");
        }
    }
    entry
}

fn outcome_label(outcome: Option<SchedOp>) -> &'static str {
    match outcome {
        Some(SchedOp::Done) => "done",
        Some(SchedOp::Exhausted) => "exhausted",
        _ => "in-flight",
    }
}

fn analysis_table(analysis: &Analysis, timing: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace      {} lines parsed, {} malformed, {} unmatched span(s)",
        analysis.parsed_lines,
        analysis.malformed.len(),
        analysis.unmatched_spans
    );
    let kinds: Vec<String> = analysis
        .kind_counts
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    let _ = writeln!(out, "events     {}", kinds.join(" "));
    for error in &analysis.malformed {
        let _ = writeln!(out, "  ! {error}");
    }

    if !analysis.phases.is_empty() {
        out.push_str("\nphase profile\n");
        if timing {
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>6} {:>12} {:>12}",
                "phase", "count", "open", "total_ms", "self_ms"
            );
            let mut phases: Vec<_> = analysis.phases.iter().collect();
            phases.sort_by(|a, b| {
                b.total_micros
                    .cmp(&a.total_micros)
                    .then_with(|| a.name.cmp(&b.name))
            });
            for p in phases {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>7} {:>6} {:>12.3} {:>12.3}",
                    p.name,
                    p.count,
                    p.open,
                    p.total_micros as f64 / 1e3,
                    p.self_micros as f64 / 1e3
                );
            }
        } else {
            let _ = writeln!(out, "  {:<14} {:>7} {:>6}", "phase", "count", "open");
            for p in &analysis.phases {
                let _ = writeln!(out, "  {:<14} {:>7} {:>6}", p.name, p.count, p.open);
            }
        }
    }

    if timing && !analysis.slowest.is_empty() {
        out.push_str("\nslowest solves\n");
        let _ = writeln!(out, "  {:>4} {:>12} {:<8} label", "rank", "ms", "where");
        for (i, solve) in analysis.slowest.iter().enumerate() {
            let place = solve
                .provenance
                .map_or("-".to_string(), |(s, a)| format!("{s}/a{a}"));
            let _ = writeln!(
                out,
                "  {:>4} {:>12.3} {:<8} {}",
                i + 1,
                solve.micros as f64 / 1e3,
                place,
                solve.label
            );
        }
    }

    if !analysis.sched.is_empty() {
        out.push_str("\nsupervision\n");
        let _ = writeln!(
            out,
            "  {:>5} {:>8} {:>7} {:>6} {:>11} {:>6}  outcome",
            "shard", "launches", "retries", "steals", "stale-kills", "fenced"
        );
        for shard in &analysis.sched.shards {
            let _ = writeln!(
                out,
                "  {:>5} {:>8} {:>7} {:>6} {:>11} {:>6}  {}",
                shard.shard,
                shard.launches,
                shard.retries,
                shard.steals,
                shard.stale_kills,
                shard.fence_rejects,
                outcome_label(shard.outcome)
            );
        }
        out.push_str("  timeline\n");
        for shard in &analysis.sched.shards {
            let entries: Vec<String> = timeline_events(shard, timing)
                .iter()
                .map(|e| timeline_entry(e, timing))
                .collect();
            let _ = writeln!(out, "    shard {}: {}", shard.shard, entries.join(", "));
        }
        if timing {
            if let Some(util) = &analysis.sched.utilization {
                let _ = writeln!(
                    out,
                    "  slots      peak {}, avg {:.2}, busy {} ms over {} ms",
                    util.max_concurrent, util.avg_concurrent, util.busy_ms, util.window_ms
                );
            }
        }
    }

    if !analysis.counters.is_empty() {
        out.push_str("\ncounters\n");
        for (name, value) in &analysis.counters {
            let _ = writeln!(out, "  {name:<24} {value}");
        }
    }

    if !analysis.histograms.is_empty() {
        out.push_str("\nhistograms\n");
        if timing {
            let _ = writeln!(
                out,
                "  {:<40} {:>5} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "name", "unit", "count", "mean", "p50", "p90", "p99"
            );
            for h in &analysis.histograms {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>5} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    h.name,
                    h.unit,
                    h.stats.count,
                    h.stats.mean,
                    h.stats.p50,
                    h.stats.p90,
                    h.stats.p99
                );
            }
        } else {
            let _ = writeln!(out, "  {:<40} {:>5} {:>7}", "name", "unit", "count");
            for h in &analysis.histograms {
                let _ = writeln!(out, "  {:<40} {:>5} {:>7}", h.name, h.unit, h.stats.count);
            }
        }
    }

    if timing && !analysis.throughput.is_empty() {
        let last = &analysis.throughput[analysis.throughput.len() - 1];
        let peak = analysis
            .throughput
            .iter()
            .map(|p| p.jobs_per_sec)
            .fold(0.0_f64, f64::max);
        let _ = writeln!(
            out,
            "\nthroughput {} points, last {}/{} jobs, peak {:.1} jobs/s",
            analysis.throughput.len(),
            last.done,
            last.total,
            peak
        );
    }
    out
}

/// Long-format CSV: `section,key,field,value` rows covering every
/// section of the forensic report (timing fields included — CSV has no
/// `-det` variant, matching the fleet-report convention that timing
/// columns are part of `csv`).
fn analysis_csv(analysis: &Analysis) -> String {
    let mut out = String::from("section,key,field,value\n");
    let mut row = |section: &str, key: &str, field: &str, value: String| {
        out.push_str(&format!(
            "{},{},{},{}\n",
            csv_field(section),
            csv_field(key),
            csv_field(field),
            csv_field(&value)
        ));
    };
    row(
        "trace",
        "lines",
        "parsed",
        analysis.parsed_lines.to_string(),
    );
    row(
        "trace",
        "lines",
        "malformed",
        analysis.malformed.len().to_string(),
    );
    row(
        "trace",
        "spans",
        "unmatched",
        analysis.unmatched_spans.to_string(),
    );
    for (kind, n) in &analysis.kind_counts {
        row("events", kind, "count", n.to_string());
    }
    for p in &analysis.phases {
        row("phase", &p.name, "count", p.count.to_string());
        row("phase", &p.name, "open", p.open.to_string());
        row("phase", &p.name, "total_micros", p.total_micros.to_string());
        row("phase", &p.name, "self_micros", p.self_micros.to_string());
    }
    for (i, solve) in analysis.slowest.iter().enumerate() {
        let key = (i + 1).to_string();
        row("slowest", &key, "label", solve.label.clone());
        row("slowest", &key, "micros", solve.micros.to_string());
    }
    for (name, value) in &analysis.counters {
        row("counter", name, "value", value.to_string());
    }
    for shard in &analysis.sched.shards {
        let key = shard.shard.to_string();
        row("shard", &key, "launches", shard.launches.to_string());
        row("shard", &key, "retries", shard.retries.to_string());
        row("shard", &key, "steals", shard.steals.to_string());
        row("shard", &key, "stale_kills", shard.stale_kills.to_string());
        row(
            "shard",
            &key,
            "fence_rejects",
            shard.fence_rejects.to_string(),
        );
        row(
            "shard",
            &key,
            "outcome",
            outcome_label(shard.outcome).to_string(),
        );
        for (i, event) in shard.events.iter().enumerate() {
            row(
                "timeline",
                &key,
                &i.to_string(),
                timeline_entry(event, true),
            );
        }
    }
    for p in &analysis.throughput {
        row(
            "throughput",
            &p.done.to_string(),
            "jobs_per_sec",
            format!("{:.3}", p.jobs_per_sec),
        );
    }
    out
}

fn analysis_json(analysis: &Analysis, timing: bool) -> String {
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let int = |n: usize| Value::Int(n as i128);
    let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, |n| Value::Int(n as i128));
    let phases = analysis
        .phases
        .iter()
        .map(|p| {
            object(vec![
                ("name", Value::Str(p.name.clone())),
                ("count", int(p.count)),
                ("open", int(p.open)),
                (
                    "total_micros",
                    if timing {
                        Value::Int(p.total_micros as i128)
                    } else {
                        Value::Null
                    },
                ),
                (
                    "self_micros",
                    if timing {
                        Value::Int(p.self_micros as i128)
                    } else {
                        Value::Null
                    },
                ),
            ])
        })
        .collect();
    // Ranked-by-duration sections are wall-clock-derived through and
    // through; the det document keeps the keys but empties them.
    let slowest = if timing {
        analysis
            .slowest
            .iter()
            .map(|s| {
                object(vec![
                    ("label", Value::Str(s.label.clone())),
                    ("micros", Value::Int(s.micros as i128)),
                    ("shard", opt_u64(s.provenance.map(|(sh, _)| sh as u64))),
                    ("attempt", opt_u64(s.provenance.map(|(_, a)| a as u64))),
                ])
            })
            .collect()
    } else {
        Vec::new()
    };
    let throughput = if timing {
        analysis
            .throughput
            .iter()
            .map(|p| {
                object(vec![
                    ("done", int(p.done)),
                    ("total", int(p.total)),
                    ("jobs_per_sec", Value::Float(p.jobs_per_sec)),
                ])
            })
            .collect()
    } else {
        Vec::new()
    };
    let histograms = analysis
        .histograms
        .iter()
        .map(|h| {
            let mut fields = vec![
                ("name", Value::Str(h.name.clone())),
                ("unit", Value::Str(h.unit.clone())),
                ("count", int(h.stats.count)),
            ];
            if timing {
                fields.push(("mean", Value::Float(h.stats.mean)));
                fields.push(("p50", Value::Float(h.stats.p50)));
                fields.push(("p90", Value::Float(h.stats.p90)));
                fields.push(("p99", Value::Float(h.stats.p99)));
            }
            object(fields)
        })
        .collect();
    let shards = analysis
        .sched
        .shards
        .iter()
        .map(|shard| {
            let timeline = timeline_events(shard, timing)
                .iter()
                .map(|e| {
                    let mut fields = vec![
                        ("attempt", int(e.attempt)),
                        ("op", Value::Str(e.op.to_string())),
                    ];
                    if timing {
                        fields.push(("not_before_ms", opt_u64(e.not_before_ms)));
                        fields.push(("ts_ms", opt_u64(e.ts_ms)));
                    }
                    object(fields)
                })
                .collect();
            object(vec![
                ("shard", int(shard.shard)),
                ("launches", int(shard.launches)),
                ("retries", int(shard.retries)),
                ("steals", int(shard.steals)),
                ("stale_kills", int(shard.stale_kills)),
                ("fence_rejects", int(shard.fence_rejects)),
                (
                    "outcome",
                    Value::Str(outcome_label(shard.outcome).to_string()),
                ),
                ("timeline", Value::Array(timeline)),
            ])
        })
        .collect();
    let utilization = match (&analysis.sched.utilization, timing) {
        (Some(util), true) => object(vec![
            ("max_concurrent", int(util.max_concurrent)),
            ("avg_concurrent", Value::Float(util.avg_concurrent)),
            ("busy_ms", Value::Int(util.busy_ms as i128)),
            ("window_ms", Value::Int(util.window_ms as i128)),
        ]),
        _ => Value::Null,
    };
    let doc = object(vec![
        ("parsed_lines", int(analysis.parsed_lines)),
        (
            "malformed",
            Value::Array(
                analysis
                    .malformed
                    .iter()
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ),
        (
            "events",
            Value::Object(
                analysis
                    .kind_counts
                    .iter()
                    .map(|(kind, n)| (kind.clone(), int(*n)))
                    .collect(),
            ),
        ),
        ("unmatched_spans", int(analysis.unmatched_spans)),
        ("phases", Value::Array(phases)),
        ("slowest_solves", Value::Array(slowest)),
        ("batches", int(analysis.batches.len())),
        ("throughput", Value::Array(throughput)),
        (
            "counters",
            Value::Object(
                analysis
                    .counters
                    .iter()
                    .map(|(name, value)| (name.clone(), Value::Int(*value as i128)))
                    .collect(),
            ),
        ),
        ("histograms", Value::Array(histograms)),
        (
            "sched",
            object(vec![
                (
                    "ops",
                    Value::Object(
                        analysis
                            .sched
                            .op_totals
                            .iter()
                            .map(|(op, n)| (op.to_string(), int(*n)))
                            .collect(),
                    ),
                ),
                ("shards", Value::Array(shards)),
                ("utilization", utilization),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("analysis serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::obs::Obs;
    use crate::registry::Registry;
    use crate::scenarios::{Demand, Scenario, Topology};
    use crate::spec::CampaignSpec;

    fn report() -> FleetReport {
        let registry = Registry::with_all();
        let campaign = CampaignSpec::builder()
            .scenarios([
                Scenario::new(Topology::High, Demand::Uniform, 12),
                Scenario::new(Topology::Star, Demand::Skewed, 12),
            ])
            .instances_per_scenario(2)
            .seed(2)
            .solvers(["dp_power", "greedy_power"])
            .validate(&registry)
            .unwrap();
        Fleet::new(&registry, &campaign)
            .unwrap()
            .run(&campaign.space(), &Obs::noop())
    }

    #[test]
    fn formats_parse_and_render() {
        let report = report();
        for (name, needle) in [
            ("table", "ms/solve"),
            ("table-det", "gap_vs_ref"),
            ("csv", "power_p50"),
            ("json", "cell_checksum"),
            ("json-det", "cell_checksum"),
        ] {
            let format = OutputFormat::parse(name).unwrap();
            assert_eq!(format.label(), name, "label round-trips");
            let text = render(&report, format);
            assert!(text.contains(needle), "{name} must contain {needle}");
        }
        match OutputFormat::parse("tabel") {
            Err(SpecError::UnknownFormat { got, suggestion }) => {
                assert_eq!(got, "tabel");
                assert_eq!(suggestion.as_deref(), Some("table"));
            }
            other => panic!("expected UnknownFormat, got {other:?}"),
        }
        assert!(OutputFormat::parse("yaml").is_err());
    }

    #[test]
    fn format_serde_uses_cli_labels() {
        let json = serde_json::to_string(&OutputFormat::JsonDeterministic).unwrap();
        assert_eq!(json, "\"json-det\"");
        let back: OutputFormat = serde_json::from_str(&json).unwrap();
        assert_eq!(back, OutputFormat::JsonDeterministic);
        assert!(serde_json::from_str::<OutputFormat>("\"nope\"").is_err());
    }

    #[test]
    fn deterministic_json_has_no_timing() {
        let report = report();
        let det = render(&report, OutputFormat::JsonDeterministic);
        assert!(!det.contains("mean_wall_seconds\":0."), "no wall values");
        assert!(det.contains("\"mean_wall_seconds\":null"));
        let full = render(&report, OutputFormat::Json);
        assert!(full.contains("\"mean_wall_seconds\":"));
    }

    #[test]
    fn csv_has_one_row_per_group_plus_header() {
        let report = report();
        let csv = render(&report, OutputFormat::Csv);
        assert_eq!(csv.lines().count(), 1 + report.summaries.len());
        assert!(csv.starts_with("scenario,solver"));
    }

    #[test]
    fn csv_quotes_a_scenario_name_with_commas_and_quotes() {
        let registry = Registry::with_all();
        let mut scenario = Scenario::new(Topology::Star, Demand::Drifting, 12);
        scenario.name = r#"star, drifting "hot""#.into();
        let campaign = CampaignSpec::builder()
            .scenarios([scenario])
            .instances_per_scenario(1)
            .solvers(["dp_power", "greedy_power"])
            .validate(&registry)
            .unwrap();
        let report = Fleet::new(&registry, &campaign)
            .unwrap()
            .run(&campaign.space(), &Obs::noop());
        let csv = render(&report, OutputFormat::Csv);
        assert!(csv.contains(r#""star, drifting ""hot""","#), "{csv}");
        // Every record splits into the header's 20 fields (a doubled
        // quote toggles twice, so only field separators are counted).
        assert_eq!(csv.lines().count(), 1 + 2);
        for line in csv.lines() {
            let (mut fields, mut quoted) = (1, false);
            for c in line.chars() {
                match c {
                    '"' => quoted = !quoted,
                    ',' if !quoted => fields += 1,
                    _ => {}
                }
            }
            assert_eq!(fields, 20, "{line}");
        }
    }

    fn forensic_analysis() -> Analysis {
        use crate::obs::{Event, SchedOp, Trace};
        let sched = |op, shard, attempt, ts| {
            Event::Sched {
                op,
                shard,
                attempt,
                not_before_ms: (op == SchedOp::Retry).then_some(ts + 100),
            }
            .to_json_line(Some(ts))
        };
        let text = [
            sched(SchedOp::Claim, 0, 0, 10),
            sched(SchedOp::Launch, 0, 0, 10),
            sched(SchedOp::Retry, 0, 0, 60),
            sched(SchedOp::Claim, 1, 0, 70),
            sched(SchedOp::Steal, 1, 0, 70),
            sched(SchedOp::Done, 1, 0, 200),
            sched(SchedOp::Claim, 0, 1, 210),
            sched(SchedOp::Launch, 0, 1, 210),
            sched(SchedOp::Done, 0, 1, 400),
            Event::ShardSegment {
                shard: 0,
                attempt: 1,
            }
            .to_json_line(Some(400)),
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "solve".into(),
                label: "high/uniform-12#0 dp_power".into(),
            }
            .to_json_line(Some(401)),
            Event::SpanEnd {
                id: 1,
                name: "solve".into(),
                label: "high/uniform-12#0 dp_power".into(),
                micros: 1234,
            }
            .to_json_line(Some(402)),
            Event::Counter {
                name: "cells_solved".into(),
                value: 4,
            }
            .to_json_line(Some(402)),
        ]
        .join("\n");
        Analysis::of(&Trace::parse(&text))
    }

    #[test]
    fn analysis_renders_in_every_format() {
        let analysis = forensic_analysis();
        for (name, needle) in [
            ("table", "supervision"),
            ("table-det", "supervision"),
            ("csv", "section,key,field,value"),
            ("json", "\"sched\":"),
            ("json-det", "\"sched\":"),
        ] {
            let text = render_analysis(&analysis, OutputFormat::parse(name).unwrap());
            assert!(text.contains(needle), "{name} must contain {needle}");
        }
        let table = render_analysis(&analysis, OutputFormat::Table);
        assert!(table.contains("slowest solves"), "{table}");
        assert!(table.contains("a0 retry(not before 160ms)"), "{table}");
        assert!(table.contains("a0 steal"), "{table}");
        assert!(table.contains("slots      peak"), "{table}");
    }

    #[test]
    fn deterministic_analysis_report_is_timing_free() {
        let analysis = forensic_analysis();
        let det = render_analysis(&analysis, OutputFormat::TableDeterministic);
        assert!(!det.contains("ms"), "no milliseconds anywhere: {det}");
        assert!(!det.contains("slowest"), "{det}");
        assert!(det.contains("a0 retry, a1 claim"), "canonical order: {det}");
        let det_json = render_analysis(&analysis, OutputFormat::JsonDeterministic);
        assert!(!det_json.contains("micros\":1"), "{det_json}");
        assert!(!det_json.contains("ts_ms"), "{det_json}");
        assert!(det_json.contains("\"utilization\":null"), "{det_json}");
        // Same analysis → byte-identical det renderings.
        assert_eq!(
            det_json,
            render_analysis(&forensic_analysis(), OutputFormat::JsonDeterministic)
        );
    }
}
