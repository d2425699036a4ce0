//! Every report this workspace prints — fleet aggregates, trace
//! forensics, `fleetd status`, `placed` epochs and the `experiments`
//! tables — is rows of [`Field`]s, written by three renderers:
//! [`text_table`], [`csv_table`] and [`json_row`]. A field carries its
//! column name (the table header, the CSV header and the JSON key), its
//! JSON value, its table/CSV text, and a timing flag. The deterministic
//! formats (`table-det`, `json-det`) render the same rows with every
//! timing field dropped ([`OutputFormat::keeps_timing`]), so they are
//! timing-free by construction and byte-diffable between runs (and,
//! through `replica-fleetd`, between sharded and single-process
//! executions).
//!
//! [`OutputFormat`] is also a field of the declarative campaign spec
//! ([`crate::spec::CampaignSpec`]): a spec names its preferred rendering
//! with the same labels the CLIs accept (`table`, `table-det`, `csv`,
//! `json`, `json-det`), and serializes as that label.
//!
//! [`render`] renders a [`FleetReport`]; [`render_analysis`] renders an
//! [`Analysis`] (the digest `replica-obs` computes from a parsed JSONL
//! trace — phase profiles, slowest solves, supervision timelines) as
//! the matching forensic report.

use crate::fleet::{FleetReport, FleetSummary};
use crate::obs::{Analysis, SchedOp, ShardTimeline};
use crate::spec::{did_you_mean, SpecError};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// A rendering of a report, addressable by CLI/spec label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum OutputFormat {
    /// Aligned ASCII table, timing columns included (label `table`).
    #[default]
    Table,
    /// Aligned ASCII table, deterministic columns only (`table-det`).
    TableDeterministic,
    /// CSV, timing columns included (`csv`).
    Csv,
    /// Compact JSON, timing fields included (`json`).
    Json,
    /// Compact JSON without the timing fields — byte-diffable across
    /// runs and shardings (`json-det`).
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

    /// Whether this format renders timing fields: `table`, `csv` and
    /// `json` do, the `-det` formats do not. The one det rule.
    pub fn keeps_timing(self) -> bool {
        !matches!(
            self,
            OutputFormat::TableDeterministic | OutputFormat::JsonDeterministic
        )
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

// ---------------------------------------------------------------------------
// The document model: rows of fields, three renderers
// ---------------------------------------------------------------------------

/// One cell of a report row.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Column name: the table header, the CSV header and the JSON key.
    pub name: &'static str,
    /// The JSON value (floats keep every bit).
    pub value: Value,
    /// The table and CSV text.
    pub text: String,
    /// Wall-clock-derived, or otherwise free to differ between two runs
    /// of the same input: the `-det` formats drop it.
    pub timing: bool,
}

impl Field {
    /// A deterministic field from its parts.
    pub fn new(name: &'static str, value: Value, text: String) -> Field {
        Field {
            name,
            value,
            text,
            timing: false,
        }
    }

    /// An integer field.
    pub fn int<T: Serialize + fmt::Display>(name: &'static str, n: T) -> Field {
        Field::new(name, n.serialize(), n.to_string())
    }

    /// A float field: every bit in JSON, `decimals` places as text.
    pub fn num(name: &'static str, x: f64, decimals: usize) -> Field {
        Field::new(name, Value::Float(x), format!("{x:.decimals$}"))
    }

    /// A string field.
    pub fn str(name: &'static str, s: impl Into<String>) -> Field {
        let s = s.into();
        Field::new(name, Value::Str(s.clone()), s)
    }

    /// Tags the field as timing.
    pub fn timing(mut self) -> Field {
        self.timing = true;
        self
    }

    /// Whether a format that does (`timing`) or does not keep timing
    /// renders this field.
    pub fn kept(&self, timing: bool) -> bool {
        timing || !self.timing
    }
}

/// An optional float: `null` in JSON and `none` as text when absent.
fn opt_num(name: &'static str, x: Option<f64>, decimals: usize, none: &str) -> Field {
    x.map_or_else(
        || Field::new(name, Value::Null, none.to_string()),
        |x| Field::num(name, x, decimals),
    )
}

/// An optional integer: `null` in JSON and `-` as text when absent.
fn opt_int<T: Serialize + fmt::Display>(name: &'static str, n: Option<T>) -> Field {
    n.map_or_else(
        || Field::new(name, Value::Null, "-".to_string()),
        |n| Field::int(name, n),
    )
}

/// A JSON-only field: a nested value no table or CSV shows.
fn nested(name: &'static str, value: Value) -> Field {
    Field::new(name, value, String::new())
}

/// An aligned text table: the kept fields' names, a dash rule, then one
/// line per row. Each cell is left-aligned to the widest name or text
/// of its column and followed by two spaces. Empty when there is no row
/// or no kept column.
pub fn text_table(rows: &[Vec<Field>], timing: bool) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let kept =
        |row: &[Field]| -> Vec<usize> { (0..row.len()).filter(|&i| row[i].kept(timing)).collect() };
    let columns = kept(first);
    if columns.is_empty() {
        return String::new();
    }
    let widths: Vec<usize> = columns
        .iter()
        .map(|&i| {
            rows.iter()
                .map(|r| r[i].text.len())
                .fold(first[i].name.len(), usize::max)
        })
        .collect();
    let line = |cells: Vec<&str>| text_line(cells.into_iter().zip(widths.iter().copied()));
    let mut out = line(columns.iter().map(|&i| first[i].name).collect());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(
            columns.iter().map(|&i| row[i].text.as_str()).collect(),
        ));
        out.push('\n');
    }
    out
}

/// One line of a text table, without its line break: each `(cell,
/// width)` left-aligned to its width and followed by two spaces.
pub fn text_line<'a>(cells: impl IntoIterator<Item = (&'a str, usize)>) -> String {
    let mut out = String::new();
    for (cell, width) in cells {
        let _ = write!(out, "{cell:<width$}  ");
    }
    out
}

/// CSV: the fields' names as the header record, then one record per
/// row. CSV keeps every field, timing included; empty without rows.
pub fn csv_table(rows: &[Vec<Field>]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut out = csv_record(first.iter().map(|f| f.name));
    out.push('\n');
    for row in rows {
        out.push_str(&csv_record(row.iter().map(|f| f.text.as_str())));
        out.push('\n');
    }
    out
}

/// One CSV record, without its line break: every cell through
/// [`csv_field`], comma-separated.
pub fn csv_record<'a>(cells: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&csv_field(cell));
    }
    out
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

/// One row as a JSON object of its kept fields, in row order; `null`
/// when no field is kept (a row of timing fields in a `-det` rendering).
pub fn json_row(row: Vec<Field>, timing: bool) -> Value {
    let fields: Vec<(String, Value)> = row
        .into_iter()
        .filter(|f| f.kept(timing))
        .map(|f| (f.name.to_string(), f.value))
        .collect();
    if fields.is_empty() {
        Value::Null
    } else {
        Value::Object(fields)
    }
}

/// Rows as a JSON array of [`json_row`] objects, leaving out the rows
/// with no kept field.
fn json_rows(rows: Vec<Vec<Field>>, timing: bool) -> Value {
    Value::Array(
        rows.into_iter()
            .map(|row| json_row(row, timing))
            .filter(|v| *v != Value::Null)
            .collect(),
    )
}

/// Compact JSON text of a value tree.
fn json_text(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree always serializes")
}

// ---------------------------------------------------------------------------
// Fleet reports
// ---------------------------------------------------------------------------

/// Renders `report` in the requested format.
pub fn render(report: &FleetReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table | OutputFormat::TableDeterministic => {
            let rows: Vec<Vec<Field>> = report.summaries.iter().map(table_row).collect();
            text_table(&rows, format.keeps_timing())
        }
        OutputFormat::Csv => csv(report),
        OutputFormat::Json | OutputFormat::JsonDeterministic => json(report, format.keeps_timing()),
    }
}

/// One summary as a table row; the last three columns are timing.
fn table_row(s: &FleetSummary) -> Vec<Field> {
    let speedup = s.speedup_vs_ref.map_or("-".into(), |x| format!("{x:.1}x"));
    vec![
        Field::str("scenario", s.scenario.as_str()),
        Field::str("solver", s.solver),
        Field::int("solved", s.solved),
        Field::int("fail", s.failed + s.unsupported),
        Field::num("power_mean", s.power.mean, 2),
        Field::num("power_p90", s.power.p90, 2),
        Field::num("cost_mean", s.cost.mean, 3),
        Field::num("servers", s.mean_servers, 1),
        opt_num("gap_vs_ref", s.power_gap_vs_ref, 4, "-"),
        Field::num("ms/solve", s.wall.mean * 1e3, 3).timing(),
        Field::num("ms_p90", s.wall.p90 * 1e3, 3).timing(),
        Field::new("speedup", s.speedup_vs_ref.serialize(), speedup).timing(),
    ]
}

/// CSV rendering: every deterministic aggregate — including the P²
/// p50/p90 percentile columns for power, cost and gap — then the
/// timing columns last.
pub fn csv(report: &FleetReport) -> String {
    let rows: Vec<Vec<Field>> = report
        .summaries
        .iter()
        .map(|s| {
            let gap = |name, x| opt_num(name, x, 6, "");
            vec![
                Field::str("scenario", s.scenario.as_str()),
                Field::str("solver", s.solver),
                Field::int("solved", s.solved),
                Field::int("failed", s.failed),
                Field::int("unsupported", s.unsupported),
                Field::num("power_mean", s.power.mean, 6),
                Field::num("power_p50", s.power.p50, 6),
                Field::num("power_p90", s.power.p90, 6),
                Field::num("power_min", s.power.min, 6),
                Field::num("power_max", s.power.max, 6),
                Field::num("cost_mean", s.cost.mean, 6),
                Field::num("cost_p50", s.cost.p50, 6),
                Field::num("cost_p90", s.cost.p90, 6),
                Field::num("servers_mean", s.mean_servers, 4),
                gap("gap_mean", s.power_gap_vs_ref),
                gap("gap_p50", s.gap_vs_ref.map(|g| g.p50)),
                gap("gap_p90", s.gap_vs_ref.map(|g| g.p90)),
                Field::num("ms_per_solve", s.mean_wall_seconds * 1e3, 4).timing(),
                Field::num("ms_p90", s.wall.p90 * 1e3, 4).timing(),
                opt_num("speedup_vs_ref", s.speedup_vs_ref, 6, "").timing(),
            ]
        })
        .collect();
    csv_table(&rows)
}

/// Compact JSON; `timing = false` drops every wall-clock-derived field,
/// making the document a pure function of the fleet seed (it is the
/// report's [`digest`](FleetReport::digest)).
pub fn json(report: &FleetReport, timing: bool) -> String {
    let summaries = report
        .summaries
        .iter()
        .map(|s| {
            vec![
                Field::str("scenario", s.scenario.as_str()),
                Field::str("solver", s.solver),
                Field::int("solved", s.solved),
                Field::int("failed", s.failed),
                Field::int("unsupported", s.unsupported),
                nested("cost", s.cost.serialize()),
                nested("power", s.power.serialize()),
                Field::num("mean_servers", s.mean_servers, 4),
                nested("power_gap_vs_ref", s.power_gap_vs_ref.serialize()),
                nested("gap_vs_ref", s.gap_vs_ref.serialize()),
                Field::num("mean_wall_seconds", s.mean_wall_seconds, 6).timing(),
                nested("wall", s.wall.serialize()).timing(),
                nested("speedup_vs_ref", s.speedup_vs_ref.serialize()).timing(),
                nested("speedup_dist", s.speedup_dist.serialize()).timing(),
            ]
        })
        .collect();
    let doc = vec![
        Field::int("cell_count", report.cell_count),
        Field::str("cell_checksum", format!("{:016x}", report.cell_checksum)),
        nested("summaries", json_rows(summaries, timing)),
    ];
    json_text(&json_row(doc, timing))
}

// ---------------------------------------------------------------------------
// Trace forensics
// ---------------------------------------------------------------------------

/// One section of a forensic report: its table heading, its JSON key
/// (also its CSV section label), and its rows.
struct Section {
    title: &'static str,
    key: &'static str,
    rows: Vec<Vec<Field>>,
}

/// Renders a trace [`Analysis`] in the requested format: a head of
/// trace-wide counts, then seven sections — event kinds, phases, the
/// slowest solves, per-shard supervision, counters, histograms and
/// throughput. The `-det` variants drop every wall-clock-derived number
/// (span durations, timestamps, backoff gates, throughput, slot
/// occupancy) and put the supervision timeline into canonical
/// `(attempt, op)` order, so two runs of the same deterministic fault
/// schedule render byte-identical reports. The long-format CSV writes
/// one `section,key,field,value` record per field, keyed by its row's
/// first field.
pub fn render_analysis(analysis: &Analysis, format: OutputFormat) -> String {
    let timing = format.keeps_timing();
    let sections = sections(analysis, timing);
    match format {
        OutputFormat::Table | OutputFormat::TableDeterministic => {
            analysis_table(analysis, sections, timing)
        }
        OutputFormat::Csv => {
            let mut out = String::from("section,key,field,value\n");
            let mut record = |cells: [&str; 4]| {
                out.push_str(&csv_record(cells));
                out.push('\n');
            };
            for field in head(analysis) {
                record(["trace", "", field.name, &field.text]);
            }
            for section in &sections {
                for (key, rest) in section.rows.iter().filter_map(|row| row.split_first()) {
                    for field in rest {
                        record([section.key, &key.text, field.name, &field.text]);
                    }
                }
            }
            out
        }
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            analysis_json(analysis, sections, timing)
        }
    }
}

/// The trace-wide counts.
fn head(analysis: &Analysis) -> [Field; 4] {
    let malformed = analysis.malformed.iter().map(|e| Value::Str(e.clone()));
    [
        Field::int("parsed_lines", analysis.parsed_lines),
        Field::new(
            "malformed",
            Value::Array(malformed.collect()),
            analysis.malformed.len().to_string(),
        ),
        Field::int("unmatched_spans", analysis.unmatched_spans),
        Field::int("batches", analysis.batches.len()),
    ]
}

/// The forensic report's sections, in report order. `timing` orders
/// each supervision timeline: trace order with timing, canonical
/// `(attempt, op)` order without, so wall-clock interleaving across
/// shards cannot leak into a deterministic report.
fn sections(analysis: &Analysis, timing: bool) -> [Section; 7] {
    let section = |title, key, rows| Section { title, key, rows };
    [
        section(
            "events",
            "events",
            analysis
                .kind_counts
                .iter()
                .map(|(kind, n)| vec![Field::str("kind", kind.as_str()), Field::int("count", n)])
                .collect(),
        ),
        section(
            "phase profile",
            "phases",
            analysis
                .phases
                .iter()
                .map(|p| {
                    vec![
                        Field::str("name", p.name.as_str()),
                        Field::int("count", p.count),
                        Field::int("open", p.open),
                        Field::int("total_micros", p.total_micros).timing(),
                        Field::int("self_micros", p.self_micros).timing(),
                    ]
                })
                .collect(),
        ),
        section(
            "slowest solves",
            "slowest_solves",
            analysis
                .slowest
                .iter()
                .map(|s| {
                    vec![
                        Field::str("label", s.label.as_str()).timing(),
                        Field::int("micros", s.micros).timing(),
                        opt_int("shard", s.provenance.map(|(shard, _)| shard)).timing(),
                        opt_int("attempt", s.provenance.map(|(_, attempt)| attempt)).timing(),
                    ]
                })
                .collect(),
        ),
        section(
            "supervision",
            "shards",
            analysis
                .sched
                .shards
                .iter()
                .map(|shard| shard_row(shard, timing))
                .collect(),
        ),
        section(
            "counters",
            "counters",
            analysis
                .counters
                .iter()
                .map(|(name, value)| {
                    vec![
                        Field::str("name", name.as_str()),
                        Field::int("value", value),
                    ]
                })
                .collect(),
        ),
        section(
            "histograms",
            "histograms",
            analysis
                .histograms
                .iter()
                .map(|h| {
                    vec![
                        Field::str("name", h.name.as_str()),
                        Field::str("unit", h.unit.as_str()),
                        Field::int("count", h.stats.count),
                        Field::num("mean", h.stats.mean, 3).timing(),
                        Field::num("p50", h.stats.p50, 3).timing(),
                        Field::num("p90", h.stats.p90, 3).timing(),
                        Field::num("p99", h.stats.p99, 3).timing(),
                    ]
                })
                .collect(),
        ),
        section(
            "throughput",
            "throughput",
            analysis
                .throughput
                .iter()
                .map(|p| {
                    vec![
                        Field::int("done", p.done).timing(),
                        Field::int("total", p.total).timing(),
                        Field::num("jobs_per_sec", p.jobs_per_sec, 3).timing(),
                    ]
                })
                .collect(),
        ),
    ]
}

/// One shard's supervision row. Its timeline is an array of attempt
/// events in JSON and their `a{attempt} {op}` entries, comma-joined, as
/// text.
fn shard_row(shard: &ShardTimeline, timing: bool) -> Vec<Field> {
    let mut events: Vec<_> = shard.events.iter().collect();
    if !timing {
        events.sort_by_key(|e| (e.attempt, op_rank(e.op)));
    }
    let mut text = Vec::with_capacity(events.len());
    let mut timeline = Vec::with_capacity(events.len());
    for e in events {
        text.push(match e.not_before_ms.filter(|_| timing) {
            Some(gate) => format!("a{} {}(not before {gate}ms)", e.attempt, e.op),
            None => format!("a{} {}", e.attempt, e.op),
        });
        timeline.push(vec![
            Field::int("attempt", e.attempt),
            Field::str("op", e.op.to_string()),
            opt_int("not_before_ms", e.not_before_ms).timing(),
            opt_int("ts_ms", e.ts_ms).timing(),
        ]);
    }
    vec![
        Field::int("shard", shard.shard),
        Field::int("launches", shard.launches),
        Field::int("retries", shard.retries),
        Field::int("steals", shard.steals),
        Field::int("stale_kills", shard.stale_kills),
        Field::int("fence_rejects", shard.fence_rejects),
        Field::str("outcome", outcome_label(shard.outcome)),
        Field::new("timeline", json_rows(timeline, timing), text.join(", ")),
    ]
}

/// The rank of `op` in [`SchedOp::ALL`] — the canonical within-attempt
/// event order (claim before launch/steal before settle).
fn op_rank(op: SchedOp) -> usize {
    SchedOp::ALL
        .iter()
        .position(|o| *o == op)
        .unwrap_or(usize::MAX)
}

fn outcome_label(outcome: Option<SchedOp>) -> &'static str {
    match outcome {
        Some(SchedOp::Done) => "done",
        Some(SchedOp::Exhausted) => "exhausted",
        _ => "in-flight",
    }
}

/// The text report: summary lines — trace counts, event kinds as
/// `kind=n`, slot occupancy (timing only) and the malformed lines —
/// then every other section with rows under its heading.
fn analysis_table(analysis: &Analysis, sections: [Section; 7], timing: bool) -> String {
    let [events, rest @ ..] = sections;
    let kinds: Vec<String> = events
        .rows
        .iter()
        .map(|row| format!("{}={}", row[0].text, row[1].text))
        .collect();
    let mut out = format!(
        "trace      {} lines parsed, {} malformed, {} unmatched span(s)\nevents     {}\n",
        analysis.parsed_lines,
        analysis.malformed.len(),
        analysis.unmatched_spans,
        kinds.join(" ")
    );
    if let Some(util) = analysis.sched.utilization.as_ref().filter(|_| timing) {
        let _ = writeln!(
            out,
            "slots      peak {}, avg {:.2}, busy {} ms over {} ms",
            util.max_concurrent, util.avg_concurrent, util.busy_ms, util.window_ms
        );
    }
    for error in &analysis.malformed {
        let _ = writeln!(out, "  ! {error}");
    }
    for section in rest {
        let table = text_table(&section.rows, timing);
        if !table.is_empty() {
            let _ = write!(out, "\n{}\n{table}", section.title);
        }
    }
    out
}

/// The JSON report, in the key layout CI's jq checks read:
/// `parsed_lines`, `malformed`, `events` and `counters` (objects),
/// `sched.{ops, shards, utilization}`.
fn analysis_json(analysis: &Analysis, sections: [Section; 7], timing: bool) -> String {
    let [parsed_lines, malformed, unmatched_spans, batches] = head(analysis);
    let [events, phases, slowest, shards, counters, histograms, throughput] = sections;
    let array = |s: Section| nested(s.key, json_rows(s.rows, timing));
    // A two-column section as one object: first field's text → second
    // field's value.
    let keyed = |s: Section| {
        let entries = s.rows.into_iter().filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()?.text, cells.next()?.value))
        });
        nested(s.key, Value::Object(entries.collect()))
    };
    let ops = analysis
        .sched
        .op_totals
        .iter()
        .map(|(op, n)| (op.to_string(), n.serialize()));
    let utilization = analysis.sched.utilization.as_ref().map(|u| {
        let row = vec![
            Field::int("max_concurrent", u.max_concurrent).timing(),
            Field::num("avg_concurrent", u.avg_concurrent, 2).timing(),
            Field::int("busy_ms", u.busy_ms).timing(),
            Field::int("window_ms", u.window_ms).timing(),
        ];
        json_row(row, timing)
    });
    let sched = vec![
        nested("ops", Value::Object(ops.collect())),
        array(shards),
        nested("utilization", utilization.unwrap_or(Value::Null)),
    ];
    let doc = vec![
        parsed_lines,
        malformed,
        keyed(events),
        unmatched_spans,
        array(phases),
        array(slowest),
        batches,
        array(throughput),
        keyed(counters),
        array(histograms),
        nested("sched", json_row(sched, timing)),
    ];
    json_text(&json_row(doc, timing))
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
        assert!(
            !det.contains("\"mean_wall_seconds\""),
            "timing keys are left out"
        );
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

    /// The trailing alignment spaces of every line dropped (the literals
    /// below would be fragile with invisible whitespace).
    fn trimmed(text: &str) -> String {
        text.lines()
            .map(|l| l.trim_end().to_string() + "\n")
            .collect()
    }

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    /// `value` with the key at the end of `path` removed wherever the
    /// path reaches (`*` steps into every array element). An object the
    /// removal leaves empty becomes `null`, and an array on the path
    /// drops it — as a `-det` rendering leaves out a row of timing
    /// fields only.
    fn without(value: Value, path: &[&str]) -> Value {
        match (value, path) {
            (Value::Array(items), ["*", rest @ ..]) => Value::Array(
                items
                    .into_iter()
                    .map(|item| without(item, rest))
                    .filter(|item| *item != Value::Null)
                    .collect(),
            ),
            (Value::Object(fields), [key, rest @ ..]) => {
                let fields: Vec<(String, Value)> = fields
                    .into_iter()
                    .filter_map(|(k, v)| match (k == *key, rest.is_empty()) {
                        (false, _) => Some((k, v)),
                        (true, true) => None,
                        (true, false) => Some((k, without(v, rest))),
                    })
                    .collect();
                if fields.is_empty() {
                    Value::Null
                } else {
                    Value::Object(fields)
                }
            }
            (value, _) => value,
        }
    }

    /// Every table header of a text rendering — the line above each dash
    /// rule — with the section heading above it (if any).
    fn headers(text: &str) -> Vec<(&str, Vec<&str>)> {
        let lines: Vec<&str> = text.lines().collect();
        (1..lines.len())
            .filter(|&i| lines[i].starts_with('-') && lines[i].chars().all(|c| c == '-'))
            .map(|i| {
                let title = if i >= 2 { lines[i - 2] } else { "" };
                (title, lines[i - 1].split_whitespace().collect())
            })
            .collect()
    }

    #[test]
    fn fleet_renderings_are_pinned() {
        let report = report();
        assert_eq!(
            trimmed(&render(&report, OutputFormat::TableDeterministic)),
            "scenario          solver        solved  fail  power_mean  power_p90  cost_mean  servers  gap_vs_ref\n\
-----------------------------------------------------------------------------------------------------\n\
high/uniform/12n  dp_power      2       0     1512.50     1650.00    12.056     11.0     1.0000\n\
high/uniform/12n  greedy_power  2       0     1512.50     1650.00    12.056     11.0     1.0000\n\
star/skewed/12n   dp_power      2       0     1400.00     1837.50    7.601      7.0      1.0000\n\
star/skewed/12n   greedy_power  2       0     1631.25     2300.00    6.006      5.5      1.1259\n\
"
        );
        assert_eq!(
            render(&report, OutputFormat::JsonDeterministic),
            "{\"cell_count\":8,\"cell_checksum\":\"ebf00b386a6c36d2\",\
         \"summaries\":[{\"scenario\":\"high/uniform/12n\",\"solver\":\"dp_power\",\"solved\":2,\
         \"failed\":0,\"unsupported\":0,\"cost\":{\"count\":2,\"mean\":12.0555,\"min\":11.01,\
         \"max\":13.101,\"p50\":13.101,\"p90\":13.101,\"p99\":13.101},\"power\":{\"count\":2,\
         \"mean\":1512.5,\"min\":1375.0,\"max\":1650.0,\"p50\":1650.0,\"p90\":1650.0,\
         \"p99\":1650.0},\"mean_servers\":11.0,\"power_gap_vs_ref\":1.0,\
         \"gap_vs_ref\":{\"count\":2,\"mean\":1.0,\"min\":1.0,\"max\":1.0,\"p50\":1.0,\
         \"p90\":1.0,\"p99\":1.0}},{\"scenario\":\"high/uniform/12n\",\
         \"solver\":\"greedy_power\",\"solved\":2,\"failed\":0,\"unsupported\":0,\
         \"cost\":{\"count\":2,\"mean\":12.0555,\"min\":11.01,\"max\":13.101,\"p50\":13.101,\
         \"p90\":13.101,\"p99\":13.101},\"power\":{\"count\":2,\"mean\":1512.5,\"min\":1375.0,\
         \"max\":1650.0,\"p50\":1650.0,\"p90\":1650.0,\"p99\":1650.0},\"mean_servers\":11.0,\
         \"power_gap_vs_ref\":1.0,\"gap_vs_ref\":{\"count\":2,\"mean\":1.0,\"min\":1.0,\
         \"max\":1.0,\"p50\":1.0,\"p90\":1.0,\"p99\":1.0}},{\"scenario\":\"star/skewed/12n\",\
         \"solver\":\"dp_power\",\"solved\":2,\"failed\":0,\"unsupported\":0,\
         \"cost\":{\"count\":2,\"mean\":7.601,\"min\":7.600999999999999,\
         \"max\":7.601000000000001,\"p50\":7.601000000000001,\"p90\":7.601000000000001,\
         \"p99\":7.601000000000001},\"power\":{\"count\":2,\"mean\":1400.0,\"min\":962.5,\
         \"max\":1837.5,\"p50\":1837.5,\"p90\":1837.5,\"p99\":1837.5},\"mean_servers\":7.0,\
         \"power_gap_vs_ref\":1.0,\"gap_vs_ref\":{\"count\":2,\"mean\":1.0,\"min\":1.0,\
         \"max\":1.0,\"p50\":1.0,\"p90\":1.0,\"p99\":1.0}},{\"scenario\":\"star/skewed/12n\",\
         \"solver\":\"greedy_power\",\"solved\":2,\"failed\":0,\"unsupported\":0,\
         \"cost\":{\"count\":2,\"mean\":6.0055000000000005,\"min\":4.41,\
         \"max\":7.601000000000001,\"p50\":7.601000000000001,\"p90\":7.601000000000001,\
         \"p99\":7.601000000000001},\"power\":{\"count\":2,\"mean\":1631.25,\"min\":962.5,\
         \"max\":2300.0,\"p50\":2300.0,\"p90\":2300.0,\"p99\":2300.0},\"mean_servers\":5.5,\
         \"power_gap_vs_ref\":1.1258503401360545,\"gap_vs_ref\":{\"count\":2,\
         \"mean\":1.1258503401360545,\"min\":1.0,\"max\":1.251700680272109,\
         \"p50\":1.251700680272109,\"p90\":1.251700680272109,\"p99\":1.251700680272109}}]}"
        );
        // Columns 1–17 of the CSV; the last three are wall-clock timing.
        let csv = render(&report, OutputFormat::Csv);
        let deterministic: String = csv
            .lines()
            .map(|line| line.split(',').take(17).collect::<Vec<_>>().join(",") + "\n")
            .collect();
        assert_eq!(
            deterministic,
            "scenario,solver,solved,failed,unsupported,power_mean,power_p50,power_p90,power_min,power_max,cost_mean,cost_p50,cost_p90,servers_mean,gap_mean,gap_p50,gap_p90\n\
high/uniform/12n,dp_power,2,0,0,1512.500000,1650.000000,1650.000000,1375.000000,1650.000000,12.055500,13.101000,13.101000,11.0000,1.000000,1.000000,1.000000\n\
high/uniform/12n,greedy_power,2,0,0,1512.500000,1650.000000,1650.000000,1375.000000,1650.000000,12.055500,13.101000,13.101000,11.0000,1.000000,1.000000,1.000000\n\
star/skewed/12n,dp_power,2,0,0,1400.000000,1837.500000,1837.500000,962.500000,1837.500000,7.601000,7.601000,7.601000,7.0000,1.000000,1.000000,1.000000\n\
star/skewed/12n,greedy_power,2,0,0,1631.250000,2300.000000,2300.000000,962.500000,2300.000000,6.005500,7.601000,7.601000,5.5000,1.125850,1.251701,1.251701\n\
"
        );
        assert!(csv.starts_with(
            "scenario,solver,solved,failed,unsupported,power_mean,power_p50,\
             power_p90,power_min,power_max,cost_mean,cost_p50,cost_p90,servers_mean,gap_mean,\
             gap_p50,gap_p90,ms_per_solve,ms_p90,speedup_vs_ref\n"
        ));
    }

    #[test]
    fn fleet_det_renderings_are_the_full_ones_without_timing_fields() {
        let report = report();
        let timing = [
            "mean_wall_seconds",
            "wall",
            "speedup_vs_ref",
            "speedup_dist",
        ];
        let stripped = timing
            .iter()
            .fold(parse(&render(&report, OutputFormat::Json)), |v, key| {
                without(v, &["summaries", "*", key])
            });
        assert_eq!(
            stripped,
            parse(&render(&report, OutputFormat::JsonDeterministic))
        );
        let table = render(&report, OutputFormat::Table);
        let mut header = headers(&table).remove(0).1;
        header.retain(|c| !["ms/solve", "ms_p90", "speedup"].contains(c));
        let det = render(&report, OutputFormat::TableDeterministic);
        assert_eq!(header, headers(&det).remove(0).1);
    }

    #[test]
    fn analysis_renderings_are_pinned() {
        let analysis = forensic_analysis();
        assert_eq!(
            trimmed(&render_analysis(&analysis, OutputFormat::TableDeterministic)),
            "trace      13 lines parsed, 0 malformed, 0 unmatched span(s)\n\
events     counter=1 sched=9 segment=1 span_end=1 span_start=1\n\
\n\
phase profile\n\
name   count  open\n\
--------------------\n\
solve  1      0\n\
\n\
supervision\n\
shard  launches  retries  steals  stale_kills  fence_rejects  outcome  timeline\n\
------------------------------------------------------------------------------------------------------------------------------------\n\
0      2         1        0       0            0              done     a0 claim, a0 launch, a0 retry, a1 claim, a1 launch, a1 done\n\
1      1         0        1       0            0              done     a0 claim, a0 steal, a0 done\n\
\n\
counters\n\
name          value\n\
---------------------\n\
cells_solved  4\n\
"
        );
        assert_eq!(
            render_analysis(&analysis, OutputFormat::JsonDeterministic),
            "{\"parsed_lines\":13,\"malformed\":[],\"events\":{\"counter\":1,\"sched\":9,\
         \"segment\":1,\"span_end\":1,\"span_start\":1},\"unmatched_spans\":0,\
         \"phases\":[{\"name\":\"solve\",\"count\":1,\"open\":0}],\"slowest_solves\":[],\
         \"batches\":0,\"throughput\":[],\"counters\":{\"cells_solved\":4},\"histograms\":[],\
         \"sched\":{\"ops\":{\"claim\":3,\"launch\":2,\"retry\":1,\"steal\":1,\"stale_kill\":0,\
         \"fence_reject\":0,\"done\":2,\"exhausted\":0},\"shards\":[{\"shard\":0,\"launches\":2,\
         \"retries\":1,\"steals\":0,\"stale_kills\":0,\"fence_rejects\":0,\"outcome\":\"done\",\
         \"timeline\":[{\"attempt\":0,\"op\":\"claim\"},{\"attempt\":0,\"op\":\"launch\"},\
         {\"attempt\":0,\"op\":\"retry\"},{\"attempt\":1,\"op\":\"claim\"},{\"attempt\":1,\
         \"op\":\"launch\"},{\"attempt\":1,\"op\":\"done\"}]},{\"shard\":1,\"launches\":1,\
         \"retries\":0,\"steals\":1,\"stale_kills\":0,\"fence_rejects\":0,\"outcome\":\"done\",\
         \"timeline\":[{\"attempt\":0,\"op\":\"claim\"},{\"attempt\":0,\"op\":\"steal\"},\
         {\"attempt\":0,\"op\":\"done\"}]}],\"utilization\":null}}"
        );
        assert_eq!(
            render_analysis(&analysis, OutputFormat::Csv),
            "section,key,field,value\n\
trace,,parsed_lines,13\n\
trace,,malformed,0\n\
trace,,unmatched_spans,0\n\
trace,,batches,0\n\
events,counter,count,1\n\
events,sched,count,9\n\
events,segment,count,1\n\
events,span_end,count,1\n\
events,span_start,count,1\n\
phases,solve,count,1\n\
phases,solve,open,0\n\
phases,solve,total_micros,1234\n\
phases,solve,self_micros,1234\n\
slowest_solves,high/uniform-12#0 dp_power,micros,1234\n\
slowest_solves,high/uniform-12#0 dp_power,shard,0\n\
slowest_solves,high/uniform-12#0 dp_power,attempt,1\n\
shards,0,launches,2\n\
shards,0,retries,1\n\
shards,0,steals,0\n\
shards,0,stale_kills,0\n\
shards,0,fence_rejects,0\n\
shards,0,outcome,done\n\
shards,0,timeline,\"a0 claim, a0 launch, a0 retry(not before 160ms), a1 claim, a1 launch, a1 done\"\n\
shards,1,launches,1\n\
shards,1,retries,0\n\
shards,1,steals,1\n\
shards,1,stale_kills,0\n\
shards,1,fence_rejects,0\n\
shards,1,outcome,done\n\
shards,1,timeline,\"a0 claim, a0 steal, a0 done\"\n\
counters,cells_solved,value,4\n\
"
        );
    }

    #[test]
    fn analysis_det_renderings_are_the_full_ones_without_timing_fields() {
        let analysis = forensic_analysis();
        let timing: [&[&str]; 15] = [
            &["phases", "*", "total_micros"],
            &["phases", "*", "self_micros"],
            &["slowest_solves", "*", "label"],
            &["slowest_solves", "*", "micros"],
            &["slowest_solves", "*", "shard"],
            &["slowest_solves", "*", "attempt"],
            &["histograms", "*", "mean"],
            &["histograms", "*", "p50"],
            &["histograms", "*", "p90"],
            &["histograms", "*", "p99"],
            &["sched", "shards", "*", "timeline", "*", "not_before_ms"],
            &["sched", "shards", "*", "timeline", "*", "ts_ms"],
            &["sched", "utilization", "max_concurrent"],
            &["sched", "utilization", "avg_concurrent"],
            &["sched", "utilization", "busy_ms"],
        ];
        let full = parse(&render_analysis(&analysis, OutputFormat::Json));
        let stripped = timing.iter().fold(full, |v, path| without(v, path));
        let stripped = without(stripped, &["sched", "utilization", "window_ms"]);
        assert_eq!(
            stripped,
            parse(&render_analysis(&analysis, OutputFormat::JsonDeterministic))
        );
        // Each section's det header is its full header less the timing
        // columns; a section of timing columns only is left out.
        let timing_columns = |title: &str| -> &[&str] {
            match title {
                "phase profile" => &["total_micros", "self_micros"],
                "slowest solves" => &["label", "micros", "shard", "attempt"],
                "histograms" => &["mean", "p50", "p90", "p99"],
                "throughput" => &["done", "total", "jobs_per_sec"],
                _ => &[],
            }
        };
        let table = render_analysis(&analysis, OutputFormat::Table);
        let expected: Vec<(&str, Vec<&str>)> = headers(&table)
            .into_iter()
            .map(|(title, mut columns)| {
                columns.retain(|c| !timing_columns(title).contains(c));
                (title, columns)
            })
            .filter(|(_, columns)| !columns.is_empty())
            .collect();
        let det = render_analysis(&analysis, OutputFormat::TableDeterministic);
        assert_eq!(expected, headers(&det));
    }
}
