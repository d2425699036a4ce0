//! Five-format rendering of epoch reports and the session summary.
//!
//! Every line is one row of [`Field`]s ([`epoch_fields`], or the
//! summary's), rendered by the engine's shared writers, so `placed`
//! speaks the same dialect as `fleetd`. The timing fields — `dirty`,
//! `recomputed`, `solver` and `latency_ms` — are exactly what an
//! `--oracle` run may differ in: the bit-identity contract makes solver
//! strategy and timing the *only* legitimate difference between an
//! incremental run and an oracle run on the same stream. The
//! deterministic variants (`table-det`, `json-det`) drop them and carry
//! only the semantic outcome — epoch, event counts, cost, power, servers
//! and the placement diff; the CI smoke job byte-diffs the two
//! `json-det` outputs to enforce exactly that. `placed` streams its
//! lines, so a table column is as wide as its name or
//! [`MIN_WIDTH`] characters, whichever is wider, not as its widest cell.

use crate::server::{EpochReport, Totals};
use replica_engine::output::{csv_record, json_row, text_line, Field, OutputFormat};
use replica_obs::Stats;
use serde::{Serialize, Value};

/// The narrowest table column.
pub const MIN_WIDTH: usize = 8;

/// The 13 fields of one epoch: counts, the solver's accounting, the new
/// placement's cost, power and size, the diff (an array in JSON, its
/// length as text) and the decision latency.
pub fn epoch_fields(report: &EpochReport) -> Vec<Field> {
    let diff = &report.diff;
    vec![
        Field::int("epoch", report.epoch),
        Field::int("events", report.events),
        Field::int("changed", report.changed),
        Field::int("dirty", report.dirty).timing(),
        Field::int("recomputed", report.recomputed).timing(),
        Field::str("solver", report.solver.label()).timing(),
        Field::num("cost", report.cost, 4),
        Field::num("power", report.power, 4),
        Field::int("servers", report.servers),
        Field::new("adds", diff.adds.serialize(), diff.adds.len().to_string()),
        Field::new(
            "removals",
            diff.removals.serialize(),
            diff.removals.len().to_string(),
        ),
        Field::new(
            "remodes",
            diff.remodes.serialize(),
            diff.remodes.len().to_string(),
        ),
        Field::num("latency_ms", report.latency_ms, 3).timing(),
    ]
}

/// One table line of `row`'s kept fields: their names (`header`) or
/// their texts.
fn table_line(row: &[Field], timing: bool, header: bool) -> String {
    text_line(row.iter().filter(|f| f.kept(timing)).map(|f| {
        let cell = if header { f.name } else { f.text.as_str() };
        (cell, f.name.len().max(MIN_WIDTH))
    }))
}

/// Column header preceding the epoch lines (`Some` for table/csv): the
/// names of [`epoch_fields`], with a dash rule under a table's.
pub fn header(format: OutputFormat) -> Option<String> {
    let fields = epoch_fields(&EpochReport::default());
    match format {
        OutputFormat::Table | OutputFormat::TableDeterministic => {
            let line = table_line(&fields, format.keeps_timing(), true);
            Some(format!("{line}\n{}", "-".repeat(line.len())))
        }
        OutputFormat::Csv => Some(csv_record(fields.iter().map(|f| f.name))),
        OutputFormat::Json | OutputFormat::JsonDeterministic => None,
    }
}

/// Renders one epoch report as a single line (no trailing newline).
pub fn epoch_line(report: &EpochReport, format: OutputFormat) -> String {
    let fields = epoch_fields(report);
    match format {
        OutputFormat::Table | OutputFormat::TableDeterministic => {
            table_line(&fields, format.keeps_timing(), false)
        }
        OutputFormat::Csv => csv_record(fields.iter().map(|f| f.text.as_str())),
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            let row = json_row(fields, format.keeps_timing());
            serde_json::to_string(&row).expect("epoch reports always serialize")
        }
    }
}

/// Renders the end-of-stream summary: session totals, the final
/// placement and, as timing, the session's decision-latency
/// distribution (milliseconds). One line in tables, one object (marked
/// `"summary":true`) in JSON, and nothing in CSV, whose epoch records
/// already sum to the totals.
pub fn summary(
    totals: &Totals,
    final_cost: f64,
    final_power: f64,
    final_servers: usize,
    latency: &Stats,
    format: OutputFormat,
) -> Option<String> {
    let latency: Vec<Field> = [
        ("mean", latency.mean),
        ("min", latency.min),
        ("p50", latency.p50),
        ("p90", latency.p90),
        ("p99", latency.p99),
        ("max", latency.max),
    ]
    .into_iter()
    .map(|(name, ms)| Field::num(name, ms, 3))
    .collect();
    let latency_text = spelled(&latency, " ");
    let fields = vec![
        Field::int("epochs", totals.epochs),
        Field::int("events", totals.events),
        Field::int("changed", totals.changed),
        Field::int("adds", totals.adds),
        Field::int("removals", totals.removals),
        Field::int("remodes", totals.remodes),
        Field::num("cost", final_cost, 4),
        Field::num("power", final_power, 4),
        Field::int("servers", final_servers),
        Field::new("latency_ms", json_row(latency, true), latency_text).timing(),
    ];
    let timing = format.keeps_timing();
    match format {
        OutputFormat::Csv => None,
        OutputFormat::Table | OutputFormat::TableDeterministic => Some(format!(
            "— {}",
            spelled(fields.iter().filter(|f| f.kept(timing)), ", ")
        )),
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            let mut row = vec![Field::new("summary", Value::Bool(true), String::new())];
            row.extend(fields);
            let doc = json_row(row, timing);
            Some(serde_json::to_string(&doc).expect("summaries always serialize"))
        }
    }
}
/// The `name text` pairs of `fields`, joined by `separator`.
fn spelled<'a>(fields: impl IntoIterator<Item = &'a Field>, separator: &str) -> String {
    let pairs: Vec<String> = fields
        .into_iter()
        .map(|f| format!("{} {}", f.name, f.text))
        .collect();
    pairs.join(separator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PlacementDiff, SolverKind};

    fn report() -> EpochReport {
        EpochReport {
            epoch: 3,
            events: 8,
            changed: 5,
            dirty: 4,
            recomputed: 9,
            solver: SolverKind::Incremental,
            cost: 12.5,
            power: 60.25,
            servers: 4,
            diff: PlacementDiff {
                adds: vec![(2, 1)],
                removals: vec![7],
                remodes: vec![(5, 0, 1)],
            },
            latency_ms: 0.125,
        }
    }

    #[test]
    fn deterministic_formats_exclude_solver_and_timing() {
        let r = report();
        for format in [
            OutputFormat::TableDeterministic,
            OutputFormat::JsonDeterministic,
        ] {
            let line = epoch_line(&r, format);
            assert!(!line.contains("incremental"), "{line}");
            assert!(!line.contains("0.125"), "{line}");
            assert!(!line.contains("recomp"), "{line}");
        }
        let full = epoch_line(&r, OutputFormat::Json);
        assert!(full.contains("\"solver\":\"incremental\""));
        assert!(full.contains("\"latency_ms\":"));
    }

    #[test]
    fn json_lines_parse_back_as_json() {
        let r = report();
        for format in [OutputFormat::Json, OutputFormat::JsonDeterministic] {
            let line = epoch_line(&r, format);
            let value: Value = parse(&line);
            let Value::Object(fields) = value else {
                panic!("epoch line must be an object: {line}")
            };
            assert!(fields.iter().any(|(k, _)| k == "adds"));
        }
        let det = epoch_line(&r, OutputFormat::JsonDeterministic);
        assert_eq!(
            det,
            "{\"epoch\":3,\"events\":8,\"changed\":5,\"cost\":12.5,\"power\":60.25,\
             \"servers\":4,\"adds\":[[2,1]],\"removals\":[7],\"remodes\":[[5,0,1]]}"
        );
    }

    #[test]
    fn csv_header_matches_the_row_arity() {
        let header = header(OutputFormat::Csv).unwrap();
        let row = epoch_line(&report(), OutputFormat::Csv);
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "{header} vs {row}"
        );
    }

    #[test]
    fn renderings_are_pinned() {
        let r = report();
        assert_eq!(
            header(OutputFormat::TableDeterministic).unwrap(),
            "epoch     events    changed   cost      power     servers   adds      removals  \
             remodes   \n\
             ------------------------------------------------------------------------------------------"
        );
        assert_eq!(
            epoch_line(&r, OutputFormat::TableDeterministic),
            "3         8         5         12.5000   60.2500   4         1         1         1         "
        );
        assert_eq!(
            epoch_line(&r, OutputFormat::JsonDeterministic),
            "{\"epoch\":3,\"events\":8,\"changed\":5,\"cost\":12.5,\"power\":60.25,\
             \"servers\":4,\"adds\":[[2,1]],\"removals\":[7],\"remodes\":[[5,0,1]]}"
        );
        assert_eq!(
            header(OutputFormat::Csv).unwrap(),
            "epoch,events,changed,dirty,recomputed,solver,cost,power,servers,adds,removals,\
             remodes,latency_ms"
        );
        assert_eq!(
            epoch_line(&r, OutputFormat::Csv),
            "3,8,5,4,9,incremental,12.5000,60.2500,4,1,1,1,0.125"
        );
        let totals = Totals {
            epochs: 4,
            events: 20,
            changed: 12,
            adds: 6,
            removals: 2,
            remodes: 1,
        };
        let latency = Stats {
            count: 4,
            mean: 0.25,
            min: 0.125,
            max: 0.5,
            p50: 0.25,
            p90: 0.5,
            p99: 0.5,
        };
        let summary_in = |format| summary(&totals, 12.5, 60.25, 4, &latency, format);
        assert_eq!(
            summary_in(OutputFormat::TableDeterministic).unwrap(),
            "— epochs 4, events 20, changed 12, adds 6, removals 2, remodes 1, cost 12.5000, \
             power 60.2500, servers 4"
        );
        assert_eq!(
            summary_in(OutputFormat::Table).unwrap(),
            "— epochs 4, events 20, changed 12, adds 6, removals 2, remodes 1, cost 12.5000, \
             power 60.2500, servers 4, latency_ms mean 0.250 min 0.125 p50 0.250 p90 0.500 \
             p99 0.500 max 0.500"
        );
        assert_eq!(
            summary_in(OutputFormat::JsonDeterministic).unwrap(),
            "{\"summary\":true,\"epochs\":4,\"events\":20,\"changed\":12,\"adds\":6,\
             \"removals\":2,\"remodes\":1,\"cost\":12.5,\"power\":60.25,\"servers\":4}"
        );
        assert_eq!(
            summary_in(OutputFormat::Csv),
            None,
            "the epoch records sum to it"
        );

        // The det renderings are the full ones without the timing
        // fields: `dirty`, `recomputed`, `solver`, `latency_ms`.
        let timing = ["dirty", "recomputed", "solver", "latency_ms"];
        let without_timing = |line: String| {
            let Value::Object(mut fields) = parse(&line) else {
                panic!("an object: {line}")
            };
            fields.retain(|(k, _)| !timing.contains(&k.as_str()));
            Value::Object(fields)
        };
        assert_eq!(
            without_timing(epoch_line(&r, OutputFormat::Json)),
            parse(&epoch_line(&r, OutputFormat::JsonDeterministic))
        );
        assert_eq!(
            without_timing(summary_in(OutputFormat::Json).unwrap()),
            parse(&summary_in(OutputFormat::JsonDeterministic).unwrap())
        );
        let columns = |format| -> Vec<String> {
            let header = header(format).unwrap();
            let line = header.lines().next().unwrap_or_default();
            line.split_whitespace().map(str::to_string).collect()
        };
        let mut full = columns(OutputFormat::Table);
        full.retain(|c| !timing.contains(&c.as_str()));
        assert_eq!(full, columns(OutputFormat::TableDeterministic));
    }

    fn parse(line: &str) -> Value {
        serde_json::from_str::<Value>(line).unwrap()
    }
}
