//! Five-format rendering of epoch reports and the session summary.
//!
//! The format menu is the engine's [`OutputFormat`] so `placed` speaks
//! the same dialect as `fleetd`: `table` and `json` carry everything
//! (solver choice, dirty/recompute accounting, latency); the
//! deterministic variants (`table-det`, `json-det`) carry **only the
//! semantic outcome** — epoch, event counts, cost, power, servers and
//! the placement diff. Solver strategy and timing are deliberately
//! excluded there, because the bit-identity contract makes them the
//! *only* legitimate difference between an incremental run and an
//! `--oracle` run on the same stream: the CI smoke job byte-diffs the
//! two `json-det` outputs to enforce exactly that. `csv` is the full
//! per-epoch record with timing last, mirroring the fleet CSV layout.

use crate::server::{EpochReport, Totals};
use replica_engine::output::OutputFormat;
use replica_obs::Stats;
use serde::Value;

/// Column header preceding the epoch lines (`Some` for table/csv).
pub fn header(format: OutputFormat) -> Option<String> {
    match format {
        OutputFormat::Table => Some(format!(
            "{:>6} {:>7} {:>7} {:>7} {:>7} {:<12} {:>14} {:>14} {:>8} {:>5} {:>5} {:>5} {:>10}",
            "epoch",
            "events",
            "changed",
            "dirty",
            "recomp",
            "solver",
            "cost",
            "power",
            "servers",
            "+",
            "-",
            "~",
            "ms"
        )),
        OutputFormat::TableDeterministic => Some(format!(
            "{:>6} {:>7} {:>7} {:>14} {:>14} {:>8} {:>5} {:>5} {:>5}",
            "epoch", "events", "changed", "cost", "power", "servers", "+", "-", "~"
        )),
        OutputFormat::Csv => Some(
            "epoch,events,changed,dirty,recomputed,solver,cost,power,servers,\
             adds,removals,remodes,latency_ms"
                .to_string(),
        ),
        OutputFormat::Json | OutputFormat::JsonDeterministic => None,
    }
}

/// Renders one epoch report as a single line (no trailing newline).
pub fn epoch_line(report: &EpochReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => format!(
            "{:>6} {:>7} {:>7} {:>7} {:>7} {:<12} {:>14.4} {:>14.4} {:>8} {:>5} {:>5} {:>5} {:>10.3}",
            report.epoch,
            report.events,
            report.changed,
            report.dirty,
            report.recomputed,
            report.solver.label(),
            report.cost,
            report.power,
            report.servers,
            report.diff.adds.len(),
            report.diff.removals.len(),
            report.diff.remodes.len(),
            report.latency_ms
        ),
        OutputFormat::TableDeterministic => format!(
            "{:>6} {:>7} {:>7} {:>14.4} {:>14.4} {:>8} {:>5} {:>5} {:>5}",
            report.epoch,
            report.events,
            report.changed,
            report.cost,
            report.power,
            report.servers,
            report.diff.adds.len(),
            report.diff.removals.len(),
            report.diff.remodes.len()
        ),
        OutputFormat::Csv => format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            report.epoch,
            report.events,
            report.changed,
            report.dirty,
            report.recomputed,
            report.solver.label(),
            report.cost,
            report.power,
            report.servers,
            report.diff.adds.len(),
            report.diff.removals.len(),
            report.diff.remodes.len(),
            report.latency_ms
        ),
        OutputFormat::Json => json_line(report, true),
        OutputFormat::JsonDeterministic => json_line(report, false),
    }
}

fn diff_values(report: &EpochReport) -> [(String, Value); 3] {
    let adds = report
        .diff
        .adds
        .iter()
        .map(|&(node, mode)| Value::Array(vec![int(node), int(mode)]))
        .collect();
    let removals = report.diff.removals.iter().map(|&n| int(n)).collect();
    let remodes = report
        .diff
        .remodes
        .iter()
        .map(|&(node, from, to)| Value::Array(vec![int(node), int(from), int(to)]))
        .collect();
    [
        ("adds".into(), Value::Array(adds)),
        ("removals".into(), Value::Array(removals)),
        ("remodes".into(), Value::Array(remodes)),
    ]
}

fn json_line(report: &EpochReport, full: bool) -> String {
    let mut fields: Vec<(String, Value)> = vec![
        ("epoch".into(), int(report.epoch as usize)),
        ("events".into(), int(report.events as usize)),
        ("changed".into(), int(report.changed as usize)),
    ];
    if full {
        fields.push(("dirty".into(), int(report.dirty)));
        fields.push(("recomputed".into(), int(report.recomputed)));
        fields.push((
            "solver".into(),
            Value::Str(report.solver.label().to_string()),
        ));
    }
    fields.push(("cost".into(), Value::Float(report.cost)));
    fields.push(("power".into(), Value::Float(report.power)));
    fields.push(("servers".into(), int(report.servers)));
    fields.extend(diff_values(report));
    if full {
        fields.push(("latency_ms".into(), Value::Float(report.latency_ms)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("epoch reports always serialize")
}

/// Renders the end-of-stream summary. `latency` is the session's
/// decision-latency distribution (milliseconds); it appears only in the
/// non-deterministic formats.
pub fn summary(
    totals: &Totals,
    final_cost: f64,
    final_power: f64,
    final_servers: usize,
    latency: &Stats,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Table => format!(
            "— {} epochs, {} events ({} effective): +{} -{} ~{} → {} servers, \
             cost {:.4}, power {:.4}\n— decision latency ms: \
             mean {:.3} min {:.3} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
            totals.epochs,
            totals.events,
            totals.changed,
            totals.adds,
            totals.removals,
            totals.remodes,
            final_servers,
            final_cost,
            final_power,
            latency.mean,
            latency.min,
            latency.p50,
            latency.p90,
            latency.p99,
            latency.max
        ),
        OutputFormat::TableDeterministic => format!(
            "— {} epochs, {} events ({} effective): +{} -{} ~{} → {} servers, \
             cost {:.4}, power {:.4}",
            totals.epochs,
            totals.events,
            totals.changed,
            totals.adds,
            totals.removals,
            totals.remodes,
            final_servers,
            final_cost,
            final_power
        ),
        // The trailer keeps the epoch-row schema: the epoch column says
        // "summary", the per-epoch-only columns stay empty, and counts
        // are session totals (the epoch count is the row count above).
        OutputFormat::Csv => format!(
            "summary,{},{},,,,{},{},{},{},{},{},{}",
            totals.events,
            totals.changed,
            final_cost,
            final_power,
            final_servers,
            totals.adds,
            totals.removals,
            totals.remodes,
            latency.mean
        ),
        OutputFormat::Json | OutputFormat::JsonDeterministic => {
            let mut fields: Vec<(String, Value)> = vec![
                ("summary".into(), Value::Bool(true)),
                ("epochs".into(), int(totals.epochs as usize)),
                ("events".into(), int(totals.events as usize)),
                ("changed".into(), int(totals.changed as usize)),
                ("adds".into(), int(totals.adds as usize)),
                ("removals".into(), int(totals.removals as usize)),
                ("remodes".into(), int(totals.remodes as usize)),
                ("cost".into(), Value::Float(final_cost)),
                ("power".into(), Value::Float(final_power)),
                ("servers".into(), int(final_servers)),
            ];
            if format == OutputFormat::Json {
                fields.push((
                    "latency_ms".into(),
                    Value::Object(vec![
                        ("mean".into(), Value::Float(latency.mean)),
                        ("min".into(), Value::Float(latency.min)),
                        ("p50".into(), Value::Float(latency.p50)),
                        ("p90".into(), Value::Float(latency.p90)),
                        ("p99".into(), Value::Float(latency.p99)),
                        ("max".into(), Value::Float(latency.max)),
                    ]),
                ));
            }
            serde_json::to_string(&Value::Object(fields)).expect("summaries always serialize")
        }
    }
}

fn int(value: usize) -> Value {
    Value::Int(value as i128)
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

    fn parse(line: &str) -> Value {
        serde_json::from_str::<Value>(line).unwrap()
    }
}
