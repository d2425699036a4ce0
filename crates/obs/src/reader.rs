//! The JSONL trace reader: the exact inverse of
//! [`Event::to_json_line`].
//!
//! [`Trace::parse`] (or [`Trace::load`]) turns trace text back into
//! typed [`Event`]s line by line. Each line is parsed by the workspace's
//! one JSON parser, the vendored `serde_json` (its grammar and nesting
//! limit are documented there), and must then be a *flat* object:
//! every value a string, a number or `null`, every key once. Field
//! *order* is immaterial and unknown keys are tolerated (forward
//! compatibility with future writer fields).
//!
//! Malformed input **never panics**: every defect becomes a typed
//! [`ParseError`] carrying its 1-based line number, collected in
//! [`Trace::errors`] while the well-formed lines still parse. Floats
//! written as `null` (the writer's encoding for non-finite values)
//! come back as `f64::NAN` — lossy by design, but re-emitting the
//! parsed event reproduces the original bytes, which is the fixpoint
//! property `crates/obs/tests/wire_roundtrip.rs` pins.

use crate::event::{Event, SchedOp};
use crate::hist::Stats;
use serde::Value;
use std::path::Path;

/// A defect in trace input, located by its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The trace file could not be read at all.
    Io {
        /// Path of the unreadable file.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// The line is not one well-formed flat JSON object.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What the parser choked on.
        message: String,
    },
    /// The same key appeared twice in one line.
    DuplicateKey {
        /// 1-based line number.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// The line's `"kind"` names no known event.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The unrecognized discriminant.
        kind: String,
    },
    /// A field the event kind requires is absent.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The event kind being parsed.
        kind: String,
        /// The absent field.
        field: &'static str,
    },
    /// A field is present but holds the wrong type or an invalid value.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
        /// What was expected / what was found.
        message: String,
    },
}

impl ParseError {
    /// The 1-based line number the error points at (`None` for I/O
    /// errors, which concern the whole file).
    pub fn line(&self) -> Option<usize> {
        match self {
            ParseError::Io { .. } => None,
            ParseError::Syntax { line, .. }
            | ParseError::DuplicateKey { line, .. }
            | ParseError::UnknownKind { line, .. }
            | ParseError::MissingField { line, .. }
            | ParseError::BadValue { line, .. } => Some(*line),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io { path, message } => write!(f, "cannot read trace {path}: {message}"),
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key \"{key}\"")
            }
            ParseError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown event kind \"{kind}\"")
            }
            ParseError::MissingField { line, kind, field } => {
                write!(f, "line {line}: {kind} event is missing \"{field}\"")
            }
            ParseError::BadValue {
                line,
                field,
                message,
            } => write!(f, "line {line}: bad \"{field}\": {message}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// One successfully parsed trace line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceLine {
    /// 1-based line number in the source text.
    pub line_no: usize,
    /// The decoded event.
    pub event: Event,
    /// The sink-stamped wall timestamp, when the line carried one.
    pub ts_ms: Option<u64>,
    /// Shard/attempt provenance, assigned from the most recent
    /// [`Event::ShardSegment`] marker (the marker line itself included).
    /// `None` before any marker — e.g. for the whole of a single-process
    /// trace, or the supervision prologue of an assembled fleet trace.
    pub provenance: Option<(usize, usize)>,
}

/// A parsed trace: every well-formed line as a [`TraceLine`], every
/// defect as a [`ParseError`]. Parsing is total — it never panics and
/// never stops at the first bad line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The well-formed lines, in input order.
    pub lines: Vec<TraceLine>,
    /// The defects, in input order.
    pub errors: Vec<ParseError>,
}

impl Trace {
    /// Parses trace text. Blank lines are skipped; everything else
    /// either becomes a [`TraceLine`] or a [`ParseError`]. Provenance
    /// is threaded from [`Event::ShardSegment`] markers as documented
    /// on [`TraceLine::provenance`].
    pub fn parse(text: &str) -> Trace {
        let mut trace = Trace::default();
        let mut provenance = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            match parse_line(raw, line_no) {
                Ok((event, ts_ms)) => {
                    if let Event::ShardSegment { shard, attempt } = event {
                        provenance = Some((shard, attempt));
                    }
                    trace.lines.push(TraceLine {
                        line_no,
                        event,
                        ts_ms,
                        provenance,
                    });
                }
                Err(e) => trace.errors.push(e),
            }
        }
        trace
    }

    /// Reads and parses the trace file at `path`.
    pub fn load(path: &Path) -> Result<Trace, ParseError> {
        let text = std::fs::read_to_string(path).map_err(|e| ParseError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(Trace::parse(&text))
    }

    /// The parsed events, in input order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.lines.iter().map(|l| &l.event)
    }
}

/// Parses one wire line into its event and optional `ts_ms` stamp.
pub fn parse_line(raw: &str, line_no: usize) -> Result<(Event, Option<u64>), ParseError> {
    let fields = flat_object(raw, line_no)?;
    let at = Fields {
        fields: &fields,
        line: line_no,
    };
    let kind = at.str_field("?", "kind")?;
    let kind_owned = kind.to_string();
    let req_u64 = |field| at.u64_field(&kind_owned, field);
    let req_f64 = |field| at.f64_field(&kind_owned, field);
    let req_str = |field| at.str_field(&kind_owned, field);
    let event = match kind {
        "span_start" => Event::SpanStart {
            id: req_u64("id")?,
            parent: at.opt_u64_or_null_field(&kind_owned, "parent")?,
            name: req_str("name")?.to_string(),
            label: req_str("label")?.to_string(),
        },
        "span_end" => Event::SpanEnd {
            id: req_u64("id")?,
            name: req_str("name")?.to_string(),
            label: req_str("label")?.to_string(),
            micros: req_u64("micros")?,
        },
        "progress" => Event::Progress {
            done: req_u64("done")? as usize,
            total: req_u64("total")? as usize,
            jobs_per_sec: req_f64("jobs_per_sec")?,
            eta_secs: req_f64("eta_secs")?,
        },
        "counter" => Event::Counter {
            name: req_str("name")?.to_string(),
            value: req_u64("value")?,
        },
        "histogram" => Event::Histogram {
            name: req_str("name")?.to_string(),
            unit: req_str("unit")?.to_string(),
            stats: Stats {
                count: req_u64("count")? as usize,
                mean: req_f64("mean")?,
                min: req_f64("min")?,
                max: req_f64("max")?,
                p50: req_f64("p50")?,
                p90: req_f64("p90")?,
                // Traces written before the p99 extension lack the field;
                // read them as 0.0 rather than rejecting the line.
                p99: at.opt_f64_field("p99")?.unwrap_or(0.0),
            },
        },
        "sched" => {
            let op_name = req_str("op")?;
            let op = SchedOp::parse(op_name).ok_or_else(|| ParseError::BadValue {
                line: line_no,
                field: "op".to_string(),
                message: format!("unknown sched op \"{op_name}\""),
            })?;
            Event::Sched {
                op,
                shard: req_u64("shard")? as usize,
                attempt: req_u64("attempt")? as usize,
                not_before_ms: at.opt_u64_field("not_before_ms")?,
            }
        }
        "segment" => Event::ShardSegment {
            shard: req_u64("shard")? as usize,
            attempt: req_u64("attempt")? as usize,
        },
        other => {
            return Err(ParseError::UnknownKind {
                line: line_no,
                kind: other.to_string(),
            })
        }
    };
    let ts_ms = at.opt_u64_field("ts_ms")?;
    Ok((event, ts_ms))
}

/// Parses one line as a flat JSON object: every value a string, a
/// number or `null`, every key once.
fn flat_object(raw: &str, line: usize) -> Result<Vec<(String, Value)>, ParseError> {
    let syntax = |message: String| ParseError::Syntax { line, message };
    let Value::Object(fields) = serde_json::from_str(raw).map_err(|e| syntax(e.to_string()))?
    else {
        return Err(syntax("a trace line must be one JSON object".into()));
    };
    for (i, (key, value)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(seen, _)| seen == key) {
            return Err(ParseError::DuplicateKey {
                line,
                key: key.clone(),
            });
        }
        if matches!(value, Value::Bool(_) | Value::Array(_) | Value::Object(_)) {
            return Err(syntax(format!("\"{key}\" is not a string, number or null")));
        }
    }
    Ok(fields)
}

struct Fields<'a> {
    fields: &'a [(String, Value)],
    line: usize,
}

impl Fields<'_> {
    fn get(&self, field: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(key, _)| key == field)
            .map(|(_, value)| value)
    }

    fn require(&self, kind: &str, field: &'static str) -> Result<&Value, ParseError> {
        self.get(field).ok_or(ParseError::MissingField {
            line: self.line,
            kind: kind.to_string(),
            field,
        })
    }

    fn bad(&self, field: &str, message: impl Into<String>) -> ParseError {
        ParseError::BadValue {
            line: self.line,
            field: field.to_string(),
            message: message.into(),
        }
    }

    fn as_u64(&self, field: &str, value: &Value) -> Result<u64, ParseError> {
        match value {
            Value::Int(i) => u64::try_from(*i)
                .map_err(|_| self.bad(field, format!("expected unsigned integer, got {i}"))),
            other => Err(self.bad(field, format!("expected unsigned integer, got {other:?}"))),
        }
    }

    /// A number, or `null`: the writer encodes non-finite floats as
    /// `null`, read back as NaN.
    fn as_f64(&self, field: &str, value: &Value) -> Result<f64, ParseError> {
        match value {
            Value::Null => Ok(f64::NAN),
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(self.bad(field, format!("expected number or null, got {other:?}"))),
        }
    }

    fn u64_field(&self, kind: &str, field: &'static str) -> Result<u64, ParseError> {
        self.as_u64(field, self.require(kind, field)?)
    }

    fn f64_field(&self, kind: &str, field: &'static str) -> Result<f64, ParseError> {
        self.as_f64(field, self.require(kind, field)?)
    }

    fn str_field<'a>(&'a self, kind: &str, field: &'static str) -> Result<&'a str, ParseError> {
        match self.require(kind, field)? {
            Value::Str(s) => Ok(s),
            other => Err(self.bad(field, format!("expected string, got {other:?}"))),
        }
    }

    /// An `f64` field that may be absent (`null` still means non-finite).
    fn opt_f64_field(&self, field: &'static str) -> Result<Option<f64>, ParseError> {
        self.get(field)
            .map(|value| self.as_f64(field, value))
            .transpose()
    }

    /// A `u64` field that may be absent (but not `null`).
    fn opt_u64_field(&self, field: &'static str) -> Result<Option<u64>, ParseError> {
        self.get(field)
            .map(|value| self.as_u64(field, value))
            .transpose()
    }

    /// A required field that is either a `u64` or `null`
    /// (`span_start.parent`).
    fn opt_u64_or_null_field(
        &self,
        kind: &str,
        field: &'static str,
    ) -> Result<Option<u64>, ParseError> {
        match self.require(kind, field)? {
            Value::Null => Ok(None),
            value => self.as_u64(field, value).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> Event {
        parse_line(line, 1).expect(line).0
    }

    #[test]
    fn every_kind_parses_back() {
        assert_eq!(
            one("{\"kind\":\"span_start\",\"id\":2,\"parent\":1,\"name\":\"solve\",\"label\":\"x\"}"),
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "solve".into(),
                label: "x".into(),
            }
        );
        assert_eq!(
            one(
                "{\"kind\":\"span_end\",\"id\":2,\"name\":\"solve\",\"label\":\"x\",\"micros\":17}"
            ),
            Event::SpanEnd {
                id: 2,
                name: "solve".into(),
                label: "x".into(),
                micros: 17,
            }
        );
        assert_eq!(
            one("{\"kind\":\"sched\",\"op\":\"steal\",\"shard\":5,\"attempt\":0}"),
            Event::Sched {
                op: SchedOp::Steal,
                shard: 5,
                attempt: 0,
                not_before_ms: None,
            }
        );
        assert_eq!(
            one("{\"kind\":\"segment\",\"shard\":1,\"attempt\":2}"),
            Event::ShardSegment {
                shard: 1,
                attempt: 2
            }
        );
    }

    #[test]
    fn field_order_is_immaterial_and_unknown_keys_are_tolerated() {
        let (event, ts) = parse_line(
            "{\"value\":9,\"future_field\":\"?\",\"kind\":\"counter\",\"name\":\"c\",\"ts_ms\":4}",
            1,
        )
        .unwrap();
        assert_eq!(
            event,
            Event::Counter {
                name: "c".into(),
                value: 9
            }
        );
        assert_eq!(ts, Some(4));
    }

    #[test]
    fn null_floats_come_back_as_nan() {
        let Event::Progress { eta_secs, .. } = one(
            "{\"kind\":\"progress\",\"done\":1,\"total\":2,\"jobs_per_sec\":0.5,\"eta_secs\":null}",
        ) else {
            panic!("not progress");
        };
        assert!(eta_secs.is_nan());
    }

    #[test]
    fn escapes_round_trip_including_surrogate_pairs() {
        let original = Event::Histogram {
            name: "we\"ird\\na\nme\t\u{1}\u{1F600}".into(),
            unit: "ms".into(),
            stats: Stats::default(),
        };
        let line = original.to_json_line(None);
        assert_eq!(one(&line), original);
        // A surrogate-pair escape decodes to the astral char too.
        let Event::Counter { name, .. } =
            one("{\"kind\":\"counter\",\"name\":\"\\ud83d\\ude00\",\"value\":1}")
        else {
            panic!("not counter");
        };
        assert_eq!(name, "\u{1F600}");
    }

    #[test]
    fn malformed_lines_become_typed_errors_with_line_numbers() {
        let text = "\n\
            {\"kind\":\"counter\",\"name\":\"ok\",\"value\":1}\n\
            {\"kind\":\"counter\",\"name\":\"torn\n\
            {\"kind\":\"mystery\",\"x\":1}\n\
            {\"kind\":\"counter\",\"value\":2}\n\
            {\"kind\":\"counter\",\"name\":\"dup\",\"name\":\"dup\",\"value\":3}\n\
            {\"kind\":\"counter\",\"name\":\"neg\",\"value\":-4}\n\
            {\"kind\":\"counter\",\"name\":\"ok2\",\"value\":5}\n";
        let trace = Trace::parse(text);
        assert_eq!(trace.lines.len(), 2);
        assert_eq!(trace.lines[0].line_no, 2);
        assert_eq!(trace.lines[1].line_no, 8);
        let lines: Vec<Option<usize>> = trace.errors.iter().map(|e| e.line()).collect();
        assert_eq!(lines, vec![Some(3), Some(4), Some(5), Some(6), Some(7)]);
        assert!(matches!(&trace.errors[0], ParseError::Syntax { .. }));
        assert!(matches!(
            &trace.errors[1],
            ParseError::UnknownKind { kind, .. } if kind == "mystery"
        ));
        assert!(matches!(
            &trace.errors[2],
            ParseError::MissingField { field: "name", .. }
        ));
        assert!(matches!(&trace.errors[3], ParseError::DuplicateKey { .. }));
        assert!(matches!(&trace.errors[4], ParseError::BadValue { .. }));
    }

    #[test]
    fn lines_must_be_flat_objects() {
        for bad in [
            "[1,2]",
            "{\"kind\":\"counter\",\"name\":[\"a\"],\"value\":1}",
            "{\"kind\":\"counter\",\"name\":\"a\",\"value\":{\"n\":1}}",
            "{\"kind\":\"counter\",\"name\":\"a\",\"value\":true}",
        ] {
            assert!(
                matches!(parse_line(bad, 9), Err(ParseError::Syntax { line: 9, .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn segment_markers_assign_provenance() {
        let text = "\
            {\"kind\":\"sched\",\"op\":\"claim\",\"shard\":0,\"attempt\":0}\n\
            {\"kind\":\"segment\",\"shard\":0,\"attempt\":0}\n\
            {\"kind\":\"counter\",\"name\":\"a\",\"value\":1}\n\
            {\"kind\":\"segment\",\"shard\":1,\"attempt\":2}\n\
            {\"kind\":\"counter\",\"name\":\"a\",\"value\":1}\n";
        let trace = Trace::parse(text);
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        let provenance: Vec<Option<(usize, usize)>> =
            trace.lines.iter().map(|l| l.provenance).collect();
        assert_eq!(
            provenance,
            vec![None, Some((0, 0)), Some((0, 0)), Some((1, 2)), Some((1, 2))]
        );
    }
}
