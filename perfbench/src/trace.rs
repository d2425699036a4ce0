//! In-memory spans recorded around calls into the layers under test.
//!
//! A [`Tracer`] is either off — every call is a no-op, which is how the
//! timed runs use it — or on, when it keeps one [`Span`] per recorded
//! call: name, start, end, parent span, the operation it belongs to
//! (epoch, solve or shard id) and how many calls it covers. Spans are
//! written as JSONL only when the run ends ([`Tracer::write_jsonl`]).
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_times`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `wire.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// The epoch, solve, run or shard the call belongs to.
    pub op: u64,
    /// Calls the span covers (a batch of per-line calls is one span).
    pub calls: u64,
    /// Start, nanoseconds.
    pub start: u64,
    /// End, nanoseconds (`u64::MAX` while open).
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder. Off, it records nothing and reads no clock.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span covering one call, nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op,
            calls: 1,
            start: self.now(),
            end: u64::MAX,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, recording that it covered `calls` calls.
    pub fn end_calls(&mut self, open: Open, calls: u64) {
        let Some(id) = open.0 else { return };
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end = now;
        span.calls = calls;
    }

    /// Closes `open` (one call).
    pub fn end(&mut self, open: Open) {
        self.end_calls(open, 1);
    }

    /// Runs `f` inside a one-call span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let value = f();
        self.end(open);
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut text = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"calls\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.op, span.calls, span.start, span.end
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered.min(span.duration())
        })
        .collect()
}

/// Per-name totals: self nanoseconds, calls and spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed calls.
    pub calls: u64,
    /// Number of spans.
    pub spans: u64,
}

/// Folds spans into per-name totals.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let total = totals.entry(span.name).or_default();
        total.self_ns += self_ns;
        total.calls += span.calls;
        total.spans += 1;
    }
    totals
}

/// Wall durations, in milliseconds, of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            calls: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("epoch", None, 0, 100),
            span("solve", Some(0), 10, 40),
            span("render", Some(0), 50, 70),
            span("inner", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 100, 200),
            span("a", Some(0), 90, 130),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 190, 260),
        ];
        // Covered: 100..150 and 190..200 → 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn totals_fold_by_name() {
        let mut spans = vec![
            span("epoch", None, 0, 100),
            span("parse", Some(0), 0, 30),
            span("epoch", None, 100, 150),
        ];
        spans[1].calls = 32;
        let totals = layer_totals(&spans);
        assert_eq!(totals["epoch"].self_ns, 70 + 50);
        assert_eq!(totals["epoch"].spans, 2);
        assert_eq!(totals["parse"].calls, 32);
    }

    #[test]
    fn recorded_spans_nest_and_an_off_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 7);
        let inner = tracer.begin("inner", 7);
        tracer.end_calls(inner, 3);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].calls, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration());

        let mut off = Tracer::new(false);
        let open = off.begin("x", 0);
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
