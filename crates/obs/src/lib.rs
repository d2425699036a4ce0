//! # `replica-obs` — out-of-band observability for the workspace
//!
//! A small telemetry layer whose only dependencies are the vendored
//! `serde` and `serde_json` (the trace reader parses with the latter):
//! hierarchical spans, monotonic counters and wall-clock histograms,
//! emitted as [`Event`]s through a pluggable [`Sink`] (no-op, in-memory
//! for tests, buffered JSONL file). The engine's fleet runner, the `fleetd` shard workers
//! and the experiments harness all trace through the one [`Obs`]
//! handle defined here.
//!
//! **The out-of-band invariant.** Telemetry never feeds back into
//! computation: every deterministic artifact (FNV cell checksums,
//! `*-det` renderings, merged shard digests) is byte-identical with
//! tracing off, on, and at any [`Verbosity`]. The engine's proptest
//! suite pins this. Consequently everything here is advisory — wall
//! timestamps, durations and throughput are *measurements of* a run,
//! never *inputs to* one.
//!
//! **Cost when disabled.** [`Obs::noop()`] is a `None` behind a
//! pointer-sized handle: spans, counters and progress calls reduce to
//! an `Option` check. The committed `BENCH_obs.json` pins the no-op
//! overhead at ≈ 0.
//!
//! The distribution statistics ([`Stats`], [`P2Quantile`],
//! [`MetricAccumulator`]) live here too — they started inside the
//! engine's streaming aggregation and moved down so deterministic
//! aggregates and telemetry histograms share one implementation (the
//! engine re-exports them unchanged).

#![warn(missing_docs)]

pub mod analyze;
mod event;
mod hist;
pub mod reader;
mod sink;

pub use analyze::{
    Analysis, AttemptEvent, BatchSpan, HistogramLine, PhaseProfile, SchedAnalysis, ShardTimeline,
    SlotUtilization, SlowSolve, ThroughputPoint,
};
pub use event::{Event, SchedOp};
pub use hist::{MetricAccumulator, P2Quantile, Stats};
pub use reader::{ParseError, Trace, TraceLine};
pub use sink::{FanoutSink, JsonlSink, MemorySink, NoopSink, Sink};

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much detail an [`Obs`] handle emits. "Off" is not a level —
/// it is [`Obs::noop()`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Run/batch spans, progress events, histograms and counters.
    Progress,
    /// Everything above plus per-solve spans and DP phase sub-spans.
    Solve,
}

struct Shared {
    sink: Arc<dyn Sink>,
    verbosity: Verbosity,
    next_id: AtomicU64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// A cheaply clonable telemetry handle. Everything an instrumented
/// component needs: span creation, progress, counters, histograms.
///
/// The disabled handle ([`Obs::noop()`]) makes every operation an
/// `Option` check — instrumented code paths need no `if traced`
/// branches of their own.
#[derive(Clone)]
pub struct Obs {
    shared: Option<Arc<Shared>>,
}

impl Obs {
    /// The disabled handle: emits nothing, costs (almost) nothing.
    pub fn noop() -> Obs {
        Obs { shared: None }
    }

    /// A handle emitting to `sink` at the given verbosity.
    pub fn new(sink: Arc<dyn Sink>, verbosity: Verbosity) -> Obs {
        Obs {
            shared: Some(Arc::new(Shared {
                sink,
                verbosity,
                next_id: AtomicU64::new(1),
                counters: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Convenience: a handle tracing to a JSONL file at `path`.
    pub fn jsonl(path: &Path, verbosity: Verbosity) -> std::io::Result<Obs> {
        Ok(Obs::new(Arc::new(JsonlSink::create(path)?), verbosity))
    }

    /// Whether this handle emits anything at all.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether per-solve spans (and DP phase sub-spans) are emitted.
    pub fn solve_detail(&self) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| s.verbosity >= Verbosity::Solve)
    }

    /// Opens a root span. Dropping the returned guard closes it with
    /// its measured wall-clock duration.
    pub fn span(&self, name: &'static str, label: impl Into<String>) -> Span {
        self.open_span(name, label.into(), None)
    }

    fn open_span(&self, name: &'static str, label: String, parent: Option<u64>) -> Span {
        let Some(shared) = &self.shared else {
            return Span::disabled();
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        shared.sink.emit(&Event::SpanStart {
            id,
            parent,
            name: name.to_string(),
            label: label.clone(),
        });
        Span {
            inner: Some(SpanInner {
                obs: self.clone(),
                id,
                name,
                label,
                start: Instant::now(),
            }),
        }
    }

    /// Emits a progress event: `done` of `total` jobs after
    /// `elapsed_secs` of wall-clock time (throughput and ETA are
    /// derived; a zero-elapsed or zero-throughput snapshot reports 0).
    pub fn progress(&self, done: usize, total: usize, elapsed_secs: f64) {
        let Some(shared) = &self.shared else { return };
        let jobs_per_sec = if elapsed_secs > 0.0 {
            done as f64 / elapsed_secs
        } else {
            0.0
        };
        let eta_secs = if jobs_per_sec > 0.0 {
            total.saturating_sub(done) as f64 / jobs_per_sec
        } else {
            0.0
        };
        shared.sink.emit(&Event::Progress {
            done,
            total,
            jobs_per_sec,
            eta_secs,
        });
    }

    /// Adds `delta` to the named monotonic counter. Counters accumulate
    /// silently until [`Obs::flush_counters`] emits them.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let Some(shared) = &self.shared else { return };
        *shared
            .counters
            .lock()
            .expect("obs counters poisoned")
            .entry(name)
            .or_insert(0) += delta;
    }

    /// Emits one [`Event::Counter`] per accumulated counter (in name
    /// order) and resets them.
    pub fn flush_counters(&self) {
        let Some(shared) = &self.shared else { return };
        let counters = std::mem::take(&mut *shared.counters.lock().expect("obs counters poisoned"));
        for (name, value) in counters {
            shared.sink.emit(&Event::Counter {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Emits a pre-built event as-is (no verbosity gating). This is the
    /// raw seam the fleet coordinator uses for supervision events
    /// ([`Event::Sched`]) and trace provenance markers
    /// ([`Event::ShardSegment`]) — kinds that have no dedicated helper
    /// because they are not produced by instrumented solver code.
    pub fn emit(&self, event: Event) {
        if let Some(shared) = &self.shared {
            shared.sink.emit(&event);
        }
    }

    /// Emits a histogram snapshot under `name` (values in `unit`).
    pub fn histogram(&self, name: impl Into<String>, unit: &'static str, stats: Stats) {
        let Some(shared) = &self.shared else { return };
        shared.sink.emit(&Event::Histogram {
            name: name.into(),
            unit: unit.to_string(),
            stats,
        });
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            shared.sink.flush();
        }
    }
}

struct SpanInner {
    obs: Obs,
    id: u64,
    name: &'static str,
    label: String,
    start: Instant,
}

/// An open span; dropping it emits the matching [`Event::SpanEnd`]
/// with the measured duration. Disabled spans (from a no-op handle)
/// are inert and their children are disabled too, so instrumented code
/// can thread `&Span` unconditionally.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// A span that emits nothing and parents nothing.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this span actually emits.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span (disabled if `self` is).
    pub fn child(&self, name: &'static str, label: impl Into<String>) -> Span {
        match &self.inner {
            Some(inner) => inner.obs.open_span(name, label.into(), Some(inner.id)),
            None => Span::disabled(),
        }
    }

    /// This span's id (`None` when disabled).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|inner| inner.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            if let Some(shared) = &inner.obs.shared {
                shared.sink.emit(&Event::SpanEnd {
                    id: inner.id,
                    name: inner.name.to_string(),
                    label: inner.label,
                    micros: inner.start.elapsed().as_micros() as u64,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_obs(verbosity: Verbosity) -> (Obs, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Obs::new(sink.clone(), verbosity), sink)
    }

    #[test]
    fn noop_handle_is_inert() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        assert!(!obs.solve_detail());
        let span = obs.span("campaign", "x");
        assert!(!span.enabled());
        assert!(span.id().is_none());
        assert!(!span.child("batch", "y").enabled());
        obs.progress(1, 2, 0.5);
        obs.counter_add("cells_solved", 3);
        obs.flush_counters();
        obs.flush();
    }

    #[test]
    fn spans_nest_and_close_in_lifo_order() {
        let (obs, sink) = memory_obs(Verbosity::Solve);
        {
            let root = obs.span("campaign", "jobs 0..4");
            let child = root.child("batch", "0..2");
            let grand = child.child("solve", "s#0 dp");
            drop(grand);
        }
        let events = sink.take();
        assert_eq!(events.len(), 6, "{events:?}");
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "span_start",
                "span_start",
                "span_start",
                "span_end",
                "span_end",
                "span_end"
            ]
        );
        // Parent links form the chain root -> child -> grandchild.
        let ids: Vec<(u64, Option<u64>)> = events[..3]
            .iter()
            .map(|e| match e {
                Event::SpanStart { id, parent, .. } => (*id, *parent),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids[0].1, None);
        assert_eq!(ids[1].1, Some(ids[0].0));
        assert_eq!(ids[2].1, Some(ids[1].0));
    }

    #[test]
    fn progress_derives_throughput_and_eta() {
        let (obs, sink) = memory_obs(Verbosity::Progress);
        obs.progress(10, 30, 2.0);
        match &sink.take()[0] {
            Event::Progress {
                done,
                total,
                jobs_per_sec,
                eta_secs,
            } => {
                assert_eq!((*done, *total), (10, 30));
                assert!((jobs_per_sec - 5.0).abs() < 1e-12);
                assert!((eta_secs - 4.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Degenerate snapshots never emit non-finite numbers.
        obs.progress(0, 30, 0.0);
        match &sink.take()[0] {
            Event::Progress {
                jobs_per_sec,
                eta_secs,
                ..
            } => assert_eq!((*jobs_per_sec, *eta_secs), (0.0, 0.0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_and_flush_in_name_order() {
        let (obs, sink) = memory_obs(Verbosity::Progress);
        obs.counter_add("cells_solved", 2);
        obs.counter_add("cells_failed", 1);
        obs.counter_add("cells_solved", 3);
        assert!(sink.is_empty(), "counters are silent until flushed");
        obs.flush_counters();
        let events = sink.take();
        assert_eq!(
            events,
            vec![
                Event::Counter {
                    name: "cells_failed".into(),
                    value: 1
                },
                Event::Counter {
                    name: "cells_solved".into(),
                    value: 5
                },
            ]
        );
        obs.flush_counters();
        assert!(sink.is_empty(), "flush resets the counters");
    }

    #[test]
    fn verbosity_gates_solve_detail_only() {
        let (progress, _) = memory_obs(Verbosity::Progress);
        let (solve, _) = memory_obs(Verbosity::Solve);
        assert!(progress.enabled() && !progress.solve_detail());
        assert!(solve.enabled() && solve.solve_detail());
    }
}
