//! Causal spans: named intervals of simulated time with parent/child links.
//!
//! A [`Span`] models one unit of causally related work — a worker's compute
//! phase, an aggregation window on the switch, a Help recovery — with a
//! deterministic identity, optional parent, `[start_ns, end_ns]` bounds in
//! simulated nanoseconds, and typed attributes. Spans are not a separate
//! artifact: a finished span renders as one ordinary [`TraceEvent`] of kind
//! `"span"`, so span and point events interleave in a single JSONL trace
//! and the analyzer reconstructs timelines from one file.
//!
//! Determinism rules:
//!
//! - IDs come from [`Trace::alloc_span_id`], sequential from 1. The
//!   simulator is single-threaded, so allocation order — and therefore
//!   every ID — is identical across same-seed runs.
//! - Timestamps are simulated nanoseconds, never wall clock.
//! - Attributes render in insertion order; emitters must insert in a fixed
//!   order.

use std::fmt::{Display, Write as _};

use crate::json::render_display;
use crate::trace::{push_key, Trace, TraceEvent};

/// The members [`Span::to_event`] writes itself; an attribute may not
/// reuse one.
const FIXED_KEYS: [&str; 7] = ["t_ns", "kind", "span", "parent", "name", "end_ns", "dur_ns"];

/// A named interval of simulated time, optionally linked to a parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic identity, allocated by [`Trace::alloc_span_id`].
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `"worker.compute"` or `"switch.agg_window"`.
    pub name: &'static str,
    /// Start of the interval in simulated nanoseconds.
    pub start_ns: u64,
    /// End of the interval in simulated nanoseconds (set by [`Span::end`]).
    pub end_ns: u64,
    /// Attributes, already rendered as `,"key":value` in insertion order:
    /// the tail of the span's line, waiting for the fixed members that
    /// precede it (`end_ns` is not known until [`Span::end`]).
    attrs: String,
}

impl Span {
    /// Opens a span. `id` should come from [`Trace::alloc_span_id`].
    pub fn begin(id: u64, name: &'static str, start_ns: u64) -> Self {
        Span {
            id,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: String::new(),
        }
    }

    /// Links this span under `parent` (builder style).
    pub fn child_of(mut self, parent: u64) -> Self {
        self.parent = Some(parent);
        self
    }

    fn key(&mut self, key: &'static str) {
        debug_assert!(!FIXED_KEYS.contains(&key), "span attr reuses {key:?}");
        push_key(&mut self.attrs, key);
    }

    /// Adds an unsigned integer attribute (builder style).
    pub fn attr_u64(mut self, key: &'static str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.attrs, "{value}");
        self
    }

    /// Adds a string attribute (builder style), written through `Display`.
    pub fn attr_str(mut self, key: &'static str, value: impl Display) -> Self {
        self.key(key);
        render_display(&value, &mut self.attrs);
        self
    }

    /// Closes the interval at `end_ns` (builder style). Ends before the
    /// start are clamped to the start, so durations never underflow.
    pub fn end(mut self, end_ns: u64) -> Self {
        self.end_ns = end_ns.max(self.start_ns);
        self
    }

    /// Interval length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Renders the span as a trace event of kind `"span"`:
    /// `{"t_ns":start,"kind":"span","span":id,["parent":p,]"name":...,
    /// "end_ns":...,"dur_ns":...,...attrs}`.
    pub fn to_event(&self) -> TraceEvent {
        let mut ev = TraceEvent::new(self.start_ns, "span").with_u64("span", self.id);
        if let Some(parent) = self.parent {
            ev = ev.with_u64("parent", parent);
        }
        ev.with_str("name", self.name)
            .with_u64("end_ns", self.end_ns)
            .with_u64("dur_ns", self.dur_ns())
            .extend(|line| line.push_str(&self.attrs))
    }

    /// Records the finished span into `trace`.
    pub fn emit(self, trace: &Trace) {
        trace.record(self.to_event());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_renders_as_span_event() {
        let trace = Trace::new();
        let id = trace.alloc_span_id();
        Span::begin(id, "worker.compute", 100)
            .attr_u64("worker", 2)
            .attr_str("strategy", "iSW")
            .end(350)
            .emit(&trace);
        let jsonl = trace.to_jsonl();
        assert_eq!(
            jsonl.trim_end(),
            r#"{"t_ns":100,"kind":"span","span":1,"name":"worker.compute","end_ns":350,"dur_ns":250,"worker":2,"strategy":"iSW"}"#
        );
    }

    #[test]
    fn parent_links_and_clamping() {
        let trace = Trace::new();
        let parent = trace.alloc_span_id();
        let child = trace.alloc_span_id();
        let span = Span::begin(child, "agg", 500).child_of(parent).end(400);
        assert_eq!(span.end_ns, 500, "end clamped to start");
        assert_eq!(span.dur_ns(), 0);
        assert_eq!(
            span.to_event().line(),
            r#"{"t_ns":500,"kind":"span","span":2,"parent":1,"name":"agg","end_ns":500,"dur_ns":0}"#,
            "parent id survives rendering"
        );
        assert_eq!((parent, child), (1, 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn an_attr_may_not_repeat_a_key_or_a_fixed_member() {
        let repeat = |f: fn() -> Span| std::panic::catch_unwind(f).is_err();
        assert!(repeat(|| Span::begin(1, "s", 0)
            .attr_u64("seg", 1)
            .attr_u64("seg", 2)));
        assert!(repeat(|| Span::begin(1, "s", 0).attr_str("name", "again")));
    }

    #[test]
    fn ids_are_deterministic_across_identical_runs() {
        let run = |n: u64| -> Vec<u64> {
            let trace = Trace::new();
            (0..n).map(|_| trace.alloc_span_id()).collect()
        };
        assert_eq!(run(5), run(5));
        assert_eq!(run(5), vec![1, 2, 3, 4, 5]);
    }
}
