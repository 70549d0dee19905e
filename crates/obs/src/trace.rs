//! Structured event tracing exported as JSON Lines.
//!
//! A [`Trace`] is an append-only log of [`TraceEvent`]s, each stamped with
//! simulated time. An event *is* its line: the call site renders
//! `{"t_ns":…,"kind":"…",…}` as it names each field, and those bytes are
//! what the ring keeps, what the sink receives and what the artifact holds
//! — the determinism tests compare these exports byte for byte. Kinds and
//! keys are literals (`&'static str`); values render through the one
//! number/string writer in [`crate::json`].
//!
//! Long runs emit far more events than a report needs to retain, so a trace
//! can be *bounded* (a ring buffer that drops the oldest events and counts
//! the drops) and/or *streaming* (every line is written to a sink the
//! moment it is recorded, so memory stays flat regardless of run length).
//! The two are orthogonal: a streaming trace may still keep a bounded
//! in-memory tail for post-mortem inspection.

use std::collections::VecDeque;
use std::fmt::{Display, Write as _};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{render_display, render_f64};

/// What closes a line; every [`TraceEvent`] ends with it at all times.
const CLOSE: &str = "}\n";

/// Bytes a line buffer starts with. The longest line the simulator emits
/// (`pkt.tx` of a tenant run late in a long simulation) is about 240, so
/// building and recording an event is one allocation.
const LINE_CAPACITY: usize = 256;

/// Whether the member run `line` already names `key`. A `"` inside a
/// rendered string is always escaped, so `,"key":` (or `{"key":`) can only
/// be a member name: a byte search, not a parse.
fn has_key(line: &str, key: &str) -> bool {
    line.match_indices(key).any(|(i, _)| {
        (line[..i].ends_with(",\"") || line[..i].ends_with("{\""))
            && line[i + key.len()..].starts_with("\":")
    })
}

/// Appends `,"key":` to an open run of object members; the caller appends
/// the value. Appending emits a repeated key twice (an object built through
/// [`JsonValue::insert`](crate::JsonValue::insert) keeps one), so a repeat
/// is a bug in the emitter and panics in debug builds.
pub(crate) fn push_key(out: &mut String, key: &'static str) {
    debug_assert!(!has_key(out, key), "trace event repeats key {key:?}");
    out.push(',');
    render_display(&key, out);
    out.push(':');
}

/// One structured event at a point in simulated time, held as the JSONL
/// line it is exported as: `{"t_ns":...,"kind":"...",...fields}\n`, fields
/// in call order. The line is the only representation — the ring, the
/// streaming sink and the sharded hand-over all carry these bytes — so
/// readers parse [`TraceEvent::line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    line: String,
}

impl TraceEvent {
    /// Starts an event of `kind` (e.g. `"iteration"`) at simulated time
    /// `t_ns` nanoseconds.
    pub fn new(t_ns: u64, kind: &'static str) -> Self {
        let mut line = String::with_capacity(LINE_CAPACITY);
        let _ = write!(line, "{{\"t_ns\":{t_ns},\"kind\":");
        render_display(&kind, &mut line);
        line.push_str(CLOSE);
        TraceEvent { line }
    }

    /// Reopens the line, lets `append` extend its members, and closes it.
    pub(crate) fn extend(mut self, append: impl FnOnce(&mut String)) -> Self {
        self.line.truncate(self.line.len() - CLOSE.len());
        append(&mut self.line);
        self.line.push_str(CLOSE);
        self
    }

    /// Adds an unsigned integer field (builder style).
    pub fn with_u64(self, key: &'static str, value: u64) -> Self {
        self.extend(|line| {
            push_key(line, key);
            let _ = write!(line, "{value}");
        })
    }

    /// Adds a float field (builder style).
    pub fn with_f64(self, key: &'static str, value: f64) -> Self {
        self.extend(|line| {
            push_key(line, key);
            render_f64(value, line);
        })
    }

    /// Adds a string field (builder style), written through `Display`.
    pub fn with_str(self, key: &'static str, value: impl Display) -> Self {
        self.extend(|line| {
            push_key(line, key);
            render_display(&value, line);
        })
    }

    /// The event as one JSON object, without the line terminator.
    pub fn line(&self) -> &str {
        &self.line[..self.line.len() - 1]
    }
}

struct TraceInner {
    /// In-memory tail of events, oldest first.
    events: VecDeque<TraceEvent>,
    /// `None` = unbounded; `Some(n)` = keep at most the newest `n` events.
    capacity: Option<usize>,
    /// Events evicted from the in-memory buffer (streamed events that were
    /// written to the sink before eviction still count here: `dropped`
    /// reports memory-buffer loss, not sink loss).
    dropped: u64,
    /// Optional streaming sink; each event is written as one JSONL line at
    /// record time.
    writer: Option<Box<dyn Write + Send>>,
    /// I/O errors swallowed while streaming (the simulation must not abort
    /// mid-run because a disk filled up; the count is exposed instead).
    write_errors: u64,
}

/// An append-only, thread-safe event log with optional bounding and
/// streaming.
///
/// - [`Trace::new`] buffers every event in memory (the original behaviour).
/// - [`Trace::bounded`] keeps only the newest `capacity` events, counting
///   evictions in [`Trace::dropped`].
/// - [`Trace::with_writer`] additionally streams each event to a sink as it
///   is recorded; combined with a small capacity (even 0) this keeps memory
///   flat for arbitrarily long runs.
///
/// The trace also allocates deterministic span identifiers for the span
/// model in [`crate::span`]: IDs are handed out sequentially from 1 in
/// allocation order, which is deterministic because the simulator is
/// single-threaded.
pub struct Trace {
    inner: Mutex<TraceInner>,
    recorded: AtomicU64,
    next_span_id: AtomicU64,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("trace lock");
        f.debug_struct("Trace")
            .field("buffered", &inner.events.len())
            .field("capacity", &inner.capacity)
            .field("dropped", &inner.dropped)
            .field("streaming", &inner.writer.is_some())
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty, unbounded, in-memory trace.
    pub fn new() -> Self {
        Trace::with_capacity(None)
    }

    /// Creates a trace that retains at most the newest `capacity` events,
    /// dropping the oldest ones beyond that and counting the drops.
    pub fn bounded(capacity: usize) -> Self {
        Trace::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Trace {
            inner: Mutex::new(TraceInner {
                events: VecDeque::new(),
                capacity,
                dropped: 0,
                writer: None,
                write_errors: 0,
            }),
            recorded: AtomicU64::new(0),
            next_span_id: AtomicU64::new(1),
        }
    }

    /// Attaches a streaming sink: every subsequently recorded event's line
    /// is written to `writer` immediately.
    pub fn with_writer(self, writer: Box<dyn Write + Send>) -> Self {
        self.inner.lock().expect("trace lock").writer = Some(writer);
        self
    }

    /// Starts span-ID allocation at `first_id` instead of 1. The sharded
    /// engine gives each domain's trace a disjoint ID range so spans from
    /// different domains never collide when their event streams are merged
    /// into one timeline.
    pub fn with_span_start(self, first_id: u64) -> Self {
        self.next_span_id.store(first_id, Ordering::Relaxed);
        self
    }

    /// Appends one event. If a streaming sink is attached, the event is
    /// written out immediately; if the in-memory buffer is at capacity, the
    /// oldest buffered event is evicted.
    pub fn record(&self, event: TraceEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("trace lock");
        let failed = inner
            .writer
            .as_mut()
            .is_some_and(|w| w.write_all(event.line.as_bytes()).is_err());
        if failed {
            inner.write_errors = inner.write_errors.saturating_add(1);
        }
        match inner.capacity {
            Some(0) => inner.dropped += 1,
            Some(cap) => {
                if inner.events.len() >= cap {
                    inner.events.pop_front();
                    inner.dropped += 1;
                }
                inner.events.push_back(event);
            }
            None => inner.events.push_back(event),
        }
    }

    /// Allocates the next span ID (sequential from 1, deterministic given a
    /// deterministic allocation order).
    pub fn alloc_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of events currently buffered in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace lock").events.len()
    }

    /// Whether no events are currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever recorded (buffered, streamed, or
    /// dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Number of events evicted from the in-memory buffer.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace lock").dropped
    }

    /// Number of I/O errors swallowed while streaming.
    pub fn write_errors(&self) -> u64 {
        self.inner.lock().expect("trace lock").write_errors
    }

    /// Flushes the streaming sink, if any. Returns `false` if the flush
    /// failed (also counted in [`Trace::write_errors`]).
    pub fn flush(&self) -> bool {
        let mut inner = self.inner.lock().expect("trace lock");
        let failed = inner.writer.as_mut().is_some_and(|w| w.flush().is_err());
        if failed {
            inner.write_errors = inner.write_errors.saturating_add(1);
        }
        !failed
    }

    /// Snapshot of the buffered events in record order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("trace lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns the buffered events in record order, leaving the
    /// buffer empty (counters are untouched). The sharded engine drains its
    /// per-domain buffers with this, so each event reaches the caller's
    /// sink exactly once however often a run is paused.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.lock().expect("trace lock").events).into()
    }

    /// The buffered events as JSON Lines: their lines, concatenated.
    /// (Events already evicted from the buffer are not here, streamed or
    /// not.)
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("trace lock");
        inner.events.iter().map(|ev| ev.line.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    #[test]
    fn events_render_one_per_line() {
        let trace = Trace::new();
        trace.record(TraceEvent::new(10, "start").with_str("phase", "warmup"));
        trace.record(
            TraceEvent::new(25, "iteration")
                .with_u64("iter", 0)
                .with_f64("ms", 1.5),
        );
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"t_ns":10,"kind":"start","phase":"warmup"}"#);
        assert_eq!(
            lines[1],
            r#"{"t_ns":25,"kind":"iteration","iter":0,"ms":1.5}"#
        );
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn every_line_parses_back() {
        let trace = Trace::new();
        for i in 0..5u64 {
            trace.record(TraceEvent::new(i * 100, "tick").with_u64("i", i));
        }
        for line in trace.to_jsonl().lines() {
            let doc = crate::JsonValue::parse(line).expect("line parses");
            assert!(doc.get("t_ns").is_some());
            assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some("tick"));
        }
    }

    #[test]
    fn bounded_trace_drops_oldest_and_counts() {
        let trace = Trace::bounded(3);
        for i in 0..10u64 {
            trace.record(TraceEvent::new(i, "tick").with_u64("i", i));
        }
        assert_eq!(trace.len(), 3, "buffer capped at capacity");
        assert_eq!(trace.dropped(), 7, "evictions counted");
        assert_eq!(trace.recorded(), 10, "all records counted");
        assert_eq!(
            trace.to_jsonl(),
            "{\"t_ns\":7,\"kind\":\"tick\",\"i\":7}\n{\"t_ns\":8,\"kind\":\"tick\",\"i\":8}\n\
             {\"t_ns\":9,\"kind\":\"tick\",\"i\":9}\n",
            "newest events survive"
        );
    }

    #[test]
    fn zero_capacity_buffers_nothing() {
        let trace = Trace::bounded(0);
        for i in 0..4u64 {
            trace.record(TraceEvent::new(i, "tick"));
        }
        assert!(trace.is_empty());
        assert_eq!(trace.dropped(), 4);
        assert_eq!(trace.recorded(), 4);
    }

    /// A `Write` impl backed by a shared Vec so the test can inspect what
    /// was streamed.
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_writes_every_event_even_when_buffer_drops() {
        let sink = Arc::new(StdMutex::new(Vec::new()));
        let trace = Trace::bounded(2).with_writer(Box::new(SharedBuf(Arc::clone(&sink))));
        for i in 0..5u64 {
            trace.record(TraceEvent::new(i, "tick").with_u64("i", i));
        }
        assert!(trace.flush());
        let written = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert_eq!(written.lines().count(), 5, "sink sees all events");
        assert_eq!(trace.len(), 2, "memory stays bounded");
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.write_errors(), 0);
        // Every streamed line still parses.
        for line in written.lines() {
            crate::JsonValue::parse(line).expect("streamed line parses");
        }
    }

    #[test]
    fn values_are_escaped_as_they_are_displayed() {
        let ev = TraceEvent::new(1, "note")
            .with_str("text", format_args!("a \"{}\"\n", 'b'))
            .with_f64("whole", 2.0)
            .with_f64("nan", f64::NAN);
        assert_eq!(
            ev.line(),
            r#"{"t_ns":1,"kind":"note","text":"a \"b\"\n","whole":2.0,"nan":null}"#
        );
        let doc = crate::JsonValue::parse(ev.line()).expect("line parses");
        assert_eq!(doc.get("text").and_then(|v| v.as_str()), Some("a \"b\"\n"));
    }

    /// An appending renderer emits a repeated key twice, so a repeat must
    /// not ship.
    #[test]
    #[cfg(debug_assertions)]
    fn a_repeated_key_panics_in_debug_builds() {
        let repeat = |f: fn() -> TraceEvent| std::panic::catch_unwind(f).is_err();
        assert!(repeat(|| TraceEvent::new(0, "e")
            .with_u64("i", 1)
            .with_str("i", "x")));
        assert!(repeat(|| TraceEvent::new(0, "e").with_u64("t_ns", 1)));
        assert!(repeat(|| TraceEvent::new(0, "e").with_str("kind", "k")));
        // A value that merely looks like a member is not one.
        let ev = TraceEvent::new(0, "e")
            .with_str("a", ",\"b\":")
            .with_u64("b", 1);
        assert_eq!(ev.line(), r#"{"t_ns":0,"kind":"e","a":",\"b\":","b":1}"#);
    }

    #[test]
    fn span_ids_are_sequential_from_one() {
        let trace = Trace::new();
        assert_eq!(trace.alloc_span_id(), 1);
        assert_eq!(trace.alloc_span_id(), 2);
        assert_eq!(trace.alloc_span_id(), 3);
    }
}
