//! Structured event tracing exported as JSON Lines.
//!
//! A [`Trace`] is an append-only log of [`TraceEvent`]s, each stamped with
//! simulated time. One event renders as one JSON object per line, so the
//! artifact streams into any log tooling and diffs cleanly between runs —
//! the determinism tests compare these exports byte for byte.
//!
//! Long runs emit far more events than a report needs to retain, so a trace
//! can be *bounded* (a ring buffer that drops the oldest events and counts
//! the drops) and/or *streaming* (every event is rendered and written to a
//! sink the moment it is recorded, so memory stays flat regardless of run
//! length). The two are orthogonal: a streaming trace may still keep a
//! bounded in-memory tail for post-mortem inspection.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::JsonValue;

/// One structured event at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp in nanoseconds.
    pub t_ns: u64,
    /// Event kind, e.g. `"iteration"` or `"aggregation_round"`.
    pub kind: String,
    /// Additional fields, rendered in insertion order.
    pub fields: Vec<(String, JsonValue)>,
}

impl TraceEvent {
    /// Starts an event of `kind` at simulated time `t_ns`.
    pub fn new(t_ns: u64, kind: &str) -> Self {
        TraceEvent {
            t_ns,
            kind: kind.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Adds a field (builder style).
    pub fn with(mut self, key: &str, value: JsonValue) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Adds an unsigned integer field (builder style).
    pub fn with_u64(self, key: &str, value: u64) -> Self {
        self.with(key, JsonValue::UInt(value))
    }

    /// Adds a float field (builder style).
    pub fn with_f64(self, key: &str, value: f64) -> Self {
        self.with(key, JsonValue::Float(value))
    }

    /// Adds a string field (builder style).
    pub fn with_str(self, key: &str, value: &str) -> Self {
        self.with(key, JsonValue::Str(value.to_owned()))
    }

    /// Reads back a field by key (`t_ns` and `kind` are struct members, not
    /// fields).
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the event as a single JSON object:
    /// `{"t_ns":...,"kind":"...",...fields}`.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::empty_object();
        obj.insert("t_ns", JsonValue::UInt(self.t_ns));
        obj.insert("kind", JsonValue::Str(self.kind.clone()));
        for (key, value) in &self.fields {
            obj.insert(key, value.clone());
        }
        obj
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

    /// Attaches a streaming sink: every subsequently recorded event is
    /// rendered and written to `writer` as one JSONL line immediately.
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
        if inner.writer.is_some() {
            let mut line = event.to_json().render();
            line.push('\n');
            let writer = inner.writer.as_mut().expect("writer present");
            if writer.write_all(line.as_bytes()).is_err() {
                inner.write_errors = inner.write_errors.saturating_add(1);
            }
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

    /// Renders the buffered events as JSON Lines: one event object per
    /// line, each line terminated by `\n`. (Streamed events already written
    /// to a sink are not re-rendered here.)
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.inner.lock().expect("trace lock").events.iter() {
            out.push_str(&event.to_json().render());
            out.push('\n');
        }
        out
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
        let kept: Vec<u64> = trace.snapshot().iter().map(|e| e.t_ns).collect();
        assert_eq!(kept, vec![7, 8, 9], "newest events survive");
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
    fn span_ids_are_sequential_from_one() {
        let trace = Trace::new();
        assert_eq!(trace.alloc_span_id(), 1);
        assert_eq!(trace.alloc_span_id(), 2);
        assert_eq!(trace.alloc_span_id(), 3);
    }
}
