//! Observability layer for the iSwitch reproduction.
//!
//! The paper's evaluation (Fig. 12–15) is built entirely on *measurements*:
//! per-iteration latency breakdowns across the LGC/GA/LWU pipeline stages
//! (Fig. 11), aggregation-round completion times on the switch, and queue
//! buildup on the parameter-server downlink. This crate provides the
//! instrumentation those measurements need, with three design constraints:
//!
//! 1. **No external dependencies.** Counters, gauges, and histograms are
//!    hand-rolled on `std::sync::atomic`; JSON is emitted (and parsed, for
//!    tests) by a small built-in codec.
//! 2. **Determinism.** Exports never consult wall-clock time or hash-map
//!    iteration order; two identical seeded simulation runs produce
//!    byte-identical artifacts. Timestamps are simulated nanoseconds.
//! 3. **Cheap when ignored.** Recording a metric is a plain load and
//!    store — each metric has one writer at a time (see [`metrics`]); the
//!    expensive work (JSON assembly) happens only at export.
//!
//! The pieces:
//!
//! - [`metrics`]: [`Counter`], [`Gauge`], [`Histogram`], and a string-keyed
//!   [`Registry`] that owns shared handles and exports a sorted snapshot.
//! - [`json`]: [`JsonValue`], a deterministic writer, and a strict parser.
//! - [`trace`]: [`Trace`], an append-only structured event log exported as
//!   JSON Lines (one event object per line), optionally capacity-bounded
//!   and/or streamed to a sink as events are recorded.
//! - [`span`]: [`Span`], named intervals of simulated time with
//!   deterministic IDs and parent/child links, rendered as ordinary trace
//!   events so one JSONL artifact carries the full causal timeline.
//! - [`timeseries`]: [`Timeseries`], named integer counter tracks sampled
//!   on a fixed simulated-time cadence, exported as sorted JSONL and as
//!   Perfetto counter-track events.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::Span;
pub use timeseries::{parse_timeseries_jsonl, CounterTrack, Timeseries};
pub use trace::{Trace, TraceEvent};
