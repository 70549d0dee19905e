//! Deterministic time-series telemetry: named counter tracks sampled on a
//! fixed simulated-time cadence.
//!
//! A [`Timeseries`] holds a set of named [`CounterTrack`]s, each an ordered
//! list of `(t_ns, value)` samples. The design constraints mirror the rest
//! of this crate:
//!
//! 1. **Integer-only values.** Samples are `i64`; no floats anywhere near
//!    an export, so byte-identity never hinges on float formatting.
//! 2. **Determinism.** Samples carry *simulated* nanoseconds quantized to
//!    the series' sampling interval (or an exact event time for
//!    event-driven tracks), and exports sort tracks by name. Two identical
//!    seeded runs — at any thread count, when each execution domain records
//!    into its own instance and the instances are merged in domain order —
//!    produce byte-identical artifacts.
//! 3. **Cheap when ignored, bounded when used.** Recording is a mutex lock
//!    plus a vector push, and consecutive identical values collapse: a
//!    track that never changes costs exactly one stored sample no matter
//!    how often it is sampled (a Perfetto counter track renders the flat
//!    line from that single point).
//!
//! Track naming scheme (dots separate hierarchy levels, sorted exports
//! keep related tracks adjacent):
//!
//! * `netsim.link.NNN.{src}->{dst}.{queue_bytes,ecn_marks,drops}` — per
//!   directed link: instantaneous egress-queue depth and cumulative
//!   ECN-CE marks / drops, sampled on the engine cadence.
//! * `shard.domain.DDD.{busy_ns,stall_ns,epoch_events}` — per lookahead
//!   epoch and execution domain: simulated time the domain advanced inside
//!   the epoch, the remainder it spent stalled at the conservative
//!   barrier, and the events it processed.
//! * `shard.epoch.lookahead_ns` — the conservative lookahead width.
//! * `cluster.worker.{ip}.{tx_rate_bps,ecn_echoes,retransmits,rate_cuts,
//!   help_requests,nacks_sent}` — per worker at iteration boundaries: the
//!   transport's current pacing rate (0 = unpaced/line rate) and its
//!   cumulative recovery / congestion-control counters.
//! * `core.switch.nNNN.{codec_saturations,codec_rebases}` — per switch:
//!   cumulative saturating-add clamps and exponent rebases in the
//!   aggregation codec datapath.

use std::io::{self, Write};
use std::sync::Mutex;

use crate::json::JsonValue;

/// One named series of `(t_ns, value)` samples in ascending time order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterTrack {
    /// Samples in ascending `t_ns` order.
    pub samples: Vec<(u64, i64)>,
}

impl CounterTrack {
    /// Last recorded value, if any.
    pub fn last(&self) -> Option<i64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Maximum value over samples within `[start_ns, end_ns]` plus the last
    /// sample at or before `start_ns` (the value that was *current* when
    /// the window opened). `None` when the track has no samples at or
    /// before `end_ns`.
    pub fn peak_in(&self, start_ns: u64, end_ns: u64) -> Option<i64> {
        let mut peak: Option<i64> = None;
        let mut before: Option<i64> = None;
        for &(t, v) in &self.samples {
            if t > end_ns {
                break;
            }
            if t <= start_ns {
                before = Some(v);
            } else {
                peak = Some(peak.map_or(v, |p| p.max(v)));
            }
        }
        match (peak, before) {
            (Some(p), Some(b)) => Some(p.max(b)),
            (p, b) => p.or(b),
        }
    }

    /// Value current at time `t_ns` (last sample at or before it).
    pub fn value_at(&self, t_ns: u64) -> Option<i64> {
        let mut cur = None;
        for &(t, v) in &self.samples {
            if t > t_ns {
                break;
            }
            cur = Some(v);
        }
        cur
    }

    /// `value_at(end) - value_at(start)` for cumulative-counter tracks,
    /// clamped at zero. `None` when the track is empty up to `end_ns`.
    pub fn delta_in(&self, start_ns: u64, end_ns: u64) -> Option<i64> {
        let end = self.value_at(end_ns)?;
        let start = self.value_at(start_ns).unwrap_or(0);
        Some((end - start).max(0))
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Track name → samples. A `BTreeMap` keeps exports sorted without a
    /// collect-and-sort pass.
    tracks: std::collections::BTreeMap<String, CounterTrack>,
    /// Total samples accepted (post-collapse).
    recorded: u64,
    /// Tracks whose first stored sample already went out in a
    /// [`Timeseries::drain_into`] and stays only as the collapse reference.
    drained: std::collections::BTreeSet<String>,
}

/// A deterministic set of counter tracks (see module docs).
///
/// Interior mutability follows [`crate::Trace`]: the engine hands shared
/// `Arc<Timeseries>` handles to devices, each execution domain records into
/// its own instance, and sharded runs drain per-domain instances into the
/// caller's in domain order whenever the run returns.
#[derive(Debug)]
pub struct Timeseries {
    interval_ns: u64,
    inner: Mutex<Inner>,
}

/// Default sampling cadence: 10 µs of simulated time.
pub const DEFAULT_INTERVAL_NS: u64 = 10_000;

impl Default for Timeseries {
    fn default() -> Self {
        Timeseries::new(DEFAULT_INTERVAL_NS)
    }
}

impl Timeseries {
    /// Creates an empty series with the given sampling interval in
    /// simulated nanoseconds (samplers quantize to multiples of it).
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is zero.
    pub fn new(interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Timeseries {
            interval_ns,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The sampling interval in simulated nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Records `value` on `track` at simulated time `t_ns`.
    ///
    /// Consecutive identical values collapse: the sample is stored only
    /// when it differs from the track's last stored value (or opens the
    /// track). Out-of-order timestamps are rejected by debug assertion —
    /// every recorder is driven by a monotone simulated clock.
    pub fn record(&self, track: &str, t_ns: u64, value: i64) {
        let mut inner = self.inner.lock().expect("timeseries lock");
        // Looked up by `&str`: only opening a track allocates its name.
        if !inner.tracks.contains_key(track) {
            inner
                .tracks
                .insert(track.to_owned(), CounterTrack::default());
        }
        let tr = inner.tracks.get_mut(track).expect("opened above");
        if let Some(&(last_t, last_v)) = tr.samples.last() {
            debug_assert!(t_ns >= last_t, "timeseries samples must be monotone");
            if last_v == value {
                return;
            }
        }
        tr.samples.push((t_ns, value));
        inner.recorded += 1;
    }

    /// Number of tracks.
    pub fn track_count(&self) -> usize {
        self.inner.lock().expect("timeseries lock").tracks.len()
    }

    /// Total stored samples across all tracks (after collapse).
    pub fn sample_count(&self) -> u64 {
        self.inner.lock().expect("timeseries lock").recorded
    }

    /// A sorted snapshot of every track.
    pub fn snapshot(&self) -> Vec<(String, CounterTrack)> {
        let inner = self.inner.lock().expect("timeseries lock");
        inner
            .tracks
            .iter()
            .map(|(name, tr)| (name.clone(), tr.clone()))
            .collect()
    }

    /// Moves every sample recorded since the previous drain into `dst`.
    /// Shared track names append sample-lists and re-sort stably by time,
    /// so draining per-domain instances in ascending domain order yields
    /// the same bytes as a single-domain recording — the sharded engine's
    /// thread-count-invariance argument extends to telemetry unchanged.
    ///
    /// Each drained track keeps its last sample behind as the reference
    /// [`Timeseries::record`] collapses against, so pausing a run to drain
    /// never splits a flat stretch into two stored samples. This instance
    /// is therefore a staging buffer from then on: only `dst` holds the
    /// series.
    pub fn drain_into(&self, dst: &Timeseries) {
        let mut inner = self.inner.lock().expect("timeseries lock");
        let Inner {
            tracks, drained, ..
        } = &mut *inner;
        let mut out = dst.inner.lock().expect("timeseries lock");
        for (name, tr) in tracks.iter_mut() {
            let skip = usize::from(drained.contains(name));
            let Some(&last) = tr.samples[skip..].last() else {
                continue;
            };
            out.recorded += (tr.samples.len() - skip) as u64;
            let into = out.tracks.entry(name.clone()).or_default();
            let resort = !into.samples.is_empty();
            into.samples.extend(tr.samples.drain(skip..));
            if resort {
                into.samples.sort_by_key(|&(t, _)| t);
            }
            tr.samples.clear();
            tr.samples.push(last);
            drained.insert(name.clone());
        }
    }

    /// Writes the series as JSON Lines: one `{"track":...,"t_ns":...,
    /// "v":...}` object per sample, tracks in name order, samples in time
    /// order. Byte-identical for identical runs.
    pub fn to_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let inner = self.inner.lock().expect("timeseries lock");
        for (name, tr) in &inner.tracks {
            for &(t, v) in &tr.samples {
                let mut o = JsonValue::empty_object();
                o.insert("track", JsonValue::Str(name.clone()));
                o.insert("t_ns", JsonValue::UInt(t));
                o.insert(
                    "v",
                    if v >= 0 {
                        JsonValue::UInt(v as u64)
                    } else {
                        JsonValue::Int(v)
                    },
                );
                writeln!(w, "{}", o.render())?;
            }
        }
        Ok(())
    }

    /// The series as a Chrome trace-event JSON document of `"C"` (counter)
    /// phase events, loadable in Perfetto / `chrome://tracing` alongside
    /// the span export. Timestamps are microseconds of simulated time;
    /// every track renders as its own counter lane under process 3.
    pub fn chrome_trace(&self) -> JsonValue {
        let inner = self.inner.lock().expect("timeseries lock");
        let mut events = Vec::new();
        let mut meta_args = JsonValue::empty_object();
        meta_args.insert("name", JsonValue::Str("telemetry".to_owned()));
        let mut meta = JsonValue::empty_object();
        meta.insert("ph", JsonValue::Str("M".to_owned()));
        meta.insert("pid", JsonValue::UInt(3));
        meta.insert("name", JsonValue::Str("process_name".to_owned()));
        meta.insert("args", meta_args);
        events.push(meta);
        for (name, tr) in &inner.tracks {
            for &(t, v) in &tr.samples {
                let mut args = JsonValue::empty_object();
                args.insert(
                    "value",
                    if v >= 0 {
                        JsonValue::UInt(v as u64)
                    } else {
                        JsonValue::Int(v)
                    },
                );
                let mut ev = JsonValue::empty_object();
                ev.insert("name", JsonValue::Str(name.clone()));
                ev.insert("ph", JsonValue::Str("C".to_owned()));
                ev.insert("pid", JsonValue::UInt(3));
                ev.insert("ts", JsonValue::Float(t as f64 / 1000.0));
                ev.insert("args", args);
                events.push(ev);
            }
        }
        let mut root = JsonValue::empty_object();
        root.insert("displayTimeUnit", JsonValue::Str("ms".to_owned()));
        root.insert("traceEvents", JsonValue::Array(events));
        root
    }
}

/// Parses a JSONL timeseries export (the [`Timeseries::to_jsonl`] format)
/// back into sorted tracks, for analyzers joining telemetry against a
/// causal trace. Malformed JSON lines are an error; lines missing the
/// expected fields are skipped (the format is append-only).
pub fn parse_timeseries_jsonl(text: &str) -> Result<Vec<(String, CounterTrack)>, String> {
    let mut tracks: std::collections::BTreeMap<String, CounterTrack> =
        std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let (Some(track), Some(t)) = (
            doc.get("track").and_then(|v| v.as_str()),
            doc.get("t_ns").and_then(|v| v.as_u64()),
        ) else {
            continue;
        };
        let v = match doc.get("v") {
            Some(JsonValue::UInt(u)) => *u as i64,
            Some(JsonValue::Int(i)) => *i,
            _ => continue,
        };
        tracks
            .entry(track.to_owned())
            .or_default()
            .samples
            .push((t, v));
    }
    for tr in tracks.values_mut() {
        tr.samples.sort_by_key(|&(t, _)| t);
    }
    Ok(tracks.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapses_consecutive_identical_values() {
        let ts = Timeseries::new(10);
        ts.record("a", 0, 5);
        ts.record("a", 10, 5);
        ts.record("a", 20, 7);
        ts.record("a", 30, 7);
        let snap = ts.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.samples, vec![(0, 5), (20, 7)]);
        assert_eq!(ts.sample_count(), 2);
    }

    #[test]
    fn jsonl_sorts_tracks_by_name() {
        let ts = Timeseries::new(10);
        ts.record("zzz", 0, 1);
        ts.record("aaa", 5, -2);
        let mut out = Vec::new();
        ts.to_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"aaa\""), "{text}");
        assert!(lines[0].contains("-2"), "{text}");
        assert!(lines[1].contains("\"zzz\""), "{text}");
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let ts = Timeseries::new(10);
        ts.record("q", 0, 0);
        ts.record("q", 10, 42);
        ts.record("r", 20, -7);
        let mut out = Vec::new();
        ts.to_jsonl(&mut out).unwrap();
        let parsed = parse_timeseries_jsonl(&String::from_utf8(out).unwrap()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "q");
        assert_eq!(parsed[0].1.samples, vec![(0, 0), (10, 42)]);
        assert_eq!(parsed[1].1.samples, vec![(20, -7)]);
    }

    #[test]
    fn merge_in_domain_order_matches_single_instance() {
        // Two domains record disjoint time ranges of the same track; the
        // merged series must equal recording everything into one instance.
        let a = Timeseries::new(10);
        let b = Timeseries::new(10);
        a.record("t", 0, 1);
        a.record("t", 30, 3);
        b.record("t", 10, 2);
        b.record("only.b", 5, 9);
        let merged = Timeseries::new(10);
        a.drain_into(&merged);
        b.drain_into(&merged);
        let snap = merged.snapshot();
        assert_eq!(snap[1].1.samples, vec![(0, 1), (10, 2), (30, 3)]);
        assert_eq!(snap[0].0, "only.b");
    }

    #[test]
    fn repeated_drains_export_each_sample_once_and_keep_collapsing() {
        let staged = Timeseries::new(10);
        let whole = Timeseries::new(10);
        let out = Timeseries::new(10);
        let samples = [(0, 1), (10, 1), (20, 2), (30, 2), (40, 2), (50, 3)];
        for (i, &(t, v)) in samples.iter().enumerate() {
            staged.record("t", t, v);
            whole.record("t", t, v);
            if i % 2 == 1 {
                staged.drain_into(&out);
                staged.drain_into(&out); // nothing new: a no-op
            }
        }
        assert_eq!(out.snapshot(), whole.snapshot());
        assert_eq!(out.sample_count(), whole.sample_count());
    }

    #[test]
    fn window_queries_see_the_value_current_at_window_open() {
        let tr = CounterTrack {
            samples: vec![(0, 10), (100, 50), (200, 20)],
        };
        assert_eq!(tr.peak_in(150, 300), Some(50));
        assert_eq!(tr.value_at(150), Some(50));
        assert_eq!(tr.delta_in(0, 200), Some(10));
        assert_eq!(tr.peak_in(201, 300), Some(20));
    }

    #[test]
    fn chrome_trace_emits_counter_events() {
        let ts = Timeseries::new(10);
        ts.record("x", 1000, 4);
        let doc = ts.chrome_trace().render();
        assert!(doc.contains("\"ph\":\"C\""), "{doc}");
        assert!(doc.contains("\"value\":4"), "{doc}");
    }
}
