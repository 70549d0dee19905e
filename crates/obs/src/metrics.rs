//! Metric primitives and the registry that exports them.
//!
//! **Single writer.** Every metric has one writer at a time. Recording
//! (`add`, `set`, `record`) is a relaxed load, the computation, and a
//! relaxed store — a plain read-modify-write with no `lock`-prefixed
//! instruction — so two threads recording into one metric concurrently
//! would lose updates (never tear a value or corrupt memory: the cells are
//! still atomics, which is what keeps the handles `Send + Sync`). A metric
//! may change writers only across a synchronisation point — a thread join
//! or a barrier — which publishes the previous writer's stores. That is
//! how the simulator uses them: each `Simulator` owns its [`Registry`], a
//! sharded run hands each domain to exactly one worker as `&mut`, and
//! domains change hands only at the epoch barrier. Reads (`get`, export)
//! and `merge_from` into a registry nobody else writes run after the join.
//!
//! Values saturate instead of wrapping so long campaigns cannot silently
//! overflow into nonsense.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;

/// The single-writer saturating add behind every count and sum: a plain
/// read-modify-write (see the module docs for why that is enough).
#[inline]
fn saturating_add(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).saturating_add(n),
        Ordering::Relaxed,
    );
}

/// A monotonically increasing event count. Saturates at `u64::MAX`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        saturating_add(&self.value, n);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Folds another counter into this one (saturating add). Used when
    /// combining per-domain registries into one export.
    pub fn merge_from(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// An instantaneous level (queue depth, in-flight packets) with a running
/// high-watermark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    watermark: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        if v > self.watermark.load(Ordering::Relaxed) {
            self.watermark.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the level by `delta` (may be negative), wrapping on overflow.
    pub fn add(&self, delta: i64) {
        self.set(self.value.load(Ordering::Relaxed).wrapping_add(delta));
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lowers the level by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed (at least zero).
    pub fn watermark(&self) -> i64 {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Folds another gauge into this one: levels add (each domain
    /// contributes its share of an instantaneous quantity) and watermarks
    /// take the per-domain maximum. A summed watermark would claim a peak no
    /// single scheduler ever saw, so the max is the honest combination.
    pub fn merge_from(&self, other: &Gauge) {
        self.value.fetch_add(other.get(), Ordering::Relaxed);
        self.watermark
            .fetch_max(other.watermark(), Ordering::Relaxed);
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// backlog durations, segment sizes).
///
/// Bucket 0 holds exactly the value 0; bucket `k` (1 ≤ k ≤ 64) holds values
/// in `[2^(k-1), 2^k - 1]`. Bucket boundaries are fixed, so histograms from
/// different runs are directly comparable and exports are deterministic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive `[lo, hi]` range of values a bucket covers.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index == 0 {
            (0, 0)
        } else if index == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (index - 1), (1u64 << index) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        saturating_add(&self.buckets[Self::bucket_index(value)], 1);
        saturating_add(&self.count, 1);
        saturating_add(&self.sum, value);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max_value(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket sample counts, indexed by bucket.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the log2 buckets.
    ///
    /// The target rank is located in the cumulative bucket counts, then the
    /// value is linearly interpolated across the hit bucket's `[lo, hi]`
    /// range (samples are assumed uniform within a bucket). Exact for
    /// single-value buckets (0 and 1); within a factor of two otherwise.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample that sits at quantile q.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bn) in self.bucket_counts().iter().enumerate() {
            if *bn == 0 {
                continue;
            }
            if seen + *bn >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let into = rank - seen; // 1..=bn
                let frac = if *bn == 1 {
                    0.5
                } else {
                    (into - 1) as f64 / (*bn - 1) as f64
                };
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen += *bn;
        }
        self.max_value()
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one: per-bucket counts, the total
    /// count, and the sum add (saturating); the max takes the larger value.
    /// Because bucket boundaries are fixed, the merge is exact — the result
    /// is identical to having recorded both sample streams into one
    /// histogram, in any order.
    pub fn merge_from(&self, other: &Histogram) {
        let theirs = other.bucket_counts();
        for (bucket, n) in self.buckets.iter().zip(theirs) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        let _ = self
            .count
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(other.count()))
            });
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(other.sum()))
            });
        self.max.fetch_max(other.max_value(), Ordering::Relaxed);
    }
}

/// String-keyed home for metrics shared between a component and the
/// exporter. Handles are `Arc`s: a component resolves its metrics once and
/// records through them with no name lookups on the hot path.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map lock");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map lock");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map lock");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Folds every metric of `other` into this registry, creating metrics
    /// that do not exist here yet. Counters and histograms add exactly
    /// (fixed bucket boundaries make the histogram merge lossless); gauges
    /// add levels and take the maximum watermark. Metric *names* drive the
    /// pairing, so the result is independent of the order registries are
    /// merged in — the property the sharded engine relies on for
    /// thread-count-invariant exports.
    pub fn merge_from(&self, other: &Registry) {
        for (name, theirs) in other.counters.lock().expect("counter map lock").iter() {
            self.counter(name).merge_from(theirs);
        }
        for (name, theirs) in other.gauges.lock().expect("gauge map lock").iter() {
            self.gauge(name).merge_from(theirs);
        }
        for (name, theirs) in other.histograms.lock().expect("histogram map lock").iter() {
            self.histogram(name).merge_from(theirs);
        }
    }

    /// Snapshots every metric into a deterministic JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`,
    /// each section sorted by metric name.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::empty_object();
        for (name, c) in self.counters.lock().expect("counter map lock").iter() {
            counters.insert(name, JsonValue::UInt(c.get()));
        }
        let mut gauges = JsonValue::empty_object();
        for (name, g) in self.gauges.lock().expect("gauge map lock").iter() {
            let mut entry = JsonValue::empty_object();
            entry.insert("value", JsonValue::Int(g.get()));
            entry.insert("watermark", JsonValue::Int(g.watermark()));
            gauges.insert(name, entry);
        }
        let mut histograms = JsonValue::empty_object();
        for (name, h) in self.histograms.lock().expect("histogram map lock").iter() {
            histograms.insert(name, histogram_to_json(h));
        }
        let mut root = JsonValue::empty_object();
        root.insert("counters", counters);
        root.insert("gauges", gauges);
        root.insert("histograms", histograms);
        root
    }
}

// `netsim::Device: Send` (a domain moves to a worker thread with every
// handle its devices hold) rests on the handles staying `Send + Sync`.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Registry>();
    send_sync::<Counter>();
    send_sync::<Gauge>();
    send_sync::<Histogram>();
};

/// Renders one histogram as JSON, listing only non-empty buckets:
/// `{"count": n, "sum": s, "max": m, "p50": .., "p95": .., "p99": ..,
/// "buckets": [{"lo":..,"hi":..,"n":..}]}`.
pub fn histogram_to_json(h: &Histogram) -> JsonValue {
    let mut buckets = Vec::new();
    for (i, n) in h.bucket_counts().iter().enumerate() {
        if *n > 0 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            let mut b = JsonValue::empty_object();
            b.insert("lo", JsonValue::UInt(lo));
            b.insert("hi", JsonValue::UInt(hi));
            b.insert("n", JsonValue::UInt(*n));
            buckets.push(b);
        }
    }
    let mut out = JsonValue::empty_object();
    out.insert("count", JsonValue::UInt(h.count()));
    out.insert("sum", JsonValue::UInt(h.sum()));
    out.insert("max", JsonValue::UInt(h.max_value()));
    out.insert("p50", JsonValue::UInt(h.p50()));
    out.insert("p95", JsonValue::UInt(h.p95()));
    out.insert("p99", JsonValue::UInt(h.p99()));
    out.insert("buckets", JsonValue::Array(buckets));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "counter must saturate, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds exactly 0; bucket k holds [2^(k-1), 2^k - 1].
        assert_eq!(Histogram::bucket_index(0), 0);
        for k in 1..=63usize {
            let (lo, hi) = Histogram::bucket_bounds(k);
            assert_eq!(lo, 1u64 << (k - 1));
            assert_eq!(hi, (1u64 << k) - 1);
            assert_eq!(Histogram::bucket_index(lo), k, "low edge of bucket {k}");
            assert_eq!(Histogram::bucket_index(hi), k, "high edge of bucket {k}");
            assert_eq!(Histogram::bucket_index(lo - 1), k - 1, "below bucket {k}");
        }
        assert_eq!(Histogram::bucket_bounds(64), (1u64 << 63, u64::MAX));
        assert_eq!(Histogram::bucket_index(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_into_expected_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "exactly one zero sample");
        assert_eq!(counts[1], 1, "value 1");
        assert_eq!(counts[2], 2, "values 2 and 3");
        assert_eq!(counts[3], 1, "value 4");
        assert_eq!(counts[11], 1, "value 1024");
        assert_eq!(counts[64], 1, "u64::MAX");
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_value(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn quantiles_exact_on_singleton_buckets() {
        // Buckets 0 and 1 each hold exactly one value, so interpolation
        // cannot smear: 50 zeros + 50 ones has p50 = 0, p95 = p99 = 1.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(0);
            h.record(1);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 1);
        assert_eq!(h.p99(), 1);
    }

    #[test]
    fn quantiles_exact_on_uniform_bucket() {
        // Every value of bucket 11 ([1024, 2047]) recorded exactly once:
        // samples are uniform within the bucket, so linear interpolation
        // reproduces the exact order statistics.
        let h = Histogram::new();
        for v in 1024..=2047u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 1535, "512th of 1024..=2047");
        assert_eq!(h.p95(), 1996, "973rd of 1024..=2047");
        assert_eq!(h.p99(), 2037, "1014th of 1024..=2047");
        assert_eq!(h.quantile(0.0), 1024);
        assert_eq!(h.quantile(1.0), 2047);
    }

    #[test]
    fn quantiles_on_edge_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);

        // A lone sample lands mid-bucket: 7 is in [4, 7], midpoint ≈ 6.
        let one = Histogram::new();
        one.record(7);
        assert_eq!(one.p50(), 6);
        assert_eq!(one.p99(), 6);

        // Quantiles never decrease as q grows.
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000, 100_000] {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantile must be monotone: {qs:?}");
        }
    }

    #[test]
    fn histogram_json_includes_quantiles() {
        let h = Histogram::new();
        for v in 1024..=2047u64 {
            h.record(v);
        }
        let json = histogram_to_json(&h);
        assert_eq!(json.get("p50").and_then(|v| v.as_u64()), Some(1535));
        assert_eq!(json.get("p95").and_then(|v| v.as_u64()), Some(1996));
        assert_eq!(json.get("p99").and_then(|v| v.as_u64()), Some(2037));
    }

    #[test]
    fn gauge_tracks_watermark() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        assert_eq!(g.get(), 7);
        g.add(-5);
        assert_eq!(g.get(), 2);
        assert_eq!(g.watermark(), 7);
        g.set(100);
        assert_eq!(g.watermark(), 100);
        g.set(-10);
        assert_eq!(g.get(), -10);
        assert_eq!(g.watermark(), 100);
    }

    #[test]
    fn a_handle_passed_from_thread_to_thread_keeps_every_write() {
        // One writer at a time, each joined before the next starts: the
        // hand-off the sharded engine performs at its barriers.
        let reg = Registry::new();
        let (c, g, h) = (reg.counter("c"), reg.gauge("g"), reg.histogram("h"));
        for round in 1..=3u64 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        c.inc();
                        g.add(2);
                        g.dec();
                        h.record(round);
                    }
                    g.set(g.get() + 10);
                    g.add(-10);
                });
            });
            assert_eq!(c.get(), 1_000 * round);
            assert_eq!(g.get(), 1_000 * round as i64);
            assert_eq!(g.watermark(), 1_000 * round as i64 + 10);
            assert_eq!(h.count(), 1_000 * round);
            assert_eq!(h.max_value(), round);
        }
        assert_eq!(h.sum(), 1_000 * (1 + 2 + 3));
        assert_eq!(h.bucket_counts()[1], 1_000, "value 1");
        assert_eq!(h.bucket_counts()[2], 2_000, "values 2 and 3");
        // Saturation survives the hand-off too.
        std::thread::scope(|s| {
            s.spawn(|| {
                c.add(u64::MAX);
                h.record(u64::MAX);
            });
        });
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max_value(), u64::MAX);
        assert_eq!(h.count(), 3_001);
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("events");
        let b = reg.counter("events");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("events").get(), 2);
    }

    #[test]
    fn registry_merge_is_order_independent_and_exact() {
        let build = |into: &Registry, parts: &[&Registry]| {
            for p in parts {
                into.merge_from(p);
            }
        };
        let a = Registry::new();
        a.counter("pkts").add(3);
        a.gauge("depth").set(5);
        a.gauge("depth").set(2);
        for v in [1u64, 1024] {
            a.histogram("lat").record(v);
        }
        let b = Registry::new();
        b.counter("pkts").add(4);
        b.counter("drops").inc();
        b.gauge("depth").set(4);
        for v in [0u64, 1024, 7] {
            b.histogram("lat").record(v);
        }

        let ab = Registry::new();
        build(&ab, &[&a, &b]);
        let ba = Registry::new();
        build(&ba, &[&b, &a]);
        assert_eq!(
            ab.to_json().render(),
            ba.to_json().render(),
            "merge must commute"
        );

        // Exactness: merged histogram equals one that saw both streams.
        let direct = Registry::new();
        for v in [1u64, 1024, 0, 1024, 7] {
            direct.histogram("lat").record(v);
        }
        assert_eq!(
            ab.to_json().get("histograms").unwrap().render(),
            direct.to_json().get("histograms").unwrap().render()
        );
        assert_eq!(ab.counter("pkts").get(), 7);
        assert_eq!(ab.gauge("depth").get(), 6, "levels add");
        assert_eq!(ab.gauge("depth").watermark(), 5, "watermark is the max");
    }

    #[test]
    fn registry_export_is_sorted() {
        let reg = Registry::new();
        reg.counter("zebra").inc();
        reg.counter("alpha").inc();
        let json = reg.to_json().render();
        let alpha = json.find("alpha").unwrap();
        let zebra = json.find("zebra").unwrap();
        assert!(alpha < zebra, "export must sort keys");
    }
}
