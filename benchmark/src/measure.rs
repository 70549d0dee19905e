//! Measurement primitives: the process CPU clock, the counting allocator,
//! the quartile estimator, and host-time spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by this process, in nanoseconds. Every timed run is
/// single-threaded, so this tracks wall time minus whatever the shared
/// machine stole — which is why host-time metrics use it.
pub fn cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes the given timespec and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host cost of one call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Runs `f` and returns its result with the CPU and wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let wall = Instant::now();
    let cpu = cpu_ns();
    let out = f();
    let cost = Cost {
        cpu_s: (cpu_ns() - cpu) as f64 / 1e9,
        wall_s: wall.elapsed().as_secs_f64(),
    };
    (out, cost)
}

/// Global allocator that counts while [`counted`] runs and is a plain
/// pass-through to the system allocator otherwise (timed samples run with
/// counting off, so they pay one relaxed load per call and nothing else).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap activity of one [`counted`] call. Counts repeat exactly for a
/// single-threaded deterministic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUse {
    pub allocs: u64,
    pub bytes: u64,
    /// Peak of bytes allocated minus bytes freed since the call began.
    pub peak_bytes: u64,
}

/// Runs `f` with allocation counting on.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let heap = HeapUse {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, heap)
}

/// Quantile `p` of ascending `sorted`, by the exclusive method of Python's
/// `statistics.quantiles` (position `p·(n+1)`, clamped to the data).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

/// Fastest sample and quartiles of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Quartiles {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// One host-time span around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder of the traced run; written out at exit.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records a span named `name` around `f`, a child of the span open
    /// when it is called.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_us(&self, id: usize) -> f64 {
        let own = self.spans[id].end_us - self.spans[id].start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_us - s.start_us)
            .sum();
        own - children
    }

    /// The spans as Chrome trace JSON (open in Perfetto or chrome://tracing).
    pub fn chrome_trace(&self, workload: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\
                     \"self_us\":{:.3}}}}}",
                    s.name,
                    s.start_us,
                    s.end_us - s.start_us,
                    self.self_us(id)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!(
            (q.min, q.q1, q.median, q.q3, q.n),
            (1.0, 2.75, 5.5, 8.25, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // With two samples Python extrapolates beyond the data
        // ([7.5, 15.0, 22.5]); this estimator clamps to it.
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3), (10.0, 10.0, 15.0, 20.0));
        assert_eq!(Quartiles::of(&[7.0]).q1, 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0]);
        assert_eq!(q.spread(), 1.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| t.span("a.inner", |_| ()));
            t.span("b", |_| ());
        });
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[3].parent, Some(0));
        let covered: f64 = [1, 3]
            .iter()
            .map(|&i| t.spans[i].end_us - t.spans[i].start_us)
            .sum();
        let own = t.spans[0].end_us - t.spans[0].start_us;
        assert!((t.self_us(0) - (own - covered)).abs() < 1e-9);
        assert!(t.chrome_trace("w").contains("\"name\":\"a.inner\""));
    }
}
