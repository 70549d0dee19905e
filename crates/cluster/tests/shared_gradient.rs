//! A timing job encodes its synthetic gradient once, however many workers
//! push it, and a job whose workers aggregate on hosts never builds it.
//!
//! Alone in its binary because it replaces the global allocator with one
//! that tracks the calling thread's heap, as `iswitch-core`'s
//! `switch_allocs.rs` counts its allocations: the peak of live bytes and
//! the largest single block. Per thread, so the two tests do not see each
//! other; `threads = 1` keeps every domain of a fat-tree on the caller.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iswitch_cluster::{run_timing, Strategy, TimingConfig, TransportKind};
use iswitch_netsim::FattreeShape;
use iswitch_rl::{paper_model, Algorithm};

thread_local! {
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`measure`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// The largest block allocated since the last [`measure`] began.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn grew(old: usize, new: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + new as i64 - old as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(new)));
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is arithmetic on const-initialised, destructor-free thread-locals, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(0, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(layout.size(), new_size);
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `cfg` and returns its peak heap above what was live before, and
/// the largest block it allocated, in bytes.
fn measure(cfg: &TimingConfig) -> (usize, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    LARGEST.with(|largest| largest.set(0));
    let result = run_timing(cfg);
    assert_eq!(result.iterations_measured, cfg.iterations * cfg.workers);
    let peak = PEAK.with(Cell::get) - base;
    (peak as usize, LARGEST.with(Cell::get))
}

/// DQN's gradient as f32, the payload of one worker's push.
fn dqn_gradient_bytes() -> usize {
    paper_model(Algorithm::Dqn).param_count() * 4
}

/// Sixteen iSwitch workers on the sharded fat-tree push the same synthetic
/// gradient. The job holds its payloads once — the workers' shared store,
/// plus the switches' two rounds of results and what is in flight — where
/// a store per worker would hold sixteen copies.
#[test]
fn sixteen_isw_workers_hold_one_encoded_gradient() {
    let shape = FattreeShape {
        aggs: 4,
        racks_per_agg: 2,
        hosts_per_rack: 2,
    };
    let mut cfg = TimingConfig::incast(Algorithm::Dqn, Strategy::SyncIsw, TransportKind::Nack);
    cfg.fattree = Some(shape);
    cfg.workers = shape.workers();
    (cfg.iterations, cfg.warmup, cfg.threads) = (2, 0, 1);
    let (peak, _) = measure(&cfg);
    let gradient = dqn_gradient_bytes();
    assert!(
        peak < 6 * gradient,
        "{} workers peaked at {peak} bytes of heap, {:.1} gradients of {gradient} bytes",
        cfg.workers,
        peak as f64 / gradient as f64
    );
}

/// PS and AllReduce workers aggregate on hosts and carry no synthetic
/// payloads, so their jobs allocate nothing the size of the gradient.
#[test]
fn host_side_jobs_build_no_gradient_sized_block() {
    for strategy in [Strategy::SyncPs, Strategy::SyncAr] {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Dqn, strategy);
        (cfg.iterations, cfg.warmup) = (1, 0);
        let (_, largest) = measure(&cfg);
        assert!(
            largest < dqn_gradient_bytes(),
            "{strategy:?}: a {largest}-byte block for a {}-byte gradient",
            dqn_gradient_bytes()
        );
    }
}
