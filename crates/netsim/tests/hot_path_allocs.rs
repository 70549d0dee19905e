//! A forwarded packet allocates nothing in steady state.
//!
//! Alone in its binary because it replaces the global allocator with one
//! that counts. Once the timing wheel's slot buffers have grown to their
//! working size, 10,000 packets sent, forwarded by a plain
//! [`iswitch_netsim::Switch`] and delivered may allocate a handful of times
//! in total — not once every other packet, as when each slot drain freed a
//! buffer the next push had to allocate again.
//!
//! The warm-up is longer than one turn of the wheel because a drained
//! slot's buffer moves one occupied slot along per turn: it reaches its
//! working size only once it has sat under a full slot.
//!
//! With a causal trace installed and the packets tagged, every hop records a
//! `pkt.tx` and a `pkt.rx` event, and an event is the one buffer its line is
//! rendered into — streamed to a sink or kept in a full ring alike.
//!
//! Split over two domains of a [`iswitch_netsim::ShardedSim`], a warm run's
//! epoch loop allocates nothing either: the outboxes and the merge buffer
//! keep their capacity from one epoch to the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use iswitch_netsim::{
    build_star, host_ip, CausalKey, Host, HostApp, HostCtx, LinkSpec, NodeOpts, Packet, ShardedSim,
    SimDuration, SimTime, Simulator, TopologyConfig,
};
use iswitch_obs::Trace;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// the test harness's own threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of a const-initialised, destructor-free thread-local, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Timers re-arm every `TICK`, `STAGGER` apart on one host, so a wheel
/// slot (1.024 µs) never holds two of a host's timers.
const TICK: SimDuration = SimDuration::from_nanos(16 * 2_300);
const STAGGER: SimDuration = SimDuration::from_nanos(2_300);

/// One hop of a ring of senders: sends a pre-built packet to the next host
/// at start and one more for every packet it receives, so the four hosts
/// move in lockstep with four packets in flight. `tickers` timers re-arm
/// themselves beside that until the stock is gone.
struct Sender {
    stock: Vec<Packet>,
    tickers: u64,
    received: u64,
    ticks: u64,
}

impl Sender {
    fn send_next(&mut self, ctx: &mut HostCtx<'_, '_>) {
        if let Some(pkt) = self.stock.pop() {
            ctx.send(pkt);
        }
    }
}

impl HostApp for Sender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.send_next(ctx);
        for t in 0..self.tickers {
            ctx.set_timer(STAGGER * (t + 1), t);
        }
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        if !self.stock.is_empty() {
            self.ticks += 1;
            ctx.set_timer(TICK, token);
        }
    }
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {
        self.received += 1;
        self.send_next(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const HOSTS: usize = 4;
const WARM_UP: u64 = 10_000;
const MEASURED: u64 = 10_000;

/// Runs the ring and returns `(allocations, packets delivered, ticks)` of
/// the measured phase. With a `trace`, the packets carry a causal key, so
/// each of a packet's two hops records a `pkt.tx` and a `pkt.rx` event.
fn measure(tickers_per_host: u64, trace: Option<&Arc<Trace>>) -> (u64, u64, u64) {
    let per_host = (WARM_UP + MEASURED) as usize / HOSTS;
    let mut sim = Simulator::new();
    if let Some(trace) = trace {
        sim.set_trace(Arc::clone(trace));
    }
    let apps: Vec<Box<dyn HostApp>> = (0..HOSTS)
        .map(|i| {
            // One payload buffer for the whole stock: the clones share it.
            let mut pkt = Packet::udp(host_ip(0, i), host_ip(0, (i + 1) % HOSTS), 9, 9, 0)
                .with_payload(vec![0u8; 1_000]);
            if trace.is_some() {
                pkt = pkt.with_cause(CausalKey {
                    round: 3,
                    segment: 1,
                    worker: host_ip(0, i).as_u32(),
                    tenant: 0,
                });
            }
            Box::new(Sender {
                stock: vec![pkt; per_host],
                tickers: tickers_per_host,
                received: 0,
                ticks: 0,
            }) as Box<dyn HostApp>
        })
        .collect();
    let star = build_star(&mut sim, apps, None, &TopologyConfig::default());
    let totals = |sim: &Simulator| {
        star.hosts.iter().fold((0, 0), |(rx, ticks), &h| {
            let app = sim.device::<Host>(h).app::<Sender>();
            (rx + app.received, ticks + app.ticks)
        })
    };

    while totals(&sim).0 < WARM_UP {
        assert!(sim.step(), "the ring stopped during warm-up");
    }
    let (warm_rx, warm_ticks) = totals(&sim);

    let before = allocs();
    sim.run_until_idle();
    let spent = allocs() - before;
    let (rx, ticks) = totals(&sim);
    (spent, rx - warm_rx, ticks - warm_ticks)
}

#[test]
fn ten_thousand_forwarded_packets_allocate_a_handful_of_times() {
    let (spent, delivered, _) = measure(0, None);
    assert_eq!(delivered, MEASURED);
    assert!(
        spent <= 16,
        "{spent} allocations for {MEASURED} forwarded packets"
    );
}

#[test]
fn re_arming_timers_allocate_nothing_either() {
    let (spent, delivered, ticks) = measure(16, None);
    assert_eq!(delivered, MEASURED);
    assert!(ticks > 5_000, "64 timers re-armed {ticks} times");
    assert!(
        spent <= 16,
        "{spent} allocations for {MEASURED} forwarded packets and {ticks} timer re-arms"
    );
}

/// Four events a packet (`pkt.tx` and `pkt.rx` on each of its two hops), one
/// allocation an event — its line — on top of the untraced path's handful.
fn assert_one_allocation_per_event(trace: Trace, what: &str) {
    let trace = Arc::new(trace);
    let (spent, delivered, _) = measure(0, Some(&trace));
    assert_eq!(delivered, MEASURED);
    assert_eq!(trace.recorded(), 4 * (WARM_UP + MEASURED));
    let events = 4 * MEASURED;
    assert!(
        spent <= events + 16,
        "{what}: {spent} allocations for {events} recorded events"
    );
}

#[test]
fn a_streamed_trace_event_is_one_allocation() {
    let sink = Box::new(std::io::sink());
    assert_one_allocation_per_event(Trace::bounded(0).with_writer(sink), "streamed");
}

#[test]
fn a_full_ring_keeps_an_event_for_one_allocation() {
    // Full, and its `VecDeque` at working size, long before the warm-up ends.
    assert_one_allocation_per_event(Trace::bounded(64), "bounded ring");
}

#[test]
fn a_warm_sharded_run_allocates_nothing_per_epoch() {
    // Two hosts, each its own domain, bounce packets over the one cross
    // link: the ring above cut in two, so nearly every epoch hands a
    // packet over the cut.
    let per_host = (WARM_UP + MEASURED) as usize / 2;
    let mut sharded = ShardedSim::new();
    let hosts: Vec<(usize, _)> = (0..2)
        .map(|d| {
            let domain = sharded.add_domain();
            let ip = host_ip(d, 0);
            let pkt = Packet::udp(ip, host_ip(1 - d, 0), 9, 9, 0).with_payload(vec![0u8; 1_000]);
            let app = Sender {
                stock: vec![pkt; per_host],
                tickers: 0,
                received: 0,
                ticks: 0,
            };
            let host = Host::new(ip, Box::new(app));
            let node = sharded
                .domain_mut(domain)
                .add_node(Box::new(host), NodeOpts::new(format!("h{d}")));
            (domain, node)
        })
        .collect();
    sharded.connect_cross(hosts[0], hosts[1], &LinkSpec::ten_gbe());
    let received = |sharded: &ShardedSim| -> u64 {
        let app = |&(d, n): &(usize, _)| sharded.domain(d).device::<Host>(n).app::<Sender>();
        hosts.iter().map(|h| app(h).received).sum()
    };

    let mut deadline = SimTime::ZERO;
    while received(&sharded) < WARM_UP {
        deadline += SimDuration::from_micros(10);
        sharded.run_until(deadline, 1);
    }
    let (warm_rx, warm_epochs) = (received(&sharded), sharded.stats().epochs);

    let before = allocs();
    sharded.run(1);
    let spent = allocs() - before;
    let delivered = received(&sharded) - warm_rx;
    let epochs = sharded.stats().epochs - warm_epochs;
    assert!(delivered > MEASURED / 2, "{delivered} packets crossed");
    assert!(epochs >= delivered / 2, "{epochs} epochs");
    assert!(
        spent <= 16,
        "{spent} allocations over {epochs} epochs moving {delivered} packets"
    );
}
