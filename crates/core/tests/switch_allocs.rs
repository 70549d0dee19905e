//! A round closed in the switch allocates its result once, under every
//! codec, and what the switch keeps for `Help` stops growing.
//!
//! Alone in its binary because it replaces the global allocator with one
//! that counts, as `iswitch-netsim`'s `hot_path_allocs.rs` does. Two hosts
//! under an iSwitch push one segment each per round, the moment the
//! previous round's result reaches them; every packet is built before the
//! run. Once the engine's buffers have grown to their working size, a round
//! — two contributions in, the round closed, its result out to both hosts —
//! allocates the result's payload and its shared handle, and nothing else:
//! the accumulator is encoded straight to the wire, with no decoded values
//! in between. The round also goes through both integer-hashed maps: each
//! contribution looks up, opens or closes its round in the accelerator's
//! open-round index, and the result waits out its latency in the
//! extension's pending-emission map. Neither map, nor the CPU-feature
//! check in front of the f32 loops, allocates once warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use iswitch_core::{
    CodecKind, DataSegment, EncodedGradient, ExtensionConfig, IswitchExtension, RESULT_DEPTH,
};
use iswitch_netsim::{
    build_star, host_ip, Host, HostApp, HostCtx, Packet, PortId, Simulator, Switch, TopologyConfig,
};

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

/// Round tags the hosts cycle through, so each result replaces the one
/// [`RESULT_DEPTH`] rounds older in the switch's store.
const TAGS: u32 = 16;
const WARM_UP: u64 = 3_000;
const MEASURED: u64 = 3_000;

/// Pushes its pre-built contribution for the next round at start and on
/// every result, until `rounds` are pushed.
struct Pusher {
    stock: Vec<Packet>,
    rounds: u64,
    pushed: u64,
    results: u64,
}

impl Pusher {
    fn push(&mut self, ctx: &mut HostCtx<'_, '_>) {
        if self.pushed < self.rounds {
            ctx.send(self.stock[(self.pushed % u64::from(TAGS)) as usize].clone());
            self.pushed += 1;
        }
    }
}

impl HostApp for Pusher {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.push(ctx);
    }
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {
        self.results += 1;
        self.push(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn a_closed_round_allocates_its_result_and_the_store_stops_growing() {
    for codec in CodecKind::ALL {
        closed_rounds_allocate_their_result(codec);
    }
}

fn closed_rounds_allocate_their_result(codec: CodecKind) {
    const HOSTS: usize = 2;
    let grad: Vec<f32> = (0..codec.elems_per_segment())
        .map(|i| (i % 7) as f32 * 0.25 - 0.5)
        .collect();
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = (0..HOSTS)
        .map(|i| {
            let enc = EncodedGradient::with_codec(host_ip(0, i), &grad, codec, 0);
            let stock = (0..TAGS).map(|round| enc.packet(0, round)).collect();
            let rounds = WARM_UP + MEASURED;
            let (pushed, results) = (0, 0);
            Box::new(Pusher {
                stock,
                rounds,
                pushed,
                results,
            }) as Box<dyn HostApp>
        })
        .collect();
    let ports = (0..HOSTS).map(PortId::new).collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(ports, grad.len()).with_codec(codec));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    let rounds = |sim: &Simulator| sim.device::<Host>(star.hosts[0]).app::<Pusher>().results;
    // Payload bytes kept for `Help`, packets ingested, rounds emitted, and
    // whether no round is open.
    let state = |sim: &Simulator| {
        let switch = sim.device::<Switch>(star.switch);
        let ext = switch.extension::<IswitchExtension>();
        let accel = ext.accelerator();
        let stats = accel.stats();
        (
            ext.kept_result_bytes(),
            stats.packets_in,
            stats.segments_emitted,
            accel.is_idle(),
        )
    };

    while rounds(&sim) < WARM_UP {
        assert!(sim.step(), "{codec}: the rounds stopped during warm-up");
    }
    let (kept_warm, packets_warm, emitted_warm, _) = state(&sim);
    let before = allocs();
    sim.run_until_idle();
    let spent = allocs() - before;
    let (kept, packets, emitted, idle) = state(&sim);

    assert_eq!(rounds(&sim), WARM_UP + MEASURED, "{codec}");
    assert!(
        spent <= 2 * MEASURED + 16,
        "{codec}: {spent} allocations for {MEASURED} closed rounds"
    );
    assert_eq!(kept, kept_warm, "{codec}");
    // Every measured contribution went through the open-round index and
    // every measured round through the pending-emission map; no round is
    // left open.
    assert!(packets - packets_warm >= HOSTS as u64 * MEASURED, "{codec}");
    assert!(emitted - emitted_warm >= MEASURED, "{codec}");
    assert!(idle, "{codec}");
    let one_result = codec.codec().encode_result(&DataSegment {
        seg: 0,
        count: HOSTS as u16,
        values: grad,
    });
    assert_eq!(kept_warm, RESULT_DEPTH * one_result.len(), "{codec}");
}
