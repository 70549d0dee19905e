//! Loss-recovery bookkeeping as cursors (DESIGN.md §13): the NACK
//! transport against the set-based formulation it replaced, the
//! stale-round rule, the go-back retry batch, and the per-packet cost
//! contract of `Transport::on_data`.
//!
//! A transport only acts through the runtime services it is handed, so
//! every test runs its script inside one host callback of a two-host
//! simulation and reads what came out of the wire at the peer.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::mpsc;

use iswitch_cluster::apps::{Pacing, Rt, WorkerCore};
use iswitch_cluster::transport::{RoundInfo, TimerVerdict};
use iswitch_cluster::{
    CommCosts, ComputeModel, GoBackRetransmit, NackReliable, SyntheticGradients, Transport,
};
use iswitch_core::{
    control_packet, data_packet_wire, decode_seg_field, dscp, seg_index, seg_round, tag_round,
    ControlMessage, DataSegment, RoundAssembler, FLOATS_PER_SEGMENT, TOS_CONTROL, UPSTREAM_IP,
};
use iswitch_netsim::{
    Host, HostApp, HostCtx, IpAddr, LinkSpec, NodeOpts, Packet, SimDuration, SimTime, Simulator,
};
use iswitch_rl::Algorithm;
use proptest::prelude::*;

const WORKER_IP: IpAddr = IpAddr::new(10, 0, 0, 1);
const SWITCH_IP: IpAddr = IpAddr::new(10, 0, 0, 2);

/// What the scripted worker is being called for.
enum Event {
    Start,
    Timer(u64),
}

type Script = Box<dyn FnMut(&mut Rt<'_, '_, '_>, Event) + Send>;

/// A worker host whose behaviour is the test's script.
struct Scripted {
    script: Script,
    core: WorkerCore,
    source: SyntheticGradients,
}

impl Scripted {
    fn call(&mut self, ctx: &mut HostCtx<'_, '_>, event: Event) {
        let mut rt = Rt {
            ctx,
            core: &mut self.core,
            source: &mut self.source,
        };
        (self.script)(&mut rt, event);
    }
}

impl HostApp for Scripted {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.call(ctx, Event::Start);
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        self.call(ctx, Event::Timer(token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The far end of the worker's link: keeps everything that arrives.
#[derive(Default)]
struct Sink {
    got: Vec<Packet>,
}

impl HostApp for Sink {
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        self.got.push(pkt);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A packet as the wire sees it: ToS class and payload bytes.
type Wire = (u8, Vec<u8>);

/// Runs `script` as a worker for one simulated second and returns every
/// packet it put on the wire, in order.
fn wire_of(script: impl FnMut(&mut Rt<'_, '_, '_>, Event) + Send + 'static) -> Vec<Wire> {
    let worker = Scripted {
        script: Box::new(script),
        core: WorkerCore::new(
            ComputeModel::for_algorithm(Algorithm::Ppo),
            CommCosts::default(),
            1,
            1,
            Pacing::Sync { iterations: 1 },
        ),
        source: SyntheticGradients::new(1),
    };
    let mut sim = Simulator::new();
    let a = sim.add_node(
        Box::new(Host::new(WORKER_IP, Box::new(worker))),
        NodeOpts::new("worker"),
    );
    let b = sim.add_node(
        Box::new(Host::new(SWITCH_IP, Box::new(Sink::default()))),
        NodeOpts::new("sink"),
    );
    sim.connect(a, b, &LinkSpec::ten_gbe());
    sim.run_until(SimTime::from_nanos(1_000_000_000));
    sim.device::<Host>(b)
        .app::<Sink>()
        .got
        .iter()
        .map(|p| (p.ip.tos, p.payload.to_vec()))
        .collect()
}

/// The `Help` requests among `wire`, as spatial segment indices.
fn helps(wire: &[Wire]) -> Vec<u64> {
    wire.iter()
        .filter(|(tos, _)| dscp(*tos) == TOS_CONTROL)
        .filter_map(|(_, payload)| match ControlMessage::decode(payload) {
            Ok(ControlMessage::Help { seg }) => Some(seg_index(seg)),
            _ => None,
        })
        .collect()
}

/// A result packet for segment `idx` of round `round`: a full segment, the
/// size every segment of these rounds has (an assembler refuses a result
/// whose length does not fit its index).
fn result(idx: u64, round: u32) -> Packet {
    let seg = DataSegment {
        seg: tag_round(idx, round),
        count: 1,
        values: vec![0.0; FLOATS_PER_SEGMENT],
    };
    let payload = seg.encode();
    let meta = DataSegment::decode_meta(&payload).expect("an f32 result");
    data_packet_wire(SWITCH_IP, WORKER_IP, meta, payload)
}

/// A round view over a plain flag vector that counts every index it is
/// made to look at.
struct CountingRound {
    received: Vec<bool>,
    inspected: Cell<u64>,
}

impl CountingRound {
    fn new(segments: usize) -> Self {
        CountingRound {
            received: vec![false; segments],
            inspected: Cell::new(0),
        }
    }
}

impl RoundInfo for CountingRound {
    fn is_done(&self) -> bool {
        self.received.iter().all(|&r| r)
    }
    fn received_count(&self) -> usize {
        self.received.iter().filter(|&&r| r).count()
    }
    fn next_missing(&self, from: u64, below: u64) -> Option<u64> {
        let hi = below.min(self.received.len() as u64);
        (from..hi).find(|&i| {
            self.inspected.set(self.inspected.get() + 1);
            !self.received[i as usize]
        })
    }
}

/// The gap rule as it was written before the cursors: on every arrival,
/// collect the round's whole missing set from scratch and filter it
/// against a set of indices already requested. Kept as the reference the
/// cursor formulation must match packet for packet; it tracks arrivals in
/// its own flag vector so the assembler's cursor is checked too.
struct SetBasedNack {
    received: Vec<bool>,
    nacked: HashSet<u64>,
    storm: bool,
    train: Vec<Packet>,
}

/// One side of the equivalence: a gap rule told when a round begins (and
/// handed the contribution train to push) and what arrives.
trait GapRule: Send + 'static {
    fn begin_round(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32, train: Vec<Packet>);
    fn arrive(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32);
}

impl GapRule for SetBasedNack {
    fn begin_round(&mut self, rt: &mut Rt<'_, '_, '_>, _iter: u32, train: Vec<Packet>) {
        self.received.fill(false);
        self.nacked.clear();
        self.train = train.clone();
        for p in train {
            rt.send(p);
        }
    }

    fn arrive(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32) {
        let seg_field = decode_seg_field(&pkt.payload).expect("scripted results have a header");
        // The seeded storm reads any arrival as gap evidence; the real
        // rule only this round's.
        let current = seg_round(seg_field) == iter & 0xFFFF;
        if !current && !self.storm {
            return;
        }
        let arrived = seg_index(seg_field);
        let missing: Vec<u64> = (0..self.received.len() as u64)
            .filter(|&i| !self.received[i as usize])
            .collect();
        let gaps: Vec<u64> = missing
            .into_iter()
            .filter(|&m| m < arrived && !self.nacked.contains(&m))
            .collect();
        if let Some(slot) = self.received.get_mut(arrived as usize).filter(|_| current) {
            *slot = true;
        }
        if gaps.is_empty() {
            return;
        }
        if self.storm {
            for p in self.train.clone() {
                rt.send(p);
            }
            return;
        }
        for m in gaps {
            self.nacked.insert(m);
            let seg = tag_round(m, iter);
            rt.send(control_packet(
                rt.ip(),
                UPSTREAM_IP,
                &ControlMessage::Help { seg },
            ));
        }
    }
}

/// One arrival of a schedule: a segment index and whether it carries the
/// current round's tag or the previous round's.
#[derive(Clone, Copy)]
struct Arrival {
    idx: u64,
    stale: bool,
}

/// Turns raw draws into one round's arrival schedule over `n` segments:
/// the switch's ascending emission order with losses, duplicates,
/// arbitrary reorderings (late `Help` replies among them), stale-round
/// stragglers and indices past the end of the vector.
fn schedule(n: usize, raws: &[u64]) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (i, &raw) in raws.iter().enumerate() {
        let in_order = (i % n) as u64;
        let anywhere = (raw >> 8) % (n as u64 + 2);
        let fresh = |idx| Arrival { idx, stale: false };
        match raw % 8 {
            0 => {} // lost
            1 => out.extend([fresh(in_order), fresh(in_order)]),
            2 => out.push(fresh(anywhere)),
            3 => out.push(Arrival {
                idx: anywhere,
                stale: true,
            }),
            _ => out.push(fresh(in_order)),
        }
    }
    out
}

/// First round number of the multi-round schedules: the third round
/// wraps the 16-bit wire tag.
const FIRST_ROUND: u32 = 65_534;

/// The contribution train both sides push at the top of a round (what
/// storm mode re-pushes on a gap).
fn train(round: u32) -> Vec<Packet> {
    (0..2).map(|i| result(i, round)).collect()
}

/// The transport under test with the assembler it reads, wired the way
/// `IswSyncProto` wires them.
struct CursorNack {
    transport: NackReliable,
    asm: RoundAssembler,
}

impl GapRule for CursorNack {
    fn begin_round(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32, train: Vec<Packet>) {
        self.asm.begin_round(Some(iter));
        self.transport.begin_round(iter);
        self.transport.send_round(rt, train, iter);
    }

    fn arrive(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32) {
        // Transport first, then the assembler books the arrival.
        self.transport.on_data(rt, pkt, iter, &self.asm);
        self.asm.insert_wire(&pkt.payload);
    }
}

/// Everything `rule` puts on the wire over `rounds`.
fn wire_under(mut rule: impl GapRule, rounds: Vec<Vec<Arrival>>) -> Vec<Wire> {
    wire_of(move |rt, event| {
        if !matches!(event, Event::Start) {
            return;
        }
        for (r, arrivals) in rounds.iter().enumerate() {
            let iter = FIRST_ROUND + r as u32;
            rule.begin_round(rt, iter, train(iter));
            for a in arrivals {
                rule.arrive(rt, &result(a.idx, iter - u32::from(a.stale)), iter);
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same `Help` packets (or storm re-pushes), byte for byte, in the same
    /// order, whatever arrives in whatever order over three rounds.
    #[test]
    fn cursor_nack_matches_the_set_based_formulation(
        n in 1usize..24,
        storm in any::<bool>(),
        raws in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..72), 3),
    ) {
        let rounds: Vec<Vec<Arrival>> = raws.iter().map(|r| schedule(n, r)).collect();
        let mut cursor = CursorNack {
            transport: NackReliable::new(),
            asm: RoundAssembler::new(n * FLOATS_PER_SEGMENT, false),
        };
        if storm {
            cursor.transport.seed_protocol_bug();
        }
        let reference = SetBasedNack {
            received: vec![false; n],
            nacked: HashSet::new(),
            storm,
            train: Vec::new(),
        };
        let wire = wire_under(cursor, rounds.clone());
        prop_assert_eq!(&wire, &wire_under(reference, rounds));
        if storm {
            prop_assert!(helps(&wire).is_empty(), "the storm re-pushes, it never NACKs");
        }
    }
}

#[test]
fn an_arrival_from_another_round_is_not_gap_evidence() {
    let wire = wire_of(|rt, event| {
        if !matches!(event, Event::Start) {
            return;
        }
        let round = CountingRound::new(8); // nothing received yet
        let mut t = NackReliable::new();
        t.begin_round(6);
        // A late `Help` reply of round 5 lands first: it must neither NACK
        // segments 0..5 of round 6 nor mark them as requested.
        t.on_data(rt, &result(5, 5), 6, &round);
        assert_eq!(t.stats().nacks_sent, 0);
        // Round 6's own segment 3 then exposes 0, 1 and 2.
        t.on_data(rt, &result(3, 6), 6, &round);
        assert_eq!(t.stats().nacks_sent, 3);
    });
    assert_eq!(helps(&wire), [0, 1, 2]);
    // The requests are tagged with the round they are for.
    assert_eq!(wire.len(), 3);
}

#[test]
fn go_back_retry_requests_the_lowest_missing_batch() {
    let mut t = GoBackRetransmit::new();
    t.set_recovery_timeout(SimDuration::from_micros(1));
    let mut retried = false;
    let wire = wire_of(move |rt, event| match event {
        Event::Start => t.arm_recovery(rt, 0),
        // The first retry is under test; it re-arms, and the round never
        // completes, so later timers are left to lapse.
        Event::Timer(_) if retried => {}
        Event::Timer(token) => {
            retried = true;
            let mut round = CountingRound::new(200);
            for i in (0..200).step_by(3) {
                round.received[i] = true;
            }
            assert_eq!(t.on_timer(rt, token, 0, &round), TimerVerdict::Handled);
            assert_eq!(t.stats().help_requests, 64);
            // 64 holes with a third of the indices received: the scan
            // stops at the batch, well short of the vector.
            assert!(round.inspected.get() <= 100, "{}", round.inspected.get());
        }
    });
    let expect: Vec<u64> = (0..200).filter(|i| i % 3 != 0).take(64).collect();
    assert_eq!(helps(&wire), expect);
}

/// Drives one round of `segments` ascending arrivals, minus `lost`,
/// through `NackReliable::on_data`; every NACKed segment is then
/// re-delivered, as the switch's `Help` replies would be. Returns the
/// indices the transport made the round view inspect, and the NACKs sent.
fn inspected_over_one_round(segments: usize, lost: &'static [usize]) -> (u64, Vec<u64>) {
    let (tx, rx) = mpsc::channel();
    let wire = wire_of(move |rt, event| {
        if !matches!(event, Event::Start) {
            return;
        }
        let mut round = CountingRound::new(segments);
        let mut t = NackReliable::new();
        t.begin_round(1);
        let replies = lost.iter().copied();
        for i in (0..segments).filter(|i| !lost.contains(i)).chain(replies) {
            t.on_data(rt, &result(i as u64, 1), 1, &round);
            round.received[i] = true;
        }
        tx.send(round.inspected.get()).expect("receiver alive");
    });
    (rx.recv().expect("script ran"), helps(&wire))
}

#[test]
fn gap_detection_cost_is_linear_in_the_round_not_quadratic() {
    const S: usize = 50_000;
    // Lossless and in order: no NACK, and the whole round inspects no
    // more than a constant per segment (a rescan per arrival would
    // inspect S²/2 = 1.25 billion).
    let (inspected, nacks) = inspected_over_one_round(S, &[]);
    assert_eq!(nacks, [] as [u64; 0]);
    assert!(inspected <= 2 * S as u64, "inspected {inspected}");

    // Scattered holes, including the first segment and the tail-adjacent
    // one: each is NACKed once, in order, and the bound grows by the
    // holes only.
    const LOST: &[usize] = &[0, 7, 8, 9, 1_000, 24_999, 25_000, 31_337, 49_998];
    let (inspected, nacks) = inspected_over_one_round(S, LOST);
    let expect: Vec<u64> = LOST.iter().map(|&i| i as u64).collect();
    assert_eq!(nacks, expect);
    assert!(
        inspected <= 2 * (S + LOST.len()) as u64,
        "inspected {inspected}"
    );
}
