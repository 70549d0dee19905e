//! Round-lifecycle property test: whatever interleaving of contributions
//! (accepted, malformed, BRAM-refused, CE-marked), `FBcast`, `Help`, stale
//! sweeps, `Reset` and switch restarts a switch sees over overlapping
//! rounds, every round it opens ends exactly once — by threshold, flush,
//! sweep, reset or as a refused opener — and leaves nothing behind.
//!
//! One puppet host drives one switch over a wire that costs 1 ns each way
//! whatever the packet, so the reference model below knows every arrival
//! time. The model keeps, per open round, what the accelerator's slot
//! keeps (first and last accepted arrival, CE, counts, sums) in a plain
//! map; it shares the codec (the wire format) with the switch and nothing
//! else. After every action the switch's open rounds and BRAM bytes must
//! equal the model's, and at the end so must every packet the host
//! received, every latency sample and every counter.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use iswitch_core::{
    control_packet, data_packet_wire, seg_index, seg_round, tag_round, AcceleratorConfig,
    AggregationCodec, CodecKind, ControlMessage, DataSegment, ExtensionConfig, IswitchExtension,
    WireAcc, FAULT_RESET_TOKEN, HOST_PATH_LATENCY_FACTOR, RESULT_DEPTH, UPSTREAM_IP,
};
use iswitch_netsim::{
    host_ip, FaultAction, Host, LinkSpec, NodeOpts, PortId, RouteTable, SimDuration, SimTime,
    Simulator, Switch,
};

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::{switch_counter, Puppet};

/// Aggregation threshold: rounds stay open across several actions.
const H: u16 = 3;
/// Spacing of the action grid. Far above the slowest emission (a
/// host-path completion leaves 16 × 270 ns after its last packet), so
/// every emission lands before the next action.
const GRID: u64 = 10_000;
/// Half the stale age, and so the sweep period. Coprime to the grid: a
/// sweep tick never coincides with an arrival.
const HALF_AGE: u64 = 25_501;
/// One-way wire time (a link of unbounded rate still rounds up to 1 ns).
const WIRE: u64 = 1;

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A full segment.
    Full,
    /// Three elements: malformed for a full-length round, a round of its
    /// own when it opens one.
    Odd,
    /// A full segment whose header parses but whose body the codec
    /// refuses — the one packet a switch can be sent that is malformed for
    /// the round it opens: a top-k sparse index past the segment's end, a
    /// block-float or fixed-point scaling exponent past the accumulator's
    /// range. f32 has no such payload (its header *is* its length) and
    /// sends a full segment instead.
    Corrupt,
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Contribute { key: usize, shape: Shape, ce: bool },
    FBcast { key: usize },
    Help { key: usize },
    Reset,
    Restart,
}

/// Six overlapping rounds: segments 0 and 1 of rounds 0, 1 and 2.
fn seg_of(key: usize) -> u64 {
    tag_round(key as u64 % 2, key as u32 / 2)
}

fn payload_of(codec: &dyn AggregationCodec, key: usize, shape: Shape, salt: usize) -> Bytes {
    let len = match shape {
        Shape::Odd => 3,
        Shape::Full | Shape::Corrupt => codec.elems_per_segment(),
    };
    let values: Vec<f32> = (0..len)
        .map(|i| (salt % 7) as f32 + (i % 5) as f32 * 0.25)
        .collect();
    let full = codec
        .encode_contribution(seg_of(key), &values)
        .expect("finite");
    let Shape::Corrupt = shape else {
        return full;
    };
    let mut bytes = full.to_vec();
    match codec.kind() {
        CodecKind::TopK => bytes[12] ^= 0x80, // high byte of the first index
        CodecKind::BlockFloat => bytes[12] = 0xFF, // the first block's exponent byte
        CodecKind::FixedPoint => bytes[10] = 0x7F, // the packet's exponent: 2^127
        CodecKind::F32 => {}
    }
    Bytes::from(bytes)
}

/// One result reaching the host, values folded to a digest so a mismatch
/// prints legibly: (time, `Seg`, count, elements, digest, CE echoed).
type Arrival = (u64, u64, u16, usize, u64, bool);

fn arrival(at: u64, seg: &DataSegment, ce: bool) -> Arrival {
    let fold = |h: u64, v: &f32| h.rotate_left(5) ^ u64::from(v.to_bits());
    let digest = seg.values.iter().fold(0, fold);
    (at, seg.seg, seg.count, seg.values.len(), digest, ce)
}

/// Everything countable the switch exports about its rounds; the model
/// keeps one and the test reads the other off the switch.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    h_hits: u64,
    stale_flushes: u64,
    forced_broadcasts: u64,
    help_served: u64,
    help_missed: u64,
    resend_requests: u64,
    bram_drops: u64,
    malformed_drops: u64,
    slot_denials: u64,
    fallback_rounds: u64,
    segments_emitted: u64,
    ecn_echoed: u64,
    /// `agg_latency_ns`: samples, their sum, the largest.
    latency: (u64, u64, u64),
}

/// What the model remembers of an open round.
struct Round {
    first: u64,
    last: u64,
    ce: bool,
    contributions: u16,
    workers: u16,
    acc: WireAcc,
    host: bool,
}

/// The reference model. Times are the switch's clock, in ns.
struct Model {
    kind: CodecKind,
    accel: AcceleratorConfig,
    host_fallback: bool,
    stale: bool,
    open: BTreeMap<u64, Round>,
    /// The results kept for `Help`: the latest of each segment and round
    /// residue mod `RESULT_DEPTH`, with its full `Seg`.
    kept: HashMap<(u64, u32), DataSegment>,
    next_sweep: Option<u64>,
    /// Expected arrivals at the host: (time, aggregate, CE echoed).
    emitted: Vec<(u64, DataSegment, bool)>,
    /// When the downlink finishes serializing what it has been handed.
    down_free: u64,
    tally: Tally,
    /// Rounds ended by a reset, and by their own refused first packet
    /// (coverage only: the switch counts neither).
    wiped: u64,
    refused_openers: u64,
}

/// Where the switch keeps the result of `seg`.
fn kept_at(seg: u64) -> (u64, u32) {
    (seg_index(seg), seg_round(seg) % RESULT_DEPTH as u32)
}

impl Model {
    /// Hands a result to the downlink at `at`: results emitted in the same
    /// instant (one sweep flushing two rounds) queue behind each other.
    fn send_down(&mut self, at: u64, aggregate: DataSegment, ce: bool) {
        self.down_free = at.max(self.down_free) + WIRE;
        self.emitted.push((self.down_free, aggregate, ce));
    }

    /// Ends round `seg`, its aggregate leaving the switch at `at`.
    fn close(&mut self, seg: u64, at: u64) {
        let round = self.open.remove(&seg).expect("closing an open round");
        let (count, values) = (round.workers, self.kind.codec().decode_acc(&round.acc));
        let aggregate = DataSegment { seg, count, values };
        self.kept.insert(kept_at(seg), aggregate.clone());
        self.send_down(at, aggregate, round.ce);
        self.tally.segments_emitted += 1;
        self.tally.fallback_rounds += u64::from(round.host);
        self.tally.ecn_echoed += u64::from(round.ce);
    }

    /// Runs the sweep ticks that fall before `now`.
    fn advance(&mut self, now: u64) {
        while let Some(tick) = self.next_sweep.filter(|&tick| tick < now) {
            let is_stale = |r: &Round| tick - r.last >= 2 * HALF_AGE;
            let stale: Vec<u64> = (self.open.iter())
                .filter(|(_, r)| is_stale(r))
                .map(|(&seg, _)| seg)
                .collect();
            for seg in stale {
                self.close(seg, tick);
                self.tally.stale_flushes += 1;
                self.tally.forced_broadcasts += 1;
            }
            self.next_sweep = (!self.open.is_empty()).then_some(tick + HALF_AGE);
        }
    }

    fn contribute(&mut self, now: u64, payload: &[u8], ce: bool) {
        let codec = self.kind.codec();
        let Ok(meta) = codec.decode_meta(payload) else {
            return; // the switch drops it before the accelerator
        };
        let opener = !self.open.contains_key(&meta.seg);
        if opener {
            let bram = self.open.values().filter(|r| !r.host);
            let resident: usize = bram.map(|r| r.acc.resident_bytes()).sum();
            let host = resident + self.kind.acc_bytes(meta.len) > self.accel.buffer_bytes;
            if host && !self.host_fallback {
                self.tally.bram_drops += 1;
                return;
            }
            self.tally.slot_denials += u64::from(host);
            let acc = codec.new_acc(meta.len);
            let (first, last, ce, contributions, workers) = (now, now, false, 0, 0);
            let round = Round {
                first,
                last,
                ce,
                contributions,
                workers,
                acc,
                host,
            };
            self.open.insert(meta.seg, round);
        }
        let round = self.open.get_mut(&meta.seg).expect("open");
        if codec.accumulate(&mut round.acc, payload).is_err() {
            self.tally.malformed_drops += 1;
            if opener {
                self.open.remove(&meta.seg);
                self.refused_openers += 1;
            }
            return;
        }
        (round.last, round.ce) = (now, round.ce | ce);
        round.contributions += 1;
        round.workers += meta.count.max(1);
        let factor = if round.host {
            HOST_PATH_LATENCY_FACTOR
        } else {
            1
        };
        let latency = self.accel.packet_latency(payload.len()).as_nanos() * factor;
        if round.contributions >= H {
            let window = now - round.first + latency;
            let (n, sum, max) = self.tally.latency;
            self.tally.latency = (n + 1, sum + window, max.max(window));
            self.tally.h_hits += 1;
            self.close(meta.seg, now + latency);
        } else if self.stale && self.next_sweep.is_none() {
            self.next_sweep = Some(now + HALF_AGE);
        }
    }

    fn apply(&mut self, now: u64, action: Action, payload: Option<&Bytes>) {
        match action {
            Action::Contribute { ce, .. } => {
                self.contribute(now, payload.expect("contributions carry one"), ce);
            }
            Action::FBcast { key } if self.open.contains_key(&seg_of(key)) => {
                self.close(seg_of(key), now);
                self.tally.forced_broadcasts += 1;
            }
            Action::FBcast { .. } => {}
            Action::Help { key } => {
                let seg = seg_of(key);
                match self.kept.get(&kept_at(seg)).filter(|kept| kept.seg == seg) {
                    Some(kept) => {
                        self.send_down(now, kept.clone(), false);
                        self.tally.help_served += 1;
                    }
                    None => {
                        self.tally.help_missed += 1;
                        // Neither kept nor open: the root asks for the
                        // contribution back (a control packet the puppet
                        // does not keep).
                        if !self.open.contains_key(&seg) {
                            self.tally.resend_requests += 1;
                        }
                    }
                }
            }
            // Either reset forgets every open round and the kept results; a
            // running sweep chain keeps ticking until it finds nothing.
            Action::Reset | Action::Restart => {
                self.wiped += self.open.len() as u64;
                self.open.clear();
                self.kept.clear();
            }
        }
    }
}

/// Runs `actions` (each `gap` grid steps after the one before) against a
/// real switch and the model side by side.
fn check(kind: CodecKind, host_fallback: bool, stale: bool, actions: &[(u64, Action)]) -> Model {
    let codec = kind.codec();
    let me = host_ip(0, 0);
    let accel = AcceleratorConfig {
        // Two full segments: the third concurrent round is refused, or
        // lives on the host path.
        buffer_bytes: 2 * kind.acc_bytes(kind.elems_per_segment()),
        ..AcceleratorConfig::default()
    };
    let mut cfg = ExtensionConfig::for_star(vec![PortId::new(0)], 2 * kind.elems_per_segment())
        .with_threshold(H)
        .with_codec(kind);
    cfg.accel = accel.clone();
    cfg.host_fallback = host_fallback;
    if stale {
        cfg = cfg.with_stale_flush(SimDuration::from_nanos(2 * HALF_AGE));
    }

    // The script: what the puppet sends and when; restarts are scheduled
    // faults, timed to land when a packet sent on the grid would.
    let mut script = Vec::new();
    let mut payloads = Vec::new();
    let mut sent_at = 0;
    for (i, &(gap, action)) in actions.iter().enumerate() {
        sent_at += gap * GRID;
        let control = |msg| control_packet(me, UPSTREAM_IP, &msg);
        let mut payload = None;
        let pkt = match action {
            Action::Contribute { key, shape, ce } => {
                let bytes = payload_of(codec, key, shape, i);
                payload = Some(bytes.clone());
                // The header the puppet stamps is irrelevant to the switch,
                // which parses the payload itself.
                let meta = iswitch_core::SegmentMeta {
                    seg: seg_of(key),
                    count: 1,
                    len: 0,
                };
                let mut pkt = data_packet_wire(me, UPSTREAM_IP, meta, bytes);
                if ce {
                    pkt.mark_ecn_ce();
                }
                Some(pkt)
            }
            Action::FBcast { key } => Some(control(ControlMessage::FBcast { seg: seg_of(key) })),
            Action::Help { key } => Some(control(ControlMessage::Help { seg: seg_of(key) })),
            Action::Reset => Some(control(ControlMessage::Reset)),
            Action::Restart => None,
        };
        payloads.push(payload);
        script.extend(pkt.map(|pkt| (sent_at, pkt)));
    }

    let mut sim = Simulator::new();
    sim.set_event_limit(1_000_000); // a sweep chain that never ends trips this
    let ext = Box::new(IswitchExtension::new(cfg));
    let switch = sim.add_node(
        Box::new(Switch::with_extension(RouteTable::new(), ext)),
        NodeOpts::new("switch"),
    );
    let host = sim.add_node(
        Box::new(Host::new(me, Puppet::new(script))),
        NodeOpts::new("host"),
    );
    let (_, _, port) = sim.connect(host, switch, &LinkSpec::new(u64::MAX, SimDuration::ZERO));
    let mut routes = RouteTable::new();
    routes.add(me, port);
    *sim.device_mut::<Switch>(switch).routes_mut() = routes;
    let mut at = 0;
    for &(gap, action) in actions {
        at += gap * GRID;
        if let Action::Restart = action {
            let (node, token) = (switch, FAULT_RESET_TOKEN);
            let restart = FaultAction::InjectTimer { node, token };
            sim.schedule_fault(SimTime::from_nanos(at + WIRE), restart);
        }
    }

    let mut model = Model {
        kind,
        accel,
        host_fallback,
        stale,
        open: BTreeMap::new(),
        kept: HashMap::new(),
        next_sweep: None,
        emitted: Vec::new(),
        down_free: 0,
        tally: Tally::default(),
        wiped: 0,
        refused_openers: 0,
    };
    let mut now = 0;
    for (&(gap, action), payload) in actions.iter().zip(&payloads) {
        now += gap * GRID;
        model.advance(now + WIRE);
        model.apply(now + WIRE, action, payload.as_ref());
        // Half a grid step on, everything the action set off has happened:
        // the switch must hold exactly the rounds the model holds.
        let settled = now + GRID / 2;
        model.advance(settled);
        sim.run_until(SimTime::from_nanos(settled));
        let accel = sim
            .device::<Switch>(switch)
            .extension::<IswitchExtension>()
            .accelerator();
        let open: Vec<u64> = model.open.keys().copied().collect();
        assert_eq!(accel.partial_segments(), open, "after {action:?} at {now}");
        let bram = || model.open.values().filter(|r| !r.host);
        let resident: usize = bram().map(|r| r.acc.resident_bytes()).sum();
        assert_eq!(
            accel.resident_bytes(),
            resident,
            "after {action:?} at {now}"
        );
        assert_eq!(
            accel.open_rounds(),
            bram().count(),
            "after {action:?} at {now}"
        );
        assert_eq!(accel.host_rounds(), open.len() - bram().count());
    }
    sim.run_until_idle();
    model.advance(u64::MAX);

    let ext = sim.device::<Switch>(switch).extension::<IswitchExtension>();
    assert_eq!(ext.accelerator().is_idle(), model.open.is_empty());
    assert!(
        !stale || model.open.is_empty(),
        "the sweep leaves no round open"
    );
    let puppet = sim.device::<Host>(host).app::<Puppet>();
    // Results leave in the codec's wide format, which requantizes.
    let on_the_wire = |seg: &DataSegment| codec.decode_values(&codec.encode_result(seg)).unwrap();
    let got: Vec<Arrival> = (puppet.got.iter())
        .map(|(at, pkt)| {
            let result = codec.decode_values(&pkt.payload).expect("a result");
            arrival(*at, &result, pkt.ecn_ce())
        })
        .collect();
    let expected: Vec<Arrival> = (model.emitted.iter())
        .map(|(at, seg, ce)| arrival(*at, &on_the_wire(seg), *ce))
        .collect();
    assert_eq!(got, expected);

    let counter = |metric: &str| switch_counter(&sim, switch, metric);
    let latency = sim.metrics().histogram(&format!(
        "core.switch.n{:03}.agg_latency_ns",
        switch.index()
    ));
    let stats = ext.accelerator().stats();
    let seen = Tally {
        h_hits: counter("h_hits"),
        stale_flushes: counter("stale_flushes"),
        forced_broadcasts: stats.forced_broadcasts,
        help_served: counter("help_served"),
        help_missed: counter("help_missed"),
        resend_requests: counter("resend_requests"),
        bram_drops: stats.bram_drops,
        malformed_drops: counter("malformed_drops"),
        slot_denials: stats.slot_denials,
        fallback_rounds: stats.fallback_rounds,
        segments_emitted: stats.segments_emitted,
        ecn_echoed: ext.stats().ecn_echoed,
        latency: (latency.count(), latency.sum(), latency.max_value()),
    };
    assert_eq!(seen, model.tally);
    assert_eq!(stats.malformed_drops, model.tally.malformed_drops);
    assert_eq!(ext.stats().resend_requests, model.tally.resend_requests);
    let kept: usize = (model.kept.values())
        .map(|result| codec.encode_result(result).len())
        .sum();
    assert_eq!(ext.kept_result_bytes(), kept);
    model
}

/// Decodes one raw draw into a gap and an action. Gaps are 1, 4 or 15 grid
/// steps: rounds age past the 51 µs stale threshold across the longer
/// ones. Twelve draws in eighteen contribute, six in eight of those with a
/// full segment.
fn action_of(raw: u64) -> (u64, Action) {
    let mut bits = raw;
    let mut take = |n: u64| {
        let v = bits % n;
        bits /= n;
        v
    };
    let gap = [1, 4, 15][take(3) as usize];
    let key = take(6) as usize;
    let action = match take(18) {
        0..=11 => {
            let shape = match take(8) {
                0 => Shape::Odd,
                1 => Shape::Corrupt,
                _ => Shape::Full,
            };
            let ce = take(2) == 1;
            Action::Contribute { key, shape, ce }
        }
        12 | 13 => Action::FBcast { key },
        14 | 15 => Action::Help { key },
        16 => Action::Reset,
        _ => Action::Restart,
    };
    (gap, action)
}

#[test]
fn every_round_ends_once_and_leaves_nothing() {
    // 512 seeded scripts of up to 47 actions, 16 for each combination of
    // codec, residency of the overflow rounds and sweep on/off.
    let mut state = 0x5117c4_u64;
    let mut draw = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut endings: BTreeMap<(&str, &str, bool), u64> = BTreeMap::new();
    for case in 0..512 {
        let kind = CodecKind::ALL[case % 4];
        let (host_fallback, stale) = (case / 4 % 2 == 1, case / 8 % 2 == 1);
        let actions: Vec<(u64, Action)> = (0..1 + draw() % 47).map(|_| action_of(draw())).collect();
        let model = check(kind, host_fallback, stale, &actions);
        let t = &model.tally;
        for (ending, n) in [
            ("threshold", t.h_hits),
            ("fbcast", t.forced_broadcasts - t.stale_flushes),
            ("stale sweep", if stale { t.stale_flushes } else { 1 }),
            ("reset", model.wiped),
            ("refused opener", model.refused_openers),
            ("ce echo", t.ecn_echoed),
            ("help", t.help_served),
            ("resend request", t.resend_requests),
            ("overflow", t.bram_drops + t.fallback_rounds),
        ] {
            *endings
                .entry((ending, kind.label(), host_fallback))
                .or_default() += n;
        }
    }
    // Every way a round ends was exercised under every codec and both
    // residencies — except that f32 has no body the switch can refuse for
    // the very round it opens (see `Shape::Corrupt`).
    for ((ending, kind, host_fallback), n) in endings {
        let impossible = ending == "refused opener" && kind == CodecKind::F32.label();
        assert!(
            n > 0 || impossible,
            "never seen: {ending} / {kind} / host path {host_fallback}"
        );
    }
}
