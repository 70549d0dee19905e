//! Property tests on the sharded engine: thread-count invariance,
//! behavioural equivalence with a bare `Simulator`, the stepped drive
//! (byte-identical to the unpaused run wherever it pauses), the one-domain
//! partition (byte-identical to a bare `Simulator` however it is paused),
//! plus regression tests for a cross-domain packet landing exactly on the
//! conservative lookahead horizon, for a span that outlives the epoch it
//! began in, and for loss streams of same-numbered links in different
//! domains.

use std::any::Any;
use std::sync::Arc;

use iswitch_netsim::{
    host_ip, CausalKey, Host, HostApp, HostCtx, IpAddr, LinkSpec, LossModel, NodeId, NodeOpts,
    Packet, RouteTable, ShardedSim, SimDuration, SimStats, SimTime, Simulator, Switch,
};
use iswitch_obs::{JsonValue, Span, Timeseries, Trace, TraceEvent};
use proptest::prelude::*;

/// One scheduled transmission: `(delay_ns, destination, payload_bytes)`.
type Send = (u64, IpAddr, usize);

/// Sends a scripted schedule of UDP packets and records every arrival as
/// `(t_ns, src_addr, payload_len)`.
struct ScriptedHost {
    sends: Vec<Send>,
    got: Vec<(u64, u32, usize)>,
}

impl ScriptedHost {
    fn new(sends: Vec<Send>) -> Self {
        ScriptedHost { sends, got: vec![] }
    }
}

impl HostApp for ScriptedHost {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for (i, &(delay, _, _)) in self.sends.iter().enumerate() {
            ctx.set_timer(SimDuration::from_nanos(delay), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        let (_, dst, len) = self.sends[token as usize];
        // Tagged, so the engine traces every hop.
        let cause = CausalKey {
            round: 0,
            segment: token as u32,
            worker: ctx.ip().as_u32(),
            tenant: 0,
        };
        let pkt = Packet::udp(ctx.ip(), dst, 7, 7, 0).with_payload(vec![0xAB; len]);
        ctx.send(pkt.with_cause(cause));
    }
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        self.got
            .push((ctx.now().as_nanos(), pkt.ip.src.as_u32(), pkt.payload.len()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The random workload of one property case: two racks of scripted hosts
/// joined rack-to-rack by one inter-switch link.
#[derive(Clone, Debug)]
struct Case {
    hosts: [usize; 2],
    cross_propagation_ns: u64,
    /// Flat sends as `(delay_ns, src_sel, dst_sel, payload)`; selectors
    /// index the global host list modulo its size.
    sends: Vec<(u64, usize, usize, usize)>,
}

impl Case {
    fn ips(&self) -> Vec<IpAddr> {
        (0..2)
            .flat_map(|r| (0..self.hosts[r]).map(move |i| host_ip(r, i)))
            .collect()
    }

    /// Per-host send schedules in global host order.
    fn schedules(&self) -> Vec<Vec<Send>> {
        let ips = self.ips();
        let mut per_host: Vec<Vec<Send>> = vec![vec![]; ips.len()];
        for &(delay, src_sel, dst_sel, payload) in &self.sends {
            let src = src_sel % ips.len();
            let dst = ips[dst_sel % ips.len()];
            per_host[src].push((delay, dst, payload));
        }
        per_host
    }

    fn cross_spec(&self) -> LinkSpec {
        LinkSpec::new(
            10_000_000_000,
            SimDuration::from_nanos(self.cross_propagation_ns),
        )
    }
}

/// Decodes one raw 64-bit draw into a `(delay_ns, src_sel, dst_sel,
/// payload)` send: distinct bit fields keep the four values independent.
fn decode_send(raw: u64) -> (u64, usize, usize, usize) {
    (
        raw % 2_000_000,
        (raw >> 21) as usize & 0xff,
        (raw >> 35) as usize & 0xff,
        ((raw >> 49) % 1400) as usize,
    )
}

fn mk_case(hosts_a: usize, hosts_b: usize, cross_propagation_ns: u64, raw: &[u64]) -> Case {
    Case {
        hosts: [hosts_a, hosts_b],
        cross_propagation_ns,
        sends: raw.iter().copied().map(decode_send).collect(),
    }
}

/// What one engine run produced: per-host arrival records (global host
/// order) and the headline packet counters.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    got: Vec<Vec<(u64, u32, usize)>>,
    packets_sent: u64,
    bytes_sent: u64,
    packets_delivered: u64,
}

impl Outcome {
    /// Arrival records as per-host sorted multisets: simultaneous arrivals
    /// at one host may interleave differently across engines.
    fn sorted(mut self) -> Self {
        self.got.iter_mut().for_each(|got| got.sort_unstable());
        self
    }
}

/// Builds rack `r` of the case in `sim`: a switch with the rack's scripted
/// hosts on edge links. Returns the switch and the hosts.
fn build_rack(
    sim: &mut Simulator,
    case: &Case,
    r: usize,
    schedules: &mut impl Iterator<Item = Vec<Send>>,
) -> (NodeId, Vec<NodeId>) {
    let sw = sim.add_node(
        Box::new(Switch::new(RouteTable::new())),
        NodeOpts::new("sw"),
    );
    let mut routes = RouteTable::new();
    let mut nodes = Vec::new();
    for i in 0..case.hosts[r] {
        let ip = host_ip(r, i);
        let app = ScriptedHost::new(schedules.next().expect("one schedule per host"));
        let node = sim.add_node(
            Box::new(Host::new(ip, Box::new(app))),
            NodeOpts::new(format!("h{r}x{i}")),
        );
        let (_, _, sw_port) = sim.connect(node, sw, &LinkSpec::ten_gbe());
        routes.add(ip, sw_port);
        nodes.push(node);
    }
    *sim.device_mut::<Switch>(sw).routes_mut() = routes;
    (sw, nodes)
}

fn outcome(stats: &SimStats, got: impl Iterator<Item = Vec<(u64, u32, usize)>>) -> Outcome {
    Outcome {
        got: got.collect(),
        packets_sent: stats.packets_sent,
        bytes_sent: stats.bytes_sent,
        packets_delivered: stats.packets_delivered,
    }
}

/// The two-rack topology as two sharded domains joined rack-to-rack by one
/// cross link, with a trace sink attached. Returns the engine, its sink and
/// each rack's hosts.
fn build_sharded(case: &Case) -> (ShardedSim, Arc<Trace>, Vec<Vec<NodeId>>) {
    let mut schedules = case.schedules().into_iter();
    let mut sharded = ShardedSim::new();
    let mut switches = Vec::new();
    let mut rack_hosts = Vec::new();
    for r in 0..2 {
        let d = sharded.add_domain();
        let (sw, nodes) = build_rack(sharded.domain_mut(d), case, r, &mut schedules);
        switches.push(sw);
        rack_hosts.push(nodes);
    }
    let ((_, p0), (_, p1)) =
        sharded.connect_cross((0, switches[0]), (1, switches[1]), &case.cross_spec());
    for (r, &port) in [p0, p1].iter().enumerate() {
        let sw = switches[r];
        sharded
            .domain_mut(r)
            .device_mut::<Switch>(sw)
            .routes_mut()
            .set_default(port);
    }
    let trace = Arc::new(Trace::new());
    sharded.set_trace(Arc::clone(&trace));
    (sharded, trace, rack_hosts)
}

/// The outcome of a (finished or paused) sharded run plus everything it
/// exported, rendered (for byte-identity assertions).
fn sharded_exports(
    sharded: &ShardedSim,
    trace: &Trace,
    rack_hosts: &[Vec<NodeId>],
) -> (Outcome, String, String) {
    let got = (0..2).flat_map(|r| {
        rack_hosts[r].iter().map(move |&n| {
            let host = sharded.domain(r).device::<Host>(n);
            host.app::<ScriptedHost>().got.clone()
        })
    });
    (
        outcome(&sharded.stats(), got),
        sharded.metrics_json().render(),
        trace.to_jsonl(),
    )
}

/// Runs the two-domain topology to completion with the given thread count.
fn run_sharded(case: &Case, threads: usize) -> (Outcome, String, String) {
    let (mut sharded, trace, rack_hosts) = build_sharded(case);
    sharded.run(threads);
    sharded_exports(&sharded, &trace, &rack_hosts)
}

/// Drives the two-domain topology deadline by deadline, then to completion.
fn run_stepped(case: &Case, deadlines: &[u64], threads: usize) -> (Outcome, String, String) {
    let (mut sharded, trace, rack_hosts) = build_sharded(case);
    let lookahead = sharded.lookahead().expect("the case has a cut").as_nanos();
    for &deadline in deadlines {
        let now = sharded.run_until(SimTime::from_nanos(deadline), threads);
        assert!(
            now.as_nanos() < deadline + lookahead,
            "ran past the epoch that straddles the deadline"
        );
    }
    sharded.run(threads);
    assert!(sharded.is_idle());
    sharded_exports(&sharded, &trace, &rack_hosts)
}

/// The same topology in one simulator, with the inter-switch link as a
/// plain local link. Same construction order, same port layout. Returns
/// each rack's hosts.
fn build_single(sim: &mut Simulator, case: &Case) -> Vec<Vec<NodeId>> {
    let mut schedules = case.schedules().into_iter();
    let (sw0, hosts0) = build_rack(sim, case, 0, &mut schedules);
    let (sw1, hosts1) = build_rack(sim, case, 1, &mut schedules);
    let (_, sw0_up, sw1_up) = sim.connect(sw0, sw1, &case.cross_spec());
    sim.device_mut::<Switch>(sw0)
        .routes_mut()
        .set_default(sw0_up);
    sim.device_mut::<Switch>(sw1)
        .routes_mut()
        .set_default(sw1_up);
    vec![hosts0, hosts1]
}

/// Attaches fresh trace and telemetry sinks through `attach` and returns
/// them.
fn sinks(attach: impl FnOnce(Arc<Trace>, Arc<Timeseries>)) -> (Arc<Trace>, Arc<Timeseries>) {
    let (trace, ts) = (Arc::new(Trace::new()), Arc::new(Timeseries::new(1_000)));
    attach(Arc::clone(&trace), Arc::clone(&ts));
    (trace, ts)
}

fn jsonl(ts: &Timeseries) -> String {
    let mut out = Vec::new();
    ts.to_jsonl(&mut out).expect("jsonl to memory");
    String::from_utf8(out).expect("jsonl is utf-8")
}

/// Runs the one-simulator topology in a bare `Simulator`.
fn run_single(case: &Case) -> (Outcome, [String; 3]) {
    let mut sim = Simulator::new();
    let rack_hosts = build_single(&mut sim, case);
    let (trace, ts) = sinks(|trace, ts| {
        sim.set_trace(trace);
        sim.set_timeseries(ts);
    });
    sim.run_until_idle();
    let got = rack_hosts.iter().flatten();
    let got = got.map(|&n| sim.device::<Host>(n).app::<ScriptedHost>().got.clone());
    (
        outcome(sim.stats(), got),
        [sim.metrics_json().render(), trace.to_jsonl(), jsonl(&ts)],
    )
}

/// Runs the one-simulator topology as the one-domain partition of a
/// `ShardedSim`, paused at every deadline.
fn run_one_domain_stepped(case: &Case, deadlines: &[u64]) -> [String; 3] {
    let mut sharded = ShardedSim::new();
    let d = sharded.add_domain();
    build_single(sharded.domain_mut(d), case);
    let (trace, ts) = sinks(|trace, ts| {
        sharded.set_trace(trace);
        sharded.set_timeseries(ts);
    });
    for &deadline in deadlines {
        sharded.run_until(SimTime::from_nanos(deadline), 1);
    }
    sharded.run(2);
    [
        sharded.metrics_json().render(),
        trace.to_jsonl(),
        jsonl(&ts),
    ]
}

/// A random increasing deadline list for `case`, salted with the instants
/// a pause is most likely to get wrong: either side of the first epoch's
/// horizon (`t_min = 0`, `L` = the cross propagation) and of every
/// cross-domain arrival of the unpaused run.
fn deadlines(case: &Case, raw: &[u64], unpaused_trace: &str) -> Vec<u64> {
    let mut out: Vec<u64> = raw.iter().map(|r| r % 2_200_000).collect();
    let l = case.cross_propagation_ns;
    out.extend([l - 1, l]);
    // The cross half-link is the first link after each switch's host links.
    let cross_links = [case.hosts[0] as u64, 1_000_000 + case.hosts[1] as u64];
    for line in unpaused_trace.lines() {
        let ev = JsonValue::parse(line).expect("trace line parses");
        let field = |name: &str| ev.get(name).and_then(JsonValue::as_u64);
        if ev.get("kind").and_then(JsonValue::as_str) == Some("pkt.tx")
            && cross_links.contains(&field("link").expect("tx names its link"))
        {
            let arrive = field("arrive_ns").expect("tx names its arrival");
            out.extend([arrive - 1, arrive]);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded runs are invariant in the thread count: arrival records,
    /// packet counters, the full rendered metrics registry and the merged
    /// trace are identical whether one thread or several execute the
    /// domains.
    #[test]
    fn sharded_engine_is_thread_count_invariant(
        hosts_a in 1usize..4,
        hosts_b in 1usize..4,
        cross_ns in 100u64..5_000,
        raw in prop::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let case = mk_case(hosts_a, hosts_b, cross_ns, &raw);
        let one = run_sharded(&case, 1);
        prop_assert_eq!(&one, &run_sharded(&case, 2));
        prop_assert_eq!(&one, &run_sharded(&case, 3));
    }

    /// Sharding is an execution strategy, not a model change: every host
    /// sees the same packets at the same simulated instants as in one
    /// classic single-queue simulation of the same network, and the
    /// headline counters agree.
    #[test]
    fn sharded_engine_matches_single_engine(
        hosts_a in 1usize..4,
        hosts_b in 1usize..4,
        cross_ns in 100u64..5_000,
        raw in prop::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let case = mk_case(hosts_a, hosts_b, cross_ns, &raw);
        let (sharded, _, _) = run_sharded(&case, 2);
        let (single, _) = run_single(&case);
        prop_assert_eq!(sharded.sorted(), single.sorted());
    }

    /// A pause is invisible: driving a cut partition through an arbitrary
    /// increasing deadline list is byte-identical — arrivals, counters,
    /// metrics (epoch accounting included) and merged trace — to one
    /// unpaused run, at any thread count.
    #[test]
    fn stepped_drive_is_byte_identical_to_the_unpaused_run(
        hosts_a in 1usize..4,
        hosts_b in 1usize..4,
        cross_ns in 100u64..5_000,
        raw in prop::collection::vec(0u64..u64::MAX, 0..32),
        raw_deadlines in prop::collection::vec(0u64..u64::MAX, 0..12),
    ) {
        let case = mk_case(hosts_a, hosts_b, cross_ns, &raw);
        for threads in [1, 2] {
            let unpaused = run_sharded(&case, threads);
            let deadlines = deadlines(&case, &raw_deadlines, &unpaused.2);
            prop_assert_eq!(run_stepped(&case, &deadlines, threads), unpaused);
        }
    }

    /// One domain is the degenerate partition: however it is paused, its
    /// metrics, trace and telemetry are byte-for-byte those of the bare
    /// simulator run to idle.
    #[test]
    fn one_domain_partition_is_the_bare_simulator(
        hosts_a in 1usize..4,
        hosts_b in 1usize..4,
        cross_ns in 100u64..5_000,
        raw in prop::collection::vec(0u64..u64::MAX, 0..32),
        raw_deadlines in prop::collection::vec(0u64..2_200_000, 0..12),
    ) {
        let case = mk_case(hosts_a, hosts_b, cross_ns, &raw);
        let mut deadlines = raw_deadlines;
        deadlines.sort_unstable();
        let (_, bare) = run_single(&case);
        prop_assert_eq!(run_one_domain_stepped(&case, &deadlines), bare);
    }
}

/// A cross-domain delivery scheduled exactly on an epoch's lookahead
/// horizon must be deferred to the next epoch and still delivered exactly
/// once at the right instant — not dropped by the `>= horizon` cut and not
/// processed early.
///
/// Construction: the second cross link (C↔D, 1 ns propagation) pins the
/// lookahead at L = 1 ns. A's empty UDP packet (84 wire bytes = 672 bits)
/// serializes in exactly 1 ns at 672 Gb/s, so its cross delivery at B is
/// scheduled for t = 0 + 1 + 9 = 10 ns. D's timer at t = 9 ns makes one
/// epoch open with `t_min = 9`, whose horizon `t_min + L = 10 ns` falls
/// exactly on that pending delivery.
#[test]
fn packet_on_the_lookahead_horizon_is_delivered() {
    for threads in [1, 2] {
        let mut sharded = ShardedSim::new();
        let d0 = sharded.add_domain();
        let d1 = sharded.add_domain();
        let a_ip = host_ip(0, 0);
        let b_ip = host_ip(1, 0);
        let c_ip = host_ip(0, 1);
        let d_ip = host_ip(1, 1);
        let a = sharded.domain_mut(d0).add_node(
            Box::new(Host::new(
                a_ip,
                Box::new(ScriptedHost::new(vec![(0, b_ip, 0)])),
            )),
            NodeOpts::new("a"),
        );
        let b = sharded.domain_mut(d1).add_node(
            Box::new(Host::new(b_ip, Box::new(ScriptedHost::new(vec![])))),
            NodeOpts::new("b"),
        );
        let c = sharded.domain_mut(d0).add_node(
            Box::new(Host::new(c_ip, Box::new(ScriptedHost::new(vec![])))),
            NodeOpts::new("c"),
        );
        let d = sharded.domain_mut(d1).add_node(
            Box::new(Host::new(
                d_ip,
                Box::new(ScriptedHost::new(vec![(9, c_ip, 0)])),
            )),
            NodeOpts::new("d"),
        );
        // Sending link: 9 ns propagation at 672 Gb/s (1 ns serialization).
        sharded.connect_cross(
            (d0, a),
            (d1, b),
            &LinkSpec::new(672_000_000_000, SimDuration::from_nanos(9)),
        );
        // Lookahead-setting link: 1 ns propagation.
        sharded.connect_cross(
            (d0, c),
            (d1, d),
            &LinkSpec::new(10_000_000_000, SimDuration::from_nanos(1)),
        );
        assert_eq!(
            sharded.lookahead(),
            Some(SimDuration::from_nanos(1)),
            "lookahead is the minimum cross-link latency"
        );
        sharded.run(threads);
        let got_b = &sharded
            .domain(d1)
            .device::<Host>(b)
            .app::<ScriptedHost>()
            .got;
        assert_eq!(
            got_b,
            &vec![(10, a_ip.as_u32(), 0)],
            "threads={threads}: horizon-exact delivery must arrive once, at t=10 ns"
        );
        // D's t=9 send (84 wire bytes at 10 Gb/s = 68 ns serialization)
        // crosses the other way and lands at 9 + 68 + 1 = 78 ns.
        let got_c = &sharded
            .domain(d0)
            .device::<Host>(c)
            .app::<ScriptedHost>()
            .got;
        assert_eq!(
            got_c,
            &vec![(78, d_ip.as_u32(), 0)],
            "threads={threads}: reverse crossing must arrive once, at t=78 ns"
        );
    }
}

/// Records into the trace on a script of `(at_ns, step)` timers.
struct TraceScript(Vec<(u64, Step)>);

#[derive(Clone, Copy)]
enum Step {
    /// A point event stamped now.
    Mark,
    /// Ends — and so records — a span that began at `begin_ns`.
    EndSpan { begin_ns: u64 },
}

impl HostApp for TraceScript {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for (i, &(at, _)) in self.0.iter().enumerate() {
            ctx.set_timer(SimDuration::from_nanos(at), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        let now = ctx.now().as_nanos();
        let trace = ctx.trace().expect("traced run");
        match self.0[token as usize].1 {
            Step::Mark => trace.record(TraceEvent::new(now, "mark")),
            Step::EndSpan { begin_ns } => Span::begin(trace.alloc_span_id(), "work", begin_ns)
                .end(now)
                .emit(trace),
        }
    }
    fn on_packet(&mut self, _: &mut HostCtx<'_, '_>, _: Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A span is stamped with its *begin* but recorded at its *end*, so a
/// domain's staged buffer is not sorted by timestamp. Domain 1 begins a
/// span at 20 ns and ends it three epochs later (L = 100 ns) while domain 0
/// marks every epoch in between: the merged stream is epoch-major,
/// domain-minor, record order — and the same stream wherever the run is
/// paused. (A merge by timestamp put the span second unpaused and third
/// when paused at 200 ns.)
#[test]
fn span_ending_in_a_later_epoch_is_ordered_the_same_paused_or_not() {
    let run = |deadlines: &[u64], threads: usize| {
        let mut sharded = ShardedSim::new();
        let scripts = [
            vec![10, 150, 310, 450]
                .into_iter()
                .map(|at| (at, Step::Mark))
                .collect(),
            vec![(400, Step::EndSpan { begin_ns: 20 }), (420, Step::Mark)],
        ];
        let hosts: Vec<(usize, NodeId)> = (scripts.into_iter().enumerate())
            .map(|(r, script)| {
                let d = sharded.add_domain();
                let host = Host::new(host_ip(r, 0), Box::new(TraceScript(script)));
                let node = (sharded.domain_mut(d)).add_node(Box::new(host), NodeOpts::new("h"));
                (d, node)
            })
            .collect();
        let spec = LinkSpec::new(10_000_000_000, SimDuration::from_nanos(100));
        sharded.connect_cross(hosts[0], hosts[1], &spec);
        let trace = Arc::new(Trace::new());
        sharded.set_trace(Arc::clone(&trace));
        for &deadline in deadlines {
            sharded.run_until(SimTime::from_nanos(deadline), threads);
        }
        sharded.run(threads);
        let t_ns = |ev: &TraceEvent| JsonValue::parse(ev.line()).ok()?.get("t_ns")?.as_u64();
        let stamps: Vec<u64> = trace.snapshot().iter().filter_map(t_ns).collect();
        (stamps, trace.to_jsonl())
    };
    let unpaused = run(&[], 1);
    // Epochs open at 10, 150, 310 and 420 ns: the third holds domain 0's
    // mark and then the span that began at 20 ns, the fourth domain 0's
    // mark at 450 ns before domain 1's at 420 ns.
    assert_eq!(unpaused.0, [10, 150, 310, 20, 450, 420]);
    for threads in [1, 2] {
        for deadlines in [&[200][..], &[20, 399], &[400], &[9, 10, 109, 110, 310]] {
            assert_eq!(run(deadlines, threads), unpaused, "paused at {deadlines:?}");
        }
    }
}

/// A sender streaming 400 sequence-numbered packets (the payload length is
/// the sequence number) to a sink over one 10 %-lossy link — local link 0
/// of whatever simulator it is built in. Returns the sink.
fn lossy_pair(sim: &mut Simulator, r: usize) -> NodeId {
    let loss = LossModel::Random {
        probability: 0.1,
        seed: 7,
    };
    let sends = (0..400).map(|i| (i as u64 * 2_000, host_ip(r, 1), i));
    let tx = sim.add_node(
        Box::new(Host::new(
            host_ip(r, 0),
            Box::new(ScriptedHost::new(sends.collect())),
        )),
        NodeOpts::new("tx"),
    );
    let rx = sim.add_node(
        Box::new(Host::new(
            host_ip(r, 1),
            Box::new(ScriptedHost::new(vec![])),
        )),
        NodeOpts::new("rx"),
    );
    sim.connect(tx, rx, &LinkSpec::ten_gbe().with_loss(loss));
    rx
}

/// The sequence numbers that survived the lossy link into sink `rx`.
fn survivors(sim: &Simulator, rx: NodeId) -> Vec<usize> {
    let got = &sim.device::<Host>(rx).app::<ScriptedHost>().got;
    got.iter().map(|&(_, _, seq)| seq).collect()
}

/// Links built from one shared lossy spec must not drop the same sequence
/// positions — across domains too. Every domain numbers its links from 0,
/// so the stream is keyed by the run-unique (domain-qualified) identity;
/// domain 0 keeps the stream a bare simulator has always drawn.
#[test]
fn same_numbered_links_of_two_domains_draw_independent_loss_streams() {
    let mut bare = Simulator::new();
    let bare_rx = lossy_pair(&mut bare, 0);
    bare.run_until_idle();

    let mut sharded = ShardedSim::new();
    let sinks: Vec<NodeId> = (0..2)
        .map(|r| {
            let d = sharded.add_domain();
            lossy_pair(sharded.domain_mut(d), r)
        })
        .collect();
    sharded.run(2);
    let survived = |d: usize| survivors(sharded.domain(d), sinks[d]);
    assert_eq!(survived(0), survivors(&bare, bare_rx), "domain 0 moved");
    assert!(
        survived(0).len() < 400 && survived(1).len() < 400,
        "no loss"
    );
    assert_ne!(
        survived(0),
        survived(1),
        "both domains lost the same positions"
    );
}
