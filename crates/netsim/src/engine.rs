//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns a set of nodes (anything implementing [`Device`])
//! wired together by point-to-point links. Devices react to packet arrivals
//! and timers through a [`Context`] that lets them transmit packets and
//! schedule further timers. Event ordering is fully deterministic: ties in
//! time are broken by scheduling order.

use std::any::Any;
use std::sync::Arc;

use iswitch_obs::{JsonValue, Registry, Timeseries, Trace, TraceEvent};

use crate::fault::FaultAction;
use crate::ids::{LinkId, NodeId, PortId, TimerId};
use crate::int_map::IntSet;
use crate::link::{Link, LinkDir, LinkEnd, LinkSpec, LossModel};
use crate::obs::EngineObs;
use crate::packet::Packet;
use crate::shard::{CrossDst, CrossMsg};
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// A simulated node: a host, a switch, or anything else that terminates
/// links.
///
/// Implementations must provide [`Device::as_any_mut`] (and `as_any`) so the
/// simulator can hand back concrete types after a run; the body is always
/// `self`.
///
/// Devices are `Send` so a domain (and every device in it) can run on a
/// worker thread under [`crate::ShardedSim`]; each domain is still
/// single-threaded internally, so no device needs `Sync` — and every
/// metric handle a device resolves through [`Context::metrics`] has one
/// writer at a time, which is all [`iswitch_obs::metrics`] recording
/// supports. A device must not hand such a handle to a thread of its own.
pub trait Device: Send + 'static {
    /// Called once at simulation start (time zero), in node-creation order.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a packet arrives on `port`.
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}

    /// Upcast for concrete-type recovery via [`Simulator::device`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for concrete-type recovery via [`Simulator::device_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Per-node configuration supplied at [`Simulator::add_node`] time.
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// Human-readable label used in panics and stats dumps.
    pub label: String,
    /// Per-packet transmit-side processing overhead (host NIC/stack cost);
    /// charged serially as part of the packet's occupancy of the link.
    pub tx_overhead: SimDuration,
    /// Per-packet receive-side latency (host stack, or switch forwarding
    /// latency) added between wire arrival and the `on_packet` callback.
    pub rx_overhead: SimDuration,
    /// This node's own egress never tail-drops: a bounded
    /// [`crate::EgressQueue`] on an attached link still ECN-marks above its
    /// threshold, but over-capacity packets queue instead of dropping.
    /// Models a *host* NIC — the transmit ring backpressures the
    /// application (which owns the data and simply waits), whereas a
    /// switch port must discard what its buffer cannot hold.
    pub backpressured: bool,
}

impl NodeOpts {
    /// Options with a label and zero overheads.
    pub fn new(label: impl Into<String>) -> Self {
        NodeOpts {
            label: label.into(),
            tx_overhead: SimDuration::ZERO,
            rx_overhead: SimDuration::ZERO,
            backpressured: false,
        }
    }

    /// Sets the transmit-side per-packet overhead.
    pub fn with_tx_overhead(mut self, d: SimDuration) -> Self {
        self.tx_overhead = d;
        self
    }

    /// Sets the receive-side per-packet overhead.
    pub fn with_rx_overhead(mut self, d: SimDuration) -> Self {
        self.rx_overhead = d;
        self
    }

    /// Marks this node's egress as backpressured (host semantics): bounded
    /// queues on attached links ECN-mark but never tail-drop its sends.
    pub fn with_backpressure(mut self) -> Self {
        self.backpressured = true;
        self
    }
}

enum EventKind {
    Start {
        node: NodeId,
    },
    Deliver {
        node: NodeId,
        port: PortId,
        pkt: Packet,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        token: u64,
    },
    Fault {
        action: FaultAction,
    },
    /// A packet arriving from another domain (see [`crate::ShardedSim`]):
    /// a `Deliver` whose carrying half-link's in-flight accounting lives in
    /// the *sending* domain.
    CrossDeliver {
        node: NodeId,
        port: PortId,
        pkt: Packet,
    },
}

/// Why `SimCore::transmit` gave a packet up.
enum DropCause {
    /// The link is administratively down (fault injection).
    LinkDown,
    /// A bounded egress queue holding `queued_bytes` had no room.
    QueueFull { queued_bytes: u64 },
    /// The link's loss model rolled a drop.
    Loss,
}

/// Engine internals shared between the run loop and device callbacks.
pub(crate) struct SimCore {
    now: SimTime,
    queue: TimingWheel<EventKind>,
    next_seq: u64,
    next_timer: u64,
    cancelled: IntSet<u64>,
    links: Vec<Link>,
    /// Remote destination for each link, indexed by link id. `Some` marks a
    /// cross-domain half-link: packets transmitted on it are parked in
    /// `outbox` instead of being scheduled locally.
    cross_dst: Vec<Option<CrossDst>>,
    /// Packets headed to other domains, drained at each epoch barrier in
    /// generation order (which is the per-domain component of the
    /// deterministic merge key).
    outbox: Vec<CrossMsg>,
    node_opts: Vec<NodeOpts>,
    /// Per node: port index -> (link, direction of travel when transmitting
    /// out of it).
    node_ports: Vec<Vec<(LinkId, LinkDir)>>,
    /// Aggregate statistics.
    pub stats: SimStats,
    obs: EngineObs,
    /// Causal trace sink; `None` (the default) keeps the packet hot path
    /// free of any tracing cost.
    trace: Option<Arc<Trace>>,
    /// Counter-track telemetry sink; `None` (the default) skips all
    /// sampling. Like the trace, each execution domain owns a private
    /// instance so the sharded engine stays deterministic.
    timeseries: Option<Arc<Timeseries>>,
    /// Tenant id stamped on every transmitted causal packet; zero (the
    /// default) means single-tenant and stamps nothing.
    tenant: u32,
    /// Next quantized sampling boundary (multiple of the series interval).
    next_sample_ns: u64,
    /// Offset making this simulator's link ids unique across the domains of
    /// a [`crate::ShardedSim`]: `domain * LINK_UID_STRIDE`. Zero for domain
    /// 0 and for a standalone simulator.
    link_uid_base: u64,
}

/// Links one domain may hold before its run-unique link identities would
/// run into the next domain's (decimal, so `1000004` reads "domain 1,
/// link 4").
const LINK_UID_STRIDE: u64 = 1_000_000;

impl SimCore {
    /// The run-unique identity of a link: its local id qualified by the
    /// owning domain. It seeds the link's loss stream, is the `link`
    /// attribute of `pkt.*` trace events and names the link's telemetry
    /// tracks, so none of the three aliases a same-numbered link of
    /// another domain. Domain 0 keeps the bare local id.
    fn link_uid(&self, link: LinkId) -> u64 {
        self.link_uid_base + link.0 as u64
    }

    /// Builds the link `link_id` from `spec`, decorrelating its loss
    /// stream: links built from one shared spec must not drop the same
    /// sequence positions, in this domain or any other.
    fn new_link(&self, link_id: LinkId, spec: &LinkSpec, a: LinkEnd, b: LinkEnd) -> Link {
        assert!(
            (link_id.0 as u64) < LINK_UID_STRIDE,
            "a domain holds at most {LINK_UID_STRIDE} links"
        );
        let mut link = Link::new(spec, a, b);
        if let LossModel::Random { probability, seed } = spec.loss {
            let mixed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.link_uid(link_id) + 1);
            link.set_loss(LossModel::Random {
                probability,
                seed: mixed,
            });
        }
        link
    }

    /// Builds the common prefix of a packet lifecycle trace event — kind,
    /// causal key, endpoints — or `None` when the packet is untagged or
    /// tracing is off. Field order is fixed so exports are byte-stable.
    fn pkt_event(&self, kind: &'static str, pkt: &Packet) -> Option<TraceEvent> {
        let cause = pkt.cause?;
        self.trace.as_ref()?;
        // The key's 32-bit fields are widened here, as they are written.
        let mut ev = TraceEvent::new(self.now.as_nanos(), kind)
            .with_u64("round", cause.round.into())
            .with_u64("seg", cause.segment.into())
            .with_u64("worker", cause.worker.into());
        if cause.tenant != 0 {
            // Emitted only in multi-tenant runs so single-tenant exports
            // stay byte-identical to the pre-tenancy format.
            ev = ev.with_u64("tenant", cause.tenant.into());
        }
        Some(ev.with_str("src", pkt.ip.src).with_str("dst", pkt.ip.dst))
    }

    fn record(&self, event: TraceEvent) {
        if let Some(trace) = self.trace.as_ref() {
            trace.record(event);
        }
    }

    /// Counts and traces a packet `link_id` refused or lost — the one place
    /// a drop is accounted. A packet dropped before it reaches the wire
    /// (`LinkDown`, `QueueFull`) is counted as sent here, because the
    /// transmit path that would have counted it is never reached.
    fn drop_packet(&mut self, link_id: LinkId, dir: LinkDir, pkt: &Packet, cause: DropCause) {
        self.stats.packets_dropped += 1;
        let (reason, queued) = match cause {
            DropCause::LinkDown => {
                self.stats.packets_sent += 1;
                self.stats.packets_dropped_link_down += 1;
                ("link_down", None)
            }
            DropCause::QueueFull { queued_bytes } => {
                self.stats.packets_sent += 1;
                self.stats.packets_dropped_queue += 1;
                ("queue_full", Some(queued_bytes))
            }
            DropCause::Loss => ("loss", None),
        };
        self.obs.links[link_id.index()][dir].drops.inc();
        if let Some(mut ev) = self.pkt_event("pkt.drop", pkt) {
            ev = ev.with_u64("link", self.link_uid(link_id));
            if let Some(queued) = queued {
                ev = ev.with_u64("queued_bytes", queued);
            }
            self.record(ev.with_str("reason", reason));
        }
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at.as_nanos(), seq, kind);
        self.obs.queue_depth.set(self.queue.len() as i64);
    }

    /// Transmits a packet out of `port` of `node`, modelling FIFO
    /// serialization on the attached link plus sender/receiver overheads.
    fn transmit(&mut self, node: NodeId, port: PortId, mut pkt: Packet) {
        if self.tenant != 0 {
            // Tag every causal packet with the owning tenant the moment it
            // touches the fabric — the multi-tenant analog of an overlay
            // tag applied at the ingress port.
            if let Some(cause) = &mut pkt.cause {
                cause.tenant = self.tenant;
            }
        }
        let ports = &self.node_ports[node.index()];
        let Some(&(link_id, dir)) = ports.get(port.index()) else {
            panic!(
                "{} ({}) transmitted on unconnected {port}",
                self.node_opts[node.index()].label,
                node
            );
        };
        let wire = pkt.wire_bytes();
        let tx_over = self.node_opts[node.index()].tx_overhead;
        let link = &mut self.links[link_id.index()];
        if !link.up {
            // Administratively down (fault injection): the packet never
            // reaches the wire — no serialization time, no loss-model state.
            self.drop_packet(link_id, dir, &pkt, DropCause::LinkDown);
            return;
        }
        if let Some(q) = link.queue {
            // Bounded egress: occupancy is the committed backlog in bytes.
            // Both checks run before any link state mutates, so a
            // tail-dropped packet consumes neither serialization time nor a
            // loss-model sequence number. A backpressured transmitter
            // (host semantics) is exempt from the capacity drop — its
            // over-budget packets queue behind the NIC — but still takes
            // the ECN mark, which is what lets a host-side burst signal
            // congestion without losing its own data.
            let queued = link.queued_bytes(dir, self.now);
            if !self.node_opts[node.index()].backpressured
                && queued + wire as u64 > q.capacity_bytes
            {
                let cause = DropCause::QueueFull {
                    queued_bytes: queued,
                };
                self.drop_packet(link_id, dir, &pkt, cause);
                return;
            }
            if queued >= q.ecn_threshold_bytes {
                pkt.mark_ecn_ce();
                self.stats.packets_ecn_marked += 1;
                self.obs.links[link_id.index()][dir].ecn_marks.inc();
            }
        }
        let link = &mut self.links[link_id.index()];
        let ser = SimDuration::serialization(wire, link.bandwidth_bps);
        let start = link.busy_until[dir].max(self.now);
        let depart = start + tx_over + ser;
        link.busy_until[dir] = depart;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire as u64;
        let backlog = depart.saturating_duration_since(self.now);
        if backlog > self.stats.max_link_backlog {
            self.stats.max_link_backlog = backlog;
        }
        let link_obs = &self.obs.links[link_id.index()][dir];
        link_obs.backlog_ns.record(backlog.as_nanos());
        link_obs.tx_packets.inc();
        link_obs.tx_bytes.add(wire as u64);
        let link = &mut self.links[link_id.index()];
        if link.roll_drop() {
            self.drop_packet(link_id, dir, &pkt, DropCause::Loss);
            return;
        }
        // A cross-domain half-link knows its remote end only by the rx
        // overhead captured at wiring time; a local link reads its peer.
        let link = &self.links[link_id.index()];
        let remote = self.cross_dst[link_id.index()].as_ref();
        let dest = link.dest(dir);
        let rx_overhead = remote.map_or_else(
            || self.node_opts[dest.node.index()].rx_overhead,
            |r| r.rx_overhead,
        );
        let arrive = depart + link.propagation + link.extra_delay + rx_overhead;
        if let Some(ev) = self.pkt_event("pkt.tx", &pkt) {
            self.record(
                ev.with_u64("link", self.link_uid(link_id))
                    .with_u64("backlog_ns", backlog.as_nanos())
                    .with_u64("depart_ns", depart.as_nanos())
                    .with_u64("arrive_ns", arrive.as_nanos()),
            );
        }
        match remote {
            // Parked in the outbox for the next epoch barrier. The in-flight
            // gauge is skipped — delivery happens in a domain that has no
            // handle on this link's metrics.
            Some(remote) => self.outbox.push(CrossMsg {
                arrive,
                dst_domain: remote.domain,
                dst_node: remote.node,
                dst_port: remote.port,
                pkt,
            }),
            None => {
                self.obs.links[link_id.index()][dir].inflight.inc();
                self.schedule(
                    arrive,
                    EventKind::Deliver {
                        node: dest.node,
                        port: dest.port,
                        pkt,
                    },
                );
            }
        }
    }

    /// Samples every link's telemetry tracks at the latest quantized
    /// boundary not later than `at_ns`, if one is due. Called once per
    /// processed event (before its effects apply), so a sample at boundary
    /// `b` reflects exactly the events with timestamps `<= b` that were
    /// already processed — a definition independent of thread count and
    /// epoch boundaries. Intermediate boundaries inside an event-free gap
    /// are skipped: nothing discrete changes there, and the egress-queue
    /// drain between samples is linear (Perfetto interpolates the ramp).
    /// Schedules nothing, so enabling telemetry never perturbs event or
    /// packet counts.
    fn sample_until(&mut self, at_ns: u64) {
        let Some(ts) = self.timeseries.as_ref() else {
            return;
        };
        let interval = ts.interval_ns();
        let boundary = at_ns - at_ns % interval;
        if boundary < self.next_sample_ns {
            return;
        }
        self.next_sample_ns = boundary + interval;
        let t = SimTime::from_nanos(boundary);
        for (i, link) in self.links.iter().enumerate() {
            for dir in 0..2 {
                let obs = &self.obs.links[i][dir];
                let Some(tracks) = &obs.tracks else {
                    continue;
                };
                let queued = link.queued_bytes(dir, t) as i64;
                ts.record(&tracks.queue_bytes, boundary, queued);
                ts.record(&tracks.ecn_marks, boundary, obs.ecn_marks.get() as i64);
                ts.record(&tracks.drops, boundary, obs.drops.get() as i64);
            }
        }
    }
}

/// Capabilities handed to a [`Device`] during a callback.
pub struct Context<'a> {
    core: &'a mut SimCore,
    node: NodeId,
}

impl<'a> Context<'a> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this callback is running on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `pkt` out of `port`. Serialization and queueing are modelled by
    /// the link; delivery happens via the peer's `on_packet`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not connected.
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.core.transmit(self.node, port, pkt);
    }

    /// Schedules `on_timer(token)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        let at = self.core.now + delay;
        self.core.schedule(
            at,
            EventKind::Timer {
                node: self.node,
                id,
                token,
            },
        );
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id.0);
    }

    /// Read access to the running statistics.
    pub fn stats(&self) -> &SimStats {
        &self.core.stats
    }

    /// The simulation-wide metrics registry. Devices register their own
    /// counters/histograms here so one export covers the whole run.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.core.obs.registry()
    }

    /// The causal trace sink, if tracing was enabled via
    /// [`Simulator::set_trace`]. Devices use this to emit their own spans
    /// and events into the same timeline as the engine's packet lifecycle
    /// events.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.core.trace.as_ref()
    }

    /// The counter-track telemetry sink, if one was installed via
    /// [`Simulator::set_timeseries`]. Devices record their own tracks
    /// (transport rates, codec counters) into the same deterministic
    /// export as the engine's link samples.
    pub fn timeseries(&self) -> Option<&Arc<Timeseries>> {
        self.core.timeseries.as_ref()
    }

    /// Number of ports connected on this node.
    pub fn port_count(&self) -> usize {
        self.core.node_ports[self.node.index()].len()
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::{Context, Device, NodeOpts, PortId, Packet, Simulator};
///
/// struct Sink(usize);
/// impl Device for Sink {
///     fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {
///         self.0 += 1;
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulator::new();
/// let n = sim.add_node(Box::new(Sink(0)), NodeOpts::new("sink"));
/// sim.run_until_idle();
/// assert_eq!(sim.device::<Sink>(n).0, 0);
/// ```
pub struct Simulator {
    core: SimCore,
    /// `None` only while the node's own callback runs (see `dispatch`).
    nodes: Vec<Option<Box<dyn Device>>>,
    started: bool,
    event_limit: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            core: SimCore {
                now: SimTime::ZERO,
                queue: TimingWheel::new(),
                next_seq: 0,
                next_timer: 0,
                cancelled: IntSet::default(),
                links: Vec::new(),
                cross_dst: Vec::new(),
                outbox: Vec::new(),
                node_opts: Vec::new(),
                node_ports: Vec::new(),
                stats: SimStats::default(),
                obs: EngineObs::new(),
                trace: None,
                timeseries: None,
                next_sample_ns: 0,
                tenant: 0,
                link_uid_base: 0,
            },
            nodes: Vec::new(),
            started: false,
            event_limit: u64::MAX,
        }
    }

    /// An empty simulator that is domain `domain` of a [`crate::ShardedSim`]:
    /// its link identities are qualified by the domain (see
    /// `SimCore::link_uid`).
    pub(crate) fn in_domain(domain: usize) -> Self {
        let mut sim = Simulator::new();
        sim.core.link_uid_base = domain as u64 * LINK_UID_STRIDE;
        sim
    }

    /// Caps the total number of events processed; exceeding it panics.
    /// Useful as a runaway-loop backstop in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Declares which tenant (job) this simulation instance belongs to in
    /// a multi-tenant run. Every causal packet transmitted afterwards
    /// carries the id in its [`CausalKey`](crate::CausalKey), and packet
    /// lifecycle trace events gain a `tenant` attribute — the hook that
    /// lets traces, telemetry, and egress accounting attribute bytes per
    /// tenant. Zero (the default) is the single-tenant mode and changes
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` does not fit the key's 32-bit tenant field.
    pub fn set_tenant(&mut self, tenant: u64) {
        self.core.tenant = u32::try_from(tenant)
            .unwrap_or_else(|_| panic!("tenant id {tenant} does not fit the causal key's 32 bits"));
    }

    /// Adds a node and returns its id. `on_start` runs at time zero when the
    /// simulation first runs.
    pub fn add_node(&mut self, device: Box<dyn Device>, opts: NodeOpts) -> NodeId {
        assert!(
            !self.started,
            "nodes must be added before the simulation runs"
        );
        let id = NodeId(self.nodes.len());
        self.core.node_opts.push(opts);
        self.core.node_ports.push(Vec::new());
        self.nodes.push(Some(device));
        id
    }

    /// Connects the next free port of `a` to the next free port of `b` with
    /// a link described by `spec`. The spec is only read — one spec can wire
    /// any number of links. Returns `(link, port on a, port on b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: &LinkSpec) -> (LinkId, PortId, PortId) {
        assert!(
            !self.started,
            "links must be added before the simulation runs"
        );
        assert_ne!(a, b, "self-links are not supported");
        let link_id = LinkId(self.core.links.len());
        let pa = PortId(self.port_count_of(a));
        let pb = PortId(self.port_count_of(b));
        let link = self.core.new_link(
            link_id,
            spec,
            LinkEnd { node: a, port: pa },
            LinkEnd { node: b, port: pb },
        );
        self.core.links.push(link);
        self.core.cross_dst.push(None);
        let core = &mut self.core;
        core.obs.add_link(
            link_id.index(),
            core.link_uid(link_id),
            &core.node_opts[a.index()].label,
            &core.node_opts[b.index()].label,
        );
        self.core.node_ports[a.index()].push((link_id, 0));
        self.core.node_ports[b.index()].push((link_id, 1));
        (link_id, pa, pb)
    }

    /// Connects the next free port of `node` to a node in *another* domain
    /// via a cross-domain half-link: this simulator owns the outbound
    /// direction (FIFO serialization, loss state, metrics); the reverse
    /// direction is a separate half-link owned by the peer domain. Packets
    /// transmitted here are parked in the outbox for the epoch barrier
    /// instead of being scheduled locally. Called by
    /// [`crate::ShardedSim::connect_cross`], which pairs up both halves.
    pub(crate) fn connect_remote(
        &mut self,
        node: NodeId,
        spec: &LinkSpec,
        remote_label: &str,
        dst: CrossDst,
    ) -> (LinkId, PortId) {
        assert!(
            !self.started,
            "links must be added before the simulation runs"
        );
        let link_id = LinkId(self.core.links.len());
        let port = PortId(self.port_count_of(node));
        let end = LinkEnd { node, port };
        // Both ends carry the local attachment: the `b` end is a
        // placeholder whose node is never delivered to (transmit parks the
        // packet in the outbox instead). Each direction of a cross link
        // gets its own loss stream — which a shared two-ended link could
        // not provide across domains anyway.
        let link = self.core.new_link(link_id, spec, end, end);
        self.core.links.push(link);
        self.core.cross_dst.push(Some(dst));
        let core = &mut self.core;
        core.obs.add_link_oneway(
            link_id.index(),
            core.link_uid(link_id),
            &core.node_opts[node.index()].label,
            remote_label,
        );
        self.core.node_ports[node.index()].push((link_id, 0));
        (link_id, port)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.core.stats
    }

    /// The simulation-wide metrics registry (engine + device metrics).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.core.obs.registry()
    }

    /// Deterministic JSON snapshot of every metric plus an engine summary
    /// (simulated time, event counts, event-loop throughput in events per
    /// simulated second).
    pub fn metrics_json(&self) -> JsonValue {
        let mut engine = JsonValue::empty_object();
        engine.insert("sim_time_ns", JsonValue::UInt(self.core.now.as_nanos()));
        engine.insert(
            "events_processed",
            JsonValue::UInt(self.core.stats.events_processed),
        );
        let secs = self.core.now.as_secs_f64();
        let throughput = if secs > 0.0 {
            self.core.stats.events_processed as f64 / secs
        } else {
            0.0
        };
        engine.insert("events_per_sim_sec", JsonValue::Float(throughput));
        engine.insert("links", JsonValue::UInt(self.core.links.len() as u64));
        engine.insert("nodes", JsonValue::UInt(self.nodes.len() as u64));
        let mut root = JsonValue::empty_object();
        root.insert("engine", engine);
        root.insert("metrics", self.core.obs.registry().to_json());
        root
    }

    /// Installs a causal trace sink. From then on the engine stamps per-hop
    /// lifecycle events (`pkt.tx`, `pkt.rx`, `pkt.drop`) for every packet
    /// carrying a [`crate::packet::CausalKey`], and devices can reach the
    /// same sink through [`Context::trace`]. Off by default: untraced runs
    /// skip all event assembly.
    pub fn set_trace(&mut self, trace: Arc<Trace>) {
        self.core.trace = Some(trace);
    }

    /// Installs a counter-track telemetry sink. From then on the engine
    /// samples every link's egress-queue depth and cumulative ECN/drop
    /// counters on the series' interval (quantized simulated time), and
    /// devices can record their own tracks through
    /// [`Context::timeseries`]. Off by default: unsampled runs skip all
    /// telemetry work. Sampling schedules no events, so event and packet
    /// counts are identical with and without a sink.
    pub fn set_timeseries(&mut self, ts: Arc<Timeseries>) {
        self.core.timeseries = Some(ts);
    }

    /// The installed telemetry sink, if any.
    pub fn timeseries(&self) -> Option<&Arc<Timeseries>> {
        self.core.timeseries.as_ref()
    }

    /// Borrows a node's device as concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a `T`.
    pub fn device<T: Device>(&self, node: NodeId) -> &T {
        self.nodes[node.index()]
            .as_ref()
            .expect("device is present outside of dispatch")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("{node} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutably borrows a node's device as concrete type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a `T`.
    pub fn device_mut<T: Device>(&mut self, node: NodeId) -> &mut T {
        self.nodes[node.index()]
            .as_mut()
            .expect("device is present outside of dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("{node} is not a {}", std::any::type_name::<T>()))
    }

    /// The label a node was created with.
    pub fn node_label(&self, node: NodeId) -> &str {
        &self.core.node_opts[node.index()].label
    }

    /// Schedules a single fault action at absolute time `at`.
    ///
    /// Faults are ordinary events: at equal times they interleave with
    /// packet deliveries and timers in scheduling order, keeping runs
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the action targets a link or node that does not exist, or
    /// if `at` is in the past.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        if let Some(link) = action.link() {
            assert!(
                link.index() < self.core.links.len(),
                "fault targets unknown {link:?} ({} links exist)",
                self.core.links.len()
            );
        }
        if let Some(node) = action.node() {
            assert!(
                node.index() < self.nodes.len(),
                "fault targets unknown {node} ({} nodes exist)",
                self.nodes.len()
            );
        }
        assert!(at >= self.core.now, "cannot schedule a fault in the past");
        self.core.schedule(at, EventKind::Fault { action });
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.core
                    .schedule(SimTime::ZERO, EventKind::Start { node: NodeId(i) });
            }
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, _seq, kind)) = self.core.queue.pop() else {
            return false;
        };
        if self.core.timeseries.is_some() {
            self.core.sample_until(at);
        }
        self.core.now = SimTime::from_nanos(at);
        self.core.stats.events_processed += 1;
        assert!(
            self.core.stats.events_processed <= self.event_limit,
            "event limit {} exceeded — runaway simulation?",
            self.event_limit
        );
        self.core.obs.queue_depth.set(self.core.queue.len() as i64);
        match kind {
            EventKind::Start { node } => {
                self.core.obs.ev_start.inc();
                self.dispatch(node, |dev, ctx| dev.on_start(ctx));
            }
            EventKind::Deliver { node, port, pkt } => self.deliver(node, port, pkt, true),
            EventKind::CrossDeliver { node, port, pkt } => self.deliver(node, port, pkt, false),
            EventKind::Timer { node, id, token } => {
                // Fast path: most runs never cancel a timer, so skip the
                // hash lookup entirely while the set is empty.
                if !self.core.cancelled.is_empty() && self.core.cancelled.remove(&id.0) {
                    self.core.obs.ev_timer_cancelled.inc();
                } else {
                    self.core.obs.ev_timer.inc();
                    self.dispatch(node, |dev, ctx| dev.on_timer(ctx, token));
                }
            }
            EventKind::Fault { action } => {
                self.core.obs.ev_fault.inc();
                self.core.stats.faults_applied += 1;
                match action {
                    FaultAction::LinkDown { link } => {
                        self.core.links[link.index()].up = false;
                    }
                    FaultAction::LinkUp { link } => {
                        self.core.links[link.index()].up = true;
                    }
                    FaultAction::SetLinkLoss { link, loss } => {
                        self.core.links[link.index()].set_loss(loss);
                    }
                    FaultAction::DelaySpike { link, extra } => {
                        self.core.links[link.index()].extra_delay = extra;
                    }
                    FaultAction::ClearDelaySpike { link } => {
                        self.core.links[link.index()].extra_delay = SimDuration::ZERO;
                    }
                    FaultAction::InjectTimer { node, token } => {
                        self.dispatch(node, |dev, ctx| dev.on_timer(ctx, token));
                    }
                }
            }
        }
        true
    }

    /// Hands `pkt` to `node` on `port`. `owns_gauge` says whether the
    /// carrying link's in-flight gauge lives in this domain. The rx event
    /// names the local link bound to `port` either way — for a crossing,
    /// the reverse half-link of the same logical link.
    fn deliver(&mut self, node: NodeId, port: PortId, pkt: Packet, owns_gauge: bool) {
        self.core.stats.packets_delivered += 1;
        self.core.obs.ev_deliver.inc();
        // The port's stored direction is for *transmitting* out of it; an
        // arriving packet travelled the opposite direction.
        let (link_id, tx_dir) = self.core.node_ports[node.index()][port.index()];
        if owns_gauge {
            self.core.obs.links[link_id.index()][1 - tx_dir]
                .inflight
                .dec();
        }
        if let Some(ev) = self.core.pkt_event("pkt.rx", &pkt) {
            let label = &self.core.node_opts[node.index()].label;
            self.core.record(
                ev.with_u64("link", self.core.link_uid(link_id))
                    .with_str("node", label),
            );
        }
        self.dispatch(node, |dev, ctx| dev.on_packet(ctx, port, pkt));
    }

    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Device, &mut Context<'_>)) {
        let mut device = self.nodes[node.index()]
            .take()
            .expect("device re-entrancy is impossible in a single-threaded engine");
        let mut ctx = Context {
            core: &mut self.core,
            node,
        };
        f(device.as_mut(), &mut ctx);
        self.nodes[node.index()] = Some(device);
    }

    /// Runs until the event queue is empty; returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.core.now
    }

    /// Runs until the clock reaches `deadline` (events at later times stay
    /// queued) or the queue empties. Returns the final time.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_until_before(deadline.as_nanos().saturating_add(1));
        self.core.now
    }

    /// Whether the event queue is empty (scheduling `Start` events first if
    /// the simulation has not begun). A simulation driven in bounded
    /// [`Simulator::run_until`] slices is finished exactly when this turns
    /// true — pending events are queued regardless of their timestamp, so an
    /// empty queue after a bounded run means the run is complete, not merely
    /// paused.
    pub fn is_idle(&mut self) -> bool {
        self.next_event_at().is_none()
    }

    // ---- sharded-execution support (see `crate::ShardedSim`) -------------

    /// Timestamp of the earliest pending event, scheduling `Start` events
    /// first if the simulation has not begun. `None` when idle.
    pub(crate) fn next_event_at(&mut self) -> Option<u64> {
        self.ensure_started();
        self.core.queue.next_at()
    }

    /// Processes every event with timestamp *strictly before* `horizon_ns`.
    /// The strict bound is what makes conservative parallel epochs safe: a
    /// cross-domain packet can arrive exactly *at* the horizon, and it must
    /// then be merged before the event at the horizon is processed.
    pub(crate) fn run_until_before(&mut self, horizon_ns: u64) {
        self.ensure_started();
        while let Some(at) = self.core.queue.next_at() {
            if at >= horizon_ns {
                break;
            }
            self.step();
        }
    }

    /// Records one lookahead epoch's accounting for this domain, called by
    /// [`crate::ShardedSim`] right after [`Simulator::run_until_before`].
    ///
    /// `busy` is how far the domain's clock actually advanced inside the
    /// epoch window `[t_min, horizon)`; the remainder is *barrier stall* —
    /// simulated time the domain spent parked at the conservative barrier
    /// because its work ran out before the horizon. Both are pure functions
    /// of domain clocks (never wall time), so the counters and the
    /// `shard.domain.NNN.*` telemetry tracks they feed are byte-identical
    /// at every thread count. Only partitions with a cut call this: without
    /// cross-domain links there is no barrier to stall at.
    pub(crate) fn record_epoch(
        &mut self,
        domain: usize,
        t_min: u64,
        horizon: u64,
        events_before: u64,
    ) {
        let width = horizon - t_min;
        let busy = self.core.now.as_nanos().saturating_sub(t_min).min(width);
        let stall = width - busy;
        self.core.stats.epochs += 1;
        self.core.stats.barrier_stall_ns += stall;
        if let Some(ts) = self.core.timeseries.as_ref() {
            let epoch_events = self.core.stats.events_processed - events_before;
            let [busy_track, stall_track, events_track] =
                self.core.obs.epoch_tracks.get_or_insert_with(|| {
                    ["busy_ns", "stall_ns", "epoch_events"]
                        .map(|track| format!("shard.domain.{domain:03}.{track}"))
                });
            ts.record(busy_track, t_min, busy as i64);
            ts.record(stall_track, t_min, stall as i64);
            ts.record(events_track, t_min, epoch_events as i64);
            if domain == 0 {
                // One global track suffices — every domain shares the bound.
                ts.record("shard.epoch.lookahead_ns", t_min, width as i64);
            }
        }
    }

    /// Drains the packets queued for other domains, in generation order.
    /// The outbox keeps its buffer, so the next epoch's sends need not
    /// grow it again.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, CrossMsg> {
        self.core.outbox.drain(..)
    }

    /// Enqueues a packet arriving from another domain. Called only at epoch
    /// barriers, in the global deterministic merge order — the fresh local
    /// sequence number assigned here is what serializes boundary arrivals
    /// against local events at the same timestamp.
    pub(crate) fn push_cross(&mut self, arrive: SimTime, node: NodeId, port: PortId, pkt: Packet) {
        self.core
            .schedule(arrive, EventKind::CrossDeliver { node, port, pkt });
    }

    /// A node's receive-side overhead (captured by peers at cross-link
    /// wiring time).
    pub(crate) fn node_rx_overhead(&self, node: NodeId) -> SimDuration {
        self.core.node_opts[node.index()].rx_overhead
    }

    /// Number of ports currently bound on `node`.
    pub(crate) fn port_count_of(&self, node: NodeId) -> usize {
        self.core.node_ports[node.index()].len()
    }

    /// Number of nodes in this simulator.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (including cross-domain half-links) in this
    /// simulator.
    pub fn link_count(&self) -> usize {
        self.core.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IpAddr;

    /// Echoes every packet back out the port it came in on, once.
    struct Echo;
    impl Device for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
            if pkt.udp.dst_port == 7 {
                let mut reply = pkt.clone();
                reply.udp.dst_port = 8;
                std::mem::swap(&mut reply.ip.src, &mut reply.ip.dst);
                ctx.send(port, reply);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `n` packets at start; records delivery times of replies.
    struct Pinger {
        n: usize,
        sent_at: Vec<SimTime>,
        rtts: Vec<SimDuration>,
    }
    impl Device for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                self.sent_at.push(ctx.now());
                let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 7, 7, 0)
                    .with_payload(vec![0u8; 1000]);
                ctx.send(PortId(0), pkt);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {
            let i = self.rtts.len();
            self.rtts.push(ctx.now().duration_since(self.sent_at[i]));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ping_sim(n: usize, spec: LinkSpec) -> (Simulator, NodeId) {
        let mut sim = Simulator::new();
        let p = sim.add_node(
            Box::new(Pinger {
                n,
                sent_at: vec![],
                rtts: vec![],
            }),
            NodeOpts::new("pinger"),
        );
        let e = sim.add_node(Box::new(Echo), NodeOpts::new("echo"));
        sim.connect(p, e, &spec);
        (sim, p)
    }

    #[test]
    fn single_ping_rtt_is_two_serializations_plus_two_propagations() {
        let (mut sim, p) = ping_sim(1, LinkSpec::ten_gbe());
        sim.run_until_idle();
        let pinger = sim.device::<Pinger>(p);
        // frame = 1000 + 46 = 1046; wire = 1066 bytes; at 10G = 852.8ns -> 853ns.
        let ser = SimDuration::serialization(1066, 10_000_000_000);
        let expect = (ser + SimDuration::from_micros(1)) * 2;
        assert_eq!(pinger.rtts, vec![expect]);
    }

    #[test]
    fn fifo_serialization_spaces_back_to_back_packets() {
        let (mut sim, p) = ping_sim(3, LinkSpec::ten_gbe());
        sim.run_until_idle();
        let rtts = &sim.device::<Pinger>(p).rtts;
        assert_eq!(rtts.len(), 3);
        // Each later packet waits behind the earlier ones on both directions.
        assert!(rtts[0] < rtts[1] && rtts[1] < rtts[2]);
    }

    #[test]
    fn overheads_are_charged() {
        let mut sim = Simulator::new();
        let p = sim.add_node(
            Box::new(Pinger {
                n: 1,
                sent_at: vec![],
                rtts: vec![],
            }),
            NodeOpts::new("pinger")
                .with_tx_overhead(SimDuration::from_micros(2))
                .with_rx_overhead(SimDuration::from_micros(3)),
        );
        let e = sim.add_node(Box::new(Echo), NodeOpts::new("echo"));
        sim.connect(p, e, &LinkSpec::ten_gbe());
        sim.run_until_idle();
        let base = {
            let (mut sim2, p2) = ping_sim(1, LinkSpec::ten_gbe());
            sim2.run_until_idle();
            sim2.device::<Pinger>(p2).rtts[0]
        };
        let rtt = sim.device::<Pinger>(p).rtts[0];
        // tx overhead once (pinger->echo), rx overhead once (echo reply back in).
        assert_eq!(
            rtt,
            base + SimDuration::from_micros(2) + SimDuration::from_micros(3)
        );
    }

    #[test]
    fn dropped_packets_never_deliver() {
        let spec = LinkSpec::ten_gbe().with_loss(crate::link::LossModel::Exact { drops: vec![0] });
        let (mut sim, p) = ping_sim(1, spec);
        sim.run_until_idle();
        assert!(sim.device::<Pinger>(p).rtts.is_empty());
        assert_eq!(sim.stats().packets_dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, _) = ping_sim(1, LinkSpec::ten_gbe());
        let t = sim.run_until(SimTime::from_nanos(10));
        assert!(t <= SimTime::from_nanos(10));
        assert!(sim.stats().packets_delivered < 2);
        sim.run_until_idle();
        assert_eq!(sim.stats().packets_delivered, 2);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerDev {
            fired: Vec<u64>,
            cancel_me: Option<TimerId>,
        }
        impl Device for TimerDev {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_nanos(10), 1);
                let id = ctx.set_timer(SimDuration::from_nanos(20), 2);
                ctx.set_timer(SimDuration::from_nanos(30), 3);
                self.cancel_me = Some(id);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                if token == 1 {
                    ctx.cancel_timer(self.cancel_me.unwrap());
                }
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new();
        let n = sim.add_node(
            Box::new(TimerDev {
                fired: vec![],
                cancel_me: None,
            }),
            NodeOpts::new("timers"),
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<TimerDev>(n).fired, vec![1, 3]);
    }

    /// Sends one payload packet toward 10.0.0.2 every `period`, `n` times.
    struct Drip {
        n: usize,
        period: SimDuration,
        sent: usize,
    }
    impl Device for Drip {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9, 9, 0)
                .with_payload(vec![0u8; 100]);
            ctx.send(PortId(0), pkt);
            self.sent += 1;
            if self.sent < self.n {
                ctx.set_timer(self.period, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts arrivals.
    struct Sink {
        got: usize,
    }
    impl Device for Sink {
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn drip_sim(n: usize, period: SimDuration) -> (Simulator, LinkId, NodeId) {
        let mut sim = Simulator::new();
        let d = sim.add_node(Box::new(Drip { n, period, sent: 0 }), NodeOpts::new("drip"));
        let s = sim.add_node(Box::new(Sink { got: 0 }), NodeOpts::new("sink"));
        let (link, _, _) = sim.connect(d, s, &LinkSpec::ten_gbe());
        (sim, link, s)
    }

    #[test]
    fn link_down_window_drops_only_inside_it() {
        // Sends at 0, 10, ..., 90 µs; the link is down over [25, 65) µs,
        // killing the sends at 30, 40, 50, 60.
        let (mut sim, link, sink) = drip_sim(10, SimDuration::from_micros(10));
        sim.schedule_fault(
            SimTime::from_nanos(25_000),
            crate::fault::FaultAction::LinkDown { link },
        );
        sim.schedule_fault(
            SimTime::from_nanos(65_000),
            crate::fault::FaultAction::LinkUp { link },
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<Sink>(sink).got, 6);
        assert_eq!(sim.stats().packets_dropped, 4);
        assert_eq!(sim.stats().packets_dropped_link_down, 4);
        assert_eq!(sim.stats().faults_applied, 2);
    }

    #[test]
    fn set_link_loss_fault_switches_models_mid_run() {
        // Total loss over [25, 65) µs via a fault, then back to lossless.
        let (mut sim, link, sink) = drip_sim(10, SimDuration::from_micros(10));
        sim.schedule_fault(
            SimTime::from_nanos(25_000),
            crate::fault::FaultAction::SetLinkLoss {
                link,
                loss: crate::link::LossModel::Random {
                    probability: 1.0,
                    seed: 1,
                },
            },
        );
        sim.schedule_fault(
            SimTime::from_nanos(65_000),
            crate::fault::FaultAction::SetLinkLoss {
                link,
                loss: crate::link::LossModel::None,
            },
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<Sink>(sink).got, 6);
        assert_eq!(sim.stats().packets_dropped, 4);
        assert_eq!(sim.stats().packets_dropped_link_down, 0);
    }

    #[test]
    fn delay_spike_stretches_rtt_both_ways() {
        let base = {
            let (mut sim, p) = ping_sim(1, LinkSpec::ten_gbe());
            sim.run_until_idle();
            sim.device::<Pinger>(p).rtts[0]
        };
        let (mut sim, p) = ping_sim(1, LinkSpec::ten_gbe());
        let extra = SimDuration::from_micros(40);
        sim.schedule_fault(
            SimTime::ZERO,
            crate::fault::FaultAction::DelaySpike {
                link: LinkId(0),
                extra,
            },
        );
        sim.run_until_idle();
        // The spike delays the request and the echoed reply once each.
        assert_eq!(sim.device::<Pinger>(p).rtts, vec![base + extra * 2]);
    }

    #[test]
    fn clear_delay_spike_restores_latency() {
        let (mut sim, link, sink) = drip_sim(2, SimDuration::from_micros(50));
        sim.schedule_fault(
            SimTime::ZERO,
            crate::fault::FaultAction::DelaySpike {
                link,
                extra: SimDuration::from_millis(10),
            },
        );
        sim.schedule_fault(
            SimTime::from_nanos(25_000),
            crate::fault::FaultAction::ClearDelaySpike { link },
        );
        let end = sim.run_until_idle();
        // First packet pays the spike (arrives past 10 ms); the second,
        // sent at 50 µs, does not — the run still ends past 10 ms because
        // the first delivery is outstanding until then.
        assert_eq!(sim.device::<Sink>(sink).got, 2);
        assert!(end >= SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn inject_timer_fires_device_callback() {
        struct Recorder {
            fired: Vec<u64>,
        }
        impl Device for Recorder {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Context<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new();
        let n = sim.add_node(Box::new(Recorder { fired: vec![] }), NodeOpts::new("rec"));
        sim.schedule_fault(
            SimTime::from_nanos(5),
            crate::fault::FaultAction::InjectTimer {
                node: n,
                token: u64::MAX - 1,
            },
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<Recorder>(n).fired, vec![u64::MAX - 1]);
    }

    #[test]
    fn scheduled_faults_replay_deterministically() {
        let run = || {
            let (mut sim, link, sink) = drip_sim(10, SimDuration::from_micros(10));
            sim.schedule_fault(
                SimTime::from_nanos(25_000),
                crate::fault::FaultAction::LinkDown { link },
            );
            sim.schedule_fault(
                SimTime::from_nanos(65_000),
                crate::fault::FaultAction::LinkUp { link },
            );
            sim.run_until_idle();
            (sim.device::<Sink>(sink).got, sim.metrics_json().render())
        };
        let (got_a, metrics_a) = run();
        let (got_b, metrics_b) = run();
        assert_eq!(got_a, 6);
        assert_eq!(got_a, got_b);
        assert_eq!(
            metrics_a, metrics_b,
            "same schedule must replay byte-identically"
        );
    }

    #[test]
    fn tagged_packets_leave_lifecycle_events() {
        use crate::packet::CausalKey;

        struct Tagged;
        impl Device for Tagged {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9, 9, 0)
                    .with_payload(vec![0u8; 100])
                    .with_cause(CausalKey {
                        round: 3,
                        segment: 7,
                        worker: 1,
                        tenant: 0,
                    });
                ctx.send(PortId(0), pkt);
                // An untagged packet must leave no trace events.
                let quiet =
                    Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9, 9, 0);
                ctx.send(PortId(0), quiet);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let run = || {
            let trace = Arc::new(iswitch_obs::Trace::new());
            let mut sim = Simulator::new();
            sim.set_trace(Arc::clone(&trace));
            let t = sim.add_node(Box::new(Tagged), NodeOpts::new("tx"));
            let s = sim.add_node(Box::new(Sink { got: 0 }), NodeOpts::new("rx"));
            sim.connect(t, s, &LinkSpec::ten_gbe());
            sim.run_until_idle();
            trace.to_jsonl()
        };
        let jsonl = run();
        let kinds: Vec<String> = jsonl
            .lines()
            .map(|l| {
                iswitch_obs::JsonValue::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(kinds, vec!["pkt.tx", "pkt.rx"], "one tx and one rx hop");
        let tx = iswitch_obs::JsonValue::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(tx.get("round").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(tx.get("seg").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(tx.get("worker").and_then(|v| v.as_u64()), Some(1));
        assert!(tx.get("backlog_ns").is_some());
        assert_eq!(jsonl, run(), "trace must be byte-identical across runs");
    }

    #[test]
    fn tenant_id_stamps_causal_packets_only_when_set() {
        use crate::packet::CausalKey;

        struct Tagged;
        impl Device for Tagged {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9, 9, 0)
                    .with_payload(vec![0u8; 100])
                    .with_cause(CausalKey {
                        round: 3,
                        segment: 7,
                        worker: 1,
                        tenant: 0,
                    });
                ctx.send(PortId(0), pkt);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let run = |tenant: u64| {
            let trace = Arc::new(iswitch_obs::Trace::new());
            let mut sim = Simulator::new();
            sim.set_trace(Arc::clone(&trace));
            sim.set_tenant(tenant);
            let t = sim.add_node(Box::new(Tagged), NodeOpts::new("tx"));
            let s = sim.add_node(Box::new(Sink { got: 0 }), NodeOpts::new("rx"));
            sim.connect(t, s, &LinkSpec::ten_gbe());
            sim.run_until_idle();
            trace.to_jsonl()
        };
        // Tenant zero (the single-tenant default) emits no tenant attr —
        // the export is byte-identical to the pre-tenancy format.
        let solo = run(0);
        assert!(!solo.contains("tenant"), "untenanted trace stays clean");
        // A declared tenant stamps every causal lifecycle event.
        let tenanted = run(2);
        for line in tenanted.lines() {
            let ev = iswitch_obs::JsonValue::parse(line).unwrap();
            assert_eq!(
                ev.get("tenant").and_then(|v| v.as_u64()),
                Some(2),
                "every lifecycle event carries the tenant id"
            );
        }
    }

    #[test]
    fn dropped_tagged_packets_trace_the_drop_reason() {
        let trace = Arc::new(iswitch_obs::Trace::new());
        let spec = LinkSpec::ten_gbe().with_loss(crate::link::LossModel::Exact { drops: vec![0] });
        let (mut sim, p) = ping_sim(0, spec);
        sim.set_trace(Arc::clone(&trace));
        let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 7, 9, 0)
            .with_cause(crate::packet::CausalKey {
                round: 0,
                segment: 0,
                worker: 0,
                tenant: 0,
            });
        sim.run_until_idle();
        sim.core.transmit(p, PortId(0), pkt);
        assert_eq!(
            trace.to_jsonl(),
            "{\"t_ns\":0,\"kind\":\"pkt.drop\",\"round\":0,\"seg\":0,\"worker\":0,\
             \"src\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"link\":0,\"reason\":\"loss\"}\n"
        );
    }

    #[test]
    fn the_widest_causal_key_renders_its_full_numbers() {
        // A 16-bit round tag, the largest 32-bit segment index and the
        // all-ones address: the 32-bit key widens to the same numbers the
        // trace always carried.
        let trace = Arc::new(iswitch_obs::Trace::new());
        let (mut sim, p) = ping_sim(0, LinkSpec::ten_gbe());
        sim.set_trace(Arc::clone(&trace));
        let top = IpAddr::new(255, 255, 255, 255);
        let pkt = Packet::udp(top, IpAddr::new(10, 0, 0, 2), 9, 9, 0).with_cause(
            crate::packet::CausalKey {
                round: 0xFFFF,
                segment: u32::MAX,
                worker: top.as_u32(),
                tenant: 0,
            },
        );
        sim.run_until_idle();
        sim.core.transmit(p, PortId(0), pkt);
        assert_eq!(
            trace.to_jsonl(),
            "{\"t_ns\":0,\"kind\":\"pkt.tx\",\"round\":65535,\"seg\":4294967295,\
             \"worker\":4294967295,\"src\":\"255.255.255.255\",\"dst\":\"10.0.0.2\",\
             \"link\":0,\"backlog_ns\":68,\"depart_ns\":68,\"arrive_ns\":1068}\n"
        );
    }

    #[test]
    #[should_panic(expected = "tenant id 4294967296")]
    fn a_tenant_id_past_32_bits_is_refused_by_name() {
        Simulator::new().set_tenant(u64::from(u32::MAX) + 1);
    }

    /// Sends `n` 1000-byte packets back to back at time zero.
    struct Burst {
        n: usize,
    }
    impl Device for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                let pkt = Packet::udp(IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2), 9, 9, 0)
                    .with_payload(vec![0u8; 1000]);
                ctx.send(PortId(0), pkt);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Records each arrival's time and ECN-CE bit.
    struct MarkSink {
        got: Vec<(SimTime, bool)>,
    }
    impl Device for MarkSink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _: PortId, pkt: Packet) {
            self.got.push((ctx.now(), pkt.ecn_ce()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn burst_sim(n: usize, spec: &LinkSpec) -> (Simulator, NodeId) {
        let mut sim = Simulator::new();
        let b = sim.add_node(Box::new(Burst { n }), NodeOpts::new("burst"));
        let s = sim.add_node(Box::new(MarkSink { got: vec![] }), NodeOpts::new("sink"));
        sim.connect(b, s, spec);
        (sim, s)
    }

    #[test]
    fn egress_queue_tail_drops_and_marks() {
        // 1000-byte payloads occupy 1066 wire bytes. With a 3000-byte queue
        // a burst of five admits two (0 and ~1066 bytes queued) and
        // tail-drops three; the 1000-byte ECN threshold marks only the
        // second admitted packet.
        let spec = LinkSpec::ten_gbe().with_queue(crate::link::EgressQueue::new(3_000, 1_000));
        let (mut sim, s) = burst_sim(5, &spec);
        sim.run_until_idle();
        let got = &sim.device::<MarkSink>(s).got;
        assert_eq!(got.len(), 2);
        assert!(!got[0].1, "first packet sees an empty queue");
        assert!(got[1].1, "second packet queues past the ECN threshold");
        assert_eq!(sim.stats().packets_dropped, 3);
        assert_eq!(sim.stats().packets_dropped_queue, 3);
        assert_eq!(sim.stats().packets_ecn_marked, 1);
        assert_eq!(sim.stats().packets_sent, 5);
    }

    #[test]
    fn queue_drops_consume_no_loss_model_sequence() {
        // A tail-dropped packet never reaches the wire, so it must not
        // advance the loss model's sequence counter: with Exact{drops:[1]}
        // the second *admitted* packet is the one lost.
        let spec = LinkSpec::ten_gbe()
            .with_queue(crate::link::EgressQueue::new(3_000, 3_000))
            .with_loss(crate::link::LossModel::Exact { drops: vec![1] });
        let (mut sim, s) = burst_sim(5, &spec);
        sim.run_until_idle();
        // Five sent: two admitted by the queue, of which seq 1 is dropped
        // by the loss model.
        assert_eq!(sim.stats().packets_dropped_queue, 3);
        assert_eq!(sim.stats().packets_dropped, 4);
        assert_eq!(sim.device::<MarkSink>(s).got.len(), 1);
    }

    #[test]
    fn unqueued_links_never_mark_or_queue_drop() {
        let (mut sim, s) = burst_sim(5, &LinkSpec::ten_gbe());
        sim.run_until_idle();
        assert_eq!(sim.device::<MarkSink>(s).got.len(), 5);
        assert!(sim.device::<MarkSink>(s).got.iter().all(|(_, ce)| !ce));
        assert_eq!(sim.stats().packets_dropped_queue, 0);
        assert_eq!(sim.stats().packets_ecn_marked, 0);
    }

    #[test]
    fn exact_loss_installed_mid_run_hits_absolute_seqs_only() {
        // Regression for the fault-plan path: sends at 0, 10, ..., 90 µs
        // (seqs 0..10); at 45 µs — after five packets have flowed — an
        // `Exact` model listing {2 (already past), 5, 7} is installed. The
        // cursor must not race the live counter: exactly seqs 5 and 7 drop.
        let mut sim = Simulator::new();
        let d = sim.add_node(
            Box::new(Drip {
                n: 10,
                period: SimDuration::from_micros(10),
                sent: 0,
            }),
            NodeOpts::new("drip"),
        );
        let s = sim.add_node(Box::new(MarkSink { got: vec![] }), NodeOpts::new("sink"));
        let (link, _, _) = sim.connect(d, s, &LinkSpec::ten_gbe());
        sim.schedule_fault(
            SimTime::from_nanos(45_000),
            crate::fault::FaultAction::SetLinkLoss {
                link,
                loss: crate::link::LossModel::Exact {
                    drops: vec![7, 2, 5],
                },
            },
        );
        sim.run_until_idle();
        let got = &sim.device::<MarkSink>(s).got;
        assert_eq!(got.len(), 8);
        assert_eq!(sim.stats().packets_dropped, 2);
        // Arrival times identify the survivors: send i leaves at 10i µs and
        // every packet sees an idle link, so arrivals are send-time shifted
        // by one fixed pipeline delay.
        let pipeline = got[0].0.saturating_duration_since(SimTime::ZERO);
        let survivors: Vec<u64> = got
            .iter()
            .map(|(at, _)| (at.as_nanos() - pipeline.as_nanos()) / 10_000)
            .collect();
        assert_eq!(survivors, vec![0, 1, 2, 3, 4, 6, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn faults_on_unknown_links_are_rejected() {
        let (mut sim, _, _) = drip_sim(1, SimDuration::from_micros(1));
        sim.schedule_fault(
            SimTime::ZERO,
            crate::fault::FaultAction::LinkDown { link: LinkId(99) },
        );
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaway() {
        struct Loop;
        impl Device for Loop {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new();
        sim.add_node(Box::new(Loop), NodeOpts::new("loop"));
        sim.set_event_limit(100);
        sim.run_until_idle();
    }
}
