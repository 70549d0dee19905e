//! The iSwitch data/control-plane extension for a simulated switch
//! (paper §3.3, Fig. 6, and §3.4's hierarchical aggregation).
//!
//! Installed into an `iswitch-netsim` switch, the extension plays the role
//! of the paper's enhanced input arbiter: packets tagged with the reserved
//! ToS values divert to the in-switch accelerator; everything else follows
//! the regular forwarding path untouched.
//!
//! Deployment shapes:
//!
//! * **Root** (single-switch star, or the core of a tree): completed
//!   aggregates are broadcast down every child port.
//! * **Intermediate** (a ToR under a core switch): completed *local*
//!   aggregates are forwarded up the uplink for global aggregation
//!   ("it will forward the aggregated segment to the switches in the
//!   higher level", §3.4), and result packets arriving *on* the uplink are
//!   fanned out to the children.
//!
//! Either way a switch keeps the last [`RESULT_DEPTH`] results it sent
//! down per segment, to serve `Help` (see `ResultStore`).

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use iswitch_netsim::{
    ExtAction, IntMap, IpAddr, Packet, PortId, SimDuration, SwitchExtension, SwitchServices,
};
use iswitch_obs::{Counter, Histogram, Registry, Span, TraceEvent};

use crate::accelerator::{Accelerator, AcceleratorConfig, ClosedRound, IngestOutcome, Refusal};
use crate::control_plane::{Member, MemberType, MembershipTable};
use crate::protocol::codec::CodecKind;
use crate::protocol::{dscp, seg_index, seg_round, ControlMessage, TOS_CONTROL, TOS_DATA};
use crate::worker::{control_packet, sealed_data_packet};

/// Destination IP carried by downward result broadcasts. Worker apps accept
/// iSwitch data packets regardless of destination address.
pub const RESULT_BROADCAST_IP: IpAddr = IpAddr::new(10, 255, 255, 255);

/// Destination IP carried by upward (toward the root) aggregate packets.
pub const UPSTREAM_IP: IpAddr = IpAddr::new(10, 255, 255, 254);

/// How the accelerator schedules its output (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationMode {
    /// Sum each packet as it arrives and emit each segment's aggregate the
    /// moment its counter reaches `H` (Fig. 8b — the paper's design).
    #[default]
    OnTheFly,
    /// Conventional scheme (Fig. 8a), for ablation: buffer until **every**
    /// segment of the round has all `H` contributions, then run the whole
    /// summation and emit all segments back to back.
    StoreAndForward,
}

/// Where a switch sits in the aggregation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationRole {
    /// The top of the hierarchy: completed aggregates broadcast downward.
    Root,
    /// A lower-level switch: completed local aggregates travel up `uplink`;
    /// results arriving on `uplink` fan out to the children.
    Intermediate {
        /// The port facing the parent switch.
        uplink: PortId,
    },
}

/// Configuration for [`IswitchExtension`].
#[derive(Debug, Clone)]
pub struct ExtensionConfig {
    /// Hierarchy position.
    pub role: AggregationRole,
    /// Ports facing workers (leaf) or child switches (core).
    pub child_ports: Vec<PortId>,
    /// Gradient vector length in f32 elements.
    pub grad_len: usize,
    /// Aggregation threshold `H`. Defaults to the child count in
    /// [`ExtensionConfig::for_star`] / [`ExtensionConfig::for_tree_level`].
    pub threshold: u16,
    /// Accelerator hardware parameters.
    pub accel: AcceleratorConfig,
    /// Source IP stamped on emitted packets.
    pub switch_ip: IpAddr,
    /// When true, `Join`/`Leave` control messages adjust `H` to the current
    /// worker count.
    pub auto_threshold: bool,
    /// Output scheduling (ablation knob; the paper's design is
    /// [`AggregationMode::OnTheFly`]).
    pub mode: AggregationMode,
    /// When set, a partial round that has seen no contribution for this
    /// long is flushed as a partial broadcast. Protects against permanent
    /// round desynchronization after a lost contribution: without expiry,
    /// a 3-of-4 round would complete with the *next* iteration's first
    /// packet and stay phase-shifted forever (the round-versioning problem
    /// follow-on systems like SwitchML solve with slot versions).
    pub stale_flush: Option<SimDuration>,
    /// Aggregation format the job runs in (the per-job datapath knob).
    /// Every switch and worker of a job must agree; defaults to
    /// [`CodecKind::F32`], the paper's raw-float format.
    pub codec: CodecKind,
    /// Routes slot-denied rounds through the fallback-to-host path
    /// (slower, numerically identical) instead of dropping them. Enabled
    /// by the multi-tenant runner; the single-tenant default is `false`,
    /// preserving the legacy drop-on-overflow behavior bit for bit.
    pub host_fallback: bool,
    /// Arms the seeded slot-leak bug in the accelerator (chaos-harness
    /// fault injection for the I6 isolation invariant; never set in
    /// production configurations).
    pub slot_leak_bug: bool,
}

impl ExtensionConfig {
    /// Configuration for the single-switch (star) deployment of Fig. 1c:
    /// the switch is the root; `H` = number of workers.
    pub fn for_star(child_ports: Vec<PortId>, grad_len: usize) -> Self {
        ExtensionConfig {
            switch_ip: IpAddr::new(10, 0, 255, 1),
            ..Self::for_tree_level(AggregationRole::Root, child_ports, grad_len)
        }
    }

    /// Configuration for one switch of a two-layer tree (Fig. 10): ToRs are
    /// intermediates aggregating their local workers; the core is the root
    /// aggregating one contribution per rack.
    pub fn for_tree_level(
        role: AggregationRole,
        child_ports: Vec<PortId>,
        grad_len: usize,
    ) -> Self {
        let threshold = child_ports.len() as u16;
        ExtensionConfig {
            role,
            child_ports,
            grad_len,
            threshold,
            accel: AcceleratorConfig::default(),
            switch_ip: IpAddr::new(10, 0, 255, 2),
            auto_threshold: false,
            mode: AggregationMode::OnTheFly,
            stale_flush: None,
            codec: CodecKind::F32,
            host_fallback: false,
            slot_leak_bug: false,
        }
    }

    /// Switches to the conventional store-and-forward output schedule
    /// (Fig. 8a), for the on-the-fly ablation.
    pub fn store_and_forward(mut self) -> Self {
        self.mode = AggregationMode::StoreAndForward;
        self
    }

    /// Overrides the aggregation threshold `H` (the `SetH` control action
    /// applied at construction). Used by the partial-aggregation ablation.
    pub fn with_threshold(mut self, h: u16) -> Self {
        assert!(h > 0, "threshold must be positive");
        self.threshold = h;
        self
    }

    /// Enables switch-side expiry of stale partial rounds (see
    /// [`ExtensionConfig::stale_flush`]).
    pub fn with_stale_flush(mut self, age: SimDuration) -> Self {
        self.stale_flush = Some(age);
        self
    }

    /// Sets the job's aggregation codec (see [`ExtensionConfig::codec`]).
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Enables the fallback-to-host path (see
    /// [`ExtensionConfig::host_fallback`]).
    pub fn with_host_fallback(mut self) -> Self {
        self.host_fallback = true;
        self
    }

    /// Arms the seeded slot-leak bug (see
    /// [`ExtensionConfig::slot_leak_bug`]).
    pub fn with_slot_leak_bug(mut self) -> Self {
        self.slot_leak_bug = true;
        self
    }
}

/// The extension's counters kept beside the metrics registry (everything
/// else is a `core.switch.nNNN.*` counter). The first two stay out of the
/// registry and `resend_requests` enters it with its first increment, so
/// loss-free metric reports keep their shape.
#[derive(Debug, Clone, Default)]
pub struct ExtensionStats {
    /// Injected accelerator restarts ([`FAULT_RESET_TOKEN`]).
    pub fault_resets: u64,
    /// Result emissions that carried an echoed ECN-CE mark (some
    /// contribution to the segment round arrived CE-marked).
    pub ecn_echoed: u64,
    /// `Help` requests a root answered by asking the requester to resend
    /// its contribution (the round was neither kept nor open).
    pub resend_requests: u64,
}

/// Results of each segment a switch keeps for `Help`: the newest round's
/// and the one before it. A protocol constant, not a knob (DESIGN.md §11).
pub const RESULT_DEPTH: usize = 2;

/// The results a switch keeps for `Help`, sized once: entry `index ×
/// RESULT_DEPTH + round mod RESULT_DEPTH` holds the tagged `Seg` of the
/// latest result of that segment and round residue, and the payload it
/// was sent in. A result replaces the one `RESULT_DEPTH` rounds older, and
/// a `Help` reply shares the bytes of the first sending.
struct ResultStore {
    entries: Vec<Option<(u64, Bytes)>>,
}

impl ResultStore {
    fn new(num_segments: usize) -> Self {
        ResultStore {
            entries: vec![None; num_segments * RESULT_DEPTH],
        }
    }

    /// The entry of `seg`; `None` for a segment index past the gradient,
    /// which only outside bytes can carry.
    fn entry(&self, seg: u64) -> Option<usize> {
        let segments = self.entries.len() / RESULT_DEPTH;
        let index = usize::try_from(seg_index(seg))
            .ok()
            .filter(|&i| i < segments)?;
        Some(index * RESULT_DEPTH + seg_round(seg) as usize % RESULT_DEPTH)
    }

    fn put(&mut self, seg: u64, payload: Bytes) {
        if let Some(at) = self.entry(seg) {
            self.entries[at] = Some((seg, payload));
        }
    }

    fn get(&self, seg: u64) -> Option<&Bytes> {
        let (kept, payload) = self.entries[self.entry(seg)?].as_ref()?;
        (*kept == seg).then_some(payload)
    }

    fn bytes(&self) -> usize {
        self.entries.iter().flatten().map(|(_, p)| p.len()).sum()
    }
}

enum PendingEmit {
    /// A closed round leaving the switch: broadcast down by a root,
    /// forwarded up by an intermediate, echoing the round's CE mark.
    Result { seg: u64, payload: Bytes, ce: bool },
    /// A kept result re-sent to one worker.
    HelpReply {
        seg: u64,
        payload: Bytes,
        to: IpAddr,
    },
}

/// Metric handles registered in the owning simulation's registry.
///
/// Resolved lazily on the first callback (the extension is constructed
/// before it joins a simulation, so the registry is not available in
/// `new`). Names are prefixed `core.switch.nNNN.` with the switch's node
/// id, so every switch in a tree exports distinct series.
struct ExtObs {
    /// Time from a segment round's first contribution to its threshold-H
    /// completion, including the accelerator's pipeline latency. This is
    /// the paper's per-segment aggregation-latency measurement (§5).
    agg_latency_ns: Arc<Histogram>,
    /// Segment rounds completed by reaching the threshold `H`.
    h_hits: Arc<Counter>,
    /// Data packets ingested by the accelerator.
    data_ingested: Arc<Counter>,
    /// `Help` retransmissions served from the result store.
    help_served: Arc<Counter>,
    /// `Help` requests that missed the result store.
    help_missed: Arc<Counter>,
    /// Stale partial rounds flushed by the expiry sweep.
    stale_flushes: Arc<Counter>,
    /// Result packets broadcast downward.
    broadcasts: Arc<Counter>,
    /// Aggregates forwarded up the hierarchy.
    upward_forwards: Arc<Counter>,
    /// Control messages handled.
    control_handled: Arc<Counter>,
    /// Non-iSwitch packets passed through to regular forwarding.
    passed_through: Arc<Counter>,
    /// Accumulator elements clamped by the codec's saturating add.
    codec_saturations: Arc<Counter>,
    /// Accumulator exponent rebases performed by the codec.
    codec_rebases: Arc<Counter>,
    /// New rounds denied an aggregation slot by the tenant grant.
    /// Registered only when the tenant datapath features are enabled, so
    /// single-tenant metric reports stay byte-identical to the legacy
    /// build.
    slot_denials: Option<Arc<Counter>>,
    /// Rounds completed through the fallback-to-host path (same
    /// conditional registration as `slot_denials`).
    fallback_rounds: Option<Arc<Counter>>,
    /// Telemetry track names of the two codec counters (the metric names).
    saturations_track: String,
    rebases_track: String,
}

impl ExtObs {
    fn resolve(registry: &Registry, node_index: usize, tenant_metrics: bool) -> Self {
        let name = |metric: &str| format!("core.switch.n{node_index:03}.{metric}");
        ExtObs {
            agg_latency_ns: registry.histogram(&name("agg_latency_ns")),
            h_hits: registry.counter(&name("h_hits")),
            data_ingested: registry.counter(&name("data_ingested")),
            help_served: registry.counter(&name("help_served")),
            help_missed: registry.counter(&name("help_missed")),
            stale_flushes: registry.counter(&name("stale_flushes")),
            broadcasts: registry.counter(&name("broadcasts")),
            upward_forwards: registry.counter(&name("upward_forwards")),
            control_handled: registry.counter(&name("control_handled")),
            passed_through: registry.counter(&name("passed_through")),
            codec_saturations: registry.counter(&name("codec_saturations")),
            codec_rebases: registry.counter(&name("codec_rebases")),
            slot_denials: tenant_metrics.then(|| registry.counter(&name("slot_denials"))),
            fallback_rounds: tenant_metrics.then(|| registry.counter(&name("fallback_rounds"))),
            saturations_track: name("codec_saturations"),
            rebases_track: name("codec_rebases"),
        }
    }
}

/// The in-switch aggregation extension.
/// Timer token reserved for the stale-partial sweep.
const SWEEP_TOKEN: u64 = u64::MAX;

/// Timer token reserved for fault injection: delivered to the extension
/// (via `iswitch-netsim`'s `FaultAction::InjectTimer`) it models a switch
/// restart — the accelerator loses every piece of volatile state: partial
/// sums, counters, the kept results, and any scheduled emissions. Workers
/// recover through the ordinary `Help`/`FBcast`/retransmission paths.
pub const FAULT_RESET_TOKEN: u64 = u64::MAX - 1;

/// The in-switch aggregation extension (data plane + control plane).
pub struct IswitchExtension {
    cfg: ExtensionConfig,
    accel: Accelerator,
    membership: MembershipTable,
    /// What `Help` is served from: the results a root broadcast, or those
    /// an intermediate relayed down from its uplink — never the partial
    /// sum of its own rack that it sent up.
    results: ResultStore,
    /// Emissions waiting out their datapath latency, by timer token.
    pending: IntMap<u64, PendingEmit>,
    next_token: u64,
    sweep_armed: bool,
    /// Completed segments held back in store-and-forward mode until the
    /// whole round is resident.
    held: Vec<PendingEmit>,
    stats: ExtensionStats,
    obs: Option<ExtObs>,
}

impl IswitchExtension {
    /// Builds the extension and its accelerator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no children, zero-length
    /// gradient) or the model does not fit the accelerator's buffer budget.
    pub fn new(cfg: ExtensionConfig) -> Self {
        assert!(
            !cfg.child_ports.is_empty(),
            "a switch needs at least one child"
        );
        assert!(cfg.grad_len > 0, "gradient length must be positive");
        let num_segments = cfg.codec.num_segments(cfg.grad_len);
        let mut accel = Accelerator::with_codec(
            cfg.accel.clone(),
            num_segments,
            cfg.threshold.max(1),
            cfg.codec,
        );
        accel.set_host_fallback(cfg.host_fallback);
        accel.set_slot_leak_bug(cfg.slot_leak_bug);
        IswitchExtension {
            cfg,
            accel,
            membership: MembershipTable::new(),
            results: ResultStore::new(num_segments),
            pending: IntMap::default(),
            next_token: 0,
            sweep_armed: false,
            held: Vec::new(),
            stats: ExtensionStats::default(),
            obs: None,
        }
    }

    /// Resolves the metric handles on first use and returns them.
    fn obs(&mut self, sw: &SwitchServices<'_, '_>) -> &ExtObs {
        let tenant_metrics = self.cfg.host_fallback || self.cfg.slot_leak_bug;
        self.obs
            .get_or_insert_with(|| ExtObs::resolve(sw.metrics(), sw.node().index(), tenant_metrics))
    }

    /// The underlying accelerator (for inspection in tests/benches).
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    /// Mutable access to the accelerator. The multi-tenant arbiter uses
    /// this at epoch barriers to install grants
    /// ([`Accelerator::set_grant`]) and harvest demand
    /// ([`Accelerator::take_demand_peak`]); the simulation itself never
    /// mutates the accelerator from outside the switch.
    pub fn accelerator_mut(&mut self) -> &mut Accelerator {
        &mut self.accel
    }

    /// The control plane's membership table.
    pub fn membership(&self) -> &MembershipTable {
        &self.membership
    }

    /// Extension counters.
    pub fn stats(&self) -> &ExtensionStats {
        &self.stats
    }

    /// Payload bytes kept for `Help` — at most [`RESULT_DEPTH`] results
    /// per segment, whatever the length of the run.
    pub fn kept_result_bytes(&self) -> usize {
        self.results.bytes()
    }

    fn schedule(&mut self, sw: &mut SwitchServices<'_, '_>, delay: SimDuration, emit: PendingEmit) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, emit);
        sw.set_timer(delay, token);
    }

    /// The packet carrying result `payload` (tagged `seg`) to `dst`,
    /// echoing the round's congestion mark when `ce`.
    fn data_packet(&mut self, dst: IpAddr, seg: u64, payload: Bytes, ce: bool) -> Packet {
        // The worker-side factory, so switch-emitted results carry the same
        // causal key shape as worker contributions.
        let mut pkt = sealed_data_packet(self.cfg.switch_ip, dst, seg, payload);
        if ce {
            pkt.mark_ecn_ce();
            self.stats.ecn_echoed += 1;
        }
        pkt
    }

    /// Sends `pkt` out of every child port.
    fn send_children(&self, sw: &mut SwitchServices<'_, '_>, pkt: Packet) {
        // Clone for all children but the last, which takes the packet by
        // value — one fewer refcount round-trip per broadcast.
        let (last, rest) = self
            .cfg
            .child_ports
            .split_last()
            .expect("asserted non-empty in new()");
        for &port in rest {
            sw.send_port(port, pkt.clone());
        }
        sw.send_port(*last, pkt);
    }

    /// Fans a result packet out to every child port.
    fn fanout_down(&mut self, sw: &mut SwitchServices<'_, '_>, pkt: Packet) {
        self.send_children(sw, pkt);
        if let Some(obs) = &self.obs {
            obs.broadcasts.add(self.cfg.child_ports.len() as u64);
        }
    }

    /// Sends a closed round's aggregate on its way, `delay` from now; a
    /// root keeps it for `Help` from this moment. The round's congestion
    /// mark rides out on exactly this emission (the feedback leg of DCQCN:
    /// senders learn of queue build-up from the aggregate coming back).
    fn emit_completed(
        &mut self,
        sw: &mut SwitchServices<'_, '_>,
        round: ClosedRound,
        delay: SimDuration,
    ) {
        if self.cfg.role == AggregationRole::Root {
            self.results.put(round.seg, round.payload.clone());
        }
        let emit = PendingEmit::Result {
            seg: round.seg,
            payload: round.payload,
            ce: round.ce,
        };
        match self.cfg.mode {
            AggregationMode::OnTheFly => self.schedule(sw, delay, emit),
            AggregationMode::StoreAndForward => {
                self.held.push(emit);
                if self.held.len() == self.accel.num_segments() {
                    // The conventional scheme only starts summing once all
                    // vectors are resident: charge one pass of every packet
                    // through the adders before anything leaves.
                    let per_packet = self.cfg.accel.packet_latency(1_472);
                    let total = self.held.len() as u64
                        * u64::from(self.accel.threshold())
                        * per_packet.as_nanos();
                    let mut when = SimDuration::from_nanos(total);
                    for emit in std::mem::take(&mut self.held) {
                        self.schedule(sw, when, emit);
                        when += per_packet;
                    }
                }
            }
        }
    }

    fn handle_data(&mut self, sw: &mut SwitchServices<'_, '_>, in_port: PortId, pkt: &Packet) {
        if let AggregationRole::Intermediate { uplink } = self.cfg.role {
            if in_port == uplink {
                // Globally aggregated result coming down: fan out unchanged.
                // The payload is already the exact bytes the children expect,
                // so relay it zero-copy instead of decode + re-encode.
                let Ok(meta) = self.cfg.codec.codec().decode_meta(&pkt.payload) else {
                    return; // malformed: dropped, like the upward path below
                };
                // The global result: what `Help` from this rack is owed.
                self.results.put(meta.seg, pkt.payload.clone());
                let mut relay = crate::worker::data_packet_wire(
                    self.cfg.switch_ip,
                    RESULT_BROADCAST_IP,
                    meta,
                    pkt.payload.clone(),
                );
                // Congestion marks on the result path survive the relay so
                // workers two hops down still see them.
                if pkt.ecn_ce() {
                    relay.mark_ecn_ce();
                    self.stats.ecn_echoed += 1;
                }
                self.fanout_down(sw, relay);
                return;
            }
        }
        let meta = match self.cfg.codec.codec().decode_meta(&pkt.payload) {
            Ok(meta) => meta,
            // Malformed data packets are dropped, as real hardware would.
            Err(_) => return,
        };
        let now = sw.now();
        let ingest = self.accel.ingest_at(now, pkt.ecn_ce(), meta, &pkt.payload);
        let totals = self.accel.stats();
        let (saturations, rebases) = (totals.codec_saturations, totals.codec_rebases);
        let obs = self.obs(sw);
        if let Some(ts) = sw.timeseries() {
            // Cumulative quantization-pressure tracks; change-collapse in
            // the sink keeps clean rounds free.
            ts.record(&obs.saturations_track, now.as_nanos(), saturations as i64);
            ts.record(&obs.rebases_track, now.as_nanos(), rebases as i64);
        }
        obs.data_ingested.inc();
        obs.codec_saturations.add(ingest.effects.saturations);
        obs.codec_rebases.add(ingest.effects.rebases);
        if let Some(c) = &obs.slot_denials {
            c.add(u64::from(ingest.slot_denied));
        }
        match ingest.outcome {
            IngestOutcome::Refused(Refusal::Malformed) => {
                // Registered by the first drop, so a run that never sees a
                // malformed contribution keeps its metric report unchanged.
                let name = format!("core.switch.n{:03}.malformed_drops", sw.node().index());
                sw.metrics().counter(&name).inc();
            }
            // Counted by the accelerator (`bram_drops`); loss recovery
            // heals it like any other lost contribution.
            IngestOutcome::Refused(Refusal::NoBram) => {}
            IngestOutcome::Accepted => {
                if let (Some(age), false) = (self.cfg.stale_flush, self.sweep_armed) {
                    self.sweep_armed = true;
                    sw.set_timer(age / 2, SWEEP_TOKEN);
                }
            }
            IngestOutcome::Completed(round) => {
                // Aggregation latency spans the round's first contribution
                // to the result leaving the accelerator pipeline.
                let latency = ingest.latency;
                let window = now.saturating_duration_since(round.opened) + latency;
                obs.h_hits.inc();
                obs.agg_latency_ns.record(window.as_nanos());
                if let Some(c) = &obs.fallback_rounds {
                    c.add(u64::from(round.via_host));
                }
                if let Some(trace) = sw.trace() {
                    // The contribution that crossed the threshold is the one
                    // that gated this window — name it for straggler
                    // attribution.
                    let id = trace.alloc_span_id();
                    Span::begin(id, "switch.agg_window", round.opened.as_nanos())
                        .attr_u64("round", u64::from(seg_round(meta.seg)))
                        .attr_u64("seg", seg_index(meta.seg))
                        .attr_u64("last_src", u64::from(pkt.ip.src.as_u32()))
                        .attr_str("last_src_ip", pkt.ip.src)
                        .attr_u64("node", sw.node().index() as u64)
                        .end((now + latency).as_nanos())
                        .emit(trace);
                }
                self.emit_completed(sw, round, latency);
            }
        }
    }

    /// Forces out the partial round `seg`, if it is open — for a worker's
    /// `FBcast` (`from`) or the stale sweep — and emits what it held.
    fn flush(
        &mut self,
        sw: &mut SwitchServices<'_, '_>,
        seg: u64,
        reason: &'static str,
        from: Option<IpAddr>,
    ) {
        let Some(partial) = self.accel.force_broadcast(seg) else {
            return;
        };
        if let Some(trace) = sw.trace() {
            let mut ev = TraceEvent::new(sw.now().as_nanos(), "switch.flush")
                .with_u64("round", u64::from(seg_round(seg)))
                .with_u64("seg", seg_index(seg))
                .with_u64("count", u64::from(partial.count))
                .with_str("reason", reason);
            if let Some(from) = from {
                ev = ev.with_str("from", from);
            }
            trace.record(ev.with_u64("node", sw.node().index() as u64));
        }
        self.emit_completed(sw, partial, SimDuration::ZERO);
    }

    /// Flushes partial rounds that have seen no contribution for the
    /// configured age, then re-arms the sweep while rounds remain open.
    fn sweep_stale(&mut self, sw: &mut SwitchServices<'_, '_>) {
        let Some(age) = self.cfg.stale_flush else {
            self.sweep_armed = false;
            return;
        };
        for seg in self.accel.stale_rounds(sw.now(), age) {
            // Stale rounds are open rounds: each one flushes.
            self.flush(sw, seg, "stale", None);
            self.obs(sw).stale_flushes.inc();
        }
        self.sweep_armed = !self.accel.is_idle();
        if self.sweep_armed {
            sw.set_timer(age / 2, SWEEP_TOKEN);
        }
    }

    /// Forgets every piece of volatile state: open rounds, the kept
    /// results, held and scheduled emissions — nothing scheduled before a
    /// reset is emitted after it. `sweep_armed` stays as-is: an in-flight
    /// sweep timer cannot be recalled, and letting it run keeps a single
    /// sweep chain alive.
    fn reset(&mut self) {
        self.accel.reset();
        self.results.entries.fill(None);
        self.held.clear();
        self.pending.clear();
    }

    fn ack(&self, sw: &mut SwitchServices<'_, '_>, to: IpAddr, of: u8, ok: bool) {
        let _ = sw.send_routed(control_packet(
            self.cfg.switch_ip,
            to,
            &ControlMessage::Ack { of, ok },
        ));
    }

    /// Answers a `Help` the store cannot serve. A root that neither keeps
    /// the round nor has it open never received any of it, or has since
    /// kept a result [`RESULT_DEPTH`] rounds newer in its place: only the
    /// requester can supply it, so the root sends the `Help` back and the
    /// worker resends its contribution to that one segment. An open round
    /// stays silent — the resend could count twice — and so does an
    /// intermediate, above which the round may still be pending.
    fn ask_for_resend(&mut self, sw: &mut SwitchServices<'_, '_>, seg: u64, to: IpAddr) {
        let root = self.cfg.role == AggregationRole::Root;
        if !root || self.results.entry(seg).is_none() || self.accel.is_open(seg) {
            return;
        }
        self.stats.resend_requests += 1;
        // Registered by the first request, so a run that never needs one
        // keeps its metric report unchanged.
        let name = format!("core.switch.n{:03}.resend_requests", sw.node().index());
        sw.metrics().counter(&name).inc();
        let _ = sw.send_routed(control_packet(
            self.cfg.switch_ip,
            to,
            &ControlMessage::Help { seg },
        ));
    }

    fn handle_control(&mut self, sw: &mut SwitchServices<'_, '_>, pkt: &Packet) {
        let Ok(msg) = ControlMessage::decode(&pkt.payload) else {
            return;
        };
        self.obs(sw).control_handled.inc();
        let code = msg.action_code();
        let from = pkt.ip.src;
        match msg {
            ControlMessage::Join {
                worker_id,
                grad_len,
            } => {
                let ok = grad_len as usize == self.cfg.grad_len;
                if ok {
                    self.membership.join(Member {
                        id: worker_id,
                        ip: from,
                        port: pkt.udp.src_port,
                        member_type: MemberType::Worker,
                        parent: None,
                    });
                    if self.cfg.auto_threshold {
                        self.accel
                            .set_threshold(self.membership.worker_count().max(1) as u16);
                    }
                }
                self.ack(sw, from, code, ok);
            }
            ControlMessage::Leave { worker_id } => {
                let ok = self.membership.leave(worker_id).is_some();
                if ok && self.cfg.auto_threshold && self.membership.worker_count() > 0 {
                    self.accel
                        .set_threshold(self.membership.worker_count() as u16);
                }
                self.ack(sw, from, code, ok);
            }
            ControlMessage::Reset => {
                self.reset();
                self.ack(sw, from, code, true);
            }
            ControlMessage::SetH { h } => {
                let ok = h > 0 && h <= u32::from(u16::MAX);
                if ok {
                    self.accel.set_threshold(h as u16);
                }
                self.ack(sw, from, code, ok);
            }
            ControlMessage::FBcast { seg } => {
                self.flush(sw, seg, "fbcast", Some(from));
            }
            ControlMessage::Help { seg } => {
                let kept = self.results.get(seg).cloned();
                let served = kept.is_some();
                if let Some(payload) = kept {
                    self.obs(sw).help_served.inc();
                    let reply = PendingEmit::HelpReply {
                        seg,
                        payload,
                        to: from,
                    };
                    self.schedule(sw, SimDuration::ZERO, reply);
                } else {
                    self.obs(sw).help_missed.inc();
                    self.ask_for_resend(sw, seg, from);
                }
                if let Some(trace) = sw.trace() {
                    trace.record(
                        TraceEvent::new(sw.now().as_nanos(), "switch.help")
                            .with_u64("round", u64::from(seg_round(seg)))
                            .with_u64("seg", seg_index(seg))
                            .with_str("from", from)
                            .with_u64("served", u64::from(served))
                            .with_u64("node", sw.node().index() as u64),
                    );
                }
            }
            ControlMessage::Halt => {
                // Relay the suspension to every child.
                let halt = &ControlMessage::Halt;
                self.send_children(
                    sw,
                    control_packet(self.cfg.switch_ip, RESULT_BROADCAST_IP, halt),
                );
            }
            ControlMessage::Ack { .. } => {
                // Acks terminate at the switch.
            }
        }
    }
}

impl SwitchExtension for IswitchExtension {
    fn on_packet(
        &mut self,
        sw: &mut SwitchServices<'_, '_>,
        in_port: PortId,
        pkt: Packet,
    ) -> ExtAction {
        // Classification ignores the ECN bits: an egress queue may have
        // CE-marked the packet in flight without changing its protocol tag.
        match dscp(pkt.ip.tos) {
            TOS_DATA => {
                self.handle_data(sw, in_port, &pkt);
                ExtAction::Consumed
            }
            TOS_CONTROL => {
                self.handle_control(sw, &pkt);
                ExtAction::Consumed
            }
            _ => {
                self.obs(sw).passed_through.inc();
                ExtAction::Forward(pkt)
            }
        }
    }

    fn on_timer(&mut self, sw: &mut SwitchServices<'_, '_>, token: u64) {
        if token == SWEEP_TOKEN {
            self.sweep_stale(sw);
            return;
        }
        if token == FAULT_RESET_TOKEN {
            self.reset();
            self.stats.fault_resets += 1;
            if let Some(trace) = sw.trace() {
                trace.record(
                    TraceEvent::new(sw.now().as_nanos(), "switch.fault_reset")
                        .with_u64("node", sw.node().index() as u64),
                );
            }
            return;
        }
        let Some(emit) = self.pending.remove(&token) else {
            return;
        };
        match emit {
            PendingEmit::Result { seg, payload, ce } => match self.cfg.role {
                AggregationRole::Root => {
                    let pkt = self.data_packet(RESULT_BROADCAST_IP, seg, payload, ce);
                    self.fanout_down(sw, pkt);
                }
                AggregationRole::Intermediate { uplink } => {
                    let pkt = self.data_packet(UPSTREAM_IP, seg, payload, ce);
                    sw.send_port(uplink, pkt);
                    self.obs(sw).upward_forwards.inc();
                }
            },
            PendingEmit::HelpReply { seg, payload, to } => {
                let pkt = self.data_packet(to, seg, payload, false);
                let _ = sw.send_routed(pkt);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
