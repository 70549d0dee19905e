//! Engine-level observability: per-link metrics and event-loop counters.
//!
//! Every [`crate::Simulator`] owns an [`iswitch_obs::Registry`]; the engine
//! records into pre-resolved handles on the hot path (a plain load and
//! store per record, no locked instruction), and devices — switch
//! extensions, host apps — can register their own metrics into the same
//! registry through [`crate::Context::metrics`]. One export therefore
//! captures the whole stack of a run.
//!
//! The registry is written by whichever thread is driving this simulator
//! and by no other: a simulator is driven through `&mut self`, and
//! [`crate::ShardedSim`] hands each domain to one worker per epoch, with a
//! barrier between owners. That is the single-writer rule
//! [`iswitch_obs::metrics`] asks for.
//!
//! Naming scheme (sorted exports keep it diffable):
//!
//! * `netsim.events.{start,deliver,timer,timer_cancelled}` — counters per
//!   event kind, the event-loop throughput numerator.
//! * `netsim.queue.depth` — gauge of the scheduler's pending-event count
//!   (watermark = peak outstanding events).
//! * `netsim.link.NNN.{a->b|b->a}.backlog_ns` — histogram of the queueing
//!   backlog (time until this packet departs) sampled at each transmit;
//!   this is the paper's PS-downlink congestion signal (§5.2).
//! * `netsim.link.NNN.{dir}.inflight` — gauge of packets queued or on the
//!   wire per directed link (watermark = peak per-port queue depth).
//! * `netsim.link.NNN.{dir}.{tx_packets,tx_bytes,drops,ecn_marks}` —
//!   counters.

use std::sync::Arc;

use iswitch_obs::{Counter, Gauge, Histogram, Registry};

/// Pre-resolved metric handles for one direction of one link.
#[derive(Debug, Clone)]
pub(crate) struct LinkDirObs {
    /// Queueing backlog (ns until departure) sampled at each transmit.
    pub backlog_ns: Arc<Histogram>,
    /// Packets queued or propagating on this directed link right now.
    pub inflight: Arc<Gauge>,
    /// Packets handed to this directed link.
    pub tx_packets: Arc<Counter>,
    /// Wire bytes handed to this directed link.
    pub tx_bytes: Arc<Counter>,
    /// Packets dropped by the loss model on this directed link.
    pub drops: Arc<Counter>,
    /// Packets ECN-CE marked by this directed link's egress queue.
    pub ecn_marks: Arc<Counter>,
    /// Telemetry track names, built beside the handles so a sample formats
    /// nothing. `None` in the unused reverse slot of a one-way half-link
    /// (see [`EngineObs::add_link_oneway`]), so samplers skip its aliased
    /// handles.
    pub tracks: Option<LinkTracks>,
}

/// One directed link's telemetry track names
/// (`netsim.link.NNN.{src}->{dst}.*`, `NNN` the run-unique link identity).
#[derive(Debug, Clone)]
pub(crate) struct LinkTracks {
    pub queue_bytes: String,
    pub ecn_marks: String,
    pub drops: String,
}

/// Engine-wide metric handles, resolved once at construction/connect time.
#[derive(Debug)]
pub(crate) struct EngineObs {
    registry: Arc<Registry>,
    /// Start events dispatched.
    pub ev_start: Arc<Counter>,
    /// Deliver events dispatched.
    pub ev_deliver: Arc<Counter>,
    /// Timer events dispatched (fired, not cancelled).
    pub ev_timer: Arc<Counter>,
    /// Timer events suppressed by cancellation.
    pub ev_timer_cancelled: Arc<Counter>,
    /// Fault-plan actions applied.
    pub ev_fault: Arc<Counter>,
    /// Scheduler queue depth; watermark is the peak outstanding event count.
    pub queue_depth: Arc<Gauge>,
    /// Indexed by `links[link][direction]`.
    pub links: Vec<[LinkDirObs; 2]>,
    /// This domain's `shard.domain.DDD.{busy_ns,stall_ns,epoch_events}`
    /// track names, built by the first epoch that records them.
    pub epoch_tracks: Option<[String; 3]>,
}

impl EngineObs {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        EngineObs {
            ev_start: registry.counter("netsim.events.start"),
            ev_deliver: registry.counter("netsim.events.deliver"),
            ev_timer: registry.counter("netsim.events.timer"),
            ev_timer_cancelled: registry.counter("netsim.events.timer_cancelled"),
            ev_fault: registry.counter("netsim.events.fault"),
            queue_depth: registry.gauge("netsim.queue.depth"),
            links: Vec::new(),
            epoch_tracks: None,
            registry,
        }
    }

    /// The registry all engine metrics live in.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Handles and track names of the `src->dst` direction of a link. Metric
    /// names carry the domain-local `link_index`, telemetry tracks the
    /// run-unique `link_uid` (per-domain registries never meet; track
    /// exports merge).
    fn dir_obs(&self, link_index: usize, link_uid: u64, src: &str, dst: &str) -> LinkDirObs {
        let name = |metric: &str| format!("netsim.link.{link_index:03}.{src}->{dst}.{metric}");
        let track = |track: &str| format!("netsim.link.{link_uid:03}.{src}->{dst}.{track}");
        LinkDirObs {
            backlog_ns: self.registry.histogram(&name("backlog_ns")),
            inflight: self.registry.gauge(&name("inflight")),
            tx_packets: self.registry.counter(&name("tx_packets")),
            tx_bytes: self.registry.counter(&name("tx_bytes")),
            drops: self.registry.counter(&name("drops")),
            ecn_marks: self.registry.counter(&name("ecn_marks")),
            tracks: Some(LinkTracks {
                queue_bytes: track("queue_bytes"),
                ecn_marks: track("ecn_marks"),
                drops: track("drops"),
            }),
        }
    }

    /// Registers the metric set for a new link. `a_label`/`b_label` are the
    /// endpoint node labels; direction 0 carries a→b traffic.
    pub(crate) fn add_link(
        &mut self,
        link_index: usize,
        link_uid: u64,
        a_label: &str,
        b_label: &str,
    ) {
        debug_assert_eq!(link_index, self.links.len(), "links register in id order");
        self.links.push([
            self.dir_obs(link_index, link_uid, a_label, b_label),
            self.dir_obs(link_index, link_uid, b_label, a_label),
        ]);
    }

    /// Registers the metric set for a cross-domain half-link: only the
    /// outbound `src->dst` direction exists here (the reverse direction is
    /// a separate half-link in the peer domain), so no reverse-direction
    /// names pollute the export. The unused direction slot aliases the
    /// forward handles to keep the `[link][dir]` indexing shape.
    pub(crate) fn add_link_oneway(
        &mut self,
        link_index: usize,
        link_uid: u64,
        src_label: &str,
        dst_label: &str,
    ) {
        debug_assert_eq!(link_index, self.links.len(), "links register in id order");
        let fwd = self.dir_obs(link_index, link_uid, src_label, dst_label);
        let unused = LinkDirObs {
            tracks: None,
            ..fwd.clone()
        };
        self.links.push([fwd, unused]);
    }
}
