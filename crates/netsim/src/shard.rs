//! Conservative parallel simulation: domains, lookahead, deterministic merge.
//!
//! A [`ShardedSim`] partitions a topology into *domains* — disjoint
//! [`Simulator`] instances (e.g. one per rack or AGG subtree) — joined only
//! by *cross-domain links*. Each domain runs its own timing wheel; packets
//! that cross a boundary are exchanged at epoch barriers under conservative
//! lookahead (the classic Chandy–Misra–Bryant null-message bound, here
//! realised as a barrier protocol):
//!
//! 1. Every domain reports the time of its earliest pending event; the
//!    global minimum `t_min` plus the *lookahead bound* `L` — the minimum
//!    over all cross-domain links of propagation delay + receiver overhead —
//!    defines the epoch horizon `H = t_min + L`.
//! 2. Each domain independently processes every event strictly before `H`.
//!    Any packet it sends across a boundary departs at or after its local
//!    clock, so it *arrives* at or after `t_min + L = H`: no domain can
//!    receive a message dated inside the epoch it is already simulating,
//!    which is exactly why processing `[t_min, H)` in parallel is safe. A
//!    packet arriving *exactly at* `H` is the boundary case: it is handed
//!    over at the barrier and processed in a later epoch.
//! 3. At the barrier, all boundary packets are merged in the deterministic
//!    order `(arrival time, source domain, per-domain send order)` and
//!    enqueued into their destination domains with fresh local sequence
//!    numbers assigned in that global order, and every domain's staged
//!    trace events are handed to the caller's sink in ascending domain
//!    order.
//!
//! Determinism is *by partition, not by thread count*: every quantity above
//! (`t_min`, `H`, each domain's event order, the merge order) is a pure
//! function of the domain partition and the workload. Threads only decide
//! which core executes a domain's epoch, never what the epoch computes, so
//! metrics, traces, stats and fingerprints are byte-identical at any
//! `--threads` value. The flip side is that a sharded run is *not* expected
//! to be event-for-event identical to an unsharded run of the same topology:
//! tie-breaking sequence numbers are per-domain. Behaviour (deliveries,
//! timings, final application state) still matches, which the property tests
//! in `tests/shard_props.rs` assert.
//!
//! **Stepped drives.** A drive of a cut partition runs *whole epochs*: a
//! deadline never shortens one, it only ends the drive at the first barrier
//! at which nothing is pending at or before it. A pause is therefore
//! invisible — the epoch sequence, and with it every export, is the same
//! however often [`ShardedSim::run_until`] is called in place of one
//! [`ShardedSim::run`].
//!
//! **One domain** is the degenerate partition: there is no cut, so the
//! lookahead is unbounded, a drive is a single epoch, nothing is exchanged
//! or accounted at a barrier, sinks are handed straight to the lone
//! [`Simulator`], and every export is byte-for-byte that simulator's own.
//!
//! Cross-domain links are built as *half-links*: each direction is a
//! separate [`crate::link::Link`] owned by the sending domain, carrying its
//! own FIFO serialization state, loss RNG and sequence counter, with a
//! [`CrossDst`] record naming the remote endpoint. The packet itself is
//! moved, never copied — its payload stays one reference-counted buffer all
//! the way across the boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use iswitch_obs::{JsonValue, Registry, Timeseries, Trace};

use crate::engine::Simulator;
use crate::ids::{LinkId, NodeId, PortId};
use crate::link::LinkSpec;
use crate::packet::Packet;
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};

/// Remote endpoint of a cross-domain half-link, captured at wiring time so
/// the sending domain can compute the full arrival timestamp (including the
/// receiver's rx overhead) without touching the destination domain.
#[derive(Debug, Clone)]
pub(crate) struct CrossDst {
    /// Destination domain index within the owning [`ShardedSim`].
    pub domain: usize,
    /// Destination node within that domain.
    pub node: NodeId,
    /// Destination port — the port bound to the *reverse* half-link, so
    /// replies flow back over the same logical link.
    pub port: PortId,
    /// Receiver-side per-packet overhead, folded into the arrival time.
    pub rx_overhead: SimDuration,
}

/// A packet in flight across a domain boundary, parked in the sending
/// domain's outbox until the next epoch barrier.
#[derive(Debug)]
pub(crate) struct CrossMsg {
    /// Absolute arrival time at the destination device.
    pub arrive: SimTime,
    /// Destination domain index.
    pub dst_domain: usize,
    /// Destination node within that domain.
    pub dst_node: NodeId,
    /// Destination port (for the device callback and rx accounting).
    pub dst_port: PortId,
    /// The packet, moved (payload is never copied on the boundary path).
    pub pkt: Packet,
}

/// Span-ID stride separating per-domain trace namespaces: domain `d`
/// allocates span IDs from `(d + 1) << 40`, leaving IDs below `1 << 40` for
/// the caller's own trace.
const SPAN_ID_STRIDE: u64 = 1 << 40;

/// One half of a cross-domain link pair as seen by one side:
/// the link id and local port bound on that side's node.
pub type CrossAttach = (LinkId, PortId);

/// A caller's observability sink paired with the per-domain staging
/// buffers that feed it (index-aligned with the domains).
type Staged<T> = Option<(Arc<T>, Vec<Arc<T>>)>;

/// A discrete-event simulation partitioned into domains.
///
/// Build domains with [`ShardedSim::add_domain`], populate each through
/// [`ShardedSim::domain_mut`] exactly like a standalone [`Simulator`], join
/// them with [`ShardedSim::connect_cross`], then [`ShardedSim::run`] (or
/// step with [`ShardedSim::run_until`]) with any thread count — results are
/// byte-identical regardless. A partition of one domain is the degenerate
/// case: no cut, no barrier, and every export is that of the bare
/// [`Simulator`].
pub struct ShardedSim {
    domains: Vec<Simulator>,
    /// Minimum cross-link latency (propagation + receiver overhead); the
    /// conservative lookahead bound. `None` while the partition has no cut.
    lookahead: Option<SimDuration>,
    /// `Some` only with several domains: one domain records straight into
    /// the caller's sink.
    trace: Staged<Trace>,
    timeseries: Staged<Timeseries>,
}

impl Default for ShardedSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedSim {
    /// Creates an empty sharded simulation with no domains.
    pub fn new() -> Self {
        ShardedSim {
            domains: Vec::new(),
            lookahead: None,
            trace: None,
            timeseries: None,
        }
    }

    /// Adds an empty domain and returns its index.
    pub fn add_domain(&mut self) -> usize {
        // A partition is laid out once: no spare slots (a `Simulator` is
        // close to a kilobyte, and `push` would start at four of them).
        self.domains.reserve_exact(1);
        self.domains.push(Simulator::in_domain(self.domains.len()));
        self.domains.len() - 1
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Borrows a domain's simulator (to read devices or stats after a run).
    pub fn domain(&self, d: usize) -> &Simulator {
        &self.domains[d]
    }

    /// Mutably borrows a domain's simulator (to add nodes and local links).
    pub fn domain_mut(&mut self, d: usize) -> &mut Simulator {
        &mut self.domains[d]
    }

    /// The conservative lookahead bound, once at least one cross-domain
    /// link exists.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Connects node `a` in one domain to node `b` in another with a
    /// bidirectional cross-domain link described by `spec`. Internally this
    /// creates one half-link per direction, each owned by its sending
    /// domain with independent FIFO and loss state. Returns the
    /// `(link, port)` attachment on each side.
    ///
    /// # Panics
    ///
    /// Panics if both ends are in the same domain (use
    /// [`Simulator::connect`] there) or the spec's latency floor is zero —
    /// a zero-lookahead link would collapse every epoch to a single event.
    pub fn connect_cross(
        &mut self,
        a: (usize, NodeId),
        b: (usize, NodeId),
        spec: &LinkSpec,
    ) -> (CrossAttach, CrossAttach) {
        let (da, na) = a;
        let (db, nb) = b;
        assert_ne!(
            da, db,
            "connect_cross joins two different domains; use Simulator::connect within one"
        );
        let rx_a = self.domains[da].node_rx_overhead(na);
        let rx_b = self.domains[db].node_rx_overhead(nb);
        let min_latency = spec.propagation + rx_a.min(rx_b);
        assert!(
            min_latency > SimDuration::ZERO,
            "cross-domain links need positive propagation + rx overhead (lookahead bound)"
        );
        self.lookahead = Some(self.lookahead.map_or(min_latency, |l| l.min(min_latency)));
        // The ports bound on each side must reference each other, and a
        // half-link occupies the next free port on its node — so both sides'
        // port numbers are known before either half-link exists.
        let pa = PortId::new(self.domains[da].port_count_of(na));
        let pb = PortId::new(self.domains[db].port_count_of(nb));
        let label_a = self.domains[da].node_label(na).to_owned();
        let label_b = self.domains[db].node_label(nb).to_owned();
        let (la, pa_actual) = self.domains[da].connect_remote(
            na,
            spec,
            &label_b,
            CrossDst {
                domain: db,
                node: nb,
                port: pb,
                rx_overhead: rx_b,
            },
        );
        let (lb, pb_actual) = self.domains[db].connect_remote(
            nb,
            spec,
            &label_a,
            CrossDst {
                domain: da,
                node: na,
                port: pa,
                rx_overhead: rx_a,
            },
        );
        debug_assert_eq!(pa, pa_actual);
        debug_assert_eq!(pb, pb_actual);
        ((la, pa), (lb, pb))
    }

    /// Installs a causal trace sink for the whole run.
    ///
    /// A lone domain records straight into `trace`. Several domains each
    /// record into a private in-memory buffer (streaming directly to a
    /// shared sink would interleave domains nondeterministically); at every
    /// epoch barrier the buffers are handed to `trace` in ascending domain
    /// order, which preserves the streaming/bounding behaviour the caller
    /// configured on it and holds at most one epoch of events in memory.
    /// The stream is epoch-major, domain-minor, then record order: sorted
    /// by time to within one lookahead. Span IDs are disjoint per domain
    /// (see `SPAN_ID_STRIDE`).
    ///
    /// Call after every domain has been added and before the first run.
    pub fn set_trace(&mut self, trace: Arc<Trace>) {
        if let [only] = &mut self.domains[..] {
            return only.set_trace(trace);
        }
        let staged: Vec<_> = (1..=self.domains.len() as u64)
            .map(|d| Arc::new(Trace::new().with_span_start(d * SPAN_ID_STRIDE)))
            .collect();
        for (sim, t) in self.domains.iter_mut().zip(&staged) {
            sim.set_trace(Arc::clone(t));
        }
        self.trace = Some((trace, staged));
    }

    /// Installs a counter-track telemetry sink for the whole run.
    ///
    /// Mirrors [`ShardedSim::set_trace`]: a lone domain samples straight
    /// into `ts`; several domains each sample into a private
    /// [`Timeseries`] (a shared instance would interleave domains
    /// nondeterministically under threads), drained into `ts` in ascending
    /// domain order every time [`ShardedSim::run_until`] returns. Track
    /// names are globally unique (node labels, run-unique link identities
    /// and domain indices disambiguate), so the merged export is
    /// byte-identical for every thread count.
    ///
    /// Call after every domain has been added and before the first run.
    pub fn set_timeseries(&mut self, ts: Arc<Timeseries>) {
        if let [only] = &mut self.domains[..] {
            return only.set_timeseries(ts);
        }
        let staged: Vec<_> = (0..self.domains.len())
            .map(|_| Arc::new(Timeseries::new(ts.interval_ns())))
            .collect();
        for (sim, t) in self.domains.iter_mut().zip(&staged) {
            sim.set_timeseries(Arc::clone(t));
        }
        self.timeseries = Some((ts, staged));
    }

    /// Declares which tenant the whole partition belongs to (see
    /// [`Simulator::set_tenant`]).
    pub fn set_tenant(&mut self, tenant: u64) {
        for sim in &mut self.domains {
            sim.set_tenant(tenant);
        }
    }

    /// The global simulation clock: the furthest any domain has advanced.
    pub fn now(&self) -> SimTime {
        self.domains
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether no domain has a pending event: a run driven in
    /// [`ShardedSim::run_until`] slices is finished exactly when this turns
    /// true (crossings are handed over before every return, so none is in
    /// limbo between slices).
    pub fn is_idle(&mut self) -> bool {
        self.domains.iter_mut().all(|s| s.is_idle())
    }

    /// Aggregate statistics summed across domains (`max_link_backlog` takes
    /// the maximum — no single link ever saw the sum).
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for sim in &self.domains {
            total.merge_from(sim.stats());
        }
        total
    }

    /// One registry holding every domain's metrics, merged deterministically
    /// (see [`Registry::merge_from`]).
    pub fn merged_metrics(&self) -> Registry {
        let merged = Registry::new();
        for sim in &self.domains {
            merged.merge_from(sim.metrics());
        }
        merged
    }

    /// Deterministic JSON snapshot. A lone domain renders exactly
    /// [`Simulator::metrics_json`]; a partition with several renders the
    /// same engine summary over all of them (global clock, summed event
    /// counts, total links and nodes) plus what only a cut has — domain
    /// count, lookahead, epochs, barrier stall — and the merged registry.
    pub fn metrics_json(&self) -> JsonValue {
        if let [only] = &self.domains[..] {
            return only.metrics_json();
        }
        let now = self.now();
        let stats = self.stats();
        let mut engine = JsonValue::empty_object();
        engine.insert("sim_time_ns", JsonValue::UInt(now.as_nanos()));
        engine.insert("events_processed", JsonValue::UInt(stats.events_processed));
        let secs = now.as_secs_f64();
        let throughput = if secs > 0.0 {
            stats.events_processed as f64 / secs
        } else {
            0.0
        };
        engine.insert("events_per_sim_sec", JsonValue::Float(throughput));
        engine.insert(
            "links",
            JsonValue::UInt(self.domains.iter().map(|s| s.link_count() as u64).sum()),
        );
        engine.insert(
            "nodes",
            JsonValue::UInt(self.domains.iter().map(|s| s.node_count() as u64).sum()),
        );
        engine.insert("domains", JsonValue::UInt(self.domains.len() as u64));
        engine.insert(
            "lookahead_ns",
            JsonValue::UInt(self.lookahead.map_or(0, |l| l.as_nanos())),
        );
        engine.insert("epochs", JsonValue::UInt(stats.epochs));
        engine.insert("barrier_stall_ns", JsonValue::UInt(stats.barrier_stall_ns));
        let mut root = JsonValue::empty_object();
        root.insert("engine", engine);
        root.insert("metrics", self.merged_metrics().to_json());
        root
    }

    /// Runs every domain to quiescence: [`ShardedSim::run_until`] with no
    /// deadline.
    pub fn run(&mut self, threads: usize) -> SimTime {
        self.run_until(SimTime::MAX, threads)
    }

    /// Processes every event up to and including `deadline` using up to
    /// `threads` worker threads, then drains the per-domain telemetry
    /// buffers into the caller's sink. Returns the global clock.
    ///
    /// A partition without a cut stops exactly at `deadline`. A cut
    /// partition runs whole epochs and stops at the first barrier at which
    /// nothing is pending at or before `deadline`, so domain clocks may end
    /// up to `L − 1` ns past it; [`ShardedSim::is_idle`] between drives
    /// still means finished.
    ///
    /// Neither the deadline nor the thread count (which caps parallelism at
    /// the domain count) is part of the simulation semantics — see the
    /// module docs for the determinism argument.
    pub fn run_until(&mut self, deadline: SimTime, threads: usize) -> SimTime {
        assert!(threads >= 1, "need at least one worker thread");
        let epochs = Epochs {
            lookahead: self.lookahead.map(|l| l.as_nanos()),
            deadline: deadline.as_nanos(),
        };
        let threads = threads.min(self.domains.len());
        if threads > 1 {
            self.run_epochs_parallel(epochs, threads);
        } else {
            self.run_epochs_sequential(epochs);
        }
        if let Some((user, staged)) = &self.timeseries {
            // Ascending domain order; track names are disjoint across
            // domains, so this is a union independent of thread count.
            staged.iter().for_each(|ts| ts.drain_into(user));
        }
        self.now()
    }

    /// Single-threaded epoch loop: the reference semantics the parallel
    /// path must (and does) reproduce exactly.
    fn run_epochs_sequential(&mut self, epochs: Epochs) {
        let mut crossings = Vec::new();
        loop {
            let t_min = self
                .domains
                .iter_mut()
                .filter_map(|s| s.next_event_at())
                .min()
                .unwrap_or(IDLE);
            let Some(horizon) = epochs.horizon(t_min) else {
                break;
            };
            for (d, sim) in self.domains.iter_mut().enumerate() {
                crossings.extend(epochs.run_domain(d, sim, t_min, horizon));
            }
            end_epoch(&mut self.domains, 0, &mut crossings, &self.trace);
        }
    }

    /// Barrier-synchronised parallel epoch loop. Domains are assigned to
    /// workers in contiguous chunks; every worker independently computes the
    /// same `t_min`/horizon from shared per-worker minima, runs its own
    /// domains, and applies the (globally sorted) boundary merge to its own
    /// domains only — so no value anywhere depends on which worker ran
    /// first. Between the second and third barrier no domain executes, which
    /// is when the worker holding domain 0 hands the staged trace over.
    fn run_epochs_parallel(&mut self, epochs: Epochs, threads: usize) {
        let n = self.domains.len();
        // Contiguous balanced chunks: first `n % threads` workers get one
        // extra domain. The assignment affects load balance only.
        let base = n / threads;
        let extra = n % threads;
        let mut bounds = Vec::with_capacity(threads + 1);
        bounds.push(0usize);
        for w in 0..threads {
            bounds.push(bounds[w] + base + usize::from(w < extra));
        }
        // One slot per worker: the crossings its chunk emitted this epoch,
        // as `(send index, global domain index, claimable message)`.
        type OutboxSlot = Mutex<Vec<(u64, usize, Option<CrossMsg>)>>;
        let mins: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(IDLE)).collect();
        let outboxes: Vec<OutboxSlot> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(threads);
        let trace = &self.trace;

        let mut chunks: Vec<(usize, &mut [Simulator])> = Vec::with_capacity(threads);
        let mut rest = self.domains.as_mut_slice();
        for w in 0..threads {
            let (chunk, tail) = rest.split_at_mut(bounds[w + 1] - bounds[w]);
            chunks.push((bounds[w], chunk));
            rest = tail;
        }

        std::thread::scope(|scope| {
            for (w, (chunk_base, chunk)) in chunks.into_iter().enumerate() {
                let mins = &mins;
                let outboxes = &outboxes;
                let barrier = &barrier;
                scope.spawn(move || {
                    let chunk_len = chunk.len();
                    // Both buffers live as long as the drive: `sent` trades
                    // places with this worker's slot every epoch.
                    let mut sent = Vec::new();
                    let mut mine: Vec<(u64, usize, CrossMsg)> = Vec::new();
                    loop {
                        let local_min = chunk
                            .iter_mut()
                            .filter_map(|s| s.next_event_at())
                            .min()
                            .unwrap_or(IDLE);
                        mins[w].store(local_min, Ordering::Relaxed);
                        barrier.wait();
                        let t_min = mins
                            .iter()
                            .map(|m| m.load(Ordering::Relaxed))
                            .min()
                            .expect("at least one worker");
                        let Some(horizon) = epochs.horizon(t_min) else {
                            break;
                        };
                        sent.clear();
                        for (i, sim) in chunk.iter_mut().enumerate() {
                            sent.extend(
                                epochs
                                    .run_domain(chunk_base + i, sim, t_min, horizon)
                                    .map(|(j, d, m)| (j, d, Some(m))),
                            );
                        }
                        std::mem::swap(&mut *outboxes[w].lock().expect("outbox lock"), &mut sent);
                        barrier.wait();
                        // Claim the crossings destined for this worker's
                        // domains. Each message has exactly one destination,
                        // so ownership transfer is race-free under the
                        // per-slot locks; sorting afterwards restores the
                        // global deterministic order.
                        for slot in outboxes.iter() {
                            let mut slot = slot.lock().expect("outbox lock");
                            for (j, d, m) in slot.iter_mut() {
                                let dst = m.as_ref().map(|m| m.dst_domain);
                                if let Some(dst) = dst {
                                    if dst >= chunk_base && dst < chunk_base + chunk_len {
                                        mine.push((*j, *d, m.take().expect("unclaimed message")));
                                    }
                                }
                            }
                        }
                        end_epoch(&mut *chunk, chunk_base, &mut mine, trace);
                        // Third barrier: nobody may overwrite an outbox slot
                        // for the next epoch while another worker still
                        // scans it.
                        barrier.wait();
                    }
                });
            }
        });
    }
}

/// `t_min` when no domain has a pending event.
const IDLE: u64 = u64::MAX;

/// The epoch schedule of one [`ShardedSim::run_until`] drive.
#[derive(Clone, Copy)]
struct Epochs {
    /// The lookahead bound in nanoseconds; `None` without a cut.
    lookahead: Option<u64>,
    /// Last instant to process, in nanoseconds.
    deadline: u64,
}

impl Epochs {
    /// The one horizon rule: the epoch opening at `t_min` (the earliest
    /// pending event anywhere) runs to `t_min + L`, exclusive — a whole
    /// epoch, wherever the deadline falls. `None` ends the drive: nothing
    /// is pending, or nothing at or before the deadline. Without a cut `L`
    /// is unbounded, so the whole drive is one epoch that stops at the
    /// deadline.
    fn horizon(&self, t_min: u64) -> Option<u64> {
        (t_min != IDLE && t_min <= self.deadline).then(|| match self.lookahead {
            Some(l) => t_min.saturating_add(l),
            None => self.deadline.saturating_add(1),
        })
    }

    /// Runs domain `d` through the epoch `[t_min, horizon)`, books the
    /// epoch (a partition without a cut has no barrier to account for) and
    /// drains what the domain sent across the cut, keyed for the merge as
    /// `(per-domain send index, source domain, message)`.
    fn run_domain<'s>(
        &self,
        d: usize,
        sim: &'s mut Simulator,
        t_min: u64,
        horizon: u64,
    ) -> impl Iterator<Item = (u64, usize, CrossMsg)> + 's {
        let events_before = sim.stats().events_processed;
        sim.run_until_before(horizon);
        if self.lookahead.is_some() {
            sim.record_epoch(d, t_min, horizon, events_before);
        }
        let sent = sim.drain_outbox().enumerate();
        sent.map(move |(i, m)| (i as u64, d, m))
    }
}

/// Closes an epoch for `domains` — a contiguous chunk starting at global
/// index `base`, called while no domain executes. Applies the chunk's batch
/// of boundary crossings (messages outside it are a bug) in the global
/// deterministic order `(arrival, source domain, per-domain send index)`;
/// the one caller holding domain 0 also hands every domain's staged trace
/// events to the caller's sink, domain by domain in record order. Leaves
/// `crossings` empty, its buffer kept for the next epoch.
fn end_epoch(
    domains: &mut [Simulator],
    base: usize,
    crossings: &mut Vec<(u64, usize, CrossMsg)>,
    trace: &Staged<Trace>,
) {
    // `(src, idx)` is unique, so an unstable sort (which needs no scratch
    // buffer) gives the one order.
    crossings.sort_unstable_by_key(|(idx, src, m)| (m.arrive, *src, *idx));
    for (_, _, m) in crossings.drain(..) {
        domains[m.dst_domain - base].push_cross(m.arrive, m.dst_node, m.dst_port, m.pkt);
    }
    if let (0, Some((user, staged))) = (base, trace) {
        for events in staged.iter().map(|t| t.drain()) {
            events.into_iter().for_each(|ev| user.record(ev));
        }
    }
}
