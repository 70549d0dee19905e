//! The unified strategy runtime: one event-driven worker driving every
//! training strategy through shared iteration, span, and update machinery.
//!
//! A [`StrategyRuntime`] owns the pieces every worker used to duplicate —
//! the compute/communication models, the jitter RNG, the per-iteration
//! [`IterLog`], the async version/staleness bookkeeping, and the pacing
//! state machine — and delegates only the protocol-specific wire behaviour
//! (what to send, how to recognize a completed aggregate) to a
//! [`StrategyProtocol`]. The gradient payload behind the protocol comes
//! from a [`GradientSource`], which is what makes the same runtime serve
//! both timing mode (synthetic bytes) and co-simulation (real agents).
//!
//! ## Pacing
//!
//! * [`Pacing::Sync`] — the classic synchronous loop: compute span →
//!   protocol round → aggregation → weight update, repeated a fixed number
//!   of iterations, with [`IterLog`] spans recorded.
//! * [`Pacing::Pipelined`] — the paper's asynchronous iSwitch pipeline
//!   (§4.1, Alg. 1): local gradient computing never blocks on aggregation;
//!   commits are gated by the staleness bound; weight updates land on
//!   broadcast arrivals.
//! * [`Pacing::Driven`] — the protocol runs its own loop (the async PS
//!   pull → compute → push cycle) on top of the runtime's services.

use std::any::Any;
use std::collections::VecDeque;

use iswitch_netsim::{HostApp, HostCtx, IpAddr, Packet, SimDuration, SimTime};
use iswitch_obs::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::apps::common::IterLog;
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::GradientSource;
use crate::staleness::StalenessLedger;
use crate::transport::{Transport, TransportStats};

/// Runtime-reserved timer tokens live below this; protocol tokens must be
/// `>= PROTO_BASE`. Token *values* never affect event ordering (ties break
/// by scheduling order), so the two ranges only need to be disjoint.
pub const PROTO_BASE: u64 = 16;

const T_COMPUTE: u64 = 1;
const T_AGG: u64 = 2;
const T_UPDATE: u64 = 3;
const T_COMMIT: u64 = 4;

/// How the runtime sequences work.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Fixed-iteration synchronous loop with span logging.
    Sync {
        /// Iterations to run (including warmup).
        iterations: usize,
    },
    /// Three-stage asynchronous pipeline with a staleness gate.
    Pipelined {
        /// Staleness bound `S` (Alg. 1).
        staleness_bound: u32,
        /// Stop starting new computations at this time.
        deadline: Option<SimTime>,
    },
    /// The protocol drives its own loop.
    Driven {
        /// Stop starting new cycles at this time.
        deadline: Option<SimTime>,
    },
}

/// Shared per-worker state owned by the runtime and readable (and, for
/// counters, writable) by protocols through [`Rt`].
pub struct WorkerCore {
    /// Local compute-span model.
    pub compute: ComputeModel,
    /// Host software communication costs.
    pub comm: CommCosts,
    /// Jitter RNG; draw order is part of the timing contract.
    pub rng: StdRng,
    /// Collectives per iteration (dual-model DDPG pushes two vectors).
    pub messages: u64,
    /// Per-iteration span log (sync pacing).
    pub log: IterLog,
    /// Current iteration (sync pacing).
    pub iter: u32,
    /// Local weight version `ts` (count of applied global updates).
    pub version: u32,
    /// Version the in-flight gradient was computed from (`tw`).
    pub compute_from: u32,
    /// Whether the deadline stopped this worker.
    pub stopped: bool,
    /// Completion time of every local weight update (async pacing).
    pub update_times: Vec<SimTime>,
    /// Staleness admission state: records `ts - tw` of every committed
    /// gradient and counts skips past the bound (Alg. 1 lines 8/11).
    pub ledger: StalenessLedger,
    /// Gradients committed to the network (async pushes).
    pub commits: u64,
    pacing: Pacing,
    /// Start of the current phase, for span emission.
    phase_start: SimTime,
}

impl WorkerCore {
    /// A fresh core with the given models and pacing.
    pub fn new(
        compute: ComputeModel,
        comm: CommCosts,
        messages: u64,
        seed: u64,
        pacing: Pacing,
    ) -> Self {
        // Only pipelined pacing gates on staleness; the other modes never
        // call `admit`, so an unbounded ledger is inert for them.
        let bound = match pacing {
            Pacing::Pipelined {
                staleness_bound, ..
            } => staleness_bound,
            _ => u32::MAX,
        };
        WorkerCore {
            compute,
            comm,
            rng: StdRng::seed_from_u64(seed),
            messages: messages.max(1),
            log: IterLog::new(),
            iter: 0,
            version: 0,
            compute_from: 0,
            stopped: false,
            update_times: Vec::new(),
            ledger: StalenessLedger::new(bound),
            commits: 0,
            pacing,
            phase_start: SimTime::ZERO,
        }
    }
}

/// Records a closed `[start_ns, now]` phase span for the worker at
/// `ctx.ip()` when the simulation trace is enabled. `seq` is the iteration
/// (sync pacing) or commit/update sequence number (async pacing); the
/// `worker` attribute carries the host's IPv4 address as `u32`, matching
/// the producer identity on packet lifecycle events.
fn emit_phase(ctx: &HostCtx<'_, '_>, name: &'static str, start_ns: u64, seq: u64) {
    if let Some(trace) = ctx.trace() {
        Span::begin(trace.alloc_span_id(), name, start_ns)
            .attr_u64("worker", u64::from(ctx.ip().as_u32()))
            .attr_u64("iter", seq)
            .end(ctx.now().as_nanos())
            .emit(trace);
    }
}

/// What a protocol callback tells the runtime.
pub enum ProtoEvent {
    /// Nothing the runtime needs to act on.
    None,
    /// One aggregation round completed.
    Complete(RoundOutcome),
}

/// A completed aggregation round, as seen by the protocol.
pub struct RoundOutcome {
    /// The reassembled aggregate, when the source wants real values.
    pub aggregate: Option<Vec<f32>>,
    /// Delay between round completion and the aggregation-done mark
    /// (receiver-side software cost paid *before* the mark, PS-style).
    pub agg_delay: SimDuration,
    /// Delay between the aggregation-done mark and the end of the local
    /// weight update.
    pub update_tail: SimDuration,
}

/// Runtime services handed to protocol callbacks: the simulator context,
/// the shared core, and the gradient source, borrowed together.
pub struct Rt<'a, 'b, 'c> {
    /// Simulator services (time, send, timers).
    pub ctx: &'a mut HostCtx<'b, 'c>,
    /// Shared worker state.
    pub core: &'a mut WorkerCore,
    /// The gradient payload behind this worker.
    pub source: &'a mut dyn GradientSource,
}

impl Rt<'_, '_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This worker's IP.
    pub fn ip(&self) -> IpAddr {
        self.ctx.ip()
    }

    /// Current iteration (sync pacing).
    pub fn iter(&self) -> u32 {
        self.core.iter
    }

    /// Sends a packet.
    pub fn send(&mut self, pkt: Packet) {
        self.ctx.send(pkt);
    }

    /// Schedules a protocol timer (`token` must be `>= PROTO_BASE`).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        debug_assert!(token >= PROTO_BASE, "protocol tokens start at PROTO_BASE");
        self.ctx.set_timer(delay, token);
    }

    /// Sender-side software cost for one full collective set.
    pub fn phase_send_cost(&self) -> SimDuration {
        self.core.comm.phase_send() * self.core.messages
    }

    /// Receiver-side software cost for one full collective set.
    pub fn phase_recv_cost(&self) -> SimDuration {
        self.core.comm.phase_recv() * self.core.messages
    }

    /// Software summation cost for `n` vectors of `bytes`.
    pub fn sum_time(&self, n: usize, bytes: usize) -> SimDuration {
        self.core.comm.sum_time(n, bytes)
    }

    /// Draws one local-compute span.
    pub fn draw_compute(&mut self) -> SimDuration {
        self.core.compute.sample_local_compute(&mut self.core.rng)
    }

    /// Draws one weight-update span.
    pub fn draw_weight_update(&mut self) -> SimDuration {
        self.core.compute.sample_weight_update(&mut self.core.rng)
    }

    /// Records a phase span `[start, now]` for this worker when tracing is
    /// enabled (no-op otherwise). Protocols that drive their own loop use
    /// this to report compute/push phases the runtime cannot see.
    pub fn emit_phase(&self, name: &'static str, start: SimTime, seq: u64) {
        emit_phase(self.ctx, name, start.as_nanos(), seq);
    }

    /// Whether the pacing deadline (if any) has passed.
    pub fn deadline_reached(&self) -> bool {
        let deadline = match self.core.pacing {
            Pacing::Pipelined { deadline, .. } | Pacing::Driven { deadline } => deadline,
            Pacing::Sync { .. } => None,
        };
        matches!(deadline, Some(d) if self.ctx.now() >= d)
    }
}

/// Protocol-specific wire behaviour plugged into the [`StrategyRuntime`].
///
/// Default implementations are no-ops so each protocol implements only the
/// hooks its pacing uses.
pub trait StrategyProtocol: Send + 'static {
    /// Called once at simulation start, before the first iteration.
    fn on_start(&mut self, _rt: &mut Rt<'_, '_, '_>) {}

    /// Sync pacing: reset per-round state at the top of iteration `iter`.
    fn begin_round(&mut self, _iter: u32) {}

    /// Sync pacing: the compute span ended; start this round's collective.
    fn start_round(&mut self, _rt: &mut Rt<'_, '_, '_>) {}

    /// Pipelined pacing: the commit send-phase ended; put the gradient on
    /// the wire.
    fn commit(&mut self, _rt: &mut Rt<'_, '_, '_>) {}

    /// A packet arrived.
    fn on_packet(&mut self, _rt: &mut Rt<'_, '_, '_>, _pkt: Packet) -> ProtoEvent {
        ProtoEvent::None
    }

    /// A protocol timer (token `>= PROTO_BASE`) fired.
    fn on_timer(&mut self, _rt: &mut Rt<'_, '_, '_>, _token: u64) -> ProtoEvent {
        ProtoEvent::None
    }

    /// The wire policy this protocol sends through: its activity counters
    /// and paced rate feed the worker's telemetry tracks and the run's
    /// transport summary.
    fn transport(&self) -> &dyn Transport;

    /// The slot holding the wire policy, for replacing or configuring it
    /// before the run starts.
    fn transport_mut(&mut self) -> &mut Box<dyn Transport>;
}

/// Post-run, strategy-independent view of a finished worker: everything
/// a result collector reads, whatever protocol drove the worker. Obtained
/// through a `fn(&Host) -> &dyn WorkerView` fixed when the job is built,
/// so nothing on the per-event path goes through it.
pub trait WorkerView {
    /// The per-iteration span log (sync pacing).
    fn log(&self) -> &IterLog;
    /// Completion time of every local weight update (async pacing).
    fn update_times(&self) -> &[SimTime];
    /// Staleness of every committed gradient (async pacing).
    fn staleness(&self) -> &[u32];
    /// Transport activity counters (recovery + congestion control).
    fn transport_stats(&self) -> TransportStats;
    /// The gradient source backing the worker.
    fn source(&self) -> &dyn GradientSource;
}

impl<P: StrategyProtocol> WorkerView for StrategyRuntime<P> {
    fn log(&self) -> &IterLog {
        self.log()
    }
    fn update_times(&self) -> &[SimTime] {
        self.update_times()
    }
    fn staleness(&self) -> &[u32] {
        self.staleness()
    }
    fn transport_stats(&self) -> TransportStats {
        self.transport_stats()
    }
    fn source(&self) -> &dyn GradientSource {
        self.source()
    }
}

/// The unified strategy worker: shared runtime + protocol + gradient
/// source. Concrete strategies are type aliases over this.
pub struct StrategyRuntime<P: StrategyProtocol> {
    core: WorkerCore,
    proto: P,
    source: Box<dyn GradientSource>,
    /// Completed rounds awaiting their aggregation/update tail timers.
    pending: VecDeque<RoundOutcome>,
}

impl<P: StrategyProtocol> StrategyRuntime<P> {
    /// Assembles a runtime from its parts.
    pub fn from_parts(core: WorkerCore, proto: P, source: Box<dyn GradientSource>) -> Self {
        StrategyRuntime {
            core,
            proto,
            source,
            pending: VecDeque::new(),
        }
    }

    /// The per-iteration span log (sync pacing).
    pub fn log(&self) -> &IterLog {
        &self.core.log
    }

    /// Completion time of every local weight update (async pacing).
    pub fn update_times(&self) -> &[SimTime] {
        &self.core.update_times
    }

    /// Staleness of every committed gradient (async pacing).
    pub fn staleness(&self) -> &[u32] {
        self.core.ledger.admitted()
    }

    /// Gradients skipped for exceeding the staleness bound.
    pub fn skipped(&self) -> u64 {
        self.core.ledger.rejected()
    }

    /// Gradients committed to the network.
    pub fn commits(&self) -> u64 {
        self.core.commits
    }

    /// The gradient source backing this worker.
    pub fn source(&self) -> &dyn GradientSource {
        &*self.source
    }

    /// The protocol state backing this worker.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Mutable access to the protocol state (builder-style configuration).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.proto
    }

    /// Mutable access to the gradient source (weight seeding in co-sim).
    pub fn source_mut(&mut self) -> &mut dyn GradientSource {
        &mut *self.source
    }

    /// Replaces the wire policy (default: [`crate::transport::GoBackRetransmit`],
    /// which for protocols without loss recovery means plain unpaced sends).
    pub fn with_transport(mut self, transport: Box<dyn Transport>) -> Self {
        *self.proto.transport_mut() = transport;
        self
    }

    /// Transport activity counters (recovery + congestion control).
    pub fn transport_stats(&self) -> TransportStats {
        self.proto.transport().stats()
    }

    fn rt_call<R>(
        &mut self,
        ctx: &mut HostCtx<'_, '_>,
        f: impl FnOnce(&mut P, &mut Rt<'_, '_, '_>) -> R,
    ) -> R {
        let mut rt = Rt {
            ctx,
            core: &mut self.core,
            source: &mut *self.source,
        };
        f(&mut self.proto, &mut rt)
    }

    /// Samples this worker's `cluster.worker.IP.*` transport tracks at the
    /// current time. Called at iteration boundaries (sync) and commit/update
    /// boundaries (async); a no-op without a telemetry sink. Values are
    /// cumulative counters plus the instantaneous paced rate, so the sink's
    /// change-collapse keeps idle workers free.
    fn sample_transport(&self, ctx: &HostCtx<'_, '_>) {
        let Some(ts) = ctx.timeseries() else { return };
        let transport = self.proto.transport();
        // Transports without a rate controller record a rate of 0.
        let (stats, rate) = (transport.stats(), transport.current_rate_bps());
        let t = ctx.now().as_nanos();
        let base = format!("cluster.worker.{}", ctx.ip());
        ts.record(&format!("{base}.tx_rate_bps"), t, rate.unwrap_or(0) as i64);
        ts.record(&format!("{base}.ecn_echoes"), t, stats.ecn_echoes as i64);
        ts.record(&format!("{base}.retransmits"), t, stats.retransmits as i64);
        ts.record(&format!("{base}.rate_cuts"), t, stats.rate_cuts as i64);
        ts.record(
            &format!("{base}.help_requests"),
            t,
            stats.help_requests as i64,
        );
        ts.record(&format!("{base}.nacks_sent"), t, stats.nacks_sent as i64);
    }

    /// Sync: top of an iteration — span start, round reset, compute draw.
    fn begin_iteration(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.core.log.start(ctx.now());
        self.core.phase_start = ctx.now();
        self.proto.begin_round(self.core.iter);
        // Sample after the round reset so the track reflects the rate this
        // round will actually pace at (DCQCN adjusts in `begin_round`).
        self.sample_transport(ctx);
        let d = self.core.compute.sample_local_compute(&mut self.core.rng);
        ctx.set_timer(d, T_COMPUTE);
    }

    /// Pipelined: start (or restart) the local gradient computation.
    fn begin_compute(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let deadline = match self.core.pacing {
            Pacing::Pipelined { deadline, .. } => deadline,
            _ => None,
        };
        if let Some(d) = deadline {
            if ctx.now() >= d {
                self.core.stopped = true;
                return;
            }
        }
        // Alg. 1: copy the iteration index and weights, then interact.
        self.core.compute_from = self.core.version;
        self.core.phase_start = ctx.now();
        self.source.compute();
        let d = self.core.compute.sample_local_compute(&mut self.core.rng);
        ctx.set_timer(d, T_COMPUTE);
    }

    /// Sync: the aggregation-done mark, then the update tail (or an
    /// immediate finish when the tail is empty).
    fn aggregation_done(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.core.log.aggregation_done(ctx.now());
        emit_phase(
            ctx,
            "worker.aggregation",
            self.core.phase_start.as_nanos(),
            u64::from(self.core.iter),
        );
        self.core.phase_start = ctx.now();
        let tail = self
            .pending
            .front()
            .expect("a round completed before its aggregation mark")
            .update_tail;
        if tail > SimDuration::ZERO {
            ctx.set_timer(tail, T_UPDATE);
        } else {
            self.finish_iteration(ctx);
        }
    }

    /// Sync: close the iteration and start the next one.
    fn finish_iteration(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let outcome = self.pending.pop_front().expect("completed round pending");
        if let Some(mean) = outcome.aggregate {
            self.source.apply_aggregate(&mean);
        }
        self.core.log.finish(ctx.now());
        emit_phase(
            ctx,
            "worker.update",
            self.core.phase_start.as_nanos(),
            u64::from(self.core.iter),
        );
        self.core.iter += 1;
        let iterations = match self.core.pacing {
            Pacing::Sync { iterations } => iterations,
            _ => unreachable!("finish_iteration is sync-only"),
        };
        if (self.core.iter as usize) < iterations {
            self.begin_iteration(ctx);
        } else {
            // Final boundary: close every track on the last round's counters.
            self.sample_transport(ctx);
        }
    }

    fn handle_event(&mut self, ctx: &mut HostCtx<'_, '_>, ev: ProtoEvent) {
        let ProtoEvent::Complete(outcome) = ev else {
            return;
        };
        match self.core.pacing {
            Pacing::Sync { .. } => {
                let agg_delay = outcome.agg_delay;
                self.pending.push_back(outcome);
                if agg_delay > SimDuration::ZERO {
                    ctx.set_timer(agg_delay, T_AGG);
                } else {
                    self.aggregation_done(ctx);
                }
            }
            Pacing::Pipelined { .. } | Pacing::Driven { .. } => {
                let tail = outcome.update_tail;
                self.pending.push_back(outcome);
                ctx.set_timer(tail, T_UPDATE);
            }
        }
    }
}

impl<P: StrategyProtocol> HostApp for StrategyRuntime<P> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.rt_call(ctx, |p, rt| p.on_start(rt));
        match self.core.pacing {
            Pacing::Sync { .. } => self.begin_iteration(ctx),
            Pacing::Pipelined { .. } => self.begin_compute(ctx),
            Pacing::Driven { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        if token >= PROTO_BASE {
            let ev = self.rt_call(ctx, |p, rt| p.on_timer(rt, token));
            self.handle_event(ctx, ev);
            return;
        }
        match (self.core.pacing, token) {
            (Pacing::Sync { .. }, T_COMPUTE) => {
                self.core.log.compute_done(ctx.now());
                emit_phase(
                    ctx,
                    "worker.compute",
                    self.core.phase_start.as_nanos(),
                    u64::from(self.core.iter),
                );
                self.core.phase_start = ctx.now();
                self.source.compute();
                self.rt_call(ctx, |p, rt| p.start_round(rt));
            }
            (Pacing::Sync { .. }, T_AGG) => self.aggregation_done(ctx),
            (Pacing::Sync { .. }, T_UPDATE) => self.finish_iteration(ctx),
            (Pacing::Pipelined { .. }, T_COMPUTE) => {
                emit_phase(
                    ctx,
                    "worker.compute",
                    self.core.phase_start.as_nanos(),
                    self.core.commits,
                );
                self.core.phase_start = ctx.now();
                // Staleness check before commit (Alg. 1 line 8); the
                // ledger records the admission either way.
                let staleness = self.core.version.saturating_sub(self.core.compute_from);
                if self.core.ledger.admit(staleness) {
                    ctx.set_timer(self.core.comm.phase_send() * self.core.messages, T_COMMIT);
                } else {
                    // Discard and restart from fresher weights.
                    self.begin_compute(ctx);
                }
            }
            (Pacing::Pipelined { .. }, T_COMMIT) => {
                emit_phase(
                    ctx,
                    "worker.commit",
                    self.core.phase_start.as_nanos(),
                    self.core.commits,
                );
                self.rt_call(ctx, |p, rt| p.commit(rt));
                self.core.commits += 1;
                self.sample_transport(ctx);
                // Non-blocking send: the LGC stage continues immediately.
                self.begin_compute(ctx);
            }
            (Pacing::Pipelined { .. } | Pacing::Driven { .. }, T_UPDATE) => {
                self.core.version += 1;
                self.core.update_times.push(ctx.now());
                let outcome = self.pending.pop_front().expect("update had a round");
                let start = ctx
                    .now()
                    .as_nanos()
                    .saturating_sub(outcome.update_tail.as_nanos());
                emit_phase(ctx, "worker.update", start, u64::from(self.core.version));
                if let Some(mean) = outcome.aggregate {
                    self.source.apply_aggregate(&mean);
                }
                self.sample_transport(ctx);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if matches!(self.core.pacing, Pacing::Driven { .. }) && self.core.stopped {
            return;
        }
        let ev = self.rt_call(ctx, |p, rt| p.on_packet(rt, pkt));
        self.handle_event(ctx, ev);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
