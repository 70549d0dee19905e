//! Asynchronous parameter-server baseline (paper Fig. 3).
//!
//! Workers independently pull the latest weights, compute a gradient, and
//! push it; the server applies each arriving gradient to the central
//! weights immediately. Staleness of a pushed gradient is the number of
//! server updates that happened between the pull it computed from and its
//! arrival; gradients staler than the bound `S` are discarded, mirroring
//! the staleness control the paper applies to both async systems (§6.2).

use std::any::Any;
use std::collections::VecDeque;

use iswitch_netsim::{HostApp, HostCtx, IpAddr, Packet, SimTime};
use iswitch_obs::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::apps::common::{blob_packets, BlobAssembler};
use crate::apps::ps_sync::{TAG_GRAD, TAG_PULL, TAG_WEIGHTS};
use crate::apps::runtime::{
    Pacing, ProtoEvent, Rt, StrategyProtocol, StrategyRuntime, WorkerCore, PROTO_BASE,
};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::SyntheticGradients;
use crate::staleness::StalenessLedger;
use crate::transport::{GoBackRetransmit, NoRound, Transport};

const P_COMPUTE: u64 = PROTO_BASE;
const P_PUSH: u64 = PROTO_BASE + 1;
const P_PULL: u64 = PROTO_BASE + 2;

/// Protocol half of the asynchronous PS worker: the self-driven
/// pull → compute → push cycle.
pub struct PsAsyncProto {
    server: IpAddr,
    model_bytes: u64,
    asm: BlobAssembler,
    pull_seq: u32,
    weight_version: u32,
    phase_start: SimTime,
    /// Wire policy for the gradient pushes (pacing/ECN under DCQCN; the
    /// pull requests are single tiny packets and stay unpaced).
    transport: Box<dyn Transport>,
}

impl PsAsyncProto {
    fn pull(&mut self, rt: &mut Rt<'_, '_, '_>) {
        if rt.deadline_reached() {
            rt.core.stopped = true;
            return;
        }
        self.pull_seq += 1;
        for pkt in blob_packets(rt.ip(), self.server, TAG_PULL, self.pull_seq, 0) {
            rt.send(pkt);
        }
    }
}

impl StrategyProtocol for PsAsyncProto {
    fn on_start(&mut self, rt: &mut Rt<'_, '_, '_>) {
        self.pull(rt);
    }

    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    fn transport_mut(&mut self) -> &mut Box<dyn Transport> {
        &mut self.transport
    }

    fn on_timer(&mut self, rt: &mut Rt<'_, '_, '_>, token: u64) -> ProtoEvent {
        match token {
            P_COMPUTE => {
                rt.emit_phase("worker.compute", self.phase_start, rt.core.commits);
                self.phase_start = rt.now();
                rt.set_timer(rt.phase_send_cost(), P_PUSH);
            }
            P_PUSH => {
                rt.emit_phase("worker.commit", self.phase_start, rt.core.commits);
                // Push the gradient stamped with the weight version it was
                // computed from, then immediately pull again. One push is
                // one transport round.
                let pkts = blob_packets(
                    rt.ip(),
                    self.server,
                    TAG_GRAD,
                    self.weight_version,
                    self.model_bytes,
                );
                let round = rt.core.commits as u32;
                self.transport.begin_round(round);
                let _ = self.transport.send_round(rt, pkts, round);
                rt.core.commits += 1;
                self.pull(rt);
            }
            P_PULL => {
                self.phase_start = rt.now();
                let d = rt.draw_compute();
                rt.set_timer(d, P_COMPUTE);
            }
            token => {
                let _ = self.transport.on_timer(rt, token, 0, &NoRound);
            }
        }
        ProtoEvent::None
    }

    fn on_packet(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: Packet) -> ProtoEvent {
        self.transport.on_data(rt, &pkt, 0, &NoRound);
        if let Some(done) = self.asm.on_packet(&pkt) {
            if done.tag == TAG_WEIGHTS {
                self.weight_version = done.msg_id;
                rt.set_timer(rt.phase_recv_cost(), P_PULL);
            }
        }
        ProtoEvent::None
    }
}

/// An asynchronous PS worker: the unified runtime over [`PsAsyncProto`].
pub type AsyncPsWorker = StrategyRuntime<PsAsyncProto>;

impl AsyncPsWorker {
    /// A worker that keeps iterating until `deadline` (if given).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        server: IpAddr,
        model_bytes: u64,
        messages: u64,
        compute: ComputeModel,
        comm: CommCosts,
        seed: u64,
        deadline: Option<SimTime>,
    ) -> Self {
        let core = WorkerCore::new(compute, comm, messages, seed, Pacing::Driven { deadline });
        let proto = PsAsyncProto {
            server,
            model_bytes,
            asm: BlobAssembler::new(),
            pull_seq: 0,
            weight_version: 0,
            phase_start: SimTime::ZERO,
            transport: Box::new(GoBackRetransmit::new()),
        };
        StrategyRuntime::from_parts(core, proto, Box::new(SyntheticGradients::new(0)))
    }

    /// Iterations this worker completed (gradients pushed).
    pub fn pushes(&self) -> u64 {
        self.commits()
    }
}

const T_APPLY_DONE: u64 = 10;

/// The asynchronous central server.
pub struct AsyncPsServer {
    model_bytes: u64,
    messages: u64,
    compute: ComputeModel,
    comm: CommCosts,
    rng: StdRng,
    asm: BlobAssembler,
    version: u32,
    applying: bool,
    apply_queue: VecDeque<u32>,
    apply_started: SimTime,
    /// Completion time of every weight update.
    pub update_times: Vec<SimTime>,
    /// Staleness admission state: applied-gradient staleness plus the
    /// discard count, behind the same ledger the iSwitch worker uses.
    ledger: StalenessLedger,
}

impl AsyncPsServer {
    /// A server enforcing the given staleness bound.
    pub fn new(
        model_bytes: u64,
        messages: u64,
        compute: ComputeModel,
        comm: CommCosts,
        staleness_bound: u32,
        seed: u64,
    ) -> Self {
        AsyncPsServer {
            model_bytes,
            messages: messages.max(1),
            compute,
            comm,
            rng: StdRng::seed_from_u64(seed),
            asm: BlobAssembler::new(),
            version: 0,
            applying: false,
            apply_queue: VecDeque::new(),
            apply_started: SimTime::ZERO,
            update_times: Vec::new(),
            ledger: StalenessLedger::new(staleness_bound),
        }
    }

    /// Staleness of every *applied* gradient.
    pub fn staleness(&self) -> &[u32] {
        self.ledger.admitted()
    }

    /// Gradients discarded for exceeding the bound.
    pub fn discarded(&self) -> u64 {
        self.ledger.rejected()
    }

    fn maybe_apply(&mut self, ctx: &mut HostCtx<'_, '_>) {
        if self.applying {
            return;
        }
        while let Some(from_version) = self.apply_queue.pop_front() {
            let staleness = self.version.saturating_sub(from_version);
            if !self.ledger.admit(staleness) {
                continue;
            }
            self.applying = true;
            self.apply_started = ctx.now();
            let d = self.comm.phase_recv() * self.messages
                + self.compute.sample_weight_update(&mut self.rng);
            ctx.set_timer(d, T_APPLY_DONE);
            return;
        }
    }
}

impl HostApp for AsyncPsServer {
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        let src = pkt.ip.src;
        if let Some(done) = self.asm.on_packet(&pkt) {
            match done.tag {
                TAG_PULL => {
                    // Reply with the current weights, stamped with their
                    // version.
                    for out in
                        blob_packets(ctx.ip(), src, TAG_WEIGHTS, self.version, self.model_bytes)
                    {
                        ctx.send(out);
                    }
                }
                TAG_GRAD => {
                    self.apply_queue.push_back(done.msg_id);
                    self.maybe_apply(ctx);
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        if token == T_APPLY_DONE {
            self.version += 1;
            self.update_times.push(ctx.now());
            if let Some(trace) = ctx.trace() {
                Span::begin(
                    trace.alloc_span_id(),
                    "worker.update",
                    self.apply_started.as_nanos(),
                )
                .attr_u64("worker", u64::from(ctx.ip().as_u32()))
                .attr_u64("iter", u64::from(self.version))
                .end(ctx.now().as_nanos())
                .emit(trace);
            }
            self.applying = false;
            self.maybe_apply(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
