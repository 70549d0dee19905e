//! Asynchronous iSwitch worker: the paper's rethought asynchronous
//! training (§4.1, Algorithm 1, Fig. 11).
//!
//! The three stages are fully pipelined:
//!
//! * **LGC** — keep computing gradients from the current local weights and
//!   committing them (non-blocking) when their staleness is within `S`;
//! * **GA** — the switch aggregates any `H` arriving gradient vectors and
//!   broadcasts the sum (faster workers contribute more);
//! * **LWU** — on each broadcast, every worker applies the same update to
//!   its decentralized weight replica.

use iswitch_core::{
    gradient_packets_round_codec, CodecKind, EncodedGradient, RoundAssembler, RoundInsert, TOS_DATA,
};
use iswitch_netsim::{Packet, SimDuration, SimTime};

use crate::apps::runtime::{
    Pacing, ProtoEvent, RoundOutcome, Rt, StrategyProtocol, StrategyRuntime, WorkerCore,
};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::{GradientSource, SyntheticGradients};
use crate::transport::{GoBackRetransmit, NoRound, Transport};

/// How broadcast arrivals are recognized as complete aggregates.
enum BcastTracker {
    /// Timing mode: a pure packet counter. The switch broadcasts exactly
    /// one full vector's worth of segments per aggregation round, so a
    /// count suffices — and counting (rather than deduplicating) is part
    /// of the timing contract.
    Count(usize),
    /// Co-sim mode: reassemble the broadcast f32 values, index-deduped.
    Values(RoundAssembler),
}

/// Protocol half of the asynchronous iSwitch worker: untagged segment
/// commits and broadcast-driven weight updates.
pub struct IswAsyncProto {
    grad_len: usize,
    tracker: BcastTracker,
    /// Pre-encoded contribution payloads for static (timing-mode) sources.
    /// Async commits are untagged (round 0), so every commit reuses the
    /// cached [`bytes::Bytes`] outright — no per-iteration serialization.
    enc: Option<EncodedGradient>,
    /// The wire policy. Async commits are fire-and-forget (the pipeline
    /// tolerates loss by design), so only the pacing/ECN side of the
    /// transport is active here: DCQCN slows the commit stream when the
    /// broadcast path echoes congestion.
    transport: Box<dyn Transport>,
    /// The job's aggregation format; must match the switches'.
    codec: CodecKind,
}

impl StrategyProtocol for IswAsyncProto {
    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    fn transport_mut(&mut self) -> &mut Box<dyn Transport> {
        &mut self.transport
    }

    fn on_start(&mut self, rt: &mut Rt<'_, '_, '_>) {
        if rt.source.wants_values() {
            let mut asm = RoundAssembler::with_codec(self.grad_len, true, self.codec);
            asm.begin_round(None);
            self.tracker = BcastTracker::Values(asm);
        }
        self.enc = rt
            .source
            .is_static()
            .then(|| EncodedGradient::with_codec(rt.ip(), rt.source.gradient(), self.codec, 0));
    }

    fn commit(&mut self, rt: &mut Rt<'_, '_, '_>) {
        let pkts = match &self.enc {
            Some(enc) => enc.packets_round(0),
            None => gradient_packets_round_codec(rt.ip(), rt.source.gradient(), 0, self.codec, 0),
        };
        // One commit = one transport round (the additive-increase grain
        // for DCQCN). Outcome is ignored: a paced train drains through
        // `on_timer` and nothing gates on its completion.
        let round = rt.core.commits as u32;
        self.transport.begin_round(round);
        let _ = self.transport.send_round(rt, pkts, round);
    }

    fn on_timer(&mut self, rt: &mut Rt<'_, '_, '_>, token: u64) -> ProtoEvent {
        let _ = self.transport.on_timer(rt, token, 0, &NoRound);
        ProtoEvent::None
    }

    fn on_packet(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: Packet) -> ProtoEvent {
        if iswitch_core::dscp(pkt.ip.tos) != TOS_DATA {
            return ProtoEvent::None;
        }
        self.transport.on_data(rt, &pkt, 0, &NoRound);
        let aggregate = match &mut self.tracker {
            BcastTracker::Count(seen) => {
                *seen += 1;
                if *seen < self.codec.num_segments(self.grad_len) {
                    return ProtoEvent::None;
                }
                *seen = 0;
                None
            }
            BcastTracker::Values(asm) => {
                if !matches!(asm.insert_wire(&pkt.payload), RoundInsert::Completed) {
                    return ProtoEvent::None;
                }
                let mean = asm.take_mean();
                asm.begin_round(None);
                mean
            }
        };
        let update_tail = rt.phase_recv_cost() + rt.draw_weight_update();
        ProtoEvent::Complete(RoundOutcome {
            aggregate,
            agg_delay: SimDuration::ZERO,
            update_tail,
        })
    }
}

/// An asynchronous iSwitch worker: the unified runtime over
/// [`IswAsyncProto`].
pub type IswAsyncWorker = StrategyRuntime<IswAsyncProto>;

impl IswAsyncWorker {
    /// A worker pushing gradients of `grad_len` f32 elements until
    /// `deadline` (if given), committing `messages` collectives per
    /// iteration (dual-model DDPG pushes two vectors).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grad_len: usize,
        messages: u64,
        compute: ComputeModel,
        comm: CommCosts,
        staleness_bound: u32,
        seed: u64,
        deadline: Option<SimTime>,
    ) -> Self {
        IswAsyncWorker::with_source(
            Box::new(SyntheticGradients::new(grad_len)),
            messages,
            compute,
            comm,
            staleness_bound,
            seed,
            deadline,
        )
    }

    /// A worker backed by an arbitrary gradient source (co-simulation).
    #[allow(clippy::too_many_arguments)]
    pub fn with_source(
        source: Box<dyn GradientSource>,
        messages: u64,
        compute: ComputeModel,
        comm: CommCosts,
        staleness_bound: u32,
        seed: u64,
        deadline: Option<SimTime>,
    ) -> Self {
        let core = WorkerCore::new(
            compute,
            comm,
            messages,
            seed,
            Pacing::Pipelined {
                staleness_bound,
                deadline,
            },
        );
        let proto = IswAsyncProto {
            grad_len: source.grad_len(),
            tracker: BcastTracker::Count(0),
            enc: None,
            transport: Box::new(GoBackRetransmit::new()),
            codec: CodecKind::F32,
        };
        StrategyRuntime::from_parts(core, proto, source)
    }

    /// Sets the job's aggregation codec (default: [`CodecKind::F32`]).
    /// Must match the switches' configured codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.protocol_mut().codec = codec;
        self
    }
}
