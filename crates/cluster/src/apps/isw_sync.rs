//! Synchronous iSwitch strategy (paper Fig. 1c): push tagged gradient
//! packets, receive the broadcast aggregate — two network hops, with
//! aggregation happening on the fly inside the switch.
//!
//! Reliability and congestion control live in the pluggable
//! [`Transport`] layer (see [`crate::transport`]); this protocol only
//! knows what a round *is* — which packets carry this iteration's
//! contribution and when the broadcast result is complete.

use iswitch_core::{
    dscp, seg_index, seg_round, CodecKind, ControlMessage, RoundAssembler, RoundInsert,
    TOS_CONTROL, TOS_DATA,
};
use iswitch_netsim::{Packet, SimDuration};

use crate::apps::runtime::{
    Pacing, ProtoEvent, RoundOutcome, Rt, StrategyProtocol, StrategyRuntime, WorkerCore,
};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::{GradientSource, SyntheticGradients};
use crate::transport::{GoBackRetransmit, SendOutcome, TimerVerdict, Transport};

const P_SEND: u64 = crate::apps::runtime::PROTO_BASE;

/// Protocol half of the synchronous iSwitch worker: round-tagged segment
/// push and broadcast-result reassembly, with loss recovery and pacing
/// delegated to the configured [`Transport`].
pub struct IswSyncProto {
    grad_len: usize,
    asm: RoundAssembler,
    /// The wire policy: reliability + congestion control.
    transport: Box<dyn Transport>,
    /// Whether this round's contribution has been pushed yet. A partial
    /// flush can complete the round *before* we push (other workers plus
    /// the switch's stale-flush sweep); the completion is then held until
    /// the send fires so the iteration phases stay well-formed.
    sent: bool,
    /// The job's aggregation format; must match the switches'.
    codec: CodecKind,
    /// Seeded fixed-point exponent-stamp bug (chaos harness); zero in
    /// correct operation.
    exp_bias: i8,
}

impl IswSyncProto {
    fn new(grad_len: usize) -> Self {
        IswSyncProto {
            grad_len,
            asm: RoundAssembler::new(grad_len, false),
            transport: Box::new(GoBackRetransmit::new()),
            sent: false,
            codec: CodecKind::F32,
            exp_bias: 0,
        }
    }

    /// The switch's answer to a `Help` it could not serve: it neither
    /// keeps round `seg` nor has it open, so this worker's contribution
    /// never reached it. Resent for that one segment — only in the current
    /// round, once this round's push went out, while the segment's result
    /// is still missing.
    fn resend(&self, rt: &mut Rt<'_, '_, '_>, seg: u64) {
        let (iter, index) = (rt.iter(), seg_index(seg));
        let missing = self.asm.missing_in(index, index + 1).next().is_some();
        if seg_round(seg) != iter & 0xFFFF || !self.sent || !missing {
            return;
        }
        let enc = rt.source.encoded(rt.ip(), self.codec, self.exp_bias);
        rt.send(enc.packet(index as usize, iter));
    }

    /// The completed round's outcome (aggregate + timing tail).
    fn outcome(&mut self, rt: &mut Rt<'_, '_, '_>) -> ProtoEvent {
        let update_tail = rt.phase_recv_cost() + rt.draw_weight_update();
        ProtoEvent::Complete(RoundOutcome {
            aggregate: self.asm.take_mean(),
            agg_delay: SimDuration::ZERO,
            update_tail,
        })
    }

    /// Post-send sequence, shared between immediate and paced sends: the
    /// round may already be complete (a partial flush of the other
    /// workers' contributions can land while we were still computing) —
    /// emit the held completion now that the phases line up; otherwise arm
    /// loss recovery for the outstanding round. Ordering matters for
    /// replay identity: recovery is never armed for a completed round.
    fn after_send(&mut self, rt: &mut Rt<'_, '_, '_>) -> ProtoEvent {
        self.sent = true;
        if self.asm.is_done() {
            return self.outcome(rt);
        }
        let iter = rt.iter();
        self.transport.arm_recovery(rt, iter);
        ProtoEvent::None
    }
}

impl StrategyProtocol for IswSyncProto {
    fn on_start(&mut self, rt: &mut Rt<'_, '_, '_>) {
        // Co-sim sources need the broadcast *values*; timing sources only
        // need completion tracking.
        self.asm = RoundAssembler::with_codec(self.grad_len, rt.source.wants_values(), self.codec);
    }

    fn begin_round(&mut self, iter: u32) {
        self.asm.begin_round(Some(iter));
        self.sent = false;
        self.transport.begin_round(iter);
    }

    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    fn transport_mut(&mut self) -> &mut Box<dyn Transport> {
        &mut self.transport
    }

    fn start_round(&mut self, rt: &mut Rt<'_, '_, '_>) {
        rt.set_timer(rt.phase_send_cost(), P_SEND);
    }

    fn on_timer(&mut self, rt: &mut Rt<'_, '_, '_>, token: u64) -> ProtoEvent {
        if token == P_SEND {
            // Tag every segment with the iteration so stale re-broadcasts
            // and expired partial flushes of earlier rounds cannot satisfy
            // this one.
            let iter = rt.iter();
            let enc = rt.source.encoded(rt.ip(), self.codec, self.exp_bias);
            let pkts = enc.packets_round(iter);
            return match self.transport.send_round(rt, pkts, iter) {
                SendOutcome::Complete => self.after_send(rt),
                SendOutcome::Pacing => ProtoEvent::None,
            };
        }
        let iter = rt.iter();
        match self.transport.on_timer(rt, token, iter, &self.asm) {
            TimerVerdict::SendComplete => self.after_send(rt),
            TimerVerdict::Handled | TimerVerdict::NotMine => ProtoEvent::None,
        }
    }

    fn on_packet(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: Packet) -> ProtoEvent {
        match dscp(pkt.ip.tos) {
            TOS_DATA => {}
            TOS_CONTROL => {
                if let Ok(ControlMessage::Help { seg }) = ControlMessage::decode(&pkt.payload) {
                    self.resend(rt, seg);
                }
                return ProtoEvent::None;
            }
            _ => return ProtoEvent::None,
        }
        // Transport first: gap detection and ECN echo must see the round
        // state *before* this arrival is booked.
        let iter = rt.iter();
        self.transport.on_data(rt, &pkt, iter, &self.asm);
        // Bookkeeping straight off the wire: a timing-mode assembler never
        // materializes the payload's floats (see `RoundAssembler::insert_wire`).
        match self.asm.insert_wire(&pkt.payload) {
            // A round that completes before our own push (a partial flush
            // while we were computing) is held; `P_SEND` emits it.
            RoundInsert::Completed if self.sent => self.outcome(rt),
            _ => ProtoEvent::None,
        }
    }
}

/// A synchronous iSwitch worker: the unified runtime over
/// [`IswSyncProto`].
pub type IswSyncWorker = StrategyRuntime<IswSyncProto>;

impl IswSyncWorker {
    /// A worker pushing gradients of `grad_len` f32 elements in
    /// `messages` collectives per iteration.
    pub fn new(
        grad_len: usize,
        messages: u64,
        iterations: usize,
        compute: ComputeModel,
        comm: CommCosts,
        seed: u64,
    ) -> Self {
        IswSyncWorker::with_source(
            Box::new(SyntheticGradients::new(grad_len)),
            messages,
            iterations,
            compute,
            comm,
            seed,
        )
    }

    /// A worker backed by an arbitrary gradient source (co-simulation).
    pub fn with_source(
        source: Box<dyn GradientSource>,
        messages: u64,
        iterations: usize,
        compute: ComputeModel,
        comm: CommCosts,
        seed: u64,
    ) -> Self {
        let core = WorkerCore::new(compute, comm, messages, seed, Pacing::Sync { iterations });
        let proto = IswSyncProto::new(source.grad_len());
        StrategyRuntime::from_parts(core, proto, source)
    }

    /// Sets the job's aggregation codec (default: [`CodecKind::F32`]).
    /// Must match the switches' configured codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.protocol_mut().codec = codec;
        self
    }

    /// **Chaos-harness only**: seeds the fixed-point exponent-stamp bug —
    /// mantissas are scaled with the honest exponent but the packet header
    /// stamps `exponent + bias`, so the switch decodes every contribution
    /// scaled by `2^bias`. The wire stays well-formed; only the
    /// conservation invariant can catch it.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is nonzero and the worker's gradient source is
    /// synthetic: its one shared store holds only honest payloads.
    pub fn seed_exponent_bug(&mut self, bias: i8) {
        assert!(
            bias == 0 || self.source().wants_values(),
            "the exponent bug needs a live gradient source"
        );
        self.protocol_mut().exp_bias = bias;
    }

    /// Enables loss recovery: after `timeout` without a complete result,
    /// the transport recovers missing segments (`Help` for lost result
    /// packets from the results the switch keeps, `FBcast` for rounds
    /// stuck on a lost contribution).
    pub fn set_help_timeout(&mut self, timeout: SimDuration) {
        self.protocol_mut().transport.set_recovery_timeout(timeout);
    }

    /// **Chaos-harness only**: arms the transport's deliberately-broken
    /// recovery mode (naive whole-gradient retransmission for go-back,
    /// whole-train re-push on gaps for NACK). The in-switch accelerator
    /// counts packets, not sources, so the double-delivery must trip the
    /// gradient-conservation invariant.
    pub fn seed_naive_retransmit(&mut self) {
        self.protocol_mut().transport.seed_protocol_bug();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "needs a live gradient source")]
    fn exponent_bug_refuses_a_synthetic_source() {
        let compute = ComputeModel::for_algorithm(iswitch_rl::Algorithm::Ppo);
        let mut worker = IswSyncWorker::new(64, 1, 1, compute, CommCosts::default(), 0);
        worker.seed_exponent_bug(3);
    }
}
