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

use crate::apps::runtime::{ProtoEvent, RoundOutcome, Rt, StrategyProtocol};
use crate::gradient_source::GradientSource;
use crate::transport::{SendOutcome, TimerVerdict, Transport};

const P_SEND: u64 = crate::apps::runtime::PROTO_BASE;

/// Protocol half of the synchronous iSwitch worker: round-tagged segment
/// push and broadcast-result reassembly, with loss recovery and pacing
/// delegated to the configured [`Transport`].
pub struct IswSyncProto {
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
    /// A worker's half pushing `source`'s gradients under `codec` (the
    /// switches' codec); it reassembles result values only when the source
    /// wants them. A nonzero `exp_bias` seeds the chaos harness's
    /// fixed-point exponent-stamp bug: mantissas are scaled with the honest
    /// exponent but the header stamps `exponent + exp_bias`, so the switch
    /// decodes every contribution scaled by `2^exp_bias`.
    pub fn new(
        source: &dyn GradientSource,
        codec: CodecKind,
        exp_bias: i8,
        transport: Box<dyn Transport>,
    ) -> Self {
        IswSyncProto {
            asm: RoundAssembler::with_codec(source.grad_len(), source.wants_values(), codec),
            transport,
            sent: false,
            codec,
            exp_bias,
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
    fn begin_round(&mut self, iter: u32) {
        self.asm.begin_round(Some(iter));
        self.sent = false;
        self.transport.begin_round(iter);
    }

    fn transport(&self) -> &dyn Transport {
        &*self.transport
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
