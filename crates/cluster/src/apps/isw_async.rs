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

use iswitch_core::{CodecKind, RoundAssembler, RoundInsert, TOS_DATA};
use iswitch_netsim::{Packet, SimDuration};

use crate::apps::runtime::{ProtoEvent, RoundOutcome, Rt, StrategyProtocol};
use crate::gradient_source::GradientSource;
use crate::transport::{NoRound, Transport};

/// How broadcast arrivals are recognized as complete aggregates.
enum BcastTracker {
    /// Timing mode: a pure packet counter. The switch broadcasts exactly
    /// one full vector's worth of segments per aggregation round, so a
    /// count suffices — and counting (rather than deduplicating) is part
    /// of the timing contract: an index-deduplicating tracker moves the
    /// Ablations artifact's `H = 2` row from 4.52 to 4.72 ms per update,
    /// though every other async run stays byte-identical.
    Count(usize),
    /// Co-sim mode: reassemble the broadcast f32 values, index-deduped.
    Values(RoundAssembler),
}

/// Protocol half of the asynchronous iSwitch worker: untagged segment
/// commits and broadcast-driven weight updates.
pub struct IswAsyncProto {
    grad_len: usize,
    tracker: BcastTracker,
    /// The wire policy. Async commits are fire-and-forget (the pipeline
    /// tolerates loss by design), so only the pacing/ECN side of the
    /// transport is active here: DCQCN slows the commit stream when the
    /// broadcast path echoes congestion.
    transport: Box<dyn Transport>,
    /// The job's aggregation format; must match the switches'.
    codec: CodecKind,
}

impl IswAsyncProto {
    /// A worker's half committing `source`'s gradients under `codec` (the
    /// switches' codec); it reassembles broadcast values only when the
    /// source wants them.
    pub(crate) fn new(
        source: &dyn GradientSource,
        codec: CodecKind,
        transport: Box<dyn Transport>,
    ) -> Self {
        let grad_len = source.grad_len();
        let tracker = if source.wants_values() {
            let mut asm = RoundAssembler::with_codec(grad_len, true, codec);
            asm.begin_round(None);
            BcastTracker::Values(asm)
        } else {
            BcastTracker::Count(0)
        };
        IswAsyncProto {
            grad_len,
            tracker,
            transport,
            codec,
        }
    }
}

impl StrategyProtocol for IswAsyncProto {
    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    fn commit(&mut self, rt: &mut Rt<'_, '_, '_>) {
        // Async commits are untagged (round 0): from a synthetic source,
        // every commit of every worker shares the stored payloads outright.
        let pkts = rt.source.encoded(rt.ip(), self.codec, 0).packets_round(0);
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
