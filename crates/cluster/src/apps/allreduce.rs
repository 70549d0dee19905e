//! Decentralized Ring-AllReduce baseline (paper Fig. 1b).
//!
//! Each iteration runs `2(N-1)` ring steps — a reduce-scatter followed by
//! an all-gather — moving `model/N`-sized chunks between logical ring
//! neighbors through the switch. Every step costs two network hops, giving
//! the paper's `4N - 4` hops per aggregation, linear in the cluster size.

use iswitch_netsim::{IntSet, IpAddr, Packet, SimDuration};

use crate::apps::common::{blob_packets, BlobAssembler};
use crate::apps::runtime::{ProtoEvent, RoundOutcome, Rt, StrategyProtocol, PROTO_BASE};
use crate::transport::{NoRound, Transport};

/// Blob tag for ring chunks.
pub const TAG_RING: u32 = 4;

const P_STEP_DONE: u64 = PROTO_BASE;
/// Send timers encode the chunk's msg id so a send scheduled for step `s`
/// still carries step `s` even if the state machine advanced meanwhile.
const P_SEND_BASE: u64 = 1_000;

/// Protocol half of the Ring-AllReduce worker: the `2(N-1)`-step chunk
/// rotation within one iteration.
pub struct RingProto {
    n: usize,
    next: IpAddr,
    model_bytes: u64,
    iter: u32,
    step: u32,
    waiting: bool,
    asm: BlobAssembler,
    arrived: IntSet<u32>,
    /// Wire policy: pacing/ECN reaction for the ring's chunk streams
    /// (reliability is inert — the ring baseline assumes lossless links).
    transport: Box<dyn Transport>,
}

impl RingProto {
    /// One of `n` ring members, sending its chunks to `next`.
    pub(crate) fn new(
        n: usize,
        next: IpAddr,
        model_bytes: u64,
        transport: Box<dyn Transport>,
    ) -> Self {
        assert!(n >= 2, "a ring needs at least two workers");
        RingProto {
            n,
            next,
            model_bytes,
            iter: 0,
            step: 0,
            waiting: false,
            asm: BlobAssembler::new(),
            arrived: IntSet::default(),
            transport,
        }
    }

    fn steps_per_iter(&self) -> u32 {
        2 * (self.n as u32 - 1)
    }

    fn chunk_bytes(&self) -> u64 {
        self.model_bytes.div_ceil(self.n as u64)
    }

    fn msg_id(&self, iter: u32, step: u32) -> u32 {
        iter * 256 + step
    }

    fn begin_step(&mut self, rt: &mut Rt<'_, '_, '_>) {
        // Send this step's chunk to the next neighbor, then wait for the
        // matching chunk from the previous neighbor.
        let id = self.msg_id(self.iter, self.step);
        rt.set_timer(rt.phase_send_cost(), P_SEND_BASE + u64::from(id));
        self.waiting = true;
        self.check_arrival(rt);
    }

    fn check_arrival(&mut self, rt: &mut Rt<'_, '_, '_>) {
        let want = self.msg_id(self.iter, self.step);
        if self.waiting && self.arrived.remove(&want) {
            self.waiting = false;
            // Receiver-side cost; reduce steps (the first N-1) also pay the
            // chunk summation.
            let mut d = rt.phase_recv_cost();
            if self.step < self.n as u32 - 1 {
                d += rt.sum_time(1, self.chunk_bytes() as usize);
            }
            rt.set_timer(d, P_STEP_DONE);
        }
    }
}

impl StrategyProtocol for RingProto {
    fn begin_round(&mut self, iter: u32) {
        self.iter = iter;
        self.step = 0;
        self.transport.begin_round(iter);
    }

    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    fn start_round(&mut self, rt: &mut Rt<'_, '_, '_>) {
        self.begin_step(rt);
    }

    fn on_timer(&mut self, rt: &mut Rt<'_, '_, '_>, token: u64) -> ProtoEvent {
        match token {
            P_STEP_DONE => {
                self.step += 1;
                if self.step < self.steps_per_iter() {
                    self.begin_step(rt);
                    ProtoEvent::None
                } else {
                    let update_tail = rt.draw_weight_update();
                    ProtoEvent::Complete(RoundOutcome {
                        aggregate: None,
                        agg_delay: SimDuration::ZERO,
                        update_tail,
                    })
                }
            }
            id if id >= P_SEND_BASE => {
                let id = (id - P_SEND_BASE) as u32;
                let pkts = blob_packets(rt.ip(), self.next, TAG_RING, id, self.chunk_bytes());
                let _ = self.transport.send_round(rt, pkts, id);
                ProtoEvent::None
            }
            // The pacing token (and anything else unclaimed) belongs to
            // the transport.
            token => {
                let _ = self.transport.on_timer(rt, token, self.iter, &NoRound);
                ProtoEvent::None
            }
        }
    }

    fn on_packet(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: Packet) -> ProtoEvent {
        self.transport.on_data(rt, &pkt, self.iter, &NoRound);
        if let Some(done) = self.asm.on_packet(&pkt) {
            if done.tag == TAG_RING {
                self.arrived.insert(done.msg_id);
                self.check_arrival(rt);
            }
        }
        ProtoEvent::None
    }
}
