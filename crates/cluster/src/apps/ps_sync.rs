//! Synchronous parameter-server baseline (paper Fig. 1a).
//!
//! Workers push their full gradient vector to a central server; the server
//! waits for **all** vectors (the conventional aggregation of Fig. 8a),
//! sums them, updates the weights, and pushes the updated weights back to
//! every worker. Four network hops per iteration, with the server's access
//! link as the central bottleneck.

use std::any::Any;
use std::collections::HashMap;

use iswitch_netsim::{HostApp, HostCtx, IpAddr, Packet, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::apps::common::{blob_packets, BlobAssembler};
use crate::apps::runtime::{
    Pacing, ProtoEvent, RoundOutcome, Rt, StrategyProtocol, StrategyRuntime, WorkerCore, PROTO_BASE,
};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::SyntheticGradients;
use crate::transport::{GoBackRetransmit, NoRound, Transport};

/// Blob tag for worker→server gradient pushes.
pub const TAG_GRAD: u32 = 1;
/// Blob tag for server→worker weight pushes.
pub const TAG_WEIGHTS: u32 = 2;
/// Blob tag for async pull requests.
pub const TAG_PULL: u32 = 3;

const P_SEND: u64 = PROTO_BASE;

/// Protocol half of the synchronous PS worker: blob push to the server,
/// weight blob back. The weight update itself lives on the server; the
/// worker's receive cost covers installing the pushed weights.
pub struct PsSyncProto {
    server: IpAddr,
    model_bytes: u64,
    asm: BlobAssembler,
    /// Wire policy. The blob protocol has no retransmission to delegate
    /// (links are lossless in the baseline experiments), so the transport
    /// only contributes pacing/ECN reaction under DCQCN.
    transport: Box<dyn Transport>,
}

impl StrategyProtocol for PsSyncProto {
    fn begin_round(&mut self, iter: u32) {
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
            let pkts = blob_packets(rt.ip(), self.server, TAG_GRAD, rt.iter(), self.model_bytes);
            let iter = rt.iter();
            let _ = self.transport.send_round(rt, pkts, iter);
        } else {
            let iter = rt.iter();
            let _ = self.transport.on_timer(rt, token, iter, &NoRound);
        }
        ProtoEvent::None
    }

    fn on_packet(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: Packet) -> ProtoEvent {
        let iter = rt.iter();
        self.transport.on_data(rt, &pkt, iter, &NoRound);
        if let Some(done) = self.asm.on_packet(&pkt) {
            if done.tag == TAG_WEIGHTS && done.msg_id == rt.iter() {
                // PS keeps the weight update on the server; the worker just
                // installs the received weights (cost inside phase_recv).
                return ProtoEvent::Complete(RoundOutcome {
                    aggregate: None,
                    agg_delay: rt.phase_recv_cost(),
                    update_tail: SimDuration::ZERO,
                });
            }
        }
        ProtoEvent::None
    }
}

/// A synchronous PS worker: the unified runtime over [`PsSyncProto`].
pub type SyncPsWorker = StrategyRuntime<PsSyncProto>;

impl SyncPsWorker {
    /// A worker that will run `iterations` iterations against `server`,
    /// aggregating `messages` collectives per iteration (DDPG's dual model
    /// aggregates actor and critic separately, doubling the per-phase
    /// software costs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        server: IpAddr,
        model_bytes: u64,
        messages: u64,
        iterations: usize,
        compute: ComputeModel,
        comm: CommCosts,
        seed: u64,
    ) -> Self {
        let core = WorkerCore::new(compute, comm, messages, seed, Pacing::Sync { iterations });
        let proto = PsSyncProto {
            server,
            model_bytes,
            asm: BlobAssembler::new(),
            transport: Box::new(GoBackRetransmit::new()),
        };
        // Timing-only strategy: the PS worker never sees an aggregate to
        // apply locally, so the synthetic payload is just sized bytes.
        let source = Box::new(SyntheticGradients::new(0));
        StrategyRuntime::from_parts(core, proto, source)
    }
}

const T_APPLY: u64 = 10;
const T_BCAST: u64 = 11;

/// The central parameter server.
pub struct SyncPsServer {
    workers: Vec<IpAddr>,
    model_bytes: u64,
    messages: u64,
    compute: ComputeModel,
    comm: CommCosts,
    rng: StdRng,
    asm: BlobAssembler,
    received: HashMap<u32, usize>,
    apply_iter: u32,
    /// Times at which weight updates completed (one per iteration).
    pub update_times: Vec<SimTime>,
}

impl SyncPsServer {
    /// A server for the given worker set.
    pub fn new(
        workers: Vec<IpAddr>,
        model_bytes: u64,
        messages: u64,
        compute: ComputeModel,
        comm: CommCosts,
        seed: u64,
    ) -> Self {
        SyncPsServer {
            workers,
            model_bytes,
            messages: messages.max(1),
            compute,
            comm,
            rng: StdRng::seed_from_u64(seed),
            asm: BlobAssembler::new(),
            received: HashMap::new(),
            apply_iter: 0,
            update_times: Vec::new(),
        }
    }
}

impl HostApp for SyncPsServer {
    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        let Some(done) = self.asm.on_packet(&pkt) else {
            return;
        };
        if done.tag != TAG_GRAD {
            return;
        }
        let count = self.received.entry(done.msg_id).or_insert(0);
        *count += 1;
        if *count == self.workers.len() {
            self.received.remove(&done.msg_id);
            self.apply_iter = done.msg_id;
            // Conventional aggregation: only now that *all* vectors are
            // resident does the server sum and update (Fig. 8a). The server
            // pays per-worker, per-collective software costs — the paper's
            // central *computation* bottleneck alongside the central link.
            let d = self.comm.phase_recv() * (self.workers.len() as u64 * self.messages)
                + self
                    .comm
                    .sum_time(self.workers.len(), self.model_bytes as usize)
                + self.compute.sample_weight_update(&mut self.rng);
            ctx.set_timer(d, T_APPLY);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        match token {
            T_APPLY => {
                self.update_times.push(ctx.now());
                ctx.set_timer(
                    self.comm.phase_send() * (self.workers.len() as u64 * self.messages),
                    T_BCAST,
                );
            }
            T_BCAST => {
                for &w in &self.workers {
                    for pkt in
                        blob_packets(ctx.ip(), w, TAG_WEIGHTS, self.apply_iter, self.model_bytes)
                    {
                        ctx.send(pkt);
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
