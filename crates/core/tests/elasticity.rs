//! Control-plane elasticity: workers joining and leaving a running job
//! via `Join`/`Leave`, with the switch adapting its aggregation threshold
//! (`auto_threshold` — the membership-table machinery of Fig. 9 driving
//! the data plane).

use std::any::Any;

use iswitch_core::{
    control_packet, decode_data_meta, seg_round, CodecKind, ControlMessage, EncodedGradient,
    ExtensionConfig, IswitchExtension, UPSTREAM_IP,
};
use iswitch_netsim::{
    build_star, HostApp, HostCtx, Packet, PortId, SimDuration, Simulator, Switch, TopologyConfig,
};

const T_JOIN: u64 = 1;
const T_PUSH: u64 = 2;
const T_LEAVE: u64 = 3;

/// A worker that joins at `join_at`, pushes one gradient per round
/// thereafter, and optionally leaves after `rounds_before_leave`.
struct ElasticWorker {
    worker_id: u32,
    grad: Vec<f32>,
    join_at: SimDuration,
    push_period: SimDuration,
    rounds_before_leave: Option<u32>,
    round: u32,
    /// `(round, contributor count)` of every aggregate received.
    pub results: Vec<(u32, u16)>,
}

impl ElasticWorker {
    fn new(worker_id: u32, grad: Vec<f32>, join_at_ms: u64) -> Self {
        ElasticWorker {
            worker_id,
            grad,
            join_at: SimDuration::from_millis(join_at_ms),
            push_period: SimDuration::from_millis(2),
            rounds_before_leave: None,
            round: 0,
            results: Vec::new(),
        }
    }
}

impl HostApp for ElasticWorker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        ctx.set_timer(self.join_at, T_JOIN);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        match token {
            T_JOIN => {
                let join = ControlMessage::Join {
                    worker_id: self.worker_id,
                    grad_len: self.grad.len() as u32,
                };
                ctx.send(control_packet(ctx.ip(), UPSTREAM_IP, &join));
                ctx.set_timer(SimDuration::from_micros(100), T_PUSH);
            }
            T_PUSH => {
                if let Some(limit) = self.rounds_before_leave {
                    if self.round >= limit {
                        let leave = ControlMessage::Leave {
                            worker_id: self.worker_id,
                        };
                        ctx.send(control_packet(ctx.ip(), UPSTREAM_IP, &leave));
                        ctx.set_timer(SimDuration::from_micros(10), T_LEAVE);
                        return;
                    }
                }
                let enc = EncodedGradient::with_codec(ctx.ip(), &self.grad, CodecKind::F32, 0);
                for pkt in enc.packets_round(self.round) {
                    ctx.send(pkt);
                }
                self.round += 1;
                ctx.set_timer(self.push_period, T_PUSH);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if let Some(meta) = decode_data_meta(&pkt) {
            self.results.push((seg_round(meta.seg), meta.count));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run_elastic(
    workers: Vec<ElasticWorker>,
    grad_len: usize,
    until_ms: u64,
) -> (
    Simulator,
    Vec<iswitch_netsim::NodeId>,
    iswitch_netsim::NodeId,
) {
    let n = workers.len();
    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = workers
        .into_iter()
        .map(|w| Box::new(w) as Box<dyn HostApp>)
        .collect();
    let mut cfg = ExtensionConfig::for_star((0..n).map(PortId::new).collect(), grad_len);
    cfg.auto_threshold = true;
    cfg.threshold = 1; // adapts upward as workers join
    let ext = IswitchExtension::new(cfg);
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until(iswitch_netsim::SimTime::from_nanos(until_ms * 1_000_000));
    (sim, star.hosts, star.switch)
}

#[test]
fn threshold_grows_as_workers_join() {
    // Worker 0 joins immediately, 1 at 5 ms, 2 at 10 ms. Early rounds
    // aggregate fewer contributors; once everyone joined, H = 3.
    let grad_len = 100;
    let workers = vec![
        ElasticWorker::new(0, vec![1.0; grad_len], 0),
        ElasticWorker::new(1, vec![2.0; grad_len], 5),
        ElasticWorker::new(2, vec![4.0; grad_len], 10),
    ];
    let (mut sim, hosts, switch) = run_elastic(workers, grad_len, 30);

    let sw = sim.device_mut::<Switch>(switch);
    let ext = sw.extension::<IswitchExtension>();
    assert_eq!(ext.membership().worker_count(), 3);
    assert_eq!(ext.accelerator().threshold(), 3);

    // Worker 0 saw early single-contributor aggregates and later
    // 3-contributor ones.
    let w0 = sim
        .device::<iswitch_netsim::Host>(hosts[0])
        .app::<ElasticWorker>();
    assert!(!w0.results.is_empty());
    let counts: Vec<u16> = w0.results.iter().map(|&(_, c)| c).collect();
    assert!(
        counts.contains(&1),
        "solo rounds expected before the others joined"
    );
    assert!(
        counts.contains(&3),
        "full rounds expected after everyone joined"
    );
}

#[test]
fn leave_shrinks_the_threshold_and_training_continues() {
    let grad_len = 50;
    let mut leaver = ElasticWorker::new(1, vec![2.0; grad_len], 0);
    leaver.rounds_before_leave = Some(3);
    let workers = vec![
        ElasticWorker::new(0, vec![1.0; grad_len], 0),
        leaver,
        ElasticWorker::new(2, vec![4.0; grad_len], 0),
    ];
    let (mut sim, hosts, switch) = run_elastic(workers, grad_len, 40);

    let sw = sim.device_mut::<Switch>(switch);
    let ext = sw.extension::<IswitchExtension>();
    assert_eq!(ext.membership().worker_count(), 2, "one worker left");
    assert_eq!(ext.accelerator().threshold(), 2);

    // The remaining workers keep receiving aggregates after the departure,
    // now with 2 contributors.
    let w0 = sim
        .device::<iswitch_netsim::Host>(hosts[0])
        .app::<ElasticWorker>();
    let late = w0
        .results
        .iter()
        .rev()
        .take(5)
        .map(|&(_, c)| c)
        .collect::<Vec<_>>();
    assert!(
        late.iter().all(|&c| c == 2),
        "post-leave rounds should have 2 contributors: {late:?}"
    );
    // And earlier rounds had 3.
    assert!(w0.results.iter().any(|&(_, c)| c == 3));
}
