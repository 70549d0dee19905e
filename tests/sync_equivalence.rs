//! Cross-crate invariant: the gradient a worker receives from the
//! simulated in-switch aggregation equals the locally computed mean of all
//! workers' gradients — the mathematical equivalence that lets one
//! synchronous convergence run stand in for PS, AllReduce, and iSwitch
//! (paper §5.3).

use std::any::Any;

use iswitch::core::{
    dscp, CodecKind, EncodedGradient, ExtensionConfig, IswitchExtension, RoundAssembler,
    RoundInsert, TOS_DATA,
};
use iswitch::netsim::{
    build_star, HostApp, HostCtx, Packet, PortId, SimDuration, Simulator, TopologyConfig,
};
use iswitch::rl::{make_lite_agent, Algorithm};

/// Pushes a fixed gradient once and reassembles the broadcast mean.
struct OneShotWorker {
    grad: Vec<f32>,
    delay_us: u64,
    asm: RoundAssembler,
    result: Option<Vec<f32>>,
}

impl OneShotWorker {
    fn new(grad: Vec<f32>, delay_us: u64) -> Self {
        let mut asm = RoundAssembler::new(grad.len(), true);
        asm.begin_round(Some(0));
        OneShotWorker {
            grad,
            delay_us,
            asm,
            result: None,
        }
    }
}

impl HostApp for OneShotWorker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        ctx.set_timer(SimDuration::from_micros(self.delay_us), 0);
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: u64) {
        let enc = EncodedGradient::with_codec(ctx.ip(), &self.grad, CodecKind::F32, 0);
        for pkt in enc.packets_round(0) {
            ctx.send(pkt);
        }
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if dscp(pkt.ip.tos) == TOS_DATA
            && self.asm.insert_wire(&pkt.payload) == RoundInsert::Completed
        {
            self.result = self.asm.take_mean();
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Pushes real RL gradients (from the actual algorithms) through the
/// simulated switch and checks the result against the local mean.
fn assert_switch_matches_local_mean(alg: Algorithm) {
    // Real gradients from real agents, identical initial weights.
    let n = 4;
    let mut agents: Vec<_> = (0..n).map(|w| make_lite_agent(alg, w as u64)).collect();
    let shared = agents[0].params();
    let mut grads = Vec::new();
    for a in agents.iter_mut() {
        a.set_params(&shared);
        let mut g = a.compute_gradient();
        // DQN/DDPG warm-up gradients are zero; nudge so the test is
        // non-trivial regardless of warm-up state.
        for (i, x) in g.iter_mut().enumerate() {
            *x += (i % 17) as f32 * 1e-3;
        }
        grads.push(g);
    }
    let len = grads[0].len();
    let mut expect = vec![0.0f32; len];
    for g in &grads {
        for (e, v) in expect.iter_mut().zip(g) {
            *e += v / n as f32;
        }
    }

    let mut sim = Simulator::new();
    let apps: Vec<Box<dyn HostApp>> = grads
        .iter()
        .enumerate()
        .map(|(w, g)| Box::new(OneShotWorker::new(g.clone(), w as u64 * 7)) as Box<dyn HostApp>)
        .collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(
        (0..n).map(PortId::new).collect(),
        len,
    ));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    sim.run_until_idle();

    for &h in &star.hosts {
        let worker = sim
            .device::<iswitch::netsim::Host>(h)
            .app::<OneShotWorker>();
        let got = worker.result.as_ref().expect("aggregation completed");
        assert_eq!(got.len(), expect.len());
        let mut worst = 0.0f32;
        for (a, b) in got.iter().zip(&expect) {
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst < 1e-4,
            "{alg}: switch mean deviates from local mean by {worst}"
        );
    }
}

#[test]
fn switch_aggregation_equals_local_mean_a2c() {
    assert_switch_matches_local_mean(Algorithm::A2c);
}

#[test]
fn switch_aggregation_equals_local_mean_ppo() {
    assert_switch_matches_local_mean(Algorithm::Ppo);
}

#[test]
fn switch_aggregation_equals_local_mean_ddpg() {
    assert_switch_matches_local_mean(Algorithm::Ddpg);
}
