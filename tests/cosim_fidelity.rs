//! Co-simulation fidelity: gradients that ride the simulated in-switch
//! datapath must train the same way a single-process mean-gradient loop
//! does, up to f32 summation-order effects.

use iswitch::cluster::{
    mean_gradient_step, run_convergence, run_cosim, ConvergenceConfig, Fidelity, Strategy,
    TimingConfig,
};
use iswitch::netsim::SimDuration;
use iswitch::rl::Algorithm;

fn lite(strategy: Strategy) -> TimingConfig {
    TimingConfig::cosim_lite(Algorithm::A2c, strategy)
}

/// Runs a co-sim to its iteration budget, whatever reward it reaches.
const NO_TARGET: Fidelity = Fidelity::Cosim {
    target_reward: None,
};

#[test]
fn one_step_matches_single_process_mean_gradient() {
    let mut cfg = lite(Strategy::SyncIsw);
    cfg.iterations = 1;
    cfg.fidelity = NO_TARGET;
    let cosim = run_cosim(&cfg);
    assert_eq!(cosim.iterations, 1);
    assert_eq!(cosim.updates, 1);

    // Single-process reference: same agents, same shared initial weights,
    // mean gradient applied through the same optimizer.
    let (initial, params) = mean_gradient_step(&cfg);

    assert_eq!(cosim.params.len(), params.len());
    let worst = cosim
        .params
        .iter()
        .zip(&params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    // The switch sums segment-by-segment in arrival order; the reference
    // sums worker-by-worker. Only f32 rounding may differ.
    assert!(
        worst <= 1e-4,
        "co-sim weights diverged from the mean-gradient reference: {worst}"
    );
    let moved = cosim.params.iter().zip(&initial).any(|(a, b)| a != b);
    assert!(moved, "one aggregated step must change the weights");
}

#[test]
fn cosim_is_deterministic() {
    let mut cfg = lite(Strategy::SyncIsw);
    cfg.iterations = 40;
    cfg.fidelity = NO_TARGET;
    let a = run_cosim(&cfg);
    let b = run_cosim(&cfg);
    assert_eq!(a.params, b.params);
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.per_iteration, b.per_iteration);
}

#[test]
fn sync_cosim_reaches_grid_world_target() {
    // The acceptance bar: A2C on the lite grid world, three workers,
    // synchronous iSwitch — real gradients through the datapath reach the
    // same target convergence mode reaches.
    let r = run_cosim(&lite(Strategy::SyncIsw));
    assert!(
        r.reached_target,
        "co-sim A2C should reach {} (got {} after {} iterations)",
        0.2, r.final_average_reward, r.iterations
    );
    assert!(!r.curve.is_empty(), "reward curve should be recorded");
    assert!(
        r.per_iteration > SimDuration::ZERO,
        "timing falls out of the same run"
    );
}

#[test]
fn async_cosim_applies_partial_aggregates() {
    let mut cfg = lite(Strategy::AsyncIsw);
    cfg.iterations = 30;
    cfg.fidelity = NO_TARGET;
    let r = run_cosim(&cfg);
    assert!(r.iterations >= 30, "worker 0 should observe 30 updates");
    assert!(r.updates >= 30);
    assert!(!r.params.is_empty());
}

#[test]
fn sync_cosim_tracks_convergence_mode() {
    // Both modes step the same replicas through the same `apply_mean`; only
    // where the mean is summed differs (the switch, segment by segment in
    // arrival order, against worker order on the host). Training is
    // chaotic, so that rounding gap grows with the update count, from
    // ~1e-8 after one step; these budgets, each past DQN's and DDPG's
    // zero-gradient warm-up, keep it within 1e-5.
    for (algorithm, updates) in [
        (Algorithm::Dqn, 300),
        (Algorithm::A2c, 200),
        (Algorithm::Ppo, 30),
        (Algorithm::Ddpg, 300),
    ] {
        let mut cfg = TimingConfig::cosim_lite(algorithm, Strategy::SyncIsw);
        cfg.iterations = updates;
        cfg.fidelity = NO_TARGET;
        let cosim = run_cosim(&cfg);
        let conv = run_convergence(&ConvergenceConfig {
            workers: cfg.workers,
            max_iterations: cosim.updates as usize,
            target_reward: None,
            seed: cfg.seed,
            lr_scale: 1.0,
            ..ConvergenceConfig::sync_main(algorithm)
        });
        assert_eq!(conv.params.len(), cosim.params.len());
        let worst = conv
            .params
            .iter()
            .zip(&cosim.params)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= 1e-5,
            "{algorithm}: sync co-sim left convergence mode by {worst} after {} updates",
            cosim.updates
        );
    }
}
