//! Co-simulation: real RL agents trained *through* the in-switch
//! datapath.
//!
//! Timing mode ships synthetic bytes; convergence mode trains without a
//! network. Co-sim closes the loop: each worker hosts a live
//! [`iswitch_rl::LocalReplica`] whose gradient tensors are packetized into
//! f32 segments, summed by the simulated in-switch accelerator, broadcast,
//! reassembled, and applied — producing the reward curve *and* the
//! per-iteration timing from one simulation run. Only the iSwitch
//! strategies are co-simulated: they are the ones whose arithmetic happens
//! in the network.

use std::collections::BTreeMap;

use iswitch_netsim::SimDuration;
use iswitch_rl::make_lite_agent_scaled;

use crate::lifecycle::{build, Capture, Job};
use crate::timing_runner::{Fidelity, Strategy, TimingConfig};

/// Result of one co-simulation run.
#[derive(Debug, Clone)]
pub struct CosimResult {
    /// Iterations executed at worker 0 (sync: completed iterations; async:
    /// weight updates).
    pub iterations: usize,
    /// Aggregated weight updates applied by worker 0.
    pub updates: u64,
    /// Whether the target reward was reached before the budget.
    pub reached_target: bool,
    /// Pooled final average reward (mean over workers' last-10-episode
    /// averages).
    pub final_average_reward: f32,
    /// `(update_count, pooled reward)` curve: points where every worker
    /// had completed episodes.
    pub curve: Vec<(u64, f32)>,
    /// Mean wall-clock (simulated) time per iteration/update.
    pub per_iteration: SimDuration,
    /// Worker 0's final weight replica.
    pub params: Vec<f32>,
    /// Mean over applied aggregates of their relative error against the
    /// exact host-side mean of the same contributions, as the job's
    /// live-run record measured it (synchronous strategy only; `None` for
    /// async, whose staleness makes the round↔gradient pairing ambiguous).
    pub ref_error_mean: Option<f64>,
    /// Worst relative error (see [`CosimResult::ref_error_mean`]).
    pub ref_error_max: Option<f64>,
}

/// Pooled average reward, once every worker has one to report.
fn pooled(job: &Job) -> Option<f32> {
    let n = job.workers();
    let rewards: Option<Vec<f32>> = (0..n)
        .map(|w| job.worker(w).source().final_average_reward())
        .collect();
    Some(rewards?.iter().sum::<f32>() / n as f32)
}

/// Runs one co-simulation of a [`Fidelity::Cosim`] configuration (see
/// [`TimingConfig::cosim_lite`]): only the payload — real f32 gradients,
/// lite-model sized — differs from timing mode.
///
/// # Panics
///
/// Panics on a timing-fidelity configuration, non-iSwitch strategies, the
/// configurations [`crate::run_timing`] rejects, and simulations that stall
/// short of the iteration budget.
pub fn run_cosim(cfg: &TimingConfig) -> CosimResult {
    let Fidelity::Cosim { target_reward } = cfg.fidelity else {
        panic!("co-sim trains live replicas: give the run Fidelity::Cosim");
    };
    assert!(
        matches!(cfg.strategy, Strategy::SyncIsw | Strategy::AsyncIsw),
        "co-sim drives gradients through the in-switch datapath; use \
         convergence mode for host-side strategies"
    );
    let mut job = build(cfg, 0, Capture::default());

    // Stop policy: the reward target or the iteration budget, checked at
    // the shared 200 ms check points.
    let budget_spent = |job: &Job| job.progress(0) >= cfg.iterations;
    let reached = |job: &Job| target_reward.zip(pooled(job)).is_some_and(|(t, r)| r >= t);
    let stall = job.run_until(|job| reached(job) || budget_spent(job)).err();
    let reached = reached(&job);
    assert!(
        reached || budget_spent(&job),
        "co-sim stalled before reaching {} iterations: {stall:?}",
        cfg.iterations
    );

    // Harvest results.
    let mut curve_acc: BTreeMap<u64, (f32, usize)> = BTreeMap::new();
    for w in 0..cfg.workers {
        for &(u, r) in job.worker(w).source().reward_curve() {
            let e = curve_acc.entry(u).or_insert((0.0, 0));
            e.0 += r;
            e.1 += 1;
        }
    }
    let n = cfg.workers;
    let curve: Vec<(u64, f32)> = curve_acc
        .into_iter()
        .filter(|(_, (_, k))| *k == n)
        .map(|(u, (sum, k))| (u, sum / k as f32))
        .collect();
    let final_average_reward = pooled(&job).unwrap_or(f32::NEG_INFINITY);

    let probe = job.worker(0);
    let iterations = job.progress(0);
    let per_iteration = if cfg.strategy.is_async() {
        let times = probe.update_times();
        if times.len() >= 2 {
            times.last().expect("non-empty").duration_since(times[0]) / (times.len() as u64 - 1)
        } else {
            SimDuration::ZERO
        }
    } else if iterations > 0 {
        probe.log().mean_after(0).total()
    } else {
        SimDuration::ZERO
    };
    let updates = probe.source().updates_applied();
    let params = probe.source().params().to_vec();

    // Only a sync job keeps a record: async staleness decouples the round
    // a broadcast answers from the gradient last computed.
    let ref_error = job.record().and_then(|record| record.ref_error());

    CosimResult {
        iterations,
        updates,
        reached_target: reached,
        final_average_reward,
        curve,
        per_iteration,
        params,
        ref_error_mean: ref_error.map(|(mean, _)| mean),
        ref_error_max: ref_error.map(|(_, max)| max),
    }
}

/// The single-process reference for one synchronous co-sim step of `cfg`,
/// built without the simulator or the co-sim replicas: the same agents
/// (worker `w` seeded `seed + w`, each set to worker 0's weights), their
/// gradients averaged worker by worker and applied once through worker 0's
/// optimizer. Returns worker 0's weights before that step and after it.
pub fn mean_gradient_step(cfg: &TimingConfig) -> (Vec<f32>, Vec<f32>) {
    let mut agents: Vec<_> = (0..cfg.workers)
        .map(|w| make_lite_agent_scaled(cfg.algorithm, cfg.seed.wrapping_add(w as u64), 1.0))
        .collect();
    let mut params = agents[0].params();
    for a in agents.iter_mut().skip(1) {
        a.set_params(&params);
    }
    let grads: Vec<Vec<f32>> = agents.iter_mut().map(|a| a.compute_gradient()).collect();
    let n = grads.len() as f32;
    let mean: Vec<f32> = (0..params.len())
        .map(|i| grads.iter().map(|g| g[i]).sum::<f32>() / n)
        .collect();
    let mut opt = agents[0].make_optimizer();
    opt.step(&mut params, &mean);
    (agents[0].params(), params)
}
