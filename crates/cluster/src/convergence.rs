//! Convergence-mode experiments: real (scaled-down) distributed RL
//! training, with aggregation semantics matching each strategy.
//!
//! Synchronous training is mathematically identical across PS, AllReduce,
//! and iSwitch (§5.3, Table 4: "all synchronous approaches train the same
//! number of iterations"), so a single synchronous run provides the
//! iteration count for all three. Asynchronous strategies differ through
//! gradient *staleness*; following the paper's own emulation methodology,
//! staleness distributions measured in timing mode are replayed here while
//! training for real.
//!
//! Every worker keeps its own [`LocalReplica`] and applies each update's
//! aggregate to it through [`LocalReplica::apply_mean`] — the paper's
//! decentralized weight storage (§4.1), and the same step co-sim takes.

use iswitch_rl::{Algorithm, LocalReplica};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::gradient_source::cluster_replicas;
use crate::staleness::StalenessDistribution;

/// How gradients reach the weights, per strategy.
#[derive(Debug, Clone)]
pub enum AggregationSemantics {
    /// Exact mean of all workers' gradients every iteration (all three
    /// synchronous strategies).
    Synchronous,
    /// Every update applies the mean of all workers' gradients, each
    /// computed at independently sampled staleness — asynchronous iSwitch
    /// (the switch aggregates `H` stale contributions per update).
    AsyncAggregated {
        /// Empirical staleness distribution from timing mode.
        staleness: StalenessDistribution,
        /// Hard bound `S` (Alg. 1).
        bound: u32,
    },
    /// Every update applies a single worker's (stale) gradient —
    /// asynchronous parameter server.
    AsyncSingle {
        /// Empirical staleness distribution from timing mode.
        staleness: StalenessDistribution,
        /// Hard bound `S`.
        bound: u32,
    },
}

/// Configuration of one convergence experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceConfig {
    /// Benchmark algorithm (fixes the lite workload).
    pub algorithm: Algorithm,
    /// Number of workers.
    pub workers: usize,
    /// Aggregation semantics under test.
    pub semantics: AggregationSemantics,
    /// Stop after this many iterations regardless of reward.
    pub max_iterations: usize,
    /// Stop once the pooled average reward reaches this level.
    pub target_reward: Option<f32>,
    /// How often (iterations) to evaluate the stopping criterion.
    pub check_every: usize,
    /// Record a `(iteration, reward)` curve point every this many
    /// iterations (0 disables the curve).
    pub curve_every: usize,
    /// Base seed; worker `w` uses `seed + w` (wrapping).
    pub seed: u64,
    /// Learning-rate multiplier (async experiments reduce the rate — the
    /// standard stale-gradient practice — identically for all strategies).
    pub lr_scale: f32,
}

impl ConvergenceConfig {
    /// The paper's main-cluster shape: 4 workers, synchronous.
    pub fn sync_main(algorithm: Algorithm) -> Self {
        ConvergenceConfig {
            algorithm,
            workers: 4,
            semantics: AggregationSemantics::Synchronous,
            max_iterations: default_max_iterations(algorithm),
            target_reward: Some(default_target(algorithm)),
            check_every: 50,
            curve_every: 0,
            seed: 42,
            lr_scale: 1.0,
        }
    }
}

/// Result of one convergence experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceResult {
    /// Iterations executed (the paper's "Number of Iterations").
    pub iterations: usize,
    /// Whether the target reward was reached before the cap.
    pub reached_target: bool,
    /// Pooled average episode reward at the end (paper's "Final Average
    /// Reward": mean over each worker's last 10 episodes).
    pub final_average_reward: f32,
    /// Optional reward curve: `(iteration, pooled average reward)`.
    pub curve: Vec<(usize, f32)>,
    /// Worker 0's final weight replica.
    pub params: Vec<f32>,
}

/// Default target rewards per benchmark, set at a level all strategies
/// reach (the paper's "same level of Final Average Reward" protocol).
pub fn default_target(alg: Algorithm) -> f32 {
    match alg {
        Algorithm::Dqn => 200.0,  // CartPole (max 500)
        Algorithm::A2c => 0.2,    // GridWorld (max ≈ 0.6)
        Algorithm::Ppo => -500.0, // Pendulum balance (idle ≈ -1300)
        Algorithm::Ddpg => 600.0, // CheetahLite (good gait ≈ 1500)
    }
}

/// Default iteration caps per benchmark (generous; sync runs finish well
/// under these).
pub fn default_max_iterations(alg: Algorithm) -> usize {
    match alg {
        Algorithm::Dqn => 30_000,
        Algorithm::A2c => 30_000,
        Algorithm::Ppo => 40_000,
        Algorithm::Ddpg => 40_000,
    }
}

fn pooled_reward(workers: &[LocalReplica]) -> Option<f32> {
    let rewards: Vec<f32> = workers
        .iter()
        .filter_map(|w| w.final_average_reward())
        .collect();
    if rewards.len() < workers.len() {
        return None; // not all workers have completed episodes yet
    }
    Some(rewards.iter().sum::<f32>() / rewards.len() as f32)
}

fn mean_gradient(grads: &[Vec<f32>]) -> Vec<f32> {
    let n = grads.len() as f32;
    let mut out = vec![0.0f32; grads[0].len()];
    for g in grads {
        for (o, v) in out.iter_mut().zip(g) {
            *o += v;
        }
    }
    for o in &mut out {
        *o /= n;
    }
    out
}

/// Runs one convergence experiment.
///
/// # Panics
///
/// Panics on degenerate configurations.
pub fn run_convergence(cfg: &ConvergenceConfig) -> ConvergenceResult {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.check_every >= 1, "check_every must be positive");
    let mut workers = cluster_replicas(cfg.algorithm, cfg.workers, cfg.seed, cfg.lr_scale);

    // Staleness replay: `history[k]` holds the weights of `k` updates ago,
    // and each gradient draws its `k` — in worker order, one draw per
    // gradient. Synchronous gradients always see the current weights, so
    // they keep no history and draw nothing.
    let replay = match &cfg.semantics {
        AggregationSemantics::Synchronous => None,
        AggregationSemantics::AsyncAggregated { staleness, bound }
        | AggregationSemantics::AsyncSingle { staleness, bound } => Some((staleness, *bound)),
    };
    let mut history = match replay {
        None => Vec::new(),
        Some((_, bound)) => vec![workers[0].params().to_vec(); bound as usize + 1],
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5);
    let mut gradient = |w: &mut LocalReplica, history: &[Vec<f32>]| match replay {
        None => w.compute_gradient(),
        Some((staleness, bound)) => {
            let k = staleness.sample(&mut rng).min(bound) as usize;
            w.compute_gradient_at(&history[k])
        }
    };

    let mut curve = Vec::new();
    let mut reached = false;
    let mut iterations = 0;

    for t in 0..cfg.max_iterations {
        iterations = t + 1;
        let mean = match &cfg.semantics {
            AggregationSemantics::Synchronous | AggregationSemantics::AsyncAggregated { .. } => {
                let grads: Vec<Vec<f32>> =
                    workers.iter_mut().map(|w| gradient(w, &history)).collect();
                mean_gradient(&grads)
            }
            AggregationSemantics::AsyncSingle { .. } => {
                let mut grad = gradient(&mut workers[t % cfg.workers], &history);
                // A single worker's gradient is applied per update; scale by
                // 1/N so N sequential updates match one synchronous mean
                // step (the standard async-SGD learning-rate correction).
                let inv = 1.0 / cfg.workers as f32;
                for g in &mut grad {
                    *g *= inv;
                }
                grad
            }
        };
        for w in workers.iter_mut() {
            w.apply_mean(&mean);
        }
        // The new weights become `history[0]`, in the oldest one's slot.
        if !history.is_empty() {
            history.rotate_right(1);
            history[0].copy_from_slice(workers[0].params());
        }

        if cfg.curve_every > 0 && t % cfg.curve_every == 0 {
            if let Some(r) = pooled_reward(&workers) {
                curve.push((t, r));
            }
        }
        if t % cfg.check_every == 0 {
            if let (Some(target), Some(r)) = (cfg.target_reward, pooled_reward(&workers)) {
                if r >= target {
                    reached = true;
                    break;
                }
            }
        }
    }

    let final_average_reward = pooled_reward(&workers).unwrap_or(f32::NEG_INFINITY);
    ConvergenceResult {
        iterations,
        reached_target: reached,
        final_average_reward,
        curve,
        params: workers[0].params().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_a2c_reaches_grid_world_target() {
        let cfg = ConvergenceConfig {
            workers: 4,
            max_iterations: 8_000,
            ..ConvergenceConfig::sync_main(Algorithm::A2c)
        };
        let r = run_convergence(&cfg);
        assert!(
            r.reached_target,
            "A2C should reach {} (got {} after {} iters)",
            default_target(Algorithm::A2c),
            r.final_average_reward,
            r.iterations
        );
    }

    #[test]
    fn staleness_slows_convergence() {
        // The paper's core async claim (§6.2): fresher gradients converge
        // in fewer iterations. Compare fresh vs stale single-gradient
        // updates (the async-PS semantics) on A2C at the same learning
        // rate.
        let base = ConvergenceConfig {
            workers: 4,
            max_iterations: 12_000,
            target_reward: Some(0.2),
            check_every: 10,
            lr_scale: 1.0,
            semantics: AggregationSemantics::AsyncSingle {
                staleness: StalenessDistribution::constant(0),
                bound: 3,
            },
            ..ConvergenceConfig::sync_main(Algorithm::A2c)
        };
        let fresh = run_convergence(&base);

        let stale_cfg = ConvergenceConfig {
            semantics: AggregationSemantics::AsyncSingle {
                staleness: StalenessDistribution::from_samples(&[0, 1, 1, 2, 2, 3, 3, 3]),
                bound: 3,
            },
            ..base
        };
        let stale = run_convergence(&stale_cfg);
        assert!(fresh.reached_target, "fresh baseline must converge");
        assert!(
            !stale.reached_target || stale.iterations as f64 > 2.0 * fresh.iterations as f64,
            "staleness should slow convergence: fresh {} vs stale {}",
            fresh.iterations,
            stale.iterations
        );
    }

    #[test]
    fn staleness_past_the_bound_replays_the_bound() {
        let run = |staleness| {
            run_convergence(&ConvergenceConfig {
                workers: 2,
                max_iterations: 20,
                target_reward: None,
                semantics: AggregationSemantics::AsyncAggregated {
                    staleness,
                    bound: 2,
                },
                ..ConvergenceConfig::sync_main(Algorithm::A2c)
            })
            .params
        };
        let clamped = run(StalenessDistribution::constant(7));
        assert_eq!(clamped, run(StalenessDistribution::constant(2)));
        assert_ne!(clamped, run(StalenessDistribution::constant(0)));
    }

    #[test]
    fn the_largest_seed_wraps_per_worker() {
        // Worker `w` is seeded `seed + w`, wrapping past `u64::MAX`.
        let cfg = ConvergenceConfig {
            workers: 2,
            max_iterations: 1,
            target_reward: None,
            seed: u64::MAX,
            ..ConvergenceConfig::sync_main(Algorithm::A2c)
        };
        assert_eq!(run_convergence(&cfg).iterations, 1);
    }

    #[test]
    fn curve_is_recorded_when_requested() {
        let cfg = ConvergenceConfig {
            workers: 2,
            max_iterations: 600,
            target_reward: None,
            curve_every: 100,
            ..ConvergenceConfig::sync_main(Algorithm::A2c)
        };
        let r = run_convergence(&cfg);
        assert!(r.curve.len() >= 3);
        // Iterations are increasing.
        assert!(r.curve.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn async_single_applies_one_worker_per_update() {
        // Smoke test: async-PS semantics runs and reports a result.
        let cfg = ConvergenceConfig {
            workers: 3,
            max_iterations: 300,
            target_reward: None,
            semantics: AggregationSemantics::AsyncSingle {
                staleness: StalenessDistribution::from_samples(&[0, 1, 1, 2]),
                bound: 3,
            },
            ..ConvergenceConfig::sync_main(Algorithm::A2c)
        };
        let r = run_convergence(&cfg);
        assert_eq!(r.iterations, 300);
    }
}
