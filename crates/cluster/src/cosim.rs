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

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use iswitch_core::{CodecKind, EncodedGradient};
use iswitch_netsim::{IpAddr, SimDuration};

use crate::gradient_source::{live_sources, AgentGradients, GradientSource};
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
    /// Mean over rounds of the decoded aggregate's relative error against
    /// the exact host-side mean of the same contributions (synchronous
    /// strategy only; `None` for async, whose staleness makes the
    /// round↔gradient pairing ambiguous).
    pub ref_error_mean: Option<f64>,
    /// Worst-round relative error (see [`CosimResult::ref_error_mean`]).
    pub ref_error_max: Option<f64>,
}

/// Cross-worker reference state for the aggregate-error probe: per-round
/// exact `f64` gradient sums, plus the error statistics accumulated as
/// workers consume their rounds' broadcasts.
struct RefErrorShared {
    workers: usize,
    rounds: BTreeMap<u64, RoundRef>,
    sum_rel: f64,
    max_rel: f64,
    samples: u64,
}

struct RoundRef {
    sum: Vec<f64>,
    contributed: usize,
    consumed: usize,
}

impl RefErrorShared {
    fn new(workers: usize) -> Self {
        RefErrorShared {
            workers,
            rounds: BTreeMap::new(),
            sum_rel: 0.0,
            max_rel: 0.0,
            samples: 0,
        }
    }
}

/// Wraps a co-sim worker's [`AgentGradients`] and measures, per completed
/// round, how far the decoded in-network aggregate lands from the exact
/// mean of the contributions that went in — the codec's end-to-end
/// gradient error. Synchronous strategy only: lock-step rounds make the
/// `compute` count the round index on every worker.
struct RefErrorRecorder {
    inner: AgentGradients,
    shared: Arc<Mutex<RefErrorShared>>,
    computes: u64,
    applies: u64,
}

impl RefErrorRecorder {
    fn new(inner: AgentGradients, shared: Arc<Mutex<RefErrorShared>>) -> Self {
        RefErrorRecorder {
            inner,
            shared,
            computes: 0,
            applies: 0,
        }
    }
}

impl GradientSource for RefErrorRecorder {
    fn grad_len(&self) -> usize {
        self.inner.grad_len()
    }

    fn wants_values(&self) -> bool {
        true
    }

    fn compute(&mut self) {
        self.inner.compute();
        let round = self.computes;
        self.computes += 1;
        let mut s = self.shared.lock().expect("ref-error lock");
        let len = self.inner.grad_len();
        let entry = s.rounds.entry(round).or_insert_with(|| RoundRef {
            sum: vec![0.0; len],
            contributed: 0,
            consumed: 0,
        });
        for (acc, &g) in entry.sum.iter_mut().zip(self.inner.gradient()) {
            *acc += g as f64;
        }
        entry.contributed += 1;
    }

    fn encoded(&self, src: IpAddr, codec: CodecKind, exp_bias: i8) -> EncodedGradient {
        self.inner.encoded(src, codec, exp_bias)
    }

    fn apply_aggregate(&mut self, mean: &[f32]) {
        let round = self.applies;
        self.applies += 1;
        let mut s = self.shared.lock().expect("ref-error lock");
        let workers = s.workers;
        if let Some(entry) = s.rounds.get_mut(&round) {
            // A sync round only completes once every worker contributed,
            // so the reference mean is whole by the time anyone applies.
            if entry.contributed == workers {
                let n = workers as f64;
                let mut max_abs = 0.0f64;
                let mut max_err = 0.0f64;
                for (&a, &r) in mean.iter().zip(&entry.sum) {
                    let reference = r / n;
                    max_abs = max_abs.max(reference.abs());
                    max_err = max_err.max((a as f64 - reference).abs());
                }
                let rel = if max_abs > 0.0 {
                    max_err / max_abs
                } else {
                    0.0
                };
                entry.consumed += 1;
                let drop_round = entry.consumed == workers;
                s.sum_rel += rel;
                s.max_rel = s.max_rel.max(rel);
                s.samples += 1;
                if drop_round {
                    s.rounds.remove(&round);
                }
            }
        }
        drop(s);
        self.inner.apply_aggregate(mean);
    }

    fn params(&self) -> &[f32] {
        self.inner.params()
    }

    fn updates_applied(&self) -> u64 {
        self.inner.updates_applied()
    }

    fn reward_curve(&self) -> &[(u64, f32)] {
        self.inner.reward_curve()
    }

    fn final_average_reward(&self) -> Option<f32> {
        self.inner.final_average_reward()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
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
/// Panics on a timing-fidelity configuration, non-iSwitch strategies,
/// degenerate worker counts, and simulations that stall short of the
/// iteration budget.
pub fn run_cosim(cfg: &TimingConfig) -> CosimResult {
    let Fidelity::Cosim { target_reward } = cfg.fidelity else {
        panic!("co-sim trains live replicas: give the run Fidelity::Cosim");
    };
    assert!(
        matches!(cfg.strategy, Strategy::SyncIsw | Strategy::AsyncIsw),
        "co-sim drives gradients through the in-switch datapath; use \
         convergence mode for host-side strategies"
    );
    assert!(cfg.workers >= 1, "need at least one worker");

    // Aggregate-error probe (sync only: async staleness decouples the
    // round a broadcast answers from the gradient last computed).
    let ref_shared = matches!(cfg.strategy, Strategy::SyncIsw)
        .then(|| Arc::new(Mutex::new(RefErrorShared::new(cfg.workers))));
    let sources = live_sources(cfg, |agent| match &ref_shared {
        Some(shared) => Box::new(RefErrorRecorder::new(agent, Arc::clone(shared))),
        None => Box::new(agent),
    });
    let mut job = build(cfg, sources, 0, Capture::default());

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

    let (ref_error_mean, ref_error_max) = match &ref_shared {
        Some(shared) => {
            let s = shared.lock().expect("ref-error lock");
            if s.samples > 0 {
                (Some(s.sum_rel / s.samples as f64), Some(s.max_rel))
            } else {
                (None, None)
            }
        }
        None => (None, None),
    };

    CosimResult {
        iterations,
        updates,
        reached_target: reached,
        final_average_reward,
        curve,
        per_iteration,
        params,
        ref_error_mean,
        ref_error_max,
    }
}
