//! The gradient seam of the strategy runtime: where a worker's gradient
//! bytes come from and where aggregated results go.
//!
//! Every strategy application drives the same iteration machinery (see
//! [`crate::apps::runtime`]); what differs across *fidelity modes* is the
//! payload behind that machinery:
//!
//! * [`SyntheticGradients`] — timing mode. A fixed vector whose contents
//!   are irrelevant; only its size (and therefore its packetization)
//!   matters. Applying an aggregate is a no-op.
//! * [`AgentGradients`] — co-simulation mode. A real
//!   [`iswitch_rl::LocalReplica`] computes gradients that are packetized,
//!   summed by the in-switch datapath on actual f32 segments, reassembled,
//!   and applied — reward curve and per-iteration timing from one run.
//! * [`ReplayGradients`] — convergence mode. A replica computing gradients
//!   at historically versioned weights (staleness replay), with the
//!   central driver owning the optimizer step.

use std::any::Any;
use std::sync::{Arc, Mutex};

use iswitch_rl::{make_lite_agent_scaled, Algorithm, LocalReplica};
use rand::rngs::StdRng;

use crate::staleness::StalenessDistribution;

/// Where a worker's gradient comes from and where aggregates go.
///
/// The strategy runtime calls [`GradientSource::compute`] when the local
/// gradient computation (LGC) span ends, packetizes
/// [`GradientSource::gradient`], and hands the reassembled aggregate to
/// [`GradientSource::apply_aggregate`] when the local weight update (LWU)
/// span closes.
pub trait GradientSource: Send + 'static {
    /// Gradient length in f32 elements.
    fn grad_len(&self) -> usize;

    /// Whether the strategy protocol must reassemble real aggregate
    /// *values* from the wire (co-sim) or only track completion (timing).
    fn wants_values(&self) -> bool {
        false
    }

    /// Whether [`GradientSource::gradient`] returns the same contents every
    /// iteration. Static sources let the worker pre-encode its contribution
    /// payloads once (see [`iswitch_core::EncodedGradient`]) instead of
    /// re-serializing identical floats every round.
    fn is_static(&self) -> bool {
        false
    }

    /// Produces a fresh gradient at the current local weights (LGC).
    fn compute(&mut self) {}

    /// The most recently computed gradient.
    fn gradient(&self) -> &[f32];

    /// Installs an aggregated (mean) gradient into the local replica (LWU).
    fn apply_aggregate(&mut self, _mean: &[f32]) {}

    /// Current weight replica, when one exists.
    fn params(&self) -> &[f32] {
        &[]
    }

    /// Aggregated updates applied so far.
    fn updates_applied(&self) -> u64 {
        0
    }

    /// `(update_count, reward)` curve points recorded at updates where the
    /// replica had completed episodes.
    fn reward_curve(&self) -> &[(u64, f32)] {
        &[]
    }

    /// The paper's "Final Average Reward" of the backing replica, if any.
    fn final_average_reward(&self) -> Option<f32> {
        None
    }

    /// Downcast support: harnesses that wrap a source (e.g. the chaos
    /// recorder) recover the concrete type after a run through this.
    fn as_any(&self) -> &dyn Any;
}

/// Timing-mode source: a fixed synthetic vector. Packet sizes and counts
/// match the real model exactly; values never change.
pub struct SyntheticGradients {
    template: Vec<f32>,
}

impl SyntheticGradients {
    /// A synthetic gradient of `grad_len` f32 elements.
    pub fn new(grad_len: usize) -> Self {
        // Packet contents don't affect timing; keep one constant vector.
        SyntheticGradients {
            template: vec![1.0f32; grad_len],
        }
    }
}

impl GradientSource for SyntheticGradients {
    fn grad_len(&self) -> usize {
        self.template.len()
    }

    fn is_static(&self) -> bool {
        true
    }

    fn gradient(&self) -> &[f32] {
        &self.template
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Co-simulation source: a real agent replica whose gradients ride the
/// simulated datapath and whose weights advance on reassembled aggregates.
pub struct AgentGradients {
    replica: LocalReplica,
    grad: Vec<f32>,
    curve: Vec<(u64, f32)>,
}

impl AgentGradients {
    /// Wraps a local replica.
    pub fn new(replica: LocalReplica) -> Self {
        let len = replica.param_count();
        AgentGradients {
            replica,
            grad: vec![0.0; len],
            curve: Vec::new(),
        }
    }

    /// Read access to the wrapped replica.
    pub fn replica(&self) -> &LocalReplica {
        &self.replica
    }

    /// Mutable access to the wrapped replica (weight seeding).
    pub fn replica_mut(&mut self) -> &mut LocalReplica {
        &mut self.replica
    }
}

impl GradientSource for AgentGradients {
    fn grad_len(&self) -> usize {
        self.replica.param_count()
    }

    fn wants_values(&self) -> bool {
        true
    }

    fn compute(&mut self) {
        self.grad = self.replica.compute_gradient();
    }

    fn gradient(&self) -> &[f32] {
        &self.grad
    }

    fn apply_aggregate(&mut self, mean: &[f32]) {
        self.replica.apply_mean(mean);
        if let Some(r) = self.replica.final_average_reward() {
            self.curve.push((self.replica.updates(), r));
        }
    }

    fn params(&self) -> &[f32] {
        self.replica.params()
    }

    fn updates_applied(&self) -> u64 {
        self.replica.updates()
    }

    fn reward_curve(&self) -> &[(u64, f32)] {
        &self.curve
    }

    fn final_average_reward(&self) -> Option<f32> {
        self.replica.final_average_reward()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The live sources of one co-simulated cluster (co-sim, chaos): worker
/// `w`'s lite agent is seeded `seed + w`, and every replica starts from
/// worker 0's weights (decentralized storage of one model).
pub(crate) fn live_replicas(
    algorithm: Algorithm,
    workers: usize,
    seed: u64,
    lr_scale: f32,
) -> Vec<AgentGradients> {
    let mut replicas: Vec<LocalReplica> = (0..workers)
        .map(|w| {
            let seed = seed.wrapping_add(w as u64);
            LocalReplica::new(make_lite_agent_scaled(algorithm, seed, lr_scale))
        })
        .collect();
    let init = replicas[0].params().to_vec();
    for r in replicas.iter_mut().skip(1) {
        r.load_params(&init);
    }
    replicas.into_iter().map(AgentGradients::new).collect()
}

/// Staleness sampler shared by every [`ReplayGradients`] worker of one
/// convergence run: one RNG (draws happen in worker order, preserving the
/// historical draw sequence) over one parameter history ring.
pub struct ReplaySchedule {
    staleness: StalenessDistribution,
    bound: u32,
    rng: Arc<Mutex<StdRng>>,
}

impl ReplaySchedule {
    /// A schedule drawing from `staleness` clamped to `bound`, using the
    /// shared `rng`.
    pub fn new(staleness: StalenessDistribution, bound: u32, rng: Arc<Mutex<StdRng>>) -> Self {
        ReplaySchedule {
            staleness,
            bound,
            rng,
        }
    }
}

/// Convergence-mode source: gradients computed at historically versioned
/// weights. The central driver owns the optimizer step and the history
/// ring; this source only decides *which* weights the gradient sees.
pub struct ReplayGradients {
    replica: LocalReplica,
    grad: Vec<f32>,
    history: Arc<Mutex<Vec<Vec<f32>>>>,
    schedule: Option<ReplaySchedule>,
}

impl ReplayGradients {
    /// A worker over the shared `history` ring (`history[0]` is current).
    /// With `schedule = None` gradients always see the current weights
    /// (synchronous semantics); with a schedule, staleness is sampled per
    /// gradient.
    pub fn new(
        replica: LocalReplica,
        history: Arc<Mutex<Vec<Vec<f32>>>>,
        schedule: Option<ReplaySchedule>,
    ) -> Self {
        let len = replica.param_count();
        ReplayGradients {
            replica,
            grad: vec![0.0; len],
            history,
            schedule,
        }
    }

    /// Installs freshly stepped weights (post-update housekeeping runs).
    pub fn install_params(&mut self, params: &[f32]) {
        self.replica.install_params(params);
    }

    /// Points the replica at weights without housekeeping (initial sync).
    pub fn load_params(&mut self, params: &[f32]) {
        self.replica.load_params(params);
    }

    /// Read access to the wrapped replica.
    pub fn replica(&self) -> &LocalReplica {
        &self.replica
    }

    /// Mutable access to the wrapped replica.
    pub fn replica_mut(&mut self) -> &mut LocalReplica {
        &mut self.replica
    }
}

impl GradientSource for ReplayGradients {
    fn grad_len(&self) -> usize {
        self.replica.param_count()
    }

    fn compute(&mut self) {
        let k = match &self.schedule {
            None => 0,
            Some(s) => s
                .staleness
                .sample(&mut s.rng.lock().expect("shared state lock"))
                .min(s.bound) as usize,
        };
        {
            let h = self.history.lock().expect("shared state lock");
            let stale = &h[k.min(h.len() - 1)];
            self.replica.load_params(stale);
        }
        self.grad = self.replica.compute_gradient();
    }

    fn gradient(&self) -> &[f32] {
        &self.grad
    }

    fn params(&self) -> &[f32] {
        self.replica.params()
    }

    fn final_average_reward(&self) -> Option<f32> {
        self.replica.final_average_reward()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch_rl::make_lite_agent;
    use rand::SeedableRng;

    #[test]
    fn synthetic_source_is_constant_ones() {
        let mut s = SyntheticGradients::new(5);
        s.compute();
        assert_eq!(s.gradient(), &[1.0; 5]);
        assert!(!s.wants_values());
        s.apply_aggregate(&[9.0; 5]);
        assert_eq!(s.gradient(), &[1.0; 5]);
    }

    #[test]
    fn agent_source_round_trips_gradients_into_weights() {
        let mut s = AgentGradients::new(LocalReplica::new(make_lite_agent(Algorithm::A2c, 3)));
        let before = s.params().to_vec();
        s.compute();
        let g = s.gradient().to_vec();
        assert_eq!(g.len(), s.grad_len());
        s.apply_aggregate(&g);
        assert_eq!(s.updates_applied(), 1);
        assert_ne!(s.params(), &before[..]);
    }

    #[test]
    fn replay_source_samples_history_depth() {
        let replica = LocalReplica::new(make_lite_agent(Algorithm::A2c, 0));
        let params = replica.params().to_vec();
        let history = Arc::new(Mutex::new(vec![params.clone(); 3]));
        let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(1)));
        let schedule = ReplaySchedule::new(StalenessDistribution::constant(7), 2, rng);
        let mut s = ReplayGradients::new(replica, Arc::clone(&history), Some(schedule));
        // Staleness 7 clamps to the bound, then to the history depth.
        s.compute();
        assert_eq!(s.gradient().len(), s.grad_len());
    }
}
