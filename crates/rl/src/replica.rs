//! A worker's local training replica: agent + optimizer + weights.
//!
//! The paper's decentralized weight storage (§4.1) keeps a full parameter
//! replica and an identical optimizer on every worker; the switch only
//! moves gradients. [`LocalReplica`] is that trio, and every training mode
//! (convergence, co-sim, chaos) drives it through the same two calls:
//! export a flat gradient ([`LocalReplica::compute_gradient`]), later
//! import an aggregated mean ([`LocalReplica::apply_mean`]), which steps
//! the local optimizer and loads the result into the agent. Since every
//! replica applies the same aggregate to the same weights with the same
//! optimizer state, all replicas stay bit-identical without ever shipping
//! parameters.
//!
//! The weights live in the replica's own vector ([`LocalReplica::params`]);
//! the agent holds a copy of them. Only
//! [`LocalReplica::compute_gradient_at`] (staleness replay) points the agent
//! elsewhere, and only until the next [`LocalReplica::apply_mean`] or
//! [`LocalReplica::seed_params`] reloads it.

use iswitch_tensor::Optimizer;

use crate::algo::Agent;

/// A self-contained local training replica (agent, optimizer, weights).
pub struct LocalReplica {
    agent: Box<dyn Agent>,
    opt: Box<dyn Optimizer + Send>,
    params: Vec<f32>,
    updates: u64,
}

impl LocalReplica {
    /// Wraps `agent`, snapshotting its parameters and building its
    /// algorithm-appropriate optimizer replica.
    pub fn new(mut agent: Box<dyn Agent>) -> Self {
        let params = agent.params();
        let opt = agent.make_optimizer();
        LocalReplica {
            agent,
            opt,
            params,
            updates: 0,
        }
    }

    /// Number of scalar parameters (gradient vector length).
    pub fn param_count(&self) -> usize {
        self.agent.param_count()
    }

    /// Runs local environment interaction and exports one flat gradient
    /// at the current weights (the LGC stage).
    pub fn compute_gradient(&mut self) -> Vec<f32> {
        self.agent.compute_gradient()
    }

    /// Like [`LocalReplica::compute_gradient`], but at `weights` instead of
    /// the replica's own — the staleness-replay path, where gradients are
    /// computed at historical weights. The replica's weights do not move;
    /// the agent keeps pointing at `weights` until the next
    /// [`LocalReplica::apply_mean`] reloads it from them.
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong length.
    pub fn compute_gradient_at(&mut self, weights: &[f32]) -> Vec<f32> {
        self.agent.set_params(weights);
        self.agent.compute_gradient()
    }

    /// Imports an aggregated mean gradient: steps the local optimizer
    /// replica and installs the updated weights (the LWU stage).
    ///
    /// # Panics
    ///
    /// Panics if `mean` has the wrong length.
    pub fn apply_mean(&mut self, mean: &[f32]) {
        self.opt.step(&mut self.params, mean);
        self.agent.set_params(&self.params);
        self.agent.on_weights_updated();
        self.updates += 1;
    }

    /// Starts the replica from `params`: its weight copy and its agent both
    /// take them, with no post-update housekeeping (no target sync, no
    /// schedule tick) — how every worker of a cluster adopts worker 0's
    /// initial weights.
    pub fn seed_params(&mut self, params: &[f32]) {
        self.params.clear();
        self.params.extend_from_slice(params);
        self.agent.set_params(params);
    }

    /// Current weight replica.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Aggregated updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The paper's "Final Average Reward" of the wrapped agent.
    pub fn final_average_reward(&self) -> Option<f32> {
        self.agent.final_average_reward()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_zoo::{make_lite_agent, Algorithm};

    #[test]
    fn replicas_stay_identical_under_identical_aggregates() {
        let mut a = LocalReplica::new(make_lite_agent(Algorithm::A2c, 0));
        let mut b = LocalReplica::new(make_lite_agent(Algorithm::A2c, 1));
        b.seed_params(a.params());

        let ga = a.compute_gradient();
        let gb = b.compute_gradient();
        let mean: Vec<f32> = ga.iter().zip(&gb).map(|(x, y)| (x + y) / 2.0).collect();
        a.apply_mean(&mean);
        b.apply_mean(&mean);
        assert_eq!(a.params(), b.params());
        assert_eq!(a.updates(), 1);
    }

    #[test]
    fn apply_mean_matches_manual_optimizer_step() {
        let mut agent = make_lite_agent(Algorithm::A2c, 7);
        let mut params = agent.params();
        let mut opt = agent.make_optimizer();

        let mut replica = LocalReplica::new(make_lite_agent(Algorithm::A2c, 7));
        replica.seed_params(&params);

        let grad = agent.compute_gradient();
        let replica_grad = replica.compute_gradient();
        assert_eq!(grad, replica_grad);

        opt.step(&mut params, &grad);
        replica.apply_mean(&grad);
        assert_eq!(replica.params(), &params[..]);
    }

    #[test]
    fn a_stale_gradient_moves_only_the_agent_until_apply_mean() {
        let mut r = LocalReplica::new(make_lite_agent(Algorithm::A2c, 3));
        let own = r.params().to_vec();
        let stale: Vec<f32> = own.iter().map(|p| p + 0.25).collect();

        let grad = r.compute_gradient_at(&stale);
        assert_eq!(r.params(), &own[..]);
        assert_eq!(r.agent.params(), stale);

        r.apply_mean(&grad);
        assert_ne!(r.params(), &own[..]);
        assert_eq!(r.agent.params(), r.params());
    }
}
