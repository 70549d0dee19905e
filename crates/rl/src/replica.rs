//! A worker's local training replica: agent + optimizer + weight copy.
//!
//! The paper's decentralized weight storage (§4.1) keeps a full parameter
//! replica and an identical optimizer on every worker; the switch only
//! moves gradients. [`LocalReplica`] packages that trio behind the
//! gradient export/import seam the cluster harness drives: export a flat
//! gradient ([`LocalReplica::compute_gradient`]), later import an
//! aggregated mean ([`LocalReplica::apply_mean`]) which steps the local
//! optimizer and installs the result — since every replica applies the
//! same aggregate to the same weights with the same optimizer state, all
//! replicas stay bit-identical without ever shipping parameters.

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

    /// Overwrites the replica's weights with externally supplied ones,
    /// running post-update housekeeping (target syncs, schedule ticks).
    pub fn install_params(&mut self, params: &[f32]) {
        self.seed_params(params);
        self.agent.on_weights_updated();
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

    /// Points the agent at `params` *without* post-update housekeeping —
    /// the staleness-replay path, where gradients are recomputed at
    /// historical weights.
    pub fn load_params(&mut self, params: &[f32]) {
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

    /// Read access to the wrapped agent.
    pub fn agent(&self) -> &dyn Agent {
        &*self.agent
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
        let init = a.params().to_vec();
        b.install_params(&init);

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
        replica.install_params(&params);
        agent.set_params(&params);
        agent.on_weights_updated();

        let grad = agent.compute_gradient();
        let replica_grad = replica.compute_gradient();
        assert_eq!(grad, replica_grad);

        opt.step(&mut params, &grad);
        replica.apply_mean(&grad);
        assert_eq!(replica.params(), &params[..]);
    }
}
