//! Advantage Actor-Critic (synchronous A2C) — paper benchmark #2.
//!
//! An n-step actor-critic with an entropy bonus: each
//! [`A2cAgent::compute_gradient`] collects a short rollout, bootstraps
//! returns with the critic, and produces one combined policy+value gradient.

use iswitch_tensor::{
    grad_vec, mlp, mse, param_vec, set_param_vec, softmax, softmax_entropy, zero_grads, Activation,
    Adam, Module, Optimizer, Sequential, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::algo::common::{discounted_returns, RewardTracker};
use crate::algo::Agent;
use crate::env::{Action, ActionSpace, Environment};

/// Hyperparameters for [`A2cAgent`].
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// Hidden layer widths (shared shape for actor and critic).
    pub hidden: Vec<usize>,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Rollout length per gradient.
    pub n_steps: usize,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Clip the combined gradient to this L2 norm, if set.
    pub max_grad_norm: Option<f32>,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            hidden: vec![64],
            gamma: 0.99,
            lr: 3e-3,
            n_steps: 8,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: None,
        }
    }
}

/// Builds an A2C head: a Tanh MLP.
fn build_a2c_net(obs_dim: usize, outputs: usize, cfg: &A2cConfig, rng: &mut StdRng) -> Sequential {
    let mut sizes = vec![obs_dim];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(outputs);
    mlp(&sizes, Activation::Tanh, None, rng)
}

/// An A2C worker bound to one environment instance.
pub struct A2cAgent {
    cfg: A2cConfig,
    env: Box<dyn Environment>,
    policy: Sequential,
    value: Sequential,
    rng: StdRng,
    obs: Vec<f32>,
    n_actions: usize,
    tracker: RewardTracker,
}

impl A2cAgent {
    /// Creates a worker over `env` with fresh networks.
    ///
    /// # Panics
    ///
    /// Panics if the environment is not discrete-action.
    pub fn new(env: Box<dyn Environment>, cfg: A2cConfig, seed: u64) -> Self {
        let ActionSpace::Discrete(n_actions) = env.action_space() else {
            panic!("A2C requires a discrete action space");
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = build_a2c_net(env.obs_dim(), n_actions, &cfg, &mut rng);
        let value = build_a2c_net(env.obs_dim(), 1, &cfg, &mut rng);
        let mut agent = A2cAgent {
            cfg,
            env,
            policy,
            value,
            rng,
            obs: Vec::new(),
            n_actions,
            tracker: RewardTracker::new(),
        };
        agent.obs = agent.env.reset();
        agent
    }

    fn sample_action(&mut self, obs: &[f32]) -> usize {
        let input = Tensor::from_shape_vec(&[1, obs.len()], obs.to_vec());
        let logits = self.policy.forward(&input);
        let probs = softmax(&logits);
        let u: f32 = self.rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.row(0).iter().enumerate() {
            acc += p;
            if u <= acc {
                return i;
            }
        }
        self.n_actions - 1
    }
}

impl Agent for A2cAgent {
    fn name(&self) -> &'static str {
        "A2C"
    }

    fn param_count(&self) -> usize {
        self.policy.param_count() + self.value.param_count()
    }

    fn params(&mut self) -> Vec<f32> {
        let mut p = param_vec(&mut self.policy);
        p.extend(param_vec(&mut self.value));
        p
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let split = self.policy.param_count();
        set_param_vec(&mut self.policy, &params[..split]);
        set_param_vec(&mut self.value, &params[split..]);
    }

    fn compute_gradient(&mut self) -> Vec<f32> {
        let n = self.cfg.n_steps;
        let obs_dim = self.obs.len();
        let mut obs_buf = Vec::with_capacity(n * obs_dim);
        let mut actions = Vec::with_capacity(n);
        let mut rewards = Vec::with_capacity(n);
        let mut dones = Vec::with_capacity(n);
        for _ in 0..n {
            let a = self.sample_action(&self.obs.clone());
            obs_buf.extend_from_slice(&self.obs);
            let out = self.env.step(&Action::Discrete(a));
            self.tracker.record(out.reward, out.done);
            actions.push(a);
            rewards.push(out.reward);
            dones.push(out.done);
            self.obs = if out.done { self.env.reset() } else { out.obs };
        }
        let obs = Tensor::from_shape_vec(&[n, obs_dim], obs_buf);

        // Bootstrap from the value of the state after the rollout.
        let bootstrap = if *dones.last().expect("rollout non-empty") {
            0.0
        } else {
            let last = Tensor::from_shape_vec(&[1, obs_dim], self.obs.clone());
            self.value.forward(&last).data()[0]
        };
        let returns = discounted_returns(&rewards, &dones, self.cfg.gamma, bootstrap);

        zero_grads(&mut self.policy);
        zero_grads(&mut self.value);

        // Critic: value_coef * MSE(V(s), R).
        let v = self.value.forward(&obs);
        let target = Tensor::from_shape_vec(&[n, 1], returns.clone());
        let (_, dv) = mse(&v, &target);
        self.value.backward(&dv.scale(self.cfg.value_coef));

        // Actor: -(1/n) Σ advantage · log π(a|s) - entropy_coef · H.
        let adv: Vec<f32> = returns.iter().zip(v.data()).map(|(r, v)| r - v).collect();
        let logits = self.policy.forward(&obs);
        let probs = softmax(&logits);
        let mut dlogits = Tensor::zeros(&[n, self.n_actions]);
        for r in 0..n {
            let coeff = adv[r] / n as f32;
            for j in 0..self.n_actions {
                let onehot = if j == actions[r] { 1.0 } else { 0.0 };
                dlogits.data_mut()[r * self.n_actions + j] = coeff * (probs.at(r, j) - onehot);
            }
        }
        let (_, dh) = softmax_entropy(&logits);
        // Maximizing entropy: loss -= coef * H, so subtract its gradient.
        let dlogits = dlogits.sub(&dh.scale(self.cfg.entropy_coef));
        self.policy.backward(&dlogits);

        let mut g = grad_vec(&mut self.policy);
        g.extend(grad_vec(&mut self.value));
        if let Some(max_norm) = self.cfg.max_grad_norm {
            iswitch_tensor::clip_grad_norm(&mut g, max_norm);
        }
        g
    }

    fn make_optimizer(&self) -> Box<dyn Optimizer + Send> {
        Box::new(Adam::new(self.cfg.lr))
    }

    fn episode_rewards(&self) -> &[f32] {
        self.tracker.episodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::GridWorld;

    fn quick_agent(seed: u64) -> A2cAgent {
        A2cAgent::new(
            Box::new(GridWorld::standard(seed)),
            A2cConfig::default(),
            seed,
        )
    }

    #[test]
    fn gradient_has_full_length_and_is_nonzero() {
        let mut agent = quick_agent(0);
        let g = agent.compute_gradient();
        assert_eq!(g.len(), agent.param_count());
        assert!(g.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn params_round_trip_across_both_nets() {
        let mut agent = quick_agent(1);
        let mut p = agent.params();
        p[0] += 1.0;
        let last = p.len() - 1;
        p[last] -= 1.0;
        agent.set_params(&p);
        assert_eq!(agent.params(), p);
    }

    #[test]
    fn training_improves_grid_world_reward() {
        let mut agent = quick_agent(11);
        let mut opt = agent.make_optimizer();
        let mut params = agent.params();
        for _ in 0..1500 {
            let g = agent.compute_gradient();
            opt.step(&mut params, &g);
            agent.set_params(&params);
        }
        let eps = agent.episode_rewards();
        assert!(eps.len() > 20);
        let early: f32 = eps[..5].iter().sum::<f32>() / 5.0;
        let late = agent.final_average_reward().unwrap();
        assert!(
            late > early + 0.3,
            "expected improvement: early {early:.2} vs late {late:.2}"
        );
        // A good policy reaches the goal with modest step cost.
        assert!(
            late > 0.0,
            "final policy should reach the goal, got {late:.2}"
        );
    }
}
