//! # iswitch-rl
//!
//! The reinforcement-learning substrate for the iSwitch (ISCA '19)
//! reproduction: the four benchmark algorithms the paper trains — DQN, A2C,
//! PPO, and DDPG — on self-contained stand-in environments, behind one
//! [`Agent`] interface shaped for distributed gradient aggregation.
//!
//! A worker calls [`Agent::compute_gradient`] (the paper's "Local Gradient
//! Computing" stage) to produce a flat `Vec<f32>` gradient; the cluster
//! layer aggregates those vectors — in a parameter server, a
//! Ring-AllReduce, or the in-switch accelerator — and every worker applies
//! the same aggregated gradient to identical weights through its
//! [`LocalReplica`].
//!
//! ## Example
//!
//! ```
//! use iswitch_rl::{make_lite_agent, Algorithm, LocalReplica};
//!
//! // Two workers exploring independently from identical initial weights.
//! let mut w0 = LocalReplica::new(make_lite_agent(Algorithm::A2c, 0));
//! let mut w1 = LocalReplica::new(make_lite_agent(Algorithm::A2c, 1));
//! w1.seed_params(w0.params());
//!
//! let g0 = w0.compute_gradient();
//! let g1 = w1.compute_gradient();
//! let mean: Vec<f32> = g0.iter().zip(&g1).map(|(a, b)| (a + b) / 2.0).collect();
//!
//! // Each steps its own optimizer replica with the same aggregate.
//! w0.apply_mean(&mean);
//! w1.apply_mean(&mean);
//! assert_eq!(w0.params(), w1.params());
//! ```

#![warn(missing_docs)]

mod algo;
mod env;
pub mod envs;
mod model_zoo;
mod replay;
mod replica;

pub use algo::{
    discounted_returns, gae, normalize, standard_normal, A2cAgent, A2cConfig, Agent, DdpgAgent,
    DdpgConfig, DqnAgent, DqnConfig, GaussianPolicy, PpoAgent, PpoConfig, RewardTracker,
    SplitOptimizer,
};
pub use env::{Action, ActionSpace, Environment, StepOutcome};
pub use model_zoo::{
    all_paper_models, hidden_for_target, make_lite_agent, make_lite_agent_scaled, mlp_param_count,
    paper_a2c, paper_ddpg, paper_dqn, paper_model, paper_ppo, Algorithm, ModelSpec,
};
pub use replay::{ReplayBuffer, Transition};
pub use replica::LocalReplica;
