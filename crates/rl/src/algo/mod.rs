//! The four RL training algorithms the paper benchmarks, behind one
//! [`Agent`] interface suited to distributed gradient aggregation.

mod a2c;
mod common;
mod ddpg;
mod dqn;
mod gaussian;
mod ppo;

pub use a2c::{A2cAgent, A2cConfig};
pub use common::{discounted_returns, gae, normalize, RewardTracker, SplitOptimizer};
pub use ddpg::{DdpgAgent, DdpgConfig};
pub use dqn::{DqnAgent, DqnConfig};
pub use gaussian::{standard_normal, GaussianPolicy};
pub use ppo::{PpoAgent, PpoConfig};

use iswitch_tensor::Optimizer;

/// A distributed-training worker's local algorithm state.
///
/// This is the seam between the RL substrate and the cluster harness: a
/// worker repeatedly calls [`Agent::compute_gradient`] (the paper's "Local
/// Gradient Computing" stage), the cluster aggregates the flat gradient
/// vectors (in a parameter server, a Ring-AllReduce, or the iSwitch
/// accelerator), and every worker applies the *same* aggregated gradient to
/// identical weights — the paper's decentralized weight storage (§4.1).
pub trait Agent: Send {
    /// The algorithm's name ("DQN", "A2C", "PPO", "DDPG").
    fn name(&self) -> &'static str;

    /// Number of scalar parameters in the gradient vector.
    fn param_count(&self) -> usize;

    /// Current flat parameter vector.
    fn params(&mut self) -> Vec<f32>;

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not equal [`Agent::param_count`].
    fn set_params(&mut self, params: &[f32]);

    /// Runs local environment interaction and computes one local gradient
    /// at the current parameters. May return an all-zero gradient during
    /// warm-up (e.g. before the replay buffer has enough data).
    fn compute_gradient(&mut self) -> Vec<f32>;

    /// Builds the algorithm-appropriate optimizer for the aggregated
    /// gradient. Every worker's [`crate::LocalReplica`] holds an identical
    /// one.
    fn make_optimizer(&self) -> Box<dyn Optimizer + Send>;

    /// Housekeeping after a global weight update has been installed via
    /// [`Agent::set_params`] — target-network syncs, schedule ticks, etc.
    fn on_weights_updated(&mut self) {}

    /// Rewards of completed episodes so far, in completion order.
    fn episode_rewards(&self) -> &[f32];

    /// The paper's "Final Average Reward": mean over the last 10 episodes.
    fn final_average_reward(&self) -> Option<f32> {
        let eps = self.episode_rewards();
        if eps.is_empty() {
            return None;
        }
        let tail = &eps[eps.len().saturating_sub(10)..];
        Some(tail.iter().sum::<f32>() / tail.len() as f32)
    }
}
