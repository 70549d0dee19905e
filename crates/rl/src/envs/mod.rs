//! Self-contained environments standing in for the paper's benchmarks.
//!
//! | Paper benchmark | Environment here | Algorithm |
//! |---|---|---|
//! | Atari Pong | [`CartPole`] | DQN |
//! | Atari Qbert | [`GridWorld`] | A2C |
//! | MuJoCo Hopper | [`Pendulum`] | PPO |
//! | MuJoCo HalfCheetah | [`CheetahLite`] | DDPG |

mod cart_pole;
mod cheetah_lite;
mod grid_world;
mod pendulum;

pub use cart_pole::CartPole;
pub use cheetah_lite::CheetahLite;
pub use grid_world::GridWorld;
pub use pendulum::Pendulum;
