//! Self-contained environments standing in for the paper's benchmarks.
//!
//! | Paper benchmark | Environment here | Algorithm |
//! |---|---|---|
//! | Atari Pong | [`CartPole`] | DQN |
//! | Atari Qbert | [`GridWorld`] | A2C |
//! | MuJoCo Hopper | [`Pendulum`] | PPO |
//! | MuJoCo HalfCheetah | [`CheetahLite`] | DDPG |
//!
//! [`MiniPong`] provides true pixel observations for convolutional
//! Q-networks.

mod cart_pole;
mod cheetah_lite;
mod grid_world;
mod mini_pong;
mod pendulum;

pub use cart_pole::CartPole;
pub use cheetah_lite::CheetahLite;
pub use grid_world::GridWorld;
pub use mini_pong::{MiniPong, SIZE as MINI_PONG_SIZE};
pub use pendulum::Pendulum;
