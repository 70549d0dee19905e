//! # iswitch
//!
//! A full reproduction of **"Accelerating Distributed Reinforcement
//! Learning with In-Switch Computing"** (Li et al., ISCA 2019) in safe
//! Rust: the in-switch gradient-aggregation accelerator, its network
//! protocol and control plane, hierarchical rack-scale aggregation, the
//! PS/AllReduce baselines, the four RL benchmarks (DQN, A2C, PPO, DDPG),
//! and the full evaluation harness regenerating every table and figure of
//! the paper.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`netsim`] — deterministic discrete-event network simulator;
//! * [`tensor`] — dense tensors, MLPs with manual backprop, optimizers;
//! * [`rl`] — environments and the four training algorithms;
//! * [`core`] — the iSwitch protocol, accelerator, and switch extension;
//! * [`cluster`] — distributed-training strategies and experiment runners;
//! * [`obs`] — metrics registry, JSON rendering, and structured tracing.
//!
//! ## Quickstart
//!
//! ```no_run
//! use iswitch::cluster::{run_timing, Strategy, TimingConfig};
//! use iswitch::rl::Algorithm;
//!
//! // Per-iteration time of synchronous iSwitch vs the PS baseline on PPO.
//! let ps = run_timing(&TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncPs));
//! let isw = run_timing(&TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw));
//! println!("PS {} vs iSW {}", ps.per_iteration, isw.per_iteration);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for `paper`, which regenerates every table and figure.

#![warn(missing_docs)]

pub use iswitch_cluster as cluster;
pub use iswitch_core as core;
pub use iswitch_netsim as netsim;
pub use iswitch_obs as obs;
pub use iswitch_rl as rl;
pub use iswitch_tensor as tensor;
