//! Distributed DQN with a convolutional Q-network on MiniPong — the
//! closest analog to the paper's "DQN on Atari Pong" benchmark: raw pixel
//! frames in, paddle actions out, four workers aggregating gradients
//! synchronously.
//!
//! Run with: `cargo run --release --example train_minipong` (a few minutes).

use iswitch::rl::envs::{MiniPong, MINI_PONG_SIZE};
use iswitch::rl::{ConvFront, DqnAgent, DqnConfig, LocalReplica};

fn main() {
    let workers = 4;
    let cfg = DqnConfig {
        hidden: vec![64],
        conv: Some(ConvFront {
            channels: 1,
            height: MINI_PONG_SIZE,
            width: MINI_PONG_SIZE,
            conv_channels: 8,
            kernel: 4,
            stride: 2,
        }),
        learn_start: 400,
        eps_decay_iters: 3_000,
        ..DqnConfig::default()
    };
    let mut replicas: Vec<LocalReplica> = (0..workers)
        .map(|w| {
            let env = Box::new(MiniPong::new(w as u64));
            LocalReplica::new(Box::new(DqnAgent::new(env, cfg.clone(), w as u64 + 99)))
        })
        .collect();
    // Every worker starts from worker 0's weights.
    let init = replicas[0].params().to_vec();
    for r in replicas.iter_mut().skip(1) {
        r.seed_params(&init);
    }
    println!(
        "conv Q-network: {} parameters ({} KB gradient vector)",
        init.len(),
        init.len() * 4 / 1024
    );

    for iter in 0..8_000usize {
        let mut mean = vec![0.0f32; init.len()];
        for r in replicas.iter_mut() {
            let g = r.compute_gradient();
            for (m, v) in mean.iter_mut().zip(&g) {
                *m += v / workers as f32;
            }
        }
        // Each worker applies the same mean with its own optimizer replica.
        for r in replicas.iter_mut() {
            r.apply_mean(&mean);
        }
        if iter % 500 == 0 {
            let rewards: Vec<String> = replicas
                .iter()
                .map(|r| {
                    r.final_average_reward()
                        .map_or("-".to_string(), |r| format!("{r:5.1}"))
                })
                .collect();
            println!(
                "iter {iter:>5}  per-worker avg10 rewards: {}",
                rewards.join("  ")
            );
        }
    }
    let pooled: f32 = replicas
        .iter()
        .filter_map(|r| r.final_average_reward())
        .sum::<f32>()
        / workers as f32;
    println!("\nfinal pooled average reward: {pooled:.2}");
    println!("(a ball-tracking oracle scores ~10-30; a static paddle ~ -1)");
}
