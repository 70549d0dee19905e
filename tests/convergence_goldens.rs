//! Convergence-mode goldens: a seeded training run of every algorithm
//! under every aggregation semantics must reproduce its trajectory bit for
//! bit — iterations, final reward, reward curve, and a fingerprint of
//! worker 0's final weights.
//!
//! RL training is chaotic, so reordering a single f32 sum anywhere in the
//! training step moves every pinned number. Each budget runs past the
//! algorithm's zero-gradient warm-up, so every case trains for real.
//!
//! On a mismatch the test prints this run's rows in the table's own
//! format. Paste them only for an *intentional* change, and review the
//! diff like any other semantic change.

use iswitch::cluster::{
    run_convergence, AggregationSemantics, ConvergenceConfig, StalenessDistribution,
};
use iswitch::rl::Algorithm;

/// One pinned trajectory. Floats are pinned as their bit patterns.
struct Golden<'a> {
    algorithm: Algorithm,
    semantics: &'static str,
    iterations: usize,
    final_reward: u32,
    curve: &'a [(usize, u32)],
    params: u64,
}

const GOLDENS: &[Golden<'static>] = &[
    Golden {
        algorithm: Algorithm::Dqn,
        semantics: "sync",
        iterations: 300,
        final_reward: 0x41b2eef0,
        curve: &[
            (60, 0x419eeeef),
            (120, 0x41a2eeef),
            (180, 0x41b37778),
            (240, 0x41819999),
        ],
        params: 0x957579b12481a5b2,
    },
    Golden {
        algorithm: Algorithm::Dqn,
        semantics: "async-aggregated",
        iterations: 300,
        final_reward: 0x41a6eeef,
        curve: &[
            (60, 0x419eeeef),
            (120, 0x41a2eeef),
            (180, 0x41bbbbbc),
            (240, 0x41877778),
        ],
        params: 0x7050caddbc58e06e,
    },
    Golden {
        algorithm: Algorithm::Dqn,
        semantics: "async-single",
        iterations: 900,
        final_reward: 0x41a7bbbc,
        curve: &[
            (180, 0x419ff0d4),
            (360, 0x41a2eeef),
            (540, 0x41a37777),
            (720, 0x41919999),
        ],
        params: 0x742d31dc9b61cc94,
    },
    Golden {
        algorithm: Algorithm::A2c,
        semantics: "sync",
        iterations: 200,
        final_reward: 0xc14ccced,
        curve: &[
            (40, 0xc14ccced),
            (80, 0xc14ccced),
            (120, 0xc14ccced),
            (160, 0xc14ccced),
        ],
        params: 0x962cb169e15abcfe,
    },
    Golden {
        algorithm: Algorithm::A2c,
        semantics: "async-aggregated",
        iterations: 200,
        final_reward: 0x3dae1470,
        curve: &[
            (40, 0xc1184459),
            (80, 0xc13b4a11),
            (120, 0xc0ddc739),
            (160, 0xbe5a7405),
        ],
        params: 0xd77f9915b0085778,
    },
    Golden {
        algorithm: Algorithm::A2c,
        semantics: "async-single",
        iterations: 600,
        final_reward: 0x3e4cccc7,
        curve: &[
            (120, 0xc14ccced),
            (240, 0xc14ccced),
            (360, 0xc0ce6343),
            (480, 0x3e5f92c0),
        ],
        params: 0x53ca9cd3b9754d73,
    },
    Golden {
        algorithm: Algorithm::Ppo,
        semantics: "sync",
        iterations: 30,
        final_reward: 0xc48dbcac,
        curve: &[
            (0, 0xc497a4a3),
            (6, 0xc497a4a3),
            (12, 0xc490b895),
            (18, 0xc490b895),
            (24, 0xc48dbcac),
        ],
        params: 0x36ca584a1f1f6cfc,
    },
    Golden {
        algorithm: Algorithm::Ppo,
        semantics: "async-aggregated",
        iterations: 30,
        final_reward: 0xc48d32d9,
        curve: &[
            (0, 0xc497a4a3),
            (6, 0xc497a4a3),
            (12, 0xc48fc449),
            (18, 0xc48fc449),
            (24, 0xc48d32d9),
        ],
        params: 0xb7a16da0596a324b,
    },
    Golden {
        algorithm: Algorithm::Ppo,
        semantics: "async-single",
        iterations: 90,
        final_reward: 0xc48ebdb9,
        curve: &[
            (18, 0xc497a4a3),
            (36, 0xc493aeed),
            (54, 0xc493aeed),
            (72, 0xc48ebdb9),
        ],
        params: 0xb4cc42fc572f0af5,
    },
    Golden {
        algorithm: Algorithm::Ddpg,
        semantics: "sync",
        iterations: 300,
        final_reward: 0x41f9b668,
        curve: &[(120, 0x40873b92), (180, 0x40873b92), (240, 0x401976e5)],
        params: 0xc91713fb6de17e38,
    },
    Golden {
        algorithm: Algorithm::Ddpg,
        semantics: "async-aggregated",
        iterations: 300,
        final_reward: 0xc2956340,
        curve: &[(120, 0x40873b92), (180, 0x40873b92), (240, 0x401976e5)],
        params: 0x9dc010721f177bdd,
    },
    Golden {
        algorithm: Algorithm::Ddpg,
        semantics: "async-single",
        iterations: 900,
        final_reward: 0x42be8dd4,
        curve: &[(360, 0x40873b92), (540, 0x40873b92), (720, 0x401976e5)],
        params: 0x56ff75c7630ab4bc,
    },
];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Dqn,
    Algorithm::A2c,
    Algorithm::Ppo,
    Algorithm::Ddpg,
];
const SEMANTICS: [&str; 3] = ["sync", "async-aggregated", "async-single"];

const WORKERS: usize = 3;

/// Gradients each worker computes: past DQN's and DDPG's replay warm-up,
/// and few for PPO, whose every gradient runs several epochs.
fn budget(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::Dqn => 300,
        Algorithm::A2c => 200,
        Algorithm::Ppo => 30,
        Algorithm::Ddpg => 300,
    }
}

fn semantics(label: &str) -> AggregationSemantics {
    let staleness = StalenessDistribution::from_samples(&[0, 1, 1, 2, 2, 3]);
    match label {
        "sync" => AggregationSemantics::Synchronous,
        "async-aggregated" => AggregationSemantics::AsyncAggregated {
            staleness,
            bound: 3,
        },
        "async-single" => AggregationSemantics::AsyncSingle {
            staleness,
            bound: 3,
        },
        other => panic!("unknown semantics {other}"),
    }
}

/// FNV-1a over the bit patterns of a weight vector.
fn fingerprint(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn render(g: &Golden) -> String {
    let curve: Vec<String> = g
        .curve
        .iter()
        .map(|(t, r)| format!("({t}, {r:#010x})"))
        .collect();
    format!(
        "    Golden {{\n        algorithm: Algorithm::{:?},\n        semantics: {:?},\n        \
         iterations: {},\n        final_reward: {:#010x},\n        curve: &[{}],\n        \
         params: {:#018x},\n    }},",
        g.algorithm,
        g.semantics,
        g.iterations,
        g.final_reward,
        curve.join(", "),
        g.params
    )
}

#[test]
fn seeded_training_reproduces_pinned_trajectories() {
    let actual: Vec<String> = ALGORITHMS
        .into_iter()
        .flat_map(|algorithm| SEMANTICS.map(|label| (algorithm, label)))
        .map(|(algorithm, label)| {
            // Async-single updates from one worker's gradient at a time.
            let updates = budget(algorithm) * if label == "async-single" { WORKERS } else { 1 };
            let r = run_convergence(&ConvergenceConfig {
                workers: WORKERS,
                semantics: semantics(label),
                max_iterations: updates,
                target_reward: None,
                curve_every: updates / 5,
                ..ConvergenceConfig::sync_main(algorithm)
            });
            let curve: Vec<(usize, u32)> = r.curve.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            render(&Golden {
                algorithm,
                semantics: label,
                iterations: r.iterations,
                final_reward: r.final_average_reward.to_bits(),
                curve: &curve,
                params: fingerprint(&r.params),
            })
        })
        .collect();
    let pinned: Vec<String> = GOLDENS.iter().map(render).collect();
    assert!(
        actual == pinned,
        "convergence trajectories moved; this run's table:\n{}",
        actual.join("\n")
    );
}
