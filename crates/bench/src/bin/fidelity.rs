//! Fidelity cross-check: one co-simulated aggregation step — real agent
//! gradients packetized, summed by the simulated in-switch accelerator,
//! broadcast, reassembled, applied — must land on the same weights a
//! single-process mean-gradient step produces, up to f32 summation order.

use iswitch_bench::{
    banner, check_args, metrics_out_from_args, rows_artifact, write_metrics, METRICS_OUT,
};
use iswitch_cluster::{run_cosim, CosimConfig, Strategy};
use iswitch_obs::JsonValue;
use iswitch_rl::{make_lite_agent_scaled, Algorithm};

struct Check {
    algorithm: Algorithm,
    params: usize,
    max_abs_diff: f32,
    per_iteration_ms: f64,
}

/// One co-sim step vs the single-process mean-gradient reference.
fn check(algorithm: Algorithm) -> Check {
    let mut cfg = CosimConfig::lite(algorithm, Strategy::SyncIsw);
    cfg.iterations = 1;
    cfg.target_reward = None;
    let cosim = run_cosim(&cfg);

    let mut agents: Vec<_> = (0..cfg.workers)
        .map(|w| make_lite_agent_scaled(algorithm, cfg.seed.wrapping_add(w as u64), cfg.lr_scale))
        .collect();
    let mut params = agents[0].params();
    for a in agents.iter_mut().skip(1) {
        a.set_params(&params);
    }
    let grads: Vec<Vec<f32>> = agents.iter_mut().map(|a| a.compute_gradient()).collect();
    let n = grads.len() as f32;
    let mean: Vec<f32> = (0..params.len())
        .map(|i| grads.iter().map(|g| g[i]).sum::<f32>() / n)
        .collect();
    let mut opt = agents[0].make_optimizer();
    opt.step(&mut params, &mean);

    assert_eq!(cosim.params.len(), params.len());
    let max_abs_diff = cosim
        .params
        .iter()
        .zip(&params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    Check {
        algorithm,
        params: params.len(),
        max_abs_diff,
        per_iteration_ms: cosim.per_iteration.as_nanos() as f64 / 1e6,
    }
}

fn main() {
    check_args(&[METRICS_OUT]);
    banner(
        "Fidelity",
        "Co-simulated in-switch aggregation vs single-process mean gradient",
    );
    let checks: Vec<Check> = [Algorithm::A2c, Algorithm::Ppo]
        .into_iter()
        .map(check)
        .collect();
    println!(
        "{:<10} {:>8} {:>14} {:>16}",
        "Algorithm", "Params", "Max |diff|", "Per-iteration"
    );
    for c in &checks {
        println!(
            "{:<10} {:>8} {:>14.3e} {:>13.3} ms",
            c.algorithm.to_string(),
            c.params,
            c.max_abs_diff,
            c.per_iteration_ms
        );
        assert!(
            c.max_abs_diff <= 1e-4,
            "{}: co-sim diverged from the mean-gradient reference by {}",
            c.algorithm,
            c.max_abs_diff
        );
    }
    println!("Weights after one in-switch step match the host-side reference.");

    if let Some(path) = metrics_out_from_args() {
        let rows = checks
            .iter()
            .map(|c| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(c.algorithm.to_string()));
                row.insert("params", JsonValue::UInt(c.params as u64));
                row.insert("max_abs_diff", JsonValue::Float(f64::from(c.max_abs_diff)));
                row.insert("per_iteration_ms", JsonValue::Float(c.per_iteration_ms));
                row
            })
            .collect();
        write_metrics(&path, &rows_artifact("fidelity", rows)).expect("write metrics artifact");
        println!("metrics written to {}", path.display());
    }
}
