//! End-to-end distributed training across crates: real agents, real
//! aggregation semantics, reward actually improving.

use iswitch::cluster::{
    run_convergence, AggregationSemantics, ConvergenceConfig, StalenessDistribution,
};
use iswitch::rl::Algorithm;

#[test]
fn four_worker_sync_a2c_converges() {
    let r = run_convergence(&ConvergenceConfig {
        max_iterations: 10_000,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    assert!(
        r.reached_target,
        "reward {} after {} iters",
        r.final_average_reward, r.iterations
    );
}

#[test]
fn four_worker_sync_dqn_converges() {
    let r = run_convergence(&ConvergenceConfig {
        max_iterations: 8_000,
        ..ConvergenceConfig::sync_main(Algorithm::Dqn)
    });
    assert!(
        r.reached_target,
        "reward {} after {} iters",
        r.final_average_reward, r.iterations
    );
}

#[test]
fn async_isw_semantics_converge_with_light_staleness() {
    // Async iSwitch aggregates all workers with low staleness — it should
    // converge close to the synchronous iteration count.
    let sync = run_convergence(&ConvergenceConfig {
        max_iterations: 12_000,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    let isw = run_convergence(&ConvergenceConfig {
        max_iterations: 12_000,
        semantics: AggregationSemantics::AsyncAggregated {
            staleness: StalenessDistribution::from_samples(&[0, 0, 0, 1]),
            bound: 3,
        },
        lr_scale: 1.0,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    assert!(sync.reached_target && isw.reached_target);
    assert!(
        (isw.iterations as f64) < 3.0 * sync.iterations as f64,
        "async iSW should stay near sync: {} vs {}",
        isw.iterations,
        sync.iterations
    );
}

#[test]
fn more_workers_do_not_slow_convergence() {
    // Gradient averaging over more workers reduces variance; iteration
    // counts should not blow up as the cluster grows.
    let two = run_convergence(&ConvergenceConfig {
        workers: 2,
        max_iterations: 12_000,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    let eight = run_convergence(&ConvergenceConfig {
        workers: 8,
        max_iterations: 12_000,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    assert!(two.reached_target && eight.reached_target);
    assert!(
        (eight.iterations as f64) < 2.0 * two.iterations as f64,
        "8 workers {} vs 2 workers {}",
        eight.iterations,
        two.iterations
    );
}

#[test]
fn curves_track_convergence_progress() {
    let r = run_convergence(&ConvergenceConfig {
        max_iterations: 3_000,
        target_reward: None,
        curve_every: 150,
        ..ConvergenceConfig::sync_main(Algorithm::A2c)
    });
    assert!(r.curve.len() > 10);
    // Later rewards should beat early ones on average.
    let mid = r.curve.len() / 2;
    let early: f32 = r.curve[..mid].iter().map(|(_, v)| v).sum::<f32>() / mid as f32;
    let late: f32 =
        r.curve[mid..].iter().map(|(_, v)| v).sum::<f32>() / (r.curve.len() - mid) as f32;
    assert!(
        late > early,
        "no learning trend: early {early:.2} vs late {late:.2}"
    );
}
