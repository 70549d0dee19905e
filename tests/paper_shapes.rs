//! Integration tests asserting the paper's qualitative results — who
//! wins, where crossovers fall — at quick experiment scale.

use iswitch::cluster::experiments::{fig15, fig8, RunStore, Scale};
use iswitch::cluster::{run_timing, Strategy, TimingConfig};
use iswitch::rl::Algorithm;

fn quick(alg: Algorithm, strategy: Strategy) -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(alg, strategy);
    cfg.iterations = 8;
    cfg.warmup = 2;
    cfg
}

#[test]
fn isw_reduces_aggregation_time_by_a_large_factor() {
    // Paper Fig. 12: 81.6%–85.8% reduction in aggregation time vs PS for
    // the large models.
    for alg in [Algorithm::Dqn, Algorithm::A2c] {
        let ps = run_timing(&quick(alg, Strategy::SyncPs));
        let isw = run_timing(&quick(alg, Strategy::SyncIsw));
        let reduction =
            1.0 - isw.breakdown.aggregation.as_secs_f64() / ps.breakdown.aggregation.as_secs_f64();
        assert!(
            reduction > 0.7,
            "{alg}: aggregation reduction only {:.0}%",
            reduction * 100.0
        );
    }
}

#[test]
fn aggregation_dominates_baseline_iterations() {
    // Paper Fig. 4: gradient aggregation takes 49.9%–83.2% of each
    // PS/AR iteration.
    for alg in Algorithm::ALL {
        for strategy in [Strategy::SyncPs, Strategy::SyncAr] {
            let r = run_timing(&quick(alg, strategy));
            let share = r.breakdown.aggregation_share();
            assert!(
                (0.35..0.95).contains(&share),
                "{alg} {strategy:?}: aggregation share {share:.2} out of plausible range"
            );
        }
    }
}

#[test]
fn sync_speedup_factors_are_in_paper_territory() {
    // Paper Table 3 (sync iSW over PS): 3.66x (DQN) down to 1.72x (PPO).
    let dqn_ps = run_timing(&quick(Algorithm::Dqn, Strategy::SyncPs));
    let dqn_isw = run_timing(&quick(Algorithm::Dqn, Strategy::SyncIsw));
    let dqn_speedup = dqn_ps.per_iteration.as_secs_f64() / dqn_isw.per_iteration.as_secs_f64();
    assert!(
        (2.0..5.0).contains(&dqn_speedup),
        "DQN iSW speedup {dqn_speedup:.2}"
    );

    let ppo_ps = run_timing(&quick(Algorithm::Ppo, Strategy::SyncPs));
    let ppo_isw = run_timing(&quick(Algorithm::Ppo, Strategy::SyncIsw));
    let ppo_speedup = ppo_ps.per_iteration.as_secs_f64() / ppo_isw.per_iteration.as_secs_f64();
    assert!(
        (1.1..2.5).contains(&ppo_speedup),
        "PPO iSW speedup {ppo_speedup:.2}"
    );
    // Larger models gain more (the paper's DQN > PPO ordering).
    assert!(dqn_speedup > ppo_speedup);
}

#[test]
fn ar_ps_crossover_matches_model_size() {
    // Paper Table 3: AR speeds up DQN/A2C (1.97x, 1.62x) but slows down
    // PPO/DDPG (0.91x, 0.90x).
    let speedup = |alg| {
        let ps = run_timing(&quick(alg, Strategy::SyncPs));
        let ar = run_timing(&quick(alg, Strategy::SyncAr));
        ps.per_iteration.as_secs_f64() / ar.per_iteration.as_secs_f64()
    };
    assert!(
        speedup(Algorithm::Dqn) > 1.3,
        "AR should clearly win on DQN"
    );
    assert!(speedup(Algorithm::Ppo) < 1.05, "AR should not win on PPO");
    assert!(speedup(Algorithm::Ddpg) < 1.05, "AR should not win on DDPG");
}

#[test]
fn async_isw_has_lower_staleness_than_async_ps() {
    // §6.2: faster aggregation ⇒ fresher gradients.
    for alg in [Algorithm::Dqn, Algorithm::A2c] {
        let ps = run_timing(&quick(alg, Strategy::AsyncPs));
        let isw = run_timing(&quick(alg, Strategy::AsyncIsw));
        let ps_mean = ps.mean_staleness().expect("ps staleness");
        let isw_mean = isw.mean_staleness().expect("isw staleness");
        assert!(
            isw_mean <= ps_mean + 0.3,
            "{alg}: iSW staleness {isw_mean:.2} vs PS {ps_mean:.2}"
        );
    }
}

#[test]
fn scalability_ranking_matches_fig15() {
    // Paper Fig. 15: at rack scale, iSW > PS > AR for synchronous PPO.
    let scale = Scale {
        scalability_workers: vec![4, 12],
        ..Scale::quick()
    };
    let series = fig15(
        Algorithm::Ppo,
        &[Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw],
        &scale,
        &RunStore::default(),
    );
    let at12 = |label: &str| {
        series
            .iter()
            .find(|s| s.strategy == label)
            .expect("series present")
            .speedup[1]
    };
    let (ps, ar, isw) = (at12("PS"), at12("AR"), at12("iSW"));
    assert!(isw > ps, "iSW {isw:.2} should out-scale PS {ps:.2}");
    assert!(ps > ar, "PS {ps:.2} should out-scale AR {ar:.2}");
    assert!(
        isw > 2.0,
        "iSW should stay near the ideal 3.0x at 12 workers, got {isw:.2}"
    );
}

#[test]
fn on_the_fly_wins_for_all_models() {
    for row in fig8(4) {
        assert!(row.on_the_fly_ms < row.conventional_ms, "{}", row.algorithm);
    }
}
