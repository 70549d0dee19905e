//! Chaos smoke: seeded random fault schedules (link outages, loss windows,
//! delay spikes) against every strategy, with the protocol invariants
//! checked after the run — gradient conservation, sync barrier, staleness
//! bound, update consistency — and same-seed determinism verified by
//! replaying each run and comparing the rendered reports byte for byte.
//!
//! Exits non-zero on any invariant violation or determinism break, so CI
//! can gate on it.

use std::process::exit;

use iswitch_bench::{banner, check_args};
use iswitch_cluster::report::render_table;
use iswitch_cluster::{run_chaos, ChaosConfig, Strategy};
use iswitch_rl::Algorithm;

const SEEDS: [u64; 3] = [1, 7, 0xC4A05];

const STRATEGIES: [Strategy; 5] = [
    Strategy::SyncPs,
    Strategy::SyncAr,
    Strategy::SyncIsw,
    Strategy::AsyncPs,
    Strategy::AsyncIsw,
];

fn main() {
    check_args(&[]);
    banner(
        "Chaos smoke",
        "Seeded fault injection with protocol invariants on",
    );
    let mut rows = Vec::new();
    let mut failures = 0u32;
    for strategy in STRATEGIES {
        for seed in SEEDS {
            let cfg = ChaosConfig::new(Algorithm::Ppo, strategy, seed);
            let report = run_chaos(&cfg);
            let replay = run_chaos(&cfg);
            let deterministic = report.to_json().render() == replay.to_json().render();
            let ok = report.passed() && deterministic;
            failures += u32::from(!ok);
            rows.push(vec![
                strategy.label().to_string(),
                format!("{seed:#x}"),
                report.faults_applied.to_string(),
                format!("{:?}", report.completed),
                report.rounds_checked.to_string(),
                if !report.passed() {
                    "VIOLATED".to_string()
                } else if !deterministic {
                    "NON-DETERMINISTIC".to_string()
                } else {
                    "ok".to_string()
                },
            ]);
            for v in &report.violations {
                eprintln!("{} seed {seed:#x}: {v}", strategy.label());
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Strategy",
                "Seed",
                "Faults",
                "Completed",
                "Rounds checked",
                "Verdict"
            ],
            &rows
        )
    );
    println!("Every run replays byte-identically under its seed; sync rounds are");
    println!("value-checked for gradient conservation (no contribution lost or");
    println!("double-counted), async runs for the staleness bound.");
    if failures > 0 {
        eprintln!("{failures} chaos run(s) failed");
        exit(1);
    }
}
