//! Sensitivity study: how much of iSwitch's advantage survives on faster
//! links? The paper deliberately evaluates at 10 GbE ("considering the
//! small size of transferred gradients of RL models … we do not consider
//! supporting larger network connections", §5.3); this sweep quantifies
//! that choice by rerunning the sync comparison at 10/25/40/100 GbE.

use iswitch_bench::{banner, check_args, QUICK};
use iswitch_cluster::report::render_table;
use iswitch_cluster::{run_timing, Strategy, TimingConfig};
use iswitch_netsim::{LinkSpec, SimDuration};
use iswitch_rl::Algorithm;

fn main() {
    check_args(&[QUICK]);
    banner(
        "Bandwidth sweep",
        "Sync DQN per-iteration vs edge-link speed",
    );
    let rates: [(u64, &str); 4] = [
        (10_000_000_000, "10 GbE"),
        (25_000_000_000, "25 GbE"),
        (40_000_000_000, "40 GbE"),
        (100_000_000_000, "100 GbE"),
    ];
    let mut rows = Vec::new();
    for (bps, label) in rates {
        let mut times = Vec::new();
        for strategy in [Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw] {
            let mut cfg = TimingConfig::main_cluster(Algorithm::Dqn, strategy);
            cfg.iterations = 12;
            cfg.topo.edge = LinkSpec::new(bps, SimDuration::from_micros(1));
            let r = run_timing(&cfg);
            times.push(r.per_iteration.as_millis_f64());
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2} ms", times[0]),
            format!("{:.2} ms", times[1]),
            format!("{:.2} ms", times[2]),
            format!("{:.2}x", times[0] / times[2]),
        ]);
    }
    println!(
        "{}",
        render_table(&["Edge links", "PS", "AR", "iSW", "iSW vs PS"], &rows)
    );
    println!("Faster links shrink serialization but not the software phase");
    println!("costs or the PS server's per-worker processing, so in-switch");
    println!("aggregation keeps a sizeable advantage even at 100 GbE — the");
    println!("latency-criticality argument of the paper's introduction.");
}
