//! Regenerates Table 3: the headline summary of end-to-end speedups.

use iswitch_bench::{banner, check_args, paper, scale_from_args, QUICK};
use iswitch_cluster::experiments::table3;
use iswitch_cluster::report::{fmt_speedup, render_table};

fn main() {
    check_args(&[QUICK]);
    banner("Table 3", "Summary of end-to-end training-time speedups");
    let scale = scale_from_args();
    let t = table3(&scale);

    let row = |label: &str, ours: &[f64; 4], theirs: &[f64; 4]| {
        vec![
            label.to_string(),
            fmt_speedup(ours[0]),
            fmt_speedup(ours[1]),
            fmt_speedup(ours[2]),
            fmt_speedup(ours[3]),
            format!(
                "{} / {} / {} / {}",
                fmt_speedup(theirs[0]),
                fmt_speedup(theirs[1]),
                fmt_speedup(theirs[2]),
                fmt_speedup(theirs[3])
            ),
        ]
    };
    let table = vec![
        row("Sync AR", &t.sync_ar, &paper::SYNC_AR_SPEEDUP),
        row("Sync iSW", &t.sync_isw, &paper::SYNC_ISW_SPEEDUP),
        row("Async iSW", &t.async_isw, &paper::ASYNC_ISW_SPEEDUP),
    ];
    println!(
        "{}",
        render_table(
            &[
                "Approach",
                "DQN",
                "A2C",
                "PPO",
                "DDPG",
                "paper (DQN/A2C/PPO/DDPG)"
            ],
            &table
        )
    );
    println!("Baselines: sync rows vs Sync PS; async row vs Async PS.");
}
