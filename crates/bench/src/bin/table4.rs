//! Regenerates Table 4: synchronous distributed training comparison
//! (PS vs AR vs iSW — iterations, end-to-end time, final reward).

use iswitch_bench::{banner, check_args, paper, scale_from_args, QUICK};
use iswitch_cluster::experiments::table4;
use iswitch_cluster::report::{fmt_secs, fmt_speedup, render_table};

fn main() {
    check_args(&[QUICK]);
    banner("Table 4", "Synchronous distributed training comparison");
    let scale = scale_from_args();
    let rows = table4(&scale);

    let mut table = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        table.push(vec![
            r.algorithm.clone(),
            format!("{}", r.iterations),
            format!("{:.1}", r.final_reward),
            fmt_secs(r.end_to_end_s[0]),
            fmt_secs(r.end_to_end_s[1]),
            fmt_secs(r.end_to_end_s[2]),
            fmt_speedup(r.speedup[1]),
            fmt_speedup(r.speedup[2]),
            fmt_speedup(paper::SYNC_AR_SPEEDUP[i]),
            fmt_speedup(paper::SYNC_ISW_SPEEDUP[i]),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Iterations",
                "Final Reward",
                "E2E PS",
                "E2E AR",
                "E2E iSW",
                "AR speedup",
                "iSW speedup",
                "AR (paper)",
                "iSW (paper)",
            ],
            &table
        )
    );
    println!("Iterations/rewards are measured on the scaled-down lite workloads;");
    println!("per-iteration times come from the paper-sized packet simulation.");
    println!("Paper iterations: DQN 1.4M, A2C 0.2M, PPO 0.08M, DDPG 0.75M.");
}
