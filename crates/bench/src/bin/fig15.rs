//! Regenerates Fig. 15: rack-scale scalability of PPO and DDPG, sync and
//! async, over the two-layer ToR/Core topology (3 workers per rack).

use iswitch_bench::{banner, check_args, scale_from_args, QUICK};
use iswitch_cluster::experiments::fig15;
use iswitch_cluster::report::render_table;
use iswitch_cluster::Strategy;
use iswitch_rl::Algorithm;

fn main() {
    check_args(&[QUICK]);
    banner(
        "Figure 15",
        "Scalability: end-to-end speedup vs worker count",
    );
    let scale = scale_from_args();
    for alg in [Algorithm::Ppo, Algorithm::Ddpg] {
        for (mode, strategies) in [
            (
                "Sync",
                vec![Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw],
            ),
            ("Async", vec![Strategy::AsyncPs, Strategy::AsyncIsw]),
        ] {
            let series = fig15(alg, &strategies, &scale);
            let mut headers = vec!["Strategy".to_string()];
            headers.extend(scale.scalability_workers.iter().map(|n| format!("N={n}")));
            let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let mut rows = Vec::new();
            for s in &series {
                let mut row = vec![s.strategy.clone()];
                row.extend(s.speedup.iter().map(|x| format!("{x:.2}x")));
                rows.push(row);
            }
            // The ideal (linear) line.
            let n0 = scale.scalability_workers[0] as f64;
            let mut ideal = vec!["Ideal".to_string()];
            ideal.extend(
                scale
                    .scalability_workers
                    .iter()
                    .map(|&n| format!("{:.2}x", n as f64 / n0)),
            );
            rows.push(ideal);
            println!("--- {} ({mode}) ---", alg.name());
            println!("{}", render_table(&header_refs, &rows));
        }
    }
    println!("Paper: AR scales worst (hops linear in N); PS hits the central");
    println!("bottleneck; iSW stays near the ideal line, sync and async.");
}
