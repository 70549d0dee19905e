//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **On-the-fly vs store-and-forward** in-switch aggregation (Fig. 8's
//!    two schemes, measured in-system rather than analytically).
//! 2. **Aggregation threshold `H`** (`SetH`): partial aggregation in
//!    asynchronous training — update interval vs staleness trade-off.
//! 3. **Hierarchical vs flat** aggregation at 12 workers: what the
//!    two-layer tree costs/buys against one big star.

use iswitch_bench::{banner, check_args, QUICK};
use iswitch_cluster::report::render_table;
use iswitch_cluster::{run_timing, AggregationMode, Strategy, TimingConfig};
use iswitch_rl::Algorithm;

fn main() {
    check_args(&[QUICK]);
    banner(
        "Ablations",
        "On-the-fly, SetH partial aggregation, hierarchy",
    );

    // --- 1. On-the-fly vs store-and-forward ------------------------------
    println!("1) Output schedule of the in-switch accelerator (sync, 4 workers)\n");
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let mut cfg = TimingConfig::main_cluster(alg, Strategy::SyncIsw);
        cfg.iterations = 12;
        let otf = run_timing(&cfg);
        cfg.aggregation_mode = AggregationMode::StoreAndForward;
        let saf = run_timing(&cfg);
        rows.push(vec![
            alg.name().to_string(),
            format!("{:.3} ms", otf.breakdown.aggregation.as_millis_f64()),
            format!("{:.3} ms", saf.breakdown.aggregation.as_millis_f64()),
            format!(
                "{:.1}%",
                100.0
                    * (1.0
                        - otf.breakdown.aggregation.as_secs_f64()
                            / saf.breakdown.aggregation.as_secs_f64())
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "On-the-fly agg",
                "Store-and-forward agg",
                "Reduction"
            ],
            &rows
        )
    );

    // --- 2. SetH sweep on async iSwitch ----------------------------------
    // (Run on PPO: with H < workers and a multi-MB model, a whole gradient
    // vector can sit resident awaiting its round — the accelerator's BRAM
    // window model rejects that, which is itself an ablation finding: DQN
    // at H=2 would exceed the switch's 3 MB of BRAM.)
    println!("2) Aggregation threshold H (async iSwitch, 4 workers, PPO)\n");
    let mut rows = Vec::new();
    for h in [2u16, 3, 4] {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::AsyncIsw);
        cfg.iterations = 20;
        cfg.threshold_override = Some(h);
        let r = run_timing(&cfg);
        rows.push(vec![
            format!("H = {h}"),
            format!("{:.2} ms", r.per_iteration.as_millis_f64()),
            format!("{:.2}", r.mean_staleness().unwrap_or(0.0)),
        ]);
    }
    println!(
        "{}",
        render_table(&["Threshold", "Update interval", "Mean staleness"], &rows)
    );
    println!("Lower H broadcasts sooner (faster updates) but each update");
    println!("averages fewer gradients — the paper keeps H = workers. For");
    println!("MB-scale models, H < workers also blows the BRAM window: a");
    println!("full vector would sit resident awaiting its round.\n");

    // --- 3. Hierarchical vs flat at 12 workers ---------------------------
    println!("3) Hierarchical (4 racks x 3) vs flat star at 12 workers (PPO sync)\n");
    let mut flat = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    flat.workers = 12;
    flat.iterations = 12;
    let flat_r = run_timing(&flat);
    let mut tree = flat.clone();
    tree.workers_per_rack = Some(3);
    let tree_r = run_timing(&tree);
    println!(
        "{}",
        render_table(
            &["Topology", "Per-iteration", "Aggregation"],
            &[
                vec![
                    "flat star (12 ports)".into(),
                    format!("{:.3} ms", flat_r.per_iteration.as_millis_f64()),
                    format!("{:.3} ms", flat_r.breakdown.aggregation.as_millis_f64()),
                ],
                vec![
                    "ToR/Core tree (3/rack)".into(),
                    format!("{:.3} ms", tree_r.per_iteration.as_millis_f64()),
                    format!("{:.3} ms", tree_r.breakdown.aggregation.as_millis_f64()),
                ],
            ]
        )
    );
    println!("The tree adds two switch levels of latency but matches real");
    println!("rack-scale port budgets — the paper's §3.4 deployment argument.\n");

    // --- 4. Two-level vs three-level hierarchy at 24 workers -------------
    println!("4) Hierarchy depth at 24 workers (PPO sync, 3 workers/rack)\n");
    let mut two = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    two.workers = 24;
    two.workers_per_rack = Some(3);
    two.iterations = 12;
    let two_r = run_timing(&two);
    let mut three = two.clone();
    three.racks_per_agg = Some(2);
    let three_r = run_timing(&three);
    println!(
        "{}",
        render_table(
            &["Hierarchy", "Per-iteration", "Aggregation"],
            &[
                vec![
                    "ToR -> Core (8-port core)".into(),
                    format!("{:.3} ms", two_r.per_iteration.as_millis_f64()),
                    format!("{:.3} ms", two_r.breakdown.aggregation.as_millis_f64()),
                ],
                vec![
                    "ToR -> AGG -> Core (Fig. 10)".into(),
                    format!("{:.3} ms", three_r.per_iteration.as_millis_f64()),
                    format!("{:.3} ms", three_r.breakdown.aggregation.as_millis_f64()),
                ],
            ]
        )
    );
    println!("Each extra level adds two hops and one partial-aggregation stage");
    println!("per direction — microseconds against a multi-ms iteration, which");
    println!("is why hierarchical aggregation scales to data-center fabrics.");
}
