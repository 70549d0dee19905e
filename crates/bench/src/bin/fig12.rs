//! Regenerates Fig. 12: per-iteration time of the synchronous strategies,
//! normalized against PS, with component breakdown.

use iswitch_bench::{banner, check_args, scale_from_args, QUICK};
use iswitch_cluster::experiments::fig12;
use iswitch_cluster::report::render_table;

fn main() {
    check_args(&[QUICK]);
    banner(
        "Figure 12",
        "Sync per-iteration breakdown (normalized vs PS)",
    );
    let scale = scale_from_args();
    let rows = fig12(&scale);

    // Normalize each algorithm's strategies against its PS total.
    let mut table = Vec::new();
    for alg_rows in rows.chunks(3) {
        let ps_total = alg_rows[0].total;
        for r in alg_rows {
            let agg = r
                .components
                .iter()
                .find(|(l, _)| l == "Grad Aggregation")
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            let compute: f64 = r.total - agg;
            table.push(vec![
                format!("{} ({})", r.algorithm, r.strategy),
                format!("{:.2} ms", r.total * 1e3),
                format!("{:.2}", r.total / ps_total),
                format!("{:.1}%", 100.0 * agg / r.total),
                format!("{:.2} ms", compute * 1e3),
                format!("{:.2} ms", agg * 1e3),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Benchmark",
                "Per-iter",
                "Norm. vs PS",
                "Agg share",
                "Compute+update",
                "Aggregation"
            ],
            &table
        )
    );
    println!("Paper: iSW is 41.9%–72.7% shorter than PS (81.6%–85.8% less");
    println!("aggregation time) and 36.7%–48.9% shorter than AR.");
}
