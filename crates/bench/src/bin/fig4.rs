//! Regenerates Fig. 4: per-iteration breakdown of distributed RL training
//! with the PS and AllReduce approaches — gradient aggregation dominates.

use iswitch_bench::{banner, check_args, paper, scale_from_args, QUICK};
use iswitch_cluster::experiments::fig4;
use iswitch_cluster::report::render_table;

fn main() {
    check_args(&[QUICK]);
    banner("Figure 4", "Per-iteration breakdown, PS and AllReduce");
    let scale = scale_from_args();
    let rows = fig4(&scale);
    let mut table = Vec::new();
    for r in &rows {
        let mut cells = vec![format!("{} ({})", r.algorithm, r.strategy)];
        for (_, secs) in &r.components {
            cells.push(format!("{:.1}%", 100.0 * secs / r.total));
        }
        cells.push(format!("{:.2} ms", r.total * 1e3));
        table.push(cells);
    }
    let mut headers: Vec<&str> = vec!["Benchmark"];
    let labels: Vec<String> = rows[0].components.iter().map(|(l, _)| l.clone()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    headers.push("Total");
    println!("{}", render_table(&headers, &table));

    let (lo, hi) = (
        rows.iter()
            .map(|r| r.aggregation_share)
            .fold(f64::MAX, f64::min),
        rows.iter()
            .map(|r| r.aggregation_share)
            .fold(f64::MIN, f64::max),
    );
    println!(
        "Gradient-aggregation share: measured {:.1}%–{:.1}% (paper: {:.1}%–{:.1}%)",
        lo * 100.0,
        hi * 100.0,
        paper::AGG_SHARE_RANGE.0 * 100.0,
        paper::AGG_SHARE_RANGE.1 * 100.0
    );
}
