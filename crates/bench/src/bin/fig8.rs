//! Regenerates Fig. 8: conventional whole-vector aggregation vs iSwitch's
//! on-the-fly per-packet aggregation.

use iswitch_bench::{
    banner, check_args, metrics_out_from_args, rows_artifact, write_metrics, METRICS_OUT, QUICK,
};
use iswitch_cluster::experiments::fig8;
use iswitch_cluster::report::render_table;
use iswitch_obs::JsonValue;

fn main() {
    check_args(&[QUICK, METRICS_OUT]);
    banner("Figure 8", "Conventional vs on-the-fly aggregation latency");
    let results = fig8(4);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                format!("{:.2} KB", r.model_bytes as f64 / 1024.0),
                format!("{:.3} ms", r.conventional_ms),
                format!("{:.3} ms", r.on_the_fly_ms),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - r.on_the_fly_ms / r.conventional_ms)
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Vector size",
                "Conventional (Fig. 8a)",
                "On-the-fly (Fig. 8b)",
                "Reduction"
            ],
            &rows
        )
    );
    println!("On-the-fly aggregation hides the summation behind packet arrival,");
    println!("so completion trails the last packet by one datapath latency only.");

    if let Some(path) = metrics_out_from_args() {
        let json_rows = results
            .iter()
            .map(|r| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(r.algorithm.clone()));
                row.insert("model_bytes", JsonValue::UInt(r.model_bytes as u64));
                row.insert("conventional_ms", JsonValue::Float(r.conventional_ms));
                row.insert("on_the_fly_ms", JsonValue::Float(r.on_the_fly_ms));
                row
            })
            .collect();
        write_metrics(&path, &rows_artifact("fig8", json_rows)).expect("write metrics artifact");
        println!("metrics written to {}", path.display());
    }
}
