//! Regenerates Table 1: the study of popular RL algorithms.

use iswitch_bench::{
    banner, check_args, metrics_out_from_args, rows_artifact, write_metrics, METRICS_OUT, QUICK,
};
use iswitch_cluster::experiments::table1;
use iswitch_cluster::report::{fmt_bytes, render_table};
use iswitch_obs::JsonValue;

fn main() {
    check_args(&[QUICK, METRICS_OUT]);
    banner("Table 1", "A study of popular RL algorithms");
    let results = table1();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                r.environment.clone(),
                fmt_bytes(r.model_bytes as f64),
                fmt_bytes(r.paper_bytes as f64),
                format!("{:.2}M", r.paper_iterations as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Environment",
                "Model Size (ours)",
                "Model Size (paper)",
                "Iterations (paper)"
            ],
            &rows
        )
    );

    if let Some(path) = metrics_out_from_args() {
        let json_rows = results
            .iter()
            .map(|r| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(r.algorithm.clone()));
                row.insert("environment", JsonValue::Str(r.environment.clone()));
                row.insert("model_bytes", JsonValue::UInt(r.model_bytes as u64));
                row.insert("paper_bytes", JsonValue::UInt(r.paper_bytes));
                row.insert("paper_iterations", JsonValue::UInt(r.paper_iterations));
                row
            })
            .collect();
        write_metrics(&path, &rows_artifact("table1", json_rows)).expect("write metrics artifact");
        println!("metrics written to {}", path.display());
    }
}
