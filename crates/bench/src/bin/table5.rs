//! Regenerates Table 5: asynchronous distributed training comparison
//! (Async PS vs Async iSW — iterations, per-iteration time, end-to-end
//! time, final reward), staleness bound S = 3 for both.

use iswitch_bench::{banner, check_args, paper, scale_from_args, QUICK};
use iswitch_cluster::experiments::table5;
use iswitch_cluster::report::{fmt_secs, fmt_speedup, render_table};

fn main() {
    check_args(&[QUICK]);
    banner(
        "Table 5",
        "Asynchronous distributed training comparison (S = 3)",
    );
    let scale = scale_from_args();
    let rows = table5(&scale);

    let mut table = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        table.push(vec![
            r.algorithm.clone(),
            format!("{}{}", r.iterations[0], if r.reached[0] { "" } else { "*" }),
            format!("{}{}", r.iterations[1], if r.reached[1] { "" } else { "*" }),
            format!("{:.2} ms", r.per_iteration_s[0] * 1e3),
            format!("{:.2} ms", r.per_iteration_s[1] * 1e3),
            fmt_secs(r.end_to_end_s[0]),
            fmt_secs(r.end_to_end_s[1]),
            fmt_speedup(r.isw_speedup),
            fmt_speedup(paper::ASYNC_ISW_SPEEDUP[i]),
            format!("{:.2}/{:.2}", r.mean_staleness[0], r.mean_staleness[1]),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Iters PS",
                "Iters iSW",
                "Per-iter PS",
                "Per-iter iSW",
                "E2E PS",
                "E2E iSW",
                "iSW speedup",
                "paper",
                "staleness PS/iSW",
            ],
            &table
        )
    );
    println!("* = iteration cap reached before the target reward.");
    println!(
        "Paper per-iteration ms — PS: {:?}, iSW: {:?}.",
        paper::ASYNC_PS_PER_ITER_MS,
        paper::ASYNC_ISW_PER_ITER_MS
    );
}
