//! Failure injection: synchronous iSwitch under random packet loss, with
//! the control plane's `Help`/`FBcast` recovery paths active (paper §3.3:
//! "the control plane also helps handling packet lost … with minimal
//! overhead").

use iswitch_bench::{banner, check_args, QUICK};
use iswitch_cluster::report::render_table;
use iswitch_cluster::{run_timing, Strategy, TimingConfig};
use iswitch_rl::Algorithm;

fn main() {
    check_args(&[QUICK]);
    banner("Loss recovery", "Sync iSwitch under random packet loss");
    let mut rows = Vec::new();
    let mut baseline_ms = 0.0;
    // 1e-3 on a 3.3 MB model is already ~40 lost packets per iteration —
    // far beyond datacenter loss rates. Past ~2e-3 recovery traffic and
    // worker desynchronization compound (the BRAM window fills and drops
    // contributions faster than partial flushes drain them), which is a
    // regime boundary of the protocol, not a useful operating point.
    for loss in [0.0f64, 1e-5, 1e-4, 1e-3] {
        let mut cfg = TimingConfig::main_cluster(Algorithm::A2c, Strategy::SyncIsw);
        cfg.iterations = 15;
        cfg.edge_loss = loss;
        let r = run_timing(&cfg);
        let ms = r.per_iteration.as_millis_f64();
        if loss == 0.0 {
            baseline_ms = ms;
        }
        rows.push(vec![
            if loss == 0.0 {
                "lossless".to_string()
            } else {
                format!("{loss:.0e}")
            },
            format!("{ms:.3} ms"),
            format!("{:+.1}%", 100.0 * (ms / baseline_ms - 1.0)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Loss rate", "Per-iteration", "Overhead vs lossless"],
            &rows
        )
    );
    println!("Lost result packets are re-served from the switch's result cache");
    println!("(Help); rounds stuck on a lost contribution are flushed with a");
    println!("partial aggregate (FBcast) whose count lets workers average");
    println!("correctly. Datacenter-realistic loss (≤1e-4) costs almost nothing.");
}
