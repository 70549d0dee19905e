//! Regenerates Fig. 13: DQN training curves (reward vs wall-clock) for the
//! synchronous strategies.

use iswitch_bench::{banner, check_args, scale_from_args, QUICK};
use iswitch_cluster::experiments::training_curves;
use iswitch_cluster::report::render_ascii_chart;
use iswitch_cluster::Strategy;
use iswitch_rl::Algorithm;

fn main() {
    check_args(&[QUICK]);
    banner(
        "Figure 13",
        "DQN sync training curves: reward vs wall-clock",
    );
    let scale = scale_from_args();
    let curves = training_curves(
        Algorithm::Dqn,
        &[Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw],
        &scale,
    );
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| {
            (
                c.strategy.clone(),
                c.points.iter().map(|&(m, r)| (m, r as f64)).collect(),
            )
        })
        .collect();
    println!(
        "{}",
        render_ascii_chart(
            "DQN (CartPole stand-in): avg episode reward vs minutes",
            &series,
            72,
            20
        )
    );
    for c in &curves {
        let last = c.points.last();
        println!(
            "  {:8}: {} points, final {:?}",
            c.strategy,
            c.points.len(),
            last.map(|&(m, r)| format!("{r:.1} @ {m:.2} min"))
        );
    }
    println!("Paper: iSW reaches the same reward level in much less wall-clock time.");
}
