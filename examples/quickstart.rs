//! Quickstart: aggregate four workers' gradients inside a simulated
//! switch and compare the per-iteration time against the parameter-server
//! baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use iswitch::cluster::{run_timing, Strategy, TimingConfig};
use iswitch::core::{
    decode_data_meta, Accelerator, AcceleratorConfig, CodecKind, EncodedGradient, RoundAssembler,
};
use iswitch::netsim::IpAddr;
use iswitch::rl::Algorithm;

fn main() {
    // --- 1. The functional core: on-the-fly in-switch aggregation. -------
    // Four workers each send a 1,000-element gradient as data packets; the
    // switch sums packets as they arrive and emits each segment's
    // aggregate, which a worker reassembles into the mean gradient.
    const LEN: usize = 1_000;
    let segments = iswitch::core::num_segments(LEN);
    let mut accel = Accelerator::new(AcceleratorConfig::default(), segments, 4);
    let mut results = RoundAssembler::new(LEN, true);
    results.begin_round(Some(0));

    for w in 0..4u8 {
        let grad = vec![f32::from(w + 1); LEN];
        let enc =
            EncodedGradient::with_codec(IpAddr::new(10, 0, 0, w + 1), &grad, CodecKind::F32, 0);
        for pkt in enc.packets_round(0) {
            let meta = decode_data_meta(&pkt).expect("an f32 data packet");
            if let (Some(done), latency) = accel.ingest_wire(meta, &pkt.payload) {
                println!(
                    "segment {:>2} aggregated over {} workers ({} per packet)",
                    done.seg, done.count, latency
                );
                results.insert_wire(&done.encode());
            }
        }
    }
    let mean = results.take_mean().expect("every segment aggregated");
    assert!(mean.iter().all(|&v| v == (1.0 + 2.0 + 3.0 + 4.0) / 4.0));
    println!("aggregate correct: every element of the mean is 2.5\n");

    // --- 2. The systems claim: fewer network hops, lower latency. --------
    // Simulate one PPO training iteration at packet level for the PS
    // baseline and for iSwitch on the paper's 4-worker cluster.
    let ps = run_timing(&TimingConfig::main_cluster(
        Algorithm::Ppo,
        Strategy::SyncPs,
    ));
    let isw = run_timing(&TimingConfig::main_cluster(
        Algorithm::Ppo,
        Strategy::SyncIsw,
    ));
    println!("PPO per-iteration time (packet-level simulation, 4 workers):");
    println!("  parameter server : {}", ps.per_iteration);
    println!("  iSwitch          : {}", isw.per_iteration);
    println!(
        "  speedup          : {:.2}x (paper reports 1.72x end-to-end)",
        ps.per_iteration.as_secs_f64() / isw.per_iteration.as_secs_f64()
    );
}
