//! Regenerates the §3.5 resource-accounting analog: the paper reports FPGA
//! utilization (LUT/FF/BRAM/DSP); this reproduction has no synthesis
//! target, so it reports the accelerator model's architectural resources
//! per benchmark next to the paper's figures.

use iswitch_bench::{banner, check_args, paper, QUICK};
use iswitch_cluster::report::render_table;
use iswitch_core::{decode_data_meta, gradient_packets, Accelerator, AcceleratorConfig};
use iswitch_netsim::IpAddr;
use iswitch_rl::{paper_model, Algorithm};

fn main() {
    check_args(&[QUICK]);
    banner(
        "§3.5 resources",
        "Accelerator resource accounting (FPGA analog)",
    );

    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let spec = paper_model(alg);
        let len = spec.param_count();
        let segs = iswitch_core::num_segments(len);
        let mut accel = Accelerator::new(AcceleratorConfig::default(), segs, 4);
        // Drive one 4-worker aggregation round. Workers stream in parallel,
        // so their packets interleave per segment — the on-the-fly window
        // stays small. (Strictly sequential full-vector pushes would need
        // the whole model resident and genuinely exceed the BRAM budget.)
        let packets = gradient_packets(IpAddr::UNSPECIFIED, &vec![1.0f32; len]);
        for pkt in &packets {
            let meta = decode_data_meta(pkt).expect("well-formed contribution");
            for _ in 0..4 {
                let _ = accel.ingest_wire(meta, &pkt.payload);
            }
        }
        let r = accel.resources();
        rows.push(vec![
            alg.name().to_string(),
            format!("{}", segs),
            format!("{}", r.adders),
            format!("{:.1} KB", r.buffer_bytes_used as f64 / 1024.0),
            format!("{:.1} KB", r.buffer_bytes_budget as f64 / 1024.0),
            format!("{}", r.counter_bits / 16),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Segments",
                "f32 adders",
                "Peak buffer",
                "BRAM budget",
                "Counters"
            ],
            &rows
        )
    );
    println!(
        "Paper (NetFPGA-SUME synthesis overhead vs reference switch): \
         LUT +{:.1}%, FF +{:.1}%, BRAM +{:.1}%, {} DSP slices.",
        paper::FPGA_LUT * 100.0,
        paper::FPGA_FF * 100.0,
        paper::FPGA_BRAM * 100.0,
        paper::FPGA_DSP
    );
    println!("On-the-fly aggregation keeps the peak buffer to the in-flight");
    println!("window, which is how a 6.41 MB model fits a ~3 MB BRAM budget.");
}
