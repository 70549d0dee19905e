//! Wire cost of each aggregation codec (`--codec`) on the paper's four
//! models: segments (one packet per worker per round each), the
//! contribution bytes a worker sends per round, and the wide result bytes
//! the switch broadcasts back.
//!
//! Precision and convergence under each codec are measured end to end by
//! `iswitch-sim timing --fidelity cosim --codec <kind>` (EXPERIMENTS.md).

use iswitch_bench::{banner, check_args, QUICK};
use iswitch_cluster::report::render_table;
use iswitch_core::{CodecKind, DataSegment};
use iswitch_rl::{paper_model, Algorithm};

/// Contribution and wide-result payload bytes of one `len`-element round.
fn round_bytes(kind: CodecKind, len: usize) -> (usize, usize) {
    let codec = kind.codec();
    let per = kind.elems_per_segment();
    let (full, tail) = (len / per, len % per);
    let over_segments =
        |bytes: &dyn Fn(usize) -> usize| full * bytes(per) + if tail > 0 { bytes(tail) } else { 0 };
    let result_bytes = |n: usize| {
        let aggregate = DataSegment {
            seg: 0,
            count: 1,
            values: vec![0.0; n],
        };
        codec.encode_result(&aggregate).len()
    };
    (
        over_segments(&|n| codec.contribution_bytes(n)),
        over_segments(&result_bytes),
    )
}

fn main() {
    check_args(&[QUICK]);
    banner("Quantization", "Wire cost per aggregation codec");
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let len = paper_model(alg).param_count();
        let (f32_up, f32_down) = round_bytes(CodecKind::F32, len);
        for kind in CodecKind::ALL {
            let (up, down) = round_bytes(kind, len);
            rows.push(vec![
                alg.name().to_string(),
                kind.label().to_string(),
                format!("{}", kind.num_segments(len)),
                format!("{up}"),
                format!("{:.1}%", 100.0 * up as f64 / f32_up as f64),
                format!("{down}"),
                format!("{:.1}%", 100.0 * down as f64 / f32_down as f64),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Codec",
                "Packets/round",
                "Contribution B",
                "vs f32",
                "Result B",
                "vs f32"
            ],
            &rows
        )
    );
    println!("Fixed-point halves contribution bytes but not packets: its i32 wide");
    println!("result caps a segment at 365 elements (f32: 366). Top-k lists its");
    println!("worst case (every kept element sent as a 6-byte sparse entry).");
}
