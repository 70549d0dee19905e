//! Determinism battery for the quantized aggregation codecs on the
//! sharded fat-tree workload.
//!
//! The repo's determinism contract — same seed in, byte-identical
//! observability artifacts out, regardless of thread count — must hold
//! for every codec, not just the f32 default. Quantized codecs are the
//! interesting case: their accumulators reconcile scaling exponents in
//! arrival order, so any order leak (hash iteration, shard scheduling)
//! shows up here as a one-ulp mantissa difference long before it would
//! perturb an f32 run.

use iswitch_cluster::{run_timing_observed, Strategy, TimingConfig};
use iswitch_core::CodecKind;
use iswitch_netsim::FattreeShape;
use iswitch_rl::Algorithm;

/// The pinned scenario: PPO over synchronous iSwitch on the sharded
/// 2×2×2 fat-tree (8 workers, ToR → AGG → Core hierarchy).
fn fattree_config(codec: CodecKind) -> TimingConfig {
    let shape = FattreeShape {
        aggs: 2,
        racks_per_agg: 2,
        hosts_per_rack: 2,
    };
    let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    cfg.workers = shape.workers();
    cfg.fattree = Some(shape);
    cfg.iterations = 6;
    cfg.warmup = 2;
    cfg.codec = codec;
    cfg
}

/// Full observability export: the metrics report plus the merged causal
/// trace, exactly the bytes the CLI would write to disk.
fn export(cfg: &TimingConfig) -> (String, String) {
    let obs = run_timing_observed(cfg);
    (obs.report_json().render(), obs.trace.to_jsonl())
}

/// The quantised codecs. On the fat-tree, parent switches add their
/// children's wide aggregates, per block under block-float.
const QUANTISED: [CodecKind; 3] = [
    CodecKind::FixedPoint,
    CodecKind::BlockFloat,
    CodecKind::TopK,
];

#[test]
fn same_seed_runs_twice_byte_identical_per_codec() {
    for codec in QUANTISED {
        let cfg = fattree_config(codec);
        let first = export(&cfg);
        let second = export(&cfg);
        assert_eq!(first, second, "{codec}: same-seed reruns must be identical");
    }
}

#[test]
fn thread_count_never_leaks_into_codec_artifacts() {
    for codec in QUANTISED {
        let mut cfg = fattree_config(codec);
        let mut exports = Vec::new();
        for threads in [1usize, 2, 4] {
            cfg.threads = threads;
            exports.push(export(&cfg));
        }
        assert_eq!(
            exports[0], exports[1],
            "{codec}: threads=1 vs threads=2 differ"
        );
        assert_eq!(
            exports[0], exports[2],
            "{codec}: threads=1 vs threads=4 differ"
        );
    }
}

#[test]
fn quantized_codecs_actually_change_the_wire() {
    // Anti-placebo check: if the codec knob were silently ignored
    // somewhere along the path, every determinism assertion above would
    // pass vacuously. A fixed-point run must ship different bytes (and
    // therefore a different trace) than the f32 run it shadows.
    let f32_run = export(&fattree_config(CodecKind::F32));
    let fixed = export(&fattree_config(CodecKind::FixedPoint));
    assert_ne!(
        f32_run.1, fixed.1,
        "fixed-point left the packet trace untouched — codec not applied"
    );
}
