//! End-to-end determinism golden: one seeded timing run must reproduce its
//! observability artifacts **byte for byte**.
//!
//! This is the repo's strongest guard against accidental behavior change on
//! the hot path: the metrics report pins every engine counter (events,
//! packets, per-link byte counts, aggregation histograms) and the trace
//! pins the full per-hop packet lifecycle in record order. Optimizations
//! that are supposed to be pure speedups (timing-wheel scheduler, wire-level
//! ingest, payload caching) must leave both files untouched.
//!
//! On a mismatch the test writes this run's files under
//! `$CARGO_TARGET_TMPDIR` and prints the `cp` lines that make them the
//! goldens. Run them only for an *intentional* change, and review the diff
//! like any other semantic change.

use std::fs;
use std::path::Path;

use iswitch_cluster::{run_timing_observed_with, Strategy, TimingConfig, TraceOptions};
use iswitch_rl::Algorithm;

/// The pinned scenario: PPO over synchronous iSwitch, 2 workers on the
/// single-switch star, 4 measured iterations. Small enough to run in
/// milliseconds, rich enough to exercise send, in-switch aggregation,
/// broadcast, and reassembly on every round.
fn golden_config() -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    cfg.workers = 2;
    cfg.iterations = 4;
    cfg
}

#[test]
fn seeded_run_reproduces_golden_artifacts_byte_for_byte() {
    let obs = run_timing_observed_with(
        &golden_config(),
        TraceOptions {
            capacity: Some(65_536),
            stream: None,
            timeseries: None,
        },
    );
    let metrics = obs.report_json().render() + "\n";
    let trace = obs.trace.to_jsonl();

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let metrics_path = dir.join("timing_ppo_isw_w2_i4.metrics.json");
    let trace_path = dir.join("timing_ppo_isw_w2_i4.trace.jsonl");

    let moved: Vec<String> = [(&metrics_path, &metrics), (&trace_path, &trace)]
        .into_iter()
        .filter(|(golden, now)| fs::read_to_string(golden).ok().as_ref() != Some(now))
        .map(|(golden, now)| {
            let file = golden.file_name().expect("a file name");
            let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
            fs::write(&actual, now).unwrap();
            format!("  cp {} {}", actual.display(), golden.display())
        })
        .collect();
    assert!(
        moved.is_empty(),
        "the run drifted from its golden files; if the change is intentional, \
         accept this run's files with:\n{}",
        moved.join("\n")
    );
}

/// The same scenario run twice in one process must also be identical —
/// catches nondeterminism that a stale golden file could mask (e.g. hash
/// iteration order leaking into event order).
#[test]
fn back_to_back_runs_are_identical() {
    let run = || {
        let obs = run_timing_observed_with(&golden_config(), TraceOptions::default());
        (obs.report_json().render(), obs.trace.to_jsonl())
    };
    assert_eq!(run(), run());
}
