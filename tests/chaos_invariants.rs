//! Chaos harness end-to-end: seeded fault schedules against every
//! strategy, protocol invariants checked over the recorded runs, tenant
//! isolation (I6) under a leaky co-tenant, and the harness's own teeth
//! verified against a deliberately broken recovery path and a missing
//! quota.

use iswitch::cluster::{
    run_chaos, run_chaos_isolation, ChaosFault, ChaosSchedule, Faults, MultiJobConfig, SeededBug,
    Strategy, TimingConfig, TransportKind,
};
use iswitch::core::CodecKind;
use iswitch::netsim::{FattreeShape, SimDuration};
use iswitch::rl::Algorithm;

const ALL: [Strategy; 5] = [
    Strategy::SyncPs,
    Strategy::SyncAr,
    Strategy::SyncIsw,
    Strategy::AsyncPs,
    Strategy::AsyncIsw,
];

/// The PPO chaos cell under sync iSW, running `faults` (chaos seed 0)
/// instead of a drawn schedule.
fn explicit(faults: Vec<ChaosFault>) -> TimingConfig {
    let mut cfg = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 0);
    let schedule = Some(ChaosSchedule { faults });
    cfg.faults = Some(Faults {
        chaos_seed: 0,
        schedule,
    });
    cfg
}

/// Worker 1's edge link down from 2 ms to 42 ms.
fn worker_1_down() -> Vec<ChaosFault> {
    vec![ChaosFault::EdgeDown {
        worker: 1,
        at: SimDuration::from_millis(2),
        duration: SimDuration::from_millis(40),
    }]
}

#[test]
fn invariants_hold_for_every_strategy_under_seeded_chaos() {
    for strategy in ALL {
        let cfg = TimingConfig::chaos(Algorithm::Ppo, strategy, 0xC4A05);
        let report = run_chaos(&cfg);
        assert!(
            report.passed(),
            "{strategy:?} violated invariants: {:?}",
            report.violations
        );
        assert!(
            report.faults_applied > 0,
            "{strategy:?}: the schedule should actually fire"
        );
        assert!(report.completed.iter().all(|&c| c >= cfg.iterations));
        if strategy == Strategy::SyncIsw {
            assert!(
                report.rounds_checked >= cfg.iterations * cfg.workers,
                "conservation should be value-checked on every round"
            );
        }
    }
}

/// The protocol invariants are transport-independent: the full matrix of
/// fault-schedule seeds × strategies × wire policies must hold I1–I5.
/// (I5 — determinism — is spot-checked per transport below rather than
/// run-twice on all 45 cells.)
#[test]
fn invariants_hold_under_every_transport() {
    for transport in TransportKind::ALL {
        for chaos_seed in [1, 2, 0xC4A05] {
            for strategy in ALL {
                let mut cfg = TimingConfig::chaos(Algorithm::Ppo, strategy, chaos_seed);
                cfg.transport = transport;
                let report = run_chaos(&cfg);
                assert!(
                    report.passed(),
                    "{strategy:?}/{transport} seed {chaos_seed} violated invariants: {:?}",
                    report.violations
                );
                assert!(
                    report.faults_applied > 0,
                    "{strategy:?}/{transport}: the schedule should actually fire"
                );
                assert!(report.completed.iter().all(|&c| c >= cfg.iterations));
            }
        }
        // I5: each transport's recovery decisions replay byte-identically.
        let mut cfg = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 7);
        cfg.transport = transport;
        let a = run_chaos(&cfg).to_json().render();
        let b = run_chaos(&cfg).to_json().render();
        assert_eq!(a, b, "{transport}: same seed must replay byte-identically");
    }
}

/// Chaos on the hierarchies the paper scales out with (§3.4): the
/// four-worker two-level tree (two racks of two) and the two-pod fat-tree
/// with one rack of two per pod. Under seed 7 every strategy passes under
/// go-back and NACK recovery, and the fat-tree's reports are
/// byte-identical at one and two threads.
#[test]
fn invariants_hold_on_a_tree_and_a_fattree() {
    let shape = FattreeShape {
        aggs: 2,
        racks_per_agg: 1,
        hosts_per_rack: 2,
    };
    for transport in [TransportKind::GoBack, TransportKind::Nack] {
        for strategy in ALL {
            let mut tree = TimingConfig::chaos(Algorithm::Ppo, strategy, 7);
            (tree.workers, tree.workers_per_rack) = (4, Some(2));
            let mut fattree = TimingConfig::chaos(Algorithm::Ppo, strategy, 7);
            (fattree.workers, fattree.fattree) = (shape.workers(), Some(shape));
            (tree.transport, fattree.transport) = (transport, transport);
            let cut = run_chaos(&fattree);
            for (name, report) in [("tree", run_chaos(&tree)), ("fat-tree", cut.clone())] {
                assert!(
                    report.passed(),
                    "{strategy:?}/{transport} on the {name}: {:?}",
                    report.violations
                );
                assert!(report.faults_applied > 0, "{strategy:?} on the {name}");
            }
            fattree.threads = 2;
            assert_eq!(
                cut.to_json().render(),
                run_chaos(&fattree).to_json().render(),
                "{strategy:?}/{transport}: threads=1 vs threads=2"
            );
        }
    }
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    for strategy in [Strategy::SyncIsw, Strategy::AsyncPs] {
        let cfg = TimingConfig::chaos(Algorithm::Ppo, strategy, 7);
        let a = run_chaos(&cfg).to_json().render();
        let b = run_chaos(&cfg).to_json().render();
        assert_eq!(a, b, "{strategy:?}: same seed must replay byte-identically");
    }
}

#[test]
fn different_chaos_seeds_change_the_schedule() {
    let a = run_chaos(&TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 1));
    let b = run_chaos(&TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 2));
    assert_ne!(
        a.schedule, b.schedule,
        "seeds should produce distinct fault schedules"
    );
    assert!(a.passed() && b.passed());
}

/// The codec axis of the matrix: fault-schedule seeds × strategies ×
/// {f32, fixed-point}. I2–I5 are value-independent and must hold exactly;
/// I1 (gradient conservation) runs with the codec-aware tolerance — wide
/// enough for honest quantization error, tight enough that a corrupted
/// aggregate still trips (see the exponent-stamp test below).
#[test]
fn invariants_hold_across_the_codec_axis() {
    for codec in [CodecKind::F32, CodecKind::FixedPoint] {
        for chaos_seed in [1, 2, 0xC4A05] {
            for strategy in ALL {
                let mut cfg = TimingConfig::chaos(Algorithm::Ppo, strategy, chaos_seed);
                cfg.codec = codec;
                let report = run_chaos(&cfg);
                assert!(
                    report.passed(),
                    "{strategy:?}/{codec} seed {chaos_seed} violated invariants: {:?}",
                    report.violations
                );
                assert!(
                    report.faults_applied > 0,
                    "{strategy:?}/{codec}: the schedule should actually fire"
                );
                assert!(report.completed.iter().all(|&c| c >= cfg.iterations));
                if strategy == Strategy::SyncIsw {
                    assert!(
                        report.rounds_checked >= cfg.iterations * cfg.workers,
                        "{codec}: conservation should be value-checked on every round"
                    );
                }
            }
        }
    }
    // I5 on the quantized path: exponent reconciliation happens in arrival
    // order, so replay identity is checked where an order leak would
    // actually move mantissa bits.
    let mut cfg = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 7);
    cfg.codec = CodecKind::FixedPoint;
    let a = run_chaos(&cfg).to_json().render();
    let b = run_chaos(&cfg).to_json().render();
    assert_eq!(a, b, "fixed-point chaos must replay byte-identically");
}

/// A worker partitioned for more rounds than the switch keeps results
/// (`RESULT_DEPTH`) comes back still waiting on the round it left. The
/// switch no longer has that result and the round is not open, so it asks
/// for the worker's contribution back, and the stale sweep closes the
/// reopened round as a partial — round after round until the worker has
/// caught up. I1–I5 hold under both recovery transports.
#[test]
fn a_worker_partitioned_past_the_result_depth_catches_up_by_resending() {
    for transport in [TransportKind::GoBack, TransportKind::Nack] {
        let mut cfg = explicit(vec![ChaosFault::EdgeDown {
            worker: 0,
            at: SimDuration::from_millis(2),
            duration: SimDuration::from_millis(120),
        }]);
        cfg.transport = transport;
        let report = run_chaos(&cfg);
        assert!(report.passed(), "{transport}: {:?}", report.violations);
        assert!(report.resend_requests > 0, "{transport}: {report:?}");
        let again = run_chaos(&cfg).to_json().render();
        assert_eq!(report.to_json().render(), again, "{transport}: I5");
    }
}

/// Every worker trains one model: each replica starts from worker 0's
/// weights and applies the same aggregates, so all N end on the same
/// weights — for every algorithm, under go-back and NACK recovery, with no
/// faults and under chaos seed 7 (whose schedule sends no `Help`).
#[test]
fn every_replica_ends_on_the_same_weights() {
    for algorithm in Algorithm::ALL {
        for transport in [TransportKind::GoBack, TransportKind::Nack] {
            for schedule in [Some(ChaosSchedule { faults: vec![] }), None] {
                let mut cfg = TimingConfig::chaos(algorithm, Strategy::SyncIsw, 7);
                let faults = Some(Faults {
                    chaos_seed: 7,
                    schedule,
                });
                (cfg.faults, cfg.transport) = (faults, transport);
                let report = run_chaos(&cfg);
                let hashes = &report.params_fingerprints;
                assert_eq!(hashes.len(), cfg.workers, "{algorithm:?}/{transport}");
                assert!(
                    hashes.iter().all(|&h| h == hashes[0]),
                    "{algorithm:?}/{transport}, faults {:?}: {hashes:x?}",
                    cfg.faults
                );
            }
        }
    }
}

/// The tolerant I1 must still have teeth: seed the fixed-point encoder
/// bug that scales mantissas with the honest exponent but stamps
/// `exp + bias` in the header. Every packet stays wire-legal — lengths,
/// ids, and counts all parse — so only a value-level invariant can notice
/// that each decoded aggregate arrives scaled by `2^bias`, far outside
/// the codec's error bound. The identical schedule with the bug disarmed
/// has to pass.
#[test]
fn exponent_stamp_bug_trips_the_tolerant_conservation_invariant() {
    let mut cfg = explicit(worker_1_down());
    cfg.iterations = 8;
    cfg.codec = CodecKind::FixedPoint;

    cfg.bug = Some(SeededBug::ExponentStamp(2));
    let broken = run_chaos(&cfg);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("I1 conservation")),
        "a 4x-scaled aggregate must escape even the codec-aware tolerance; got {:?}",
        broken.violations
    );

    cfg.bug = None;
    let honest = run_chaos(&cfg);
    assert!(
        honest.passed(),
        "honest fixed-point encoding should pass the same schedule: {:?}",
        honest.violations
    );
}

/// The harness must have teeth: replace `Help`-based loss recovery with
/// naive whole-gradient retransmission (which the packet-counting
/// accelerator double-counts) and the gradient-conservation invariant has
/// to trip. The same schedule under real recovery passes.
#[test]
fn naive_retransmission_trips_the_conservation_invariant() {
    let mut cfg = explicit(worker_1_down());
    cfg.iterations = 8;

    cfg.bug = Some(SeededBug::NaiveRetransmit);
    let broken = run_chaos(&cfg);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("I1 conservation")),
        "naive retransmission must double-count into some aggregate; got {:?}",
        broken.violations
    );
    // Satellite: a violation report embeds the offending round's span
    // timeline, so the causal history (worker phases, switch aggregation
    // windows) ships with the verdict.
    assert!(
        !broken.violation_timelines.is_empty(),
        "violations must carry round timelines"
    );
    let rendered = broken.to_json().render();
    assert!(
        rendered.contains("violation_timelines") && rendered.contains("switch.agg_window"),
        "report JSON must embed the offending round's spans"
    );

    cfg.bug = None;
    let fixed = run_chaos(&cfg);
    assert!(
        fixed.passed(),
        "Help/FBcast recovery should pass the same schedule: {:?}",
        fixed.violations
    );
}

/// Same teeth, NACK edition: seeding the protocol bug in [`NackReliable`]
/// turns a receive gap into a whole-train re-push (a NACK storm). The
/// accelerator counts packets, not sources, so the storm double-delivers
/// into some aggregate and conservation must trip; the unseeded NACK
/// transport passes the identical schedule.
#[test]
fn nack_storm_trips_the_conservation_invariant() {
    let mut cfg = explicit(worker_1_down());
    cfg.iterations = 8;
    cfg.transport = TransportKind::Nack;

    cfg.bug = Some(SeededBug::NaiveRetransmit);
    let broken = run_chaos(&cfg);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.contains("I1 conservation")),
        "a NACK storm must double-count into some aggregate; got {:?}",
        broken.violations
    );

    cfg.bug = None;
    let fixed = run_chaos(&cfg);
    assert!(
        fixed.passed(),
        "gap-driven NACK recovery should pass the same schedule: {:?}",
        fixed.violations
    );
}

#[test]
fn isolation_holds_across_seeds_and_trips_on_the_seeded_leak() {
    // I6 both ways. Holds: a quota'd victim is byte-unperturbed by a
    // leaky co-tenant across a seed matrix, and the report itself is
    // seed-deterministic (I5). Trips: dropping the quota lets the
    // leak squeeze the victim's grant, and the harness must say so.
    for seed in [1, 7, 23] {
        let cfg = MultiJobConfig::isolation(seed);
        let report = run_chaos_isolation(&cfg);
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        assert_eq!(report.victim_denials, 0, "seed {seed}");
        assert!(
            report.aggressor_denials > 0,
            "seed {seed}: the leak should throttle the aggressor itself"
        );
        let again = run_chaos_isolation(&cfg);
        assert_eq!(
            report.to_json().render(),
            again.to_json().render(),
            "seed {seed}: I6 report not replay-deterministic"
        );
    }

    let mut unprotected = MultiJobConfig::isolation(7);
    unprotected.tenants[1].quota = Default::default();
    let report = run_chaos_isolation(&unprotected);
    assert!(
        !report.passed(),
        "the harness self-test must trip without a quota"
    );
    assert!(
        report.violations.iter().any(|v| v.starts_with("I6")),
        "violations should name I6: {:?}",
        report.violations
    );
    assert!(report.victim_denials > 0);
}
