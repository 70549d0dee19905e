//! The analyzer must name the right straggler on constructed two-worker
//! topologies where the answer is known by design: one run gives worker 1
//! a slower compute model, the other gives worker 1's edge link a
//! standing delay spike. Both must attribute every gated round to
//! worker 1 — and the link case must name the bottleneck link itself.
//! A third test pins the Chrome trace exporter to a golden file.

use std::sync::Arc;

use iswitch_cluster::analyze::TraceAnalysis;
use iswitch_cluster::apps::{IswSyncProto, Pacing, StrategyRuntime, WorkerCore};
use iswitch_cluster::{CommCosts, ComputeModel, GoBackRetransmit, SyntheticGradients};
use iswitch_core::{CodecKind, ExtensionConfig, IswitchExtension};
use iswitch_netsim::{
    build_star, FaultAction, HostApp, PortId, SimDuration, SimTime, Simulator, TopologyConfig,
};
use iswitch_obs::{JsonValue, Trace, TraceEvent};
use iswitch_rl::Algorithm;

const GRAD_LEN: usize = 2_000;
const ITERATIONS: usize = 3;

/// Builds a two-worker single-switch iSwitch deployment with the given
/// per-worker compute models, optionally bottlenecks one worker's edge
/// link, runs to completion, and returns the analyzer's report.
fn run_and_analyze(models: [ComputeModel; 2], bottleneck_worker: Option<usize>) -> JsonValue {
    let mut sim = Simulator::new();
    let trace = Arc::new(Trace::new());
    sim.set_trace(Arc::clone(&trace));
    let apps: Vec<Box<dyn HostApp>> = models
        .into_iter()
        .enumerate()
        .map(|(w, model)| {
            let pacing = Pacing::Sync {
                iterations: ITERATIONS,
            };
            let core = WorkerCore::new(model, CommCosts::default(), 1, 0xA11 + w as u64, pacing);
            let source = SyntheticGradients::new(GRAD_LEN);
            let transport = Box::new(GoBackRetransmit::new());
            let proto = IswSyncProto::new(&source, CodecKind::F32, 0, transport);
            Box::new(StrategyRuntime::from_parts(core, proto, Box::new(source))) as Box<dyn HostApp>
        })
        .collect();
    let ext = IswitchExtension::new(ExtensionConfig::for_star(
        vec![PortId::new(0), PortId::new(1)],
        GRAD_LEN,
    ));
    let star = build_star(
        &mut sim,
        apps,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    // The worker index ↔ address mapping the timing runner normally emits.
    for (i, ip) in star.host_ips.iter().enumerate() {
        trace.record(
            TraceEvent::new(0, "worker")
                .with_u64("index", i as u64)
                .with_u64("addr", u64::from(ip.as_u32()))
                .with_str("ip", ip),
        );
    }
    if let Some(w) = bottleneck_worker {
        sim.schedule_fault(
            SimTime::ZERO,
            FaultAction::DelaySpike {
                link: star.host_links[w],
                extra: SimDuration::from_millis(2),
            },
        );
    }
    sim.run_until_idle();
    TraceAnalysis::from_jsonl(&trace.to_jsonl())
        .expect("trace parses")
        .report_json()
}

/// Every analyzed round of `report`, as (straggler, gating_link) pairs.
fn gated_rounds(report: &JsonValue) -> Vec<(u64, Option<u64>)> {
    let rounds = report
        .get("critical_path")
        .and_then(|c| c.get("rounds"))
        .and_then(JsonValue::as_array)
        .expect("critical path rounds present");
    assert!(!rounds.is_empty(), "no rounds analyzed");
    rounds
        .iter()
        .map(|r| {
            (
                r.get("straggler")
                    .and_then(JsonValue::as_u64)
                    .expect("round names a straggler"),
                r.get("gating_link").and_then(JsonValue::as_u64),
            )
        })
        .collect()
}

#[test]
fn slow_compute_worker_is_named_straggler() {
    let fast = ComputeModel::for_algorithm(Algorithm::Ppo);
    let mut slow = fast.clone();
    // Double worker 1's local compute — milliseconds of skew, far beyond
    // the 3% jitter band, so it must gate every barrier.
    for (_, us) in &mut slow.components {
        *us *= 2;
    }
    let report = run_and_analyze([fast, slow], None);
    for (round, (straggler, _)) in gated_rounds(&report).iter().enumerate() {
        assert_eq!(
            *straggler, 1,
            "round {round}: compute-bound straggler misattributed"
        );
    }
}

#[test]
fn bottlenecked_link_is_named_straggler_and_gating_link() {
    // Near-identical compute (jitter collapsed to sub-nanosecond skew):
    // the only meaningful asymmetry is the 2 ms standing delay spike on
    // worker 1's edge link.
    let mut model = ComputeModel::for_algorithm(Algorithm::Ppo);
    model.jitter = 1e-12;
    let report = run_and_analyze([model.clone(), model], Some(1));
    for (round, (straggler, link)) in gated_rounds(&report).iter().enumerate() {
        assert_eq!(
            *straggler, 1,
            "round {round}: link-bound straggler misattributed"
        );
        // build_star creates edge links in host order, so worker 1's
        // uplink is link 1.
        assert_eq!(
            *link,
            Some(1),
            "round {round}: gating link should be the bottlenecked edge"
        );
    }
}

/// The Chrome trace exporter is pinned to a golden file: a fixed input
/// trace must render byte-for-byte the checked-in Perfetto-loadable JSON.
#[test]
fn chrome_trace_matches_golden_file() {
    let jsonl = r#"{"t_ns":0,"kind":"run","strategy":"iSW","algorithm":"ppo","workers":2,"iterations":1,"warmup":0,"seed":1}
{"t_ns":0,"kind":"worker","index":0,"addr":101,"ip":"0.0.0.101"}
{"t_ns":0,"kind":"worker","index":1,"addr":102,"ip":"0.0.0.102"}
{"t_ns":0,"kind":"span","span":1,"name":"worker.compute","end_ns":1500,"dur_ns":1500,"worker":101,"iter":0}
{"t_ns":0,"kind":"span","span":2,"name":"worker.compute","end_ns":2500,"dur_ns":2500,"worker":102,"iter":0}
{"t_ns":1600,"kind":"span","span":3,"name":"switch.agg_window","end_ns":2900,"dur_ns":1300,"round":0,"seg":0,"last_src":102,"node":0}
{"t_ns":2900,"kind":"span","span":4,"name":"worker.update","end_ns":3400,"dur_ns":500,"worker":101,"iter":0}
"#;
    let chrome = TraceAnalysis::from_jsonl(jsonl)
        .expect("fixture parses")
        .chrome_trace()
        .render();
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(
        chrome,
        golden.trim_end(),
        "Chrome trace export drifted from the golden file; if the change \
         is intentional, regenerate crates/cluster/tests/golden/chrome_trace.json"
    );
}
