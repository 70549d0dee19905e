//! Determinism of the time-series telemetry export, on the workload where
//! it matters most: a seeded fat-tree incast, where every worker's flush
//! collides in shallow egress queues and the sharded engine runs the pods
//! in parallel domains.
//!
//! Two claims are pinned:
//!
//! 1. **Byte identity.** The JSONL export is a deterministic function of
//!    the seed — identical across back-to-back runs and across `--threads`
//!    1/2/4 (per-domain recording merges in domain order, so the thread
//!    count can never leak into sample order).
//!    The same pair of artifacts must also *join*: `analyze --timeseries`
//!    attributes a round to its gating link's tracks alone, never to a
//!    same-numbered link of another pod.
//! 2. **Anti-placebo.** The telemetry reflects behaviour, not boilerplate:
//!    DCQCN and go-back transports must produce *different* worker rate
//!    tracks on the same workload (DCQCN paces and cuts; go-back never
//!    sets a rate, so its track reads 0 throughout).

use std::sync::Arc;

use iswitch_cluster::analyze::TraceAnalysis;
use iswitch_cluster::{
    run_timing_observed_with, Strategy, TimingConfig, TraceOptions, TransportKind,
};
use iswitch_netsim::FattreeShape;
use iswitch_obs::Timeseries;
use iswitch_rl::Algorithm;

/// The pinned scenario: 8 workers in 2 pods (3 engine domains), shallow
/// queues, synchronized flushes, 3 measured iterations.
fn incast_fattree(kind: TransportKind, threads: usize) -> TimingConfig {
    let shape = FattreeShape {
        aggs: 2,
        racks_per_agg: 2,
        hosts_per_rack: 2,
    };
    let mut cfg = TimingConfig::incast(Algorithm::Dqn, Strategy::SyncIsw, kind);
    cfg.fattree = Some(shape);
    cfg.workers = shape.workers();
    cfg.threads = threads;
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.seed = 0x5117c4;
    cfg
}

/// One observed run's timeseries as JSONL bytes.
fn timeseries_jsonl(cfg: &TimingConfig) -> String {
    let ts = Arc::new(Timeseries::default());
    let obs = run_timing_observed_with(
        cfg,
        TraceOptions {
            capacity: Some(65_536),
            stream: None,
            timeseries: Some(Arc::clone(&ts)),
        },
    );
    let ts = obs.timeseries.expect("observed run returns the sink");
    let mut out = Vec::new();
    ts.to_jsonl(&mut out).expect("jsonl to memory");
    String::from_utf8(out).expect("jsonl is utf-8")
}

#[test]
fn export_is_byte_identical_across_back_to_back_runs() {
    let cfg = incast_fattree(TransportKind::Dcqcn, 1);
    let a = timeseries_jsonl(&cfg);
    let b = timeseries_jsonl(&cfg);
    assert!(!a.is_empty(), "the incast run must record samples");
    assert_eq!(a, b, "same seed, same bytes");
}

#[test]
fn export_is_byte_identical_across_thread_counts() {
    let single = timeseries_jsonl(&incast_fattree(TransportKind::Dcqcn, 1));
    for threads in [2, 4] {
        let parallel = timeseries_jsonl(&incast_fattree(TransportKind::Dcqcn, threads));
        assert_eq!(
            single, parallel,
            "telemetry diverged at {threads} threads — merge order leaked"
        );
    }
}

#[test]
fn export_covers_every_subsystem() {
    let text = timeseries_jsonl(&incast_fattree(TransportKind::Dcqcn, 2));
    for prefix in [
        "\"netsim.link.",
        "\"shard.domain.",
        "\"cluster.worker.",
        "\"shard.epoch.lookahead_ns\"",
    ] {
        assert!(text.contains(prefix), "no {prefix} track in:\n{text}");
    }
    // Incast through shallow queues under DCQCN must show congestion.
    let tracks = iswitch_obs::parse_timeseries_jsonl(&text).unwrap();
    let ecn_total: i64 = tracks
        .iter()
        .filter(|(name, _)| name.starts_with("netsim.link.") && name.ends_with(".ecn_marks"))
        .filter_map(|(_, tr)| tr.last())
        .sum();
    assert!(ecn_total > 0, "shallow-queue incast must ECN-mark");
}

/// The anti-placebo check: swapping the transport must change the rate
/// tracks. DCQCN stamps its current pacing rate at every sample; go-back
/// has no rate controller, so its track records the unpaced convention (0)
/// and never moves.
#[test]
fn dcqcn_and_go_back_produce_different_rate_tracks() {
    let rate_tracks = |kind: TransportKind| {
        let text = timeseries_jsonl(&incast_fattree(kind, 1));
        iswitch_obs::parse_timeseries_jsonl(&text)
            .unwrap()
            .into_iter()
            .filter(|(name, _)| name.ends_with(".tx_rate_bps"))
            .collect::<Vec<_>>()
    };
    let dcqcn = rate_tracks(TransportKind::Dcqcn);
    let goback = rate_tracks(TransportKind::GoBack);
    assert!(!dcqcn.is_empty() && !goback.is_empty());
    assert_ne!(
        dcqcn, goback,
        "transports with different pacing behaviour recorded identical \
         rate tracks — the telemetry is not measuring the transport"
    );
    // Stronger than inequality: DCQCN's pacing rate actually moves…
    assert!(
        dcqcn.iter().any(|(_, tr)| tr.samples.len() > 1),
        "DCQCN never changed its rate under incast congestion"
    );
    // …while go-back stays at the unpaced convention throughout.
    assert!(
        goback
            .iter()
            .all(|(_, tr)| tr.samples.iter().all(|&(_, v)| v == 0)),
        "go-back has no rate controller; its track must read 0"
    );
}

/// `analyze --timeseries` on a fat-tree pair: every pod numbers its links
/// from 0, so the gating link of a round (a worker's edge link inside a
/// pod) has same-numbered siblings in the core's domain and in the other
/// pod. The trace's `link` attribute and the track names carry the
/// run-unique link identity, so the join must find that one link's two
/// directions and report exactly their ECN/drop/queue activity.
#[test]
fn attribution_joins_the_gating_link_not_its_same_numbered_siblings() {
    let ts = Arc::new(Timeseries::default());
    let obs = run_timing_observed_with(
        &incast_fattree(TransportKind::Dcqcn, 2),
        TraceOptions {
            capacity: None,
            stream: None,
            timeseries: Some(ts),
        },
    );
    let tracks = obs.timeseries.expect("the sink comes back").snapshot();
    let report = TraceAnalysis::from_jsonl(&obs.trace.to_jsonl())
        .expect("trace parses")
        .with_timeseries(tracks.clone())
        .report_json();
    let rounds = report.get("attribution").and_then(|a| a.as_array());
    let rounds = rounds.expect("a timeseries join yields attributions");
    assert!(!rounds.is_empty());
    // `netsim.link.<id>.<src>-><dst>.<what>` → (id, unordered endpoints).
    let parse = |name: &str| {
        let rest = name.strip_prefix("netsim.link.")?;
        let (id, rest) = rest.split_once('.')?;
        let (src, rest) = rest.split_once("->")?;
        let (dst, _) = rest.rsplit_once('.')?;
        let mut ends = [src.to_owned(), dst.to_owned()];
        ends.sort();
        Some((id.parse::<u64>().ok()?, ends))
    };
    let mut siblings_seen = false;
    for round in rounds {
        let u64_at = |obj: &iswitch_obs::JsonValue, key: &str| obj.get(key)?.as_u64();
        let link = round.get("link").expect("every round names its link");
        let id = u64_at(link, "index").expect("link index");
        let (start, end) = (
            u64_at(round, "window_start_ns").unwrap(),
            u64_at(round, "window_end_ns").unwrap(),
        );
        let local = id % 1_000_000;
        assert!(id > local, "the gating hop is inside a pod: {id}");
        let of_link = |want: u64| {
            tracks
                .iter()
                .filter(move |(name, _)| parse(name).is_some_and(|(id, _)| id == want))
        };
        siblings_seen |= tracks
            .iter()
            .filter_map(|(name, _)| parse(name))
            .any(|(other, _)| other != id && other % 1_000_000 == local);
        let prefix = format!("netsim.link.{id:03}.");
        let joined: Vec<_> = tracks
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .collect();
        assert_eq!(joined.len(), of_link(id).count(), "{prefix} over-matches");
        let mut links: Vec<_> = joined.iter().filter_map(|(name, _)| parse(name)).collect();
        links.dedup();
        assert_eq!(links.len(), 1, "{prefix} joins several links: {links:?}");
        let ecn: i64 = joined
            .iter()
            .filter(|(name, _)| name.ends_with(".ecn_marks"))
            .filter_map(|(_, tr)| tr.delta_in(start, end))
            .sum();
        assert_eq!(
            u64_at(link, "ecn_marks"),
            Some(ecn as u64),
            "round {round:?}"
        );
    }
    assert!(siblings_seen, "no same-numbered sibling link: vacuous test");
}
