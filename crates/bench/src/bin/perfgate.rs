//! `perfgate` — the repo's behaviour gate.
//!
//! Runs a pinned matrix of 64 seeded timing experiments with tracing
//! disabled — 3 topologies × 5 strategies × 2 seeds, the sharded fat-tree
//! at 1/2/4 threads, every [`TransportKind`] under incast (single switch
//! per seed, fat-tree per thread count), contended multi-tenant fabrics and
//! the quantized codecs — and renders one deterministic JSON document.
//! Nothing in it depends on the host: how *fast* the simulator runs is
//! `benchmark/`'s question (see `benchmark/README.md`), not this binary's.
//!
//! Two checks run on every invocation:
//!
//! * **thread identity** (no baseline needed): cells whose id differs only
//!   in thread count must have identical fingerprints — the sharded engine
//!   and the tenant arbiter may not leak merge order into results.
//! * **workload fingerprints** against the checked-in baseline
//!   (`crates/bench/baselines/perfgate.json`): each cell's event/packet
//!   counts, final simulated clock and per-iteration time must match
//!   exactly. A mismatch means the simulation's behaviour changed, which
//!   must be an explicit, baseline-updating decision, never an accident.
//!
//! Each cell also archives its deterministic **telemetry counters** (ECN
//! marks, queue/link drops, lookahead epochs and barrier stalls, transport
//! recovery and congestion-control activity). They are not part of the
//! fingerprint; they let a failing gate (or `--explain`) name the subsystem
//! that moved, not just the symptom. The report *is* the baseline, byte for
//! byte: CI `cmp`s `--out` against the checked-in file.
//!
//! Its four flags are the [`iswitch_bench::perfgate`] row (`perfgate --help`
//! prints them); anything else exits 2.

use std::process::exit;

use iswitch_bench::banner;
use iswitch_bench::perfgate::{BASELINE, COMMAND, EXPLAIN, OUT, UPDATE_BASELINE};
use iswitch_cluster::cli::write_artifact;
use iswitch_cluster::{
    run_multi_tenant_perf, run_timing_perf, MultiJobConfig, PerfSample, Strategy, TenantSpec,
    TimingConfig, TransportKind, TransportStats,
};
use iswitch_core::CodecKind;
use iswitch_netsim::FattreeShape;
use iswitch_obs::JsonValue;
use iswitch_rl::Algorithm;

/// The workload fingerprint: the behaviour contract of a cell.
const FINGERPRINT: [&str; 5] = [
    "events",
    "packets_sent",
    "packets_delivered",
    "sim_ns",
    "per_iteration_ns",
];

/// The telemetry counters archived per cell, in render order. Grouped by
/// the subsystem that produces them so a divergence can be attributed:
/// `netsim.*` from the packet engine's queues and links, `shard.*` from
/// the conservative-lookahead barrier, `transport.*` from the workers'
/// reliability/congestion layer.
const TELEMETRY: [&str; 10] = [
    "netsim.ecn_marked",
    "netsim.dropped_queue",
    "netsim.dropped_link_down",
    "shard.epochs",
    "shard.barrier_stall_ns",
    "transport.help_requests",
    "transport.nacks_sent",
    "transport.retransmits",
    "transport.ecn_echoes",
    "transport.rate_cuts",
];

/// Matrix seeds: the repo-wide experiment seed plus one decorrelated seed.
const SEEDS: [u64; 2] = [0x5117c4, 7];

/// The sharded fat-tree scaling shape: 4 pods of 2 racks of 2 hosts — 16
/// workers across 5 engine domains (one per pod plus the core).
const FATTREE_SHAPE: FattreeShape = FattreeShape {
    aggs: 4,
    racks_per_agg: 2,
    hosts_per_rack: 2,
};

/// Thread counts of the scaling cells. All three must produce identical
/// workload fingerprints (checked in-gate, no baseline needed).
const FATTREE_THREADS: [usize; 3] = [1, 2, 4];

const STRATEGIES: [(Strategy, &str); 5] = [
    (Strategy::SyncPs, "ps"),
    (Strategy::SyncAr, "ar"),
    (Strategy::SyncIsw, "isw"),
    (Strategy::AsyncPs, "async-ps"),
    (Strategy::AsyncIsw, "async-isw"),
];

/// A topology shape of the pinned matrix.
struct Topo {
    name: &'static str,
    workers: usize,
    workers_per_rack: Option<usize>,
    racks_per_agg: Option<usize>,
}

const TOPOLOGIES: [Topo; 3] = [
    Topo {
        name: "star",
        workers: 4,
        workers_per_rack: None,
        racks_per_agg: None,
    },
    Topo {
        name: "tree",
        workers: 6,
        workers_per_rack: Some(3),
        racks_per_agg: None,
    },
    Topo {
        name: "tree3",
        workers: 8,
        workers_per_rack: Some(2),
        racks_per_agg: Some(2),
    },
];

fn cell_config(topo: &Topo, strategy: Strategy, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, strategy);
    cfg.workers = topo.workers;
    cfg.workers_per_rack = topo.workers_per_rack;
    cfg.racks_per_agg = topo.racks_per_agg;
    cfg.iterations = 10;
    cfg.warmup = 2;
    cfg.seed = seed;
    cfg
}

/// The fat-tree scaling cell at the given thread count: same seed and
/// shape for every entry of [`FATTREE_THREADS`], so the only degree of
/// freedom is how many threads execute the run. DQN (the largest paper
/// model) keeps each parallel epoch dense with packet events, so the
/// measurement reflects engine throughput rather than barrier overhead.
fn fattree_config(threads: usize, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::Dqn, Strategy::SyncIsw);
    cfg.fattree = Some(FATTREE_SHAPE);
    cfg.workers = FATTREE_SHAPE.workers();
    cfg.threads = threads;
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.seed = seed;
    cfg
}

/// The single-switch incast cell: every worker flushes simultaneously
/// (zero compute jitter) through shallow bounded egress queues, with the
/// given transport absorbing the collision.
fn incast_config(kind: TransportKind, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, kind);
    cfg.iterations = 10;
    cfg.warmup = 2;
    cfg.seed = seed;
    cfg
}

/// The incast workload on the sharded fat-tree: the same shape as the
/// scaling cells, but with shallow queues and synchronized flushes. Each
/// transport gets its own thread sweep — congestion reactions (ECN echoes,
/// rate cuts, NACKs) must not leak merge order any more than clean runs do.
fn incast_fattree_config(kind: TransportKind, threads: usize, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::incast(Algorithm::Dqn, Strategy::SyncIsw, kind);
    cfg.fattree = Some(FATTREE_SHAPE);
    cfg.workers = FATTREE_SHAPE.workers();
    cfg.threads = threads;
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.seed = seed;
    cfg
}

/// A quantized-codec cell: the three-level tree with the in-switch
/// datapath accumulating in the codec's native representation. Smaller
/// payloads change packet counts and the simulated clock, so each codec
/// carries its own fingerprint; the f32 cells above stay untouched.
fn codec_config(codec: CodecKind, seed: u64) -> TimingConfig {
    let mut cfg = cell_config(&TOPOLOGIES[2], Strategy::SyncIsw, seed);
    cfg.codec = codec;
    cfg
}

/// Algorithms of the contended tenants, in tenant-id order. Mixed model
/// sizes on purpose: the arbiter must referee jobs whose slot demands
/// differ by an order of magnitude.
const TENANT_ALGS: [(Algorithm, &str); 4] = [
    (Algorithm::Ppo, "ppo"),
    (Algorithm::A2c, "a2c"),
    (Algorithm::Dqn, "dqn"),
    (Algorithm::Ddpg, "ddpg"),
];

/// One contended multi-tenant fabric run: `n` synchronous iSwitch jobs
/// share a deliberately undersized slot pool (the joint demand is several
/// times the fabric), so the epoch arbiter, the quota floor, and the
/// host-fallback path are all on the measured hot path. Returns one cell
/// per tenant — each carries its *own* workload fingerprint, so a change
/// that perturbs only one tenant's behaviour names that tenant. Thread
/// sweeps of the same `(n, seed)` form identity groups: the arbiter's
/// epoch barriers must not leak the driver thread count into artifacts.
fn tenant_cells(n: usize, threads: usize, seed: u64) -> Vec<JsonValue> {
    let specs = TENANT_ALGS[..n]
        .iter()
        .enumerate()
        .map(|(i, &(alg, label))| {
            let mut job = TimingConfig::main_cluster(alg, Strategy::SyncIsw);
            job.iterations = 6;
            job.warmup = 2;
            job.seed = seed;
            let spec = TenantSpec::new(label, i as u64 + 1, job);
            // The first tenant holds a guaranteed quota so the floor +
            // water-fill + round-robin arbitration path is fully exercised.
            if i == 0 {
                spec.with_quota(16, 1 << 24)
            } else {
                spec
            }
        })
        .collect();
    let mut cfg = MultiJobConfig::new(specs);
    cfg.fabric.slots = if n == 2 { 64 } else { 96 };
    cfg.threads = threads;

    let out = run_multi_tenant_perf(&cfg);
    out.tenants
        .iter()
        .map(|t| {
            let result = &t.observation.result;
            cell_row(
                format!("tenant/x{n}/{}/t{threads}/s{seed:x}", t.name),
                &t.perf,
                &result.transport,
                result.per_iteration.as_nanos(),
            )
        })
        .collect()
}

fn run_one(id: String, cfg: &TimingConfig) -> JsonValue {
    let (result, sample) = run_timing_perf(cfg);
    cell_row(
        id,
        &sample,
        &result.transport,
        result.per_iteration.as_nanos(),
    )
}

/// One cell of the report: id, the five [`FINGERPRINT`] fields, and the
/// [`TELEMETRY`] counters under `telemetry`.
fn cell_row(id: String, s: &PerfSample, t: &TransportStats, per_iteration_ns: u64) -> JsonValue {
    println!("  {id:<24} {:>9} events  sim {:>12} ns", s.events, s.sim_ns);
    let fingerprint = [
        s.events,
        s.packets_sent,
        s.packets_delivered,
        s.sim_ns,
        per_iteration_ns,
    ];
    let counters = [
        s.ecn_marked,
        s.dropped_queue,
        s.dropped_link_down,
        s.epochs,
        s.barrier_stall_ns,
        t.help_requests,
        t.nacks_sent,
        t.retransmits,
        t.ecn_echoes,
        t.rate_cuts,
    ];
    let mut row = JsonValue::empty_object();
    row.insert("id", JsonValue::Str(id));
    for (field, value) in FINGERPRINT.iter().zip(fingerprint) {
        row.insert(field, JsonValue::UInt(value));
    }
    let mut telemetry = JsonValue::empty_object();
    for (field, value) in TELEMETRY.iter().zip(counters) {
        telemetry.insert(field, JsonValue::UInt(value));
    }
    row.insert("telemetry", telemetry);
    row
}

fn run_matrix() -> JsonValue {
    let mut cells = Vec::new();
    for topo in &TOPOLOGIES {
        for &(strategy, label) in &STRATEGIES {
            for seed in SEEDS {
                let cfg = cell_config(topo, strategy, seed);
                cells.push(run_one(format!("{}/{label}/s{seed:x}", topo.name), &cfg));
            }
        }
    }
    // Scaling cells: the sharded fat-tree at 1/2/4 threads, first seed
    // only (the thread count is the swept variable, not the workload).
    for threads in FATTREE_THREADS {
        let seed = SEEDS[0];
        let cfg = fattree_config(threads, seed);
        cells.push(run_one(format!("fattree/isw-t{threads}/s{seed:x}"), &cfg));
    }
    // Incast cells: synchronized flushes through shallow queues, one cell
    // per transport on the single switch…
    for kind in TransportKind::ALL {
        for seed in SEEDS {
            let cfg = incast_config(kind, seed);
            cells.push(run_one(format!("incast-star/{kind}/s{seed:x}"), &cfg));
        }
    }
    // …and a thread sweep per transport on the fat-tree, fingerprint-
    // compared across thread counts by the in-gate identity check.
    for kind in TransportKind::ALL {
        for threads in FATTREE_THREADS {
            let seed = SEEDS[0];
            let cfg = incast_fattree_config(kind, threads, seed);
            cells.push(run_one(format!("incast/{kind}/t{threads}/s{seed:x}"), &cfg));
        }
    }
    // Contended multi-tenant cells: 2 and 4 SyncIsw jobs sharing an
    // undersized slot pool, per-tenant fingerprints, thread-swept (the
    // sweep forms per-tenant identity groups checked in-gate). First seed
    // only — the tenant mix, not the seed, is the swept variable.
    for (n, threads) in [(2, 1), (2, 2), (4, 1), (4, 4)] {
        cells.extend(tenant_cells(n, threads, SEEDS[0]));
    }
    // Codec cells: the quantized aggregation formats through the same
    // hierarchy. The `codec/` id prefix keeps them out of the thread-
    // identity groups.
    for codec in [CodecKind::FixedPoint, CodecKind::TopK] {
        for seed in SEEDS {
            let cfg = codec_config(codec, seed);
            cells.push(run_one(format!("codec/{codec}/s{seed:x}"), &cfg));
        }
    }
    let mut doc = JsonValue::empty_object();
    doc.insert("artifact", JsonValue::Str("perfgate".to_owned()));
    doc.insert("cells", JsonValue::Array(cells));
    doc
}

/// The report's cells as `(id, row)` pairs, in document order.
fn cells_of(doc: &JsonValue) -> Vec<(&str, &JsonValue)> {
    let cells = doc.get("cells").and_then(|c| c.as_array()).unwrap_or(&[]);
    cells
        .iter()
        .filter_map(|row| Some((row.get("id")?.as_str()?, row)))
        .collect()
}

fn fingerprint_of(row: &JsonValue) -> [Option<u64>; 5] {
    FINGERPRINT.map(|field| row.get(field).and_then(|v| v.as_u64()))
}

/// Compares this run's workload fingerprints against the baseline's, cell
/// by cell in both directions. Returns human-readable mismatch
/// descriptions.
fn fingerprint_mismatches(current: &JsonValue, baseline: &JsonValue) -> Vec<String> {
    let (now, base) = (cells_of(current), cells_of(baseline));
    let mut out = Vec::new();
    for &(id, row) in &now {
        let Some((_, b)) = base.iter().find(|(bid, _)| *bid == id) else {
            out.push(format!("{id}: cell missing from baseline"));
            continue;
        };
        let fields = FINGERPRINT.iter().zip(fingerprint_of(b));
        for ((field, was), cur) in fields.zip(fingerprint_of(row)) {
            if cur != was {
                out.push(format!("{id}: {field} {was:?} -> {cur:?}"));
            }
        }
    }
    for (id, _) in &base {
        if !now.iter().any(|(nid, _)| nid == id) {
            out.push(format!("{id}: in the baseline, not in this run"));
        }
    }
    out
}

/// The identity group of a cell: cells whose id differs only in thread
/// count share one — the clean fat-tree sweep (`fattree/isw-t<n>/…`), one
/// sweep per incast transport (`incast/<kind>/t<n>/…`), and one per
/// (tenant-count, tenant) pair (`tenant/x<n>/<name>/t<n>/…`).
fn identity_group(id: &str) -> Option<String> {
    let mut parts = id.split('/');
    match (parts.next()?, parts.next(), parts.next()) {
        ("fattree", ..) => Some("fattree".to_owned()),
        ("incast", Some(kind), _) => Some(format!("incast/{kind}")),
        ("tenant", Some(size), Some(name)) => Some(format!("tenant/{size}/{name}")),
        _ => None,
    }
}

/// The determinism claim of the sharded engine and the tenant arbiter,
/// checked without a baseline: every fingerprint field of an identity
/// group must be identical across thread counts. A divergence here means
/// merge order leaked into results, which no baseline refresh may paper
/// over.
fn identity_mismatches(doc: &JsonValue) -> Vec<String> {
    let mut firsts: Vec<(String, &str, [Option<u64>; 5])> = Vec::new();
    let mut out = Vec::new();
    for (id, row) in cells_of(doc) {
        let Some(group) = identity_group(id) else {
            continue;
        };
        let fp = fingerprint_of(row);
        match firsts.iter().find(|(g, ..)| *g == group) {
            Some((_, first, first_fp)) if *first_fp != fp => {
                out.push(format!("{id}: {fp:?} differs from {first}: {first_fp:?}"));
            }
            Some(_) => {}
            None => firsts.push((group, id, fp)),
        }
    }
    out
}

/// The divergence explainer: for every cell that differs from the
/// baseline, a per-subsystem table of what moved — the fingerprint fields
/// plus the archived telemetry counters, then vs now. A fingerprint
/// mismatch names the *symptom* (event counts shifted); the telemetry rows
/// name the *subsystem* (queues started marking, a domain started
/// stalling, a transport started cutting its rate).
fn explain_divergence(current: &JsonValue, baseline: &JsonValue) -> String {
    use std::fmt::Write as _;
    let base = cells_of(baseline);
    let mut s = String::new();
    for (id, row) in cells_of(current) {
        let Some((_, b)) = base.iter().find(|(bid, _)| *bid == id) else {
            let _ = writeln!(s, "{id}: new cell, nothing to compare against");
            continue;
        };
        let field = |row: &JsonValue, name: &str| row.get(name).and_then(|v| v.as_u64());
        let timing = FINGERPRINT
            .iter()
            .map(|name| (format!("timing.{name}"), field(b, name), field(row, name)));
        let (tel, base_tel) = (row.get("telemetry"), b.get("telemetry"));
        let telemetry = TELEMETRY.iter().map(|name| {
            let of = |t: Option<&JsonValue>| t.and_then(|t| field(t, name));
            ((*name).to_owned(), of(base_tel), of(tel))
        });
        let moved: Vec<_> = timing
            .chain(telemetry)
            .filter(|(_, was, now)| was != now)
            .collect();
        if moved.is_empty() {
            continue;
        }
        let _ = writeln!(s, "{id}:");
        let _ = writeln!(s, "  {:<28} {:>15} {:>15}", "field", "baseline", "now");
        let show = |v: Option<u64>| v.map_or("-".to_owned(), |v| v.to_string());
        for (name, was, now) in moved {
            let _ = writeln!(s, "  {name:<28} {:>15} {:>15}", show(was), show(now));
        }
    }
    if s.is_empty() {
        s.push_str("every archived field matches the baseline\n");
    }
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = COMMAND.parse(COMMAND.name, &argv);
    let args = args.unwrap_or_else(|stop| stop.exit());
    let baseline_path = args.value(BASELINE).expect("the row declares a default");

    banner(COMMAND.name, COMMAND.summary);
    let doc = run_matrix();
    let report = format!("{}\n", doc.render());
    if let Some(out) = args.value(OUT) {
        write_artifact(out, &report);
        println!("report written to {out}");
    }

    let identity = identity_mismatches(&doc);
    if !identity.is_empty() {
        eprintln!("fingerprints depend on the thread count:");
        for m in &identity {
            eprintln!("  {m}");
        }
        exit(1);
    }
    println!("thread sweeps are thread-count invariant ({FATTREE_THREADS:?} threads)");

    if args.has(UPDATE_BASELINE) {
        write_artifact(baseline_path, &report);
        println!("baseline updated at {baseline_path}");
        return;
    }

    let Ok(baseline_text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("no baseline at {baseline_path} — run with {UPDATE_BASELINE} to create one");
        exit(1);
    };
    let baseline = JsonValue::parse(&baseline_text).unwrap_or_else(|e| {
        eprintln!("{baseline_path}: {e}");
        exit(2);
    });

    let mismatches = fingerprint_mismatches(&doc, &baseline);
    if !mismatches.is_empty() {
        eprintln!("workload fingerprints diverged from the baseline:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        eprintln!("per-subsystem telemetry of the diverged cells vs the baseline:");
        eprint!("{}", explain_divergence(&doc, &baseline));
        eprintln!(
            "(seeded-simulation outputs changed — if intentional, refresh \
             the baseline with {UPDATE_BASELINE}; see BENCHMARKS.md)"
        );
        exit(1);
    }
    println!(
        "workload fingerprints match the baseline ({} cells)",
        cells_of(&doc).len()
    );
    if args.has(EXPLAIN) {
        println!("per-subsystem telemetry vs the baseline:");
        print!("{}", explain_divergence(&doc, &baseline));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made report: `(id, fingerprint value, ecn marks)` per cell,
    /// every other field zero.
    fn doc(cells: &[(&str, u64, u64)]) -> JsonValue {
        let rows = cells.iter().map(|&(id, events, ecn_marked)| {
            let mut row = JsonValue::empty_object();
            row.insert("id", JsonValue::Str(id.to_owned()));
            for field in FINGERPRINT {
                let value = if field == "events" { events } else { 0 };
                row.insert(field, JsonValue::UInt(value));
            }
            let mut telemetry = JsonValue::empty_object();
            for field in TELEMETRY {
                let value = if field == "netsim.ecn_marked" {
                    ecn_marked
                } else {
                    0
                };
                telemetry.insert(field, JsonValue::UInt(value));
            }
            row.insert("telemetry", telemetry);
            row
        });
        let mut doc = JsonValue::empty_object();
        doc.insert("cells", JsonValue::Array(rows.collect()));
        doc
    }

    #[test]
    fn fingerprint_mismatches_name_the_cell_the_field_and_missing_cells() {
        let base = doc(&[
            ("star/ps/s7", 10, 0),
            ("star/ar/s7", 20, 0),
            ("gone/s7", 1, 0),
        ]);
        assert!(fingerprint_mismatches(&base, &base).is_empty());
        // Telemetry is not part of the fingerprint.
        let drifted = doc(&[
            ("star/ps/s7", 10, 5),
            ("star/ar/s7", 20, 0),
            ("gone/s7", 1, 0),
        ]);
        assert!(fingerprint_mismatches(&drifted, &base).is_empty());
        let now = doc(&[
            ("star/ps/s7", 10, 0),
            ("star/ar/s7", 21, 0),
            ("new/s7", 1, 0),
        ]);
        assert_eq!(
            fingerprint_mismatches(&now, &base),
            [
                "star/ar/s7: events Some(20) -> Some(21)",
                "new/s7: cell missing from baseline",
                "gone/s7: in the baseline, not in this run",
            ]
        );
    }

    #[test]
    fn identity_groups_key_on_everything_but_the_thread_count() {
        let group = |id| identity_group(id);
        assert_eq!(group("fattree/isw-t1/s5117c4").as_deref(), Some("fattree"));
        assert_eq!(
            group("fattree/isw-t4/s5117c4"),
            group("fattree/isw-t1/s5117c4")
        );
        assert_eq!(
            group("incast/nack/t2/s5117c4").as_deref(),
            Some("incast/nack")
        );
        assert_ne!(
            group("incast/nack/t2/s5117c4"),
            group("incast/dcqcn/t2/s5117c4")
        );
        let tenant = group("tenant/x4/dqn/t4/s5117c4");
        assert_eq!(tenant.as_deref(), Some("tenant/x4/dqn"));
        assert_eq!(group("tenant/x4/dqn/t1/s5117c4"), tenant);
        assert_ne!(group("tenant/x2/dqn/t1/s5117c4"), tenant);
        assert_ne!(group("tenant/x4/ppo/t4/s5117c4"), tenant);
        // Seed-swept cells are not thread sweeps.
        for id in ["incast-star/nack/s7", "star/isw/s7", "codec/top-k/s7"] {
            assert_eq!(group(id), None, "{id}");
        }
    }

    #[test]
    fn identity_mismatches_compare_each_sweep_with_its_first_cell() {
        let same = doc(&[
            ("incast/nack/t1/s7", 5, 0),
            ("incast/dcqcn/t1/s7", 9, 0),
            ("incast/nack/t2/s7", 5, 3),
            ("star/ps/s7", 1, 0),
            ("star/ps/s8", 2, 0),
        ]);
        assert!(identity_mismatches(&same).is_empty());
        let leaked = doc(&[
            ("tenant/x2/ppo/t1/s7", 5, 0),
            ("tenant/x2/a2c/t1/s7", 7, 0),
            ("tenant/x2/ppo/t2/s7", 5, 0),
            ("tenant/x2/a2c/t2/s7", 8, 0),
        ]);
        let found = identity_mismatches(&leaked);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("tenant/x2/a2c/t2/s7: "), "{found:?}");
        assert!(
            found[0].contains("differs from tenant/x2/a2c/t1/s7"),
            "{found:?}"
        );
    }

    #[test]
    fn explain_divergence_tabulates_only_what_moved() {
        let base = doc(&[("star/ps/s7", 10, 0), ("star/ar/s7", 20, 4)]);
        assert_eq!(
            explain_divergence(&base, &base),
            "every archived field matches the baseline\n"
        );
        let now = doc(&[
            ("star/ps/s7", 10, 0),
            ("star/ar/s7", 21, 6),
            ("new/s7", 1, 0),
        ]);
        let table = explain_divergence(&now, &base);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5, "{table}");
        assert_eq!(lines[0], "star/ar/s7:");
        let cols = |line: &str| {
            line.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(cols(lines[1]), ["field", "baseline", "now"]);
        assert_eq!(cols(lines[2]), ["timing.events", "20", "21"]);
        assert_eq!(cols(lines[3]), ["netsim.ecn_marked", "4", "6"]);
        assert_eq!(lines[4], "new/s7: new cell, nothing to compare against");
    }

    #[test]
    fn checked_in_baseline_is_the_reports_shape() {
        let text = include_str!("../../baselines/perfgate.json");
        let baseline = JsonValue::parse(text).expect("baseline parses");
        // What `--out` writes: the compact rendering and one newline.
        assert_eq!(format!("{}\n", baseline.render()), text);
        let keys = |v: &JsonValue| match v {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys(&baseline), ["artifact", "cells"]);
        let cells = cells_of(&baseline);
        assert_eq!(cells.len(), 64);
        let mut row_keys = vec!["id"];
        row_keys.extend(FINGERPRINT);
        row_keys.push("telemetry");
        for (id, row) in cells {
            assert_eq!(keys(row), row_keys, "{id}");
            assert_eq!(
                keys(row.get("telemetry").expect("telemetry")),
                TELEMETRY,
                "{id}"
            );
            assert!(fingerprint_of(row).iter().all(Option::is_some), "{id}");
        }
        assert!(identity_mismatches(&baseline).is_empty());
    }
}
