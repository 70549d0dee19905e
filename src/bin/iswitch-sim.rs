//! Command-line driver for the iSwitch simulator.
//!
//! ```console
//! $ iswitch-sim timing --algorithm dqn --strategy isw --workers 4
//! $ iswitch-sim timing --algorithm ppo --strategy ar --workers 12 --per-rack 3
//! $ iswitch-sim convergence --algorithm a2c --workers 4 --max-iterations 8000
//! $ iswitch-sim scalability --algorithm ppo
//! ```

use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

use iswitch::cluster::analyze::TraceAnalysis;
use iswitch::cluster::experiments::{fig15, Scale};
use iswitch::cluster::{
    run_chaos, run_chaos_isolation, run_convergence, run_cosim, run_multi_tenant, run_timing,
    run_timing_observed_with, ChaosConfig, ChaosSchedule, ConvergenceConfig, CosimConfig,
    IsolationConfig, MultiJobConfig, Strategy, TenantSpec, TimingConfig, TraceOptions,
    TransportKind,
};
use iswitch::core::CodecKind;
use iswitch::netsim::{EgressQueue, FattreeShape, SimDuration};
use iswitch::obs::timeseries::DEFAULT_INTERVAL_NS;
use iswitch::obs::{parse_timeseries_jsonl, JsonValue, Timeseries};
use iswitch::rl::Algorithm;

const USAGE: &str = "\
iswitch-sim — packet-level simulation of in-switch gradient aggregation

USAGE:
    iswitch-sim <COMMAND> [OPTIONS]
    iswitch-sim <COMMAND> --help

A flag the command does not take is an error, never ignored.

COMMANDS:
    timing        per-iteration time of one strategy (packet simulation)
    multi         N concurrent training jobs sharing one switch fabric:
                  per-tenant slot/byte quotas, deterministic fallback to
                  host aggregation on slot exhaustion, elastic join/reset
                  churn; per-tenant artifacts plus a fabric report
    convergence   distributed RL training to a target reward
    scalability   end-to-end speedup across cluster sizes (Fig. 15)
    chaos         seeded fault injection (link outages, loss windows,
                  delay spikes) with protocol invariants checked:
                  gradient conservation, sync barrier, staleness bound,
                  membership/update consistency, determinism, and (with
                  --isolation) cross-tenant isolation
    analyze       analyze a causal trace (from `timing --trace-out`):
                  per-round critical path with straggler attribution,
                  stage occupancy, aggregation-latency percentiles, and
                  a Chrome trace-event (Perfetto) export

OPTIONS:
    --algorithm <dqn|a2c|ppo|ddpg>     benchmark (default: ppo)
    --strategy <ps|ar|isw|async-ps|async-isw>
                                       strategy (default: isw; timing only)
    --workers <N>                      worker count (default: 4)
    --per-rack <K>                     build a ToR/Core tree with K workers
                                       per rack (default: single switch)
    --per-agg <F>                      with --per-rack, group F racks per
                                       aggregation switch (3-level tree)
    --fattree <PODS>                   build the sharded fat-tree: PODS AGG
                                       subtrees (one engine domain each plus
                                       the core), --per-agg racks per pod
                                       (default 2), --per-rack hosts per
                                       rack (default 3); the worker count is
                                       derived from the shape (timing only,
                                       every strategy)
    --threads <N>                      worker threads driving a --fattree
                                       run, or tenant simulations of a
                                       multi run (default 1); every
                                       artifact is byte-identical for
                                       every N
    --fidelity <timing|cosim>          timing: synthetic payloads, timing
                                       only (default); cosim: real agent
                                       gradients summed by the simulated
                                       switch — reward curve AND timing
                                       from one run (isw strategies only)
    --iterations <N>                   timing iterations (default: 30)
    --max-iterations <N>               convergence cap (default: per-algorithm)
    --seed <N>                         RNG seed (default: 42)
    --edge-loss <P>                    random per-packet loss probability on
                                       every worker edge link (timing,
                                       --strategy isw only: exercises its
                                       Help/FBcast recovery)
    --codec <f32|fixed-point|block-float|top-k>
                                       aggregation codec: how gradients are
                                       laid out on the wire and summed in
                                       the switch (default: f32, the exact
                                       legacy format; timing, cosim, and
                                       chaos, isw strategies only). Cosim
                                       additionally reports the decoded
                                       aggregate's error against the exact
                                       host-side mean
    --transport <go-back|nack|dcqcn>   reliability/congestion policy on every
                                       worker (default: go-back). go-back:
                                       switch-assisted Help/FBcast recovery;
                                       nack: NACK-on-gap; dcqcn: ECN-echo
                                       rate control (timing and chaos)
    --incast                           incast workload: every worker flushes
                                       simultaneously (zero compute jitter)
                                       through shallow bounded egress
                                       queues; composes with --workers and
                                       --fattree (timing only)
    --background <K>                   add K bursting background flows that
                                       share the edge links with the
                                       training traffic (timing only,
                                       single-switch star)
    --tenants <SPEC,...>               comma-separated tenant specs, each
                                       NAME=ALG[/STRATEGY] (multi only;
                                       default: a=ppo/isw,b=a2c/isw)
    --quota <NAME=SLOTS[/BYTES],...>   guaranteed per-tenant slot (and
                                       optional buffer-byte) quotas; the
                                       rest of the fabric is shared on
                                       demand (multi only)
    --join <NAME=MS,...>               tenants joining the fabric MS
                                       milliseconds into the run (multi
                                       only; §3.2 Join)
    --reset <NAME=MS,...>              in-band Reset of every switch of the
                                       named tenants at MS milliseconds of
                                       tenant-local time (multi only)
    --fabric-slots <N>                 aggregation slots on the shared
                                       fabric (multi only; default 65536)
    --fabric-bytes <N>                 aggregation buffer bytes on the
                                       shared fabric (multi only)
    --epoch-ms <N>                     arbitration epoch in simulated
                                       milliseconds (multi only; default 10)
    --out-dir <DIR>                    write per-tenant artifacts
                                       (NAME.report.json, NAME.trace.jsonl)
                                       plus fabric.json to DIR (multi only)
    --isolation                        run the I6 cross-tenant isolation
                                       check instead of the fault matrix: a
                                       quota'd victim shares the fabric with
                                       a slot-leaking aggressor and must be
                                       byte-unperturbed (chaos only)
    --no-quota                         isolation self-test: drop the
                                       victim's quota and *require* I6 to
                                       trip — exits non-zero if the seeded
                                       leak goes undetected (chaos
                                       --isolation only)
    --chaos-seed <N>                   fault-schedule seed (chaos only;
                                       default: 1). Same seed => the same
                                       schedule and a byte-identical report
    --faults <PATH>                    run an explicit fault schedule from a
                                       JSON file instead of generating one
                                       (chaos only; see DESIGN.md for the
                                       schema)
    --report-out <PATH>                write chaos reports as JSON Lines to
                                       PATH (chaos only)
    --metrics-out <PATH>               write the observability report (stage
                                       timings + full metrics registry) as
                                       JSON to PATH (timing only)
    --trace-out <PATH>                 stream the causal trace (packet
                                       lifecycle events, worker/switch
                                       spans, iteration summaries) as JSON
                                       Lines to PATH while the simulation
                                       runs (timing only); memory stays
                                       bounded regardless of run length
    --trace-buffer <N>                 in-memory trace ring capacity in
                                       events (default: 65536). When the
                                       bound drops events the run report
                                       records `trace.dropped` and the CLI
                                       prints a loud warning (timing only)
    --timeseries-out <PATH>            write the sampled counter tracks
                                       (queue depths, ECN marks, transport
                                       rates, shard stalls, codec effects)
                                       as JSON Lines to PATH (timing only)
    --timeseries-chrome <PATH>         write the counter tracks as Perfetto
                                       counter-track events to PATH
                                       (timing only)
    --timeseries-interval <NS>         sampling cadence in simulated
                                       nanoseconds (default: 10000)
    --trace <PATH>                     trace file to analyze (analyze only)
    --out <PATH>                       write the analysis report as JSON to
                                       PATH (analyze only)
    --chrome-out <PATH>                write a Chrome trace-event JSON
                                       (Perfetto-loadable) to PATH
                                       (analyze only)
    --timeseries <PATH>                timeseries JSONL (from `timing
                                       --timeseries-out`) to join against
                                       the trace: the report gains a
                                       per-round attribution section naming
                                       the gating link's queue/ECN activity
                                       and the gating worker's transport
                                       rate (analyze only)
";

/// The flags a subcommand accepts, each with whether a value follows it.
type Flags = &'static [(&'static str, bool)];

const TIMING_FLAGS: Flags = &[
    ("--algorithm", true),
    ("--strategy", true),
    ("--fidelity", true),
    ("--workers", true),
    ("--per-rack", true),
    ("--per-agg", true),
    ("--fattree", true),
    ("--threads", true),
    ("--iterations", true),
    ("--seed", true),
    ("--edge-loss", true),
    ("--transport", true),
    ("--codec", true),
    ("--incast", false),
    ("--background", true),
    ("--metrics-out", true),
    ("--trace-out", true),
    ("--trace-buffer", true),
    ("--timeseries-out", true),
    ("--timeseries-chrome", true),
    ("--timeseries-interval", true),
];

const MULTI_FLAGS: Flags = &[
    ("--tenants", true),
    ("--quota", true),
    ("--join", true),
    ("--reset", true),
    ("--fabric-slots", true),
    ("--fabric-bytes", true),
    ("--epoch-ms", true),
    ("--iterations", true),
    ("--seed", true),
    ("--threads", true),
    ("--out-dir", true),
];

const CONVERGENCE_FLAGS: Flags = &[
    ("--algorithm", true),
    ("--workers", true),
    ("--max-iterations", true),
    ("--seed", true),
];

const SCALABILITY_FLAGS: Flags = &[("--algorithm", true)];

const CHAOS_FLAGS: Flags = &[
    ("--algorithm", true),
    ("--strategy", true),
    ("--workers", true),
    ("--iterations", true),
    ("--seed", true),
    ("--transport", true),
    ("--codec", true),
    ("--chaos-seed", true),
    ("--faults", true),
    ("--report-out", true),
    ("--isolation", false),
    ("--no-quota", false),
];

const ANALYZE_FLAGS: Flags = &[
    ("--trace", true),
    ("--timeseries", true),
    ("--out", true),
    ("--chrome-out", true),
];

/// A subcommand: its name, entry point and the one declaration of the
/// flags it accepts.
type Command = (&'static str, fn(&[String]), Flags);

const COMMANDS: &[Command] = &[
    ("timing", cmd_timing, TIMING_FLAGS),
    ("multi", cmd_multi, MULTI_FLAGS),
    ("analyze", cmd_analyze, ANALYZE_FLAGS),
    ("convergence", cmd_convergence, CONVERGENCE_FLAGS),
    ("scalability", cmd_scalability, SCALABILITY_FLAGS),
    ("chaos", cmd_chaos, CHAOS_FLAGS),
];

/// Checks a subcommand's arguments against its flag set before anything
/// runs, so nothing is silently ignored: `--help` prints the usage and
/// exits 0; an argument the subcommand does not declare, or a value-taking
/// flag with nothing after it, exits 2 naming it.
fn check_args(cmd: &str, args: &[String], flags: Flags) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            exit(0);
        }
        match flags.iter().find(|(name, _)| name == arg) {
            Some((_, false)) => {}
            Some((_, true)) if rest.next().is_some() => {}
            Some(_) => {
                eprintln!("{arg} expects a value");
                exit(2);
            }
            None => {
                eprintln!("`{cmd}` takes no `{arg}` (see `iswitch-sim --help`)");
                exit(2);
            }
        }
    }
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_algorithm(args: &[String]) -> Algorithm {
    match parse_flag(args, "--algorithm").as_deref() {
        None | Some("ppo") => Algorithm::Ppo,
        Some("dqn") => Algorithm::Dqn,
        Some("a2c") => Algorithm::A2c,
        Some("ddpg") => Algorithm::Ddpg,
        Some(other) => {
            eprintln!("unknown algorithm `{other}`");
            exit(2);
        }
    }
}

fn parse_strategy(args: &[String]) -> Strategy {
    match parse_flag(args, "--strategy").as_deref() {
        None | Some("isw") => Strategy::SyncIsw,
        Some("ps") => Strategy::SyncPs,
        Some("ar") => Strategy::SyncAr,
        Some("async-ps") => Strategy::AsyncPs,
        Some("async-isw") => Strategy::AsyncIsw,
        Some(other) => {
            eprintln!("unknown strategy `{other}`");
            exit(2);
        }
    }
}

fn parse_usize(args: &[String], name: &str) -> Option<usize> {
    parse_flag(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} expects a number, got `{v}`");
            exit(2);
        })
    })
}

fn parse_f64(args: &[String], name: &str) -> Option<f64> {
    parse_flag(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} expects a number, got `{v}`");
            exit(2);
        })
    })
}

fn parse_codec(args: &[String]) -> Option<CodecKind> {
    parse_flag(args, "--codec").map(|v| {
        v.parse::<CodecKind>().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
    })
}

fn write_artifact(path: &str, contents: &str) {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", parent.display());
                exit(1);
            });
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
}

fn cmd_cosim(args: &[String], alg: Algorithm, strategy: Strategy) {
    if !matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
        eprintln!(
            "--fidelity cosim drives gradients through the in-switch \
             datapath; pick --strategy isw or async-isw"
        );
        exit(2);
    }
    let mut cfg = CosimConfig::lite(alg, strategy);
    if let Some(w) = parse_usize(args, "--workers") {
        cfg.workers = w;
    }
    if let Some(n) = parse_usize(args, "--iterations") {
        cfg.iterations = n;
    }
    if let Some(s) = parse_usize(args, "--seed") {
        cfg.seed = s as u64;
    }
    if let Some(c) = parse_codec(args) {
        cfg.codec = c;
    }
    println!(
        "co-simulating {} / {} with {} workers (target reward {:?})…",
        alg,
        strategy.label(),
        cfg.workers,
        cfg.target_reward
    );
    let r = run_cosim(&cfg);
    let stride = (r.curve.len() / 20).max(1);
    for (i, (update, reward)) in r.curve.iter().enumerate() {
        if i % stride == 0 || i + 1 == r.curve.len() {
            println!("  update {update:>6}  reward {reward:>9.3}");
        }
    }
    println!(
        "{} after {} iterations ({} updates); final average reward {:.3}",
        if r.reached_target {
            "reached target"
        } else {
            "hit the budget"
        },
        r.iterations,
        r.updates,
        r.final_average_reward
    );
    println!("per-iteration time : {}", r.per_iteration);
    if let (Some(mean), Some(max)) = (r.ref_error_mean, r.ref_error_max) {
        println!(
            "aggregate ref error: mean {mean:.3e}  max {max:.3e}  ({})",
            cfg.codec
        );
    }
    if let Some(path) = parse_flag(args, "--metrics-out") {
        let mut doc = JsonValue::empty_object();
        doc.insert("artifact", JsonValue::Str("cosim".to_owned()));
        doc.insert("algorithm", JsonValue::Str(alg.to_string()));
        doc.insert("strategy", JsonValue::Str(strategy.label().to_owned()));
        if cfg.codec != CodecKind::F32 {
            // Non-default codecs only: f32 artifacts keep their exact
            // pre-codec byte layout.
            doc.insert("codec", JsonValue::Str(cfg.codec.label().to_owned()));
            if let (Some(mean), Some(max)) = (r.ref_error_mean, r.ref_error_max) {
                doc.insert("ref_error_mean", JsonValue::Float(mean));
                doc.insert("ref_error_max", JsonValue::Float(max));
            }
        }
        doc.insert("workers", JsonValue::UInt(cfg.workers as u64));
        doc.insert("iterations", JsonValue::UInt(r.iterations as u64));
        doc.insert("updates", JsonValue::UInt(r.updates));
        doc.insert("reached_target", JsonValue::Bool(r.reached_target));
        doc.insert(
            "final_average_reward",
            JsonValue::Float(f64::from(r.final_average_reward)),
        );
        doc.insert(
            "per_iteration_ns",
            JsonValue::UInt(r.per_iteration.as_nanos()),
        );
        doc.insert(
            "curve",
            JsonValue::Array(
                r.curve
                    .iter()
                    .map(|&(u, reward)| {
                        let mut pt = JsonValue::empty_object();
                        pt.insert("update", JsonValue::UInt(u));
                        pt.insert("reward", JsonValue::Float(f64::from(reward)));
                        pt
                    })
                    .collect(),
            ),
        );
        write_artifact(&path, &format!("{}\n", doc.render()));
        println!("metrics written to {path}");
    }
}

/// Runs a simulation the library may refuse at run time. It reports a
/// configuration it rejects, or a run it cannot summarise (a host-side
/// strategy stalled on a tail-dropped packet), by panicking with the
/// reason; the panic hook has printed that message, so exit like every
/// other refused invocation.
fn run_or_refuse<T>(run: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| exit(2))
}

fn cmd_timing(args: &[String]) {
    let alg = parse_algorithm(args);
    let strategy = parse_strategy(args);
    match parse_flag(args, "--fidelity").as_deref() {
        None | Some("timing") => {}
        Some("cosim") => {
            cmd_cosim(args, alg, strategy);
            return;
        }
        Some(other) => {
            eprintln!("unknown fidelity `{other}` (expected `timing` or `cosim`)");
            exit(2);
        }
    }
    let mut cfg = TimingConfig::main_cluster(alg, strategy);
    if let Some(w) = parse_usize(args, "--workers") {
        cfg.workers = w;
    }
    cfg.workers_per_rack = parse_usize(args, "--per-rack").map(|k| k.max(1));
    cfg.racks_per_agg = parse_usize(args, "--per-agg").map(|f| f.max(1));
    if let Some(pods) = parse_usize(args, "--fattree") {
        let shape = FattreeShape {
            aggs: pods.max(1),
            racks_per_agg: cfg.racks_per_agg.take().unwrap_or(2),
            hosts_per_rack: cfg.workers_per_rack.take().unwrap_or(3),
        };
        cfg.workers = shape.workers();
        cfg.fattree = Some(shape);
        cfg.threads = parse_usize(args, "--threads").unwrap_or(1).max(1);
    } else if parse_usize(args, "--threads").is_some() {
        eprintln!("--threads only applies to --fattree runs: every other topology is one domain");
        exit(2);
    }
    if let Some(n) = parse_usize(args, "--iterations") {
        cfg.iterations = n;
    }
    if let Some(s) = parse_usize(args, "--seed") {
        cfg.seed = s as u64;
    }
    if let Some(p) = parse_f64(args, "--edge-loss") {
        if !(0.0..1.0).contains(&p) {
            eprintln!("--edge-loss expects a probability in [0, 1), got {p}");
            exit(2);
        }
        if p > 0.0 && strategy != Strategy::SyncIsw {
            eprintln!("--edge-loss applies to the isw strategy: only its Help/FBcast recovery survives loss");
            exit(2);
        }
        cfg.edge_loss = p;
    }
    if let Some(t) = parse_flag(args, "--transport") {
        cfg.transport = t.parse::<TransportKind>().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
    }
    if let Some(c) = parse_codec(args) {
        if c != CodecKind::F32 && !matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
            eprintln!("--codec applies to the in-switch strategies (isw, async-isw)");
            exit(2);
        }
        cfg.codec = c;
    }
    if args.iter().any(|a| a == "--incast") {
        cfg.incast = true;
        cfg.queue.get_or_insert(EgressQueue::shallow());
    }
    if let Some(k) = parse_usize(args, "--background") {
        cfg.background_flows = k;
    }
    println!(
        "simulating {} / {} with {} workers…",
        alg,
        strategy.label(),
        cfg.workers
    );
    let metrics_out = parse_flag(args, "--metrics-out");
    let trace_out = parse_flag(args, "--trace-out");
    let timeseries_out = parse_flag(args, "--timeseries-out");
    let timeseries_chrome = parse_flag(args, "--timeseries-chrome");
    let interval_ns = parse_usize(args, "--timeseries-interval")
        .map(|n| n.max(1) as u64)
        .unwrap_or(DEFAULT_INTERVAL_NS);
    let want_timeseries = timeseries_out.is_some() || timeseries_chrome.is_some();
    let r = if metrics_out.is_some() || trace_out.is_some() || want_timeseries {
        // Stream the trace to disk as the run executes and keep only a
        // bounded window in memory, so long runs stay flat.
        let mut opts = TraceOptions {
            capacity: Some(parse_usize(args, "--trace-buffer").unwrap_or(65_536)),
            stream: None,
            timeseries: want_timeseries.then(|| Arc::new(Timeseries::new(interval_ns))),
        };
        if let Some(path) = &trace_out {
            if let Some(parent) = Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                        eprintln!("cannot create {}: {e}", parent.display());
                        exit(1);
                    });
                }
            }
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            opts.stream = Some(Box::new(BufWriter::new(file)));
        }
        let obs = run_or_refuse(|| run_timing_observed_with(&cfg, opts));
        if let Some(path) = &metrics_out {
            write_artifact(path, &format!("{}\n", obs.report_json().render()));
            println!("metrics written to {path}");
        }
        if let Some(path) = &trace_out {
            println!("trace streamed to {path} ({} events)", obs.trace.recorded());
        }
        if obs.trace.dropped() > 0 {
            let remedy = if trace_out.is_some() {
                "the streamed --trace-out file is complete; only the in-memory \
                 window is truncated. Raise --trace-buffer if something reads \
                 the in-memory trace."
            } else {
                "re-run with a larger --trace-buffer (default 65536) or stream \
                 with --trace-out for complete coverage."
            };
            eprintln!(
                "WARNING: trace buffer overflowed — {} event(s) dropped (recorded \
                 as trace.dropped in the run report); {remedy}",
                obs.trace.dropped()
            );
        }
        if let Some(ts) = &obs.timeseries {
            if let Some(path) = &timeseries_out {
                let mut out = Vec::new();
                ts.to_jsonl(&mut out).expect("jsonl to memory");
                write_artifact(path, &String::from_utf8(out).expect("jsonl is utf-8"));
                println!(
                    "timeseries written to {path} ({} tracks, {} samples)",
                    ts.track_count(),
                    ts.sample_count()
                );
            }
            if let Some(path) = &timeseries_chrome {
                write_artifact(path, &format!("{}\n", ts.chrome_trace().render()));
                println!("timeseries counter tracks written to {path}");
            }
        }
        obs.result
    } else {
        run_or_refuse(|| run_timing(&cfg))
    };
    println!("per-iteration time : {}", r.per_iteration);
    println!("  compute          : {}", r.breakdown.compute);
    println!("  aggregation      : {}", r.breakdown.aggregation);
    println!("  weight update    : {}", r.breakdown.update);
    println!(
        "  aggregation share: {:.1}%",
        r.breakdown.aggregation_share() * 100.0
    );
    if let Some(s) = r.mean_staleness() {
        println!("  mean staleness   : {s:.2}");
    }
    let t = r.transport;
    if t != Default::default() {
        println!(
            "  transport        : help={} nack={} rexmit={} ecn={} cuts={}",
            t.help_requests, t.nacks_sent, t.retransmits, t.ecn_echoes, t.rate_cuts
        );
    }
}

/// Parses `NAME=VALUE,...` per-tenant assignments.
fn parse_assignments(args: &[String], flag: &str) -> Vec<(String, String)> {
    let Some(text) = parse_flag(args, flag) else {
        return Vec::new();
    };
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let Some((name, value)) = pair.split_once('=') else {
                eprintln!("{flag} expects NAME=VALUE pairs, got `{pair}`");
                exit(2);
            };
            (name.to_owned(), value.to_owned())
        })
        .collect()
}

fn cmd_multi(args: &[String]) {
    let iterations = parse_usize(args, "--iterations");
    let seed = parse_usize(args, "--seed").map(|s| s as u64).unwrap_or(42);
    let quotas = parse_assignments(args, "--quota");
    let joins = parse_assignments(args, "--join");
    let resets = parse_assignments(args, "--reset");

    let spec_text =
        parse_flag(args, "--tenants").unwrap_or_else(|| "a=ppo/isw,b=a2c/isw".to_owned());
    let mut specs = Vec::new();
    for (i, spec) in spec_text.split(',').filter(|s| !s.is_empty()).enumerate() {
        let Some((name, job_text)) = spec.split_once('=') else {
            eprintln!("--tenants expects NAME=ALG[/STRATEGY] specs, got `{spec}`");
            exit(2);
        };
        let (alg_text, strat_text) = match job_text.split_once('/') {
            Some((a, s)) => (a, s),
            None => (job_text, "isw"),
        };
        let alg = match alg_text {
            "ppo" => Algorithm::Ppo,
            "dqn" => Algorithm::Dqn,
            "a2c" => Algorithm::A2c,
            "ddpg" => Algorithm::Ddpg,
            other => {
                eprintln!("tenant `{name}`: unknown algorithm `{other}`");
                exit(2);
            }
        };
        let strategy = match strat_text {
            "isw" => Strategy::SyncIsw,
            "ps" => Strategy::SyncPs,
            "ar" => Strategy::SyncAr,
            "async-ps" => Strategy::AsyncPs,
            "async-isw" => Strategy::AsyncIsw,
            other => {
                eprintln!("tenant `{name}`: unknown strategy `{other}`");
                exit(2);
            }
        };
        let mut job = TimingConfig::main_cluster(alg, strategy);
        if let Some(n) = iterations {
            job.iterations = n;
        }
        job.seed = seed.wrapping_add(i as u64);
        let mut tenant = TenantSpec::new(name, i as u64 + 1, job);
        let assigned = |list: &[(String, String)]| -> Option<String> {
            list.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone())
        };
        if let Some(q) = assigned(&quotas) {
            let (slots_text, bytes_text) = match q.split_once('/') {
                Some((s, b)) => (s.to_owned(), Some(b.to_owned())),
                None => (q, None),
            };
            let slots: u32 = slots_text.parse().unwrap_or_else(|_| {
                eprintln!("tenant `{name}`: --quota expects a slot count, got `{slots_text}`");
                exit(2);
            });
            let bytes: usize = bytes_text.map_or(1 << 24, |b| {
                b.parse().unwrap_or_else(|_| {
                    eprintln!("tenant `{name}`: --quota expects a byte count, got `{b}`");
                    exit(2);
                })
            });
            tenant = tenant.with_quota(slots, bytes);
        }
        let millis = |v: String, flag: &str| -> SimDuration {
            SimDuration::from_millis(v.parse().unwrap_or_else(|_| {
                eprintln!("tenant `{name}`: {flag} expects milliseconds, got `{v}`");
                exit(2);
            }))
        };
        if let Some(at) = assigned(&joins) {
            tenant = tenant.with_join_at(millis(at, "--join"));
        }
        if let Some(at) = assigned(&resets) {
            tenant = tenant.with_reset_at(millis(at, "--reset"));
        }
        specs.push(tenant);
    }
    for (n, _) in quotas.iter().chain(&joins).chain(&resets) {
        if !specs.iter().any(|t| t.name == *n) {
            eprintln!("`{n}` names no tenant in --tenants");
            exit(2);
        }
    }

    let mut cfg = MultiJobConfig::new(specs);
    if let Some(s) = parse_usize(args, "--fabric-slots") {
        cfg.fabric.slots = s as u32;
    }
    if let Some(b) = parse_usize(args, "--fabric-bytes") {
        cfg.fabric.buffer_bytes = b;
    }
    if let Some(ms) = parse_usize(args, "--epoch-ms") {
        cfg.fabric.epoch = SimDuration::from_millis(ms.max(1) as u64);
    }
    cfg.threads = parse_usize(args, "--threads").unwrap_or(1).max(1);

    println!(
        "simulating {} tenants on a shared fabric ({} slots, epoch {})…",
        cfg.tenants.len(),
        cfg.fabric.slots,
        cfg.fabric.epoch
    );
    let out = run_or_refuse(|| run_multi_tenant(&cfg));
    println!(
        "{:<10} {:<10} {:>16} {:>9} {:>10} {:>12}",
        "tenant", "strategy", "per-iteration", "denials", "fallback", "finished"
    );
    for (t, spec) in out.tenants.iter().zip(&cfg.tenants) {
        println!(
            "{:<10} {:<10} {:>16} {:>9} {:>9.1}% {:>12}",
            t.name,
            spec.job.strategy.label(),
            t.observation.result.per_iteration.to_string(),
            t.slot_denials,
            t.fallback_fraction() * 100.0,
            SimDuration::from_nanos(t.finished_at.as_nanos()).to_string(),
        );
    }

    if let Some(dir) = parse_flag(args, "--out-dir") {
        for t in &out.tenants {
            let report = format!("{}/{}.report.json", dir, t.name);
            write_artifact(
                &report,
                &format!("{}\n", t.observation.report_json().render()),
            );
            let trace = format!("{}/{}.trace.jsonl", dir, t.name);
            write_artifact(&trace, &t.observation.trace.to_jsonl());
        }
        let fabric = format!("{dir}/fabric.json");
        write_artifact(&fabric, &format!("{}\n", out.fabric_report.render()));
        println!(
            "per-tenant artifacts and fabric.json written to {dir}/ ({} tenants)",
            out.tenants.len()
        );
    }
}

fn cmd_convergence(args: &[String]) {
    let alg = parse_algorithm(args);
    let mut cfg = ConvergenceConfig::sync_main(alg);
    if let Some(w) = parse_usize(args, "--workers") {
        cfg.workers = w;
    }
    if let Some(n) = parse_usize(args, "--max-iterations") {
        cfg.max_iterations = n;
    }
    if let Some(s) = parse_usize(args, "--seed") {
        cfg.seed = s as u64;
    }
    cfg.curve_every = (cfg.max_iterations / 20).max(1);
    println!(
        "training {} with {} workers (target reward {:?})…",
        alg, cfg.workers, cfg.target_reward
    );
    let r = run_convergence(&cfg);
    for (iter, reward) in &r.curve {
        println!("  iter {iter:>6}  reward {reward:>9.1}");
    }
    println!(
        "{} after {} iterations; final average reward {:.1}",
        if r.reached_target {
            "converged"
        } else {
            "hit the cap"
        },
        r.iterations,
        r.final_average_reward
    );
}

fn cmd_scalability(args: &[String]) {
    let alg = parse_algorithm(args);
    let scale = Scale {
        scalability_workers: vec![4, 6, 9, 12],
        ..Scale::quick()
    };
    println!("scalability of {alg} (sync), 3 workers per rack…");
    let series = fig15(
        alg,
        &[Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw],
        &scale,
    );
    for s in series {
        let pts: Vec<String> = s
            .workers
            .iter()
            .zip(&s.speedup)
            .map(|(n, x)| format!("N={n}: {x:.2}x"))
            .collect();
        println!("  {:>4}  {}", s.strategy, pts.join("  "));
    }
}

/// The I6 cross-tenant isolation check (`chaos --isolation`). With
/// `--no-quota` the polarity flips: the run *must* trip (the harness
/// self-test), and an undetected leak exits non-zero.
fn cmd_chaos_isolation(args: &[String]) {
    let chaos_seed = parse_usize(args, "--chaos-seed").unwrap_or(1) as u64;
    let expect_trip = args.iter().any(|a| a == "--no-quota");
    let mut cfg = IsolationConfig::new(chaos_seed);
    if expect_trip {
        cfg.victim_quota = 0;
    }
    if let Some(n) = parse_usize(args, "--iterations") {
        cfg.iterations = n;
    }
    let report = run_chaos_isolation(&cfg);
    println!(
        "I6 isolation seed={} quota={} victim: denials={} fallback={} — {}",
        chaos_seed,
        cfg.victim_quota,
        report.victim_denials,
        report.victim_fallback_rounds,
        if report.passed() { "ok" } else { "VIOLATED" }
    );
    for v in &report.violations {
        println!("    {v}");
    }
    if let Some(path) = parse_flag(args, "--report-out") {
        write_artifact(&path, &format!("{}\n", report.to_json().render()));
        println!("report written to {path}");
    }
    if expect_trip {
        if report.passed() {
            eprintln!("self-test FAILED: the seeded slot leak went undetected without a quota");
            exit(1);
        }
        println!("self-test ok: the unquota'd victim was perturbed, as the leak predicts");
    } else if !report.passed() {
        exit(1);
    }
}

fn cmd_chaos(args: &[String]) {
    if args.iter().any(|a| a == "--isolation") {
        cmd_chaos_isolation(args);
        return;
    }
    let alg = parse_algorithm(args);
    let strategies: Vec<Strategy> = if parse_flag(args, "--strategy").is_some() {
        vec![parse_strategy(args)]
    } else {
        vec![
            Strategy::SyncPs,
            Strategy::SyncAr,
            Strategy::SyncIsw,
            Strategy::AsyncPs,
            Strategy::AsyncIsw,
        ]
    };
    let chaos_seed = parse_usize(args, "--chaos-seed").unwrap_or(1) as u64;
    let schedule = parse_flag(args, "--faults").map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        ChaosSchedule::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(2);
        })
    });
    let mut reports = Vec::new();
    let mut failed = false;
    for strategy in strategies {
        let mut cfg = ChaosConfig::new(alg, strategy, chaos_seed);
        if let Some(w) = parse_usize(args, "--workers") {
            cfg.workers = w;
        }
        if let Some(n) = parse_usize(args, "--iterations") {
            cfg.iterations = n;
        }
        if let Some(s) = parse_usize(args, "--seed") {
            cfg.seed = s as u64;
        }
        if let Some(t) = parse_flag(args, "--transport") {
            cfg.transport = t.parse::<TransportKind>().unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2);
            });
        }
        if let Some(c) = parse_codec(args) {
            if matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
                cfg.codec = c;
            }
        }
        cfg.schedule = schedule.clone();
        let report = run_chaos(&cfg);
        println!(
            "{:<9} faults={:<2} completed={:?} rounds_checked={} help={} — {}",
            strategy.label(),
            report.faults_applied,
            report.completed,
            report.rounds_checked,
            report.help_requests,
            if report.passed() { "ok" } else { "VIOLATED" }
        );
        for v in &report.violations {
            println!("    {v}");
        }
        failed |= !report.passed();
        reports.push(report.to_json().render());
    }
    if let Some(path) = parse_flag(args, "--report-out") {
        write_artifact(&path, &(reports.join("\n") + "\n"));
        println!("reports written to {path}");
    }
    if failed {
        exit(1);
    }
}

fn cmd_analyze(args: &[String]) {
    let Some(path) = parse_flag(args, "--trace") else {
        eprintln!("analyze needs --trace <PATH> (a JSONL trace from `timing --trace-out`)");
        exit(2);
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let mut analysis = TraceAnalysis::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(2);
    });
    if let Some(ts_path) = parse_flag(args, "--timeseries") {
        let ts_text = std::fs::read_to_string(&ts_path).unwrap_or_else(|e| {
            eprintln!("cannot read {ts_path}: {e}");
            exit(1);
        });
        let tracks = parse_timeseries_jsonl(&ts_text).unwrap_or_else(|e| {
            eprintln!("{ts_path}: {e}");
            exit(2);
        });
        analysis = analysis.with_timeseries(tracks);
    }
    print!("{}", analysis.summary_text());
    if let Some(out) = parse_flag(args, "--out") {
        write_artifact(&out, &format!("{}\n", analysis.report_json().render()));
        println!("report written to {out}");
    }
    if let Some(out) = parse_flag(args, "--chrome-out") {
        write_artifact(&out, &format!("{}\n", analysis.chrome_trace().render()));
        println!("chrome trace written to {out}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        return print!("{USAGE}");
    };
    if name == "--help" || name == "-h" {
        return print!("{USAGE}");
    }
    let Some((_, run, flags)) = COMMANDS.iter().find(|(cmd, ..)| cmd == name) else {
        eprintln!("unknown command `{name}`\n\n{USAGE}");
        exit(2);
    };
    check_args(name, &args[1..], flags);
    run(&args[1..]);
}
