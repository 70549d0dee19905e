//! Command-line driver for the iSwitch simulator.
//!
//! ```console
//! $ iswitch-sim timing --algorithm dqn --strategy isw --workers 4
//! $ iswitch-sim timing --algorithm ppo --strategy ar --workers 12 --per-rack 3
//! $ iswitch-sim convergence --algorithm a2c --workers 4 --max-iterations 8000
//! $ iswitch-sim scalability --algorithm ppo
//! ```

use std::io::BufWriter;
use std::num::{NonZeroU64, NonZeroUsize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::sync::Arc;

use iswitch::cluster::analyze::TraceAnalysis;
use iswitch::cluster::cli::{create_parent, refuse, select, write_artifact, Args, Command, Flag};
use iswitch::cluster::experiments::{fig15, Scale};
use iswitch::cluster::{
    run_chaos, run_chaos_isolation, run_convergence, run_cosim, run_multi_tenant, run_timing,
    run_timing_observed_with, ChaosConfig, ChaosSchedule, ConvergenceConfig, CosimConfig,
    IsolationConfig, MultiJobConfig, Strategy, TenantSpec, TimingConfig, TraceOptions,
};
use iswitch::core::CodecKind;
use iswitch::netsim::{EgressQueue, FattreeShape, SimDuration};
use iswitch::obs::timeseries::DEFAULT_INTERVAL_NS;
use iswitch::obs::{parse_timeseries_jsonl, JsonValue, Timeseries};
use iswitch::rl::Algorithm;

const ABOUT: &str = "packet-level simulation of in-switch gradient aggregation";

// Every flag, declared once: usage (a `<placeholder>` means it takes a value) and help. A command's row
// below lists the flags it takes, each with that command's default.
const ALGORITHM: Flag = Flag::new("--algorithm <dqn|a2c|ppo|ddpg>", "benchmark");
const STRATEGY: Flag = Flag::new("--strategy <ps|ar|isw|async-ps|async-isw>", "strategy");
const WORKERS: Flag = Flag::new("--workers <N>", "worker count");
const PER_RACK: Flag = Flag::new(
    "--per-rack <K>",
    "build a ToR/Core tree with K >= 1 workers per rack (default: single switch)",
);
const PER_AGG: Flag = Flag::new(
    "--per-agg <F>",
    "with --per-rack, group F >= 1 racks per aggregation switch (3-level tree)",
);
const FATTREE: Flag = Flag::new(
    "--fattree <PODS>",
    "build the sharded fat-tree: PODS >= 1 AGG subtrees (one engine domain each plus \
     the core), --per-agg racks per pod (default 2), --per-rack hosts per rack (default \
     3); the worker count is derived from the shape; every strategy",
);
const THREADS: Flag = Flag::new(
    "--threads <N>",
    "N >= 1 worker threads driving a --fattree run, or the tenant simulations of a multi \
     run; every artifact is byte-identical for every N",
);
const FIDELITY: Flag = Flag::new(
    "--fidelity <timing|cosim>",
    "timing: synthetic payloads, timing only; cosim: real agent gradients summed by the \
     simulated switch — reward curve AND timing from one run (isw strategies only; reads \
     --workers, --iterations, --seed, --codec and --metrics-out, defaulting to the lite \
     workload's 3 workers, 6000 iterations and seed 42, and refuses every other flag)",
);
const ITERATIONS: Flag = Flag::new("--iterations <N>", "iterations each worker runs");
const MAX_ITERATIONS: Flag = Flag::new(
    "--max-iterations <N>",
    "convergence cap (default: per algorithm)",
);
const SEED: Flag = Flag::new("--seed <N>", "RNG seed, decimal or 0x-hexadecimal");
const EDGE_LOSS: Flag = Flag::new(
    "--edge-loss <P>",
    "random per-packet loss probability on every worker edge link (--strategy isw only: \
     exercises its Help/FBcast recovery)",
);
const CODEC: Flag = Flag::new(
    "--codec <f32|fixed-point|block-float|top-k>",
    "aggregation codec: how gradients are laid out on the wire and summed in the switch \
     (f32 is the exact legacy format; isw strategies only). Cosim additionally reports the \
     decoded aggregate's error against the exact host-side mean",
);
const TRANSPORT: Flag = Flag::new(
    "--transport <go-back|nack|dcqcn>",
    "reliability/congestion policy on every worker. go-back: switch-assisted Help/FBcast \
     recovery; nack: NACK-on-gap; dcqcn: ECN-echo rate control",
);
const INCAST: Flag = Flag::new(
    "--incast",
    "incast workload: every worker flushes simultaneously (zero compute jitter) through \
     shallow bounded egress queues; composes with --workers and --fattree",
);
const BACKGROUND: Flag = Flag::new(
    "--background <K>",
    "add K bursting background flows that share the edge links with the training \
     traffic (single-switch star)",
);
const TENANTS: Flag = Flag::new(
    "--tenants <SPEC,...>",
    "comma-separated tenant specs, each NAME=ALG[/STRATEGY]",
);
const QUOTA: Flag = Flag::new(
    "--quota <NAME=SLOTS[/BYTES],...>",
    "guaranteed per-tenant slot (and optional buffer-byte) quotas; the rest of the fabric \
     is shared on demand",
);
const JOIN: Flag = Flag::new(
    "--join <NAME=MS,...>",
    "tenants joining the fabric MS milliseconds into the run (§3.2 Join)",
);
const RESET: Flag = Flag::new(
    "--reset <NAME=MS,...>",
    "in-band Reset of every switch of the named tenants at MS milliseconds of \
     tenant-local time",
);
const FABRIC_SLOTS: Flag = Flag::new(
    "--fabric-slots <N>",
    "aggregation slots on the shared fabric",
);
const FABRIC_BYTES: Flag = Flag::new(
    "--fabric-bytes <N>",
    "aggregation buffer bytes on the shared fabric",
);
const EPOCH_MS: Flag = Flag::new(
    "--epoch-ms <N>",
    "arbitration epoch in simulated milliseconds, >= 1",
);
const OUT_DIR: Flag = Flag::new(
    "--out-dir <DIR>",
    "write per-tenant artifacts (NAME.report.json, NAME.trace.jsonl) plus fabric.json to DIR",
);
const ISOLATION: Flag = Flag::new(
    "--isolation",
    "run the I6 cross-tenant isolation check instead of the fault matrix: a quota'd \
     victim shares the fabric with a slot-leaking aggressor and must be byte-unperturbed \
     (reads --chaos-seed, --no-quota, --report-out and --iterations, 6 unless given)",
);
const NO_QUOTA: Flag = Flag::new(
    "--no-quota",
    "isolation self-test: drop the victim's quota and *require* I6 to trip — exits \
     non-zero if the seeded leak goes undetected (with --isolation)",
);
const CHAOS_SEED: Flag = Flag::new(
    "--chaos-seed <N>",
    "fault-schedule seed. Same seed => the same schedule and a byte-identical report",
);
const FAULTS: Flag = Flag::new(
    "--faults <PATH>",
    "run an explicit fault schedule from a JSON file instead of generating one (see \
     DESIGN.md for the schema)",
);
const REPORT_OUT: Flag = Flag::new(
    "--report-out <PATH>",
    "write chaos reports as JSON Lines to PATH",
);
const METRICS_OUT: Flag = Flag::new(
    "--metrics-out <PATH>",
    "write the observability report (stage timings + full metrics registry) as JSON to PATH",
);
const TRACE_OUT: Flag = Flag::new(
    "--trace-out <PATH>",
    "stream the causal trace (packet lifecycle events, worker/switch spans, iteration \
     summaries) as JSON Lines to PATH while the simulation runs; memory stays bounded \
     regardless of run length",
);
const TRACE_BUFFER: Flag = Flag::new(
    "--trace-buffer <N>",
    "in-memory trace ring capacity in events. When the bound drops events the run \
     report records `trace.dropped` and the CLI prints a loud warning",
);
const TIMESERIES_OUT: Flag = Flag::new(
    "--timeseries-out <PATH>",
    "write the sampled counter tracks (queue depths, ECN marks, transport rates, shard \
     stalls, codec effects) as JSON Lines to PATH",
);
const TIMESERIES_CHROME: Flag = Flag::new(
    "--timeseries-chrome <PATH>",
    "write the counter tracks as Perfetto counter-track events to PATH",
);
const TIMESERIES_INTERVAL: Flag = Flag::new(
    "--timeseries-interval <NS>",
    "sampling cadence in simulated nanoseconds, >= 1",
);
const TRACE: Flag = Flag::new("--trace <PATH>", "trace file to analyze (required)");
const OUT: Flag = Flag::new("--out <PATH>", "write the analysis report as JSON to PATH");
const CHROME_OUT: Flag = Flag::new(
    "--chrome-out <PATH>",
    "write a Chrome trace-event JSON (Perfetto-loadable) to PATH",
);
const TIMESERIES: Flag = Flag::new(
    "--timeseries <PATH>",
    "timeseries JSONL (from `timing --timeseries-out`) to join against the trace: the \
     report gains a per-round attribution section naming the gating link's queue/ECN \
     activity and the gating worker's transport rate",
);

/// A subcommand: what `--help` says, every flag it takes with the default it
/// uses, and its entry point.
type Row = (Command, fn(&Args));

const COMMANDS: &[Row] = &[
    (
        Command {
            name: "timing",
            summary: "per-iteration time of one strategy (packet simulation)",
            flags: &[
                ALGORITHM.or("ppo"),
                STRATEGY.or("isw"),
                FIDELITY.or("timing"),
                WORKERS.or("4"),
                PER_RACK,
                PER_AGG,
                FATTREE,
                THREADS.or("1"),
                ITERATIONS.or("30"),
                SEED.or("0x5117c4"),
                EDGE_LOSS.or("0"),
                TRANSPORT.or("go-back"),
                CODEC.or("f32"),
                INCAST,
                BACKGROUND.or("0"),
                METRICS_OUT,
                TRACE_OUT,
                TRACE_BUFFER.or("65536"),
                TIMESERIES_OUT,
                TIMESERIES_CHROME,
                TIMESERIES_INTERVAL.or("10000"),
            ],
        },
        cmd_timing,
    ),
    (
        Command {
            name: "multi",
            summary: "N concurrent training jobs sharing one switch fabric: per-tenant \
                      slot/byte quotas, deterministic fallback to host aggregation on slot \
                      exhaustion, elastic join/reset churn; per-tenant artifacts plus a \
                      fabric report",
            flags: &[
                TENANTS.or("a=ppo/isw,b=a2c/isw"),
                QUOTA,
                JOIN,
                RESET,
                FABRIC_SLOTS.or("65536"),
                FABRIC_BYTES,
                EPOCH_MS.or("10"),
                ITERATIONS.or("30"),
                SEED.or("42"),
                THREADS.or("1"),
                OUT_DIR,
            ],
        },
        cmd_multi,
    ),
    (
        Command {
            name: "analyze",
            summary: "analyze a causal trace (from `timing --trace-out`): per-round \
                      critical path with straggler attribution, stage occupancy, \
                      aggregation-latency percentiles, and a Chrome trace-event (Perfetto) \
                      export",
            flags: &[TRACE, TIMESERIES, OUT, CHROME_OUT],
        },
        cmd_analyze,
    ),
    (
        Command {
            name: "convergence",
            summary: "distributed RL training to a target reward",
            flags: &[
                ALGORITHM.or("ppo"),
                WORKERS.or("4"),
                MAX_ITERATIONS,
                SEED.or("42"),
            ],
        },
        cmd_convergence,
    ),
    (
        Command {
            name: "scalability",
            summary: "end-to-end speedup across cluster sizes (Fig. 15)",
            flags: &[ALGORITHM.or("ppo")],
        },
        cmd_scalability,
    ),
    (
        Command {
            name: "chaos",
            summary: "seeded fault injection (link outages, loss windows, delay spikes) \
                      with protocol invariants checked: gradient conservation, sync \
                      barrier, staleness bound, membership/update consistency, \
                      determinism, and (with --isolation) cross-tenant isolation",
            flags: &[
                ALGORITHM.or("ppo"),
                Flag::new(STRATEGY.usage, "run one strategy instead of all five"),
                WORKERS.or("3"),
                ITERATIONS.or("10"),
                SEED.or("0xC4A05"),
                TRANSPORT.or("go-back"),
                CODEC.or("f32"),
                CHAOS_SEED.or("1"),
                FAULTS,
                REPORT_OUT,
                ISOLATION,
                NO_QUOTA,
            ],
        },
        cmd_chaos,
    ),
];

const ALGORITHMS: [(&str, Algorithm); 4] = [
    ("ppo", Algorithm::Ppo),
    ("dqn", Algorithm::Dqn),
    ("a2c", Algorithm::A2c),
    ("ddpg", Algorithm::Ddpg),
];

const STRATEGIES: [(&str, Strategy); 5] = [
    ("ps", Strategy::SyncPs),
    ("ar", Strategy::SyncAr),
    ("isw", Strategy::SyncIsw),
    ("async-ps", Strategy::AsyncPs),
    ("async-isw", Strategy::AsyncIsw),
];

fn named<T: Copy>(table: &[(&str, T)], text: &str) -> Option<T> {
    let row = table.iter().find(|(name, _)| *name == text);
    row.map(|&(_, value)| value)
}

fn algorithm(args: &Args) -> Algorithm {
    args.get_with(ALGORITHM, |text| named(&ALGORITHMS, text))
        .expect("every row that takes --algorithm declares its default")
}

fn strategy(args: &Args) -> Option<Strategy> {
    args.get_with(STRATEGY, |text| named(&STRATEGIES, text))
}

/// A count the simulator cannot run with zero of: 0 is refused, not
/// rewritten to 1.
fn positive(args: &Args, flag: Flag) -> Option<usize> {
    args.get::<NonZeroUsize>(flag).map(NonZeroUsize::get)
}

/// What `timing --fidelity cosim` reads of the timing row.
const COSIM_READS: [Flag; 8] = [
    ALGORITHM,
    STRATEGY,
    FIDELITY,
    WORKERS,
    ITERATIONS,
    SEED,
    CODEC,
    METRICS_OUT,
];

/// `timing --fidelity cosim`. `args` holds only what the user typed: the
/// lite workload's defaults are not the timing row's, and a flag of the
/// timing row it does not read is refused, never ignored.
fn cmd_cosim(args: &Args, alg: Algorithm, strategy: Strategy) {
    if let Some(flag) = args.given_outside(&COSIM_READS) {
        refuse(format!(
            "{FIDELITY} cosim does not read `{flag}`: it takes {}",
            COSIM_READS.map(|f| f.name()).join(", ")
        ));
    }
    if !matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
        refuse(format!(
            "{FIDELITY} cosim drives gradients through the in-switch datapath; \
             pick {STRATEGY} isw or async-isw"
        ));
    }
    let mut cfg = CosimConfig::lite(alg, strategy);
    cfg.workers = args.get(WORKERS).unwrap_or(cfg.workers);
    cfg.iterations = args.get(ITERATIONS).unwrap_or(cfg.iterations);
    cfg.seed = args.seed(SEED).unwrap_or(cfg.seed);
    cfg.codec = args.get(CODEC).unwrap_or(cfg.codec);
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
    if let Some(path) = args.value(METRICS_OUT) {
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
        write_artifact(path, &format!("{}\n", doc.render()));
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

fn cmd_timing(args: &Args) {
    let alg = algorithm(args);
    let strategy = strategy(args).expect("the timing row declares a default strategy");
    let fidelities = [("timing", false), ("cosim", true)];
    if args.get_with(FIDELITY, |text| named(&fidelities, text)) == Some(true) {
        return cmd_cosim(&args.only_given(), alg, strategy);
    }
    let mut cfg = TimingConfig::main_cluster(alg, strategy);
    cfg.workers = args.get(WORKERS).unwrap_or(cfg.workers);
    cfg.workers_per_rack = positive(args, PER_RACK);
    cfg.racks_per_agg = positive(args, PER_AGG);
    if let Some(pods) = positive(args, FATTREE) {
        let shape = FattreeShape {
            aggs: pods,
            racks_per_agg: cfg.racks_per_agg.take().unwrap_or(2),
            hosts_per_rack: cfg.workers_per_rack.take().unwrap_or(3),
        };
        cfg.workers = shape.workers();
        cfg.fattree = Some(shape);
        cfg.threads = positive(args, THREADS).unwrap_or(cfg.threads);
    } else if args.has(THREADS) {
        refuse(format!(
            "{THREADS} only applies to {FATTREE} runs: every other topology is one domain"
        ));
    }
    cfg.iterations = args.get(ITERATIONS).unwrap_or(cfg.iterations);
    cfg.seed = args.seed(SEED).unwrap_or(cfg.seed);
    if let Some(p) = args.get::<f64>(EDGE_LOSS) {
        if !(0.0..1.0).contains(&p) {
            refuse(format!(
                "{EDGE_LOSS} expects a probability in [0, 1), got {p}"
            ));
        }
        if p > 0.0 && strategy != Strategy::SyncIsw {
            refuse(format!(
                "{EDGE_LOSS} applies to the isw strategy: only its Help/FBcast recovery survives loss"
            ));
        }
        cfg.edge_loss = p;
    }
    cfg.transport = args.get(TRANSPORT).unwrap_or(cfg.transport);
    cfg.codec = args.get(CODEC).unwrap_or(cfg.codec);
    if cfg.codec != CodecKind::F32 && !matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
        refuse(format!(
            "{CODEC} applies to the in-switch strategies (isw, async-isw)"
        ));
    }
    if args.has(INCAST) {
        cfg.incast = true;
        cfg.queue.get_or_insert(EgressQueue::shallow());
    }
    cfg.background_flows = args.get(BACKGROUND).unwrap_or(cfg.background_flows);
    let metrics_out = args.value(METRICS_OUT);
    let trace_out = args.value(TRACE_OUT);
    let timeseries_out = args.value(TIMESERIES_OUT);
    let timeseries_chrome = args.value(TIMESERIES_CHROME);
    let interval_ns = args
        .get::<NonZeroU64>(TIMESERIES_INTERVAL)
        .map_or(DEFAULT_INTERVAL_NS, NonZeroU64::get);
    let capacity = args.get(TRACE_BUFFER);
    println!(
        "simulating {} / {} with {} workers…",
        alg,
        strategy.label(),
        cfg.workers
    );
    let want_timeseries = timeseries_out.is_some() || timeseries_chrome.is_some();
    let r = if metrics_out.is_some() || trace_out.is_some() || want_timeseries {
        // Stream the trace to disk as the run executes and keep only a
        // bounded window in memory, so long runs stay flat.
        let mut opts = TraceOptions {
            capacity,
            stream: None,
            timeseries: want_timeseries.then(|| Arc::new(Timeseries::new(interval_ns))),
        };
        if let Some(path) = trace_out {
            create_parent(path);
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            opts.stream = Some(Box::new(BufWriter::new(file)));
        }
        let obs = run_or_refuse(|| run_timing_observed_with(&cfg, opts));
        if let Some(path) = metrics_out {
            write_artifact(path, &format!("{}\n", obs.report_json().render()));
            println!("metrics written to {path}");
        }
        if let Some(path) = trace_out {
            println!("trace streamed to {path} ({} events)", obs.trace.recorded());
        }
        if obs.trace.dropped() > 0 {
            let remedy = if trace_out.is_some() {
                format!(
                    "the streamed {TRACE_OUT} file is complete; only the in-memory window \
                     is truncated. Raise {TRACE_BUFFER} if something reads the in-memory trace."
                )
            } else {
                format!(
                    "re-run with a larger {TRACE_BUFFER} or stream with {TRACE_OUT} for \
                     complete coverage."
                )
            };
            eprintln!(
                "WARNING: trace buffer overflowed — {} event(s) dropped (recorded \
                 as trace.dropped in the run report); {remedy}",
                obs.trace.dropped()
            );
        }
        if let Some(ts) = &obs.timeseries {
            if let Some(path) = timeseries_out {
                let mut out = Vec::new();
                ts.to_jsonl(&mut out).expect("jsonl to memory");
                write_artifact(path, &String::from_utf8(out).expect("jsonl is utf-8"));
                println!(
                    "timeseries written to {path} ({} tracks, {} samples)",
                    ts.track_count(),
                    ts.sample_count()
                );
            }
            if let Some(path) = timeseries_chrome {
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
fn parse_assignments(args: &Args, flag: Flag) -> Vec<(&str, &str)> {
    let text = args.value(flag).unwrap_or_default();
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            pair.split_once('=')
                .unwrap_or_else(|| refuse(format!("{flag} expects NAME=VALUE pairs, got `{pair}`")))
        })
        .collect()
}

/// What a `NAME=VALUE,...` list assigns to tenant `name`.
fn assigned<'a>(list: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    list.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

fn cmd_multi(args: &Args) {
    let iterations = args.get::<usize>(ITERATIONS);
    let seed = args
        .seed(SEED)
        .expect("the multi row declares a default seed");
    let quotas = parse_assignments(args, QUOTA);
    let joins = parse_assignments(args, JOIN);
    let resets = parse_assignments(args, RESET);

    let spec_text = args.value(TENANTS).unwrap_or_default();
    let mut specs = Vec::new();
    for (i, spec) in spec_text.split(',').filter(|s| !s.is_empty()).enumerate() {
        let Some((name, job_text)) = spec.split_once('=') else {
            refuse(format!(
                "{TENANTS} expects NAME=ALG[/STRATEGY] specs, got `{spec}`"
            ));
        };
        let (alg_text, strat_text) = job_text.split_once('/').unwrap_or((job_text, "isw"));
        let alg = named(&ALGORITHMS, alg_text)
            .unwrap_or_else(|| refuse(format!("tenant `{name}`: unknown algorithm `{alg_text}`")));
        let strategy = named(&STRATEGIES, strat_text)
            .unwrap_or_else(|| refuse(format!("tenant `{name}`: unknown strategy `{strat_text}`")));
        let mut job = TimingConfig::main_cluster(alg, strategy);
        job.iterations = iterations.unwrap_or(job.iterations);
        job.seed = seed.wrapping_add(i as u64);
        let mut tenant = TenantSpec::new(name, i as u64 + 1, job);
        if let Some(q) = assigned(&quotas, name) {
            let (slots_text, bytes_text) = match q.split_once('/') {
                Some((s, b)) => (s, Some(b)),
                None => (q, None),
            };
            let slots: u32 = slots_text.parse().unwrap_or_else(|_| {
                refuse(format!(
                    "tenant `{name}`: {QUOTA} expects a slot count, got `{slots_text}`"
                ))
            });
            let bytes: usize = bytes_text.map_or(1 << 24, |b| {
                b.parse().unwrap_or_else(|_| {
                    refuse(format!(
                        "tenant `{name}`: {QUOTA} expects a byte count, got `{b}`"
                    ))
                })
            });
            tenant = tenant.with_quota(slots, bytes);
        }
        let millis = |v: &str, flag: Flag| -> SimDuration {
            SimDuration::from_millis(v.parse().unwrap_or_else(|_| {
                refuse(format!(
                    "tenant `{name}`: {flag} expects milliseconds, got `{v}`"
                ))
            }))
        };
        if let Some(at) = assigned(&joins, name) {
            tenant = tenant.with_join_at(millis(at, JOIN));
        }
        if let Some(at) = assigned(&resets, name) {
            tenant = tenant.with_reset_at(millis(at, RESET));
        }
        specs.push(tenant);
    }
    for (n, _) in quotas.iter().chain(&joins).chain(&resets) {
        if !specs.iter().any(|t| t.name == *n) {
            refuse(format!("`{n}` names no tenant in {TENANTS}"));
        }
    }

    let mut cfg = MultiJobConfig::new(specs);
    cfg.fabric.slots = args.get(FABRIC_SLOTS).unwrap_or(cfg.fabric.slots);
    cfg.fabric.buffer_bytes = args.get(FABRIC_BYTES).unwrap_or(cfg.fabric.buffer_bytes);
    if let Some(ms) = args.get::<NonZeroU64>(EPOCH_MS) {
        cfg.fabric.epoch = SimDuration::from_millis(ms.get());
    }
    cfg.threads = positive(args, THREADS).unwrap_or(cfg.threads);

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

    if let Some(dir) = args.value(OUT_DIR) {
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

fn cmd_convergence(args: &Args) {
    let alg = algorithm(args);
    let mut cfg = ConvergenceConfig::sync_main(alg);
    cfg.workers = args.get(WORKERS).unwrap_or(cfg.workers);
    cfg.max_iterations = args.get(MAX_ITERATIONS).unwrap_or(cfg.max_iterations);
    cfg.seed = args.seed(SEED).unwrap_or(cfg.seed);
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

fn cmd_scalability(args: &Args) {
    let alg = algorithm(args);
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
fn cmd_chaos_isolation(args: &Args, chaos_seed: u64) {
    let expect_trip = args.has(NO_QUOTA);
    let mut cfg = IsolationConfig::new(chaos_seed);
    if expect_trip {
        cfg.victim_quota = 0;
    }
    // The I6 cell is 6 iterations, not the fault matrix's default.
    let iterations = args.only_given().get(ITERATIONS);
    cfg.iterations = iterations.unwrap_or(cfg.iterations);
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
    if let Some(path) = args.value(REPORT_OUT) {
        write_artifact(path, &format!("{}\n", report.to_json().render()));
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

fn cmd_chaos(args: &Args) {
    let chaos_seed = args
        .seed(CHAOS_SEED)
        .expect("the chaos row declares a default schedule seed");
    if args.has(ISOLATION) {
        return cmd_chaos_isolation(args, chaos_seed);
    }
    let alg = algorithm(args);
    let strategies: Vec<Strategy> = match strategy(args) {
        Some(one) => vec![one],
        None => STRATEGIES.iter().map(|&(_, strategy)| strategy).collect(),
    };
    let schedule = args.value(FAULTS).map(|path| {
        ChaosSchedule::from_json(&read_or_exit(path))
            .unwrap_or_else(|e| refuse(format!("{path}: {e}")))
    });
    let mut reports = Vec::new();
    let mut failed = false;
    for strategy in strategies {
        let mut cfg = ChaosConfig::new(alg, strategy, chaos_seed);
        cfg.workers = args.get(WORKERS).unwrap_or(cfg.workers);
        cfg.iterations = args.get(ITERATIONS).unwrap_or(cfg.iterations);
        cfg.seed = args.seed(SEED).unwrap_or(cfg.seed);
        cfg.transport = args.get(TRANSPORT).unwrap_or(cfg.transport);
        if matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
            cfg.codec = args.get(CODEC).unwrap_or(cfg.codec);
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
    if let Some(path) = args.value(REPORT_OUT) {
        write_artifact(path, &(reports.join("\n") + "\n"));
        println!("reports written to {path}");
    }
    if failed {
        exit(1);
    }
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

fn cmd_analyze(args: &Args) {
    let Some(path) = args.value(TRACE) else {
        refuse(format!(
            "analyze needs {TRACE} <PATH> (a JSONL trace from `timing {TRACE_OUT}`)"
        ));
    };
    let mut analysis = TraceAnalysis::from_jsonl(&read_or_exit(path))
        .unwrap_or_else(|e| refuse(format!("{path}: {e}")));
    if let Some(ts_path) = args.value(TIMESERIES) {
        let tracks = parse_timeseries_jsonl(&read_or_exit(ts_path))
            .unwrap_or_else(|e| refuse(format!("{ts_path}: {e}")));
        analysis = analysis.with_timeseries(tracks);
    }
    print!("{}", analysis.summary_text());
    if let Some(out) = args.value(OUT) {
        write_artifact(out, &format!("{}\n", analysis.report_json().render()));
        println!("report written to {out}");
    }
    if let Some(out) = args.value(CHROME_OUT) {
        write_artifact(out, &format!("{}\n", analysis.chrome_trace().render()));
        println!("chrome trace written to {out}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let specs: Vec<Command> = COMMANDS.iter().map(|row| row.0).collect();
    let (at, args) = select("iswitch-sim", ABOUT, &specs, &argv).unwrap_or_else(|stop| stop.exit());
    COMMANDS[at].1(&args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch::cluster::cli::Stop;
    use iswitch::cluster::FabricConfig;

    /// The row's arguments when the user types nothing: every default.
    fn defaults(name: &str) -> Args {
        let row = COMMANDS.iter().find(|row| row.0.name == name);
        let parsed = row.expect("a row").0.parse(name, &[]);
        parsed.expect("no argument is refused")
    }

    #[test]
    fn every_rows_help_is_its_own_flags_and_defaults() {
        // `Command::help` prints a row's flags and defaults and nothing else
        // (`crates/cluster/tests/cli.rs`); every row answers `--help` with it.
        for (command, _) in COMMANDS {
            let program = format!("iswitch-sim {}", command.name);
            let stop = command.parse(&program, &["--help".to_owned()]);
            assert_eq!(stop.err(), Some(Stop::Help(command.help(&program))));
            for flag in command.flags {
                assert!(!flag.help.is_empty(), "{program}: {flag} has no help");
            }
        }
    }

    #[test]
    fn declared_defaults_are_the_library_defaults() {
        let args = defaults("timing");
        let cfg = TimingConfig::main_cluster(algorithm(&args), strategy(&args).expect("isw"));
        assert_eq!(
            (cfg.algorithm, cfg.strategy),
            (Algorithm::Ppo, Strategy::SyncIsw)
        );
        assert_eq!(args.get(WORKERS), Some(cfg.workers));
        assert_eq!(args.get(ITERATIONS), Some(cfg.iterations));
        assert_eq!(args.seed(SEED), Some(cfg.seed));
        assert_eq!(args.get(THREADS), Some(cfg.threads));
        assert_eq!(args.get(EDGE_LOSS), Some(cfg.edge_loss));
        assert_eq!(args.get(TRANSPORT), Some(cfg.transport));
        assert_eq!(args.get(CODEC), Some(cfg.codec));
        assert_eq!(args.get(BACKGROUND), Some(cfg.background_flows));
        assert_eq!(args.get(TIMESERIES_INTERVAL), Some(DEFAULT_INTERVAL_NS));
        assert_eq!(args.value(FIDELITY), Some("timing"));

        let args = defaults("multi");
        let fabric = FabricConfig::default();
        assert_eq!(args.get(FABRIC_SLOTS), Some(fabric.slots));
        assert_eq!(
            args.get(EPOCH_MS).map(SimDuration::from_millis),
            Some(fabric.epoch)
        );
        assert_eq!(args.get(ITERATIONS), Some(cfg.iterations));
        assert_eq!(
            args.get(THREADS),
            Some(MultiJobConfig::new(Vec::new()).threads)
        );

        let args = defaults("convergence");
        let cfg = ConvergenceConfig::sync_main(algorithm(&args));
        assert_eq!(args.get(WORKERS), Some(cfg.workers));
        assert_eq!(args.seed(SEED), Some(cfg.seed));

        let args = defaults("chaos");
        let chaos_seed = args.seed(CHAOS_SEED).expect("declared");
        let cfg = ChaosConfig::new(algorithm(&args), Strategy::SyncIsw, chaos_seed);
        assert_eq!(args.get(WORKERS), Some(cfg.workers));
        assert_eq!(args.get(ITERATIONS), Some(cfg.iterations));
        assert_eq!(args.seed(SEED), Some(cfg.seed));
        assert_eq!(args.get(TRANSPORT), Some(cfg.transport));
        assert_eq!(args.get(CODEC), Some(cfg.codec));
        assert_eq!(
            strategy(&args),
            None,
            "chaos runs every strategy by default"
        );
    }
}
