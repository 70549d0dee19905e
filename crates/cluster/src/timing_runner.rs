//! Timing-mode experiments: paper-sized gradient traffic through the
//! packet-level simulator, measuring steady-state per-iteration time and
//! its component breakdown for every strategy of the paper's evaluation.

use std::io::Write;
use std::sync::Arc;

use iswitch_core::{AggregationMode, CodecKind};
use iswitch_netsim::{EgressQueue, FattreeShape, SimDuration, TopologyConfig};
use iswitch_obs::{JsonValue, Timeseries, Trace};
use iswitch_rl::Algorithm;
use serde::{Deserialize, Serialize};

use crate::chaos::{Faults, SeededBug};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::convergence::default_target;
use crate::lifecycle::{build, Capture};
use crate::transport::{make_transport, TransportKind, TransportStats};

/// A distributed-training strategy from the paper's evaluation (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Synchronous centralized parameter server (baseline "PS").
    SyncPs,
    /// Synchronous Ring-AllReduce ("AR").
    SyncAr,
    /// Synchronous in-switch aggregation ("iSW").
    SyncIsw,
    /// Asynchronous parameter server ("Async PS").
    AsyncPs,
    /// Asynchronous in-switch aggregation with the three-stage pipeline
    /// ("Async iSW").
    AsyncIsw,
}

impl Strategy {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::SyncPs => "PS",
            Strategy::SyncAr => "AR",
            Strategy::SyncIsw => "iSW",
            Strategy::AsyncPs => "Async PS",
            Strategy::AsyncIsw => "Async iSW",
        }
    }

    /// Whether this is an asynchronous strategy.
    pub fn is_async(self) -> bool {
        matches!(self, Strategy::AsyncPs | Strategy::AsyncIsw)
    }
}

/// What a run's workers push through the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Synthetic paper-sized payloads: the run measures time only.
    Timing,
    /// One live lite-workload replica per worker of an iSwitch strategy,
    /// whose real gradients the simulated switches sum
    /// ([`crate::run_cosim`], [`crate::run_chaos`]): reward curve and timing
    /// from one run, stopping early once the pooled average reward reaches
    /// `target_reward`.
    Cosim {
        /// The reward that ends a co-sim run before its iteration budget.
        target_reward: Option<f32>,
    },
}

/// Configuration of one run: a timing experiment, a co-simulation, a chaos
/// run or a tenant's job.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Benchmark algorithm (fixes the model size and compute model).
    pub algorithm: Algorithm,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Number of training workers.
    pub workers: usize,
    /// `Some(k)` builds the two-layer ToR/Core tree with `k` workers per
    /// rack (paper §5.3 uses 3); `None` builds the single-switch star.
    pub workers_per_rack: Option<usize>,
    /// With `workers_per_rack` set, `Some(f)` inserts an aggregation
    /// switch layer grouping `f` racks per AGG (the full three-level
    /// hierarchy of Fig. 10). `None` keeps ToRs directly under the core.
    pub racks_per_agg: Option<usize>,
    /// Iterations to measure (after warmup).
    pub iterations: usize,
    /// Iterations discarded as warmup.
    pub warmup: usize,
    /// Physical network parameters.
    pub topo: TopologyConfig,
    /// Host software costs.
    pub comm: CommCosts,
    /// Staleness bound `S` for asynchronous strategies.
    pub staleness_bound: u32,
    /// Output-scheduling ablation for iSwitch strategies (the paper's
    /// design is on-the-fly; Fig. 8a's conventional scheme for comparison).
    pub aggregation_mode: AggregationMode,
    /// Overrides the aggregation threshold `H` of the star's iSwitch switch
    /// (the `SetH` partial-aggregation ablation; `H` counts workers, so
    /// other topologies refuse it). `None` keeps `H` = children.
    pub threshold_override: Option<u16>,
    /// `Some(shape)` builds the fat-tree: the three-level hierarchy cut
    /// into one simulation domain per AGG subtree plus one for the core,
    /// connected by cross-domain AGG↔Core uplinks (see
    /// [`iswitch_netsim::ShardedSim`]); every other topology is the
    /// one-domain partition of the same engine. `workers` must equal
    /// `shape.workers()`, and `workers_per_rack`/`racks_per_agg` must be
    /// `None` — the shape already fixes the hierarchy.
    pub fattree: Option<FattreeShape>,
    /// Worker threads driving the engine's domains (more than one only on
    /// a `fattree`). Results are byte-identical for every value;
    /// threads > 1 only changes wall-clock time.
    pub threads: usize,
    /// Per-packet random loss probability on edge links (failure
    /// injection). iSwitch workers recover via `Help`/`FBcast`.
    pub edge_loss: f64,
    /// Wire policy of every worker: reliability and congestion reaction.
    /// The default, [`TransportKind::GoBack`], recovers a lost round by
    /// timeout (`Help`/`FBcast` under iSwitch) and never throttles.
    pub transport: TransportKind,
    /// `Some(q)` installs a bounded egress queue (tail-drop + ECN marking)
    /// on every edge and uplink direction. `None`, the default, gives every
    /// link direction an unbounded FIFO: nothing is dropped or marked.
    pub queue: Option<EgressQueue>,
    /// Incast workload: zeroes compute jitter so all workers flush their
    /// gradients into the switch simultaneously — the synchronized-burst
    /// pattern that loads egress queues hardest.
    pub incast: bool,
    /// Number of background cross-traffic sources sharing the switch
    /// (star topology only). Each blasts deterministic bursts at a
    /// dedicated sink host appended after the protocol hosts.
    pub background_flows: usize,
    /// Aggregation codec of the iSwitch strategies: how gradient values
    /// are laid out on the wire and summed inside the switch. The default,
    /// [`CodecKind::F32`], sends plain f32 values, which the switch adds in
    /// f32 in arrival order; the quantized codecs shrink contribution
    /// packets (and so serialization time) at a bounded precision cost.
    /// Ignored by the PS/AR baselines, which aggregate on hosts.
    pub codec: CodecKind,
    /// Host-aggregation fallback for the iSwitch strategies: a contribution
    /// denied an aggregation slot (per-tenant slot grant or buffer budget
    /// exhausted) completes its round through DRAM-resident host aggregation
    /// — numerically identical, but charged
    /// [`iswitch_core::HOST_PATH_LATENCY_FACTOR`]× the datapath latency —
    /// instead of being dropped for the transport to recover. Multi-tenant
    /// runs enable this; by default (`false`) such a contribution is
    /// dropped, and the transport recovers the round.
    pub host_fallback: bool,
    /// Seed for compute-time jitter.
    pub seed: u64,
    /// Fault windows on the workers' edge links, installed when the job is
    /// built (see [`crate::ChaosSchedule`]). `None` runs the network as
    /// configured.
    pub faults: Option<Faults>,
    /// A deliberately broken protocol path, for showing that the chaos
    /// invariants trip. Never set outside fault-injection tests.
    pub bug: Option<SeededBug>,
    /// Synthetic payloads or live replicas.
    pub fidelity: Fidelity,
    /// A tenant's reset churn will be installed on the built job: switch
    /// state can disappear with no lossy link configured, so
    /// [`TimingConfig::lossy`] holds. Set by the tenancy layer, never by a
    /// user.
    pub(crate) faulted: bool,
}

impl TimingConfig {
    /// The paper's main-cluster setup: 4 workers on one switch, S = 3.
    pub fn main_cluster(algorithm: Algorithm, strategy: Strategy) -> Self {
        TimingConfig {
            algorithm,
            strategy,
            workers: 4,
            workers_per_rack: None,
            racks_per_agg: None,
            iterations: 30,
            warmup: 3,
            topo: TopologyConfig::default(),
            comm: CommCosts::default(),
            staleness_bound: 3,
            aggregation_mode: AggregationMode::OnTheFly,
            threshold_override: None,
            fattree: None,
            threads: 1,
            edge_loss: 0.0,
            transport: TransportKind::GoBack,
            queue: None,
            incast: false,
            background_flows: 0,
            codec: CodecKind::F32,
            host_fallback: false,
            seed: 0x5117c4,
            faults: None,
            bug: None,
            fidelity: Fidelity::Timing,
            faulted: false,
        }
    }

    /// The paper-style incast setup: `workers` hosts on one switch with
    /// shallow egress queues, zero compute jitter (all flushes collide),
    /// and the given transport handling the fallout.
    pub fn incast(algorithm: Algorithm, strategy: Strategy, transport: TransportKind) -> Self {
        let mut cfg = TimingConfig::main_cluster(algorithm, strategy);
        cfg.incast = true;
        cfg.queue = Some(EgressQueue::shallow());
        cfg.transport = transport;
        cfg
    }

    /// The chaos cell: 3 workers on one switch measuring all of 10
    /// iterations (no warmup) under the fault schedule drawn from
    /// `chaos_seed`. The iSwitch strategies run live replicas, so the
    /// conservation invariant can check the values they aggregate.
    pub fn chaos(algorithm: Algorithm, strategy: Strategy, chaos_seed: u64) -> Self {
        let mut cfg = TimingConfig::main_cluster(algorithm, strategy);
        (cfg.workers, cfg.iterations, cfg.warmup, cfg.seed) = (3, 10, 0, 0xC4A05);
        cfg.faults = Some(Faults {
            chaos_seed,
            schedule: None,
        });
        if matches!(strategy, Strategy::SyncIsw | Strategy::AsyncIsw) {
            cfg.fidelity = Fidelity::Cosim {
                target_reward: None,
            };
        }
        cfg
    }

    /// The co-sim lite cell: 3 workers on one switch training the lite
    /// workload toward the algorithm's default target, for at most 6,000
    /// iterations (no warmup).
    pub fn cosim_lite(algorithm: Algorithm, strategy: Strategy) -> Self {
        let mut cfg = TimingConfig::main_cluster(algorithm, strategy);
        (cfg.workers, cfg.iterations, cfg.warmup, cfg.seed) = (3, 6_000, 0, 42);
        cfg.fidelity = Fidelity::Cosim {
            target_reward: Some(default_target(algorithm)),
        };
        cfg
    }

    /// Whether packets can disappear (random loss, a bounded queue that
    /// tail-drops, or injected faults), i.e. whether recovery timers and
    /// stale-round flushes must be armed. A fault schedule arms them for
    /// synchronous iSwitch only: the asynchronous pipeline has no
    /// retransmission path (its drawn schedules hold delay spikes only),
    /// and host-side strategies have no switch state to sweep.
    pub fn lossy(&self) -> bool {
        self.edge_loss > 0.0
            || self.queue.is_some()
            || self.faulted
            || (self.faults.is_some() && self.strategy == Strategy::SyncIsw)
    }

    /// The compute model for this run: per-algorithm calibration, with
    /// jitter zeroed under the incast workload.
    pub(crate) fn compute_model(&self) -> ComputeModel {
        let mut model = ComputeModel::for_algorithm(self.algorithm);
        if self.incast {
            model.jitter = 0.0;
        }
        model
    }

    /// The transport instance every worker of this run gets.
    pub(crate) fn make_transport(&self) -> Box<dyn crate::transport::Transport> {
        make_transport(self.transport, self.topo.edge.bandwidth_bps)
    }
}

/// Mean per-iteration breakdown (the paper's Fig. 4 / Fig. 12 spans).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Local gradient computing.
    pub compute: SimDuration,
    /// Gradient aggregation (network + in-switch/in-server summation).
    pub aggregation: SimDuration,
    /// Weight update.
    pub update: SimDuration,
}

impl Breakdown {
    /// Total iteration time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.aggregation + self.update
    }

    /// Fraction of the iteration spent in gradient aggregation.
    pub fn aggregation_share(&self) -> f64 {
        self.aggregation.as_secs_f64() / self.total().as_secs_f64()
    }
}

/// Result of one timing experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingResult {
    /// Mean per-iteration time (sync: worker iteration; async: interval
    /// between weight updates, the paper's §5.2 definition).
    pub per_iteration: SimDuration,
    /// Component breakdown (sync strategies only; async reports totals).
    pub breakdown: Breakdown,
    /// Staleness samples of committed gradients (async strategies).
    pub staleness: Vec<u32>,
    /// Fraction of pushed gradients discarded for exceeding the staleness
    /// bound (async PS only; iSwitch's bound check happens *before* the
    /// commit, so nothing is wasted on the wire).
    pub discard_fraction: f64,
    /// Iterations actually measured.
    pub iterations_measured: usize,
    /// Transport activity summed over all workers: recovery traffic
    /// (`Help`s, NACKs, retransmits) and congestion-control reactions
    /// (ECN echoes seen, rate cuts taken).
    #[serde(default)]
    pub transport: TransportStats,
}

impl TimingResult {
    /// Mean staleness, if async.
    pub fn mean_staleness(&self) -> Option<f64> {
        if self.staleness.is_empty() {
            None
        } else {
            Some(
                self.staleness.iter().map(|&s| s as f64).sum::<f64>() / self.staleness.len() as f64,
            )
        }
    }
}

/// Raw engine-side counters of one timing run, captured for the perfgate
/// fingerprints (`tests/perfgate.rs`) and the repo benchmark. All fields
/// are deterministic for a fixed [`TimingConfig`]: they come from the
/// seeded simulation, not the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Discrete events processed by the simulator.
    pub events: u64,
    /// Packets handed to links (includes packets dropped by loss/faults).
    pub packets_sent: u64,
    /// Packets delivered to a device callback.
    pub packets_delivered: u64,
    /// Final simulation clock in nanoseconds.
    pub sim_ns: u64,
    /// Packets ECN-CE marked by egress queues.
    #[serde(default)]
    pub ecn_marked: u64,
    /// Packets tail-dropped by full egress queues.
    #[serde(default)]
    pub dropped_queue: u64,
    /// Packets dropped on administratively-down links.
    #[serde(default)]
    pub dropped_link_down: u64,
    /// Simulated nanoseconds domains spent stalled at lookahead barriers
    /// (partitions with a cut; 0 otherwise).
    #[serde(default)]
    pub barrier_stall_ns: u64,
    /// Lookahead epochs executed (partitions with a cut; 0 otherwise).
    #[serde(default)]
    pub epochs: u64,
}

/// How the trace of an observed run is captured.
///
/// The default keeps every event in memory (fine for test-sized runs).
/// Long runs should bound the buffer and/or stream to a sink so memory
/// stays flat; the streaming sink sees every event even when the in-memory
/// buffer drops its oldest.
#[derive(Default)]
pub struct TraceOptions {
    /// Maximum events retained in memory (`None` = unbounded). Overflow
    /// evicts the oldest event and bumps the trace's `dropped` counter.
    pub capacity: Option<usize>,
    /// Streaming JSONL sink receiving every event as it is recorded.
    pub stream: Option<Box<dyn Write + Send>>,
    /// Counter-track telemetry sink. When set, the engine samples per-link
    /// queue/ECN/drop tracks on the sink's cadence, the sharded engine adds
    /// per-domain epoch tracks, and workers/switches add transport and
    /// codec tracks (see `iswitch_obs::timeseries`). `None` = no sampling,
    /// zero overhead.
    pub timeseries: Option<Arc<Timeseries>>,
}

/// Machine-readable capture of one timing run: the summary result plus the
/// simulation's full metrics snapshot and the causal trace — run/worker
/// metadata, per-hop packet lifecycle events, worker phase spans
/// (LGC = local gradient computing, GA = gradient aggregation, LWU = local
/// weight update — the paper's Fig. 11 decomposition), switch aggregation
/// windows, and one `iteration`/`update` summary event per iteration.
pub struct TimingObservation {
    /// The summary [`run_timing`] would have returned.
    pub result: TimingResult,
    /// Engine + per-switch metrics snapshot
    /// ([`iswitch_netsim::Simulator::metrics_json`]): link backlog
    /// histograms, queue depths, aggregation latencies, Help/flush counters.
    pub metrics: JsonValue,
    /// The causal trace. Export with [`Trace::to_jsonl`]; events appear in
    /// record order, not sorted by timestamp.
    pub trace: Arc<Trace>,
    /// The counter-track telemetry captured during the run, when
    /// [`TraceOptions::timeseries`] supplied a sink.
    pub timeseries: Option<Arc<Timeseries>>,
}

impl TimingObservation {
    /// Renders the whole observation (minus the trace, which is a separate
    /// JSONL artifact) as one deterministic JSON document.
    pub fn report_json(&self) -> JsonValue {
        let b = &self.result.breakdown;
        let mut stages = JsonValue::empty_object();
        stages.insert("lgc_ns", JsonValue::UInt(b.compute.as_nanos()));
        stages.insert("ga_ns", JsonValue::UInt(b.aggregation.as_nanos()));
        stages.insert("lwu_ns", JsonValue::UInt(b.update.as_nanos()));
        let mut summary = JsonValue::empty_object();
        summary.insert(
            "per_iteration_ns",
            JsonValue::UInt(self.result.per_iteration.as_nanos()),
        );
        summary.insert(
            "iterations_measured",
            JsonValue::UInt(self.result.iterations_measured as u64),
        );
        summary.insert(
            "aggregation_share",
            JsonValue::Float(self.result.breakdown.aggregation_share()),
        );
        summary.insert(
            "discard_fraction",
            JsonValue::Float(self.result.discard_fraction),
        );
        if let Some(s) = self.result.mean_staleness() {
            summary.insert("mean_staleness", JsonValue::Float(s));
        }
        let t = &self.result.transport;
        let mut transport = JsonValue::empty_object();
        transport.insert("help_requests", JsonValue::UInt(t.help_requests));
        transport.insert("nacks_sent", JsonValue::UInt(t.nacks_sent));
        transport.insert("retransmits", JsonValue::UInt(t.retransmits));
        transport.insert("ecn_echoes", JsonValue::UInt(t.ecn_echoes));
        transport.insert("rate_cuts", JsonValue::UInt(t.rate_cuts));
        let mut trace_stats = JsonValue::empty_object();
        trace_stats.insert("recorded", JsonValue::UInt(self.trace.recorded()));
        trace_stats.insert("dropped", JsonValue::UInt(self.trace.dropped()));
        trace_stats.insert("write_errors", JsonValue::UInt(self.trace.write_errors()));
        let mut root = JsonValue::empty_object();
        root.insert("summary", summary);
        root.insert("stages", stages);
        root.insert("transport", transport);
        root.insert("trace", trace_stats);
        if let Some(ts) = &self.timeseries {
            let mut series = JsonValue::empty_object();
            series.insert("interval_ns", JsonValue::UInt(ts.interval_ns()));
            series.insert("tracks", JsonValue::UInt(ts.track_count() as u64));
            series.insert("samples", JsonValue::UInt(ts.sample_count()));
            root.insert("timeseries", series);
        }
        root.insert("metrics", self.metrics.clone());
        root
    }
}

/// Runs one timing experiment.
///
/// # Panics
///
/// Panics on configurations no strategy can run: fewer than two workers,
/// zero iterations, background flows off the star, edge loss on a strategy
/// other than [`Strategy::SyncIsw`], or a fat-tree shape that disagrees
/// with the worker count — and on a run that stalls: one that goes idle
/// before a measured iteration, or still owes rounds and finishes none for
/// 5 s of simulated time.
pub fn run_timing(cfg: &TimingConfig) -> TimingResult {
    run_timing_perf(cfg).0
}

/// Runs one timing experiment and captures its full observability export
/// (metrics snapshot + per-iteration stage trace) alongside the summary.
///
/// # Panics
///
/// Panics on the configurations [`run_timing`] rejects.
pub fn run_timing_observed(cfg: &TimingConfig) -> TimingObservation {
    run_timing_observed_with(cfg, TraceOptions::default())
}

/// Like [`run_timing_observed`] with explicit control over trace capture:
/// bound the in-memory buffer and/or stream every event to a JSONL sink.
///
/// # Panics
///
/// Panics on the configurations [`run_timing`] rejects.
pub fn run_timing_observed_with(cfg: &TimingConfig, opts: TraceOptions) -> TimingObservation {
    let mut trace = match opts.capacity {
        Some(cap) => Trace::bounded(cap),
        None => Trace::new(),
    };
    if let Some(sink) = opts.stream {
        trace = trace.with_writer(sink);
    }
    let capture = Capture {
        trace: Some(Arc::new(trace)),
        timeseries: opts.timeseries,
    };
    run(cfg, capture).0
}

/// Runs one timing experiment and returns the engine's raw event/packet
/// counters alongside the summary, with **no tracing attached**: the packet
/// hot path runs exactly as in [`run_timing`]. The perfgate test
/// (`tests/perfgate.rs`) fingerprints the counters; the repo benchmark
/// times the call (its recorded baseline is in `benchmark/README.md`).
///
/// # Panics
///
/// Panics on the configurations [`run_timing`] rejects.
pub fn run_timing_perf(cfg: &TimingConfig) -> (TimingResult, PerfSample) {
    let (observation, perf) = run(cfg, Capture::default());
    (observation.result, perf)
}

/// The solo lifecycle: build (which validates), drive to completion,
/// collect. A job the drive gives up on is refused by panicking with the
/// stall.
fn run(cfg: &TimingConfig, capture: Capture) -> (TimingObservation, PerfSample) {
    let mut job = build(cfg, 0, capture);
    if let Err(stall) = job.run_until(|_| false) {
        panic!("{} job stalled: {stall}", cfg.strategy.label());
    }
    job.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::rack_sizes;

    fn quick(alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let mut cfg = TimingConfig::main_cluster(alg, strategy);
        cfg.iterations = 8;
        cfg.warmup = 2;
        cfg
    }

    #[test]
    fn sync_isw_beats_ps_on_every_benchmark() {
        for alg in Algorithm::ALL {
            let ps = run_timing(&quick(alg, Strategy::SyncPs));
            let isw = run_timing(&quick(alg, Strategy::SyncIsw));
            assert!(
                isw.per_iteration < ps.per_iteration,
                "{alg}: iSW {} !< PS {}",
                isw.per_iteration,
                ps.per_iteration
            );
        }
    }

    #[test]
    fn ar_beats_ps_on_big_models_but_loses_on_small() {
        let ar_dqn = run_timing(&quick(Algorithm::Dqn, Strategy::SyncAr));
        let ps_dqn = run_timing(&quick(Algorithm::Dqn, Strategy::SyncPs));
        assert!(
            ar_dqn.per_iteration < ps_dqn.per_iteration,
            "AR should win on DQN"
        );

        let ar_ppo = run_timing(&quick(Algorithm::Ppo, Strategy::SyncAr));
        let ps_ppo = run_timing(&quick(Algorithm::Ppo, Strategy::SyncPs));
        assert!(
            ar_ppo.per_iteration > ps_ppo.per_iteration,
            "AR should lose on PPO: AR {} vs PS {}",
            ar_ppo.per_iteration,
            ps_ppo.per_iteration
        );
    }

    #[test]
    fn sync_ps_dqn_matches_calibration_anchor() {
        // Table 4: DQN Sync-PS ≈ 81.6 ms/iteration. The simulator should
        // land within 35% of the anchor without per-strategy tuning.
        let r = run_timing(&quick(Algorithm::Dqn, Strategy::SyncPs));
        let ms = r.per_iteration.as_millis_f64();
        assert!(
            (50.0..115.0).contains(&ms),
            "DQN PS per-iteration {ms:.1} ms"
        );
        // Aggregation dominates (Fig. 4).
        assert!(r.breakdown.aggregation_share() > 0.5);
    }

    #[test]
    fn async_isw_updates_faster_than_async_ps_on_dqn() {
        let ps = run_timing(&quick(Algorithm::Dqn, Strategy::AsyncPs));
        let isw = run_timing(&quick(Algorithm::Dqn, Strategy::AsyncIsw));
        assert!(
            isw.per_iteration < ps.per_iteration,
            "async iSW {} !< async PS {}",
            isw.per_iteration,
            ps.per_iteration
        );
    }

    #[test]
    fn async_staleness_respects_bound() {
        let r = run_timing(&quick(Algorithm::Ppo, Strategy::AsyncIsw));
        assert!(!r.staleness.is_empty());
        assert!(
            r.staleness.iter().all(|&s| s <= 3),
            "bound violated: {:?}",
            r.staleness
        );
        let r = run_timing(&quick(Algorithm::Ppo, Strategy::AsyncPs));
        assert!(r.staleness.iter().all(|&s| s <= 3));
    }

    #[test]
    fn tree_topology_runs_all_strategies() {
        for strategy in ALL_STRATEGIES {
            let mut cfg = quick(Algorithm::Ppo, strategy);
            cfg.workers = 6;
            cfg.workers_per_rack = Some(3);
            let r = run_timing(&cfg);
            assert!(r.per_iteration > SimDuration::ZERO, "{strategy:?}");
        }
    }

    #[test]
    fn on_the_fly_beats_store_and_forward() {
        // The in-system version of Fig. 8: conventional aggregation delays
        // the whole result behind the final arrival plus a full summation.
        // Every switch of a hierarchy takes the mode, so it holds on a
        // two-level tree of racks of two as on the star.
        let star = quick(Algorithm::A2c, Strategy::SyncIsw);
        let mut tree = star.clone();
        (tree.workers, tree.workers_per_rack) = (8, Some(2));
        for mut cfg in [star, tree] {
            let otf = run_timing(&cfg);
            cfg.aggregation_mode = AggregationMode::StoreAndForward;
            let saf = run_timing(&cfg);
            assert!(
                otf.breakdown.aggregation < saf.breakdown.aggregation,
                "{:?} per rack: on-the-fly {} !< store-and-forward {}",
                cfg.workers_per_rack,
                otf.breakdown.aggregation,
                saf.breakdown.aggregation
            );
        }
    }

    #[test]
    fn lower_threshold_shortens_async_update_interval() {
        // SetH partial aggregation: H=2 broadcasts after two contributions,
        // so updates land more often than with H=4.
        let mut cfg = quick(Algorithm::Ppo, Strategy::AsyncIsw);
        cfg.threshold_override = Some(2);
        let h2 = run_timing(&cfg);
        cfg.threshold_override = Some(4);
        let h4 = run_timing(&cfg);
        assert!(
            h2.per_iteration < h4.per_iteration,
            "H=2 {} !< H=4 {}",
            h2.per_iteration,
            h4.per_iteration
        );
    }

    #[test]
    fn tight_staleness_bound_forces_discards_on_async_ps() {
        // With S = 0 every gradient computed while another update landed
        // is discarded; with 4 overlapping workers that is most of them.
        let mut cfg = quick(Algorithm::Ppo, Strategy::AsyncPs);
        cfg.staleness_bound = 0;
        let r = run_timing(&cfg);
        assert!(r.staleness.iter().all(|&s| s == 0));
        assert!(
            r.discard_fraction > 0.2,
            "expected heavy discards at S=0, got {:.2}",
            r.discard_fraction
        );

        let mut loose = quick(Algorithm::Ppo, Strategy::AsyncPs);
        loose.staleness_bound = 8;
        let l = run_timing(&loose);
        assert!(l.discard_fraction < r.discard_fraction);
    }

    #[test]
    fn sync_isw_survives_packet_loss() {
        // Failure injection: with Help/FBcast recovery the run completes
        // every iteration, paying a bounded latency overhead.
        let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.edge_loss = 1e-3;
        let lossy = run_timing(&cfg);
        cfg.edge_loss = 0.0;
        let clean = run_timing(&cfg);
        assert_eq!(lossy.iterations_measured, clean.iterations_measured);
        assert!(
            lossy.per_iteration >= clean.per_iteration,
            "loss cannot make iterations faster"
        );
        // Recovery is bounded: even at 1e-3 loss the overhead stays small.
        assert!(
            lossy.per_iteration.as_secs_f64() < 4.0 * clean.per_iteration.as_secs_f64(),
            "recovery overhead too large: {} vs {}",
            lossy.per_iteration,
            clean.per_iteration
        );
    }

    #[test]
    fn three_level_hierarchy_runs_and_stays_close_to_two_level() {
        // 12 workers: 4 racks of 3 under the core (two-level) vs the same
        // racks grouped 2-per-AGG (three-level). One extra switch level
        // costs a couple of hops, not an iteration.
        let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.workers = 12;
        cfg.workers_per_rack = Some(3);
        let two = run_timing(&cfg);
        cfg.racks_per_agg = Some(2);
        let three = run_timing(&cfg);
        assert!(three.per_iteration >= two.per_iteration);
        assert!(
            three.per_iteration.as_secs_f64() < 1.2 * two.per_iteration.as_secs_f64(),
            "an extra level should cost hops, not iterations: {} vs {}",
            three.per_iteration,
            two.per_iteration
        );
    }

    #[test]
    fn every_strategy_on_the_fattree_is_thread_count_invariant() {
        // One engine behind every job: all five strategies run on the cut
        // partition, and the full observability export (summary + merged
        // metrics + merged trace) is byte-identical run-twice and no
        // matter how many threads executed the run.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        for strategy in ALL_STRATEGIES {
            let mut cfg = quick(Algorithm::Ppo, strategy);
            cfg.workers = shape.workers();
            cfg.fattree = Some(shape);
            let export = |threads: usize| {
                let mut cfg = cfg.clone();
                cfg.threads = threads;
                let obs = run_timing_observed(&cfg);
                assert!(obs.result.per_iteration > SimDuration::ZERO, "{strategy:?}");
                (obs.report_json().render(), obs.trace.to_jsonl())
            };
            let base = export(1);
            assert!(base.0.contains("\"domains\":3"), "{strategy:?}: not cut");
            assert_eq!(base, export(1), "{strategy:?}: run-twice differs");
            assert_eq!(base, export(2), "{strategy:?}: threads=1 vs threads=2");
            assert_eq!(base, export(4), "{strategy:?}: threads=1 vs threads=4");
        }
    }

    #[test]
    fn fattree_matches_the_uncut_hierarchy_iteration_scale() {
        // Same hierarchy, different partition: the fat-tree only lengthens
        // the AGG↔Core fibre (5 µs vs 1 µs propagation), so per-iteration
        // time must sit within 10 % of the same racks in one domain — the
        // three-level tree for iSW, the two-level tree host-side strategies
        // have always run on (which also saves them a switch hop) for PS
        // and AR.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 3,
        };
        for strategy in [Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw] {
            let mut cut = quick(Algorithm::Ppo, strategy);
            cut.workers = shape.workers();
            cut.fattree = Some(shape);
            let s = run_timing(&cut);

            let mut whole = quick(Algorithm::Ppo, strategy);
            whole.workers = shape.workers();
            whole.workers_per_rack = Some(shape.hosts_per_rack);
            whole.racks_per_agg = Some(shape.racks_per_agg);
            let t = run_timing(&whole);

            let ratio = s.per_iteration.as_secs_f64() / t.per_iteration.as_secs_f64();
            assert!(
                (1.0..1.10).contains(&ratio),
                "{strategy:?}: fat-tree {} vs uncut {} (ratio {ratio:.3})",
                s.per_iteration,
                t.per_iteration
            );
            assert_eq!(s.iterations_measured, t.iterations_measured, "{strategy:?}");
        }
        // One deployment rule: every level of every hierarchy of a lossy
        // run sweeps stale rounds, so a round whose every copy from one
        // rack was lost finishes on the uncut trees as on the fat-tree.
        for seed in 1..=4 {
            let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
            (cfg.workers, cfg.edge_loss, cfg.seed) = (shape.workers(), 0.05, seed);
            cfg.workers_per_rack = Some(shape.hosts_per_rack);
            let two = run_timing(&cfg);
            cfg.racks_per_agg = Some(shape.racks_per_agg);
            let three = run_timing(&cfg);
            (cfg.workers_per_rack, cfg.racks_per_agg) = (None, None);
            cfg.fattree = Some(shape);
            let cut = run_timing(&cfg);
            let all = cfg.workers * cfg.iterations;
            for r in [two, three, cut] {
                assert_eq!(r.iterations_measured, all, "seed {seed}");
            }
        }
    }

    const ALL_STRATEGIES: [Strategy; 5] = [
        Strategy::SyncPs,
        Strategy::SyncAr,
        Strategy::SyncIsw,
        Strategy::AsyncPs,
        Strategy::AsyncIsw,
    ];

    fn panic_message(cfg: &TimingConfig) -> Option<String> {
        let err = std::panic::catch_unwind(|| run_timing(cfg)).err()?;
        let text = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()));
        Some(text.unwrap_or_default())
    }

    #[test]
    fn edge_loss_is_rejected_without_a_recovery_path() {
        // Only SyncIsw recovers lost packets (Help/FBcast); every other
        // strategy must refuse the knob instead of silently running
        // lossless, and the message must name the offender.
        for strategy in ALL_STRATEGIES {
            let mut cfg = quick(Algorithm::Ppo, strategy);
            cfg.edge_loss = 0.01;
            match (strategy, panic_message(&cfg)) {
                (Strategy::SyncIsw, None) => {}
                (Strategy::SyncIsw, Some(msg)) => panic!("iSW must honour edge loss: {msg}"),
                (_, Some(msg)) => assert!(
                    msg.contains("edge loss") && msg.contains(strategy.label()),
                    "{strategy:?}: {msg}"
                ),
                (_, None) => panic!("{strategy:?} accepted edge loss it cannot recover from"),
            }
        }
    }

    #[test]
    fn rack_sizes_splits_evenly() {
        assert_eq!(rack_sizes(12, 3), vec![3, 3, 3, 3]);
        assert_eq!(rack_sizes(7, 3), vec![3, 3, 1]);
        assert_eq!(rack_sizes(2, 3), vec![2]);
    }

    #[test]
    fn incast_completes_under_every_transport() {
        // The incast workload (zero jitter, shallow egress queues) must
        // finish every iteration under each reliability scheme, and each
        // run must be deterministic: the same config twice yields a
        // byte-identical performance sample.
        for kind in TransportKind::ALL {
            let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, kind);
            cfg.iterations = 4;
            cfg.warmup = 1;
            let (result, perf) = run_timing_perf(&cfg);
            assert!(
                result.per_iteration > SimDuration::ZERO,
                "{kind}: incast round never completed"
            );
            assert_eq!(
                result.iterations_measured,
                cfg.iterations * cfg.workers,
                "{kind}: lost iterations under incast"
            );
            let (_, perf2) = run_timing_perf(&cfg);
            assert_eq!(perf, perf2, "{kind}: incast run is not deterministic");
        }
    }

    #[test]
    fn ecn_marks_fire_under_incast_queues() {
        // H workers flushing simultaneously into one shallow egress queue
        // must push occupancy past the ECN threshold: the switch echoes CE
        // marks onto the result path and DCQCN's rate controller reacts.
        let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, TransportKind::Dcqcn);
        cfg.iterations = 4;
        cfg.warmup = 1;
        let r = run_timing(&cfg);
        assert!(
            r.transport.ecn_echoes > 0,
            "incast onto a shallow queue should produce CE echoes"
        );
        assert!(
            r.transport.rate_cuts > 0,
            "DCQCN must cut its rate on CE echoes"
        );
    }

    #[test]
    fn background_flows_share_links_without_breaking_aggregation() {
        // Cross traffic loads the shared egress links but must never be
        // counted toward the aggregation threshold; the protocol still
        // completes every iteration, only slower (or equal) than unloaded.
        let mut clean = quick(Algorithm::Ppo, Strategy::SyncIsw);
        clean.iterations = 4;
        clean.warmup = 1;
        let unloaded = run_timing(&clean);

        let mut cfg = clean.clone();
        cfg.background_flows = 2;
        let loaded = run_timing(&cfg);
        assert_eq!(loaded.iterations_measured, unloaded.iterations_measured);
        assert!(
            loaded.per_iteration >= unloaded.per_iteration,
            "cross traffic cannot speed the protocol up: {} < {}",
            loaded.per_iteration,
            unloaded.per_iteration
        );
    }

    #[test]
    fn incast_is_thread_count_invariant() {
        // The sharded engine with egress queues: occupancy is computed
        // from sender-side backlog, so the incast workload must stay
        // byte-identical across worker thread counts.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        for kind in TransportKind::ALL {
            let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, kind);
            cfg.workers = shape.workers();
            cfg.fattree = Some(shape);
            cfg.iterations = 3;
            cfg.warmup = 1;
            let mut samples = Vec::new();
            for threads in [1, 2, 4] {
                cfg.threads = threads;
                samples.push(run_timing_perf(&cfg).1);
            }
            assert_eq!(samples[0], samples[1], "{kind}: threads=1 vs threads=2");
            assert_eq!(samples[0], samples[2], "{kind}: threads=1 vs threads=4");
        }
    }
}
