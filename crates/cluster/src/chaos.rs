//! Chaos harness: seeded random fault schedules driven through the
//! fault-injection subsystem, with protocol invariants checked over the
//! recorded run.
//!
//! A [`ChaosSchedule`] is a worker-indexed list of timed fault windows —
//! edge-link outages, loss-rate windows, latency spikes. [`run_chaos`]
//! resolves it against the built topology into a netsim
//! [`FaultPlan`](iswitch_netsim::FaultPlan), runs the strategy under it,
//! and then checks:
//!
//! * **I1 gradient conservation** (`SyncIsw`, value-level): every segment
//!   of every aggregate a worker applied for round `r` equals the mean of
//!   some non-empty subset of the workers' round-`r` gradients over that
//!   segment, each worker counted at most once. (Per segment, because the
//!   accelerator aggregates — and partially flushes — at segment
//!   granularity; different segments of one round may complete with
//!   different contributor subsets.) Partial flushes pass; double-counted
//!   retransmissions fail.
//! * **I2 sync barrier**: every synchronous worker completes exactly the
//!   configured number of iterations — faults cost latency, not rounds.
//! * **I3 staleness bound**: no asynchronous gradient commits at staleness
//!   above `S`.
//! * **I4 update consistency** (`SyncIsw`): each worker applies exactly one
//!   aggregate per completed iteration — none lost, none duplicated.
//! * **I5 determinism**: the rendered [`ChaosReport`] is a pure function
//!   of the config — two runs with the same seeds are byte-identical
//!   (asserted by callers comparing two runs' reports).
//! * **I6 cross-tenant isolation** ([`run_chaos_isolation`]): a tenant
//!   whose guaranteed quota covers its demand produces artifacts (metrics
//!   report and causal trace) byte-identical to the same job on a
//!   dedicated fabric, no matter what a co-tenant does — including a
//!   co-tenant running the seeded slot-leak bug that soaks the
//!   best-effort slot pool. Checked both ways: the harness must also
//!   *trip* when the victim's quota is removed and the leak squeezes its
//!   grant below its concurrency peak.
//!
//! Schedules are strategy-aware: only the synchronous iSwitch strategy has
//! the paper's `Help`/`FBcast` loss recovery, so only its schedule draws
//! link-down and loss windows; the other strategies (and the async
//! pipeline, which has no retransmission path) get latency spikes, which
//! every protocol must absorb.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

use iswitch_core::CodecKind;
use iswitch_netsim::{FaultAction, LinkId, LossModel, SimDuration, SimTime};
use iswitch_obs::{JsonValue, Trace};
use iswitch_rl::Algorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apps::IswSyncWorker;
use crate::gradient_source::{live_replicas, GradientSource};
use crate::lifecycle::{build, Capture, Job};
use crate::tenancy::{run_multi_tenant, MultiJobConfig, TenantSpec};
use crate::timing_runner::{Strategy, TimingConfig};
use crate::transport::TransportKind;

/// One timed fault window targeting a worker's access link.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// The worker's edge link goes down for `duration` (host
    /// crash/partition); every packet in either direction is dropped.
    EdgeDown {
        /// Worker index.
        worker: usize,
        /// Window start.
        at: SimDuration,
        /// Window length.
        duration: SimDuration,
    },
    /// The worker's edge link drops packets with `probability` for
    /// `duration`.
    EdgeLoss {
        /// Worker index.
        worker: usize,
        /// Window start.
        at: SimDuration,
        /// Window length.
        duration: SimDuration,
        /// Per-packet drop probability inside the window.
        probability: f64,
    },
    /// The worker's edge link gains `extra` one-way delay for `duration`.
    DelaySpike {
        /// Worker index.
        worker: usize,
        /// Window start.
        at: SimDuration,
        /// Window length.
        duration: SimDuration,
        /// Extra per-packet delay inside the window.
        extra: SimDuration,
    },
}

impl ChaosFault {
    fn worker(&self) -> usize {
        match *self {
            ChaosFault::EdgeDown { worker, .. }
            | ChaosFault::EdgeLoss { worker, .. }
            | ChaosFault::DelaySpike { worker, .. } => worker,
        }
    }
}

/// A worker-indexed fault schedule — the user-facing form of a fault plan,
/// resolved to concrete link ids only after the topology is built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSchedule {
    /// Fault windows, applied in order of their start times.
    pub faults: Vec<ChaosFault>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Serializes the schedule as a deterministic JSON document:
    ///
    /// ```json
    /// {"faults":[
    ///   {"kind":"edge_down","worker":0,"at_ns":1000,"duration_ns":500},
    ///   {"kind":"edge_loss","worker":1,"at_ns":2000,"duration_ns":500,
    ///    "probability":0.5},
    ///   {"kind":"delay_spike","worker":2,"at_ns":3000,"duration_ns":500,
    ///    "extra_ns":100}
    /// ]}
    /// ```
    pub fn to_json(&self) -> JsonValue {
        let faults = self
            .faults
            .iter()
            .map(|f| {
                let mut o = JsonValue::empty_object();
                match *f {
                    ChaosFault::EdgeDown {
                        worker,
                        at,
                        duration,
                    } => {
                        o.insert("kind", JsonValue::Str("edge_down".into()));
                        o.insert("worker", JsonValue::UInt(worker as u64));
                        o.insert("at_ns", JsonValue::UInt(at.as_nanos()));
                        o.insert("duration_ns", JsonValue::UInt(duration.as_nanos()));
                    }
                    ChaosFault::EdgeLoss {
                        worker,
                        at,
                        duration,
                        probability,
                    } => {
                        o.insert("kind", JsonValue::Str("edge_loss".into()));
                        o.insert("worker", JsonValue::UInt(worker as u64));
                        o.insert("at_ns", JsonValue::UInt(at.as_nanos()));
                        o.insert("duration_ns", JsonValue::UInt(duration.as_nanos()));
                        o.insert("probability", JsonValue::Float(probability));
                    }
                    ChaosFault::DelaySpike {
                        worker,
                        at,
                        duration,
                        extra,
                    } => {
                        o.insert("kind", JsonValue::Str("delay_spike".into()));
                        o.insert("worker", JsonValue::UInt(worker as u64));
                        o.insert("at_ns", JsonValue::UInt(at.as_nanos()));
                        o.insert("duration_ns", JsonValue::UInt(duration.as_nanos()));
                        o.insert("extra_ns", JsonValue::UInt(extra.as_nanos()));
                    }
                }
                o
            })
            .collect();
        let mut root = JsonValue::empty_object();
        root.insert("faults", JsonValue::Array(faults));
        root
    }

    /// Parses a schedule from the JSON produced by
    /// [`ChaosSchedule::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error string on malformed JSON or unknown/incomplete
    /// fault kinds.
    pub fn from_json(text: &str) -> Result<ChaosSchedule, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let faults = doc
            .get("faults")
            .and_then(JsonValue::as_array)
            .ok_or("chaos schedule needs a \"faults\" array")?;
        let mut out = ChaosSchedule::new();
        for (i, f) in faults.iter().enumerate() {
            let field = |name: &str| -> Result<u64, String> {
                f.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("fault {i}: missing {name:?}"))
            };
            let worker = field("worker")? as usize;
            let at = SimDuration::from_nanos(field("at_ns")?);
            let duration = SimDuration::from_nanos(field("duration_ns")?);
            let fault = match f.get("kind").and_then(JsonValue::as_str) {
                Some("edge_down") => ChaosFault::EdgeDown {
                    worker,
                    at,
                    duration,
                },
                Some("edge_loss") => ChaosFault::EdgeLoss {
                    worker,
                    at,
                    duration,
                    probability: f
                        .get("probability")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("fault {i}: missing \"probability\""))?,
                },
                Some("delay_spike") => ChaosFault::DelaySpike {
                    worker,
                    at,
                    duration,
                    extra: SimDuration::from_nanos(field("extra_ns")?),
                },
                other => return Err(format!("fault {i}: unknown kind {other:?}")),
            };
            out.faults.push(fault);
        }
        Ok(out)
    }

    /// Resolves worker indices to their edge links, producing the
    /// engine-level faults as `(domain, time, action)`. Each window becomes
    /// an apply/restore action pair (`duration_ns` of `u64::MAX` is a window
    /// that never closes: apply only).
    fn resolve(
        &self,
        worker_links: &[(usize, LinkId)],
        loss_seed: u64,
    ) -> Vec<(usize, SimTime, FaultAction)> {
        let mut plan = Vec::new();
        for (i, f) in self.faults.iter().enumerate() {
            let (domain, link) = worker_links[f.worker()];
            let (at, duration, apply, restore) = match *f {
                ChaosFault::EdgeDown { at, duration, .. } => (
                    at,
                    duration,
                    FaultAction::LinkDown { link },
                    FaultAction::LinkUp { link },
                ),
                ChaosFault::EdgeLoss {
                    at,
                    duration,
                    probability,
                    ..
                } => {
                    let seed = loss_seed.wrapping_add(i as u64);
                    let loss = LossModel::Random { probability, seed };
                    let clear = LossModel::None;
                    (
                        at,
                        duration,
                        FaultAction::SetLinkLoss { link, loss },
                        FaultAction::SetLinkLoss { link, loss: clear },
                    )
                }
                ChaosFault::DelaySpike {
                    at,
                    duration,
                    extra,
                    ..
                } => (
                    at,
                    duration,
                    FaultAction::DelaySpike { link, extra },
                    FaultAction::ClearDelaySpike { link },
                ),
            };
            plan.push((domain, SimTime::ZERO + at, apply));
            // A window whose end overflows the clock never closes: a
            // permanent fault, with no restore for the stall rule to wait on.
            if let Some(end) = at.as_nanos().checked_add(duration.as_nanos()) {
                plan.push((domain, SimTime::from_nanos(end), restore));
            }
        }
        plan
    }
}

/// Generates the seeded random schedule for one strategy: a pure function
/// of `(strategy, workers, horizon, chaos_seed)`. Only `SyncIsw` draws
/// outage and loss windows (it has the paper's recovery machinery); every
/// other strategy gets latency spikes.
pub fn generate_schedule(
    strategy: Strategy,
    workers: usize,
    horizon: SimDuration,
    chaos_seed: u64,
) -> ChaosSchedule {
    assert!(workers > 0, "need at least one worker to torment");
    let mut rng = StdRng::seed_from_u64(chaos_seed ^ 0xC4A0_5EED);
    let span = horizon.as_nanos().max(1_000_000);
    let n_faults = rng.gen_range(4..7);
    let mut schedule = ChaosSchedule::new();
    for _ in 0..n_faults {
        let worker = rng.gen_range(0..workers);
        let at = SimDuration::from_nanos(rng.gen_range(span / 20..span / 2));
        let duration = SimDuration::from_nanos(rng.gen_range(span / 100..span / 10));
        let spike = |rng: &mut StdRng| SimDuration::from_micros(rng.gen_range(50..2_000));
        let fault = if strategy == Strategy::SyncIsw {
            match rng.gen_range(0..3u32) {
                0 => ChaosFault::EdgeDown {
                    worker,
                    at,
                    duration,
                },
                1 => ChaosFault::EdgeLoss {
                    worker,
                    at,
                    duration,
                    probability: rng.gen_range(0.2..0.8),
                },
                _ => ChaosFault::DelaySpike {
                    worker,
                    at,
                    duration,
                    extra: spike(&mut rng),
                },
            }
        } else {
            ChaosFault::DelaySpike {
                worker,
                at,
                duration,
                extra: spike(&mut rng),
            }
        };
        schedule.faults.push(fault);
    }
    schedule.faults.sort_by_key(|f| match *f {
        ChaosFault::EdgeDown { at, .. }
        | ChaosFault::EdgeLoss { at, .. }
        | ChaosFault::DelaySpike { at, .. } => at,
    });
    schedule
}

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Benchmark algorithm (fixes the model and compute costs).
    pub algorithm: Algorithm,
    /// Strategy under test — any of the five.
    pub strategy: Strategy,
    /// Number of workers.
    pub workers: usize,
    /// Iteration budget (sync: iterations per worker; async: weight
    /// updates observed at the probe).
    pub iterations: usize,
    /// Staleness bound `S` for asynchronous strategies.
    pub staleness_bound: u32,
    /// Base seed for agents and timing jitter.
    pub seed: u64,
    /// Seed driving the generated fault schedule (and any loss-window
    /// RNGs).
    pub chaos_seed: u64,
    /// Horizon the generated schedule spreads its windows over.
    pub horizon: SimDuration,
    /// Explicit schedule; `None` generates one from `chaos_seed`.
    pub schedule: Option<ChaosSchedule>,
    /// Wire policy every worker runs under the fault schedule. The
    /// invariants are transport-independent: I1–I5 must hold whether
    /// recovery is switch-assisted (`GoBack`), NACK-driven (`Nack`), or
    /// rate-controlled (`Dcqcn`).
    pub transport: TransportKind,
    /// **Deliberately broken** recovery for the harness self-test: the
    /// transport's seeded protocol bug (go-back re-pushes the whole
    /// gradient on retry instead of sending `Help`; NACK re-pushes the
    /// whole train on a gap — a NACK storm). Either way the
    /// packet-counting accelerator double-counts, so the conservation
    /// invariant must trip.
    pub naive_retransmit: bool,
    /// Aggregation codec workers and switches run (see
    /// [`TimingConfig::codec`]). The conservation invariant widens its
    /// tolerance by the codec's quantization error bound, so quantized
    /// codecs pass I1 honestly rather than by luck.
    pub codec: CodecKind,
    /// **Deliberately broken** fixed-point encoding for the harness
    /// self-test: mantissas are scaled with the honest exponent but the
    /// packet header stamps `exponent + bias`, so the switch decodes every
    /// contribution scaled by `2^bias`. The wire stays well-formed and
    /// every round completes — only the codec-tolerant conservation
    /// invariant can catch it. Requires [`CodecKind::FixedPoint`] and the
    /// synchronous strategy; `0` is off.
    pub exponent_bug: i8,
}

impl ChaosConfig {
    /// A small chaos run: 3 workers, 10 iterations, schedule from
    /// `chaos_seed`.
    pub fn new(algorithm: Algorithm, strategy: Strategy, chaos_seed: u64) -> Self {
        ChaosConfig {
            algorithm,
            strategy,
            workers: 3,
            iterations: 10,
            staleness_bound: 3,
            seed: 0xC4A05,
            chaos_seed,
            horizon: SimDuration::from_millis(400),
            schedule: None,
            transport: TransportKind::GoBack,
            naive_retransmit: false,
            codec: CodecKind::F32,
            exponent_bug: 0,
        }
    }
}

/// Outcome of one chaos run: what happened, and every invariant violation
/// found. Rendering [`ChaosReport::to_json`] is deterministic — the
/// same-seed byte-identity artifact.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Strategy label.
    pub strategy: Strategy,
    /// Schedule seed.
    pub chaos_seed: u64,
    /// The schedule that ran (generated or explicit).
    pub schedule: ChaosSchedule,
    /// Fault actions the engine applied.
    pub faults_applied: u64,
    /// Iterations (sync) or updates (async) completed per worker.
    pub completed: Vec<usize>,
    /// Rounds value-checked against the conservation invariant.
    pub rounds_checked: usize,
    /// `Help` recovery requests issued across workers (sync iSwitch).
    pub help_requests: u64,
    /// FNV-1a fingerprint of worker 0's final weights (iSwitch co-sim
    /// strategies; 0 otherwise).
    pub params_fingerprint: u64,
    /// Invariant violations, in deterministic order. Empty means the run
    /// passed.
    pub violations: Vec<String>,
    /// For every round named by a violation: that round's span timeline
    /// (worker phases and switch aggregation windows, in trace order),
    /// extracted from the run's causal trace. One
    /// `{"round":r,"spans":[…]}` object per offending round.
    pub violation_timelines: Vec<JsonValue>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as one deterministic JSON document.
    pub fn to_json(&self) -> JsonValue {
        let mut root = JsonValue::empty_object();
        root.insert("strategy", JsonValue::Str(self.strategy.label().into()));
        root.insert("chaos_seed", JsonValue::UInt(self.chaos_seed));
        root.insert("schedule", self.schedule.to_json());
        root.insert("faults_applied", JsonValue::UInt(self.faults_applied));
        root.insert(
            "completed",
            JsonValue::Array(
                self.completed
                    .iter()
                    .map(|&c| JsonValue::UInt(c as u64))
                    .collect(),
            ),
        );
        root.insert(
            "rounds_checked",
            JsonValue::UInt(self.rounds_checked as u64),
        );
        root.insert("help_requests", JsonValue::UInt(self.help_requests));
        root.insert(
            "params_fingerprint",
            JsonValue::UInt(self.params_fingerprint),
        );
        root.insert(
            "violations",
            JsonValue::Array(
                self.violations
                    .iter()
                    .map(|v| JsonValue::Str(v.clone()))
                    .collect(),
            ),
        );
        root.insert(
            "violation_timelines",
            JsonValue::Array(self.violation_timelines.clone()),
        );
        root.insert("passed", JsonValue::Bool(self.passed()));
        root
    }
}

/// Wraps a co-sim gradient source, recording every gradient the worker
/// computed and every aggregate it applied — the evidence the conservation
/// invariant is checked against.
struct RecordingSource {
    inner: Box<dyn GradientSource>,
    /// `computed[i]` is the gradient of iteration `i`.
    computed: Vec<Vec<f32>>,
    /// `applied[r]` is the aggregate applied for round `r`.
    applied: Vec<Vec<f32>>,
}

impl RecordingSource {
    fn new(inner: Box<dyn GradientSource>) -> Self {
        RecordingSource {
            inner,
            computed: Vec::new(),
            applied: Vec::new(),
        }
    }
}

impl GradientSource for RecordingSource {
    fn grad_len(&self) -> usize {
        self.inner.grad_len()
    }

    fn wants_values(&self) -> bool {
        self.inner.wants_values()
    }

    fn compute(&mut self) {
        self.inner.compute();
        self.computed.push(self.inner.gradient().to_vec());
    }

    fn gradient(&self) -> &[f32] {
        self.inner.gradient()
    }

    fn apply_aggregate(&mut self, mean: &[f32]) {
        self.applied.push(mean.to_vec());
        self.inner.apply_aggregate(mean);
    }

    fn params(&self) -> &[f32] {
        self.inner.params()
    }

    fn updates_applied(&self) -> u64 {
        self.inner.updates_applied()
    }

    fn reward_curve(&self) -> &[(u64, f32)] {
        self.inner.reward_curve()
    }

    fn final_average_reward(&self) -> Option<f32> {
        self.inner.final_average_reward()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Does `applied` equal the mean of some non-empty subset of `candidates`
/// (each counted at most once)? Sums are f32 like the accelerator's.
/// `codec_tol` widens the base tolerance by the codec's quantization
/// error bound (zero for f32), so I1 stays exact where the wire is exact.
fn matches_some_subset(applied: &[f32], candidates: &[&[f32]], codec_tol: f32) -> bool {
    let n = candidates.len();
    debug_assert!(n <= 16, "subset enumeration is exponential");
    'mask: for mask in 1u32..(1u32 << n) {
        let k = mask.count_ones() as f32;
        for (i, &a) in applied.iter().enumerate() {
            let mut sum = 0.0f32;
            for (j, g) in candidates.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    sum += g[i];
                }
            }
            let mean = sum / k;
            if (a - mean).abs() > 1e-3 + 1e-3 * mean.abs() + codec_tol {
                continue 'mask;
            }
        }
        return true;
    }
    false
}

/// The I1 tolerance slack for one segment's candidate set: the codec's
/// worst-case decoded-aggregate error given the segment's value range.
fn codec_tolerance(codec: CodecKind, seg_cands: &[&[f32]]) -> f32 {
    let max_abs = seg_cands
        .iter()
        .flat_map(|c| c.iter())
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    codec.codec().error_bound(max_abs, seg_cands.len())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bit patterns of a weight vector.
fn fingerprint(params: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Event capacity of the bounded trace a chaos run records into. Chaos
/// clusters are small (a handful of workers, tens of iterations), so this
/// comfortably holds the whole run; if a pathological schedule overflows
/// it, drop-oldest sacrifices early packet events first and the report's
/// timelines degrade to partial rather than growing without bound.
const CHAOS_TRACE_EVENTS: usize = 1 << 16;

/// The span timeline of one round: every span touching round `round`
/// (switch spans carry a `round` attribute; worker phase spans key the
/// same quantity as `iter`), in trace order.
fn round_timeline(trace: &Trace, round: u64) -> JsonValue {
    let mut spans = Vec::new();
    for ev in trace.snapshot() {
        let Ok(doc) = JsonValue::parse(ev.line()) else {
            continue;
        };
        if doc.get("kind").and_then(JsonValue::as_str) != Some("span") {
            continue;
        }
        let in_round = match doc.get("round").and_then(JsonValue::as_u64) {
            Some(r) => r == round,
            None => doc.get("iter").and_then(JsonValue::as_u64) == Some(round),
        };
        if in_round {
            spans.push(doc);
        }
    }
    let mut o = JsonValue::empty_object();
    o.insert("round", JsonValue::UInt(round));
    o.insert("spans", JsonValue::Array(spans));
    o
}

/// The schedule a run will use: explicit if given, generated otherwise.
fn schedule_for(cfg: &ChaosConfig) -> ChaosSchedule {
    cfg.schedule.clone().unwrap_or_else(|| {
        generate_schedule(cfg.strategy, cfg.workers, cfg.horizon, cfg.chaos_seed)
    })
}

/// Runs one chaos experiment: build the strategy's deployment, install the
/// fault plan, run to completion, check invariants.
///
/// # Panics
///
/// Panics on degenerate configurations (zero workers/iterations) and on
/// schedules naming workers outside the cluster.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    assert!(cfg.workers >= 2, "chaos needs at least two workers");
    assert!(cfg.iterations > 0, "need at least one iteration");
    let schedule = schedule_for(cfg);
    for f in &schedule.faults {
        assert!(
            f.worker() < cfg.workers,
            "schedule targets worker {} of {}",
            f.worker(),
            cfg.workers
        );
    }
    match cfg.strategy {
        Strategy::SyncIsw | Strategy::AsyncIsw => run_chaos_isw(cfg, schedule),
        Strategy::SyncPs | Strategy::SyncAr | Strategy::AsyncPs => run_chaos_plain(cfg, schedule),
    }
}

/// The chaos cluster as a timing job: the paper's main-cluster star, the
/// whole iteration budget measured (no warmup).
fn timing_config(cfg: &ChaosConfig) -> TimingConfig {
    let mut tcfg = TimingConfig::main_cluster(cfg.algorithm, cfg.strategy);
    tcfg.workers = cfg.workers;
    tcfg.iterations = cfg.iterations;
    tcfg.warmup = 0;
    tcfg.seed = cfg.seed;
    tcfg.staleness_bound = cfg.staleness_bound;
    tcfg.transport = cfg.transport;
    tcfg.codec = cfg.codec;
    tcfg
}

/// Installs the schedule on the built job's worker edge links.
fn install_schedule(job: &mut Job, schedule: &ChaosSchedule, chaos_seed: u64) {
    for (domain, at, action) in schedule.resolve(&job.placed.worker_links, chaos_seed) {
        job.schedule_fault(domain, at, action);
    }
}

/// I2: barrier — every worker completed every iteration.
fn check_barrier(completed: &[usize], iterations: usize, violations: &mut Vec<String>) {
    for (w, &c) in completed.iter().enumerate() {
        if c != iterations {
            violations.push(format!(
                "I2 barrier: worker {w} completed {c} of {iterations} iterations"
            ));
        }
    }
}

/// iSwitch strategies: co-sim fidelity (live replicas through the in-switch
/// datapath) so conservation can be checked on actual values.
fn run_chaos_isw(cfg: &ChaosConfig, schedule: ChaosSchedule) -> ChaosReport {
    let sync = cfg.strategy == Strategy::SyncIsw;
    assert!(
        !(sync && cfg.codec == CodecKind::TopK),
        "top-k discards coordinates by design, so the conservation \
         invariant's subset-mean statement does not apply; chaos-check \
         the dense codecs"
    );
    let sources = live_replicas(cfg.algorithm, cfg.workers, cfg.seed, 1.0)
        .into_iter()
        .map(|agent| Box::new(RecordingSource::new(Box::new(agent))) as Box<dyn GradientSource>)
        .collect();

    let mut tcfg = timing_config(cfg);
    // Arms the workers' recovery timeout and the switches' stale-flush
    // sweep (partial-round expiry): all loss comes from the fault plan.
    // The async pipeline sees no loss (delay-only schedule), so it keeps
    // both off.
    tcfg.faulted = sync;
    let trace = Arc::new(Trace::bounded(CHAOS_TRACE_EVENTS));
    let capture = Capture {
        trace: Some(Arc::clone(&trace)),
        ..Capture::default()
    };
    let mut job = build(&tcfg, Some(sources), 0, capture);
    if sync {
        // The seeded bugs land on the built workers, whatever transport
        // the shared build installed.
        assert!(
            cfg.exponent_bug == 0 || cfg.codec == CodecKind::FixedPoint,
            "the exponent-stamp bug lives in the fixed-point encoder"
        );
        for w in 0..cfg.workers {
            let worker = job.worker_mut::<IswSyncWorker>(w);
            if cfg.naive_retransmit {
                // The broken-recovery self-test retries aggressively so its
                // retransmissions land before the switch's stale-flush
                // sweep can paper over them — the double-count must
                // actually reach an aggregate.
                worker.set_help_timeout(SimDuration::from_micros(500));
                worker.seed_naive_retransmit();
            }
            if cfg.exponent_bug != 0 {
                worker.seed_exponent_bug(cfg.exponent_bug);
            }
        }
    }
    install_schedule(&mut job, &schedule, cfg.chaos_seed);

    // Stop policy: sync lockstep waits for the *slowest* worker so the
    // barrier invariant is checked at quiescence; async stops once the
    // probe (worker 0) has seen enough updates.
    let watched = if sync { cfg.workers } else { 1 };
    let finished = |job: &Job| (0..watched).all(|w| job.progress(w) >= cfg.iterations);
    // A run given up on, or idle short of its budget, is reported below.
    let _ = job.run_until(finished);

    let completed: Vec<usize> = (0..cfg.workers).map(|w| job.progress(w)).collect();
    let mut violations = Vec::new();
    if !finished(&job) {
        violations.push(format!(
            "progress: run stalled before {} iterations (reached {completed:?})",
            cfg.iterations
        ));
    }

    let mut rounds_checked = 0;
    let mut help_requests = 0;
    let mut offending_rounds: BTreeSet<u64> = BTreeSet::new();
    if sync {
        // Pull each worker's recorded evidence out of the simulator.
        let mut all_computed: Vec<&[Vec<f32>]> = Vec::new();
        let mut all_applied: Vec<&[Vec<f32>]> = Vec::new();
        for w in 0..cfg.workers {
            let worker = job.worker(w);
            help_requests += worker.transport_stats().help_requests;
            let rec = worker
                .source()
                .as_any()
                .downcast_ref::<RecordingSource>()
                .expect("chaos workers use RecordingSource");
            all_computed.push(&rec.computed);
            all_applied.push(&rec.applied);
        }
        check_barrier(&completed, cfg.iterations, &mut violations);
        // I4: one aggregate applied per completed iteration.
        for (w, applied) in all_applied.iter().enumerate() {
            if applied.len() != completed[w] {
                violations.push(format!(
                    "I4 updates: worker {w} applied {} aggregates over {} iterations",
                    applied.len(),
                    completed[w]
                ));
            }
        }
        // I1: conservation — every segment of each applied aggregate
        // is the mean of a non-empty subset of that round's gradients
        // over that segment (the accelerator aggregates and flushes at
        // segment granularity).
        for (w, applied) in all_applied.iter().enumerate() {
            for (r, agg) in applied.iter().enumerate() {
                let candidates: Vec<&[f32]> = all_computed
                    .iter()
                    .filter(|c| c.len() > r)
                    .map(|c| c[r].as_slice())
                    .collect();
                rounds_checked += 1;
                if candidates.is_empty() {
                    violations.push(format!(
                        "I1 conservation: worker {w} round {r} applied an aggregate \
                         no worker computed a gradient for"
                    ));
                    offending_rounds.insert(r as u64);
                    continue;
                }
                let seg_elems = cfg.codec.elems_per_segment();
                for (s, chunk) in agg.chunks(seg_elems).enumerate() {
                    let lo = s * seg_elems;
                    let seg_cands: Vec<&[f32]> = candidates
                        .iter()
                        .map(|c| &c[lo..lo + chunk.len()])
                        .collect();
                    let tol = codec_tolerance(cfg.codec, &seg_cands);
                    if !matches_some_subset(chunk, &seg_cands, tol) {
                        violations.push(format!(
                            "I1 conservation: worker {w} round {r} segment {s} applied \
                             an aggregate matching no subset of that round's gradients"
                        ));
                        offending_rounds.insert(r as u64);
                    }
                }
            }
        }
    } else {
        for w in 0..cfg.workers {
            let worker = job.worker(w);
            // I3: staleness bound.
            for (i, &s) in worker.staleness().iter().enumerate() {
                if s > cfg.staleness_bound {
                    violations.push(format!(
                        "I3 staleness: worker commit {i} at staleness {s} > bound {}",
                        cfg.staleness_bound
                    ));
                }
            }
            // I4: the pipeline keeps applying aggregates.
            if worker.source().updates_applied() == 0 {
                violations.push("I4 updates: a worker applied no aggregates".into());
            }
        }
    }

    let params_fingerprint = fingerprint(job.worker(0).source().params());
    let violation_timelines = offending_rounds
        .iter()
        .map(|&r| round_timeline(&trace, r))
        .collect();
    ChaosReport {
        strategy: cfg.strategy,
        chaos_seed: cfg.chaos_seed,
        schedule,
        faults_applied: job.stats().faults_applied,
        completed,
        rounds_checked,
        help_requests,
        params_fingerprint,
        violations,
        violation_timelines,
    }
}

/// Baseline strategies (PS, AR, async PS): timing fidelity on a star, with
/// latency-spike schedules — these protocols have no loss recovery, so the
/// harness probes their tolerance to degradation, not loss.
fn run_chaos_plain(cfg: &ChaosConfig, schedule: ChaosSchedule) -> ChaosReport {
    let mut job = build(&timing_config(cfg), None, 0, Capture::default());
    install_schedule(&mut job, &schedule, cfg.chaos_seed);

    // Stop policy: the job's own completion rule — queue idle (sync), or
    // the server's count of `iterations + 1` updates (async). A run given
    // up on owes rounds or updates, which the checks below report.
    let _ = job.run_until(|_| false);

    let mut violations = Vec::new();
    let completed;
    if cfg.strategy.is_async() {
        let target = cfg.iterations + 1;
        let updates = job.update_times().len();
        completed = vec![updates];
        if updates < target {
            violations.push(format!(
                "progress: server saw {updates} of {target} updates"
            ));
        }
        // I3: staleness bound.
        for (i, &s) in job.staleness().iter().enumerate() {
            if s > cfg.staleness_bound {
                violations.push(format!(
                    "I3 staleness: commit {i} at staleness {s} > bound {}",
                    cfg.staleness_bound
                ));
            }
        }
    } else {
        completed = (0..cfg.workers).map(|w| job.progress(w)).collect();
        check_barrier(&completed, cfg.iterations, &mut violations);
    }

    ChaosReport {
        strategy: cfg.strategy,
        chaos_seed: cfg.chaos_seed,
        schedule,
        faults_applied: job.stats().faults_applied,
        completed,
        rounds_checked: 0,
        help_requests: 0,
        params_fingerprint: 0,
        violations,
        violation_timelines: Vec::new(),
    }
}

/// Configuration of one cross-tenant isolation (I6) chaos run: a clean
/// "victim" job shares the switch fabric with an "aggressor" whose
/// datapath misbehaves, and the victim's artifacts are byte-compared
/// against the same job on a dedicated fabric.
#[derive(Debug, Clone)]
pub struct IsolationConfig {
    /// Victim benchmark algorithm (small job; Ppo peaks under 32 slots).
    pub victim: Algorithm,
    /// Aggressor benchmark algorithm (big job; A2c's demand dwarfs Ppo's).
    pub aggressor: Algorithm,
    /// Iterations each tenant measures.
    pub iterations: usize,
    /// Base seed for both jobs (the victim's is derived from it).
    pub seed: u64,
    /// Total aggregation slots on the shared fabric.
    pub fabric_slots: u32,
    /// The victim's guaranteed slot quota. Set to `0` for the harness
    /// self-test: the leak then squeezes the victim's best-effort grant
    /// and I6 must trip.
    pub victim_quota: u32,
    /// Arm the seeded slot-leak bug on the aggressor: its `complete()`
    /// path never frees slots, so its demand grows without bound and
    /// soaks the best-effort pool.
    pub slot_leak_bug: bool,
}

impl IsolationConfig {
    /// The standard I6 cell: Ppo victim (peak demand ~29 slots) behind a
    /// 32-slot quota on a 40-slot fabric, against a leaky A2c aggressor.
    pub fn new(seed: u64) -> Self {
        IsolationConfig {
            victim: Algorithm::Ppo,
            aggressor: Algorithm::A2c,
            iterations: 6,
            seed,
            fabric_slots: 40,
            victim_quota: 32,
            slot_leak_bug: true,
        }
    }
}

/// Outcome of one I6 run. [`IsolationReport::to_json`] renders
/// deterministically, so two same-seed runs are byte-identical (I5
/// applies to this report too).
#[derive(Debug, Clone)]
pub struct IsolationReport {
    /// Base seed of the run.
    pub seed: u64,
    /// Whether the victim held a guaranteed quota.
    pub protected: bool,
    /// Slot denials the victim's switches recorded on the shared fabric.
    pub victim_denials: u64,
    /// Host-path fallback rounds the victim ran on the shared fabric.
    pub victim_fallback_rounds: u64,
    /// Slot denials the aggressor's switches recorded.
    pub aggressor_denials: u64,
    /// Host-path fallback rounds the aggressor ran.
    pub aggressor_fallback_rounds: u64,
    /// FNV-1a over the victim's shared-fabric artifacts (report + trace).
    pub victim_fingerprint: u64,
    /// I6 violations, in deterministic order. Empty means isolation held.
    pub violations: Vec<String>,
}

impl IsolationReport {
    /// Whether the isolation invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as one deterministic JSON document.
    pub fn to_json(&self) -> JsonValue {
        let mut root = JsonValue::empty_object();
        root.insert("invariant", JsonValue::Str("I6".into()));
        root.insert("seed", JsonValue::UInt(self.seed));
        root.insert("protected", JsonValue::Bool(self.protected));
        root.insert("victim_denials", JsonValue::UInt(self.victim_denials));
        root.insert(
            "victim_fallback_rounds",
            JsonValue::UInt(self.victim_fallback_rounds),
        );
        root.insert("aggressor_denials", JsonValue::UInt(self.aggressor_denials));
        root.insert(
            "aggressor_fallback_rounds",
            JsonValue::UInt(self.aggressor_fallback_rounds),
        );
        root.insert(
            "victim_fingerprint",
            JsonValue::UInt(self.victim_fingerprint),
        );
        root.insert(
            "violations",
            JsonValue::Array(
                self.violations
                    .iter()
                    .map(|v| JsonValue::Str(v.clone()))
                    .collect(),
            ),
        );
        root.insert("passed", JsonValue::Bool(self.passed()));
        root
    }
}

/// FNV-1a over raw bytes (artifact fingerprints).
fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Runs one I6 experiment: the victim and aggressor share the fabric,
/// then the victim reruns alone on an identically-sized fabric, and the
/// two sets of victim artifacts are compared byte-for-byte.
///
/// The solo fabric keeps the same slot count, so a lone victim's grant
/// (the whole fabric) never binds — the solo run *is* the dedicated-switch
/// baseline. Any divergence on the shared fabric is therefore caused by
/// the co-tenant, which is exactly what I6 forbids.
pub fn run_chaos_isolation(cfg: &IsolationConfig) -> IsolationReport {
    let mut aggressor_job = TimingConfig::main_cluster(cfg.aggressor, Strategy::SyncIsw);
    aggressor_job.iterations = cfg.iterations;
    aggressor_job.warmup = 2;
    aggressor_job.seed = cfg.seed;
    aggressor_job.slot_leak_bug = cfg.slot_leak_bug;
    let mut victim_job = TimingConfig::main_cluster(cfg.victim, Strategy::SyncIsw);
    victim_job.iterations = cfg.iterations;
    victim_job.warmup = 2;
    victim_job.seed = cfg.seed.wrapping_add(0x7E);

    let mut victim_spec = TenantSpec::new("victim", 2, victim_job);
    if cfg.victim_quota > 0 {
        victim_spec = victim_spec.with_quota(cfg.victim_quota, 1 << 24);
    }
    let aggressor_spec = TenantSpec::new("aggressor", 1, aggressor_job);

    let mut shared_cfg = MultiJobConfig::new(vec![aggressor_spec, victim_spec.clone()]);
    shared_cfg.fabric.slots = cfg.fabric_slots;
    let shared = run_multi_tenant(&shared_cfg);

    let mut solo_cfg = MultiJobConfig::new(vec![victim_spec]);
    solo_cfg.fabric.slots = cfg.fabric_slots;
    let solo = run_multi_tenant(&solo_cfg);

    let render = |t: &crate::tenancy::TenantRun| {
        (
            t.observation.report_json().render(),
            t.observation.trace.to_jsonl(),
        )
    };
    let shared_victim = &shared.tenants[1];
    let (shared_report, shared_trace) = render(shared_victim);
    let (solo_report, solo_trace) = render(&solo.tenants[0]);

    let mut violations = Vec::new();
    if shared_report != solo_report {
        violations.push(
            "I6 isolation: victim metrics report diverges from its dedicated-fabric run".into(),
        );
    }
    if shared_trace != solo_trace {
        violations.push(
            "I6 isolation: victim causal trace diverges from its dedicated-fabric run".into(),
        );
    }
    for t in &shared.tenants {
        if t.observation.result.iterations_measured == 0 {
            violations.push(format!(
                "progress: tenant {} measured no iterations on the shared fabric",
                t.name
            ));
        }
    }

    let mut fp = fingerprint_bytes(shared_report.as_bytes());
    fp ^= fingerprint_bytes(shared_trace.as_bytes()).rotate_left(1);
    IsolationReport {
        seed: cfg.seed,
        protected: cfg.victim_quota > 0,
        victim_denials: shared_victim.slot_denials,
        victim_fallback_rounds: shared_victim.fallback_rounds,
        aggressor_denials: shared.tenants[0].slot_denials,
        aggressor_fallback_rounds: shared.tenants[0].fallback_rounds,
        victim_fingerprint: fp,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_json_round_trips() {
        let s = ChaosSchedule {
            faults: vec![
                ChaosFault::EdgeDown {
                    worker: 0,
                    at: SimDuration::from_millis(5),
                    duration: SimDuration::from_millis(20),
                },
                ChaosFault::EdgeLoss {
                    worker: 1,
                    at: SimDuration::from_millis(30),
                    duration: SimDuration::from_millis(10),
                    probability: 0.5,
                },
                ChaosFault::DelaySpike {
                    worker: 2,
                    at: SimDuration::from_millis(50),
                    duration: SimDuration::from_millis(5),
                    extra: SimDuration::from_micros(400),
                },
            ],
        };
        let text = s.to_json().render();
        assert_eq!(ChaosSchedule::from_json(&text).unwrap(), s);
        assert!(ChaosSchedule::from_json(r#"{"faults":[{"kind":"gremlin"}]}"#).is_err());
    }

    #[test]
    fn generated_schedules_are_seed_deterministic_and_strategy_aware() {
        let h = SimDuration::from_millis(400);
        let a = generate_schedule(Strategy::SyncIsw, 3, h, 7);
        let b = generate_schedule(Strategy::SyncIsw, 3, h, 7);
        assert_eq!(a, b);
        let c = generate_schedule(Strategy::SyncIsw, 3, h, 8);
        assert_ne!(a, c, "different seeds should differ");
        // Non-recovering strategies only get latency spikes.
        for strategy in [Strategy::SyncPs, Strategy::SyncAr, Strategy::AsyncPs] {
            let s = generate_schedule(strategy, 3, h, 7);
            assert!(s
                .faults
                .iter()
                .all(|f| matches!(f, ChaosFault::DelaySpike { .. })));
        }
    }

    #[test]
    fn subset_matching_accepts_partials_and_rejects_duplicates() {
        let g0 = vec![1.0f32, 2.0];
        let g1 = vec![3.0f32, 4.0];
        let g2 = vec![5.0f32, 6.0];
        let cands: Vec<&[f32]> = vec![&g0, &g1, &g2];
        // Full mean.
        assert!(matches_some_subset(&[3.0, 4.0], &cands, 0.0));
        // Partial flush {g1, g2}.
        assert!(matches_some_subset(&[4.0, 5.0], &cands, 0.0));
        // Double-counted g0: (2*g0 + g1)/3.
        assert!(!matches_some_subset(&[5.0 / 3.0, 8.0 / 3.0], &cands, 0.0));
        // A codec tolerance admits quantization-sized error but not the
        // double-count.
        assert!(matches_some_subset(&[3.1, 4.1], &cands, 0.2));
        assert!(!matches_some_subset(&[5.0 / 3.0, 8.0 / 3.0], &cands, 0.2));
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
        assert_eq!(fingerprint(&[1.0, 2.0]), fingerprint(&[1.0, 2.0]));
    }

    #[test]
    fn an_outage_that_heals_is_slow_and_one_that_does_not_is_given_up_on() {
        // The stall rule waits for a scheduled restore however far off (the
        // network changes there), and gives up 5 s past the last fault when
        // none is coming: a window that never closes.
        let run = |duration: SimDuration| {
            let mut cfg = ChaosConfig::new(Algorithm::Ppo, Strategy::SyncIsw, 1);
            cfg.schedule = Some(ChaosSchedule {
                faults: vec![ChaosFault::EdgeDown {
                    worker: 0,
                    at: SimDuration::from_millis(10),
                    duration,
                }],
            });
            run_chaos(&cfg)
        };
        let healed = run(SimDuration::from_secs(8));
        assert!(healed.passed(), "{:?}", healed.violations);
        assert_eq!(healed.faults_applied, 2);

        let for_good = run(SimDuration::from_nanos(u64::MAX));
        assert_eq!(for_good.faults_applied, 1);
        assert!(for_good.completed[0] < 10, "{:?}", for_good.completed);
        let lines = &for_good.violations;
        assert!(lines[0].starts_with("progress: run stalled"), "{lines:?}");
        assert!(lines[1].starts_with("I2 barrier: worker 0"), "{lines:?}");
        // One `Help` batch per ~3 ms timeout for 5.2 s, not for 2,000 s
        // (16.2 M requests under the old per-runner step cap).
        assert!(for_good.help_requests < 100_000, "{for_good:?}");
    }

    #[test]
    fn isolation_holds_across_seeds_and_trips_on_the_seeded_leak() {
        // I6 both ways. Holds: a quota'd victim is byte-unperturbed by a
        // leaky co-tenant across a seed matrix, and the report itself is
        // seed-deterministic (I5). Trips: dropping the quota lets the
        // leak squeeze the victim's grant, and the harness must say so.
        for seed in [1, 7, 23] {
            let cfg = IsolationConfig::new(seed);
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

        let mut unprotected = IsolationConfig::new(7);
        unprotected.victim_quota = 0;
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
}
