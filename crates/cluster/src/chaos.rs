//! Chaos harness: seeded random fault schedules driven through the
//! fault-injection subsystem, with protocol invariants checked over the
//! recorded run.
//!
//! A [`ChaosSchedule`] is a worker-indexed list of timed fault windows —
//! edge-link outages, loss-rate windows, latency spikes. A run's
//! [`TimingConfig::faults`] names one, and the build resolves it against
//! the topology — star, tree or fat-tree — into netsim fault actions on
//! the workers' edge links. [`run_chaos`] runs any [`TimingConfig`] that
//! way and then checks:
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
//! * **I6 cross-tenant isolation** ([`run_chaos_isolation`], on a
//!   [`MultiJobConfig`]): a tenant
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

use std::collections::BTreeSet;
use std::sync::Arc;

use iswitch_core::CodecKind;
use iswitch_netsim::{FaultAction, LinkId, LossModel, SimDuration, SimTime};
use iswitch_obs::{JsonValue, Trace};
use iswitch_rl::Algorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lifecycle::{build, Capture, Job};
use crate::tenancy::{run_multi_tenant, MultiJobConfig, TenantRun, TenantSpec};
use crate::timing_runner::{Fidelity, Strategy, TimingConfig};

/// Span a drawn schedule spreads its windows over.
const CHAOS_HORIZON: SimDuration = SimDuration::from_millis(400);

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

/// A worker-indexed fault schedule — the user-facing form of the timed
/// fault actions a run schedules, resolved to concrete link ids only after
/// the topology is built.
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
    ///
    /// # Panics
    ///
    /// Panics on a window naming a worker outside the cluster.
    pub(crate) fn resolve(
        &self,
        worker_links: &[(usize, LinkId)],
        loss_seed: u64,
    ) -> Vec<(usize, SimTime, FaultAction)> {
        let mut plan = Vec::new();
        let workers = worker_links.len();
        for (i, f) in self.faults.iter().enumerate() {
            assert!(
                f.worker() < workers,
                "schedule targets worker {} of {workers}",
                f.worker()
            );
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
/// of `(strategy, workers, chaos_seed)`, its windows spread over the first
/// 400 ms. Only `SyncIsw` draws outage and loss windows (it has the paper's
/// recovery machinery); every other strategy gets latency spikes.
pub fn generate_schedule(strategy: Strategy, workers: usize, chaos_seed: u64) -> ChaosSchedule {
    assert!(workers > 0, "need at least one worker to torment");
    let mut rng = StdRng::seed_from_u64(chaos_seed ^ 0xC4A0_5EED);
    let span = CHAOS_HORIZON.as_nanos();
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

/// The fault schedule of a run ([`TimingConfig::faults`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// Seeds the drawn schedule and the RNG of every loss window.
    pub chaos_seed: u64,
    /// The windows to inject; `None` draws them from `chaos_seed`
    /// ([`generate_schedule`]).
    pub schedule: Option<ChaosSchedule>,
}

impl Faults {
    /// The schedule a run of `strategy` over `workers` injects.
    pub fn schedule(&self, strategy: Strategy, workers: usize) -> ChaosSchedule {
        (self.schedule.clone())
            .unwrap_or_else(|| generate_schedule(strategy, workers, self.chaos_seed))
    }
}

/// A deliberately broken protocol path ([`TimingConfig::bug`]): each one
/// must trip an invariant, which is how the harness shows it has teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// The sync iSW transport's broken recovery: go-back re-pushes the
    /// whole gradient on retry instead of sending `Help`; NACK re-pushes
    /// the whole train on a gap (a NACK storm). Either way the
    /// packet-counting accelerator double-counts, so I1 must trip.
    NaiveRetransmit,
    /// The sync iSW fixed-point encoder scales mantissas with the honest
    /// exponent but stamps `exponent + bias` in the header, so the switch
    /// decodes every contribution scaled by `2^bias`. The wire stays
    /// well-formed and every round completes; only the codec-tolerant I1
    /// can catch it. Needs [`CodecKind::FixedPoint`].
    ExponentStamp(i8),
    /// Every iSwitch switch's completed rounds never release their slot,
    /// so occupancy and demand only grow: the co-tenant that I6 must
    /// shield a quota'd victim from.
    SlotLeak,
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
    /// `Help` requests the switch answered by asking for the worker's
    /// contribution back (it neither kept nor had open the round). In the
    /// rendered report only when non-zero, as the switch's counter is in
    /// its metrics.
    pub resend_requests: u64,
    /// FNV-1a fingerprint of each worker's final weights, in worker order
    /// (iSwitch co-sim strategies; empty otherwise). Replicas of one model
    /// hold equal ones.
    pub params_fingerprints: Vec<u64>,
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
        if self.resend_requests > 0 {
            root.insert("resend_requests", JsonValue::UInt(self.resend_requests));
        }
        root.insert(
            "params_fingerprints",
            JsonValue::Array(
                (self.params_fingerprints.iter())
                    .map(|&f| JsonValue::UInt(f))
                    .collect(),
            ),
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

/// Runs one chaos experiment: build `cfg`'s job — any strategy, shape,
/// transport, codec and seeded bug — with its fault schedule installed,
/// run it to completion, check the invariants that apply.
///
/// # Panics
///
/// Panics on a configuration with no fault schedule, on the
/// configurations [`crate::run_timing`] rejects, and on schedules naming
/// workers outside the cluster.
pub fn run_chaos(cfg: &TimingConfig) -> ChaosReport {
    let faults = (cfg.faults.as_ref()).expect("a chaos run injects a fault schedule");
    let sync_isw = cfg.strategy == Strategy::SyncIsw;
    // Which invariants apply, in one place: I2 to the sync strategies, I3
    // to the async ones, and the value checks to the iSwitch strategies'
    // live replicas — I1 and I4 per round for sync iSW, read from the
    // job's live-run record, and I4 as "some aggregate" for async iSW.
    let live = matches!(cfg.fidelity, Fidelity::Cosim { .. });
    let value_checked = live && sync_isw;
    assert!(
        !(value_checked && cfg.codec == CodecKind::TopK),
        "top-k discards coordinates by design, so the conservation \
         invariant's subset-mean statement does not apply; chaos-check \
         the dense codecs"
    );
    let trace = live.then(|| Arc::new(Trace::bounded(CHAOS_TRACE_EVENTS)));
    let capture = Capture {
        trace: trace.clone(),
        ..Capture::default()
    };
    let mut job = build(cfg, 0, capture);
    let schedule = faults.schedule(cfg.strategy, cfg.workers);

    // Stop rules: sync iSW waits for its slowest worker, so the barrier is
    // checked at quiescence; async iSW for its probe, worker 0; PS, AR and
    // async PS by the job's own rule — queue idle, or the server's count
    // of `iterations + 1` updates. A run given up on, or idle short of its
    // budget, owes rounds or updates, which the checks below report.
    let watched = match cfg.strategy {
        Strategy::SyncIsw => cfg.workers,
        Strategy::AsyncIsw => 1,
        Strategy::SyncPs | Strategy::SyncAr | Strategy::AsyncPs => 0,
    };
    let finished = |job: &Job| (0..watched).all(|w| job.progress(w) >= cfg.iterations);
    let _ = job.run_until(|job| watched > 0 && finished(job));

    let completed: Vec<usize> = match cfg.strategy {
        Strategy::AsyncPs => vec![job.update_times().len()],
        _ => (0..cfg.workers).map(|w| job.progress(w)).collect(),
    };
    let mut violations = Vec::new();
    if watched > 0 && !finished(&job) {
        violations.push(format!(
            "progress: run stalled before {} iterations (reached {completed:?})",
            cfg.iterations
        ));
    }
    if cfg.strategy == Strategy::AsyncPs && completed[0] <= cfg.iterations {
        let (updates, target) = (completed[0], cfg.iterations + 1);
        violations.push(format!(
            "progress: server saw {updates} of {target} updates"
        ));
    }
    if !cfg.strategy.is_async() {
        check_barrier(&completed, cfg.iterations, &mut violations);
    }

    let mut rounds_checked = 0;
    let mut help_requests = 0;
    let mut offending_rounds: BTreeSet<u64> = BTreeSet::new();
    if sync_isw {
        help_requests = (0..cfg.workers)
            .map(|w| job.worker(w).transport_stats().help_requests)
            .sum();
    }
    if value_checked {
        let mut record = job.record().expect("a live sync iSW job keeps a record");
        // I4: one aggregate applied per completed iteration.
        for (w, &c) in completed.iter().enumerate() {
            let applied = record.applies(w);
            rounds_checked += applied;
            if applied != c {
                violations.push(format!(
                    "I4 updates: worker {w} applied {applied} aggregates over {c} iterations"
                ));
            }
        }
        // I1: conservation, checked by the record as the rounds closed,
        // and now for the rounds that never did.
        for (r, line) in record.close() {
            violations.push(line);
            offending_rounds.insert(r as u64);
        }
    }
    if cfg.strategy.is_async() {
        // I3: staleness bound.
        for (i, &s) in job.staleness().iter().enumerate() {
            if s > cfg.staleness_bound {
                violations.push(format!(
                    "I3 staleness: commit {i} at staleness {s} > bound {}",
                    cfg.staleness_bound
                ));
            }
        }
    }
    if live && cfg.strategy == Strategy::AsyncIsw {
        // I4: the pipeline keeps applying aggregates.
        for w in 0..cfg.workers {
            if job.worker(w).source().updates_applied() == 0 {
                violations.push("I4 updates: a worker applied no aggregates".into());
            }
        }
    }

    let params_fingerprints = if live {
        (0..cfg.workers)
            .map(|w| fingerprint(job.worker(w).source().params()))
            .collect()
    } else {
        Vec::new()
    };
    let resend_requests = job.extensions().map(|e| e.stats().resend_requests).sum();
    let violation_timelines = (trace.iter())
        .flat_map(|trace| offending_rounds.iter().map(|&r| round_timeline(trace, r)))
        .collect();
    ChaosReport {
        strategy: cfg.strategy,
        chaos_seed: faults.chaos_seed,
        schedule,
        faults_applied: job.stats().faults_applied,
        completed,
        rounds_checked,
        help_requests,
        resend_requests,
        params_fingerprints,
        violations,
        violation_timelines,
    }
}

impl MultiJobConfig {
    /// The standard I6 cell: a PPO victim (peak demand ~29 slots) behind a
    /// 32-slot quota on a 40-slot fabric, beside an A2C aggressor (whose
    /// demand dwarfs PPO's) running [`SeededBug::SlotLeak`]. Each tenant
    /// measures 6 iterations; the victim's seed is derived from `seed`.
    /// Clear the victim's quota for the harness self-test: the leak then
    /// squeezes its best-effort grant and I6 must trip.
    pub fn isolation(seed: u64) -> Self {
        let job = |algorithm, seed| {
            let mut job = TimingConfig::main_cluster(algorithm, Strategy::SyncIsw);
            (job.iterations, job.warmup, job.seed) = (6, 2, seed);
            job
        };
        let mut aggressor = job(Algorithm::A2c, seed);
        aggressor.bug = Some(SeededBug::SlotLeak);
        let victim = job(Algorithm::Ppo, seed.wrapping_add(0x7E));
        let mut cfg = MultiJobConfig::new(vec![
            TenantSpec::new("aggressor", 1, aggressor),
            TenantSpec::new("victim", 2, victim).with_quota(32, 1 << 24),
        ]);
        cfg.fabric.slots = 40;
        cfg
    }
}

/// Outcome of one I6 run. [`IsolationReport::to_json`] renders
/// deterministically, so two same-seed runs are byte-identical (I5
/// applies to this report too).
#[derive(Debug, Clone)]
pub struct IsolationReport {
    /// Base seed of the run: the first tenant's job seed.
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

/// Runs one I6 experiment: the last tenant of `cfg` is the victim, every
/// other one an aggressor. They share the fabric, then the victim reruns
/// alone on the same fabric, and the two sets of victim artifacts are
/// compared byte-for-byte.
///
/// The solo fabric keeps the same slot count, so a lone victim's grant
/// (the whole fabric) never binds — the solo run *is* the dedicated-switch
/// baseline. Any divergence on the shared fabric is therefore caused by
/// the co-tenants, which is exactly what I6 forbids.
pub fn run_chaos_isolation(cfg: &MultiJobConfig) -> IsolationReport {
    let shared = run_multi_tenant(cfg);
    let victim_spec = cfg.tenants.last().expect("an isolation cell has a victim");
    let solo = run_multi_tenant(&MultiJobConfig {
        tenants: vec![victim_spec.clone()],
        ..cfg.clone()
    });

    let render = |t: &TenantRun| {
        (
            t.observation.report_json().render(),
            t.observation.trace.to_jsonl(),
        )
    };
    let (victim, aggressors) = shared.tenants.split_last().expect("a victim ran");
    let (shared_report, shared_trace) = render(victim);
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
        seed: cfg.tenants[0].job.seed,
        protected: victim_spec.quota.slots > 0,
        victim_denials: victim.slot_denials,
        victim_fallback_rounds: victim.fallback_rounds,
        aggressor_denials: aggressors.iter().map(|t| t.slot_denials).sum(),
        aggressor_fallback_rounds: aggressors.iter().map(|t| t.fallback_rounds).sum(),
        victim_fingerprint: fp,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch_netsim::FattreeShape;

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
        let a = generate_schedule(Strategy::SyncIsw, 3, 7);
        let b = generate_schedule(Strategy::SyncIsw, 3, 7);
        assert_eq!(a, b);
        let c = generate_schedule(Strategy::SyncIsw, 3, 8);
        assert_ne!(a, c, "different seeds should differ");
        // Non-recovering strategies only get latency spikes.
        for strategy in [Strategy::SyncPs, Strategy::SyncAr, Strategy::AsyncPs] {
            let s = generate_schedule(strategy, 3, 7);
            assert!(s
                .faults
                .iter()
                .all(|f| matches!(f, ChaosFault::DelaySpike { .. })));
        }
    }

    #[test]
    fn a_stalled_run_checks_the_rounds_it_never_finished() {
        // Seeds 1 and 23 stall sync iSW on the tree and on the fat-tree: a
        // worker falls behind for good, so the rounds the others finish
        // without it never close in the record. Collection checks what they
        // applied against the workers that computed those rounds.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 1,
            hosts_per_rack: 2,
        };
        for seed in [1, 23] {
            let mut tree = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, seed);
            (tree.workers, tree.workers_per_rack) = (4, Some(2));
            let mut fattree = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, seed);
            (fattree.workers, fattree.fattree) = (shape.workers(), Some(shape));
            for cfg in [tree, fattree] {
                let report = run_chaos(&cfg);
                let lines = &report.violations;
                assert!(lines[0].starts_with("progress: run stalled"), "{lines:?}");
                assert!(lines
                    .iter()
                    .all(|v| v.starts_with("I2") || v.starts_with("progress")));
                let applied: usize = report.completed.iter().sum();
                assert_eq!(report.rounds_checked, applied, "seed {seed}: {lines:?}");

                // The same drive, stopped before collection.
                let mut job = build(&cfg, 0, Capture::default());
                let finished = |job: &Job| (0..cfg.workers).all(|w| job.progress(w) >= 10);
                assert!(job.run_until(finished).is_err(), "seed {seed}: no stall");
                let mut record = job.record().expect("a live sync iSW job keeps a record");
                assert!(record.held_rounds() > 0, "seed {seed}: every round closed");
                assert_eq!(record.close(), []);
                assert_eq!(record.held_rounds(), 0);
            }
        }
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
            let mut cfg = TimingConfig::chaos(Algorithm::Ppo, Strategy::SyncIsw, 1);
            let faults = vec![ChaosFault::EdgeDown {
                worker: 0,
                at: SimDuration::from_millis(10),
                duration,
            }];
            cfg.faults = Some(Faults {
                chaos_seed: 1,
                schedule: Some(ChaosSchedule { faults }),
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
}
