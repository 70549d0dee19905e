//! The one job lifecycle every run shares: [`validate`] → [`build`] →
//! drive ([`Job::run_until`], or [`Job::drive`] when something
//! interleaves) → [`Job::collect`].
//!
//! A *job* is one training strategy deployed on one topology, run by one
//! engine: a [`ShardedSim`] whose partition is a single domain for the
//! star and the trees and one domain per pod (plus the core) for the
//! fat-tree. Solo timing runs, tenants of a shared fabric, chaos runs and
//! co-simulations all build the same [`Job`]; they differ only in what
//! they feed it (a gradient source, a fault schedule, a tenant id) and in how
//! they pace its drive. Completion is *queue idle* for synchronous
//! strategies and *update count reached, checked every 200 ms of simulated
//! time* for asynchronous ones; at the same check points the drive gives up
//! on a job that still owes rounds and has finished none for
//! [`STALL_LIMIT`]. Everything the build placed is addressed as
//! `(domain, id)`.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use iswitch_core::{Accelerator, AggregationRole, CodecKind, ExtensionConfig, IswitchExtension};
use iswitch_netsim::{
    build_fattree, build_star, build_tree, build_tree3, host_ip, Fattree, FaultAction, Host,
    HostApp, IpAddr, LinkId, LinkSpec, LossModel, NodeId, PortId, ShardedSim, SimDuration,
    SimStats, SimTime, Switch, SwitchExtension, SwitchRole, TopologyConfig,
};
use iswitch_obs::{JsonValue, Timeseries, Trace, TraceEvent};
use iswitch_rl::paper_model;

use crate::apps::{
    AsyncPsServer, BackgroundFlow, IswAsyncProto, IswSyncProto, IterSpans, Pacing, PsAsyncProto,
    PsSyncProto, RingProto, StrategyProtocol, StrategyRuntime, SyncPsServer, WorkerCore,
    WorkerView,
};
use crate::chaos::SeededBug;
use crate::gradient_source::{live_sources, GradientSource, SyntheticGradients};
use crate::live_record::LiveRecord;
use crate::timing_runner::{
    Breakdown, Fidelity, PerfSample, Strategy, TimingConfig, TimingObservation, TimingResult,
};
use crate::transport::TransportStats;

/// Cadence at which asynchronous jobs check their update count. Every
/// driver steps on multiples of this, so an async job stops in the same
/// state whether it runs solo or as a tenant between arbiter barriers.
const CHECK_CADENCE: SimDuration = SimDuration::from_millis(200);

/// Simulated time a job that still owes rounds may go without one worker
/// finishing a round, or one scheduled fault falling due, before
/// [`Job::drive`] gives up on it. Recovery retries for ever, so such a job
/// never goes idle. The slowest round in the tree is DQN on a parameter
/// server at 81.6 ms (Table 4 anchor): 5 s is over 60 of them.
const STALL_LIMIT: SimDuration = SimDuration::from_secs(5);

/// Why [`Job::drive`] gave up on a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stall {
    /// The worker furthest behind (the lowest index among equals).
    worker: usize,
    /// Rounds that worker has completed.
    rounds: usize,
    /// The job-local check point that last saw any worker finish a round.
    last_progress_at: SimTime,
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} is furthest behind with {} round(s) finished, and no worker has finished \
             one since the check at {}: more than the {STALL_LIMIT} of simulated time a job may \
             go without. Recovery retries for ever for a round no switch can close",
            self.worker, self.rounds, self.last_progress_at
        )
    }
}

/// Splits `workers` into racks of at most `per_rack`.
pub(crate) fn rack_sizes(workers: usize, per_rack: usize) -> Vec<usize> {
    assert!(per_rack > 0);
    let mut left = workers;
    let mut out = Vec::new();
    while left > 0 {
        let take = left.min(per_rack);
        out.push(take);
        left -= take;
    }
    out
}

/// Rejects configurations no strategy can run, by panicking.
fn validate(cfg: &TimingConfig) {
    assert!(
        cfg.workers >= 2,
        "distributed training needs at least two workers"
    );
    assert!(cfg.iterations > 0, "must measure at least one iteration");
    assert!(cfg.threads >= 1, "a run needs at least one thread");
    assert!(
        cfg.workers_per_rack != Some(0),
        "a rack holds at least one worker"
    );
    assert!(
        cfg.racks_per_agg != Some(0),
        "an aggregation switch serves at least one rack"
    );
    let star = cfg.workers_per_rack.is_none() && cfg.fattree.is_none();
    assert!(
        cfg.background_flows == 0 || star,
        "background flows attach to the single-switch star topology"
    );
    assert!(
        cfg.threshold_override.is_none() || star,
        "a threshold override counts workers, so only the star's one switch takes it"
    );
    assert!(
        cfg.edge_loss <= 0.0 || cfg.strategy == Strategy::SyncIsw,
        "edge loss needs a recovery path and only iSW (Help/FBcast) has one: \
         {} would stall on the first lost packet",
        cfg.strategy.label()
    );
    assert!(
        matches!(cfg.bug, None | Some(SeededBug::SlotLeak)) || cfg.strategy == Strategy::SyncIsw,
        "the seeded retransmit and exponent bugs live in the sync iSW worker"
    );
    assert!(
        !matches!(cfg.bug, Some(SeededBug::ExponentStamp(_))) || cfg.codec == CodecKind::FixedPoint,
        "the exponent-stamp bug lives in the fixed-point encoder"
    );
    // A synthetic source's one shared store holds only honest payloads.
    assert!(
        !matches!(cfg.bug, Some(SeededBug::ExponentStamp(bias)) if bias != 0)
            || matches!(cfg.fidelity, Fidelity::Cosim { .. }),
        "the exponent bug needs a live gradient source"
    );
    if let Some(shape) = cfg.fattree {
        assert!(
            cfg.workers_per_rack.is_none() && cfg.racks_per_agg.is_none(),
            "a fat-tree's shape fixes its racks: leave workers_per_rack and racks_per_agg unset"
        );
        assert_eq!(
            cfg.workers,
            shape.workers(),
            "fat-tree runs derive the worker count from the shape: set \
             workers = aggs * racks_per_agg * hosts_per_rack"
        );
    }
}

/// The observability sinks a job records into while it runs.
#[derive(Default)]
pub(crate) struct Capture {
    /// The causal trace; a traced run also snapshots the metrics registry
    /// at collection. `None` for perf-sampling runs: an unset trace sink
    /// keeps the packet hot path free of any event-assembly cost.
    pub(crate) trace: Option<Arc<Trace>>,
    pub(crate) timeseries: Option<Arc<Timeseries>>,
}

/// A node's address in the job's engine.
type NodeRef = (usize, NodeId);

/// Recovers a worker host's [`WorkerView`]. Monomorphised over the
/// strategy's protocol when the job is built, so collection never matches
/// on the strategy.
type ViewFn = fn(&Host) -> &dyn WorkerView;

/// One built, drivable training job.
pub(crate) struct Job {
    pub(crate) strategy: Strategy,
    warmup: usize,
    sim: ShardedSim,
    /// OS threads driving the engine's domains; never changes a result.
    threads: usize,
    /// Where the build put the job's hosts and switches.
    pub(crate) placed: Placed,
    view: ViewFn,
    capture: Capture,
    /// What a synchronous iSwitch job's live replicas computed and applied;
    /// `None` for every other job.
    record: Option<Arc<Mutex<LiveRecord>>>,
    /// What the job owes: rounds per worker (synchronous, done once the
    /// queue has also drained) or updates on its update clock
    /// (asynchronous, done at the first check point that sees them).
    target: usize,
    /// Whether the completion rule has been met.
    pub(crate) done: bool,
    /// The job's clock: the last deadline driven to, or the time of the
    /// last event once done.
    pub(crate) local_now: SimTime,
    next_check: SimTime,
    /// The progress watch: rounds completed, summed over the workers, and
    /// the check point that last saw the sum grow.
    rounds: usize,
    progressed_at: SimTime,
    /// The latest scheduled fault. The network changes there, so no stall
    /// is declared until [`STALL_LIMIT`] past it: an outage that heals is
    /// slow, not stalled.
    faults_until: SimTime,
}

impl Job {
    /// Number of training workers.
    pub(crate) fn workers(&self) -> usize {
        self.placed.workers.len()
    }

    fn host(&self, (domain, node): NodeRef) -> &Host {
        self.sim.domain(domain).device::<Host>(node)
    }

    /// Post-run (or between-steps) view of worker `w`.
    pub(crate) fn worker(&self, w: usize) -> &dyn WorkerView {
        (self.view)(self.host(self.placed.workers[w]))
    }

    /// The job's live-run record, locked; `None` unless the job is
    /// synchronous iSwitch with live replicas.
    pub(crate) fn record(&self) -> Option<MutexGuard<'_, LiveRecord>> {
        let record = self.record.as_deref()?;
        Some(record.lock().expect("live record lock"))
    }

    /// The in-switch extension of every switch the job aggregates on,
    /// root-first.
    pub(crate) fn extensions(&self) -> impl Iterator<Item = &IswitchExtension> + '_ {
        (self.placed.switches.iter()).map(|&(domain, sw)| {
            let switch = self.sim.domain(domain).device::<Switch>(sw);
            switch.extension::<IswitchExtension>()
        })
    }

    /// Visits the accelerator of every switch the job aggregates on,
    /// root-first (fabric grants and demand accounting).
    pub(crate) fn accelerators(&mut self, mut f: impl FnMut(&mut Accelerator)) {
        for &(domain, sw) in &self.placed.switches {
            f(self
                .sim
                .domain_mut(domain)
                .device_mut::<Switch>(sw)
                .extension_mut::<IswitchExtension>()
                .accelerator_mut());
        }
    }

    /// Schedules one fault action in the domain its target lives in.
    pub(crate) fn schedule_fault(&mut self, domain: usize, at: SimTime, action: FaultAction) {
        self.sim.domain_mut(domain).schedule_fault(at, action);
        self.faults_until = self.faults_until.max(at);
    }

    /// The engine's counters so far, summed over its domains.
    pub(crate) fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Rounds worker `w` has completed: logged iterations (sync) or weight
    /// updates (async) — on the job's update clock, so a parameter-server
    /// worker, which keeps no update log, counts the server's.
    pub(crate) fn progress(&self, w: usize) -> usize {
        if !self.strategy.is_async() {
            self.worker(w).log().len()
        } else if self.placed.server.is_some() {
            self.update_times().len()
        } else {
            self.worker(w).update_times().len()
        }
    }

    fn async_server(&self) -> Option<&AsyncPsServer> {
        let server = self.placed.server.filter(|_| self.strategy.is_async());
        server.map(|at| self.host(at).app::<AsyncPsServer>())
    }

    /// The job's update clock: completion time of every global weight
    /// update (asynchronous strategies).
    pub(crate) fn update_times(&self) -> &[SimTime] {
        match self.async_server() {
            Some(server) => &server.update_times,
            None => self.worker(0).update_times(),
        }
    }

    /// Staleness of every committed gradient, in worker order.
    pub(crate) fn staleness(&self) -> Vec<u32> {
        match self.async_server() {
            Some(server) => server.staleness().to_vec(),
            None => (0..self.workers())
                .flat_map(|w| self.worker(w).staleness())
                .copied()
                .collect(),
        }
    }

    /// The one place a job advances and the one place it is given up on:
    /// runs the simulation to local time `deadline`, pausing at every
    /// 200 ms check point on the way and stopping early once the
    /// completion rule is met — queue idle (sync), or the update target
    /// reached at a check point (async) — or a check point finds the job
    /// hopeless ([`Job::watch`]).
    pub(crate) fn drive(&mut self, deadline: SimTime) -> Result<(), Stall> {
        while !self.done && self.local_now < deadline {
            let until = self.next_check.min(deadline);
            self.sim.run_until(until, self.threads);
            self.local_now = until;
            let at_check = until == self.next_check;
            self.done = if self.strategy.is_async() {
                at_check && self.update_times().len() >= self.target
            } else {
                self.sim.is_idle()
            };
            if at_check {
                self.next_check += CHECK_CADENCE;
                if !self.done {
                    self.watch()?;
                }
            }
        }
        if self.done {
            self.local_now = self.sim.now();
        }
        Ok(())
    }

    /// The one stop rule, applied at a check point of an unfinished job:
    /// stalled means some worker still owes rounds (sync; a finished job
    /// draining its queue is not idle yet, and not stalled) or the update
    /// target is unmet (async), and no worker has finished a round, nor a
    /// scheduled fault fallen due, for [`STALL_LIMIT`].
    fn watch(&mut self) -> Result<(), Stall> {
        let per_worker = (0..self.workers()).map(|w| (self.progress(w), w));
        let rounds = per_worker.clone().map(|(rounds, _)| rounds).sum();
        let (behind, worker) = per_worker.min().expect("a job has workers");
        if rounds > self.rounds {
            (self.rounds, self.progressed_at) = (rounds, self.local_now);
        }
        let owes = self.strategy.is_async() || behind < self.target;
        let quiet_since = self.progressed_at.max(self.faults_until);
        if owes && self.local_now.saturating_duration_since(quiet_since) > STALL_LIMIT {
            return Err(Stall {
                worker,
                rounds: behind,
                last_progress_at: self.progressed_at,
            });
        }
        Ok(())
    }

    /// The loop of every caller with nothing to interleave: drives check
    /// point by check point until the completion rule is met, `stop` holds
    /// at one, or the drive gives up.
    pub(crate) fn run_until(&mut self, stop: impl Fn(&Job) -> bool) -> Result<(), Stall> {
        while !self.done {
            self.drive(self.next_check)?;
            if stop(self) {
                break;
            }
        }
        Ok(())
    }

    /// Folds the finished workers into the run's observation (untraced
    /// runs get an empty trace and metrics object). Metrics are captured
    /// before the per-iteration summary events are appended to the trace.
    pub(crate) fn collect(&self) -> (TimingObservation, PerfSample) {
        let trace = self.capture.trace.as_deref();
        let metrics = trace.map_or_else(JsonValue::empty_object, |_| self.sim.metrics_json());
        let stats = self.sim.stats();
        let perf = PerfSample {
            events: stats.events_processed,
            packets_sent: stats.packets_sent,
            packets_delivered: stats.packets_delivered,
            sim_ns: self.sim.now().as_nanos(),
            ecn_marked: stats.packets_ecn_marked,
            dropped_queue: stats.packets_dropped_queue,
            dropped_link_down: stats.packets_dropped_link_down,
            barrier_stall_ns: stats.barrier_stall_ns,
            epochs: stats.epochs,
        };
        let views: Vec<&dyn WorkerView> = (0..self.workers()).map(|w| self.worker(w)).collect();
        let transport = views.iter().fold(TransportStats::default(), |acc, v| {
            acc.merged(v.transport_stats())
        });
        let result = if self.strategy.is_async() {
            let times = self.update_times();
            trace_updates(trace, times, self.warmup);
            let (per_iteration, measured) = mean_update_interval(times, self.warmup);
            // Only the parameter server discards: iSwitch's bound check
            // happens before the commit.
            let discarded = self.async_server().map_or(0, AsyncPsServer::discarded);
            let staleness = self.staleness();
            let pushed = staleness.len() as f64 + discarded as f64;
            TimingResult {
                per_iteration,
                breakdown: Breakdown {
                    compute: SimDuration::ZERO,
                    aggregation: per_iteration,
                    update: SimDuration::ZERO,
                },
                staleness,
                discard_fraction: if pushed > 0.0 {
                    discarded as f64 / pushed
                } else {
                    0.0
                },
                iterations_measured: measured,
                transport,
            }
        } else {
            summarize_sync_logs(
                self.strategy,
                &views,
                self.warmup,
                perf.dropped_queue,
                trace,
                transport,
            )
        };
        let trace = self.capture.trace.clone().unwrap_or_default();
        trace.flush();
        let observation = TimingObservation {
            result,
            metrics,
            trace,
            timeseries: self.capture.timeseries.clone(),
        };
        (observation, perf)
    }
}

/// Builds one job, after [`validate`] (a refused configuration panics):
/// run metadata into the trace, the strategy's workers (and server) with
/// any seeded bug, the topology with its in-switch extensions, then the
/// tenant id (0 outside multi-tenant runs), sinks, event cap and fault
/// schedule.
///
/// A [`Fidelity::Cosim`] run's workers get live replicas, made here; a
/// synchronous iSwitch one also gets the job's [`LiveRecord`], which its
/// replicas report to and [`Job::record`] reads. Timing fidelity pushes
/// synthetic paper-sized gradients and reaches no RL code.
pub(crate) fn build(cfg: &TimingConfig, tenant: u64, capture: Capture) -> Job {
    validate(cfg);
    // Workers per rack, in rack order (pod-major on the fat-tree, exactly
    // like build_tree3/build_fattree); a star is one rack.
    let racks = match (cfg.fattree, cfg.workers_per_rack) {
        (Some(shape), _) => vec![shape.hosts_per_rack; shape.racks()],
        (None, Some(per_rack)) => rack_sizes(cfg.workers, per_rack),
        (None, None) => vec![cfg.workers],
    };
    let worker_ips: Vec<IpAddr> = (racks.iter().enumerate())
        .flat_map(|(r, &k)| (0..k).map(move |i| host_ip(r, i)))
        .collect();
    // A parameter server takes the slot after the workers on the star, the
    // extra host of the first rack on a tree or fat-tree.
    let server_ip = host_ip(0, racks[0]);
    emit_run_meta(cfg, &worker_ips, server_ip, capture.trace.as_deref());
    let live = matches!(cfg.fidelity, Fidelity::Cosim { .. });
    let record = (live && cfg.strategy == Strategy::SyncIsw)
        .then(|| Arc::new(Mutex::new(LiveRecord::new(cfg.workers, cfg.codec))));
    let apps = make_apps(cfg, &worker_ips, server_ip, record.as_ref());
    let (mut sim, placed) = build_topology(cfg, &racks, apps.grad_len, apps.workers, apps.server);
    // The tenant id goes in before the trace, so no traced event can
    // predate its stamp.
    sim.set_tenant(tenant);
    if let Some(trace) = &capture.trace {
        sim.set_trace(Arc::clone(trace));
    }
    if let Some(ts) = &capture.timeseries {
        sim.set_timeseries(Arc::clone(ts));
    }
    let mut job = Job {
        strategy: cfg.strategy,
        warmup: cfg.warmup,
        sim,
        threads: cfg.threads,
        placed,
        view: apps.view,
        capture,
        record,
        // An update interval needs two updates: one more than the rounds.
        target: cfg.warmup + cfg.iterations + usize::from(cfg.strategy.is_async()),
        done: false,
        local_now: SimTime::ZERO,
        next_check: SimTime::ZERO + CHECK_CADENCE,
        rounds: 0,
        progressed_at: SimTime::ZERO,
        faults_until: SimTime::ZERO,
    };
    if let Some(faults) = &cfg.faults {
        let schedule = faults.schedule(cfg.strategy, cfg.workers);
        for (domain, at, action) in schedule.resolve(&job.placed.worker_links, faults.chaos_seed) {
            job.schedule_fault(domain, at, action);
        }
    }
    job
}

/// The host applications of one job.
struct Apps {
    workers: Vec<Box<dyn HostApp>>,
    server: Option<Box<dyn HostApp>>,
    view: ViewFn,
    /// Gradient length the switches aggregate; `None` for host-side
    /// strategies, whose switches only forward.
    grad_len: Option<usize>,
}

fn view_of<P: StrategyProtocol>(host: &Host) -> &dyn WorkerView {
    host.app::<StrategyRuntime<P>>()
}

/// Boxes one worker per index and pairs them with their view.
fn workers_of<P: StrategyProtocol>(
    n: usize,
    mut mk: impl FnMut(usize) -> StrategyRuntime<P>,
) -> (Vec<Box<dyn HostApp>>, ViewFn) {
    let apps = (0..n)
        .map(|w| Box::new(mk(w)) as Box<dyn HostApp>)
        .collect();
    (apps, view_of::<P>)
}

/// The worker + server factory: the only place a run's host applications
/// are constructed. Every worker is one [`WorkerCore`] (jitter seeded
/// `seed + w`), its protocol's one constructor over a transport configured
/// here, and a gradient source — worker `w`'s live replica, reporting to
/// `record` if given, or the job's synthetic one — joined by
/// [`StrategyRuntime::from_parts`]; the server seeds its jitter with
/// `seed + 0xFF`.
fn make_apps(
    cfg: &TimingConfig,
    worker_ips: &[IpAddr],
    server_ip: IpAddr,
    record: Option<&Arc<Mutex<LiveRecord>>>,
) -> Apps {
    let sources = live_sources(cfg, record);
    let paper = paper_model(cfg.algorithm);
    let model = cfg.compute_model();
    let bytes = paper.bytes() as u64;
    // Timing fidelity pushes the paper-sized model, one collective per
    // constituent network (DDPG's dual model aggregates actor and critic
    // separately); live sources push their own gradient as one.
    let (len, msgs) = match &sources {
        Some(live) => (live[0].grad_len(), 1),
        None => (paper.param_count(), paper.networks.len() as u64),
    };
    // One synthetic source per job: its iSwitch workers share the payloads
    // it encodes on first use, and host-side workers never touch it.
    let synthetic = SyntheticGradients::new(len);
    let mut sources = sources.map(Vec::into_iter);
    let mut source = || -> Box<dyn GradientSource> {
        match &mut sources {
            Some(live) => Box::new(live.next().expect("one gradient source per worker")),
            None => Box::new(synthetic.clone()),
        }
    };
    let core = |w: usize, pacing| {
        let seed = cfg.seed.wrapping_add(w as u64);
        WorkerCore::new(model.clone(), cfg.comm.clone(), msgs, seed, pacing)
    };
    let sync = Pacing::Sync {
        iterations: cfg.warmup + cfg.iterations,
    };
    let n = cfg.workers;
    let server_seed = cfg.seed.wrapping_add(0xFF);
    let mut server: Option<Box<dyn HostApp>> = None;
    let (workers, view) = match cfg.strategy {
        Strategy::SyncPs => {
            let workers = workers_of(n, |w| {
                let proto = PsSyncProto::new(server_ip, bytes, cfg.make_transport());
                StrategyRuntime::from_parts(core(w, sync), proto, Box::new(synthetic.clone()))
            });
            server = Some(Box::new(SyncPsServer::new(
                worker_ips.to_vec(),
                bytes,
                msgs,
                model.clone(),
                cfg.comm.clone(),
                server_seed,
            )));
            workers
        }
        Strategy::SyncAr => workers_of(n, |w| {
            let next = worker_ips[(w + 1) % n];
            let proto = RingProto::new(n, next, bytes, cfg.make_transport());
            StrategyRuntime::from_parts(core(w, sync), proto, Box::new(synthetic.clone()))
        }),
        Strategy::SyncIsw => {
            // Loss recovery: retry somewhat after a full round would
            // normally complete (serialization up + broadcast down + jitter
            // headroom). Round tags make premature retries harmless and the
            // worker caps each retry's Help batch, so the timeout only
            // trades recovery latency. The seeded retransmit bug retries
            // aggressively instead, so its retransmissions land before the
            // stale sweep can paper over them: the double count must reach
            // an aggregate.
            let recovery_timeout = match cfg.bug {
                Some(SeededBug::NaiveRetransmit) => Some(SimDuration::from_micros(500)),
                _ => cfg.lossy().then(|| {
                    SimDuration::serialization(
                        codec_wire_bytes(cfg.codec, len),
                        cfg.topo.edge.bandwidth_bps,
                    ) * 3
                        + SimDuration::from_millis(3)
                }),
            };
            let exp_bias = match cfg.bug {
                Some(SeededBug::ExponentStamp(bias)) => bias,
                _ => 0,
            };
            workers_of(n, |w| {
                let mut transport = cfg.make_transport();
                if let Some(timeout) = recovery_timeout {
                    transport.set_recovery_timeout(timeout);
                }
                if cfg.bug == Some(SeededBug::NaiveRetransmit) {
                    transport.seed_protocol_bug();
                }
                let source = source();
                let proto = IswSyncProto::new(&*source, cfg.codec, exp_bias, transport);
                StrategyRuntime::from_parts(core(w, sync), proto, source)
            })
        }
        Strategy::AsyncPs => {
            let workers = workers_of(n, |w| {
                let proto = PsAsyncProto::new(server_ip, bytes, cfg.make_transport());
                let core = core(w, Pacing::Driven);
                StrategyRuntime::from_parts(core, proto, Box::new(synthetic.clone()))
            });
            server = Some(Box::new(AsyncPsServer::new(
                bytes,
                msgs,
                model.clone(),
                cfg.comm.clone(),
                cfg.staleness_bound,
                server_seed,
            )));
            workers
        }
        Strategy::AsyncIsw => {
            let pipelined = Pacing::Pipelined {
                staleness_bound: cfg.staleness_bound,
            };
            workers_of(n, |w| {
                let source = source();
                let proto = IswAsyncProto::new(&*source, cfg.codec, cfg.make_transport());
                StrategyRuntime::from_parts(core(w, pipelined), proto, source)
            })
        }
    };
    let in_switch = matches!(cfg.strategy, Strategy::SyncIsw | Strategy::AsyncIsw);
    Apps {
        workers,
        server,
        view,
        grad_len: in_switch.then_some(len),
    }
}

/// Bytes one worker pushes per round under `codec` — the serialization
/// term of the recovery/stale-flush timeout formulas. F32 keeps the
/// legacy `len * 4` payload bound exactly (timeout values feed replay
/// identity); the quantized codecs sum their real per-segment packet
/// sizes, so smaller wire formats get proportionally tighter timers.
fn codec_wire_bytes(codec: CodecKind, len: usize) -> usize {
    if codec == CodecKind::F32 {
        return len * 4;
    }
    let elems = codec.elems_per_segment();
    let c = codec.codec();
    let mut bytes = (len / elems) * c.contribution_bytes(elems);
    if !len.is_multiple_of(elems) {
        bytes += c.contribution_bytes(len % elems);
    }
    bytes
}

/// The switch-extension constructor: the accelerator of `switch` in a
/// hierarchy whose ToR `r` has `tors[r]` hosts, AGG `a` has `aggs[a]` racks
/// and whose root has `top` children (a star is a root over its workers,
/// with no racks). Children sit on ports `0..children`, the uplink after
/// them. Every switch of every shape takes the run's tuning; the star keeps
/// its own switch address. `None` when the strategy aggregates on hosts
/// (`len` is `None`) and switches only forward.
fn switch_extension(
    cfg: &TimingConfig,
    len: Option<usize>,
    switch: SwitchRole,
    (tors, aggs, top): (&[usize], &[usize], usize),
) -> Option<Box<dyn SwitchExtension>> {
    let len = len?;
    let below_root = |children: usize| {
        let uplink = PortId::new(children);
        (AggregationRole::Intermediate { uplink }, children)
    };
    let (role, children) = match switch {
        SwitchRole::Tor(r) => below_root(tors[r]),
        SwitchRole::Agg(a) => below_root(aggs[a]),
        SwitchRole::Core => (AggregationRole::Root, top),
    };
    let ports: Vec<PortId> = (0..children).map(PortId::new).collect();
    let mut ext = if tors.is_empty() {
        ExtensionConfig::for_star(ports, len)
    } else {
        ExtensionConfig::for_tree_level(role, ports, len)
    };
    ext.codec = cfg.codec;
    ext.mode = cfg.aggregation_mode;
    if cfg.lossy() {
        // Expire partial rounds stuck on a lost contribution (round tags
        // keep expired flushes from polluting newer rounds).
        let age = SimDuration::serialization(
            codec_wire_bytes(cfg.codec, len),
            cfg.topo.edge.bandwidth_bps,
        ) + SimDuration::from_millis(2);
        ext.stale_flush = Some(age);
    }
    // Only ever set on a star: `validate` refuses it elsewhere.
    if let Some(h) = cfg.threshold_override {
        ext.threshold = h;
    }
    // The multi-tenant datapath flags; both default off.
    if cfg.host_fallback {
        ext = ext.with_host_fallback();
    }
    if cfg.bug == Some(SeededBug::SlotLeak) {
        ext = ext.with_slot_leak_bug();
    }
    Some(Box::new(IswitchExtension::new(ext)))
}

/// Where [`build_topology`] put the job's hosts and switches, each as
/// `(domain, id)`.
pub(crate) struct Placed {
    workers: Vec<NodeRef>,
    /// Edge link of each worker, index-aligned with the workers — the
    /// fault-plan targets.
    pub(crate) worker_links: Vec<(usize, LinkId)>,
    /// Every switch carrying an [`IswitchExtension`], root-first (core,
    /// then AGGs, then ToRs; a star has just its one switch) — the grant
    /// and churn-reset targets. Empty for host-side strategies, which hold
    /// no fabric resources.
    pub(crate) switches: Vec<NodeRef>,
    /// The parameter server. The asynchronous one's update log is the
    /// job's update clock (async iSwitch reads worker 0's instead).
    server: Option<NodeRef>,
}

/// The physical link specs of a run: the configured egress queue on every
/// edge and uplink direction, random loss on the edge links.
fn physical_specs(cfg: &TimingConfig) -> TopologyConfig {
    let mut topo = cfg.topo.clone();
    if let Some(q) = cfg.queue {
        topo.edge.queue = Some(q);
        topo.uplink.queue = Some(q);
    }
    if cfg.edge_loss > 0.0 {
        topo.edge.loss = LossModel::Random {
            probability: cfg.edge_loss,
            seed: cfg.seed,
        };
    }
    topo
}

/// The AGG↔Core links of the sharded fat-tree: uplink bandwidth with the
/// longer propagation of inter-pod fibre runs (paper §3.4 scales beyond a
/// single rack). The propagation is also the conservative lookahead bound
/// of the sharded engine, so the longer fibre directly widens the parallel
/// epochs.
fn core_uplink_spec(topo: &TopologyConfig) -> LinkSpec {
    let mut spec = topo.uplink.clone();
    spec.propagation = spec.propagation.max(SimDuration::from_micros(5));
    spec
}

/// Tags each id of a per-pod nesting with the domain its pod lives in.
fn in_pods<T>(
    pods: impl IntoIterator<Item = impl IntoIterator<Item = T>>,
    pod_domain: fn(usize) -> usize,
) -> Vec<(usize, T)> {
    (pods.into_iter().enumerate())
        .flat_map(|(a, pod)| pod.into_iter().map(move |id| (pod_domain(a), id)))
        .collect()
}

/// Wires the worker apps (plus an optional server) into the configured
/// topology — star, two-level tree, three-level tree, or fat-tree — with
/// an in-switch extension on every switch when `len` is set. Only the
/// fat-tree cuts the partition (one domain per pod plus the core's);
/// every other shape is the one-domain partition. Host-side strategies
/// ignore `racks_per_agg`: off the fat-tree they have always run on the
/// two-level tree.
fn build_topology(
    cfg: &TimingConfig,
    sizes: &[usize],
    len: Option<usize>,
    mut apps: Vec<Box<dyn HostApp>>,
    server: Option<Box<dyn HostApp>>,
) -> (ShardedSim, Placed) {
    let topo = physical_specs(cfg);
    let n = cfg.workers;
    let has_server = server.is_some();
    let isw_switches = |switches: Vec<NodeRef>| if len.is_some() { switches } else { Vec::new() };
    let mut sim = ShardedSim::new();

    if cfg.fattree.is_none() && cfg.workers_per_rack.is_none() {
        // Child ports are the *workers* only: the server and background
        // hosts sit on higher ports and stay ordinary FIB traffic, never
        // counted toward the aggregation threshold.
        apps.extend(server);
        append_background(&mut apps, cfg);
        let ext = switch_extension(cfg, len, SwitchRole::Core, (&[], &[], n));
        sim.add_domain();
        let star = build_star(sim.domain_mut(0), apps, ext, &topo);
        let placed = Placed {
            workers: star.hosts[..n].iter().map(|&h| (0, h)).collect(),
            worker_links: star.host_links[..n].iter().map(|&l| (0, l)).collect(),
            switches: isw_switches(vec![(0, star.switch)]),
            server: has_server.then(|| (0, star.hosts[n])),
        };
        return (sim, placed);
    }

    // Racks per AGG of a three-level hierarchy.
    let fanout = match cfg.fattree {
        Some(shape) => Some(shape.racks_per_agg),
        None => cfg.racks_per_agg.filter(|_| len.is_some()),
    };
    let n_racks = sizes.len();
    let mut rest = apps.into_iter();
    let mut racks: Vec<Vec<Box<dyn HostApp>>> = sizes
        .iter()
        .map(|&k| rest.by_ref().take(k).collect())
        .collect();
    // The PS server joins the first rack (extra port on ToR 0), so it sits
    // at flattened host index `sizes[0]`.
    racks[0].extend(server);
    let (mut hosts, mut links, switches) = match fanout {
        None => {
            sim.add_domain();
            let tree = build_tree(
                sim.domain_mut(0),
                racks,
                &mut |role| switch_extension(cfg, len, role, (sizes, &[], n_racks)),
                &topo,
            );
            let switches = std::iter::once(tree.core).chain(tree.tors);
            (
                tree.hosts.into_iter().flatten().map(|h| (0, h)).collect(),
                (tree.host_links.into_iter().flatten())
                    .map(|l| (0, l))
                    .collect(),
                switches.map(|sw| (0, sw)).collect(),
            )
        }
        Some(fanout) => {
            let group_sizes = rack_sizes(n_racks, fanout);
            let mut rest = racks.into_iter();
            let grouped = group_sizes
                .iter()
                .map(|&k| rest.by_ref().take(k).collect())
                .collect();
            let sizes = (sizes, &group_sizes[..], group_sizes.len());
            // Same hierarchy either way; the fat-tree cuts it between the
            // AGGs and the core, one domain per pod.
            let (tree3, pod_domain): (_, fn(usize) -> usize) = if cfg.fattree.is_some() {
                let ft = build_fattree(
                    &mut sim,
                    grouped,
                    &mut |role| switch_extension(cfg, len, role, sizes),
                    &topo,
                    &core_uplink_spec(&topo),
                );
                (ft.tree, Fattree::pod_domain)
            } else {
                sim.add_domain();
                let tree3 = build_tree3(
                    sim.domain_mut(0),
                    grouped,
                    &mut |role| switch_extension(cfg, len, role, sizes),
                    &topo,
                );
                (tree3, |_| 0)
            };
            let mut switches = vec![(Fattree::CORE_DOMAIN, tree3.core)];
            switches.extend(in_pods(tree3.aggs.into_iter().map(Some), pod_domain));
            switches.extend(in_pods(tree3.tors, pod_domain));
            (
                in_pods(tree3.hosts.into_iter().map(|pod| pod.concat()), pod_domain),
                in_pods(
                    tree3.host_links.into_iter().map(|pod| pod.concat()),
                    pod_domain,
                ),
                switches,
            )
        }
    };
    let server = has_server.then(|| {
        links.remove(sizes[0]);
        hosts.remove(sizes[0])
    });
    let placed = Placed {
        workers: hosts,
        worker_links: links,
        switches: isw_switches(switches),
        server,
    };
    (sim, placed)
}

/// Appends `cfg.background_flows` bursting sources plus one counting sink
/// to a star topology's app list. Sources stagger deterministically off
/// the run seed; the burst budget scales with the run length so the
/// cross traffic spans the measured window yet always drains (the
/// simulator still reaches idle).
fn append_background(apps: &mut Vec<Box<dyn HostApp>>, cfg: &TimingConfig) {
    if cfg.background_flows == 0 {
        return;
    }
    let sink_ip = host_ip(0, apps.len() + cfg.background_flows);
    let bursts = (cfg.warmup + cfg.iterations) as u64 * 8;
    for j in 0..cfg.background_flows {
        apps.push(Box::new(BackgroundFlow::source(
            sink_ip,
            cfg.seed.wrapping_add(j as u64),
            bursts,
        )));
    }
    apps.push(Box::new(BackgroundFlow::sink()));
}

/// Records run-level metadata at the head of the trace: the experiment
/// shape (one `run` event) and the worker index ↔ IPv4 mapping (one
/// `worker` event each) that analyzers use to resolve the `worker`
/// attribute causal events carry (the address as `u32`).
fn emit_run_meta(
    cfg: &TimingConfig,
    worker_ips: &[IpAddr],
    server_ip: IpAddr,
    trace: Option<&Trace>,
) {
    let Some(trace) = trace else {
        return;
    };
    let mut run_ev = TraceEvent::new(0, "run")
        .with_str("strategy", cfg.strategy.label())
        .with_str("algorithm", cfg.algorithm)
        .with_u64("workers", cfg.workers as u64)
        .with_u64("iterations", cfg.iterations as u64)
        .with_u64("warmup", cfg.warmup as u64)
        .with_u64("seed", cfg.seed);
    if cfg.codec != CodecKind::F32 {
        // Only non-default codecs appear: f32 runs keep the exact byte
        // layout of pre-codec trace artifacts.
        run_ev = run_ev.with_str("codec", cfg.codec.label());
    }
    if let Some(shape) = cfg.fattree {
        // Fat-tree runs only: existing (non-fattree) traces keep their exact
        // byte layout. `threads` is deliberately omitted — artifacts must
        // not depend on how many threads executed the run.
        run_ev = run_ev
            .with_u64("pods", shape.aggs as u64)
            .with_u64("racks_per_pod", shape.racks_per_agg as u64)
            .with_u64("hosts_per_rack", shape.hosts_per_rack as u64);
    }
    trace.record(run_ev);
    let host_ev = |ev: TraceEvent, ip: IpAddr| {
        ev.with_u64("addr", u64::from(ip.as_u32()))
            .with_str("ip", ip)
    };
    for (i, &ip) in worker_ips.iter().enumerate() {
        trace.record(host_ev(
            TraceEvent::new(0, "worker").with_u64("index", i as u64),
            ip,
        ));
    }
    if matches!(cfg.strategy, Strategy::SyncPs | Strategy::AsyncPs) {
        trace.record(host_ev(
            TraceEvent::new(0, "host").with_str("role", "server"),
            server_ip,
        ));
    }
}

/// Folds per-worker iteration logs into the mean breakdown, emitting one
/// `iteration` trace event per logged iteration when a trace is attached.
///
/// # Panics
///
/// Panics, naming the stalled worker, if one logged no iteration past the
/// warmup: the run went idle before it could be measured (a host-side
/// strategy that lost a packet to a full queue has nothing to resend it).
fn summarize_sync_logs(
    strategy: Strategy,
    workers: &[&dyn WorkerView],
    warmup: usize,
    dropped_queue: u64,
    trace: Option<&Trace>,
    transport: TransportStats,
) -> TimingResult {
    let mut spans: Vec<IterSpans> = Vec::new();
    let mut measured = 0;
    for (widx, log) in workers.iter().map(|w| w.log()).enumerate() {
        if let Some(trace) = trace {
            for (i, (span, end)) in log.spans().iter().zip(log.end_times()).enumerate() {
                trace.record(
                    TraceEvent::new(end.as_nanos(), "iteration")
                        .with_u64("worker", widx as u64)
                        .with_u64("iter", i as u64)
                        .with_str("phase", if i < warmup { "warmup" } else { "measure" })
                        .with_u64("lgc_ns", span.compute.as_nanos())
                        .with_u64("ga_ns", span.aggregation.as_nanos())
                        .with_u64("lwu_ns", span.update.as_nanos())
                        .with_u64("total_ns", span.total().as_nanos()),
                );
            }
        }
        assert!(
            log.len() > warmup,
            "{} run stalled before it could be measured: worker {widx} logged {} iteration(s), \
             {} needed; dropped_queue = {dropped_queue} packet(s) tail-dropped by full egress queues",
            strategy.label(),
            log.len(),
            warmup + 1,
        );
        spans.push(log.mean_after(warmup));
        measured += log.len().saturating_sub(warmup);
    }
    let n = spans.len() as u64;
    let mean = |f: fn(&IterSpans) -> SimDuration| {
        SimDuration::from_nanos(spans.iter().map(|s| f(s).as_nanos()).sum::<u64>() / n)
    };
    let breakdown = Breakdown {
        compute: mean(|s| s.compute),
        aggregation: mean(|s| s.aggregation),
        update: mean(|s| s.update),
    };
    TimingResult {
        per_iteration: breakdown.total(),
        breakdown,
        staleness: Vec::new(),
        discard_fraction: 0.0,
        iterations_measured: measured,
        transport,
    }
}

/// Mean interval between consecutive update timestamps after warmup.
fn mean_update_interval(times: &[SimTime], warmup: usize) -> (SimDuration, usize) {
    assert!(
        times.len() > warmup + 1,
        "need more than {warmup} + 1 updates, got {}",
        times.len()
    );
    let tail = &times[warmup..];
    let span = tail.last().expect("non-empty").duration_since(tail[0]);
    let n = tail.len() - 1;
    (span / n as u64, n)
}

/// Emits one `update` event per observed weight-update timestamp.
fn trace_updates(trace: Option<&Trace>, times: &[SimTime], warmup: usize) {
    let Some(trace) = trace else {
        return;
    };
    for (i, t) in times.iter().enumerate() {
        let mut ev = TraceEvent::new(t.as_nanos(), "update")
            .with_u64("index", i as u64)
            .with_str("phase", if i < warmup { "warmup" } else { "measure" });
        if i > 0 {
            ev = ev.with_u64("interval_ns", t.duration_since(times[i - 1]).as_nanos());
        }
        trace.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch_netsim::FattreeShape;
    use iswitch_rl::Algorithm;

    /// Report, trace and timeseries of a traced, telemetry-sampled PPO job
    /// on a 2×2×2 fat-tree, driven to completion by `drive`.
    fn exports(strategy: Strategy, threads: usize, drive: impl FnOnce(&mut Job)) -> [String; 3] {
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, strategy);
        (cfg.iterations, cfg.warmup) = (4, 1);
        cfg.workers = shape.workers();
        cfg.fattree = Some(shape);
        cfg.threads = threads;
        let capture = Capture {
            trace: Some(Arc::default()),
            timeseries: Some(Arc::default()),
        };
        let mut job = build(&cfg, 0, capture);
        drive(&mut job);
        assert!(job.done, "{strategy:?}: the drive must finish the job");
        let (obs, _) = job.collect();
        let mut ts = Vec::new();
        let sink = obs.timeseries.as_ref().expect("sampled run");
        sink.to_jsonl(&mut ts).expect("jsonl to memory");
        [
            obs.report_json().render(),
            obs.trace.to_jsonl(),
            String::from_utf8(ts).expect("jsonl is utf-8"),
        ]
    }

    fn quick_job(strategy: Strategy) -> Job {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, strategy);
        (cfg.iterations, cfg.warmup) = (4, 1);
        build(&cfg, 0, Capture::default())
    }

    #[test]
    fn async_ps_progress_is_the_servers_update_count() {
        // The stall rule and the completion rule read one update clock. An
        // async-PS worker keeps no update log — the server owns the clock —
        // so reading the workers' logs called a healthy tenant stalled.
        let mut job = quick_job(Strategy::AsyncPs);
        let mut seen = 0;
        for ms in [50, 100, 150] {
            job.drive(SimTime::ZERO + SimDuration::from_millis(ms))
                .expect("a healthy job");
            assert_eq!(job.progress(0), job.update_times().len());
            assert!(job.progress(0) > seen, "no update in 50 ms");
            seen = job.progress(0);
        }
        assert!(job.worker(0).update_times().is_empty());
    }

    #[test]
    fn a_round_whose_every_contribution_was_lost_is_resent_on_request() {
        // Seed 2 at 5 % edge loss drops all four contributions of (round 11,
        // segment 18): the switch never opens the round, so it answers a
        // `Help` for it by asking for that worker's contribution back.
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        (cfg.iterations, cfg.edge_loss, cfg.seed) = (30, 0.05, 2);
        let mut job = build(&cfg, 0, Capture::default());
        assert_eq!(job.run_until(|_| false), Ok(()));
        let rounds = cfg.warmup + cfg.iterations;
        assert!((0..job.workers()).all(|w| job.progress(w) == rounds));
        let resends: u64 = job.extensions().map(|e| e.stats().resend_requests).sum();
        assert!(resends > 0, "no resend request");
    }

    #[test]
    fn a_livelocked_job_is_given_up_on_within_the_stall_limit() {
        // Worker 0's edge link goes down for good at 30 ms, when it has
        // finished three rounds. A faulted job recovers, so its Help
        // retries go nowhere for ever and the job never idles. The other
        // workers' rounds are last seen finishing at the 200 ms check, and
        // the job is refused at the first check point more than
        // `STALL_LIMIT` past that (and past the fault).
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        (cfg.iterations, cfg.warmup, cfg.faulted) = (4, 1, true);
        let mut job = build(&cfg, 0, Capture::default());
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let (domain, link) = job.placed.worker_links[0];
        job.schedule_fault(domain, at(30), FaultAction::LinkDown { link });
        let stall = job.run_until(|_| false).expect_err("worker 0 is cut off");
        let expected = Stall {
            worker: 0,
            rounds: 3,
            last_progress_at: at(200),
        };
        assert_eq!(stall, expected);
        assert_eq!(job.local_now, at(5_400), "one check point past the limit");
    }

    #[test]
    fn a_finished_job_with_a_fault_still_to_come_is_driven_to_idle() {
        // Finished is not idle, and a pending fault is not a stall: every
        // round is logged within 100 ms, the queue holds a fault action
        // 30 s out, and the drive runs through it instead of refusing.
        let mut job = quick_job(Strategy::SyncIsw);
        let (domain, link) = job.placed.worker_links[0];
        let at = SimTime::ZERO + SimDuration::from_secs(30);
        job.schedule_fault(domain, at, FaultAction::LinkUp { link });
        assert_eq!(job.run_until(|_| false), Ok(()));
        assert!(job.done && job.local_now >= at, "{}", job.local_now);
        assert_eq!(job.stats().faults_applied, 1);
        assert!((0..job.workers()).all(|w| job.progress(w) == 5));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn validate_refuses_zero_threads() {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.threads = 0;
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "a rack holds at least one worker")]
    fn validate_refuses_empty_racks() {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.workers_per_rack = Some(0);
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "serves at least one rack")]
    fn validate_refuses_an_agg_with_no_racks() {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        (cfg.workers_per_rack, cfg.racks_per_agg) = (Some(2), Some(0));
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "only the star's one switch takes it")]
    fn validate_refuses_a_threshold_override_off_the_star() {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::AsyncIsw);
        (cfg.workers_per_rack, cfg.threshold_override) = (Some(2), Some(2));
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "needs a live gradient source")]
    fn validate_refuses_the_exponent_bug_on_a_synthetic_source() {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        (cfg.codec, cfg.bug) = (CodecKind::FixedPoint, Some(SeededBug::ExponentStamp(3)));
        validate(&cfg);
    }

    #[test]
    #[should_panic(expected = "a fat-tree's shape fixes its racks")]
    fn validate_refuses_rack_sizes_beside_a_fattree_shape() {
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
        (cfg.workers, cfg.fattree) = (shape.workers(), Some(shape));
        cfg.workers_per_rack = Some(2);
        validate(&cfg);
    }

    #[test]
    fn a_paused_fattree_job_is_byte_identical_to_job_run() {
        // One drive regime: pausing a cut partition at deadlines no check
        // point falls on — between and inside lookahead epochs, on one
        // thread or two — changes no byte of the report (epoch accounting
        // included), the merged trace or the telemetry tracks.
        for strategy in [
            Strategy::SyncPs,
            Strategy::SyncAr,
            Strategy::SyncIsw,
            Strategy::AsyncPs,
            Strategy::AsyncIsw,
        ] {
            let unpaused = exports(strategy, 1, |job| {
                job.run_until(|_| false).expect("a healthy job");
            });
            assert!(
                unpaused[0].contains("\"domains\":3"),
                "{strategy:?}: not cut"
            );
            assert!(unpaused[2].contains("\"shard.domain."), "{strategy:?}");
            for (threads, pause_us) in [(1, 137), (2, 1_000)] {
                let paused = exports(strategy, threads, |job| {
                    let mut deadline = SimTime::ZERO;
                    while !job.done {
                        deadline += SimDuration::from_micros(pause_us);
                        job.drive(deadline).expect("a healthy job");
                    }
                });
                assert_eq!(paused, unpaused, "{strategy:?} paused every {pause_us} µs");
            }
        }
    }
}
