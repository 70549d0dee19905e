//! The five benchmark workloads: what each runs, and the correctness checks
//! applied to every run.
//!
//! Closed loop, one process, one thread: the next run starts when the last
//! one returned. `--seed` feeds `TimingConfig.seed` (compute-time jitter),
//! so the same seed gives the same simulated inputs.

use iswitch_cluster::{
    run_multi_tenant, run_multi_tenant_perf, run_timing_observed_with, run_timing_perf,
    MultiJobConfig, MultiTenantOutcome, PerfSample, Strategy, TenantSpec, TimingConfig,
    TimingResult, TraceOptions, TransportKind, TransportStats,
};
use iswitch_core::CodecKind;
use iswitch_netsim::FattreeShape;
use iswitch_obs::{JsonValue, Timeseries};
use iswitch_rl::Algorithm;
use std::sync::Arc;

/// How long a run of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// One timed sample.
    Full,
    /// The traced run and `--smoke`: the observed (tracing-on) runner costs
    /// about five times the plain one, so the per-layer pass runs fewer
    /// iterations of the same configuration.
    Short,
    /// `setup_s`: one measured iteration, no warm-up.
    Min,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `(iterations, warmup)` at each [`Size`], in declaration order.
    sizes: [(usize, usize); 3],
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "isw_star_dqn",
        why: "4 DQN workers on one iSwitch, f32: every data packet is summed in the switch, so \
              accelerator, switch extension and f32 codec carry the run; queues, recovery, \
              shards and tenancy idle",
        sizes: [(40, 1), (6, 1), (1, 0)],
    },
    Workload {
        name: "ps_tree3_dqn",
        why: "8 DQN workers and a parameter server on a three-level tree: bare forwarding, the \
              accelerator ingests 0 packets; the bypass workload for any in-switch change",
        sizes: [(8, 1), (2, 1), (1, 0)],
    },
    Workload {
        name: "incast_fattree_nack",
        why: "16-worker sharded fat-tree, synchronized flushes into shallow ECN queues, NACK \
              transport: the only load on the shard epoch loop, the queue path and gap detection",
        sizes: [(1, 1), (1, 0), (1, 0)],
    },
    Workload {
        name: "tenant_codec_mix",
        why: "four iSwitch tenants (f32, fixed-point, top-k, block-float) on a 96-slot fabric: \
              integer accumulate, slot denial and host fallback under epoch-stepped tenancy",
        sizes: [(18, 2), (4, 1), (1, 0)],
    },
    Workload {
        name: "paper_strategy_sweep",
        why: "4 algorithms x 5 strategies run in sequence, as when regenerating the paper's \
              tables: pays set-up 20 times and is the only run of the AR and async drivers",
        sizes: [(8, 2), (2, 1), (1, 0)],
    },
];

pub const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Dqn,
    Algorithm::A2c,
    Algorithm::Ppo,
    Algorithm::Ddpg,
];

const STRATEGIES: [Strategy; 5] = [
    Strategy::SyncPs,
    Strategy::SyncAr,
    Strategy::SyncIsw,
    Strategy::AsyncPs,
    Strategy::AsyncIsw,
];

const FATTREE: FattreeShape = FattreeShape {
    aggs: 4,
    racks_per_agg: 2,
    hosts_per_rack: 2,
};

/// The tenants of `tenant_codec_mix`: name, algorithm, codec.
pub const TENANTS: [(&str, Algorithm, CodecKind); 4] = [
    ("ppo", Algorithm::Ppo, CodecKind::F32),
    ("a2c", Algorithm::A2c, CodecKind::FixedPoint),
    ("dqn", Algorithm::Dqn, CodecKind::TopK),
    ("ddpg", Algorithm::Ddpg, CodecKind::BlockFloat),
];

/// What a workload runs: solo timing experiments in sequence, or one
/// multi-tenant fabric.
pub enum Plan {
    Cells(Vec<TimingConfig>),
    Tenants(MultiJobConfig),
}

fn sized(mut cfg: TimingConfig, (iterations, warmup): (usize, usize), seed: u64) -> TimingConfig {
    cfg.iterations = iterations;
    cfg.warmup = warmup;
    cfg.seed = seed;
    cfg
}

/// The four tenant jobs over `slots` aggregation slots per switch (`None`
/// keeps the default, uncontended fabric).
pub fn tenant_fabric(slots: Option<u32>, size: (usize, usize), seed: u64) -> MultiJobConfig {
    let specs = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &(name, alg, codec))| {
            let mut job = sized(
                TimingConfig::main_cluster(alg, Strategy::SyncIsw),
                size,
                seed,
            );
            job.codec = codec;
            let spec = TenantSpec::new(name, i as u64 + 1, job);
            // The first tenant's guaranteed quota covers its whole demand
            // (PPO's gradient is 29 segments), so at any seed it must never
            // be denied a slot (checked on every run).
            if i == 0 {
                spec.with_quota(32, 1 << 24)
            } else {
                spec
            }
        })
        .collect();
    let mut cfg = MultiJobConfig::new(specs);
    if let Some(slots) = slots {
        cfg.fabric.slots = slots;
    }
    cfg
}

/// The twelve synchronous `main_cluster` cells behind Table 3, at the
/// sweep's full size: algorithm-major, strategies PS, AR, iSW.
pub fn paper_sync_cells(seed: u64) -> Vec<TimingConfig> {
    let size = WORKLOADS[4].sizes[0];
    ALGORITHMS
        .iter()
        .flat_map(|&alg| {
            STRATEGIES[..3]
                .iter()
                .map(move |&s| sized(TimingConfig::main_cluster(alg, s), size, seed))
        })
        .collect()
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn size(&self, size: Size) -> (usize, usize) {
        self.sizes[size as usize]
    }

    pub fn plan(&self, seed: u64, size: Size) -> Plan {
        let sz = self.size(size);
        let main = |alg, strategy| sized(TimingConfig::main_cluster(alg, strategy), sz, seed);
        match self.name {
            "isw_star_dqn" => Plan::Cells(vec![main(Algorithm::Dqn, Strategy::SyncIsw)]),
            "ps_tree3_dqn" => {
                let mut cfg = main(Algorithm::Dqn, Strategy::SyncPs);
                cfg.workers = 8;
                cfg.workers_per_rack = Some(2);
                cfg.racks_per_agg = Some(2);
                Plan::Cells(vec![cfg])
            }
            "incast_fattree_nack" => {
                let mut cfg =
                    TimingConfig::incast(Algorithm::Dqn, Strategy::SyncIsw, TransportKind::Nack);
                cfg.fattree = Some(FATTREE);
                cfg.workers = FATTREE.workers();
                cfg.threads = 1;
                Plan::Cells(vec![sized(cfg, sz, seed)])
            }
            "tenant_codec_mix" => Plan::Tenants(tenant_fabric(Some(96), sz, seed)),
            "paper_strategy_sweep" => Plan::Cells(
                ALGORITHMS
                    .iter()
                    .flat_map(|&alg| STRATEGIES.iter().map(move |&s| (alg, s)))
                    .map(|(alg, s)| main(alg, s))
                    .collect(),
            ),
            other => unreachable!("unknown workload {other}"),
        }
    }
}

/// What must be identical between any two runs of one workload at one seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub events: u64,
    pub packets_sent: u64,
    pub packets_delivered: u64,
    pub sim_ns: u64,
    /// Per cell (or tenant), in plan order.
    pub per_iteration_ns: Vec<u64>,
}

/// Deterministic outputs of one run plus the checks that tripped on it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub fingerprint: Fingerprint,
    pub ecn_marked: u64,
    pub dropped_queue: u64,
    pub epochs: u64,
    pub barrier_stall_ns: u64,
    pub transport: TransportStats,
    /// Tenant fabric accounting summed over tenants (0 on solo workloads).
    pub slot_denials: u64,
    pub fallback_rounds: u64,
    pub switch_rounds: u64,
    /// One line per failed check; a run with any is a failed operation.
    pub faults: Vec<String>,
}

impl Outcome {
    fn add(&mut self, label: &str, cfg: &TimingConfig, result: &TimingResult, perf: &PerfSample) {
        let fp = &mut self.fingerprint;
        fp.events += perf.events;
        fp.packets_sent += perf.packets_sent;
        fp.packets_delivered += perf.packets_delivered;
        fp.sim_ns += perf.sim_ns;
        fp.per_iteration_ns.push(result.per_iteration.as_nanos());
        self.ecn_marked += perf.ecn_marked;
        self.dropped_queue += perf.dropped_queue;
        self.epochs += perf.epochs;
        self.barrier_stall_ns += perf.barrier_stall_ns;
        self.transport = self.transport.merged(result.transport);

        // Synchronous runs report one measurement per worker-iteration;
        // asynchronous ones count update intervals at the probe, which the
        // driver guarantees to be at least the request.
        let want = cfg.iterations * cfg.workers;
        let ok = if cfg.strategy.is_async() {
            result.iterations_measured >= cfg.iterations
        } else {
            result.iterations_measured == want
        };
        if !ok {
            self.faults.push(format!(
                "{label}: measured {} iterations, requested {}",
                result.iterations_measured, cfg.iterations
            ));
        }
        // An asynchronous run stops at its update target with packets still
        // in flight; a synchronous one drains, so every packet is accounted.
        let accounted = perf.packets_delivered + perf.dropped_queue + perf.dropped_link_down;
        let conserved = if cfg.strategy.is_async() {
            perf.packets_sent >= accounted
        } else {
            perf.packets_sent == accounted
        };
        if !conserved {
            self.faults.push(format!(
                "{label}: {} packets sent but {accounted} delivered or dropped",
                perf.packets_sent
            ));
        }
    }

    fn add_tenants(&mut self, cfg: &MultiJobConfig, out: &MultiTenantOutcome) {
        for (spec, t) in cfg.tenants.iter().zip(&out.tenants) {
            self.add(&t.name, &spec.job, &t.observation.result, &t.perf);
            self.slot_denials += t.slot_denials;
            self.fallback_rounds += t.fallback_rounds;
            self.switch_rounds += t.switch_rounds;
            if spec.quota.slots > 0 && t.slot_denials > 0 {
                self.faults.push(format!(
                    "{}: quota-protected tenant was denied {} slots",
                    t.name, t.slot_denials
                ));
            }
        }
    }
}

/// Runs `plan` with tracing off — the path every timed sample takes.
pub fn run_perf(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    match plan {
        Plan::Cells(cells) => {
            for cfg in cells {
                let (result, perf) = run_timing_perf(cfg);
                let label = format!("{:?}/{}", cfg.algorithm, cfg.strategy.label());
                out.add(&label, cfg, &result, &perf);
            }
        }
        Plan::Tenants(cfg) => out.add_tenants(cfg, &run_multi_tenant_perf(cfg)),
    }
    out
}

/// What an observed (tracing-on) run of a plan yields.
#[derive(Default)]
pub struct Observed {
    /// One metrics snapshot per cell or tenant.
    pub metrics: Vec<JsonValue>,
    pub trace_recorded: u64,
    pub trace_dropped: u64,
}

/// Causal-trace events kept in memory per observed cell; the rest count as
/// dropped. Bounds the traced run's memory, not its recording cost.
const TRACE_CAPACITY: usize = 1 << 16;

/// Runs `plan` through the observed runner; with `timeseries`, counter-track
/// sampling is on as well.
///
/// # Panics
///
/// Panics on a tenant plan with `timeseries`: the tenant runner has no such
/// option.
pub fn run_observed(plan: &Plan, timeseries: bool) -> Observed {
    let mut obs = Observed::default();
    match plan {
        Plan::Cells(cells) => {
            for cfg in cells {
                let opts = TraceOptions {
                    capacity: Some(TRACE_CAPACITY),
                    stream: None,
                    timeseries: timeseries.then(|| {
                        Arc::new(Timeseries::new(
                            iswitch_obs::timeseries::DEFAULT_INTERVAL_NS,
                        ))
                    }),
                };
                let o = run_timing_observed_with(cfg, opts);
                obs.trace_recorded += o.trace.recorded();
                obs.trace_dropped += o.trace.dropped();
                obs.metrics.push(o.metrics);
            }
        }
        Plan::Tenants(cfg) => {
            assert!(!timeseries, "the tenant runner takes no counter-track sink");
            for t in run_multi_tenant(cfg).tenants {
                obs.trace_recorded += t.observation.trace.recorded();
                obs.trace_dropped += t.observation.trace.dropped();
                obs.metrics.push(t.observation.metrics);
            }
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn sweep_has_twenty_cells_and_twelve_sync_ones() {
        let Plan::Cells(cells) = WORKLOADS[4].plan(7, Size::Min) else {
            panic!("the sweep is a cell plan");
        };
        assert_eq!(cells.len(), 20);
        assert!(cells.iter().all(|c| c.seed == 7 && c.iterations == 1));
        assert_eq!(paper_sync_cells(7).len(), 12);
    }
}
