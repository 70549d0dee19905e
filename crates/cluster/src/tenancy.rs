//! Multi-tenant scheduling: several independent training jobs sharing one
//! switch fabric's aggregation resources.
//!
//! The paper's deployment model gives the whole in-switch datapath to one
//! training job. Production switches do not have that luxury: many jobs —
//! each with its own model size, strategy, transport, and codec — contend
//! for the same aggregation slots and accumulator bytes (the
//! flexible-switch line of work and SwitchAgg both make this argument).
//! This module generalizes the SwitchML-style slot pool of
//! [`iswitch_core::Accelerator`] into that shared, arbitrated resource.
//!
//! ## Execution model
//!
//! Every tenant is one [`Job`] of the shared lifecycle — the same build a
//! solo run makes, over its own engine and virtual topology — stamped
//! with the tenant's id ([`iswitch_netsim::ShardedSim::set_tenant`]) so
//! every causal trace event attributes to it. What the tenants share is the *fabric*: a pool of
//! aggregation slots and accumulator bytes ([`FabricConfig`]) arbitrated at
//! fixed simulated-time **epoch barriers**. At each barrier the arbiter
//! harvests every tenant's previous-epoch slot demand
//! ([`iswitch_core::Accelerator::take_demand_peak`]), computes per-tenant
//! grants (guaranteed quota first, then a deterministic water-fill of the
//! leftover toward demand, then the entire remainder split round-robin so
//! the whole pool is always assigned), and installs them on every switch of
//! the tenant's topology. Between barriers a tenant only ever reads its own
//! grant, so tenants can be driven on parallel threads with bit-identical
//! results at any thread count.
//!
//! A tenant whose contribution is denied a slot (grant or byte budget
//! exhausted) completes the round through **host aggregation**: the same
//! codec-native arithmetic in switch DRAM, numerically identical but
//! charged [`iswitch_core::HOST_PATH_LATENCY_FACTOR`]× the datapath
//! latency. Slower, never wrong.
//!
//! ## Elastic churn
//!
//! Tenants drive the paper's §3.2 control actions at production rates:
//! a tenant **joins** when the global clock passes its
//! [`TenantSpec::join_at`] (its local clock starts there, so its artifacts
//! are independent of *when* it joined), **leaves** when its job completes
//! (its guaranteed quota returns to the pool at the next barrier), and
//! **resets** mid-run when [`TenantSpec::reset_at`] schedules a switch
//! restart (a fault-plan timer carrying
//! [`iswitch_core::FAULT_RESET_TOKEN`], after which the workers re-`Join`
//! and recover by retransmission).

use std::sync::Arc;

use iswitch_core::FAULT_RESET_TOKEN;
use iswitch_netsim::{FaultAction, SimDuration, SimTime};
use iswitch_obs::{JsonValue, Trace};

use crate::lifecycle::{self, build, Capture, Job};
use crate::timing_runner::{PerfSample, TimingConfig, TimingObservation};

/// Guaranteed minimum fabric share of one tenant. Zero means best-effort:
/// the tenant only receives what the demand-driven water-fill and the
/// equal split of the leftover give it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Aggregation slots reserved on every switch of the tenant's
    /// topology, granted before any best-effort distribution.
    pub slots: u32,
    /// Accumulator bytes reserved on every switch of the tenant's
    /// topology.
    pub bytes: usize,
}

/// The shared switch fabric the tenants contend for: per-switch slot and
/// byte pools, and the cadence of the arbitration barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Aggregation slots each physical switch offers across all tenants.
    pub slots: u32,
    /// Accumulator bytes each physical switch offers across all tenants.
    pub buffer_bytes: usize,
    /// Simulated time between arbitration barriers.
    pub epoch: SimDuration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        // Effectively uncontended: pools far larger than any single job
        // uses, so grants never bind unless the caller shrinks them.
        FabricConfig {
            slots: 1 << 16,
            buffer_bytes: 1 << 40,
            epoch: SimDuration::from_millis(10),
        }
    }
}

/// One tenant: a training job plus its fabric share and churn schedule.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name (artifact file naming).
    pub name: String,
    /// Non-zero tenant id stamped into every causal packet of the
    /// tenant's simulation (standing in for a VLAN/overlay tag). Must be
    /// unique within a [`MultiJobConfig`].
    pub id: u64,
    /// The tenant's training job, on any topology (its own `threads`
    /// drive a fat-tree's pods; [`MultiJobConfig::threads`] parallelizes
    /// across tenants).
    pub job: TimingConfig,
    /// Guaranteed fabric share.
    pub quota: TenantQuota,
    /// Global simulated time at which the tenant joins (its local clock
    /// starts at this instant; earlier barriers skip it entirely).
    pub join_at: SimDuration,
    /// `Some(t)` restarts every switch of the tenant's topology at local
    /// time `t`: the accelerator state resets (paper §3.2 `Reset`) and
    /// the workers recover via retransmission.
    pub reset_at: Option<SimDuration>,
}

impl TenantSpec {
    /// A tenant running `job` with best-effort quota, joining at time
    /// zero. Enables the host-fallback path — the multi-tenant correctness
    /// contract is *slower but never wrong*, so a denied slot must
    /// complete through host aggregation rather than drop.
    pub fn new(name: impl Into<String>, id: u64, mut job: TimingConfig) -> Self {
        job.host_fallback = true;
        TenantSpec {
            name: name.into(),
            id,
            job,
            quota: TenantQuota::default(),
            join_at: SimDuration::ZERO,
            reset_at: None,
        }
    }

    /// Sets the guaranteed quota.
    pub fn with_quota(mut self, slots: u32, bytes: usize) -> Self {
        self.quota = TenantQuota { slots, bytes };
        self
    }

    /// Sets the join time (elastic churn: the tenant arrives mid-run).
    pub fn with_join_at(mut self, at: SimDuration) -> Self {
        self.join_at = at;
        self
    }

    /// Schedules a switch restart at tenant-local time `at`.
    pub fn with_reset_at(mut self, at: SimDuration) -> Self {
        self.reset_at = Some(at);
        self
    }
}

/// A multi-tenant run: the tenants, the fabric they share, and how many
/// OS threads drive them between barriers.
#[derive(Debug, Clone)]
pub struct MultiJobConfig {
    /// The tenants, in a fixed order that all arbitration follows.
    pub tenants: Vec<TenantSpec>,
    /// The shared fabric.
    pub fabric: FabricConfig,
    /// Worker threads driving tenants between barriers. Results are
    /// byte-identical for every value; more threads only change
    /// wall-clock time.
    pub threads: usize,
}

impl MultiJobConfig {
    /// A run of `tenants` over the default (uncontended) fabric.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        MultiJobConfig {
            tenants,
            fabric: FabricConfig::default(),
            threads: 1,
        }
    }
}

/// One tenant's complete outcome: the same observation a solo
/// [`crate::run_timing_observed`] run would produce, plus the tenant's
/// fabric accounting.
pub struct TenantRun {
    /// Tenant name (from the spec).
    pub name: String,
    /// Tenant id (from the spec).
    pub id: u64,
    /// Summary result, metrics snapshot, and causal trace of the
    /// tenant's job.
    pub observation: TimingObservation,
    /// Raw engine counters of the tenant's simulation.
    pub perf: PerfSample,
    /// Contributions denied an aggregation slot (summed over the
    /// tenant's switches); each completed through the host path instead.
    pub slot_denials: u64,
    /// Rounds that completed through host aggregation.
    pub fallback_rounds: u64,
    /// Rounds that completed on the in-switch datapath.
    pub switch_rounds: u64,
    /// The tenant's local clock when its job finished.
    pub finished_at: SimTime,
}

impl TenantRun {
    /// Fraction of completed rounds that fell back to host aggregation.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.fallback_rounds + self.switch_rounds;
        if total == 0 {
            0.0
        } else {
            self.fallback_rounds as f64 / total as f64
        }
    }
}

/// Outcome of [`run_multi_tenant`]: per-tenant runs (spec order) plus a
/// fabric-level arbitration report.
pub struct MultiTenantOutcome {
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<TenantRun>,
    /// Deterministic JSON summary of the fabric: pool sizes, barriers
    /// executed, and per-tenant demand/grant/denial accounting. This is a
    /// *run-level* artifact — grant values never leak into per-tenant
    /// artifacts, which stay byte-identical to solo runs whenever the
    /// grants never bind.
    pub fabric_report: JsonValue,
}

/// One tenant: its job plus the fabric accounting the arbiter keeps.
struct TenantJob<'a> {
    spec: &'a TenantSpec,
    job: Job,
    /// Last harvested slot-demand peak (max over the tenant's switches).
    demand: u32,
    /// Maximum demand peak seen over the whole run (reporting).
    demand_max: u32,
    /// Currently installed grants (fabric accounting only).
    grant_slots: u32,
    grant_bytes: usize,
}

impl TenantJob<'_> {
    /// Whether the tenant still holds fabric resources (PS/AR tenants
    /// have no accelerator-bearing switches and never do).
    fn contends(&self) -> bool {
        !self.job.done && !self.job.placed.switches.is_empty()
    }

    /// Max slot-demand peak over the tenant's switches, re-arming each.
    fn harvest_demand(&mut self) {
        let mut peak = 0;
        self.job
            .accelerators(|accel| peak = peak.max(accel.take_demand_peak()));
        self.demand = peak;
        self.demand_max = self.demand_max.max(peak);
    }

    /// Installs `slots`/`bytes` grants on every switch of the tenant.
    fn install_grant(&mut self, slots: u32, bytes: usize) {
        self.grant_slots = slots;
        self.grant_bytes = bytes;
        self.job
            .accelerators(|accel| accel.set_grant(Some(slots), Some(bytes)));
    }
}

/// Runs a multi-tenant experiment with full observability: every tenant
/// gets its own causal trace and metrics snapshot, exactly as
/// [`crate::run_timing_observed`] would produce solo.
///
/// # Panics
///
/// Panics on invalid configurations: no tenants, duplicate/zero tenant
/// ids, quota sums exceeding the fabric pools, or a zero epoch.
pub fn run_multi_tenant(cfg: &MultiJobConfig) -> MultiTenantOutcome {
    run_multi(cfg, true)
}

/// [`run_multi_tenant`] with **no tracing attached**: the packet hot path
/// runs exactly as in a solo [`crate::run_timing`]. `perfgate` fingerprints
/// its contended-switch cells from it; the repo benchmark times it (its
/// recorded baseline is in `benchmark/README.md`).
pub fn run_multi_tenant_perf(cfg: &MultiJobConfig) -> MultiTenantOutcome {
    run_multi(cfg, false)
}

fn validate(cfg: &MultiJobConfig) {
    assert!(!cfg.tenants.is_empty(), "a multi-tenant run needs tenants");
    assert!(cfg.threads >= 1, "a run needs at least one thread");
    assert!(
        cfg.fabric.epoch > SimDuration::ZERO,
        "the arbitration epoch must be positive"
    );
    let mut ids: Vec<u64> = cfg.tenants.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        cfg.tenants.len(),
        "tenant ids must be unique within a run"
    );
    assert!(
        cfg.tenants.iter().all(|t| t.id != 0),
        "tenant id 0 is reserved for single-tenant runs"
    );
    for t in &cfg.tenants {
        lifecycle::validate(&t.job);
    }
    let slot_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.quota.slots)).sum();
    assert!(
        slot_sum <= u64::from(cfg.fabric.slots),
        "guaranteed slot quotas ({slot_sum}) exceed the fabric pool ({})",
        cfg.fabric.slots
    );
    let byte_sum: u128 = cfg.tenants.iter().map(|t| t.quota.bytes as u128).sum();
    assert!(
        byte_sum <= cfg.fabric.buffer_bytes as u128,
        "guaranteed byte quotas exceed the fabric pool"
    );
}

fn run_multi(cfg: &MultiJobConfig, observed: bool) -> MultiTenantOutcome {
    validate(cfg);
    let mut jobs: Vec<TenantJob> = cfg
        .tenants
        .iter()
        .map(|spec| build_tenant(spec, observed))
        .collect();

    let epoch = cfg.fabric.epoch;
    let mut global = SimDuration::ZERO;
    let mut barriers: u64 = 0;
    // Initial grants (zero demand): quotas plus the equal leftover split,
    // installed before the first event runs so the fabric is never
    // ungated.
    arbitrate(&mut jobs, &cfg.fabric, global + epoch);
    while jobs.iter().any(|j| !j.job.done) {
        global += epoch;
        barriers += 1;
        if let Err(refusal) = drive_epoch(&mut jobs, global, cfg.threads) {
            panic!("{refusal}");
        }
        for j in jobs.iter_mut().filter(|j| j.contends()) {
            j.harvest_demand();
        }
        arbitrate(&mut jobs, &cfg.fabric, global + epoch);
    }

    let mut tenants = Vec::with_capacity(jobs.len());
    let mut tenant_rows = Vec::with_capacity(jobs.len());
    for mut j in jobs {
        let (observation, perf) = j.job.collect();
        let (mut slot_denials, mut fallback_rounds, mut emitted) = (0, 0, 0);
        j.job.accelerators(|accel| {
            slot_denials += accel.stats().slot_denials;
            fallback_rounds += accel.stats().fallback_rounds;
            emitted += accel.stats().segments_emitted;
        });
        let switch_rounds = emitted.saturating_sub(fallback_rounds);
        let mut row = JsonValue::empty_object();
        row.insert("name", JsonValue::Str(j.spec.name.clone()));
        row.insert("id", JsonValue::UInt(j.spec.id));
        row.insert("strategy", JsonValue::Str(j.job.strategy.label().into()));
        row.insert("join_at_ns", JsonValue::UInt(j.spec.join_at.as_nanos()));
        row.insert(
            "finished_at_ns",
            JsonValue::UInt(j.job.local_now.as_nanos()),
        );
        row.insert(
            "quota_slots",
            JsonValue::UInt(u64::from(j.spec.quota.slots)),
        );
        row.insert("quota_bytes", JsonValue::UInt(j.spec.quota.bytes as u64));
        row.insert("grant_slots", JsonValue::UInt(u64::from(j.grant_slots)));
        row.insert("grant_bytes", JsonValue::UInt(j.grant_bytes as u64));
        row.insert("demand_peak", JsonValue::UInt(u64::from(j.demand_max)));
        row.insert("slot_denials", JsonValue::UInt(slot_denials));
        row.insert("fallback_rounds", JsonValue::UInt(fallback_rounds));
        row.insert("switch_rounds", JsonValue::UInt(switch_rounds));
        tenant_rows.push(row);
        tenants.push(TenantRun {
            name: j.spec.name.clone(),
            id: j.spec.id,
            observation,
            perf,
            slot_denials,
            fallback_rounds,
            switch_rounds,
            finished_at: j.job.local_now,
        });
    }

    let mut fabric = JsonValue::empty_object();
    fabric.insert("slots", JsonValue::UInt(u64::from(cfg.fabric.slots)));
    fabric.insert(
        "buffer_bytes",
        JsonValue::UInt(cfg.fabric.buffer_bytes as u64),
    );
    fabric.insert("epoch_ns", JsonValue::UInt(epoch.as_nanos()));
    fabric.insert("barriers", JsonValue::UInt(barriers));
    let mut report = JsonValue::empty_object();
    report.insert("fabric", fabric);
    report.insert("tenants", JsonValue::Array(tenant_rows));
    MultiTenantOutcome {
        tenants,
        fabric_report: report,
    }
}

/// Drives every joined, unfinished tenant to local time
/// `global - join_at`, partitioned over `threads` OS threads. Each thread
/// touches a disjoint set of tenants and the arbiter only runs at
/// barriers, so results are byte-identical at any thread count. The error
/// is the refusal naming the first tenant (spec order) whose job stalled.
fn drive_epoch(
    jobs: &mut [TenantJob<'_>],
    global: SimDuration,
    threads: usize,
) -> Result<(), String> {
    let drive = move |j: &mut TenantJob<'_>| {
        if j.job.done || global <= j.spec.join_at {
            return Ok(());
        }
        let deadline = SimTime::ZERO + (global - j.spec.join_at);
        (j.job.drive(deadline))
            .map_err(|stall| format!("tenant `{}` stalled: {stall}", j.spec.name))
    };
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter_mut().try_for_each(drive);
    }
    let chunk = jobs.len().div_ceil(threads);
    std::thread::scope(|s| {
        let parts: Vec<_> = (jobs.chunks_mut(chunk))
            .map(|part| s.spawn(move || part.iter_mut().try_for_each(drive)))
            .collect();
        (parts.into_iter()).try_for_each(|part| part.join().expect("a tenant's driver panicked"))
    })
}

/// Computes and installs per-tenant grants for the epoch ending at
/// `horizon`. Contending tenants that will be active during that epoch
/// split the pool: guaranteed quotas first, then a deterministic
/// water-fill of the leftover toward each tenant's harvested demand (in
/// spec order), then the entire remainder round-robin — the pool is
/// always fully assigned, so an uncontended tenant's grant is far above
/// anything it can use and never binds (which is what keeps uncontended
/// multi-tenant runs byte-identical to solo runs).
fn arbitrate(jobs: &mut [TenantJob<'_>], fabric: &FabricConfig, horizon: SimDuration) {
    let active: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.contends() && j.spec.join_at < horizon)
        .map(|(i, _)| i)
        .collect();
    if active.is_empty() {
        return;
    }
    let n = active.len() as u64;

    // Slots: quota floor, demand water-fill, then round-robin remainder.
    let mut grant: Vec<u64> = active
        .iter()
        .map(|&i| u64::from(jobs[i].spec.quota.slots))
        .collect();
    let mut want: Vec<u64> = active
        .iter()
        .zip(&grant)
        .map(|(&i, &g)| u64::from(jobs[i].demand).saturating_sub(g))
        .collect();
    let mut leftover = u64::from(fabric.slots) - grant.iter().sum::<u64>();
    loop {
        let unmet = want.iter().filter(|&&w| w > 0).count() as u64;
        if unmet == 0 || leftover == 0 {
            break;
        }
        let share = (leftover / unmet).max(1);
        for k in 0..grant.len() {
            if want[k] == 0 {
                continue;
            }
            let g = share.min(want[k]).min(leftover);
            want[k] -= g;
            grant[k] += g;
            leftover -= g;
            if leftover == 0 {
                break;
            }
        }
    }
    let base = leftover / n;
    let rem = leftover % n;
    for (k, g) in grant.iter_mut().enumerate() {
        *g += base + u64::from((k as u64) < rem);
    }

    // Bytes: quota floor plus the equal split of the leftover (no byte
    // demand signal exists; the slot grant is the contended axis).
    let byte_floor: Vec<usize> = active.iter().map(|&i| jobs[i].spec.quota.bytes).collect();
    let byte_leftover = fabric.buffer_bytes - byte_floor.iter().sum::<usize>();
    let bbase = byte_leftover / n as usize;
    let brem = byte_leftover % n as usize;

    for (k, &i) in active.iter().enumerate() {
        let slots = u32::try_from(grant[k]).unwrap_or(u32::MAX);
        let bytes = byte_floor[k] + bbase + usize::from(k < brem);
        jobs[i].install_grant(slots, bytes);
    }
}

/// Builds one tenant: the shared lifecycle build stamped with the
/// tenant's id, plus the tenant's reset churn as faults scheduled after
/// the topology.
fn build_tenant(spec: &TenantSpec, observed: bool) -> TenantJob<'_> {
    let capture = Capture {
        trace: observed.then(|| Arc::new(Trace::new())),
        timeseries: None,
    };
    let mut cfg = spec.job.clone();
    cfg.faulted = spec.reset_at.is_some();
    let mut job = build(&cfg, None, spec.id, capture);
    if let Some(at) = spec.reset_at {
        assert!(
            !job.placed.switches.is_empty(),
            "reset churn targets iSwitch switches; tenant {} has none",
            spec.name
        );
        for (domain, node) in job.placed.switches.clone() {
            let token = FAULT_RESET_TOKEN;
            let reset = FaultAction::InjectTimer { node, token };
            job.schedule_fault(domain, SimTime::ZERO + at, reset);
        }
    }
    TenantJob {
        spec,
        job,
        demand: 0,
        demand_max: 0,
        grant_slots: 0,
        grant_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing_runner::Strategy;
    use iswitch_netsim::FattreeShape;
    use iswitch_rl::Algorithm;

    fn quick(alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let mut cfg = TimingConfig::main_cluster(alg, strategy);
        cfg.iterations = 6;
        cfg.warmup = 2;
        cfg
    }

    /// `quick` on a 2×2×2 fat-tree: three engine domains per tenant.
    fn quick_fattree(alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        let mut cfg = quick(alg, strategy);
        cfg.fattree = Some(shape);
        cfg.workers = shape.workers();
        cfg
    }

    /// Per-tenant artifacts: the full observation report plus the trace.
    fn artifacts(out: &MultiTenantOutcome) -> Vec<(String, String)> {
        out.tenants
            .iter()
            .map(|t| {
                (
                    t.observation.report_json().render(),
                    t.observation.trace.to_jsonl(),
                )
            })
            .collect()
    }

    #[test]
    fn uncontended_tenants_match_their_solo_runs_byte_for_byte() {
        // The tentpole isolation claim: when quotas never bind, a tenant
        // sharing the fabric produces artifacts (report JSON + trace JSONL)
        // byte-identical to the same job alone on a dedicated fabric, and
        // the same summary as the plain solo runner — for every strategy,
        // on the star, the two-level tree and the fat-tree, whose cut
        // partition the arbiter pauses at barriers no solo run stops at —
        // at any driver thread count and arbiter epoch.
        const STAR: Option<usize> = None;
        const TREE: Option<usize> = Some(3);
        let rows = [
            (Algorithm::Ppo, Strategy::SyncIsw, STAR),
            (Algorithm::Dqn, Strategy::AsyncIsw, STAR),
            (Algorithm::Ppo, Strategy::SyncPs, STAR),
            (Algorithm::Ppo, Strategy::SyncAr, STAR),
            (Algorithm::Ppo, Strategy::AsyncPs, STAR),
            (Algorithm::Ppo, Strategy::SyncIsw, TREE),
            (Algorithm::Ppo, Strategy::AsyncIsw, TREE),
            (Algorithm::Ppo, Strategy::SyncPs, TREE),
            (Algorithm::Ppo, Strategy::SyncAr, TREE),
            (Algorithm::Ppo, Strategy::AsyncPs, TREE),
        ];
        let one_domain = rows.iter().map(|&(alg, strategy, per_rack)| {
            let mut job = quick(alg, strategy);
            job.workers_per_rack = per_rack;
            job.workers = if per_rack.is_some() { 6 } else { 4 };
            if (strategy, per_rack) == (Strategy::AsyncPs, STAR) {
                // 5.5 s of updates: longer than `STALL_LIMIT`, which once
                // read the workers' (empty) update logs and refused this.
                job.iterations = 1_600;
            }
            (format!("{strategy:?}-{per_rack:?}"), job)
        });
        // One fat-tree row per strategy: the tree rows' jobs, cut.
        let fattree = rows[5..].iter().map(|&(alg, strategy, _)| {
            let job = quick_fattree(alg, strategy);
            (format!("{strategy:?}-fattree"), job)
        });
        let specs: Vec<TenantSpec> = one_domain
            .chain(fattree)
            .enumerate()
            .map(|(i, (name, job))| TenantSpec::new(name, i as u64 + 1, job))
            .collect();
        let alone: Vec<_> = specs
            .iter()
            .map(|spec| {
                let alone = run_multi_tenant(&MultiJobConfig::new(vec![spec.clone()]));
                let summary = crate::run_timing(&spec.job);
                let result = &alone.tenants[0].observation.result;
                assert_eq!(result.per_iteration, summary.per_iteration, "{}", spec.name);
                assert_eq!(result.staleness, summary.staleness, "{}", spec.name);
                assert_eq!(result.transport, summary.transport, "{}", spec.name);
                artifacts(&alone).remove(0)
            })
            .collect();
        for (threads, epoch) in [
            (1, FabricConfig::default().epoch),
            (2, SimDuration::from_micros(1_370)),
            (4, FabricConfig::default().epoch),
        ] {
            let mut cfg = MultiJobConfig::new(specs.clone());
            cfg.threads = threads;
            cfg.fabric.epoch = epoch;
            let shared = run_multi_tenant(&cfg);
            for (i, art) in artifacts(&shared).iter().enumerate() {
                let name = &specs[i].name;
                assert_eq!(
                    art, &alone[i],
                    "{name} perturbed ({threads} threads, {epoch})"
                );
                assert_eq!(shared.tenants[i].slot_denials, 0, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_driver_threads_are_refused() {
        let mut cfg = MultiJobConfig::new(vec![TenantSpec::new(
            "t",
            1,
            quick(Algorithm::Ppo, Strategy::SyncIsw),
        )]);
        cfg.threads = 0;
        run_multi_tenant(&cfg);
    }

    #[test]
    fn contended_fabric_denies_slots_and_still_completes() {
        // Two iSwitch jobs on a fabric with almost no slots: rounds fall
        // back to host aggregation (slower, never dropped) and every
        // iteration still completes.
        let mut cfg = MultiJobConfig::new(vec![
            TenantSpec::new("t1", 1, quick(Algorithm::Ppo, Strategy::SyncIsw)),
            TenantSpec::new("t2", 2, quick(Algorithm::A2c, Strategy::SyncIsw)),
        ]);
        cfg.fabric.slots = 2;
        let out = run_multi_tenant(&cfg);
        let denials: u64 = out.tenants.iter().map(|t| t.slot_denials).sum();
        let fallbacks: u64 = out.tenants.iter().map(|t| t.fallback_rounds).sum();
        assert!(denials > 0, "a 2-slot fabric must deny some contributions");
        assert!(
            fallbacks > 0,
            "denied rounds must complete on the host path"
        );
        for t in &out.tenants {
            assert!(
                t.observation.result.iterations_measured > 0,
                "{}: contention lost iterations",
                t.name
            );
        }
    }

    #[test]
    fn contended_tree_run_covers_all_five_strategies() {
        // Acceptance criterion: a contended run over tree-topology tenants
        // completes under all five strategies, with per-tenant artifacts
        // byte-identical run-twice and across 1/2/4 driver threads.
        let mk = |threads: usize| {
            let tree = |alg, strat| {
                let mut cfg = quick(alg, strat);
                cfg.workers_per_rack = Some(3);
                cfg
            };
            let mut cfg = MultiJobConfig::new(vec![
                TenantSpec::new("sync-isw", 1, tree(Algorithm::Ppo, Strategy::SyncIsw))
                    .with_quota(8, 1 << 20),
                TenantSpec::new("async-isw", 2, tree(Algorithm::Dqn, Strategy::AsyncIsw)),
                TenantSpec::new("sync-ps", 3, tree(Algorithm::A2c, Strategy::SyncPs)),
                TenantSpec::new("sync-ar", 4, tree(Algorithm::Ddpg, Strategy::SyncAr)),
                TenantSpec::new("async-ps", 5, quick(Algorithm::Ppo, Strategy::AsyncPs)),
            ]);
            cfg.fabric.slots = 16; // well under the two isw tenants' joint demand
            cfg.threads = threads;
            cfg
        };
        let base = run_multi_tenant(&mk(1));
        assert!(
            base.tenants.iter().any(|t| t.slot_denials > 0),
            "the 16-slot fabric should be contended"
        );
        for t in &base.tenants {
            assert!(
                t.observation.result.iterations_measured > 0,
                "{}: no iterations measured under contention",
                t.name
            );
        }
        let base_art = artifacts(&base);
        let again = run_multi_tenant(&mk(1));
        assert_eq!(base_art, artifacts(&again), "run-twice artifacts differ");
        for threads in [2, 4] {
            let out = run_multi_tenant(&mk(threads));
            assert_eq!(
                base_art,
                artifacts(&out),
                "artifacts differ at {threads} threads"
            );
            assert_eq!(
                base.fabric_report.render(),
                out.fabric_report.render(),
                "fabric report differs at {threads} threads"
            );
        }
    }

    #[test]
    fn contended_run_is_deterministic_and_thread_invariant() {
        // On the star and on the fat-tree, whose tenants the arbiter pauses
        // mid-epoch with grants that bind (PPO there: an A2C fat-tree
        // tenant traces 1.2 M events per run).
        type MakeJob = fn(Algorithm, Strategy) -> TimingConfig;
        for (job, second) in [
            (quick as MakeJob, Algorithm::A2c),
            (quick_fattree, Algorithm::Ppo),
        ] {
            let mk = |threads: usize| {
                let mut cfg = MultiJobConfig::new(vec![
                    TenantSpec::new("t1", 1, job(Algorithm::Ppo, Strategy::SyncIsw)),
                    TenantSpec::new("t2", 2, job(second, Strategy::SyncIsw)).with_quota(2, 1 << 20),
                ]);
                cfg.fabric.slots = 4;
                cfg.threads = threads;
                cfg
            };
            let base = run_multi_tenant(&mk(1));
            let again = run_multi_tenant(&mk(1));
            assert!(
                base.tenants.iter().all(|t| t.slot_denials > 0),
                "a 4-slot fabric must deny both tenants"
            );
            for t in &base.tenants {
                let measured = t.observation.result.iterations_measured;
                assert!(measured > 0, "{}: contention lost iterations", t.name);
            }
            assert_eq!(
                artifacts(&base),
                artifacts(&again),
                "run-twice artifacts differ"
            );
            assert_eq!(
                base.fabric_report.render(),
                again.fabric_report.render(),
                "run-twice fabric reports differ"
            );
            for threads in [2, 4] {
                let t = run_multi_tenant(&mk(threads));
                assert_eq!(
                    artifacts(&base),
                    artifacts(&t),
                    "threads=1 vs threads={threads} differ"
                );
            }
        }
    }

    #[test]
    fn churn_join_leave_reset_completes() {
        // Tenant 2 joins 50 ms in, tenant 1 restarts its switch mid-run
        // (paper §3.2 Reset) — in compute (20, 40 ms) or mid-round (60 ms,
        // where the wiped partial sums must be recovered); both finish and
        // measure every iteration.
        for reset_ms in [20, 40, 60] {
            let cfg = MultiJobConfig::new(vec![
                TenantSpec::new("steady", 1, quick(Algorithm::Ppo, Strategy::SyncIsw))
                    .with_reset_at(SimDuration::from_millis(reset_ms)),
                TenantSpec::new("late", 2, quick(Algorithm::A2c, Strategy::SyncIsw))
                    .with_join_at(SimDuration::from_millis(50)),
            ]);
            let out = run_multi_tenant(&cfg);
            for (t, spec) in out.tenants.iter().zip(&cfg.tenants) {
                assert_eq!(
                    t.observation.result.iterations_measured,
                    spec.job.iterations * spec.job.workers,
                    "{} with a reset at {reset_ms} ms",
                    t.name
                );
            }
        }
    }

    #[test]
    fn late_join_artifacts_are_join_time_invariant() {
        // A tenant's artifacts depend on its own local clock, not on when
        // it joined the shared fabric (when quotas never bind).
        let job = quick(Algorithm::Ppo, Strategy::SyncIsw);
        let steady = TenantSpec::new("steady", 1, quick(Algorithm::Dqn, Strategy::SyncIsw));
        let at_zero = MultiJobConfig::new(vec![
            steady.clone(),
            TenantSpec::new("late", 2, job.clone()),
        ]);
        let late = MultiJobConfig::new(vec![
            steady,
            TenantSpec::new("late", 2, job).with_join_at(SimDuration::from_millis(70)),
        ]);
        let a = run_multi_tenant(&at_zero);
        let b = run_multi_tenant(&late);
        assert_eq!(
            artifacts(&a)[1],
            artifacts(&b)[1],
            "join time leaked into the tenant's artifacts"
        );
    }

    #[test]
    fn ps_and_ar_tenants_hold_no_fabric_resources() {
        let mut cfg = MultiJobConfig::new(vec![
            TenantSpec::new("ps", 1, quick(Algorithm::Ppo, Strategy::SyncPs)),
            TenantSpec::new("ar", 2, quick(Algorithm::Ppo, Strategy::SyncAr)),
            TenantSpec::new("isw", 3, quick(Algorithm::Ppo, Strategy::SyncIsw)),
        ]);
        cfg.fabric.slots = 8;
        let out = run_multi_tenant(&cfg);
        // Host-side strategies never touch the slot pool.
        assert_eq!(out.tenants[0].slot_denials, 0);
        assert_eq!(out.tenants[1].slot_denials, 0);
        for t in &out.tenants {
            assert!(t.observation.result.iterations_measured > 0, "{}", t.name);
        }
    }

    #[test]
    fn quota_shields_a_small_tenant_from_a_leaky_neighbour() {
        // Both-ways test of the isolation invariant's mechanism: a
        // slot-leaking neighbour inflates its demand and soaks up the
        // best-effort pool. Without a guaranteed quota the victim's
        // rounds get denied; with one they never are.
        // The A2c job's demand grows without bound once it leaks; the Ppo
        // victim peaks at ~29 concurrent rounds, so a 32-slot quota on a
        // 40-slot fabric covers it while the leak soaks the best-effort rest.
        let mut leaky_job = quick(Algorithm::A2c, Strategy::SyncIsw);
        leaky_job.slot_leak_bug = true;
        let victim_job = quick(Algorithm::Ppo, Strategy::SyncIsw);

        let mut unprotected = MultiJobConfig::new(vec![
            TenantSpec::new("leaky", 1, leaky_job.clone()),
            TenantSpec::new("victim", 2, victim_job.clone()),
        ]);
        unprotected.fabric.slots = 40;
        let out = run_multi_tenant(&unprotected);
        assert!(
            out.tenants[1].slot_denials > 0,
            "without a quota the leak should starve the victim"
        );

        let mut protected = MultiJobConfig::new(vec![
            TenantSpec::new("leaky", 1, leaky_job),
            TenantSpec::new("victim", 2, victim_job).with_quota(32, 1 << 24),
        ]);
        protected.fabric.slots = 40;
        let out = run_multi_tenant(&protected);
        assert_eq!(
            out.tenants[1].slot_denials, 0,
            "a guaranteed quota must shield the victim"
        );
    }
}
