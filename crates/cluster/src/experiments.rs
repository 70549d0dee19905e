//! One function per table and figure of the paper's evaluation (§5–§6).
//!
//! Each function returns structured rows; the `iswitch-bench` binaries
//! render them next to the paper's reported numbers, and integration tests
//! assert the qualitative *shape* (who wins, where the crossovers fall).
//! Every simulator run goes through the caller's [`RunStore`], so artifacts
//! that share a configuration (Table 3 and Tables 4/5, Fig. 4 and Fig. 12,
//! Figs. 13/14 and Tables 4/5) share its one run.

use iswitch_core::AcceleratorConfig;
use iswitch_netsim::SimDuration;
use iswitch_rl::{paper_model, Algorithm};
use serde::{Deserialize, Serialize};

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, OnceLock};

use crate::compute_model::{CommCosts, Component, ComputeModel};
use crate::convergence::{
    run_convergence, AggregationSemantics, ConvergenceConfig, ConvergenceResult,
};
use crate::staleness::StalenessDistribution;
use crate::timing_runner::{run_timing, Strategy, TimingConfig, TimingResult};

/// The runs of one process: each timing or convergence configuration runs
/// the first time it is asked for, and every later ask reads that result.
/// A run is a deterministic function of its configuration, so the key is
/// the whole configuration value (its `Debug` rendering), never a chosen
/// subset of fields; nothing is kept on disk, so nothing can go stale.
#[derive(Default)]
pub struct RunStore {
    timing: Memo<TimingResult>,
    convergence: Memo<ConvergenceResult>,
}

type Memo<R> = Mutex<HashMap<String, Arc<OnceLock<R>>>>;

impl RunStore {
    /// The timing run of `cfg`.
    pub fn timing(&self, cfg: &TimingConfig) -> TimingResult {
        memo(&self.timing, cfg, run_timing)
    }

    /// The convergence run of `cfg`.
    pub fn convergence(&self, cfg: &ConvergenceConfig) -> ConvergenceResult {
        memo(&self.convergence, cfg, run_convergence)
    }
}

/// Runs `cfg` once per distinct key. The map lock is held only to find the
/// key's cell, so a second thread asking for a run in flight waits on that
/// cell rather than running it again.
fn memo<C: Debug, R: Clone>(map: &Memo<R>, cfg: &C, run: fn(&C) -> R) -> R {
    let key = format!("{cfg:?}");
    let cell = Arc::clone(map.lock().expect("run store lock").entry(key).or_default());
    cell.get_or_init(|| run(cfg)).clone()
}

/// Runs one closure per item on scoped worker threads, preserving input
/// order. Experiment cells are independent, so the sweeps in this module
/// fan out across cores — but no wider: a fixed pool of
/// `available_parallelism` threads drains a shared work queue, so a
/// 40-cell sweep doesn't oversubscribe the machine with 40 simulator
/// instances at once.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = cores.min(n).max(1);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let queue: Mutex<std::collections::VecDeque<(usize, T)>> =
        Mutex::new(items.into_iter().enumerate().collect());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (results, queue, f) = (&results, &queue, &f);
            handles.push(scope.spawn(move || loop {
                let Some((i, item)) = queue.lock().expect("queue lock").pop_front() else {
                    return;
                };
                let r = f(item);
                results.lock().expect("results lock")[i] = Some(r);
            }));
        }
        for handle in handles {
            handle.join().expect("experiment worker panicked");
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every experiment cell completed"))
        .collect()
}

/// Learning-rate multiplier used by the asynchronous convergence runs,
/// applied identically to Async PS and Async iSwitch. Off-policy methods
/// (DQN, DDPG) tolerate stale gradients natively — the replay buffer
/// already decorrelates data — and keep the full rate; on-policy methods
/// (A2C, PPO) use the conventional stale-gradient reduction. The lite
/// workloads take far larger per-update steps than the paper's full-scale
/// runs, which is why the reduction matters here at all.
pub fn async_lr_scale(alg: Algorithm) -> f32 {
    match alg {
        Algorithm::Dqn | Algorithm::Ddpg => 1.0,
        Algorithm::A2c | Algorithm::Ppo => 0.5,
    }
}

/// Experiment effort knob: `quick` for tests, `full` for the bench
/// harness.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Timing-mode iterations measured per run.
    pub timing_iters: usize,
    /// Timing-mode warmup iterations.
    pub warmup: usize,
    /// Convergence-mode iteration cap.
    pub convergence_cap: usize,
    /// Worker counts for the scalability study (paper: 4, 6, 9, 12).
    pub scalability_workers: Vec<usize>,
    /// Curve sampling period for the training-curve figures.
    pub curve_every: usize,
    /// Iteration budget for the training-curve figures (shorter than the
    /// convergence cap: curves show the climb, not the long tail).
    pub curve_iterations: usize,
}

impl Scale {
    /// Small configuration for CI-speed tests.
    pub fn quick() -> Self {
        Scale {
            timing_iters: 8,
            warmup: 2,
            convergence_cap: 4_000,
            scalability_workers: vec![4, 9],
            curve_every: 100,
            curve_iterations: 2_000,
        }
    }

    /// Full configuration used by the bench harness.
    pub fn full() -> Self {
        Scale {
            timing_iters: 30,
            warmup: 4,
            convergence_cap: 60_000,
            scalability_workers: vec![4, 6, 9, 12],
            curve_every: 100,
            curve_iterations: 12_000,
        }
    }

    fn timing(&self, alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let mut cfg = TimingConfig::main_cluster(alg, strategy);
        cfg.iterations = self.timing_iters;
        cfg.warmup = self.warmup;
        cfg
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1 (study of popular RL algorithms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Paper environment.
    pub environment: String,
    /// Model bytes in this reproduction.
    pub model_bytes: usize,
    /// Model bytes reported by the paper.
    pub paper_bytes: u64,
    /// Training iterations reported by the paper.
    pub paper_iterations: u64,
}

/// Regenerates Table 1 from the model zoo.
pub fn table1() -> Vec<Table1Row> {
    Algorithm::ALL
        .iter()
        .map(|&alg| {
            let spec = paper_model(alg);
            Table1Row {
                algorithm: alg.name().to_string(),
                environment: spec.paper_environment.to_string(),
                model_bytes: spec.bytes(),
                paper_bytes: spec.paper_bytes,
                paper_iterations: spec.paper_iterations,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 4 / Fig. 12 — per-iteration breakdowns
// ---------------------------------------------------------------------------

/// A per-iteration component breakdown for one (algorithm, strategy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Strategy label ("PS", "AR", "iSW").
    pub strategy: String,
    /// `(component label, seconds)` in the paper's legend order.
    pub components: Vec<(String, f64)>,
    /// Total per-iteration seconds.
    pub total: f64,
    /// Fraction spent in gradient aggregation.
    pub aggregation_share: f64,
}

/// The synchronous strategies in the paper's column order: PS, AR, iSW.
const SYNC: [Strategy; 3] = [Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw];

/// The breakdown of every `(algorithm, strategy)` cell, in order.
fn breakdowns(
    cells: Vec<(Algorithm, Strategy)>,
    scale: &Scale,
    runs: &RunStore,
) -> Vec<BreakdownRow> {
    parallel_map(cells, |(alg, strategy)| {
        let result = runs.timing(&scale.timing(alg, strategy));
        let model = ComputeModel::for_algorithm(alg);
        // Distribute the measured compute span over the calibrated component
        // proportions; aggregation and weight update come from the simulator.
        let compute_total_us: u64 = model.components.iter().map(|(_, us)| us).sum();
        let measured_compute = result.breakdown.compute.as_secs_f64();
        let mut components: Vec<(String, f64)> = model
            .components
            .iter()
            .map(|(c, us)| {
                (
                    c.label().to_string(),
                    measured_compute * *us as f64 / compute_total_us as f64,
                )
            })
            .collect();
        components.push((
            Component::GradAggregation.label().to_string(),
            result.breakdown.aggregation.as_secs_f64(),
        ));
        components.push((
            Component::WeightUpdate.label().to_string(),
            result.breakdown.update.as_secs_f64(),
        ));
        BreakdownRow {
            algorithm: alg.name().to_string(),
            strategy: strategy.label().to_string(),
            components,
            total: result.per_iteration.as_secs_f64(),
            aggregation_share: result.breakdown.aggregation_share(),
        }
    })
}

/// Fig. 4: breakdown of PS and AR per-iteration time, all four benchmarks.
pub fn fig4(scale: &Scale, runs: &RunStore) -> Vec<BreakdownRow> {
    let cells = [Strategy::SyncPs, Strategy::SyncAr]
        .into_iter()
        .flat_map(|strategy| Algorithm::ALL.map(|alg| (alg, strategy)));
    breakdowns(cells.collect(), scale, runs)
}

/// Fig. 12: per-iteration breakdown of PS, AR, and iSW (normalize against
/// the PS row of the same algorithm when plotting).
pub fn fig12(scale: &Scale, runs: &RunStore) -> Vec<BreakdownRow> {
    let cells = Algorithm::ALL
        .into_iter()
        .flat_map(|alg| SYNC.map(|strategy| (alg, strategy)));
    breakdowns(cells.collect(), scale, runs)
}

// ---------------------------------------------------------------------------
// Fig. 8 — conventional vs on-the-fly aggregation
// ---------------------------------------------------------------------------

/// Aggregation-completion latency of the two schemes of Fig. 8, measured
/// from the arrival of the first gradient bit at the aggregator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Algorithm name (fixes the vector size).
    pub algorithm: String,
    /// Gradient vector bytes.
    pub model_bytes: usize,
    /// Conventional scheme (Fig. 8a): wait for all vectors, then sum.
    pub conventional_ms: f64,
    /// On-the-fly scheme (Fig. 8b): sum per packet as it arrives.
    pub on_the_fly_ms: f64,
}

/// Fig. 8: latency comparison of the aggregation schemes, analytic over
/// the same arrival schedule (N workers streaming at 10 GbE line rate).
pub fn fig8(workers: usize) -> Vec<Fig8Row> {
    let comm = CommCosts::default();
    let accel = AcceleratorConfig::default();
    Algorithm::ALL
        .iter()
        .map(|&alg| {
            let bytes = paper_model(alg).bytes();
            let packets = bytes.div_ceil(1456);
            // Workers stream in parallel on their own links; the receiver
            // sees the full vectors after one vector's serialization time.
            let stream = SimDuration::serialization(bytes + packets * 66, 10_000_000_000);
            // Conventional: all vectors resident, then a full N-vector sum.
            let conventional = stream + comm.sum_time(workers, bytes);
            // On the fly: the last packet's datapath latency after the
            // stream finishes.
            let on_the_fly = stream + accel.packet_latency(1_472);
            Fig8Row {
                algorithm: alg.name().to_string(),
                model_bytes: bytes,
                conventional_ms: conventional.as_millis_f64(),
                on_the_fly_ms: on_the_fly.as_millis_f64(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 4 — synchronous training
// ---------------------------------------------------------------------------

/// One benchmark's synchronous results (Table 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Iterations to reach the target reward (same for PS/AR/iSW).
    pub iterations: usize,
    /// Final average reward achieved.
    pub final_reward: f32,
    /// Per-iteration seconds for PS, AR, iSW.
    pub per_iteration_s: [f64; 3],
    /// End-to-end seconds (iterations × per-iteration) for PS, AR, iSW.
    pub end_to_end_s: [f64; 3],
    /// Speedup over PS for [PS, AR, iSW].
    pub speedup: [f64; 3],
}

/// Table 4: synchronous comparison across PS / AR / iSW.
pub fn table4(scale: &Scale, runs: &RunStore) -> Vec<SyncRow> {
    run_cells(&SYNC, scale, runs);
    (Algorithm::ALL.into_iter())
        .map(|alg| {
            let timing = SYNC.map(|s| runs.timing(&scale.timing(alg, s)));
            let conv = runs.convergence(&convergence_config(alg, SYNC[0], &timing[0], scale));
            let times = timing.map(|t| t.per_iteration.as_secs_f64());
            let e2e = times.map(|t| t * conv.iterations as f64);
            SyncRow {
                algorithm: alg.name().to_string(),
                iterations: conv.iterations,
                final_reward: conv.final_average_reward,
                per_iteration_s: times,
                end_to_end_s: e2e,
                speedup: [1.0, e2e[0] / e2e[1], e2e[0] / e2e[2]],
            }
        })
        .collect()
}

/// Puts the runs behind Tables 4 and 5 into `runs`, one queue entry per
/// `(algorithm, strategy)`: its timing run, then the convergence run that
/// turns it into end-to-end time. The sync strategies share one
/// convergence run, which only PS's entry asks for, so no entry waits on
/// another's. The tables then read every run back from the store.
fn run_cells(strategies: &[Strategy], scale: &Scale, runs: &RunStore) {
    let cells = (Algorithm::ALL.into_iter())
        .flat_map(|alg| strategies.iter().map(move |&strategy| (alg, strategy)));
    parallel_map(cells.collect(), |(alg, strategy)| {
        let timing = runs.timing(&scale.timing(alg, strategy));
        if strategy.is_async() || strategy == SYNC[0] {
            runs.convergence(&convergence_config(alg, strategy, &timing, scale));
        }
    });
}

/// The convergence run that turns `strategy`'s per-iteration time into
/// end-to-end time: the lite workload to its target reward. An async
/// strategy trains under the staleness its `timing` run measured (S = 3)
/// at [`async_lr_scale`]; a sync one reads nothing of `timing`, so PS, AR
/// and iSW share one run.
fn convergence_config(
    alg: Algorithm,
    strategy: Strategy,
    timing: &TimingResult,
    scale: &Scale,
) -> ConvergenceConfig {
    let mut cfg = ConvergenceConfig {
        max_iterations: scale.convergence_cap,
        ..ConvergenceConfig::sync_main(alg)
    };
    if strategy.is_async() {
        let (staleness, bound) = (StalenessDistribution::from_samples(&timing.staleness), 3);
        cfg.lr_scale = async_lr_scale(alg);
        cfg.semantics = if strategy == Strategy::AsyncPs {
            AggregationSemantics::AsyncSingle { staleness, bound }
        } else {
            AggregationSemantics::AsyncAggregated { staleness, bound }
        };
    }
    cfg
}

// ---------------------------------------------------------------------------
// Table 5 — asynchronous training
// ---------------------------------------------------------------------------

/// One benchmark's asynchronous results (Table 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Iterations (weight updates) to reach the target: [Async PS, Async iSW].
    pub iterations: [usize; 2],
    /// Whether each run reached the target within the cap.
    pub reached: [bool; 2],
    /// Final average rewards.
    pub final_reward: [f32; 2],
    /// Per-iteration (update-interval) seconds.
    pub per_iteration_s: [f64; 2],
    /// End-to-end seconds.
    pub end_to_end_s: [f64; 2],
    /// Async iSW speedup over Async PS.
    pub isw_speedup: f64,
    /// Mean staleness measured in timing mode.
    pub mean_staleness: [f64; 2],
}

/// Table 5: asynchronous comparison, staleness bound S = 3 for both.
pub fn table5(scale: &Scale, runs: &RunStore) -> Vec<AsyncRow> {
    const ASYNC: [Strategy; 2] = [Strategy::AsyncPs, Strategy::AsyncIsw];
    run_cells(&ASYNC, scale, runs);
    (Algorithm::ALL.into_iter())
        .map(|alg| {
            let [(t_ps, c_ps), (t_isw, c_isw)] = ASYNC.map(|s| {
                let timing = runs.timing(&scale.timing(alg, s));
                let conv = runs.convergence(&convergence_config(alg, s, &timing, scale));
                (timing, conv)
            });
            let per = [
                t_ps.per_iteration.as_secs_f64(),
                t_isw.per_iteration.as_secs_f64(),
            ];
            let e2e = [
                per[0] * c_ps.iterations as f64,
                per[1] * c_isw.iterations as f64,
            ];
            AsyncRow {
                algorithm: alg.name().to_string(),
                iterations: [c_ps.iterations, c_isw.iterations],
                reached: [c_ps.reached_target, c_isw.reached_target],
                final_reward: [c_ps.final_average_reward, c_isw.final_average_reward],
                per_iteration_s: per,
                end_to_end_s: e2e,
                isw_speedup: e2e[0] / e2e[1],
                mean_staleness: [&t_ps, &t_isw]
                    .map(|t| StalenessDistribution::from_samples(&t.staleness).mean()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — headline speedups
// ---------------------------------------------------------------------------

/// The headline speedup summary (Table 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// Sync speedups over PS: rows AR then iSW, columns DQN/A2C/PPO/DDPG.
    pub sync_ar: [f64; 4],
    /// Sync iSW speedups over PS.
    pub sync_isw: [f64; 4],
    /// Async iSW speedups over Async PS.
    pub async_isw: [f64; 4],
    /// Whether each async run reached the target within the cap: [Async
    /// PS, Async iSW] per column. A ratio with a capped run behind it is no
    /// speedup.
    pub async_reached: [[bool; 2]; 4],
}

/// Table 3: system-level speedups in end-to-end training time — the
/// speedup columns of Tables 4 and 5, composed from the runs they made.
pub fn table3(scale: &Scale, runs: &RunStore) -> Table3 {
    let (sync, asynch) = (table4(scale, runs), table5(scale, runs));
    Table3 {
        sync_ar: std::array::from_fn(|i| sync[i].speedup[1]),
        sync_isw: std::array::from_fn(|i| sync[i].speedup[2]),
        async_isw: std::array::from_fn(|i| asynch[i].isw_speedup),
        async_reached: std::array::from_fn(|i| asynch[i].reached),
    }
}

// ---------------------------------------------------------------------------
// Figs. 13 & 14 — training curves
// ---------------------------------------------------------------------------

/// A reward-vs-wall-clock training curve for one strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Strategy label.
    pub strategy: String,
    /// `(minutes of simulated wall-clock, pooled average reward)` points.
    pub points: Vec<(f64, f32)>,
}

/// Figs. 13/14: training curves of one algorithm (the paper plots DQN).
/// `strategies` picks sync (Fig. 13: PS, AR, iSW) or async (Fig. 14).
pub fn training_curves(
    alg: Algorithm,
    strategies: &[Strategy],
    scale: &Scale,
    runs: &RunStore,
) -> Vec<Curve> {
    parallel_map(strategies.to_vec(), |strategy| {
        let timing = runs.timing(&scale.timing(alg, strategy));
        let conv = runs.convergence(&ConvergenceConfig {
            max_iterations: scale.curve_iterations,
            target_reward: None,
            curve_every: scale.curve_every,
            ..convergence_config(alg, strategy, &timing, scale)
        });
        let per_iter_min = timing.per_iteration.as_secs_f64() / 60.0;
        Curve {
            strategy: strategy.label().to_string(),
            points: smooth_curve(&conv.curve, per_iter_min, 7),
        }
    })
}

/// Converts an iteration-indexed reward curve to wall-clock minutes with a
/// centered moving average of `window` points (episode rewards are noisy;
/// the paper's curves are similarly smoothed by its reward averaging).
fn smooth_curve(curve: &[(usize, f32)], per_iter_min: f64, window: usize) -> Vec<(f64, f32)> {
    let half = window / 2;
    (0..curve.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(curve.len());
            let mean: f32 = curve[lo..hi].iter().map(|(_, r)| *r).sum::<f32>() / (hi - lo) as f32;
            (curve[i].0 as f64 * per_iter_min, mean)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 15 — scalability
// ---------------------------------------------------------------------------

/// One strategy's scalability series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalabilitySeries {
    /// Strategy label.
    pub strategy: String,
    /// Worker counts.
    pub workers: Vec<usize>,
    /// End-to-end speedup normalized to the smallest worker count.
    pub speedup: Vec<f64>,
}

/// Fig. 15: rack-scale scalability of one algorithm (paper: PPO and DDPG),
/// two-layer topology with 3 workers per rack.
///
/// Speedup definition follows the paper: end-to-end training time
/// normalized to each strategy's 4-node case, under a fixed total sample
/// budget (so iterations scale as `1/N`). For asynchronous strategies the
/// staleness measured at each cluster size additionally inflates the
/// iteration count via a convergence probe on the lite workload.
pub fn fig15(
    alg: Algorithm,
    strategies: &[Strategy],
    scale: &Scale,
    runs: &RunStore,
) -> Vec<ScalabilitySeries> {
    let workers = &scale.scalability_workers;
    let cells: Vec<(Strategy, usize)> = strategies
        .iter()
        .flat_map(|&strategy| workers.iter().map(move |&n| (strategy, n)))
        .collect();
    // Simulated seconds per effective sample of each cell.
    let cost = parallel_map(cells, |(strategy, n)| {
        let mut cfg = scale.timing(alg, strategy);
        cfg.workers = n;
        cfg.workers_per_rack = Some(3);
        let t = runs.timing(&cfg);
        // Discarded (over-stale) gradients are wasted samples, so they do
        // not count toward the fixed sample budget.
        let effective_n = n as f64 * (1.0 - t.discard_fraction);
        t.per_iteration.as_secs_f64() * async_iteration_inflation(&t, strategy, scale, runs)
            / effective_n
    });
    strategies
        .iter()
        .zip(cost.chunks(workers.len()))
        .map(|(strategy, cost)| ScalabilitySeries {
            strategy: strategy.label().to_string(),
            workers: workers.clone(),
            speedup: cost.iter().map(|c| cost[0] / c).collect(),
        })
        .collect()
}

/// Iteration-inflation factor caused by the staleness of an async `timing`
/// run (1 for a sync strategy), probed with a short convergence run on the
/// fast A2C lite workload and normalized against the staleness-free run.
fn async_iteration_inflation(
    timing: &TimingResult,
    strategy: Strategy,
    scale: &Scale,
    runs: &RunStore,
) -> f64 {
    if !strategy.is_async() || timing.staleness.is_empty() {
        return 1.0;
    }
    let stale = ConvergenceConfig {
        max_iterations: scale.convergence_cap.min(6_000),
        ..convergence_config(Algorithm::A2c, strategy, timing, scale)
    };
    let fresh = ConvergenceConfig {
        semantics: AggregationSemantics::Synchronous,
        ..stale.clone()
    };
    let iterations = |cfg| runs.convergence(cfg).iterations as f64;
    (iterations(&stale) / iterations(&fresh)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_match_paper_within_one_percent() {
        for row in table1() {
            let err =
                (row.model_bytes as f64 - row.paper_bytes as f64).abs() / row.paper_bytes as f64;
            assert!(
                err < 0.01,
                "{}: {} vs {}",
                row.algorithm,
                row.model_bytes,
                row.paper_bytes
            );
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "experiment worker panicked")]
    fn parallel_map_propagates_panics() {
        let _ = parallel_map(vec![1, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn table3_composes_the_runs_tables_4_and_5_made() {
        let scale = Scale {
            timing_iters: 1,
            warmup: 1,
            convergence_cap: 100,
            ..Scale::quick()
        };
        let runs = RunStore::default();
        let entries = || {
            runs.timing.lock().expect("lock").len() + runs.convergence.lock().expect("lock").len()
        };
        let (sync, asynch) = (table4(&scale, &runs), table5(&scale, &runs));
        let made = entries();
        let t = table3(&scale, &runs);
        assert_eq!(entries(), made, "table3 ran a configuration of its own");
        let column = |rows: Vec<f64>| <[f64; 4]>::try_from(rows).expect("four algorithms");
        assert_eq!(
            t.sync_ar,
            column(sync.iter().map(|r| r.speedup[1]).collect())
        );
        assert_eq!(
            t.sync_isw,
            column(sync.iter().map(|r| r.speedup[2]).collect())
        );
        assert_eq!(
            t.async_isw,
            column(asynch.iter().map(|r| r.isw_speedup).collect())
        );
        let reached: Vec<[bool; 2]> = asynch.iter().map(|r| r.reached).collect();
        assert_eq!(t.async_reached[..], reached[..]);
    }

    #[test]
    fn fig8_on_the_fly_always_wins() {
        for row in fig8(4) {
            assert!(
                row.on_the_fly_ms < row.conventional_ms,
                "{}: {} !< {}",
                row.algorithm,
                row.on_the_fly_ms,
                row.conventional_ms
            );
        }
    }

    #[test]
    fn fig8_gap_grows_with_model_size() {
        let rows = fig8(4);
        let gap = |r: &Fig8Row| r.conventional_ms - r.on_the_fly_ms;
        let dqn = rows.iter().find(|r| r.algorithm == "DQN").unwrap();
        let ppo = rows.iter().find(|r| r.algorithm == "PPO").unwrap();
        assert!(gap(dqn) > gap(ppo) * 10.0);
    }
}
