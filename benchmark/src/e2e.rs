//! End-to-end measurement: set-up repeats, one counted pass, then timed
//! samples taken round-robin across the workloads being measured, so a slow
//! phase of the shared machine is spread over all of them.

use std::time::Instant;

use iswitch_bench::paper::{SYNC_AR_SPEEDUP, SYNC_ISW_SPEEDUP};

use crate::measure::{counted, timed, HeapUse, Quartiles};
use crate::report::{Metric, END_TO_END};
use crate::workloads::{paper_sync_cells, run_perf, Fingerprint, Plan, Size, Workload};

/// When a workload has been sampled enough.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Sample for at least this many seconds of wall time.
    Seconds(f64),
    /// Take exactly this many samples.
    Samples(usize),
}

/// A workload needs this many samples whatever the time budget says:
/// fewer cannot give a quartile.
const MIN_SAMPLES: usize = 3;

/// Set-up repeats under a time budget: at least `MIN_SAMPLES`, then until
/// this much wall time or this many repeats.
const SETUP_SECONDS: f64 = 1.5;
const SETUP_MAX_REPEATS: usize = 40;

/// Reproduction error against the paper's Table 3.
#[derive(Debug, Clone, Copy)]
pub struct PaperFidelity {
    /// Mean of |ours / paper - 1| over the eight synchronous speedups.
    pub mean_err: f64,
    pub max_err: f64,
}

impl PaperFidelity {
    /// From the per-iteration times of [`paper_sync_cells`], in its order.
    fn from_cells(per_iteration_ns: &[u64]) -> Self {
        let errs: Vec<f64> = per_iteration_ns
            .chunks_exact(3)
            .enumerate()
            .flat_map(|(alg, cell)| {
                let (ps, ar, isw) = (cell[0] as f64, cell[1] as f64, cell[2] as f64);
                [
                    (ps / ar / SYNC_AR_SPEEDUP[alg] - 1.0).abs(),
                    (ps / isw / SYNC_ISW_SPEEDUP[alg] - 1.0).abs(),
                ]
            })
            .collect();
        PaperFidelity {
            mean_err: errs.iter().sum::<f64>() / errs.len() as f64,
            max_err: errs.iter().fold(0.0, |m, &e| m.max(e)),
        }
    }

    /// Runs the twelve synchronous cells and scores them.
    pub fn measure(seed: u64) -> Self {
        let out = run_perf(&Plan::Cells(paper_sync_cells(seed)));
        Self::from_cells(&out.fingerprint.per_iteration_ns)
    }
}

/// One workload under measurement.
struct Session {
    workload: Workload,
    plan: Plan,
    reference: Fingerprint,
    setup: Quartiles,
    heap: HeapUse,
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    attempted: u64,
    faults: Vec<String>,
}

impl Session {
    fn open(workload: Workload, seed: u64, budget: Budget, size: Size) -> Self {
        let mut attempted = 0;
        let mut faults = Vec::new();

        // Time to first result: the whole workload at its minimum length,
        // so every per-run fixed cost is in it.
        let min_plan = workload.plan(seed, Size::Min);
        let mut setup = Vec::new();
        let started = Instant::now();
        let more = |repeats: usize| match budget {
            Budget::Samples(n) => repeats < n,
            Budget::Seconds(_) => {
                repeats < MIN_SAMPLES
                    || (repeats < SETUP_MAX_REPEATS
                        && started.elapsed().as_secs_f64() < SETUP_SECONDS)
            }
        };
        while more(setup.len()) {
            let (out, cost) = timed(|| run_perf(&min_plan));
            attempted += 1;
            faults.extend(out.faults);
            setup.push(cost.cpu_s);
        }

        // The warm-up run doubles as the counted pass and fixes the
        // fingerprint every timed sample must reproduce.
        let plan = workload.plan(seed, size);
        let (reference, heap) = counted(|| run_perf(&plan));
        attempted += 1;
        faults.extend(reference.faults);

        Session {
            workload,
            plan,
            reference: reference.fingerprint,
            setup: Quartiles::of(&setup),
            heap,
            cpu_s: Vec::new(),
            wall_s: Vec::new(),
            attempted,
            faults,
        }
    }

    fn done(&self, budget: Budget) -> bool {
        match budget {
            Budget::Samples(n) => self.cpu_s.len() >= n,
            Budget::Seconds(s) => {
                self.cpu_s.len() >= MIN_SAMPLES && self.wall_s.iter().sum::<f64>() >= s
            }
        }
    }

    fn sample(&mut self) {
        let (out, cost) = timed(|| run_perf(&self.plan));
        self.attempted += 1;
        self.faults.extend(out.faults);
        if out.fingerprint != self.reference {
            self.faults.push(format!(
                "sample {} fingerprint {:?} differs from the first run's {:?}",
                self.cpu_s.len(),
                out.fingerprint,
                self.reference
            ));
        }
        self.cpu_s.push(cost.cpu_s);
        self.wall_s.push(cost.wall_s);
    }
}

/// The end-to-end numbers of one workload.
pub struct EndToEnd {
    pub workload: Workload,
    pub metrics: Vec<Metric>,
    /// Wall seconds per simulated second, for the ROADMAP trajectory;
    /// printed beside the metrics, carries no bound.
    pub wall_s_per_sim_s: f64,
    pub events: u64,
    pub cpu: Quartiles,
    pub attempted: u64,
    /// One line per failed operation.
    pub faults: Vec<String>,
}

/// Measures `workloads` together. Interference only ever adds time to a
/// deterministic single-threaded run, so the reported cost of a sample is
/// the fastest of its CPU times; the quartiles go to the table beside it.
pub fn measure(workloads: &[Workload], seed: u64, budget: Budget, size: Size) -> Vec<EndToEnd> {
    let paper = PaperFidelity::measure(seed);
    let mut sessions: Vec<Session> = workloads
        .iter()
        .map(|&w| Session::open(w, seed, budget, size))
        .collect();
    while sessions.iter().any(|s| !s.done(budget)) {
        for s in sessions.iter_mut().filter(|s| !s.done(budget)) {
            s.sample();
        }
    }
    sessions
        .into_iter()
        .map(|s| {
            let cpu = Quartiles::of(&s.cpu_s);
            let wall = Quartiles::of(&s.wall_s);
            let events = s.reference.events;
            let sim_s = s.reference.sim_ns as f64 / 1e9;
            let values = [
                (events as f64 / cpu.min, cpu.spread(), cpu.n),
                (cpu.min / sim_s, cpu.spread(), cpu.n),
                (s.setup.median, s.setup.spread(), s.setup.n),
                (s.heap.peak_bytes as f64 / (1 << 20) as f64, 0.0, 1),
                (paper.mean_err, 0.0, 1),
            ];
            let metrics = END_TO_END
                .iter()
                .zip(values)
                .map(|(spec, (value, spread, n))| Metric {
                    name: spec.name.to_owned(),
                    unit: spec.unit.to_owned(),
                    value,
                    spread,
                    n,
                })
                .collect();
            EndToEnd {
                workload: s.workload,
                metrics,
                wall_s_per_sim_s: wall.min / sim_s,
                events,
                cpu,
                attempted: s.attempted,
                faults: s.faults,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_error_is_zero_on_the_papers_own_speedups() {
        // PS = 1000 ns; AR and iSW exactly at the paper's speedup.
        let cells: Vec<u64> = (0..4)
            .flat_map(|a| {
                [
                    1_000_000,
                    (1_000_000.0 / SYNC_AR_SPEEDUP[a]).round() as u64,
                    (1_000_000.0 / SYNC_ISW_SPEEDUP[a]).round() as u64,
                ]
            })
            .collect();
        let f = PaperFidelity::from_cells(&cells);
        assert!(f.mean_err < 1e-5 && f.max_err < 1e-5, "{f:?}");
        // Doubling one iSW time halves that speedup: |0.5 - 1| / 8 cells.
        let mut slow = cells.clone();
        slow[2] *= 2;
        let f = PaperFidelity::from_cells(&slow);
        assert!((f.mean_err - 0.5 / 8.0).abs() < 1e-5 && (f.max_err - 0.5).abs() < 1e-5);
    }
}
