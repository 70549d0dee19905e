//! The live-run record: what the replicas of a synchronous iSwitch job
//! with live gradients ([`crate::Fidelity::Cosim`]) computed and applied,
//! round by round, and the two checks of the paper's claim that summing in
//! the switch changes where the mean gradient is taken, not what it is.
//!
//! `lifecycle::build` makes one per such job, as it installs the job's
//! observability sinks; the [`crate::lifecycle::Job`] holds it, and every
//! worker's [`crate::AgentGradients`] reports into it: its round-`r`
//! gradient when it computes it (LGC), the aggregate it applies for round
//! `r` when it applies it (LWU). Rounds are counted per worker, so lock-step
//! pacing makes the `r`-th compute and the `r`-th apply the same round on
//! every worker. From those reports it keeps:
//!
//! * **the reference error** (what co-sim reports): at each apply, in apply
//!   order, the relative error of the applied aggregate against the exact
//!   `f64` mean of that round's gradients, summed in the order the workers
//!   computed them; sampled only once every worker has computed the round;
//! * **conservation (I1)** (what chaos checks): every segment of every
//!   applied aggregate is the mean of some non-empty subset of the round's
//!   gradients over that segment, each worker counted at most once. A
//!   worker's gradient can only join a round's candidates, so an aggregate
//!   is checked as soon as every worker has computed its round — at the
//!   apply, or when the last worker computes — and one applied before that
//!   waits. An aggregate still waiting when the job is collected is checked
//!   then, against the workers that computed its round (none: a violation
//!   of its own). Top-k discards coordinates by design, so no subset mean
//!   describes its aggregates: under top-k only the reference error is
//!   kept;
//! * **each worker's apply count**, which chaos holds against its
//!   completed iterations (I4).
//!
//! Memory stays bounded: a round is dropped once every worker has computed
//! and applied it, so a lock-step run holds at most the two rounds its
//! fastest and slowest workers are in, however long it trains. The record
//! shares each gradient with the worker's source rather than copying it.

use std::collections::BTreeMap;
use std::sync::Arc;

use iswitch_core::CodecKind;

/// One job's live-run record (see the module docs).
pub(crate) struct LiveRecord {
    workers: usize,
    codec: CodecKind,
    /// Gradients each worker has computed: the round of its next one.
    computed: Vec<usize>,
    /// Aggregates each worker has applied: the round of its next one.
    applied: Vec<usize>,
    /// The rounds some worker has yet to compute or apply, by round.
    rounds: BTreeMap<usize, Round>,
    ref_error: RefError,
    /// I1 violations by (worker, round, segment); a round no worker
    /// computed a gradient for is keyed at segment 0.
    violations: BTreeMap<(usize, usize, usize), String>,
}

#[derive(Default)]
struct Round {
    /// `(worker, gradient)`, in the order the workers computed them.
    grads: Vec<(usize, Arc<Vec<f32>>)>,
    /// Aggregates applied before every worker had computed the round.
    waiting: Vec<(usize, Vec<f32>)>,
    applies: usize,
}

#[derive(Default)]
struct RefError {
    sum: f64,
    max: f64,
    samples: u64,
}

impl LiveRecord {
    /// An empty record for `workers` replicas aggregating under `codec`.
    pub(crate) fn new(workers: usize, codec: CodecKind) -> Self {
        LiveRecord {
            workers,
            codec,
            computed: vec![0; workers],
            applied: vec![0; workers],
            rounds: BTreeMap::new(),
            ref_error: RefError::default(),
            violations: BTreeMap::new(),
        }
    }

    /// Worker `w` computed `grad`, its gradient for its next round.
    pub(crate) fn computed(&mut self, w: usize, grad: Arc<Vec<f32>>) {
        let r = self.computed[w];
        self.computed[w] += 1;
        let round = self.rounds.entry(r).or_default();
        round.grads.push((w, grad));
        if round.grads.len() == self.workers {
            for (w, agg) in std::mem::take(&mut round.waiting) {
                check(self.codec, &round.grads, (w, r), &agg, &mut self.violations);
            }
        }
        self.settle(r);
    }

    /// Worker `w` applied `mean`, its aggregate for its next round.
    pub(crate) fn applied(&mut self, w: usize, mean: &[f32]) {
        let r = self.applied[w];
        self.applied[w] += 1;
        let round = self.rounds.entry(r).or_default();
        round.applies += 1;
        if round.grads.len() < self.workers {
            round.waiting.push((w, mean.to_vec()));
            return;
        }
        let rel = relative_error(mean, &round.grads);
        self.ref_error.sum += rel;
        self.ref_error.max = self.ref_error.max.max(rel);
        self.ref_error.samples += 1;
        check(self.codec, &round.grads, (w, r), mean, &mut self.violations);
        self.settle(r);
    }

    /// Drops round `r` once every worker has computed and applied it.
    fn settle(&mut self, r: usize) {
        let round = &self.rounds[&r];
        if round.grads.len() == self.workers && round.applies == self.workers {
            self.rounds.remove(&r);
        }
    }

    /// Mean and worst relative reference error over every sampled apply;
    /// `None` before the first.
    pub(crate) fn ref_error(&self) -> Option<(f64, f64)> {
        let e = &self.ref_error;
        (e.samples > 0).then(|| (e.sum / e.samples as f64, e.max))
    }

    /// Aggregates worker `w` has applied.
    pub(crate) fn applies(&self, w: usize) -> usize {
        self.applied[w]
    }

    /// Rounds the record still holds.
    #[cfg(test)]
    pub(crate) fn held_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Collection: checks every aggregate still waiting, against the
    /// workers that computed its round, drops every round, and returns the
    /// I1 violations as `(round, line)` in (worker, round, segment) order.
    pub(crate) fn close(&mut self) -> Vec<(usize, String)> {
        for (r, round) in std::mem::take(&mut self.rounds) {
            for (w, agg) in &round.waiting {
                check(self.codec, &round.grads, (*w, r), agg, &mut self.violations);
            }
        }
        (std::mem::take(&mut self.violations).into_iter())
            .map(|((_, r, _), line)| (r, line))
            .collect()
    }
}

/// I1 on worker `w`'s round-`r` aggregate `agg`, against the gradients
/// `grads` the round holds, into `violations` (top-k: not checked).
fn check(
    codec: CodecKind,
    grads: &[(usize, Arc<Vec<f32>>)],
    (w, r): (usize, usize),
    agg: &[f32],
    violations: &mut BTreeMap<(usize, usize, usize), String>,
) {
    if codec == CodecKind::TopK {
        return;
    }
    let mut candidates: Vec<(usize, &[f32])> =
        (grads.iter()).map(|(c, g)| (*c, g.as_slice())).collect();
    candidates.sort_by_key(|&(c, _)| c);
    if candidates.is_empty() {
        let line = format!(
            "I1 conservation: worker {w} round {r} applied an aggregate \
             no worker computed a gradient for"
        );
        violations.insert((w, r, 0), line);
        return;
    }
    let seg_elems = codec.elems_per_segment();
    for (s, chunk) in agg.chunks(seg_elems).enumerate() {
        let lo = s * seg_elems;
        let seg_cands: Vec<&[f32]> = (candidates.iter())
            .map(|(_, c)| &c[lo..lo + chunk.len()])
            .collect();
        let tol = codec_tolerance(codec, &seg_cands);
        if !matches_some_subset(chunk, &seg_cands, tol) {
            let line = format!(
                "I1 conservation: worker {w} round {r} segment {s} applied \
                 an aggregate matching no subset of that round's gradients"
            );
            violations.insert((w, r, s), line);
        }
    }
}

/// How far `mean` lands from the exact mean of `grads`, relative to that
/// mean's largest magnitude: the codec's end-to-end gradient error.
fn relative_error(mean: &[f32], grads: &[(usize, Arc<Vec<f32>>)]) -> f64 {
    let n = grads.len() as f64;
    let mut max_abs = 0.0f64;
    let mut max_err = 0.0f64;
    for (i, &a) in mean.iter().enumerate() {
        let sum = grads.iter().fold(0.0f64, |acc, (_, g)| acc + g[i] as f64);
        let reference = sum / n;
        max_abs = max_abs.max(reference.abs());
        max_err = max_err.max((a as f64 - reference).abs());
    }
    if max_abs > 0.0 {
        max_err / max_abs
    } else {
        0.0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{build, Capture};
    use crate::timing_runner::{Fidelity, Strategy, TimingConfig};
    use iswitch_netsim::{SimDuration, SimTime};
    use iswitch_rl::Algorithm;

    fn grad(values: &[f32]) -> Arc<Vec<f32>> {
        Arc::new(values.to_vec())
    }

    #[test]
    fn an_early_aggregate_waits_for_its_round_and_a_missing_one_is_named() {
        let mut record = LiveRecord::new(2, CodecKind::F32);
        // Worker 0 applies a partial flush of its own gradient before
        // worker 1 has computed: checked once the round is whole.
        record.computed(0, grad(&[1.0, 2.0]));
        record.applied(0, &[1.0, 2.0]);
        assert_eq!(record.ref_error(), None);
        record.computed(1, grad(&[3.0, 4.0]));
        record.applied(1, &[2.0, 3.0]);
        assert_eq!(record.ref_error(), Some((0.0, 0.0)));
        assert_eq!(record.held_rounds(), 0, "a closed round is dropped");
        // Round 1: worker 1 applies a double count of worker 0; worker 0
        // applies an aggregate for round 2, which nobody computed.
        record.computed(0, grad(&[1.0, 2.0]));
        record.computed(1, grad(&[3.0, 4.0]));
        record.applied(1, &[5.0 / 3.0, 8.0 / 3.0]);
        record.applied(0, &[2.0, 3.0]);
        record.applied(0, &[0.0, 0.0]);
        assert_eq!((record.applies(0), record.applies(1)), (3, 2));
        let lines = record.close();
        let rounds: Vec<usize> = lines.iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, [2, 1], "(worker, round, segment) order: {lines:?}");
        assert!(lines[0]
            .1
            .contains("worker 0 round 2 applied an aggregate no worker"));
        assert!(lines[1].1.contains("worker 1 round 1 segment 0"));
        assert_eq!(record.held_rounds(), 0);
    }

    #[test]
    fn a_long_sync_cosim_holds_at_most_two_rounds() {
        let mut cfg = TimingConfig::cosim_lite(Algorithm::A2c, Strategy::SyncIsw);
        cfg.iterations = 300;
        cfg.fidelity = Fidelity::Cosim {
            target_reward: None,
        };
        let mut job = build(&cfg, 0, Capture::default());
        let mut deadline = SimTime::ZERO;
        while !job.done {
            deadline += SimDuration::from_millis(20);
            job.drive(deadline).expect("a healthy job");
            let held = job
                .record()
                .expect("a sync co-sim keeps a record")
                .held_rounds();
            assert!(held <= 2, "{held} rounds held at {deadline}");
        }
        let record = job.record().expect("a record");
        assert_eq!(
            record.held_rounds(),
            0,
            "every round was checked and dropped"
        );
        assert!((0..cfg.workers).all(|w| record.applies(w) == cfg.iterations));
        assert!(record.ref_error().is_some_and(|(mean, _)| mean < 1e-5));
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
}
