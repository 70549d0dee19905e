//! The gradient seam of the strategy runtime: where a worker's gradient
//! bytes come from and where aggregated results go.
//!
//! Every strategy application drives the same iteration machinery (see
//! [`crate::apps::runtime`]); what differs across *fidelity modes* is the
//! payload behind that machinery:
//!
//! * [`SyntheticGradients`] — timing mode. A fixed vector whose contents
//!   are irrelevant; only its size (and therefore its packetization)
//!   matters. Applying an aggregate is a no-op.
//! * [`AgentGradients`] — co-simulation mode. A real
//!   [`iswitch_rl::LocalReplica`] computes gradients that are packetized,
//!   summed by the in-switch datapath on actual f32 segments, reassembled,
//!   and applied — reward curve and per-iteration timing from one run.
//!   Under synchronous iSwitch each one reports what it computed and
//!   applied to its job's live-run record (`live_record`).
//!
//! Convergence mode needs no source: it steps the same replicas
//! (`cluster_replicas`) directly, with no network in between.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use iswitch_core::{CodecKind, EncodedGradient};
use iswitch_netsim::IpAddr;
use iswitch_rl::{make_lite_agent_scaled, Algorithm, LocalReplica};

use crate::live_record::LiveRecord;
use crate::timing_runner::{Fidelity, TimingConfig};

/// Where a worker's gradient comes from and where aggregates go.
///
/// The strategy runtime calls [`GradientSource::compute`] when the local
/// gradient computation (LGC) span ends, an iSwitch worker sends the
/// packets of [`GradientSource::encoded`], and the runtime hands the
/// reassembled aggregate to [`GradientSource::apply_aggregate`] when the
/// local weight update (LWU) span closes.
pub trait GradientSource: Send + 'static {
    /// Gradient length in f32 elements.
    fn grad_len(&self) -> usize;

    /// Whether the strategy protocol must reassemble real aggregate
    /// *values* from the wire (co-sim) or only track completion (timing).
    fn wants_values(&self) -> bool {
        false
    }

    /// The most recently computed gradient's contribution payloads under
    /// `codec`, as sent from `src` (see [`iswitch_core::EncodedGradient`]).
    /// `exp_bias` seeds the fixed-point exponent-stamp bug of the chaos
    /// harness; zero is correct operation.
    fn encoded(&self, src: IpAddr, codec: CodecKind, exp_bias: i8) -> EncodedGradient;

    /// Produces a fresh gradient at the current local weights (LGC).
    fn compute(&mut self) {}

    /// Installs an aggregated (mean) gradient into the local replica (LWU).
    fn apply_aggregate(&mut self, _mean: &[f32]) {}

    /// Current weight replica, when one exists.
    fn params(&self) -> &[f32] {
        &[]
    }

    /// Aggregated updates applied so far.
    fn updates_applied(&self) -> u64 {
        0
    }

    /// `(update_count, reward)` curve points recorded at updates where the
    /// replica had completed episodes.
    fn reward_curve(&self) -> &[(u64, f32)] {
        &[]
    }

    /// The paper's "Final Average Reward" of the backing replica, if any.
    fn final_average_reward(&self) -> Option<f32> {
        None
    }
}

/// Timing-mode source: a fixed synthetic vector of ones. Packet sizes and
/// counts match the real model exactly; values never change.
///
/// Clones share one state, and a job hands one clone to each of its
/// iSwitch workers: the payloads [`GradientSource::encoded`] returns are
/// encoded once, and every worker's handle sends from that one store.
/// Nothing gradient-sized is allocated until a worker asks for the
/// payloads, so a job whose workers never do (the host-side strategies)
/// pays nothing for it.
#[derive(Clone)]
pub struct SyntheticGradients {
    shared: Arc<Synthetic>,
}

struct Synthetic {
    len: usize,
    /// The payloads, encoded on first [`GradientSource::encoded`] under
    /// the job's one codec.
    encoded: OnceLock<(CodecKind, EncodedGradient)>,
}

impl SyntheticGradients {
    /// A synthetic gradient of `grad_len` f32 elements.
    pub fn new(grad_len: usize) -> Self {
        SyntheticGradients {
            shared: Arc::new(Synthetic {
                len: grad_len,
                encoded: OnceLock::new(),
            }),
        }
    }
}

impl GradientSource for SyntheticGradients {
    fn grad_len(&self) -> usize {
        self.shared.len
    }

    /// A handle on the one shared store: no encode after the first.
    fn encoded(&self, src: IpAddr, codec: CodecKind, exp_bias: i8) -> EncodedGradient {
        assert_eq!(exp_bias, 0, "a synthetic source sends honest payloads");
        let (encoded_as, store) = self.shared.encoded.get_or_init(|| {
            // Encoded from a vector dropped right after, so the run keeps
            // only the payloads.
            let ones = vec![1.0f32; self.shared.len];
            (codec, EncodedGradient::with_codec(src, &ones, codec, 0))
        });
        assert_eq!(*encoded_as, codec, "one synthetic source serves one codec");
        store.with_src(src)
    }
}

/// Co-simulation source: a real agent replica whose gradients ride the
/// simulated datapath and whose weights advance on reassembled aggregates.
pub struct AgentGradients {
    replica: LocalReplica,
    /// The most recently computed gradient, shared with the record.
    grad: Arc<Vec<f32>>,
    /// The current gradient's payloads, encoded on the round's first send
    /// and shared by its resends; cleared by [`GradientSource::compute`].
    encoded: OnceLock<(CodecKind, i8, EncodedGradient)>,
    curve: Vec<(u64, f32)>,
    /// This worker's index and its job's record, if the job keeps one.
    record: Option<(usize, Arc<Mutex<LiveRecord>>)>,
}

impl AgentGradients {
    /// Wraps a local replica.
    pub fn new(replica: LocalReplica) -> Self {
        let len = replica.param_count();
        AgentGradients {
            replica,
            grad: Arc::new(vec![0.0; len]),
            encoded: OnceLock::new(),
            curve: Vec::new(),
            record: None,
        }
    }

    /// This worker's index and its job's record, locked.
    fn locked_record(&self) -> Option<(usize, MutexGuard<'_, LiveRecord>)> {
        let (w, record) = self.record.as_ref()?;
        Some((*w, record.lock().expect("live record lock")))
    }
}

impl GradientSource for AgentGradients {
    fn grad_len(&self) -> usize {
        self.replica.param_count()
    }

    fn wants_values(&self) -> bool {
        true
    }

    /// A handle on the current gradient's store: one encode per round.
    fn encoded(&self, src: IpAddr, codec: CodecKind, exp_bias: i8) -> EncodedGradient {
        let (encoded_as, bias, store) = self.encoded.get_or_init(|| {
            let store = EncodedGradient::with_codec(src, &self.grad, codec, exp_bias);
            (codec, exp_bias, store)
        });
        assert_eq!(
            (*encoded_as, *bias),
            (codec, exp_bias),
            "one encoding per round"
        );
        store.with_src(src)
    }

    fn compute(&mut self) {
        self.grad = Arc::new(self.replica.compute_gradient());
        self.encoded.take();
        if let Some((w, mut record)) = self.locked_record() {
            record.computed(w, Arc::clone(&self.grad));
        }
    }

    fn apply_aggregate(&mut self, mean: &[f32]) {
        if let Some((w, mut record)) = self.locked_record() {
            record.applied(w, mean);
        }
        self.replica.apply_mean(mean);
        if let Some(r) = self.replica.final_average_reward() {
            self.curve.push((self.replica.updates(), r));
        }
    }

    fn params(&self) -> &[f32] {
        self.replica.params()
    }

    fn updates_applied(&self) -> u64 {
        self.replica.updates()
    }

    fn reward_curve(&self) -> &[(u64, f32)] {
        &self.curve
    }

    fn final_average_reward(&self) -> Option<f32> {
        self.replica.final_average_reward()
    }
}

/// The live sources of a [`Fidelity::Cosim`] run, one per worker, each
/// reporting to `record` if given: the cluster's replicas at the lite
/// workload's own learning rate. `None` for a timing-fidelity run.
pub(crate) fn live_sources(
    cfg: &TimingConfig,
    record: Option<&Arc<Mutex<LiveRecord>>>,
) -> Option<Vec<AgentGradients>> {
    let Fidelity::Cosim { .. } = cfg.fidelity else {
        return None;
    };
    let replicas = cluster_replicas(cfg.algorithm, cfg.workers, cfg.seed, 1.0);
    let source = |(w, replica)| AgentGradients {
        record: record.map(|r| (w, Arc::clone(r))),
        ..AgentGradients::new(replica)
    };
    Some(replicas.into_iter().enumerate().map(source).collect())
}

/// The replicas of one cluster (convergence, co-sim, chaos): worker `w`'s
/// lite agent is seeded `seed + w` (wrapping), and every replica starts
/// from worker 0's weights (decentralized storage of one model).
pub(crate) fn cluster_replicas(
    algorithm: Algorithm,
    workers: usize,
    seed: u64,
    lr_scale: f32,
) -> Vec<LocalReplica> {
    let mut replicas: Vec<LocalReplica> = (0..workers)
        .map(|w| {
            let seed = seed.wrapping_add(w as u64);
            LocalReplica::new(make_lite_agent_scaled(algorithm, seed, lr_scale))
        })
        .collect();
    let init = replicas[0].params().to_vec();
    for r in replicas.iter_mut().skip(1) {
        r.seed_params(&init);
    }
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch_core::DataSegment;
    use iswitch_rl::make_lite_agent;

    /// Segment 0 of what `s` sends from `w`, decoded.
    fn sent(s: &dyn GradientSource, w: u8) -> (Vec<f32>, *const u8) {
        let pkt = s
            .encoded(IpAddr::new(10, 0, 0, w), CodecKind::F32, 0)
            .packet(0, 0);
        let values = DataSegment::decode(&pkt.payload)
            .expect("an f32 payload")
            .values;
        (values, pkt.payload.as_ptr())
    }

    #[test]
    fn synthetic_source_sends_constant_ones_from_one_store() {
        let mut s = SyntheticGradients::new(5);
        s.compute();
        let (ones, first) = sent(&s, 1);
        assert_eq!(ones, [1.0; 5]);
        assert!(!s.wants_values());
        s.apply_aggregate(&[9.0; 5]);
        // Another worker's clone shares the payload, unchanged.
        assert_eq!(sent(&s.clone(), 2), (ones, first));
    }

    #[test]
    fn agent_source_round_trips_gradients_into_weights() {
        let mut s = AgentGradients::new(LocalReplica::new(make_lite_agent(Algorithm::A2c, 3)));
        let before = s.params().to_vec();
        s.compute();
        let g = s.grad.to_vec();
        assert_eq!(g.len(), s.grad_len());
        let (head, _) = sent(&s, 1);
        assert_eq!(head, g[..head.len()]);
        // A resend in the same round shares the round's one encode.
        let src = IpAddr::new(10, 0, 0, 1);
        let first = s.encoded(src, CodecKind::F32, 0).packet(0, 0);
        let resent = s.encoded(src, CodecKind::F32, 0).packet(0, 0);
        assert_eq!(resent.payload.as_ptr(), first.payload.as_ptr());
        s.compute();
        let (next, _) = sent(&s, 1);
        assert_eq!(next, s.grad[..next.len()]);
        s.apply_aggregate(&g);
        assert_eq!(s.updates_applied(), 1);
        assert_ne!(s.params(), &before[..]);
    }
}
