//! Pluggable transport layer: reliability and congestion control for the
//! strategy protocols, extracted from the apps so the *collective logic*
//! (what a round means) and the *wire policy* (how losses are recovered,
//! how fast packets leave the host) vary independently.
//!
//! Three policies are provided:
//!
//! * [`GoBackRetransmit`] — the original behaviour the iSwitch strategies
//!   shipped with: a per-iteration retry timer that asks the switch for
//!   `Help` on each missing segment and escalates to `FBcast` when a round
//!   is genuinely stuck. With the default transport the simulated event
//!   sequence is bit-identical to the pre-refactor code.
//! * [`NackReliable`] — RDMA-UC-style NACK-on-gap: the receiver reacts to
//!   the *first* out-of-order arrival instead of waiting out a timeout,
//!   requesting exactly the segments the gap proves lost. The timeout path
//!   is retained as a last resort (a tail loss produces no later arrival
//!   to expose a gap).
//! * [`Dcqcn`] — an ECN-echo rate controller layered over either
//!   reliability mode (DCQCN, simplified): egress queues CE-mark packets
//!   above a threshold ([`iswitch_netsim::EgressQueue`]), the switch
//!   echoes the mark onto the aggregated result, and the sender cuts its
//!   rate multiplicatively on echo / recovers additively on clean rounds,
//!   pacing its packet trains at the current rate.
//!
//! Determinism: transports draw no randomness; all state advances through
//! the host's seeded timer/packet events, so every policy keeps the
//! engine's replayability (and the sharded engine's thread-count
//! invariance) intact.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use iswitch_core::{
    control_packet, decode_seg_field, seg_index, seg_round, tag_round, ControlMessage,
    RoundAssembler, UPSTREAM_IP,
};
use iswitch_netsim::{Packet, SimDuration};

use crate::apps::runtime::Rt;
use crate::apps::{IterationTokens, StallTracker};

/// Timer token for DCQCN pacing. Sits in the gap between the runtime's
/// `PROTO_BASE` tokens and the retry range — no strategy protocol claims
/// it, so unrecognized tokens forwarded to the transport resolve here.
const T_PACE: u64 = 900;

/// Retry timers encode the iteration so a stale timer from a completed
/// iteration is ignored (same token layout the strategies used before the
/// extraction — part of the bit-identity contract).
const T_RETRY_BASE: u64 = 1_000;

/// Cap on `Help` requests per retry so a premature timeout can never
/// re-request a vector's worth of traffic in one burst.
const HELP_BATCH: u64 = 64;

/// Which transport policy a worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Timeout-driven `Help`/`FBcast` recovery (the default).
    #[default]
    GoBack,
    /// NACK-on-gap recovery with the timeout path as last resort.
    Nack,
    /// ECN-echo rate control layered over go-back recovery.
    Dcqcn,
}

impl TransportKind {
    /// All selectable kinds, for CLI enumeration and sweep harnesses.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::GoBack,
        TransportKind::Nack,
        TransportKind::Dcqcn,
    ];

    /// The CLI-facing name.
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::GoBack => "go-back",
            TransportKind::Nack => "nack",
            TransportKind::Dcqcn => "dcqcn",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "go-back" | "goback" => Ok(TransportKind::GoBack),
            "nack" => Ok(TransportKind::Nack),
            "dcqcn" => Ok(TransportKind::Dcqcn),
            other => Err(format!(
                "unknown transport '{other}' (expected go-back, nack, or dcqcn)"
            )),
        }
    }
}

/// Activity counters shared by every transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// `Help` requests issued (timeout-driven loss recovery).
    pub help_requests: u64,
    /// NACKs issued on gap detection.
    pub nacks_sent: u64,
    /// Whole-train retransmissions (seeded-bug modes only).
    pub retransmits: u64,
    /// CE-marked packets observed on the result path.
    pub ecn_echoes: u64,
    /// Multiplicative rate cuts taken.
    pub rate_cuts: u64,
}

impl TransportStats {
    /// Element-wise sum, for aggregating counters across workers (and for
    /// layered transports merging their own counters with the inner's).
    pub fn merged(self, other: TransportStats) -> TransportStats {
        TransportStats {
            help_requests: self.help_requests + other.help_requests,
            nacks_sent: self.nacks_sent + other.nacks_sent,
            retransmits: self.retransmits + other.retransmits,
            ecn_echoes: self.ecn_echoes + other.ecn_echoes,
            rate_cuts: self.rate_cuts + other.rate_cuts,
        }
    }
}

/// What the transport may ask about the current round's receive state.
///
/// The iSwitch strategies back this with their [`RoundAssembler`]; blob
/// protocols without segment bookkeeping pass [`NoRound`].
pub trait RoundInfo {
    /// Whether the round's aggregate has fully arrived.
    fn is_done(&self) -> bool;
    /// Segments received so far (the retry stall detector's progress).
    fn received_count(&self) -> usize;
    /// The lowest spatial index in `[from, below)` still missing, if any.
    /// Allocates nothing and inspects no index outside the range; walk a
    /// range's holes by restarting one past each hit, which costs the
    /// range's length in total.
    fn next_missing(&self, from: u64, below: u64) -> Option<u64>;
}

impl RoundInfo for RoundAssembler {
    fn is_done(&self) -> bool {
        RoundAssembler::is_done(self)
    }
    fn received_count(&self) -> usize {
        RoundAssembler::received_count(self)
    }
    fn next_missing(&self, from: u64, below: u64) -> Option<u64> {
        self.missing_in(from, below).next()
    }
}

/// Round view for protocols without per-segment bookkeeping: always
/// "complete", never missing anything — recovery paths are inert.
pub struct NoRound;

impl RoundInfo for NoRound {
    fn is_done(&self) -> bool {
        true
    }
    fn received_count(&self) -> usize {
        0
    }
    fn next_missing(&self, _from: u64, _below: u64) -> Option<u64> {
        None
    }
}

/// Result of handing a packet train to [`Transport::send_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Every packet left the host; proceed with post-send bookkeeping.
    Complete,
    /// The transport is pacing the train out over timers; a later
    /// [`TimerVerdict::SendComplete`] marks the last departure.
    Pacing,
}

/// Result of offering a timer to [`Transport::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerVerdict {
    /// The token belongs to the protocol, not the transport.
    NotMine,
    /// The transport consumed the timer.
    Handled,
    /// The timer sent the final packet of a paced train: the protocol
    /// should run the same post-send sequence an immediate
    /// [`SendOutcome::Complete`] would have triggered.
    SendComplete,
}

/// One transport policy, owned by a strategy protocol and driven through
/// its callbacks. All methods that touch the wire take the runtime
/// services [`Rt`] the protocol was called with.
pub trait Transport: Send + 'static {
    /// Which policy this is.
    fn kind(&self) -> TransportKind;

    /// Enables timeout-driven recovery with the given timeout. Without a
    /// timeout the timeout path stays disarmed (lossless-link runs).
    fn set_recovery_timeout(&mut self, timeout: SimDuration);

    /// Resets per-round state at the top of round `iter`.
    fn begin_round(&mut self, iter: u32);

    /// Puts a round's packet train on the wire (or starts pacing it out).
    fn send_round(&mut self, rt: &mut Rt<'_, '_, '_>, pkts: Vec<Packet>, iter: u32) -> SendOutcome;

    /// Arms the recovery timer for round `iter`, if a timeout is set.
    /// Called by the protocol after the send completed *and* the round is
    /// still outstanding — never for an already-complete round (arming a
    /// timer there would change the event sequence).
    fn arm_recovery(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32);

    /// Offers a protocol-unrecognized timer token to the transport.
    fn on_timer(
        &mut self,
        rt: &mut Rt<'_, '_, '_>,
        token: u64,
        iter: u32,
        round: &dyn RoundInfo,
    ) -> TimerVerdict;

    /// Observes an arriving result/data packet (gap detection, ECN echo).
    /// Called before the protocol's own reassembly ingests it.
    ///
    /// Cost contract: this runs once per delivered data packet, so an
    /// arrival that exposes no gap does O(1) work and allocates nothing;
    /// whatever a transport scans of `round` must add up to O(segments)
    /// over a round, not per packet.
    fn on_data(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32, round: &dyn RoundInfo);

    /// Activity counters.
    fn stats(&self) -> TransportStats;

    /// Current paced sending rate in bits per second, for telemetry.
    /// `None` for transports without a rate controller — they send at the
    /// unpaced line rate, and their rate track reads 0 by convention.
    fn current_rate_bps(&self) -> Option<u64> {
        None
    }

    /// **Chaos-harness only**: arms this transport's deliberately-broken
    /// mode (naive whole-train retransmit for go-back, NACK-storm
    /// re-push for NACK), used to prove the conservation invariants trip
    /// on real protocol bugs. No-op by default.
    fn seed_protocol_bug(&mut self) {}
}

/// Builds the transport for `kind`. `line_rate_bps` parameterizes DCQCN's
/// rate controller (the edge link speed); reliability-only transports
/// ignore it.
pub fn make_transport(kind: TransportKind, line_rate_bps: u64) -> Box<dyn Transport> {
    match kind {
        TransportKind::GoBack => Box::new(GoBackRetransmit::new()),
        TransportKind::Nack => Box::new(NackReliable::new()),
        TransportKind::Dcqcn => {
            Box::new(Dcqcn::new(Box::new(GoBackRetransmit::new()), line_rate_bps))
        }
    }
}

/// Timeout-driven `Help`/`FBcast` recovery — the behaviour previously
/// inlined in the synchronous iSwitch strategy, verbatim: identical timer
/// tokens, identical send order, identical escalation thresholds.
pub struct GoBackRetransmit {
    timeout: Option<SimDuration>,
    retry: IterationTokens,
    stall: StallTracker,
    /// Chaos mode: blindly re-push the whole train instead of asking the
    /// switch for `Help`. The accelerator counts packets, not sources, so
    /// the retransmission double-counts.
    naive: bool,
    /// Copy of the round's train, kept only in naive mode.
    train: Vec<Packet>,
    stats: TransportStats,
}

impl Default for GoBackRetransmit {
    fn default() -> Self {
        GoBackRetransmit::new()
    }
}

impl GoBackRetransmit {
    /// A fresh go-back transport with the timeout path disarmed.
    pub fn new() -> Self {
        GoBackRetransmit {
            timeout: None,
            retry: IterationTokens::new(T_RETRY_BASE),
            stall: StallTracker::new(),
            naive: false,
            train: Vec::new(),
            stats: TransportStats::default(),
        }
    }
}

impl Transport for GoBackRetransmit {
    fn kind(&self) -> TransportKind {
        TransportKind::GoBack
    }

    fn set_recovery_timeout(&mut self, timeout: SimDuration) {
        self.timeout = Some(timeout);
    }

    fn begin_round(&mut self, _iter: u32) {
        self.train.clear();
    }

    fn send_round(
        &mut self,
        rt: &mut Rt<'_, '_, '_>,
        pkts: Vec<Packet>,
        _iter: u32,
    ) -> SendOutcome {
        if self.naive {
            self.train = pkts.clone();
        }
        for pkt in pkts {
            rt.send(pkt);
        }
        SendOutcome::Complete
    }

    fn arm_recovery(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32) {
        if let Some(timeout) = self.timeout {
            self.stall.rearm();
            rt.set_timer(timeout, self.retry.arm(iter));
        }
    }

    fn on_timer(
        &mut self,
        rt: &mut Rt<'_, '_, '_>,
        token: u64,
        iter: u32,
        round: &dyn RoundInfo,
    ) -> TimerVerdict {
        if token < T_RETRY_BASE {
            return TimerVerdict::NotMine;
        }
        // Only act if the iteration that armed this timer is still waiting
        // on its result.
        if !self.retry.accept(token, iter) || round.is_done() {
            return TimerVerdict::Handled;
        }
        if self.naive {
            // The "obvious" recovery a reader might reach for — and exactly
            // what the paper's Help/FBcast design avoids: the switch cannot
            // tell a retransmission from a fresh contribution.
            self.stats.retransmits += 1;
            for pkt in self.train.clone() {
                rt.send(pkt);
            }
            if let Some(timeout) = self.timeout {
                rt.set_timer(timeout, self.retry.arm(iter));
            }
            return TimerVerdict::Handled;
        }
        // A lost *result* is recovered from the switch's cache (Help). A
        // lost *contribution* leaves the round stuck: only after two
        // stalled retries — i.e. genuinely no progress — flush it with a
        // partial broadcast. The batch is capped so a retry can never
        // re-request a vector's worth of traffic (a premature timeout
        // would otherwise trigger a retransmission storm).
        let escalate = self.stall.observe(round.received_count()) >= 2;
        let mut from = 0;
        for _ in 0..HELP_BATCH {
            let Some(seg) = round.next_missing(from, u64::MAX) else {
                break;
            };
            from = seg + 1;
            self.stats.help_requests += 1;
            let seg = tag_round(seg, iter);
            let help = control_packet(rt.ip(), UPSTREAM_IP, &ControlMessage::Help { seg });
            rt.send(help);
            if escalate {
                let flush = control_packet(rt.ip(), UPSTREAM_IP, &ControlMessage::FBcast { seg });
                rt.send(flush);
            }
        }
        if let Some(timeout) = self.timeout {
            rt.set_timer(timeout, self.retry.arm(iter));
        }
        TimerVerdict::Handled
    }

    fn on_data(
        &mut self,
        _rt: &mut Rt<'_, '_, '_>,
        _pkt: &Packet,
        _iter: u32,
        _round: &dyn RoundInfo,
    ) {
        // Go-back recovery is purely timeout-driven.
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn seed_protocol_bug(&mut self) {
        self.naive = true;
    }
}

/// NACK-on-gap recovery: an arriving result segment with missing lower
/// indices is proof those packets were lost (the switch emits a round's
/// segments in ascending completion order), so the worker requests them
/// immediately instead of waiting out a timeout. Each segment is NACKed at
/// most once per round; the go-back timeout machinery stays armed as the
/// last resort for tail losses that no later arrival exposes.
///
/// The once-per-round bookkeeping is one high-water mark, not a set:
/// within a round the missing set only shrinks, and every hole below an
/// arrival is NACKed at that arrival, so the holes already requested are
/// exactly the ones below the highest index seen so far.
pub struct NackReliable {
    fallback: GoBackRetransmit,
    /// Every index below this that is still missing has been NACKed this
    /// round: the highest current-round arrival index seen so far.
    nacked_below: u64,
    /// Chaos mode: on every detected gap, re-push the *whole* contribution
    /// train instead of NACKing the hole — the storm double-delivers and
    /// the conservation invariant must trip.
    storm: bool,
    /// Copy of the round's train, kept only in storm mode.
    train: Vec<Packet>,
    stats: TransportStats,
}

impl Default for NackReliable {
    fn default() -> Self {
        NackReliable::new()
    }
}

impl NackReliable {
    /// A fresh NACK transport with the fallback timeout disarmed.
    pub fn new() -> Self {
        NackReliable {
            fallback: GoBackRetransmit::new(),
            nacked_below: 0,
            storm: false,
            train: Vec::new(),
            stats: TransportStats::default(),
        }
    }
}

impl Transport for NackReliable {
    fn kind(&self) -> TransportKind {
        TransportKind::Nack
    }

    fn set_recovery_timeout(&mut self, timeout: SimDuration) {
        self.fallback.set_recovery_timeout(timeout);
    }

    fn begin_round(&mut self, iter: u32) {
        self.nacked_below = 0;
        self.train.clear();
        self.fallback.begin_round(iter);
    }

    fn send_round(&mut self, rt: &mut Rt<'_, '_, '_>, pkts: Vec<Packet>, iter: u32) -> SendOutcome {
        if self.storm {
            self.train = pkts.clone();
        }
        self.fallback.send_round(rt, pkts, iter)
    }

    fn arm_recovery(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32) {
        self.fallback.arm_recovery(rt, iter);
    }

    fn on_timer(
        &mut self,
        rt: &mut Rt<'_, '_, '_>,
        token: u64,
        iter: u32,
        round: &dyn RoundInfo,
    ) -> TimerVerdict {
        self.fallback.on_timer(rt, token, iter, round)
    }

    fn on_data(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32, round: &dyn RoundInfo) {
        // Header-only parse: gap detection needs just the `Seg` field,
        // which every codec layout shares, so NACK transports work under
        // any aggregation format.
        let Ok(seg_field) = decode_seg_field(&pkt.payload) else {
            return;
        };
        let arrived = seg_index(seg_field);
        if self.storm {
            // Seeded bug: the gap triggers a full re-push — every segment,
            // not just the holes, and without marking anything as already
            // requested, so consecutive gaps storm repeatedly. It reads
            // any arrival as gap evidence, whatever round it belongs to.
            if round.next_missing(0, arrived).is_some() {
                self.stats.retransmits += 1;
                for p in self.train.clone() {
                    rt.send(p);
                }
            }
            return;
        }
        // A late `Help` reply or duplicate from another round says nothing
        // about this round's emission order: it is not gap evidence.
        if seg_round(seg_field) != iter & 0xFFFF {
            return;
        }
        // Everything still missing *below* the arrival is a proven gap;
        // the holes below `nacked_below` were requested by the earlier
        // arrival that exposed them.
        let mut from = self.nacked_below;
        while let Some(m) = round.next_missing(from, arrived) {
            from = m + 1;
            self.stats.nacks_sent += 1;
            // The NACK rides the existing Help control path: the switch
            // serves the cached result segment back to the requester.
            let seg = tag_round(m, iter);
            let nack = control_packet(rt.ip(), UPSTREAM_IP, &ControlMessage::Help { seg });
            rt.send(nack);
        }
        self.nacked_below = self.nacked_below.max(arrived);
    }

    fn stats(&self) -> TransportStats {
        self.stats.merged(self.fallback.stats())
    }

    fn seed_protocol_bug(&mut self) {
        self.storm = true;
    }
}

/// Fixed-point one for the DCQCN `alpha` estimator (16 fractional bits).
const ALPHA_ONE: u64 = 1 << 16;
/// `g = 1/16`: the EWMA gain on CE observations, as a right-shift.
const ALPHA_G_SHIFT: u32 = 4;
/// Additive-increase step and rate floor, as divisors of the line rate.
const INCREASE_DIV: u64 = 16;
const FLOOR_DIV: u64 = 64;

/// ECN-echo rate controller layered over a reliability transport
/// (DCQCN, simplified to the simulator's round granularity):
///
/// * the congestion estimate `alpha` rises toward 1 while CE echoes
///   arrive and decays geometrically on clean rounds
///   (`alpha += g·(1 − alpha)` / `alpha −= g·alpha`, `g = 1/16`);
/// * at most one multiplicative cut per round: `rate −= rate·alpha/2`,
///   floored at `line/64`;
/// * each clean round recovers `line/16` additively, capped at line rate;
/// * below line rate, packet trains are paced: each packet's departure is
///   separated by its serialization time at the *current* rate.
///
/// All arithmetic is integer (u64 bps, 16-bit fixed-point alpha), so the
/// controller is deterministic and thread-count invariant.
///
/// The chaos seeded-bug modes of the inner transport are not reachable
/// through the DCQCN wrapper's pacing path (the wrapper sends paced trains
/// itself); seed bugs on a bare reliability transport instead.
pub struct Dcqcn {
    inner: Box<dyn Transport>,
    line_rate_bps: u64,
    rate_bps: u64,
    alpha_fp: u64,
    /// Whether a CE echo arrived in the current round.
    ce_this_round: bool,
    /// Whether this round already took its (single) rate cut.
    cut_this_round: bool,
    /// Packets awaiting their paced departure.
    queue: VecDeque<Packet>,
    /// Whether a `T_PACE` timer is outstanding.
    pacing: bool,
    stats: TransportStats,
}

impl Dcqcn {
    /// A DCQCN controller over `inner`, starting at `line_rate_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `line_rate_bps` is zero.
    pub fn new(inner: Box<dyn Transport>, line_rate_bps: u64) -> Self {
        assert!(line_rate_bps > 0, "line rate must be positive");
        Dcqcn {
            inner,
            line_rate_bps,
            rate_bps: line_rate_bps,
            alpha_fp: ALPHA_ONE,
            ce_this_round: false,
            cut_this_round: false,
            queue: VecDeque::new(),
            pacing: false,
            stats: TransportStats::default(),
        }
    }

    /// Current sending rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Inter-packet pacing delay for `pkt` at the current rate.
    fn pace_delay(&self, pkt: &Packet) -> SimDuration {
        SimDuration::serialization(pkt.wire_bytes(), self.rate_bps)
    }

    /// Sends the next queued packet; returns the verdict for the caller.
    fn pump(&mut self, rt: &mut Rt<'_, '_, '_>) -> TimerVerdict {
        let Some(pkt) = self.queue.pop_front() else {
            self.pacing = false;
            return TimerVerdict::SendComplete;
        };
        let delay = self.pace_delay(&pkt);
        rt.send(pkt);
        if self.queue.is_empty() {
            self.pacing = false;
            return TimerVerdict::SendComplete;
        }
        rt.set_timer(delay, T_PACE);
        TimerVerdict::Handled
    }
}

impl Transport for Dcqcn {
    fn kind(&self) -> TransportKind {
        TransportKind::Dcqcn
    }

    fn set_recovery_timeout(&mut self, timeout: SimDuration) {
        self.inner.set_recovery_timeout(timeout);
    }

    fn begin_round(&mut self, iter: u32) {
        if self.ce_this_round {
            // EWMA toward congestion: alpha += g·(1 − alpha).
            self.alpha_fp += (ALPHA_ONE - self.alpha_fp) >> ALPHA_G_SHIFT;
        } else {
            // Clean round: decay the estimate and recover additively.
            self.alpha_fp -= self.alpha_fp >> ALPHA_G_SHIFT;
            self.rate_bps =
                (self.rate_bps + self.line_rate_bps / INCREASE_DIV).min(self.line_rate_bps);
        }
        self.ce_this_round = false;
        self.cut_this_round = false;
        self.inner.begin_round(iter);
    }

    fn send_round(&mut self, rt: &mut Rt<'_, '_, '_>, pkts: Vec<Packet>, iter: u32) -> SendOutcome {
        if self.rate_bps >= self.line_rate_bps && self.queue.is_empty() {
            // Uncongested fast path: delegate untouched (also keeps the
            // inner transport's train capture working).
            return self.inner.send_round(rt, pkts, iter);
        }
        self.queue.extend(pkts);
        if self.pacing {
            // A previous train is still draining; this one queues behind it
            // (pipelined commits).
            return SendOutcome::Pacing;
        }
        self.pacing = true;
        match self.pump(rt) {
            TimerVerdict::SendComplete => SendOutcome::Complete,
            _ => SendOutcome::Pacing,
        }
    }

    fn arm_recovery(&mut self, rt: &mut Rt<'_, '_, '_>, iter: u32) {
        self.inner.arm_recovery(rt, iter);
    }

    fn on_timer(
        &mut self,
        rt: &mut Rt<'_, '_, '_>,
        token: u64,
        iter: u32,
        round: &dyn RoundInfo,
    ) -> TimerVerdict {
        if token == T_PACE {
            return self.pump(rt);
        }
        self.inner.on_timer(rt, token, iter, round)
    }

    fn on_data(&mut self, rt: &mut Rt<'_, '_, '_>, pkt: &Packet, iter: u32, round: &dyn RoundInfo) {
        self.inner.on_data(rt, pkt, iter, round);
        if !pkt.ecn_ce() {
            return;
        }
        self.stats.ecn_echoes += 1;
        self.ce_this_round = true;
        if self.cut_this_round {
            return;
        }
        self.cut_this_round = true;
        self.stats.rate_cuts += 1;
        // Multiplicative decrease: rate −= rate·alpha/2, floored.
        let cut =
            ((self.rate_bps as u128 * self.alpha_fp as u128) / (2 * ALPHA_ONE as u128)) as u64;
        let floor = self.line_rate_bps / FLOOR_DIV;
        self.rate_bps = self.rate_bps.saturating_sub(cut).max(floor.max(1));
    }

    fn stats(&self) -> TransportStats {
        self.stats.merged(self.inner.stats())
    }

    fn current_rate_bps(&self) -> Option<u64> {
        Some(self.rate_bps)
    }

    fn seed_protocol_bug(&mut self) {
        self.inner.seed_protocol_bug();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_str() {
        for kind in TransportKind::ALL {
            assert_eq!(kind.as_str().parse::<TransportKind>().unwrap(), kind);
        }
        assert!("tcp".parse::<TransportKind>().is_err());
    }

    #[test]
    fn no_round_is_inert() {
        assert!(NoRound.is_done());
        assert_eq!(NoRound.received_count(), 0);
        assert_eq!(NoRound.next_missing(0, u64::MAX), None);
    }

    #[test]
    fn dcqcn_cut_and_recovery_arithmetic() {
        let mut t = Dcqcn::new(Box::new(GoBackRetransmit::new()), 10_000_000_000);
        assert_eq!(t.rate_bps(), 10_000_000_000);
        // Simulate the controller's state transitions without a simulator:
        // alpha starts at 1, so the first cut halves the rate.
        t.ce_this_round = true;
        t.cut_this_round = true;
        t.stats.rate_cuts += 1;
        let cut = ((t.rate_bps as u128 * t.alpha_fp as u128) / (2 * ALPHA_ONE as u128)) as u64;
        t.rate_bps -= cut;
        assert_eq!(t.rate_bps, 5_000_000_000);
        // A clean round decays alpha and recovers line/16.
        t.ce_this_round = false;
        t.begin_round(1);
        assert_eq!(t.rate_bps, 5_000_000_000 + 10_000_000_000 / 16);
        assert_eq!(t.alpha_fp, ALPHA_ONE - (ALPHA_ONE >> ALPHA_G_SHIFT));
    }

    #[test]
    fn rate_floor_holds_under_repeated_cuts() {
        let line = 10_000_000_000u64;
        let mut t = Dcqcn::new(Box::new(GoBackRetransmit::new()), line);
        for i in 0..100 {
            t.begin_round(i);
            // Force a cut every round (alpha saturates toward 1).
            t.ce_this_round = true;
            let cut = ((t.rate_bps as u128 * t.alpha_fp as u128) / (2 * ALPHA_ONE as u128)) as u64;
            t.rate_bps = t
                .rate_bps
                .saturating_sub(cut)
                .max((line / FLOOR_DIV).max(1));
        }
        assert!(t.rate_bps >= line / FLOOR_DIV);
    }
}
