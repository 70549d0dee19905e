//! Shared machinery for the timing-mode worker/server applications:
//! a bulk-transfer ("blob") protocol for the PS and AllReduce baselines,
//! and per-iteration span bookkeeping.

use std::collections::HashMap;

use iswitch_netsim::{CausalKey, IpAddr, Packet, SimDuration, SimTime, MAX_UDP_PAYLOAD};

/// Bytes of blob header per packet: tag (4), msg id (4), total length (8).
pub const BLOB_HEADER: usize = 16;

/// Data bytes carried per blob packet.
pub const BLOB_CHUNK: usize = MAX_UDP_PAYLOAD - BLOB_HEADER;

/// UDP port used by the baseline (non-iSwitch) training protocols.
pub const BASELINE_PORT: u16 = 9800;

/// Builds the packet train for a `total_bytes` message from `src` to `dst`.
///
/// Payload contents are irrelevant to timing, so packets carry only the
/// header plus *accounted* (not materialized) data: each packet's payload
/// is padded to its true wire size.
pub fn blob_packets(
    src: IpAddr,
    dst: IpAddr,
    tag: u32,
    msg_id: u32,
    total_bytes: u64,
) -> Vec<Packet> {
    let mut header = Vec::with_capacity(BLOB_HEADER);
    header.extend_from_slice(&tag.to_be_bytes());
    header.extend_from_slice(&msg_id.to_be_bytes());
    header.extend_from_slice(&total_bytes.to_be_bytes());

    let n_packets = total_bytes.div_ceil(BLOB_CHUNK as u64).max(1);
    let mut out = Vec::with_capacity(n_packets as usize);
    let mut remaining = total_bytes;
    for chunk in 0..n_packets {
        let data = (remaining as usize).min(BLOB_CHUNK);
        remaining -= data as u64;
        // Exact-size zeroed allocation up front (alloc_zeroed), rather than
        // cloning the header and growing — resize from a 16-byte buffer
        // reallocates every packet.
        let mut payload = vec![0u8; BLOB_HEADER + data];
        payload[..BLOB_HEADER].copy_from_slice(&header);
        out.push(
            Packet::udp(src, dst, BASELINE_PORT, BASELINE_PORT, 0)
                .with_payload(payload)
                // Causal identity for tracing: the msg id names the round,
                // the chunk index stands in for the segment, and the sender
                // address identifies the producer.
                .with_cause(CausalKey {
                    round: u64::from(msg_id),
                    segment: chunk,
                    worker: u64::from(src.as_u32()),
                    tenant: 0,
                }),
        );
    }
    out
}

/// A completed blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobDone {
    /// Sender address.
    pub src: IpAddr,
    /// Application tag.
    pub tag: u32,
    /// Message id (iteration index, step index, weight version, …).
    pub msg_id: u32,
}

/// Progress of one in-flight blob: how many full-sized chunks and whether
/// the (single, shorter) tail chunk have arrived.
#[derive(Debug)]
struct BlobProgress {
    full_expected: u64,
    full_got: u64,
    tail_bytes: u64,
    needs_tail: bool,
    tail_got: bool,
}

impl BlobProgress {
    fn new(total: u64) -> Self {
        let tail = total % BLOB_CHUNK as u64;
        BlobProgress {
            full_expected: total / BLOB_CHUNK as u64,
            full_got: 0,
            tail_bytes: tail,
            // Zero-length blobs (pull requests) are a single empty packet.
            needs_tail: tail > 0 || total == 0,
            tail_got: false,
        }
    }

    fn complete(&self) -> bool {
        self.full_got == self.full_expected && (!self.needs_tail || self.tail_got)
    }
}

/// Reassembles blob messages from interleaved packet arrivals.
///
/// Progress is tracked per chunk class (full-sized chunks counted up to
/// the expected number, the shorter tail chunk as a flag) rather than by
/// summed bytes, so duplicated deliveries neither complete a blob early
/// nor strand bytes: one train plus any partial duplication completes
/// exactly once. On a clean stream completion still lands on the train's
/// final packet, so timing is unchanged.
#[derive(Debug, Default)]
pub struct BlobAssembler {
    pending: HashMap<(IpAddr, u32, u32), BlobProgress>,
}

impl BlobAssembler {
    /// A fresh assembler.
    pub fn new() -> Self {
        BlobAssembler::default()
    }

    /// Feeds one packet; returns the blob identity when it completes.
    /// Non-blob packets (too-short payloads) return `None`.
    pub fn on_packet(&mut self, pkt: &Packet) -> Option<BlobDone> {
        if pkt.payload.len() < BLOB_HEADER {
            return None;
        }
        let tag = u32::from_be_bytes(pkt.payload[0..4].try_into().expect("4 bytes"));
        let msg_id = u32::from_be_bytes(pkt.payload[4..8].try_into().expect("4 bytes"));
        let total = u64::from_be_bytes(pkt.payload[8..16].try_into().expect("8 bytes"));
        let data = (pkt.payload.len() - BLOB_HEADER) as u64;
        let key = (pkt.ip.src, tag, msg_id);
        let entry = self
            .pending
            .entry(key)
            .or_insert_with(|| BlobProgress::new(total));
        if data == BLOB_CHUNK as u64 {
            // Extra full chunks past the expected count are duplicates.
            entry.full_got = (entry.full_got + 1).min(entry.full_expected);
        } else if entry.needs_tail && data == entry.tail_bytes {
            entry.tail_got = true;
        }
        if entry.complete() {
            self.pending.remove(&key);
            Some(BlobDone {
                src: pkt.ip.src,
                tag,
                msg_id,
            })
        } else {
            None
        }
    }

    /// Number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// Maps retry timers to the iteration (or round) that armed them, so a
/// stale timer left over from a completed round is recognized and ignored.
/// Shared by the iSwitch loss-recovery workers.
#[derive(Debug, Clone, Copy)]
pub struct IterationTokens {
    base: u64,
}

impl IterationTokens {
    /// Tokens `base + iter`; `base` must sit above every other token the
    /// app uses.
    pub const fn new(base: u64) -> Self {
        IterationTokens { base }
    }

    /// The timer token carrying iteration `iter`.
    pub fn arm(&self, iter: u32) -> u64 {
        self.base + u64::from(iter)
    }

    /// Whether `token` is a retry timer armed by the *current* iteration
    /// `iter`. Tokens from earlier (completed) iterations are stale.
    pub fn accept(&self, token: u64, iter: u32) -> bool {
        token >= self.base && token - self.base == u64::from(iter)
    }
}

/// Progress marker across retries: counts consecutive no-progress retries
/// so recovery only escalates (e.g. from `Help` to `FBcast`) when a round
/// is genuinely stuck, not merely still streaming.
#[derive(Debug, Default, Clone, Copy)]
pub struct StallTracker {
    last_progress: usize,
    stalled: u32,
}

impl StallTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        StallTracker::default()
    }

    /// Resets at the start of a round (first retry timer armed).
    pub fn rearm(&mut self) {
        self.last_progress = 0;
        self.stalled = 0;
    }

    /// Records the progress seen at a retry; returns the number of
    /// consecutive retries without progress (0 when progress was made).
    pub fn observe(&mut self, progress: usize) -> u32 {
        if progress != self.last_progress {
            self.last_progress = progress;
            self.stalled = 0;
        } else {
            self.stalled += 1;
        }
        self.stalled
    }
}

/// Measured spans of one training iteration on a worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterSpans {
    /// Local gradient computation.
    pub compute: SimDuration,
    /// Gradient aggregation (compute done → aggregated result installed).
    pub aggregation: SimDuration,
    /// Weight update.
    pub update: SimDuration,
}

impl IterSpans {
    /// Total iteration time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.aggregation + self.update
    }
}

/// Per-worker iteration log with span accounting helpers.
#[derive(Debug, Default)]
pub struct IterLog {
    spans: Vec<IterSpans>,
    ends: Vec<SimTime>,
    iter_start: Option<SimTime>,
    compute_done: Option<SimTime>,
    agg_done: Option<SimTime>,
}

impl IterLog {
    /// A fresh log.
    pub fn new() -> Self {
        IterLog::default()
    }

    /// Marks the start of an iteration.
    pub fn start(&mut self, now: SimTime) {
        self.iter_start = Some(now);
    }

    /// Marks the end of local gradient computation.
    pub fn compute_done(&mut self, now: SimTime) {
        self.compute_done = Some(now);
    }

    /// Marks the installation of the aggregated gradient.
    pub fn aggregation_done(&mut self, now: SimTime) {
        self.agg_done = Some(now);
    }

    /// Marks the end of the weight update, closing the iteration.
    ///
    /// # Panics
    ///
    /// Panics if the earlier marks were skipped.
    pub fn finish(&mut self, now: SimTime) {
        let start = self.iter_start.take().expect("iteration started");
        let compute = self.compute_done.take().expect("compute marked");
        let agg = self.agg_done.take().expect("aggregation marked");
        self.spans.push(IterSpans {
            compute: compute.duration_since(start),
            aggregation: agg.duration_since(compute),
            update: now.duration_since(agg),
        });
        self.ends.push(now);
    }

    /// Completed iterations.
    pub fn spans(&self) -> &[IterSpans] {
        &self.spans
    }

    /// Completion timestamp of each iteration, parallel to [`IterLog::spans`].
    pub fn end_times(&self) -> &[SimTime] {
        &self.ends
    }

    /// Number of completed iterations.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no iterations completed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Mean spans over iterations `skip..`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `skip + 1` iterations completed.
    pub fn mean_after(&self, skip: usize) -> IterSpans {
        let tail = self.spans.get(skip..).unwrap_or_default();
        assert!(!tail.is_empty(), "no measured iterations after warmup");
        let n = tail.len() as u64;
        let sum = |f: fn(&IterSpans) -> SimDuration| {
            SimDuration::from_nanos(tail.iter().map(|s| f(s).as_nanos()).sum::<u64>() / n)
        };
        IterSpans {
            compute: sum(|s| s.compute),
            aggregation: sum(|s| s.aggregation),
            update: sum(|s| s.update),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(x: u8) -> IpAddr {
        IpAddr::new(10, 0, 0, x)
    }

    #[test]
    fn blob_round_trips_through_assembler() {
        let pkts = blob_packets(ip(1), ip(2), 7, 42, 5_000);
        assert_eq!(pkts.len(), 5_000usize.div_ceil(BLOB_CHUNK));
        let mut asm = BlobAssembler::new();
        let mut done = None;
        for p in &pkts {
            done = asm.on_packet(p);
        }
        assert_eq!(
            done,
            Some(BlobDone {
                src: ip(1),
                tag: 7,
                msg_id: 42
            })
        );
        assert_eq!(asm.in_flight(), 0);
    }

    #[test]
    fn interleaved_blobs_complete_independently() {
        let a = blob_packets(ip(1), ip(9), 1, 0, 3_000);
        let b = blob_packets(ip(2), ip(9), 1, 0, 3_000);
        let mut asm = BlobAssembler::new();
        let mut done = Vec::new();
        for (pa, pb) in a.iter().zip(&b) {
            if let Some(d) = asm.on_packet(pa) {
                done.push(d);
            }
            if let Some(d) = asm.on_packet(pb) {
                done.push(d);
            }
        }
        assert_eq!(done.len(), 2);
        assert_ne!(done[0].src, done[1].src);
    }

    #[test]
    fn zero_length_blob_is_single_packet_request() {
        let pkts = blob_packets(ip(3), ip(9), 9, 1, 0);
        assert_eq!(pkts.len(), 1);
        let mut asm = BlobAssembler::new();
        assert!(asm.on_packet(&pkts[0]).is_some());
    }

    #[test]
    fn iter_log_computes_spans() {
        let mut log = IterLog::new();
        let t = SimTime::from_nanos;
        log.start(t(0));
        log.compute_done(t(100));
        log.aggregation_done(t(300));
        log.finish(t(350));
        log.start(t(350));
        log.compute_done(t(470));
        log.aggregation_done(t(650));
        log.finish(t(720));
        let mean = log.mean_after(0);
        assert_eq!(mean.compute, SimDuration::from_nanos(110));
        assert_eq!(mean.aggregation, SimDuration::from_nanos(190));
        assert_eq!(mean.update, SimDuration::from_nanos(60));
        assert_eq!(log.mean_after(1).compute, SimDuration::from_nanos(120));
    }

    #[test]
    fn blob_packets_fit_the_mtu() {
        for pkt in blob_packets(ip(1), ip(2), 0, 0, 100_000) {
            assert!(pkt.payload.len() <= MAX_UDP_PAYLOAD);
        }
    }

    #[test]
    fn duplicated_packets_complete_a_blob_exactly_once() {
        let pkts = blob_packets(ip(4), ip(9), 2, 5, 4_000);
        assert!(pkts.len() >= 2);
        let mut asm = BlobAssembler::new();
        let mut done = 0;
        // Deliver everything except the last packet twice, then the last.
        for p in &pkts[..pkts.len() - 1] {
            done += usize::from(asm.on_packet(p).is_some());
            done += usize::from(asm.on_packet(p).is_some());
        }
        done += usize::from(asm.on_packet(&pkts[pkts.len() - 1]).is_some());
        assert_eq!(done, 1);
        assert_eq!(asm.in_flight(), 0);
    }

    #[test]
    fn stale_retry_timers_are_rejected() {
        let tokens = IterationTokens::new(1_000);
        let armed_at_iter_3 = tokens.arm(3);
        // Current while iteration 3 is still waiting…
        assert!(tokens.accept(armed_at_iter_3, 3));
        // …stale once the worker moved on, and never confused with other
        // token ranges.
        assert!(!tokens.accept(armed_at_iter_3, 4));
        assert!(!tokens.accept(999, 3));
        assert!(!tokens.accept(tokens.arm(4), 3));
    }

    #[test]
    fn stall_tracker_escalates_only_without_progress() {
        let mut stall = StallTracker::new();
        stall.rearm();
        assert_eq!(stall.observe(5), 0); // progress: 0 → 5
        assert_eq!(stall.observe(5), 1); // stuck
        assert_eq!(stall.observe(5), 2); // stuck again → escalation level
        assert_eq!(stall.observe(6), 0); // progress resets the count
        stall.rearm();
        assert_eq!(stall.observe(0), 1); // rearm at 0: no progress seen
    }
}

#[cfg(test)]
mod blob_props {
    use super::*;
    use proptest::prelude::*;

    fn ip(x: u8) -> IpAddr {
        IpAddr::new(10, 0, 0, x)
    }

    /// SplitMix64 — a tiny deterministic shuffler for the property input.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reordered, duplicated, interleaved packet arrivals across
        /// concurrent blob identities yield exactly one `BlobDone` each.
        #[test]
        fn concurrent_blobs_complete_exactly_once(
            sizes in prop::collection::vec(1u64..20_000, 2..5),
            seed in any::<u64>(),
        ) {
            // One blob per identity; distinct (src, tag, msg_id) keys.
            let mut arrivals: Vec<(usize, Packet)> = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                let train = blob_packets(ip(i as u8), ip(99), 1 + (i as u32 % 2), i as u32, size);
                let mut state = seed ^ (i as u64);
                for pkt in train.iter().take(train.len() - 1) {
                    arrivals.push((i, pkt.clone()));
                    // Duplicate a random strict subset of the train.
                    if next(&mut state).is_multiple_of(2) {
                        arrivals.push((i, pkt.clone()));
                    }
                }
                // The final packet stays unique so leftover duplicates can
                // never assemble into a second full train.
                arrivals.push((i, train[train.len() - 1].clone()));
            }
            // Fisher–Yates with the deterministic generator: reorder and
            // interleave the identities arbitrarily.
            let mut state = seed;
            for i in (1..arrivals.len()).rev() {
                let j = (next(&mut state) % (i as u64 + 1)) as usize;
                arrivals.swap(i, j);
            }

            let mut asm = BlobAssembler::new();
            let mut done_per_id = vec![0usize; sizes.len()];
            for (id, pkt) in &arrivals {
                if let Some(done) = asm.on_packet(pkt) {
                    prop_assert_eq!(done.src, ip(*id as u8));
                    done_per_id[*id] += 1;
                }
            }
            for (id, &count) in done_per_id.iter().enumerate() {
                prop_assert_eq!(count, 1, "blob {} completed {} times", id, count);
            }
        }
    }
}
