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
/// Payload contents are irrelevant to timing, so each packet carries the
/// header plus zeroes padding it to its true wire size. Every full-chunk
/// packet of a train has the same bytes, so they are built once and the
/// packets share that one buffer; only the shorter tail has its own.
pub fn blob_packets(
    src: IpAddr,
    dst: IpAddr,
    tag: u32,
    msg_id: u32,
    total_bytes: u64,
) -> Vec<Packet> {
    // Exact-size zeroed allocation (alloc_zeroed), then the header on top —
    // growing from a 16-byte header would reallocate.
    let payload_of = |data: usize| {
        let mut payload = vec![0u8; BLOB_HEADER + data];
        payload[0..4].copy_from_slice(&tag.to_be_bytes());
        payload[4..8].copy_from_slice(&msg_id.to_be_bytes());
        payload[8..16].copy_from_slice(&total_bytes.to_be_bytes());
        payload
    };
    let template = Packet::udp(src, dst, BASELINE_PORT, BASELINE_PORT, 0);
    let full = (total_bytes >= BLOB_CHUNK as u64)
        .then(|| template.clone().with_payload(payload_of(BLOB_CHUNK)));

    let n_packets = total_bytes.div_ceil(BLOB_CHUNK as u64).max(1);
    let mut out = Vec::with_capacity(n_packets as usize);
    let mut remaining = total_bytes;
    for chunk in 0..n_packets {
        let data = (remaining as usize).min(BLOB_CHUNK);
        remaining -= data as u64;
        let pkt = match &full {
            Some(full) if data == BLOB_CHUNK => full.clone(),
            _ => template.clone().with_payload(payload_of(data)),
        };
        // Causal identity for tracing: the msg id names the round, the
        // chunk index stands in for the segment, and the sender address
        // identifies the producer.
        out.push(pkt.with_cause(CausalKey {
            round: u64::from(msg_id),
            segment: chunk,
            worker: u64::from(src.as_u32()),
            tenant: 0,
        }));
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
    /// The length every packet of the train must declare.
    total: u64,
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
            total,
            full_expected: total / BLOB_CHUNK as u64,
            full_got: 0,
            tail_bytes: tail,
            // Zero-length blobs (pull requests) are a single empty packet.
            needs_tail: tail > 0 || total == 0,
            tail_got: false,
        }
    }

    /// Counts a packet declaring `total` and carrying `data` bytes; `false`
    /// (and no change) when no packet of this train looks like that.
    fn accept(&mut self, total: u64, data: u64) -> bool {
        if total != self.total {
            return false;
        }
        if data == BLOB_CHUNK as u64 && self.full_expected > 0 {
            // Extra full chunks past the expected count are duplicates.
            self.full_got = (self.full_got + 1).min(self.full_expected);
        } else if self.needs_tail && data == self.tail_bytes {
            self.tail_got = true;
        } else {
            return false;
        }
        true
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
///
/// A packet that cannot belong to its train — its data length is neither
/// a full chunk nor the train's tail, or it declares another total than
/// the packet that opened the train — is refused: counted in
/// [`BlobAssembler::refused`], and the trains in flight stay exactly as
/// they were.
#[derive(Debug, Default)]
pub struct BlobAssembler {
    pending: HashMap<(IpAddr, u32, u32), BlobProgress>,
    refused: u64,
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
        // The opening packet is judged against the train it would open.
        let mut opening = None;
        let train = match self.pending.get_mut(&key) {
            Some(train) => train,
            None => opening.insert(BlobProgress::new(total)),
        };
        if !train.accept(total, data) {
            self.refused += 1;
            return None;
        }
        let complete = train.complete();
        match (opening, complete) {
            (Some(train), false) => {
                self.pending.insert(key, train);
            }
            (None, true) => {
                self.pending.remove(&key);
            }
            _ => {}
        }
        complete.then_some(BlobDone {
            src: pkt.ip.src,
            tag,
            msg_id,
        })
    }

    /// Number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Packets refused because they could not belong to their train.
    pub fn refused(&self) -> u64 {
        self.refused
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

    /// `blob_packets` as it was first written: a zeroed buffer of its own
    /// for every packet.
    fn reference_blob_packets(
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
        let mut remaining = total_bytes;
        (0..n_packets)
            .map(|chunk| {
                let data = (remaining as usize).min(BLOB_CHUNK);
                remaining -= data as u64;
                let mut payload = vec![0u8; BLOB_HEADER + data];
                payload[..BLOB_HEADER].copy_from_slice(&header);
                Packet::udp(src, dst, BASELINE_PORT, BASELINE_PORT, 0)
                    .with_payload(payload)
                    .with_cause(CausalKey {
                        round: u64::from(msg_id),
                        segment: chunk,
                        worker: u64::from(src.as_u32()),
                        tenant: 0,
                    })
            })
            .collect()
    }

    #[test]
    fn shared_payload_trains_are_the_per_packet_trains_on_the_wire() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let chunk = BLOB_CHUNK as u64;
        let mut rng = StdRng::seed_from_u64(0xb10b);
        let mut totals = vec![0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk];
        totals.extend((0..64).map(|_| rng.gen_range(0..40 * chunk)));
        for (i, total) in totals.into_iter().enumerate() {
            let (tag, msg_id) = (7 + i as u32, 1_000 * i as u32);
            let got = blob_packets(ip(1), ip(2), tag, msg_id, total);
            let want = reference_blob_packets(ip(1), ip(2), tag, msg_id, total);
            assert_eq!(got.len(), want.len(), "total {total}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.ip, g.udp, g.cause), (w.ip, w.udp, w.cause));
                assert_eq!(g.payload, w.payload, "total {total}");
                assert_eq!(g.wire_bytes(), w.wire_bytes());
            }
            // Every full chunk of the train is the one buffer.
            let mut full = got.iter().filter(|p| p.payload.len() == MAX_UDP_PAYLOAD);
            if let Some(first) = full.next() {
                assert!(full.all(|p| p.payload.as_ptr() == first.payload.as_ptr()));
            }
            // And the train still completes on exactly its last packet.
            let mut asm = BlobAssembler::new();
            let (last, rest) = got.split_last().expect("a train has a packet");
            assert!(rest.iter().all(|p| asm.on_packet(p).is_none()));
            assert_eq!(
                asm.on_packet(last),
                Some(BlobDone {
                    src: ip(1),
                    tag,
                    msg_id
                })
            );
            assert_eq!((asm.in_flight(), asm.refused()), (0, 0));
        }
    }

    #[test]
    fn a_packet_that_fits_no_train_is_refused_and_changes_nothing() {
        let misfit = |total: u64, data: usize| {
            let mut payload = vec![0u8; BLOB_HEADER + data];
            payload[0..4].copy_from_slice(&7u32.to_be_bytes());
            payload[4..8].copy_from_slice(&42u32.to_be_bytes());
            payload[8..16].copy_from_slice(&total.to_be_bytes());
            Packet::udp(ip(1), ip(2), BASELINE_PORT, BASELINE_PORT, 0).with_payload(payload)
        };
        let mut asm = BlobAssembler::new();
        // As the opening packet: no train is opened on its word.
        assert_eq!(asm.on_packet(&misfit(5_000, 17)), None);
        assert_eq!(asm.on_packet(&misfit(100, BLOB_CHUNK)), None);
        assert_eq!((asm.in_flight(), asm.refused()), (0, 2));
        // Mid-train: a wrong length, and a right length under another total.
        let pkts = blob_packets(ip(1), ip(2), 7, 42, 5_000);
        let (last, rest) = pkts.split_last().expect("a train has a packet");
        assert!(rest.iter().all(|p| asm.on_packet(p).is_none()));
        assert_eq!(asm.on_packet(&misfit(5_000, 17)), None);
        assert_eq!(
            asm.on_packet(&misfit(5_001, last.payload.len() - BLOB_HEADER)),
            None
        );
        assert_eq!(asm.on_packet(&misfit(9_000, BLOB_CHUNK)), None);
        assert_eq!((asm.in_flight(), asm.refused()), (1, 5));
        assert!(asm.on_packet(last).is_some(), "the train is as it was");
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

        /// Bytes that are no blob packet at all are refused, ignored or —
        /// when they happen to spell a train — tracked; never a panic.
        #[test]
        fn arbitrary_payloads_never_panic(
            payloads in prop::collection::vec(
                prop::collection::vec(any::<u8>(), 0..MAX_UDP_PAYLOAD + 1),
                1..12,
            ),
        ) {
            let mut asm = BlobAssembler::new();
            let mut done = 0;
            for (i, payload) in payloads.iter().enumerate() {
                let pkt = Packet::udp(ip(i as u8 % 3), ip(99), BASELINE_PORT, BASELINE_PORT, 0)
                    .with_payload(payload.clone());
                done += usize::from(asm.on_packet(&pkt).is_some());
            }
            prop_assert!(done + asm.in_flight() + asm.refused() as usize <= payloads.len());
        }

        /// A train with one header bit flipped, one packet duplicated or its
        /// last packet cut short completes at most once, and whatever it
        /// leaves behind, the clean train after it completes on its last
        /// packet and leaves nothing more.
        #[test]
        fn a_damaged_train_completes_at_most_once(
            sizes in prop::collection::vec(BLOB_CHUNK as u64 + 1..20_000, 1..5),
            seed in any::<u64>(),
        ) {
            let mut asm = BlobAssembler::new();
            let mut state = seed;
            for (i, &size) in sizes.iter().enumerate() {
                let mut train = blob_packets(ip(i as u8), ip(99), 1, i as u32, size);
                let victim = (next(&mut state) % train.len() as u64) as usize;
                match next(&mut state) % 3 {
                    0 => {
                        let mut bytes = train[victim].payload.to_vec();
                        bytes[(next(&mut state) % BLOB_HEADER as u64) as usize] ^=
                            1 << (next(&mut state) % 8);
                        train[victim] = train[victim].clone().with_payload(bytes);
                    }
                    1 => train.insert(victim, train[victim].clone()),
                    _ => {
                        let last = train.pop().expect("a train has a packet");
                        let keep = (next(&mut state) % last.payload.len() as u64) as usize;
                        train.push(last.clone().with_payload(last.payload[..keep].to_vec()));
                    }
                }
                let done = train.iter().filter(|p| asm.on_packet(p).is_some()).count();
                prop_assert!(done <= 1, "a damaged train completed {} times", done);

                let before = (asm.in_flight(), asm.refused());
                let total = next(&mut state) % 20_000;
                let clean = blob_packets(ip(100 + i as u8), ip(99), 2, i as u32, total);
                let (last, rest) = clean.split_last().expect("a train has a packet");
                for p in rest {
                    prop_assert!(asm.on_packet(p).is_none());
                }
                prop_assert!(asm.on_packet(last).is_some());
                prop_assert_eq!((asm.in_flight(), asm.refused()), before);
            }
        }
    }
}
