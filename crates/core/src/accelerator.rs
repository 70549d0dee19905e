//! The in-switch aggregation accelerator (paper §3.3, Fig. 7).
//!
//! Models the "bump-in-the-wire" datapath the paper synthesizes on the
//! NetFPGA-SUME: a Seg decoder feeding per-segment aggregation counters, an
//! address generator, BRAM aggregation buffers, and a bank of parallel
//! 32-bit floating-point adders on the internal AXI4-Stream bus (256 bits
//! per cycle at 200 MHz ⇒ eight f32 adders).
//!
//! Functionally the accelerator sums payloads of packets sharing a `Seg`
//! number **on the fly** (Fig. 8b): each arriving packet is accumulated
//! immediately, and once a segment's counter reaches the aggregation
//! threshold `H`, the aggregated segment is emitted, its buffer zeroed, and
//! its counter reset. Timing-wise, every ingested packet occupies the
//! datapath for `ceil(payload_bits / bus_bits)` cycles plus a fixed
//! pipeline depth, which the latency model converts to wall-clock time.

use bytes::Bytes;
use iswitch_netsim::{IntMap, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::protocol::codec::{AccEffects, CodecKind, WireAcc};
use crate::protocol::data::encode_segment;
use crate::protocol::{DataSegment, SegmentMeta};

/// Slowdown of the fallback-to-host path relative to the line-rate
/// datapath. A contribution that cannot get an aggregation slot crosses
/// the switch-local PCIe bus and is summed by the switch CPU in software;
/// DMA setup plus a memory-bound software loop costs roughly an order of
/// magnitude more than streaming through the adder bank, so the host path
/// charges the datapath latency times this factor.
pub const HOST_PATH_LATENCY_FACTOR: u64 = 16;

/// Hardware parameters of the accelerator (defaults follow §3.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Internal bus width in bits per cycle (NetFPGA AXI4-Stream: 256).
    pub bus_bits: u32,
    /// Datapath clock in Hz (NetFPGA reference design: 200 MHz).
    pub clock_hz: u64,
    /// Fixed pipeline depth in cycles (separator, decoder, output concat).
    pub pipeline_cycles: u32,
    /// On-chip buffer budget in bytes (BRAM). The paper reports the
    /// accelerator consumes 44.5% of the Virtex-7's BRAM; the default here
    /// is the corresponding ~23 Mb ≈ 2.9 MB budget, rounded.
    pub buffer_bytes: usize,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            bus_bits: 256,
            clock_hz: 200_000_000,
            pipeline_cycles: 8,
            buffer_bytes: 3 << 20,
        }
    }
}

impl AcceleratorConfig {
    /// Number of parallel f32 adders (one bus beat of elements).
    pub fn adders(&self) -> u32 {
        self.bus_bits / 32
    }

    /// Wall-clock occupancy of the datapath for one packet carrying
    /// `payload_bytes` of gradient data.
    pub fn packet_latency(&self, payload_bytes: usize) -> SimDuration {
        self.cycles_latency(self.packet_cycles(payload_bytes))
    }

    /// Datapath cycles one packet of `payload_bytes` occupies: one per bus
    /// beat, plus the pipeline depth.
    fn packet_cycles(&self, payload_bytes: usize) -> u64 {
        let bursts = (payload_bytes as u64 * 8).div_ceil(u64::from(self.bus_bits));
        bursts + u64::from(self.pipeline_cycles)
    }

    /// Wall-clock time of `cycles` datapath cycles.
    fn cycles_latency(&self, cycles: u64) -> SimDuration {
        SimDuration::from_nanos(cycles * 1_000_000_000 / self.clock_hz)
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AcceleratorStats {
    /// Data packets ingested.
    pub packets_in: u64,
    /// Aggregated segments emitted (threshold reached).
    pub segments_emitted: u64,
    /// Peak bytes of partial-segment buffers resident at once.
    pub peak_buffer_bytes: usize,
    /// Partial segments flushed by `FBcast`.
    pub forced_broadcasts: u64,
    /// Contributions dropped because the partial-segment window had no
    /// BRAM left for a new round. Loss recovery (worker `FBcast` + the
    /// stale-round sweep) heals these like any other lost contribution.
    pub bram_drops: u64,
    /// Full `Reset` operations.
    pub resets: u64,
    /// Total datapath busy cycles (for utilization studies).
    pub busy_cycles: u64,
    /// Accumulator elements clamped at the saturating-add rails across all
    /// ingests — nonzero means the quantized aggregate silently lost
    /// magnitude (see [`crate::AccEffects`]).
    #[serde(default)]
    pub codec_saturations: u64,
    /// Accumulator exponent rebases (fixed-point/block-float): partial sums
    /// shifted down to a coarser scale, discarding low-order bits.
    #[serde(default)]
    pub codec_rebases: u64,
    /// New rounds refused a slot by the tenant grant (slots or bytes).
    /// With the host fallback enabled the contribution still lands — via
    /// the slow path — so a denial is a latency event, not a loss.
    #[serde(default)]
    pub slot_denials: u64,
    /// Contributions accumulated through the fallback-to-host path.
    #[serde(default)]
    pub fallback_contributions: u64,
    /// Rounds completed (or force-flushed) through the host path.
    #[serde(default)]
    pub fallback_rounds: u64,
    /// Slots leaked by the seeded slot-leak bug (never returned to the
    /// free list; their bytes stay resident). Diagnostic only.
    #[serde(default)]
    pub leaked_slots: u64,
    /// Contributions whose header parsed but whose body the codec refused
    /// for the open round (length or layout disagrees with the round's
    /// accumulator, sparse index out of range). Dropped without touching
    /// the round, like any frame the hardware cannot add.
    #[serde(default)]
    pub malformed_drops: u64,
}

/// Static resource accounting — the reproduction's analog of the paper's
/// FPGA utilization table (§3.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceReport {
    /// Parallel f32 adders instantiated.
    pub adders: u32,
    /// Aggregation-buffer bytes in use for the configured segment count.
    pub buffer_bytes_used: usize,
    /// Configured BRAM budget in bytes.
    pub buffer_bytes_budget: usize,
    /// Counter bits (one 16-bit counter per segment).
    pub counter_bits: usize,
}

/// What [`Accelerator::ingest_at`] did with one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Ingest {
    /// Whether the packet joined a round, and whether it closed it.
    pub outcome: IngestOutcome,
    /// Latency charged to this packet: every packet occupies the datapath
    /// for the bytes actually streamed, and a host-path round pays
    /// [`HOST_PATH_LATENCY_FACTOR`]× that.
    pub latency: SimDuration,
    /// Codec side effects of the accumulate (zero for a refused packet).
    pub effects: AccEffects,
    /// The packet's round was denied a slot (tenant grant or BRAM
    /// exhausted) and opened on the host path instead.
    pub slot_denied: bool,
}

/// The three things that can happen to an ingested packet.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Dropped without touching any round.
    Refused(Refusal),
    /// Accumulated into its round, which stays open.
    Accepted,
    /// Accumulated, and the round's counter reached `H`.
    Completed(ClosedRound),
}

/// Why a packet was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// No BRAM (or tenant grant) for a new round and no host fallback
    /// ([`AcceleratorStats::bram_drops`]).
    NoBram,
    /// The codec refused the body for the round
    /// ([`AcceleratorStats::malformed_drops`]).
    Malformed,
}

/// A round that just ended with an emission: its aggregate, encoded once,
/// plus what the round's slot recorded while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedRound {
    /// The round's (round-tagged) `Seg`.
    pub seg: u64,
    /// Workers represented in the (possibly partial) aggregate.
    pub count: u16,
    /// The aggregate in the codec's wide result encoding — the bytes the
    /// switch sends, shared by every copy of the result.
    pub payload: Bytes,
    /// Arrival of the round's first accepted contribution.
    pub opened: SimTime,
    /// Whether any accepted contribution arrived ECN-CE marked.
    pub ce: bool,
    /// Whether the round was resident on the host path.
    pub via_host: bool,
    /// The released slot, whose accumulator stays readable until the slot
    /// is occupied again.
    slot: u32,
}

/// The in-switch aggregation engine.
///
/// One instance lives inside each participating switch. It is the datapath
/// alone plus a latency model: it forgets a round the moment it emits it.
/// Wiring into the network (broadcast, hierarchy, control messages, the
/// results kept for `Help`) lives in [`crate::IswitchExtension`].
///
/// # Examples
///
/// ```
/// use iswitch_core::{decode_data_meta, Accelerator, AcceleratorConfig, CodecKind, EncodedGradient};
/// use iswitch_netsim::IpAddr;
///
/// let mut accel = Accelerator::new(AcceleratorConfig::default(), 1, 2);
/// let a = EncodedGradient::with_codec(IpAddr::new(10, 0, 0, 1), &[1.0, 2.0], CodecKind::F32, 0);
/// let b = EncodedGradient::with_codec(IpAddr::new(10, 0, 0, 2), &[10.0, 20.0], CodecKind::F32, 0);
/// let (pa, pb) = (a.packet(0, 0), b.packet(0, 0));
/// assert!(accel.ingest_wire(decode_data_meta(&pa).unwrap(), &pa.payload).0.is_none());
/// let (done, _latency) = accel.ingest_wire(decode_data_meta(&pb).unwrap(), &pb.payload);
/// assert_eq!(done.unwrap().values, vec![11.0, 22.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: AcceleratorConfig,
    threshold: u16,
    num_segments: usize,
    /// The aggregation format this instance's datapath is configured for.
    /// One codec per job (the flexible-switch per-job knob): slots hold the
    /// codec's native accumulator and payloads parse under its layout.
    codec: CodecKind,
    /// Maps the full (round-tagged) `Seg` value of each open round to its
    /// dense slot in `slots` — the SwitchML-style pool layout: one hash
    /// lookup per packet resolves everything the round has, wherever it
    /// is resident. Hashed, not direct-indexed by segment: a root also
    /// aggregates indices past the gradient, and a lossy straggler can hold
    /// two rounds of one index open at once (DESIGN.md §14).
    index: IntMap<u64, u32>,
    /// One record per open round, indexed by the dense slot ids in
    /// `index`/`free`. A slot is occupied only between a round's first
    /// accepted contribution and its release. On-the-fly aggregation
    /// releases each slot the moment its aggregate is emitted, so the BRAM
    /// footprint tracks the *arrival skew window*, not the full gradient
    /// vector — that is how a 6.41 MB DQN model fits the switch's ~3 MB of
    /// BRAM.
    slots: Vec<Slot>,
    /// Recycled slot ids (LIFO, so the most recently touched — and thus
    /// cache-warm — slot is reused first).
    free: Vec<u32>,
    resident_bytes: usize,
    /// Open rounds resident on the host path. They occupy a `slots` entry
    /// like any other but no BRAM, so they count toward neither
    /// `resident_bytes` nor [`Accelerator::open_rounds`].
    host_rounds: u32,
    /// Open-round cap granted to this tenant's share of the pool for the
    /// current arbitration epoch. `None` (the single-tenant default) means
    /// the whole pool, reproducing the legacy behavior bit for bit.
    slot_grant: Option<u32>,
    /// BRAM-byte cap granted for the current epoch; `None` means the full
    /// configured budget. The effective budget is the minimum of the two.
    byte_grant: Option<usize>,
    /// When set, a round denied a slot is punted to the host path (switch
    /// CPU, DRAM-resident software accumulator) instead of being dropped:
    /// slower by [`HOST_PATH_LATENCY_FACTOR`], but numerically identical.
    host_fallback: bool,
    /// Seeded bug for the chaos harness: released BRAM rounds "forget" to
    /// return their slot to the free list, so occupancy and resident bytes
    /// only ever grow. See the I6 isolation tests.
    slot_leak_bug: bool,
    /// High-water mark of concurrently open rounds (BRAM + host path)
    /// since the last [`Accelerator::take_demand_peak`] — the demand
    /// signal the multi-tenant arbiter reads at each epoch barrier.
    demand_peak: u32,
    stats: AcceleratorStats,
}

/// Where an open round's accumulator is resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// The BRAM slot pool.
    Bram,
    /// Switch-CPU DRAM (the fallback-to-host path). The switch CPU runs
    /// the identical codec arithmetic in software, so a round completes
    /// with the same values whichever path it took — only an order of
    /// magnitude slower per packet.
    Host,
}

/// The one record of an open round — the analog of the hardware's BRAM
/// row addressed by `Seg` (§3.3): buffer, counters, clock and congestion
/// mark together, so one packet touches one slot and one
/// [`Accelerator::release`] forgets the round entirely.
#[derive(Debug, Clone)]
struct Slot {
    /// The round's (round-tagged) `Seg`, the `index` key that finds it.
    seg: u64,
    home: Home,
    /// Partial sums for this round, in the codec's native representation.
    acc: WireAcc,
    /// Contributions (packets) accepted — compared against `H`.
    contributions: u16,
    /// Total workers represented (sums the incoming `count` fields) —
    /// becomes the emitted result's `count` metadata.
    workers: u16,
    /// Arrival of the first accepted contribution: the start of the
    /// round's aggregation-latency window.
    opened: SimTime,
    /// Arrival of the latest accepted contribution: what the stale sweep
    /// ages.
    last_arrival: SimTime,
    /// Some accepted contribution arrived ECN-CE marked; echoed on the
    /// emission that closes the round.
    ce: bool,
}

impl Slot {
    /// An unoccupied slot for `codec`, to be filled by [`Slot::occupy`].
    fn vacant(codec: CodecKind) -> Self {
        Slot {
            seg: 0,
            home: Home::Bram,
            acc: codec.codec().new_acc(0),
            contributions: 0,
            workers: 0,
            opened: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            ce: false,
        }
    }

    /// Starts round `seg` of `len` elements in this slot at `now`.
    fn occupy(&mut self, seg: u64, home: Home, len: usize, now: SimTime) {
        self.acc.reset(len);
        (self.seg, self.home) = (seg, home);
        (self.contributions, self.workers) = (0, 0);
        (self.opened, self.last_arrival, self.ce) = (now, now, false);
    }
}

impl Accelerator {
    /// An accelerator for gradient vectors of `num_segments` segments,
    /// aggregating `threshold` contributions per segment. The final segment
    /// may be shorter than [`crate::FLOATS_PER_SEGMENT`]; buffers size themselves
    /// on first arrival.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero, `num_segments` is zero, or the buffer
    /// requirement exceeds the configured BRAM budget.
    pub fn new(cfg: AcceleratorConfig, num_segments: usize, threshold: u16) -> Self {
        Self::with_codec(cfg, num_segments, threshold, CodecKind::F32)
    }

    /// An accelerator whose datapath aggregates in `codec`'s native
    /// representation. [`Accelerator::new`] is `with_codec(.., F32)`, the
    /// paper's raw-float datapath, bit-identical to the pre-codec build.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Accelerator::new`].
    pub fn with_codec(
        cfg: AcceleratorConfig,
        num_segments: usize,
        threshold: u16,
        codec: CodecKind,
    ) -> Self {
        assert!(threshold > 0, "aggregation threshold H must be positive");
        assert!(num_segments > 0, "at least one segment required");
        assert!(
            codec.acc_bytes(codec.elems_per_segment()) <= cfg.buffer_bytes,
            "BRAM budget smaller than a single segment"
        );
        Accelerator {
            cfg,
            threshold,
            num_segments,
            codec,
            index: IntMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            resident_bytes: 0,
            host_rounds: 0,
            slot_grant: None,
            byte_grant: None,
            host_fallback: false,
            slot_leak_bug: false,
            demand_peak: 0,
            stats: AcceleratorStats::default(),
        }
    }

    /// The configured aggregation threshold `H`.
    pub fn threshold(&self) -> u16 {
        self.threshold
    }

    /// The aggregation format this datapath is configured for.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Changes `H` (the `SetH` control action). Takes effect for segments
    /// that have not yet completed.
    pub fn set_threshold(&mut self, h: u16) {
        assert!(h > 0, "aggregation threshold H must be positive");
        self.threshold = h;
    }

    /// Number of segments per gradient vector.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Bytes of partial-segment buffers currently resident in BRAM.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// `Seg` values (round-tagged) currently holding a partial round, on
    /// either the BRAM or the host path, in ascending order.
    pub fn partial_segments(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.index.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Open rounds whose latest accepted contribution arrived at least
    /// `age` before `now`, in ascending `Seg` order (map iteration order
    /// is unspecified; callers flush in this order so same-seed runs
    /// replay byte-identically).
    pub fn stale_rounds(&self, now: SimTime, age: SimDuration) -> Vec<u64> {
        let mut stale: Vec<u64> = (self.index.values())
            .map(|&id| &self.slots[id as usize])
            .filter(|slot| now.saturating_duration_since(slot.last_arrival) >= age)
            .map(|slot| slot.seg)
            .collect();
        stale.sort_unstable();
        stale
    }

    /// Whether no round is open on either path.
    pub fn is_idle(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether round `seg` (round-tagged) is open on either path.
    pub fn is_open(&self, seg: u64) -> bool {
        self.index.contains_key(&seg)
    }

    /// Sets this epoch's tenant grant: at most `slots` concurrently open
    /// BRAM rounds and `bytes` resident bytes (`None` = uncapped; the
    /// hardware budget still applies). Called by the multi-tenant arbiter
    /// at each epoch barrier; single-tenant runs never call it.
    pub fn set_grant(&mut self, slots: Option<u32>, bytes: Option<usize>) {
        self.slot_grant = slots;
        self.byte_grant = bytes;
    }

    /// Routes slot-denied rounds through the host path (slower, correct)
    /// instead of dropping them. Multi-tenant runs enable this; the
    /// single-tenant default keeps the legacy drop-on-overflow behavior.
    pub fn set_host_fallback(&mut self, on: bool) {
        self.host_fallback = on;
    }

    /// Arms the seeded slot-leak bug: released BRAM rounds keep their slot
    /// and bytes forever. Exists solely so the chaos harness can prove the
    /// I6 isolation invariant trips when a tenant misbehaves.
    pub fn set_slot_leak_bug(&mut self, on: bool) {
        self.slot_leak_bug = on;
    }

    /// Rounds currently occupying BRAM slots (including any leaked by the
    /// seeded bug — a leak holds hardware, so it counts as occupancy).
    pub fn open_rounds(&self) -> usize {
        self.slots.len() - self.free.len() - self.host_rounds as usize
    }

    /// Rounds currently open on the fallback-to-host path.
    pub fn host_rounds(&self) -> usize {
        self.host_rounds as usize
    }

    /// Returns and rearms the demand high-water mark: the peak number of
    /// concurrently open rounds (BRAM + host) since the previous call.
    /// The arbiter reads this at every epoch barrier to size next epoch's
    /// grants; the mark restarts from the current occupancy.
    pub fn take_demand_peak(&mut self) -> u32 {
        let peak = self.demand_peak;
        self.demand_peak = (self.slots.len() - self.free.len()) as u32;
        peak
    }

    /// Running statistics.
    pub fn stats(&self) -> &AcceleratorStats {
        &self.stats
    }

    /// Static resource accounting (the FPGA-utilization analog).
    pub fn resources(&self) -> ResourceReport {
        ResourceReport {
            adders: self.cfg.adders(),
            buffer_bytes_used: self.stats.peak_buffer_bytes,
            buffer_bytes_budget: self.cfg.buffer_bytes,
            counter_bits: self.num_segments * 16,
        }
    }

    /// Counts one packet's datapath cycles as busy and returns its latency.
    fn charge(&mut self, payload_bytes: usize) -> SimDuration {
        let cycles = self.cfg.packet_cycles(payload_bytes);
        self.stats.busy_cycles += cycles;
        self.cfg.cycles_latency(cycles)
    }

    /// [`Accelerator::ingest_at`] for callers with no clock and no
    /// congestion marks (benchmarks, unit tests): the completed aggregate
    /// as the released slot holds it (before the wide result encoding), if
    /// this arrival made the counter reach `H`, and the latency charged.
    pub fn ingest_wire(
        &mut self,
        meta: SegmentMeta,
        payload: &[u8],
    ) -> (Option<DataSegment>, SimDuration) {
        let ingest = self.ingest_at(SimTime::ZERO, false, meta, payload);
        let done = match ingest.outcome {
            IngestOutcome::Completed(round) => Some(DataSegment {
                seg: round.seg,
                count: round.count,
                values: self
                    .codec
                    .codec()
                    .decode_acc(&self.slots[round.slot as usize].acc),
            }),
            IngestOutcome::Accepted | IngestOutcome::Refused(_) => None,
        };
        (done, ingest.latency)
    }

    /// Ingests one contribution arriving at `now` (CE-marked or not) from
    /// its encoded UDP payload, accumulating on the fly (`meta` from the
    /// codec's `decode_meta`, `payload` the full wire payload including all
    /// headers) — the only datapath.
    ///
    /// Adders read bus beats, not heap allocations — the per-packet value
    /// vector is never materialized. The payload may carry the codec's
    /// narrow contribution or wide result encoding (hierarchical
    /// aggregation feeds parent switches with wide child aggregates).
    ///
    /// A refused packet belongs to no round: it neither starts a round's
    /// clock nor lends it a CE mark, and a round it would have opened is
    /// released again.
    pub fn ingest_at(
        &mut self,
        now: SimTime,
        ce: bool,
        meta: SegmentMeta,
        payload: &[u8],
    ) -> Ingest {
        self.stats.packets_in += 1;
        let datapath = self.charge(payload.len());
        let mut ingest = Ingest {
            outcome: IngestOutcome::Refused(Refusal::NoBram),
            latency: datapath,
            effects: AccEffects::default(),
            slot_denied: false,
        };
        let (slot_id, opener) = match self.index.get(&meta.seg) {
            Some(&slot_id) => (slot_id, false),
            None => match self.open(meta.seg, meta.len, now) {
                Some(slot_id) => (slot_id, true),
                None => {
                    self.stats.bram_drops += 1;
                    return ingest;
                }
            },
        };
        let slot = &mut self.slots[slot_id as usize];
        let via_host = slot.home == Home::Host;
        if via_host {
            ingest.latency = datapath * HOST_PATH_LATENCY_FACTOR;
            ingest.slot_denied = opener;
        }
        let Ok(effects) = self.codec.codec().accumulate(&mut slot.acc, payload) else {
            self.stats.malformed_drops += 1;
            if opener {
                // A resident round always holds at least one contribution.
                self.release(meta.seg);
            }
            ingest.outcome = IngestOutcome::Refused(Refusal::Malformed);
            return ingest;
        };
        slot.contributions = slot.contributions.saturating_add(1);
        slot.workers = slot.workers.saturating_add(meta.count.max(1));
        slot.last_arrival = now;
        slot.ce |= ce;
        let done = slot.contributions >= self.threshold;
        self.stats.codec_saturations += effects.saturations;
        self.stats.codec_rebases += effects.rebases;
        self.stats.fallback_contributions += u64::from(via_host);
        ingest.effects = effects;
        ingest.outcome = if done {
            IngestOutcome::Completed(self.emit(meta.seg).expect("the round is open"))
        } else {
            IngestOutcome::Accepted
        };
        ingest
    }

    /// Opens round `seg` at `now`, returning its slot. Opening a round
    /// requires BRAM for its buffer and a slot under the tenant grant;
    /// when either is exhausted the round is resident on the host path if
    /// enabled, and is otherwise refused (`None`) — the packet drops,
    /// exactly as the hardware would. (Drops genuinely happen when loss
    /// desynchronizes workers by an iteration: N-1 full vectors may
    /// contend for a buffer that holds less than one.)
    fn open(&mut self, seg: u64, len: usize, now: SimTime) -> Option<u32> {
        let acc_bytes = self.codec.acc_bytes(len);
        let byte_budget = self
            .byte_grant
            .map_or(self.cfg.buffer_bytes, |g| g.min(self.cfg.buffer_bytes));
        let over_slots = self
            .slot_grant
            .is_some_and(|g| self.open_rounds() >= g as usize);
        let home = if over_slots || self.resident_bytes + acc_bytes > byte_budget {
            if !self.host_fallback {
                return None;
            }
            self.stats.slot_denials += 1;
            self.host_rounds += 1;
            Home::Host
        } else {
            self.resident_bytes += acc_bytes;
            self.stats.peak_buffer_bytes = self.stats.peak_buffer_bytes.max(self.resident_bytes);
            Home::Bram
        };
        let slot_id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::vacant(self.codec));
            (self.slots.len() - 1) as u32
        });
        self.slots[slot_id as usize].occupy(seg, home, len, now);
        self.index.insert(seg, slot_id);
        // The demand high-water mark only moves when a round opens.
        let open = (self.slots.len() - self.free.len()) as u32;
        self.demand_peak = self.demand_peak.max(open);
        Some(slot_id)
    }

    /// Ends round `seg` — the one way a round stops being open, whatever
    /// ended it (threshold, `FBcast`, stale sweep, reset, a refused
    /// opener): the index forgets it and its slot and bytes return to the
    /// pool. Returns the slot, whose contents stay readable until it is
    /// occupied again; `None` if the round is not open.
    fn release(&mut self, seg: u64) -> Option<u32> {
        let slot_id = self.index.remove(&seg)?;
        let slot = &self.slots[slot_id as usize];
        match slot.home {
            Home::Host => self.host_rounds -= 1,
            Home::Bram if self.slot_leak_bug => {
                // Seeded bug: the slot never returns to the free list and
                // its bytes stay accounted as resident, so occupancy only
                // grows.
                self.stats.leaked_slots += 1;
                return Some(slot_id);
            }
            Home::Bram => self.resident_bytes -= slot.acc.resident_bytes(),
        }
        self.free.push(slot_id);
        Some(slot_id)
    }

    /// Releases round `seg` and publishes its aggregate, encoded once in
    /// the codec's result format.
    fn emit(&mut self, seg: u64) -> Option<ClosedRound> {
        let slot_id = self.release(seg)?;
        let codec = self.codec.codec();
        let slot = &self.slots[slot_id as usize];
        let count = slot.workers;
        // Every accumulator is written straight to the wire, and the slot
        // keeps its buffer for its next round.
        let payload = match &slot.acc {
            WireAcc::F32(sums) => encode_segment(seg, count, sums),
            acc => codec.encode_acc(seg, count, acc),
        };
        let round = ClosedRound {
            seg,
            count,
            payload,
            opened: slot.opened,
            ce: slot.ce,
            via_host: slot.home == Home::Host,
            slot: slot_id,
        };
        self.stats.segments_emitted += 1;
        self.stats.fallback_rounds += u64::from(round.via_host);
        Some(round)
    }

    /// Forces out the partial aggregate of `seg` (the `FBcast` control
    /// action and the stale sweep), if the round is open — on either the
    /// BRAM or the host path. An open round always holds at least one
    /// contribution, so there is always something to flush.
    pub fn force_broadcast(&mut self, seg: u64) -> Option<ClosedRound> {
        let flushed = self.emit(seg)?;
        self.stats.forced_broadcasts += 1;
        Some(flushed)
    }

    /// Releases every open round and clears the slot pool (including what
    /// the seeded leak held) — the `Reset` control action and a switch
    /// restart.
    pub fn reset(&mut self) {
        let open: Vec<u64> = self.index.keys().copied().collect();
        for seg in open {
            self.release(seg);
        }
        self.slots.clear();
        self.free.clear();
        self.resident_bytes = 0;
        self.demand_peak = 0;
        self.stats.resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `values` for round `idx` through `ingest_wire` in `codec`'s
    /// contribution format.
    fn wire(a: &mut Accelerator, idx: u64, values: &[f32]) -> (Option<DataSegment>, SimDuration) {
        let codec = a.codec().codec();
        let payload = codec.encode_contribution(idx, values).unwrap();
        let meta = codec.decode_meta(&payload).unwrap();
        a.ingest_wire(meta, &payload)
    }

    #[test]
    fn aggregates_exactly_h_contributions() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 2, 3);
        assert!(wire(&mut a, 0, &[1.0]).0.is_none());
        assert!(wire(&mut a, 0, &[2.0]).0.is_none());
        let (done, _) = wire(&mut a, 0, &[4.0]);
        let done = done.expect("third contribution completes");
        assert_eq!(done.values, vec![7.0]);
        assert_eq!(done.count, 3);
        assert_eq!(a.stats().segments_emitted, 1);
    }

    #[test]
    fn buffer_resets_between_rounds() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 1, 2);
        wire(&mut a, 0, &[1.0, 1.0]);
        wire(&mut a, 0, &[1.0, 1.0]);
        wire(&mut a, 0, &[5.0, 5.0]);
        let (done, _) = wire(&mut a, 0, &[6.0, 6.0]);
        assert_eq!(done.unwrap().values, vec![11.0, 11.0]);
    }

    #[test]
    fn segments_aggregate_independently() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 3, 2);
        wire(&mut a, 0, &[1.0]);
        wire(&mut a, 2, &[9.0]);
        let (done, _) = wire(&mut a, 2, &[1.0]);
        assert_eq!(done.unwrap().values, vec![10.0]);
        // Segment 0 is still partial.
        let (done, _) = wire(&mut a, 0, &[1.0]);
        assert_eq!(done.unwrap().values, vec![2.0]);
    }

    #[test]
    fn latency_model_matches_cycle_math() {
        let cfg = AcceleratorConfig::default();
        // A full segment: 366*4+8 = 1472 bytes = 11,776 bits -> 46 bursts.
        // 46 + 8 pipeline cycles at 200 MHz (5 ns) = 270 ns.
        assert_eq!(cfg.packet_latency(1472), SimDuration::from_nanos(270));
        // Empty payload still pays the pipeline depth.
        assert_eq!(cfg.packet_latency(0), SimDuration::from_nanos(40));
        assert_eq!(cfg.adders(), 8);
    }

    #[test]
    fn force_broadcast_flushes_partials() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 1, 4);
        wire(&mut a, 0, &[3.0]);
        wire(&mut a, 0, &[4.0]);
        let flushed = a.force_broadcast(0).expect("partial flushed");
        let result = DataSegment::decode(&flushed.payload).expect("an f32 result");
        assert_eq!((result.count, result.values), (2, vec![7.0]));
        // Nothing left to flush.
        assert!(a.force_broadcast(0).is_none());
        // Counter restarted: needs 4 fresh contributions again.
        wire(&mut a, 0, &[1.0]);
        assert!(a.force_broadcast(0).is_some());
    }

    #[test]
    fn aggregated_contributions_carry_their_count() {
        // Hierarchical aggregation: the core aggregates one contribution
        // per rack (H = 2 here), but the emitted result's count metadata
        // sums the workers each rack represents.
        let mut core = Accelerator::new(AcceleratorConfig::default(), 1, 2);
        let rack = |sum: f32| {
            let payload = DataSegment {
                seg: 0,
                count: 3,
                values: vec![sum],
            }
            .encode();
            (DataSegment::decode_meta(&payload).unwrap(), payload)
        };
        let ((meta_a, rack_a), (meta_b, rack_b)) = (rack(30.0), rack(12.0));
        assert!(core.ingest_wire(meta_a, &rack_a).0.is_none());
        let (done, _) = core.ingest_wire(meta_b, &rack_b);
        let done = done.expect("both racks arrived");
        assert_eq!(done.values, vec![42.0]);
        assert_eq!(done.count, 6);
    }

    #[test]
    fn a_closed_round_is_encoded_once_and_its_slot_keeps_the_buffer() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 1, 2);
        wire(&mut a, 0, &[1.0, 2.0]);
        assert!(a.is_open(0) && !a.is_open(1));
        let meta = SegmentMeta {
            seg: 0,
            count: 1,
            len: 2,
        };
        let payload = CodecKind::F32
            .codec()
            .encode_contribution(0, &[3.0, 4.0])
            .unwrap();
        let ingest = a.ingest_at(SimTime::ZERO, false, meta, &payload);
        let IngestOutcome::Completed(round) = ingest.outcome else {
            panic!("the second contribution completes the round");
        };
        assert!(!a.is_open(0));
        let sum = DataSegment {
            seg: 0,
            count: 2,
            values: vec![4.0, 6.0],
        };
        assert_eq!((round.seg, round.count), (0, 2));
        assert_eq!(round.payload, sum.encode());
        // The next round reuses the released slot's buffer.
        let WireAcc::F32(sums) = &a.slots[round.slot as usize].acc else {
            unreachable!("an f32 datapath");
        };
        assert!(sums.capacity() >= 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 2, 2);
        wire(&mut a, 0, &[1.0]);
        wire(&mut a, 1, &[1.0]);
        wire(&mut a, 1, &[1.0]);
        a.reset();
        assert!(a.force_broadcast(0).is_none());
        assert_eq!(a.stats().resets, 1);
        // After reset a segment may arrive with a different length.
        let (done, _) = wire(&mut a, 0, &[1.0, 2.0, 3.0]);
        assert!(done.is_none());
    }

    #[test]
    fn set_threshold_takes_effect() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 1, 4);
        wire(&mut a, 0, &[1.0]);
        a.set_threshold(2);
        let (done, _) = wire(&mut a, 0, &[1.0]);
        assert!(done.is_some());
    }

    #[test]
    fn window_overflow_drops_new_rounds() {
        // Threshold 2 but only one contribution per segment: every segment
        // stays partial; once the budget is exhausted new rounds drop.
        let cfg = AcceleratorConfig {
            buffer_bytes: 2_928,
            ..AcceleratorConfig::default()
        };
        let mut a = Accelerator::new(cfg, 100, 2);
        for i in 0..100 {
            let _ = wire(&mut a, i, &[0.0; 366]);
        }
        // 2,928 bytes = two 366-f32 buffers; the other 98 packets dropped.
        assert_eq!(a.stats().bram_drops, 98);
        assert_eq!(a.resident_bytes(), 2_928);
        // Accumulating into an existing round is still fine and completes.
        let (done, _) = wire(&mut a, 0, &[1.0; 366]);
        assert!(done.is_some());
    }

    #[test]
    fn window_stays_small_when_segments_complete() {
        // Two interleaved workers: each segment completes right after both
        // contributions, so at most one segment is ever resident.
        let cfg = AcceleratorConfig {
            buffer_bytes: 4_096,
            ..AcceleratorConfig::default()
        };
        let mut a = Accelerator::new(cfg, 1_000, 2);
        for i in 0..1_000u64 {
            let _ = wire(&mut a, i, &[0.0; 366]);
            let (done, _) = wire(&mut a, i, &[0.0; 366]);
            assert!(done.is_some());
        }
        assert_eq!(a.stats().peak_buffer_bytes, 366 * 4);
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn slot_grant_denies_and_host_path_completes() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 4, 2);
        a.set_grant(Some(1), None);
        a.set_host_fallback(true);
        // Segment 0 takes the single granted slot and stays open.
        let (done, fast) = wire(&mut a, 0, &[1.0]);
        assert!(done.is_none());
        // Segment 1 is denied and opens on the host path instead.
        let (done, slow) = wire(&mut a, 1, &[2.0]);
        assert!(done.is_none());
        assert_eq!(slow, fast * HOST_PATH_LATENCY_FACTOR);
        // Segment 0 completes on the fast path, freeing its slot …
        assert!(wire(&mut a, 0, &[1.0]).0.is_some());
        // … but the fallen-back round stays on the host path, and its
        // aggregate is numerically identical to the BRAM path.
        let (done, _) = wire(&mut a, 1, &[3.0]);
        assert_eq!(done.unwrap().values, vec![5.0]);
        assert_eq!(a.stats().slot_denials, 1);
        assert_eq!(a.stats().fallback_contributions, 2);
        assert_eq!(a.stats().fallback_rounds, 1);
        assert_eq!(a.stats().bram_drops, 0);
        assert_eq!(a.host_rounds(), 0);
    }

    #[test]
    fn grant_without_fallback_still_drops() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 2, 2);
        a.set_grant(Some(1), None);
        wire(&mut a, 0, &[1.0]);
        let (done, _) = wire(&mut a, 1, &[1.0]);
        assert!(done.is_none());
        assert_eq!(a.stats().bram_drops, 1);
        assert_eq!(a.stats().slot_denials, 0);
    }

    #[test]
    fn force_broadcast_flushes_host_path_partials() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 2, 4);
        a.set_grant(Some(1), None);
        a.set_host_fallback(true);
        wire(&mut a, 0, &[1.0]);
        wire(&mut a, 1, &[7.0]);
        assert_eq!(a.host_rounds(), 1);
        assert_eq!(a.partial_segments(), vec![0, 1]);
        let flushed = a.force_broadcast(1).expect("host partial flushed");
        assert!(flushed.via_host);
        let result = DataSegment::decode(&flushed.payload).expect("an f32 result");
        assert_eq!(result.values, vec![7.0]);
        assert_eq!(a.stats().fallback_rounds, 1);
    }

    #[test]
    fn demand_peak_tracks_and_rearms() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 4, 2);
        wire(&mut a, 0, &[1.0]);
        wire(&mut a, 1, &[1.0]);
        wire(&mut a, 0, &[1.0]); // completes segment 0
        assert_eq!(a.take_demand_peak(), 2);
        // Rearmed from the current occupancy (segment 1 still open).
        assert_eq!(a.take_demand_peak(), 1);
    }

    #[test]
    fn slot_leak_bug_inflates_occupancy() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 4, 2);
        a.set_slot_leak_bug(true);
        let resident_one = {
            wire(&mut a, 0, &[1.0; 8]);
            a.resident_bytes()
        };
        wire(&mut a, 0, &[1.0; 8]);
        // The completed round leaked: occupancy and bytes never dropped.
        assert_eq!(a.open_rounds(), 1);
        assert_eq!(a.resident_bytes(), resident_one);
        assert_eq!(a.stats().leaked_slots, 1);
        wire(&mut a, 1, &[1.0; 8]);
        wire(&mut a, 1, &[1.0; 8]);
        assert_eq!(a.open_rounds(), 2);
        assert_eq!(a.resident_bytes(), 2 * resident_one);
    }

    #[test]
    fn contribution_disagreeing_with_the_open_round_is_dropped_and_counted() {
        for kind in CodecKind::ALL {
            let mut a = Accelerator::with_codec(AcceleratorConfig::default(), 1, 2, kind);
            let full = vec![1.0f32; kind.elems_per_segment()];
            assert!(wire(&mut a, 0, &full).0.is_none());
            // Well-formed on its own, but three elements where the round
            // holds a full segment.
            let (done, latency) = wire(&mut a, 0, &[9.0, 9.0, 9.0]);
            assert!(done.is_none(), "{kind}");
            assert!(latency > SimDuration::ZERO, "{kind}");
            assert_eq!(a.stats().malformed_drops, 1, "{kind}");
            assert_eq!(a.stats().packets_in, 2, "{kind}");
            assert_eq!(a.partial_segments(), vec![0], "{kind}");
            // The round is intact: the next well-formed contribution
            // completes it as if the bad packet had never arrived.
            let done = wire(&mut a, 0, &full).0.expect("round completes");
            assert_eq!(done.count, 2, "{kind}");
            let mut clean = Accelerator::with_codec(AcceleratorConfig::default(), 1, 2, kind);
            wire(&mut clean, 0, &full);
            assert_eq!(Some(done), wire(&mut clean, 0, &full).0, "{kind}");
        }
    }

    #[test]
    fn body_shorter_than_its_meta_is_dropped_on_both_paths() {
        // The caller's meta promises four elements; the fixed-point body
        // carries three. The first such packet opens no round (BRAM or
        // host); a later one leaves the open round untouched.
        for host in [false, true] {
            let mut a =
                Accelerator::with_codec(AcceleratorConfig::default(), 1, 2, CodecKind::FixedPoint);
            if host {
                a.set_grant(Some(0), None);
                a.set_host_fallback(true);
            }
            let codec = CodecKind::FixedPoint.codec();
            let short = codec.encode_contribution(0, &[1.0, 2.0, 3.0]).unwrap();
            let lying = SegmentMeta {
                seg: 0,
                count: 1,
                len: 4,
            };
            assert!(a.ingest_wire(lying, &short).0.is_none());
            assert_eq!(a.stats().malformed_drops, 1);
            assert!(a.partial_segments().is_empty());
            assert_eq!(a.resident_bytes(), 0);

            wire(&mut a, 0, &[1.0, 2.0, 3.0, 4.0]);
            assert!(a.ingest_wire(lying, &short).0.is_none());
            assert_eq!(a.stats().malformed_drops, 2);
            let done = wire(&mut a, 0, &[1.0, 2.0, 3.0, 4.0]).0.expect("completes");
            assert_eq!(done.count, 2);
            assert_eq!(a.stats().fallback_rounds, u64::from(host));
            assert_eq!(a.stats().segments_emitted, 1);
        }
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut a = Accelerator::new(AcceleratorConfig::default(), 1, 10);
        wire(&mut a, 0, &[0.0; 366]);
        wire(&mut a, 0, &[0.0; 366]);
        assert_eq!(a.stats().busy_cycles, 2 * (46 + 8));
    }
}
