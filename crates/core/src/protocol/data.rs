//! Data (gradient) packets and vector segmentation (paper §3.2, Fig. 5b).
//!
//! A gradient vector is split into MTU-sized **segments**; the payload of a
//! data packet is an 8-byte `Seg` field followed by raw f32 gradient data
//! ("all gradient data are transmitted and computed in a raw float-point
//! format"). Packets with the same `Seg` number are summed element-wise by
//! the accelerator.
//!
//! Wire refinement kept from the paper's format: the 8-byte `Seg` field is
//! split into a 48-bit segment index and a 16-bit **contributor count**.
//! Worker contributions carry count = 1; aggregated results carry the
//! number of gradient vectors summed in, which lets workers average
//! correctly when a partial aggregate is force-broadcast (`FBcast`).

use bytes::Bytes;
use iswitch_netsim::MAX_UDP_PAYLOAD;

use crate::error::ProtocolError;
use crate::protocol::codec::CodecKind;

/// Bytes of the `Seg` header at the start of every data payload.
pub const SEG_HEADER_BYTES: usize = 8;

/// f32 elements per full segment: the largest count whose payload fits a
/// maximum Ethernet frame. With 1,472 payload bytes this is 366.
pub const FLOATS_PER_SEGMENT: usize = (MAX_UDP_PAYLOAD - SEG_HEADER_BYTES) / 4;

/// Largest representable segment index (48 bits).
pub const MAX_SEG_INDEX: u64 = (1 << 48) - 1;

/// Bit position of the round tag inside the 48-bit segment field.
///
/// Aggregation rounds need an identity: without one, a round left partial
/// by a lost contribution is silently completed by the *next* iteration's
/// packets, permanently phase-shifting that segment (and a re-broadcast of
/// an old round can prematurely satisfy a new one). The low 32 bits carry
/// the spatial segment index (models up to ~1.5 billion elements); the
/// high 16 bits carry the sender's round number modulo 2^16 — the same
/// idea as slot versioning in later in-network aggregation systems.
pub const ROUND_SHIFT: u32 = 32;

/// Combines a spatial segment index and a round number into a wire `Seg`.
///
/// # Panics
///
/// Panics if `index` does not fit in 32 bits.
pub fn tag_round(index: u64, round: u32) -> u64 {
    assert!(index < (1 << ROUND_SHIFT), "segment index exceeds 32 bits");
    (u64::from(round & 0xFFFF) << ROUND_SHIFT) | index
}

/// The spatial segment index of a wire `Seg`.
pub fn seg_index(tagged: u64) -> u64 {
    tagged & ((1 << ROUND_SHIFT) - 1)
}

/// The round tag of a wire `Seg`.
pub fn seg_round(tagged: u64) -> u32 {
    ((tagged >> ROUND_SHIFT) & 0xFFFF) as u32
}

/// One gradient segment: the unit of on-the-fly aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Segment index (spatial offset `seg * FLOATS_PER_SEGMENT` in the
    /// gradient vector).
    pub seg: u64,
    /// Number of gradient vectors summed into `values` (1 for a worker's
    /// own contribution).
    pub count: u16,
    /// Raw gradient values.
    pub values: Vec<f32>,
}

/// Header-only view of an encoded data payload: everything
/// [`DataSegment::decode`] yields except the values themselves.
///
/// The hot paths that only need arrival bookkeeping (timing-mode workers)
/// or that consume values straight off the wire (the accelerator's
/// [`ingest_wire`](crate::Accelerator::ingest_wire)) use this to skip
/// materializing a fresh `Vec<f32>` per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Wire `Seg` field (round-tagged segment index).
    pub seg: u64,
    /// Number of gradient vectors summed into the payload.
    pub count: u16,
    /// Number of f32 values carried in the payload.
    pub len: usize,
}

/// Serializes a segment header plus value slice to a UDP payload without
/// requiring an owned [`DataSegment`] (the worker packetization path feeds
/// gradient chunks here directly).
pub(crate) fn encode_segment(seg: u64, count: u16, values: &[f32]) -> Bytes {
    assert!(seg <= MAX_SEG_INDEX, "segment index exceeds 48 bits");
    assert!(
        values.len() <= FLOATS_PER_SEGMENT,
        "segment of {} floats exceeds the MTU budget of {}",
        values.len(),
        FLOATS_PER_SEGMENT
    );
    // Write into an exact-size byte vector: the fixed 4-byte copies below
    // inline and autovectorize, where per-element `BufMut::put_f32` calls
    // would each go through a capacity check and an outlined extend.
    let mut buf = vec![0u8; SEG_HEADER_BYTES + values.len() * 4];
    buf[..SEG_HEADER_BYTES].copy_from_slice(&seg_header(seg, count));
    for (dst, v) in buf[SEG_HEADER_BYTES..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_be_bytes());
    }
    Bytes::from(buf)
}

/// The 8-byte `Seg` header every data payload begins with: the 48-bit
/// round-tagged segment field above the 16-bit contributor count.
pub(crate) fn seg_header(seg: u64, count: u16) -> [u8; SEG_HEADER_BYTES] {
    ((seg << 16) | u64::from(count)).to_be_bytes()
}

/// Splits the `Seg` header off a data payload, yielding the round-tagged
/// segment field, the contributor count and the bytes after the header —
/// the inverse of [`seg_header`] and the only place the header is parsed.
pub(crate) fn split_seg_header(payload: &[u8]) -> Result<(u64, u16, &[u8]), ProtocolError> {
    let (head, rest) =
        payload
            .split_first_chunk::<SEG_HEADER_BYTES>()
            .ok_or(ProtocolError::Truncated {
                needed: SEG_HEADER_BYTES,
                got: payload.len(),
            })?;
    let header = u64::from_be_bytes(*head);
    Ok((header >> 16, (header & 0xFFFF) as u16, rest))
}

/// Reads just the round-tagged `Seg` field of a data payload, without
/// touching the body. Codec-agnostic: every codec layout begins with the
/// same 8-byte `Seg` header, so consumers that only need arrival identity
/// (gap detection in reliable transports) parse one way for all formats.
///
/// # Errors
///
/// Returns [`ProtocolError::Truncated`] if the payload is shorter than the
/// header.
pub fn decode_seg_field(payload: &[u8]) -> Result<u64, ProtocolError> {
    split_seg_header(payload).map(|(seg, _, _)| seg)
}

impl DataSegment {
    /// Serializes to a UDP payload.
    ///
    /// # Panics
    ///
    /// Panics if the segment exceeds the MTU budget or the index exceeds
    /// [`MAX_SEG_INDEX`].
    pub fn encode(&self) -> Bytes {
        encode_segment(self.seg, self.count, &self.values)
    }

    /// Parses just the header and length of a UDP payload, without
    /// materializing the value vector.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] under exactly the same conditions as
    /// [`DataSegment::decode`].
    pub fn decode_meta(payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        let (seg, count, data) = split_seg_header(payload)?;
        if !data.len().is_multiple_of(4) {
            return Err(ProtocolError::MisalignedPayload(data.len()));
        }
        Ok(SegmentMeta {
            seg,
            count,
            len: data.len() / 4,
        })
    }

    /// Parses a UDP payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if the payload is shorter than the header
    /// or its data is not f32-aligned.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let meta = Self::decode_meta(payload)?;
        let values = payload[SEG_HEADER_BYTES..]
            .chunks_exact(4)
            .map(|c| f32::from_be_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(DataSegment {
            seg: meta.seg,
            count: meta.count,
            values,
        })
    }
}

/// Number of segments needed for a gradient vector of `len` elements.
pub fn num_segments(len: usize) -> usize {
    len.div_ceil(FLOATS_PER_SEGMENT)
}

/// Splits a gradient vector into worker-contribution segments (count = 1,
/// round tag 0). The inverse of feeding every segment to a
/// [`GradientAssembler`].
pub fn segment_gradient(grad: &[f32]) -> Vec<DataSegment> {
    segment_gradient_round(grad, 0)
}

/// Splits a gradient vector into contribution segments tagged with `round`.
pub fn segment_gradient_round(grad: &[f32], round: u32) -> Vec<DataSegment> {
    grad.chunks(FLOATS_PER_SEGMENT)
        .enumerate()
        .map(|(i, chunk)| DataSegment {
            seg: tag_round(i as u64, round),
            count: 1,
            values: chunk.to_vec(),
        })
        .collect()
}

/// Indices in `[from, below)` whose `received` flag is still clear, in
/// ascending order — the one missing-segment scan both assemblers share.
/// Bounds past the end of `received` are clamped; nothing is allocated.
fn missing_in(received: &[bool], from: u64, below: u64) -> impl Iterator<Item = u64> + '_ {
    let n = received.len();
    let hi = usize::try_from(below).map_or(n, |b| b.min(n));
    let lo = usize::try_from(from).map_or(hi, |f| f.min(hi));
    received[lo..hi]
        .iter()
        .enumerate()
        .filter(|(_, r)| !**r)
        .map(move |(i, _)| (lo + i) as u64)
}

/// Reassembles aggregated segments back into a full gradient vector.
///
/// Tracks per-segment contributor counts so callers can average even when
/// different segments were aggregated over different numbers of workers
/// (possible after an `FBcast`).
#[derive(Debug, Clone)]
pub struct GradientAssembler {
    grad_len: usize,
    /// Elements per full segment — [`FLOATS_PER_SEGMENT`] for the f32
    /// format, the codec's own capacity otherwise. Segment `i` covers
    /// offsets `i * seg_elems ..`.
    seg_elems: usize,
    values: Vec<f32>,
    counts: Vec<u16>,
    received: Vec<bool>,
    pending: usize,
}

impl GradientAssembler {
    /// An assembler for a gradient of `grad_len` elements in the f32
    /// segment layout.
    ///
    /// # Panics
    ///
    /// Panics if `grad_len` is zero.
    pub fn new(grad_len: usize) -> Self {
        Self::with_seg_elems(grad_len, FLOATS_PER_SEGMENT)
    }

    /// An assembler whose segments carry `seg_elems` elements each (the
    /// codec's per-segment capacity).
    ///
    /// # Panics
    ///
    /// Panics if `grad_len` or `seg_elems` is zero.
    pub fn with_seg_elems(grad_len: usize, seg_elems: usize) -> Self {
        assert!(grad_len > 0, "gradient length must be positive");
        assert!(seg_elems > 0, "segment capacity must be positive");
        let n = grad_len.div_ceil(seg_elems);
        GradientAssembler {
            grad_len,
            seg_elems,
            values: vec![0.0; grad_len],
            counts: vec![0; n],
            received: vec![false; n],
            pending: n,
        }
    }

    /// Total number of segments expected.
    pub fn num_segments(&self) -> usize {
        self.received.len()
    }

    /// Whether every segment has arrived.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }

    /// Indices in `[from, below)` of segments not yet received, ascending.
    pub fn missing_in(&self, from: u64, below: u64) -> impl Iterator<Item = u64> + '_ {
        missing_in(&self.received, from, below)
    }

    /// Installs a segment. Duplicate arrivals overwrite (results are
    /// idempotent re-broadcasts). Returns `true` once the vector is
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidField`] if the segment index is out
    /// of range, its length does not match its position, or its
    /// contributor count is zero.
    pub fn insert(&mut self, seg: &DataSegment) -> Result<bool, ProtocolError> {
        let idx = seg_index(seg.seg) as usize;
        if idx >= self.received.len() {
            return Err(ProtocolError::InvalidField("seg"));
        }
        let offset = idx * self.seg_elems;
        let expect = (self.grad_len - offset).min(self.seg_elems);
        if seg.values.len() != expect {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        if seg.count == 0 {
            // A zero count would divide the segment by zero in `into_mean`.
            return Err(ProtocolError::InvalidField("count"));
        }
        self.values[offset..offset + expect].copy_from_slice(&seg.values);
        self.counts[idx] = seg.count;
        if !self.received[idx] {
            self.received[idx] = true;
            self.pending -= 1;
        }
        Ok(self.is_complete())
    }

    /// Consumes the assembler, returning the element-wise **mean** gradient
    /// (each segment divided by its contributor count).
    ///
    /// # Panics
    ///
    /// Panics if the vector is incomplete or any count is zero.
    pub fn into_mean(self) -> Vec<f32> {
        assert!(self.is_complete(), "gradient vector incomplete");
        let mut out = self.values;
        for (i, &count) in self.counts.iter().enumerate() {
            assert!(count > 0, "segment {i} has zero contributors");
            let offset = i * self.seg_elems;
            let end = (offset + self.seg_elems).min(out.len());
            let inv = 1.0 / f32::from(count);
            for v in &mut out[offset..end] {
                *v *= inv;
            }
        }
        out
    }

    /// Consumes the assembler, returning the raw summed gradient and the
    /// per-segment contributor counts.
    ///
    /// # Panics
    ///
    /// Panics if the vector is incomplete.
    pub fn into_sum(self) -> (Vec<f32>, Vec<u16>) {
        assert!(self.is_complete(), "gradient vector incomplete");
        (self.values, self.counts)
    }
}

/// Outcome of feeding one segment to a [`RoundAssembler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundInsert {
    /// Segment belongs to a different round (or is malformed); ignored.
    Stale,
    /// Segment index already received this round (or the round already
    /// completed); ignored.
    Duplicate,
    /// Segment accepted; the round is still missing others.
    Accepted,
    /// Segment accepted and the round is now complete.
    Completed,
}

/// Round-scoped reassembly of broadcast aggregation results.
///
/// Wraps the bookkeeping every iSwitch worker needs around incoming result
/// segments: filtering stale rounds (expired flushes, duplicate `Help`
/// replies), deduplicating re-broadcast segments, tracking which indices
/// are still missing for loss recovery — and, when constructed with
/// `store_values`, buffering the actual aggregated f32 values so the mean
/// gradient can be recovered (the co-simulation fidelity path). Timing-mode
/// workers skip value storage: arrival bookkeeping alone determines when an
/// iteration completes.
#[derive(Debug, Clone)]
pub struct RoundAssembler {
    grad_len: usize,
    /// The wire format result segments arrive in; governs segment count,
    /// layout, and [`RoundAssembler::insert_wire`] parsing.
    codec: CodecKind,
    /// `Some(r)`: accept only segments tagged with round `r` (mod 2^16).
    /// `None`: accept any round tag (the asynchronous pipeline, where
    /// contributions are not round-aligned).
    round: Option<u32>,
    values: Option<GradientAssembler>,
    store_values: bool,
    received: Vec<bool>,
    /// Low-water cursor: the lowest index not yet received this round
    /// (`received.len()` once none is left). Everything below it has
    /// arrived, so a missing-segment scan never needs to look there; it
    /// only moves forward within a round and costs O(segments) per round
    /// in total. 32 bits, like the spatial index on the wire.
    low_water: u32,
    pending: usize,
    done: bool,
}

impl RoundAssembler {
    /// An assembler for `grad_len`-element vectors in the f32 wire format.
    /// With `store_values`, aggregated values are buffered and
    /// [`RoundAssembler::take_mean`] yields the count-weighted mean after
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if `grad_len` is zero.
    pub fn new(grad_len: usize, store_values: bool) -> Self {
        Self::with_codec(grad_len, store_values, CodecKind::F32)
    }

    /// An assembler for result segments in `codec`'s wire format.
    ///
    /// # Panics
    ///
    /// Panics if `grad_len` is zero.
    pub fn with_codec(grad_len: usize, store_values: bool, codec: CodecKind) -> Self {
        assert!(grad_len > 0, "gradient length must be positive");
        let n = codec.num_segments(grad_len);
        RoundAssembler {
            grad_len,
            codec,
            round: None,
            values: store_values
                .then(|| GradientAssembler::with_seg_elems(grad_len, codec.elems_per_segment())),
            store_values,
            received: vec![false; n],
            low_water: 0,
            pending: n,
            done: false,
        }
    }

    /// Resets for a new round. `round` of `None` accepts any round tag.
    pub fn begin_round(&mut self, round: Option<u32>) {
        self.round = round;
        self.received.fill(false);
        self.low_water = 0;
        self.pending = self.received.len();
        self.done = false;
        if self.store_values {
            self.values = Some(GradientAssembler::with_seg_elems(
                self.grad_len,
                self.codec.elems_per_segment(),
            ));
        }
    }

    /// Whether the current round has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Segments received so far this round.
    pub fn received_count(&self) -> usize {
        self.received.len() - self.pending
    }

    /// Spatial indices in `[from, below)` not yet received this round,
    /// ascending. The scan starts no lower than the low-water cursor, so
    /// its cost is bounded by the part of the range above the received
    /// prefix: an in-order round asks about an empty range every time.
    pub fn missing_in(&self, from: u64, below: u64) -> impl Iterator<Item = u64> + '_ {
        missing_in(&self.received, from.max(u64::from(self.low_water)), below)
    }

    /// Feeds one received result segment from its encoded wire payload,
    /// parsed under the assembler's codec — the single decode path for
    /// broadcast results, owned by the same codec as the accelerator's
    /// accumulate, so the two cannot drift.
    ///
    /// Bookkeeping-only assemblers (timing mode) stop at the header and
    /// never materialize the value vector — the hot path for results
    /// fanned out to every worker. Malformed payloads report
    /// [`RoundInsert::Stale`].
    pub fn insert_wire(&mut self, payload: &[u8]) -> RoundInsert {
        let codec = self.codec.codec();
        let Ok(meta) = codec.decode_meta(payload) else {
            return RoundInsert::Stale;
        };
        if self
            .round
            .is_some_and(|round| seg_round(meta.seg) != round & 0xFFFF)
        {
            return RoundInsert::Stale;
        }
        let idx = seg_index(meta.seg) as usize;
        if idx >= self.received.len() {
            return RoundInsert::Stale;
        }
        if self.done || self.received[idx] {
            return RoundInsert::Duplicate;
        }
        if let Some(asm) = self.values.as_mut() {
            // Co-simulation keeps the aggregate values: full decode, once,
            // after the stale and duplicate filters above.
            let installed = codec
                .decode_values(payload)
                .and_then(|seg| asm.insert(&seg));
            if installed.is_err() {
                return RoundInsert::Stale;
            }
        }
        self.received[idx] = true;
        while self.received.get(self.low_water as usize) == Some(&true) {
            self.low_water += 1;
        }
        self.pending -= 1;
        self.done = self.pending == 0;
        if self.done {
            RoundInsert::Completed
        } else {
            RoundInsert::Accepted
        }
    }

    /// Takes the count-weighted mean of the completed round, when values
    /// were stored. Returns `None` for bookkeeping-only assemblers or
    /// incomplete rounds.
    pub fn take_mean(&mut self) -> Option<Vec<f32>> {
        if !self.done {
            return None;
        }
        self.values.take().map(GradientAssembler::into_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_encode_decode_round_trips() {
        let seg = DataSegment {
            seg: 12345,
            count: 4,
            values: vec![1.5, -2.25, 0.0, f32::MIN],
        };
        let decoded = DataSegment::decode(&seg.encode()).expect("decodes");
        assert_eq!(decoded, seg);
    }

    #[test]
    fn full_segment_fits_mtu() {
        let seg = DataSegment {
            seg: 0,
            count: 1,
            values: vec![0.0; FLOATS_PER_SEGMENT],
        };
        assert!(seg.encode().len() <= MAX_UDP_PAYLOAD);
        assert_eq!(FLOATS_PER_SEGMENT, 366);
    }

    #[test]
    fn segmentation_then_assembly_is_identity() {
        let grad: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5 - 100.0).collect();
        let segs = segment_gradient(&grad);
        assert_eq!(segs.len(), num_segments(grad.len()));
        let mut asm = GradientAssembler::new(grad.len());
        for (i, s) in segs.iter().enumerate() {
            let complete = asm.insert(s).expect("valid");
            assert_eq!(complete, i + 1 == segs.len());
        }
        // count = 1 everywhere, so the mean is the original vector.
        assert_eq!(asm.into_mean(), grad);
    }

    #[test]
    fn assembler_tracks_missing_and_duplicates() {
        let grad = vec![1.0f32; FLOATS_PER_SEGMENT * 2 + 10];
        let segs = segment_gradient(&grad);
        let mut asm = GradientAssembler::new(grad.len());
        asm.insert(&segs[2]).unwrap();
        assert_eq!(asm.missing_in(0, u64::MAX).collect::<Vec<_>>(), [0, 1]);
        asm.insert(&segs[2]).unwrap(); // duplicate is fine
        assert_eq!(asm.missing_in(0, u64::MAX).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(asm.missing_in(1, 2).collect::<Vec<_>>(), [1]);
        asm.insert(&segs[0]).unwrap();
        asm.insert(&segs[1]).unwrap();
        assert!(asm.is_complete());
    }

    #[test]
    fn mean_divides_by_per_segment_count() {
        let grad = vec![8.0f32; 10];
        let mut segs = segment_gradient(&grad);
        segs[0].count = 4; // pretend the switch summed 4 workers
        let mut asm = GradientAssembler::new(grad.len());
        asm.insert(&segs[0]).unwrap();
        assert_eq!(asm.into_mean(), vec![2.0f32; 10]);
    }

    #[test]
    fn wrong_length_or_index_rejected() {
        let mut asm = GradientAssembler::new(100);
        let bad_idx = DataSegment {
            seg: 5,
            count: 1,
            values: vec![0.0; 100],
        };
        assert_eq!(
            asm.insert(&bad_idx),
            Err(ProtocolError::InvalidField("seg"))
        );
        let bad_len = DataSegment {
            seg: 0,
            count: 1,
            values: vec![0.0; 99],
        };
        assert_eq!(
            asm.insert(&bad_len),
            Err(ProtocolError::InvalidField("payload length"))
        );
    }

    #[test]
    fn truncated_or_misaligned_payload_rejected() {
        assert!(matches!(
            DataSegment::decode(&[0, 1, 2]),
            Err(ProtocolError::Truncated { .. })
        ));
        let mut payload = DataSegment {
            seg: 0,
            count: 1,
            values: vec![1.0],
        }
        .encode()
        .to_vec();
        payload.push(0xFF);
        assert_eq!(
            DataSegment::decode(&payload),
            Err(ProtocolError::MisalignedPayload(5))
        );
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn into_mean_requires_completeness() {
        let _ = GradientAssembler::new(10).into_mean();
    }

    #[test]
    fn round_tags_round_trip() {
        let tagged = tag_round(4_590, 65_535);
        assert_eq!(seg_index(tagged), 4_590);
        assert_eq!(seg_round(tagged), 65_535);
        // Round 0 is the identity: legacy single-round flows unchanged.
        assert_eq!(tag_round(7, 0), 7);
        // Rounds wrap modulo 2^16.
        assert_eq!(seg_round(tag_round(0, 65_536 + 3)), 3);
    }

    #[test]
    fn assembler_accepts_tagged_segments() {
        let grad = vec![2.0f32; 100];
        let segs = segment_gradient_round(&grad, 9);
        let mut asm = GradientAssembler::new(grad.len());
        for s in &segs {
            asm.insert(s).unwrap();
        }
        assert_eq!(asm.into_mean(), grad);
    }

    #[test]
    fn round_assembler_filters_stale_rounds_and_duplicates() {
        let len = FLOATS_PER_SEGMENT * 2 + 10;
        let grad = vec![1.0f32; len];
        let mut asm = RoundAssembler::new(len, false);
        asm.begin_round(Some(5));

        // A segment from round 4 is stale.
        let stale = &segment_gradient_round(&grad, 4)[0];
        assert_eq!(asm.insert_wire(&stale.encode()), RoundInsert::Stale);
        assert_eq!(asm.received_count(), 0);

        let segs = segment_gradient_round(&grad, 5);
        assert_eq!(asm.insert_wire(&segs[0].encode()), RoundInsert::Accepted);
        assert_eq!(asm.insert_wire(&segs[0].encode()), RoundInsert::Duplicate);
        assert_eq!(asm.missing_in(0, u64::MAX).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(asm.insert_wire(&segs[1].encode()), RoundInsert::Accepted);
        assert_eq!(asm.insert_wire(&segs[2].encode()), RoundInsert::Completed);
        assert!(asm.is_done());
        // Everything after completion is a duplicate until the next round.
        assert_eq!(asm.insert_wire(&segs[1].encode()), RoundInsert::Duplicate);
        // Bookkeeping-only assembler has no values to return.
        assert_eq!(asm.take_mean(), None);

        asm.begin_round(Some(6));
        assert!(!asm.is_done());
        assert_eq!(asm.received_count(), 0);
    }

    proptest::proptest! {
        /// The ranged query against a plain flag vector, after every step
        /// of an arbitrary history: in-order runs that drag the low-water
        /// cursor along, holes, duplicates, stale-round and out-of-range
        /// segments, and round resets. The cursor may never hide a hole.
        #[test]
        fn ranged_missing_query_matches_a_flag_vector_model(
            n in 1usize..40,
            store_values in proptest::any::<bool>(),
            ops in proptest::prop::collection::vec(proptest::any::<u64>(), 1..160),
        ) {
            let len = FLOATS_PER_SEGMENT * (n - 1) + 1; // short last segment
            let mut asm = RoundAssembler::new(len, store_values);
            let mut round = 65_535u32;
            asm.begin_round(Some(round));
            let mut model = vec![false; n];
            let mut next = 0u64; // where an in-order stream would be
            for op in ops {
                let pick = (op >> 8) % (n as u64 + 2);
                let (idx, tag) = match op % 8 {
                    0 => {
                        round += 1;
                        asm.begin_round(Some(round));
                        model.fill(false);
                        next = 0;
                        continue;
                    }
                    1 => (pick, round),     // anywhere, possibly past the end
                    2 => (pick, round - 1), // stale round
                    3 => {
                        next += 1; // lost in order: leaves a hole behind
                        continue;
                    }
                    _ => {
                        next += 1;
                        ((next - 1) % n as u64, round)
                    }
                };
                let elems = (len - (idx as usize).min(n - 1) * FLOATS_PER_SEGMENT)
                    .min(FLOATS_PER_SEGMENT);
                let seg = DataSegment {
                    seg: tag_round(idx, tag),
                    count: 1,
                    values: vec![0.5; elems],
                };
                let fresh = tag == round && (idx as usize) < n && !model[idx as usize];
                let outcome = asm.insert_wire(&seg.encode());
                assert_eq!(
                    matches!(outcome, RoundInsert::Accepted | RoundInsert::Completed),
                    fresh
                );
                if fresh {
                    model[idx as usize] = true;
                }
                let (from, below) = ((op >> 16) % (n as u64 + 3), (op >> 24) % (n as u64 + 3));
                for (from, below) in [(0, u64::MAX), (from, below), (from, u64::MAX)] {
                    let expect: Vec<u64> = (from..below.min(n as u64))
                        .filter(|&i| !model[i as usize])
                        .collect();
                    let got: Vec<u64> = asm.missing_in(from, below).collect();
                    assert_eq!(got, expect, "[{from}, {below})");
                }
                assert_eq!(asm.received_count(), model.iter().filter(|&&r| r).count());
            }
        }
    }

    #[test]
    fn round_assembler_recovers_count_weighted_mean() {
        let len = FLOATS_PER_SEGMENT + 3;
        let summed = vec![6.0f32; len];
        let mut asm = RoundAssembler::new(len, true);
        asm.begin_round(Some(0));
        for mut seg in segment_gradient_round(&summed, 0) {
            seg.count = 3; // aggregated over three workers
            asm.insert_wire(&seg.encode());
        }
        let mean = asm.take_mean().expect("complete with values");
        assert!(mean.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        // The mean is consumed; a new round stores fresh values.
        assert_eq!(asm.take_mean(), None);
    }

    #[test]
    fn round_assembler_any_round_mode_accepts_mixed_tags() {
        let len = FLOATS_PER_SEGMENT + 1;
        let grad = vec![1.0f32; len];
        let mut asm = RoundAssembler::new(len, false);
        asm.begin_round(None);
        let r0 = segment_gradient_round(&grad, 0);
        let r7 = segment_gradient_round(&grad, 7);
        assert_eq!(asm.insert_wire(&r0[0].encode()), RoundInsert::Accepted);
        assert_eq!(asm.insert_wire(&r7[1].encode()), RoundInsert::Completed);
    }
}
