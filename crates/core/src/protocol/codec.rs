//! Pluggable aggregation codecs for the wire-aggregation path.
//!
//! The paper's accelerator sums raw big-endian f32 payloads ("all gradient
//! data are transmitted and computed in a raw float-point format", §3.2).
//! The real in-switch design space is wider: SwitchML aggregates in an
//! integer pipeline with per-packet scaling, and the flexible-switch line
//! treats the datapath format as a per-job knob. An [`AggregationCodec`]
//! captures that knob: it owns the payload layout of worker contributions
//! and switch results, the switch-side accumulator representation
//! ([`WireAcc`]), and the precision contract relating a decoded aggregate
//! to the exact f32 sum.
//!
//! # Wire layout
//!
//! [`CodecKind::F32`] is byte-identical to the legacy format — an 8-byte
//! `Seg` header followed by raw big-endian f32 data, no extra framing —
//! so f32 jobs replay bit-for-bit against pre-codec builds. Every other
//! codec inserts a fixed 4-byte sub-header after the `Seg` header:
//!
//! ```text
//! [0..8]  Seg header: (seg << 16) | contributor count   (big-endian)
//! [8]     codec id (1 = fixed-point, 2 = block-float, 3 = top-k)
//! [9]     flags     (bit0 = WIDE result format, bit1 = SPARSE entries)
//! [10..12] codec parameter (fixed-point: scaling exponent as i8;
//!          block-float / top-k: dense element count, big-endian u16)
//! [12..]  codec body
//! ```
//!
//! Contributions use each codec's *narrow* encoding; switch results use
//! the *wide* encoding (flag bit 0) so an aggregate of up to 2^16
//! contributions re-encodes without overflow. Both encodings of a full
//! segment must fit [`MAX_UDP_PAYLOAD`]; each codec's
//! [`elems_per_segment`](AggregationCodec::elems_per_segment) is chosen so
//! the larger of the two does.
//!
//! # Determinism
//!
//! Every codec is a pure function of its inputs: exponent selection uses
//! bounded search loops (no `log2`), top-k selection breaks magnitude ties
//! by ascending index, and integer accumulation is associative under the
//! engine's deterministic packet order. The f32 accumulators (`F32`,
//! `TopK`) add in arrival order, which the engine replays identically for
//! any `--threads`, so sharded artifacts stay byte-identical per codec.

use std::fmt;
use std::str::FromStr;

use bytes::Bytes;
use iswitch_netsim::MAX_UDP_PAYLOAD;

use crate::error::ProtocolError;
use crate::protocol::data::{
    seg_header, split_seg_header, DataSegment, SegmentMeta, FLOATS_PER_SEGMENT, SEG_HEADER_BYTES,
};

/// Bytes of the codec sub-header following the `Seg` header (non-f32 only).
pub const CODEC_HEADER_BYTES: usize = 4;

/// Body offset of a non-f32 codec payload.
const BODY: usize = SEG_HEADER_BYTES + CODEC_HEADER_BYTES;

/// Flag bit 0: the payload carries the codec's wide (result) encoding.
const FLAG_WIDE: u8 = 1;
/// Flag bit 1: the payload carries sparse (index, value) entries.
const FLAG_SPARSE: u8 = 2;

/// i16 elements per fixed-point segment: capped by the *wide* (i32)
/// result encoding, 12 + 4·365 = 1,472 bytes.
pub const FIXED_ELEMS_PER_SEGMENT: usize = (MAX_UDP_PAYLOAD - BODY) / 4;

/// Elements per block-float block (one shared exponent per block).
pub const BLOCK_ELEMS: usize = 32;

/// Elements per block-float segment: capped by the wide encoding,
/// blocks · (1 + 2·32) ≤ 1,460 ⇒ 22 blocks ⇒ 704 elements.
pub const BLOCKFLOAT_ELEMS_PER_SEGMENT: usize =
    ((MAX_UDP_PAYLOAD - BODY) / (1 + 2 * BLOCK_ELEMS)) * BLOCK_ELEMS;

/// Elements per top-k segment: capped by the dense-fallback f32 encoding.
pub const TOPK_ELEMS_PER_SEGMENT: usize = (MAX_UDP_PAYLOAD - BODY) / 4;

/// Top-k keeps the `1/TOPK_DIVISOR` largest-magnitude elements per segment.
pub const TOPK_DIVISOR: usize = 4;

/// Largest fixed-point contribution mantissa (symmetric i16 range).
const FIXED_Q_MAX: i32 = i16::MAX as i32;
/// Largest fixed-point result mantissa (headroom below i32 saturation).
const FIXED_WIDE_Q_MAX: i64 = 1 << 30;
/// Largest block-float contribution mantissa (symmetric i8 range).
const BLOCK_Q_MAX: i32 = i8::MAX as i32;
/// Largest block-float result mantissa (symmetric i16 range).
const BLOCK_WIDE_Q_MAX: i64 = i16::MAX as i64;
/// Scaling exponents on the wire lie in `[EXP_MIN, EXP_MAX]`. The floor is
/// the smallest normal f32 exponent. The ceiling is the largest exponent at
/// which a saturated accumulator still decodes finite: `i32::MAX as f32 ·
/// 2^96 = 2^127 < f32::MAX`, one more overflows. Encoders search no higher
/// (a magnitude past `q_max · 2^96`, ≳ 1e31, clips to the mantissa range);
/// decoders refuse anything outside ([`wire_exp`]), because the exponent is
/// the one field of an integer payload that can make the switch emit `inf`.
const EXP_MIN: i32 = -126;
const EXP_MAX: i32 = 96;
/// Block-float exponent bias: stored byte `e` means true exponent
/// `e - 127`; the sentinel 0 marks an all-zero block.
const BLOCK_EXP_BIAS: i32 = 127;

/// The format a job aggregates in — the per-job datapath knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Raw big-endian f32, the paper's format. Bit-identical to the
    /// pre-codec wire layout and accumulation order.
    #[default]
    F32,
    /// SwitchML-style integer aggregation: i16 mantissas scaled by a
    /// per-packet power-of-two exponent, accumulated in saturating i32.
    FixedPoint,
    /// Block floating point: one shared exponent per [`BLOCK_ELEMS`]-element
    /// block, i8 mantissas, accumulated in i32 at the block's running
    /// maximum exponent.
    BlockFloat,
    /// Magnitude sparsification: the top `1/TOPK_DIVISOR` of each segment
    /// as (index, f32) pairs, with a dense fallback when the selection
    /// density makes sparse encoding larger than dense.
    TopK,
}

impl CodecKind {
    /// Every codec, in CLI/report order.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::F32,
        CodecKind::FixedPoint,
        CodecKind::BlockFloat,
        CodecKind::TopK,
    ];

    /// The CLI/report label (`--codec` spelling).
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::F32 => "f32",
            CodecKind::FixedPoint => "fixed-point",
            CodecKind::BlockFloat => "block-float",
            CodecKind::TopK => "top-k",
        }
    }

    /// The codec's format logic.
    pub fn codec(self) -> &'static dyn AggregationCodec {
        match self {
            CodecKind::F32 => &F32Codec,
            CodecKind::FixedPoint => &FixedPointCodec,
            CodecKind::BlockFloat => &BlockFloatCodec,
            CodecKind::TopK => &TopKCodec,
        }
    }

    /// Elements carried per full segment under this codec.
    pub fn elems_per_segment(self) -> usize {
        self.codec().elems_per_segment()
    }

    /// Segments needed for a gradient vector of `len` elements.
    pub fn num_segments(self, len: usize) -> usize {
        len.div_ceil(self.elems_per_segment())
    }

    /// BRAM bytes a `len`-element accumulator will occupy (equals
    /// [`WireAcc::resident_bytes`] of [`AggregationCodec::new_acc`], without
    /// allocating one) — what the accelerator's admission check charges
    /// before opening a round.
    pub fn acc_bytes(self, len: usize) -> usize {
        match self {
            CodecKind::BlockFloat => len * 4 + len.div_ceil(BLOCK_ELEMS),
            _ => len * 4,
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(CodecKind::F32),
            "fixed-point" | "fixed" => Ok(CodecKind::FixedPoint),
            "block-float" | "block" => Ok(CodecKind::BlockFloat),
            "top-k" | "topk" => Ok(CodecKind::TopK),
            other => Err(format!(
                "unknown codec `{other}` (expected `f32`, `fixed-point`, `block-float`, or `top-k`)"
            )),
        }
    }
}

/// Switch-side accumulation state for one open segment round, in the
/// owning codec's native representation. Lives in the accelerator's BRAM
/// slot pool; [`WireAcc::resident_bytes`] is what the BRAM budget charges.
#[derive(Debug, Clone)]
pub enum WireAcc {
    /// f32 partial sums (the paper's adders).
    F32(Vec<f32>),
    /// Saturating i32 mantissa sums at the running maximum exponent.
    Fixed {
        /// Per-element mantissa accumulators.
        acc: Vec<i32>,
        /// Scaling exponent the accumulators are expressed in.
        exp: i8,
        /// Whether any contribution has arrived (the first arrival adopts
        /// its exponent rather than aligning to the initial placeholder).
        seeded: bool,
    },
    /// Per-block i32 mantissa sums at per-block running exponents.
    Block {
        /// Per-element mantissa accumulators.
        acc: Vec<i32>,
        /// Per-block biased exponents (0 = no non-zero contribution yet).
        exps: Vec<u8>,
    },
    /// Dense f32 sums fed by sparse or dense top-k contributions.
    TopK(Vec<f32>),
}

impl WireAcc {
    /// Element count of the segment this accumulator serves.
    pub fn len(&self) -> usize {
        match self {
            WireAcc::F32(v) | WireAcc::TopK(v) => v.len(),
            WireAcc::Fixed { acc, .. } | WireAcc::Block { acc, .. } => acc.len(),
        }
    }

    /// Whether the accumulator covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// BRAM bytes this accumulator occupies (f32 and i32 buffers both cost
    /// 4 bytes per element; block-float adds one exponent byte per block).
    pub fn resident_bytes(&self) -> usize {
        match self {
            WireAcc::F32(v) | WireAcc::TopK(v) => v.len() * 4,
            WireAcc::Fixed { acc, .. } => acc.len() * 4,
            WireAcc::Block { acc, exps } => acc.len() * 4 + exps.len(),
        }
    }

    /// Resets in place for reuse at `len` elements (slot recycling).
    pub fn reset(&mut self, len: usize) {
        match self {
            WireAcc::F32(v) | WireAcc::TopK(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
            WireAcc::Fixed { acc, exp, seeded } => {
                acc.clear();
                acc.resize(len, 0);
                *exp = 0;
                *seeded = false;
            }
            WireAcc::Block { acc, exps } => {
                acc.clear();
                acc.resize(len, 0);
                exps.clear();
                exps.resize(len.div_ceil(BLOCK_ELEMS), 0);
            }
        }
    }
}

/// Numeric side effects of one [`AggregationCodec::accumulate`] call —
/// the quantization-pressure signals the accelerator folds into
/// [`crate::AcceleratorStats`] and the `core.switch.NNN.codec_*`
/// telemetry tracks. Lossless codecs (f32, top-k) always report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccEffects {
    /// Elements whose saturating add clamped at ±`i32::MAX` — the
    /// aggregate silently lost magnitude (SwitchML's overflow hazard).
    pub saturations: u64,
    /// Accumulator (or per-block) exponent rebases: a contribution
    /// arrived at a coarser scale and every existing partial sum was
    /// shifted down, discarding low-order bits.
    pub rebases: u64,
}

impl AccEffects {
    /// Folds another accumulate's effects into this one.
    pub fn merge(&mut self, other: AccEffects) {
        self.saturations += other.saturations;
        self.rebases += other.rebases;
    }
}

/// One aggregation format: payload layout, switch-side accumulation, and
/// the precision contract. Implementations are stateless singletons
/// reached through [`CodecKind::codec`].
pub trait AggregationCodec: Sync {
    /// Which [`CodecKind`] this is.
    fn kind(&self) -> CodecKind;

    /// Elements per full segment (both the narrow contribution and the
    /// wide result encoding of a full segment fit [`MAX_UDP_PAYLOAD`]).
    fn elems_per_segment(&self) -> usize;

    /// Payload bytes of a `len`-element worker contribution, headers
    /// included. For [`CodecKind::TopK`] this is the sparse encoding's
    /// worst case (full selection).
    fn contribution_bytes(&self, len: usize) -> usize;

    /// Encodes a worker contribution (`count` = 1 on the wire).
    ///
    /// # Errors
    ///
    /// Rejects non-finite values with [`ProtocolError::InvalidField`]:
    /// quantized formats have no NaN/Inf representation, and letting one
    /// through would silently poison an integer aggregate.
    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError>;

    /// Encodes a completed aggregate in the codec's wide result format.
    /// For f32 this is exactly [`DataSegment::encode`].
    fn encode_result(&self, seg: &DataSegment) -> Bytes;

    /// Parses header and element count without materializing values.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for truncated, misaligned, or
    /// wrong-codec payloads.
    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError>;

    /// Fully decodes a payload (contribution or result) to f32 values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AggregationCodec::decode_meta`].
    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError>;

    /// A fresh switch-side accumulator for a `len`-element segment.
    fn new_acc(&self, len: usize) -> WireAcc;

    /// Accumulates one payload (narrow or wide) into `acc` in the codec's
    /// native representation — the single wire-accumulate path shared by
    /// the accelerator and (via [`AggregationCodec::decode_values`]) the
    /// worker-side assemblers, so the two cannot drift. Returns the
    /// numeric side effects of this accumulate (saturating clamps,
    /// exponent rebases) so the accelerator can surface quantization
    /// pressure in its stats and telemetry tracks.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for malformed payloads or an element
    /// count that does not match `acc`.
    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError>;

    /// Decodes the accumulator back to f32 sums (what the switch emits).
    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32>;

    /// Worst-case absolute error of one decoded aggregate element versus
    /// the exact f32 sum, for `workers` contributions whose magnitudes are
    /// bounded by `max_abs`. Zero for lossless codecs. Top-k bounds only
    /// the *kept* elements (sparsification error is the point of the
    /// codec, not a defect of the wire format).
    fn error_bound(&self, max_abs: f32, workers: usize) -> f32;
}

/// Adds big-endian f32 wire data into `acc` element-wise, in element
/// order, without first materializing a decoded `Vec<f32>`. This is *the*
/// big-endian f32 accumulate — the accelerator and the assemblers both
/// reach it through the codec.
fn accumulate_f32_be(acc: &mut [f32], bytes: &[u8]) {
    debug_assert_eq!(acc.len() * 4, bytes.len());
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
        *a += f32::from_be_bytes(c.try_into().expect("4 bytes"));
    }
}

/// 2^e as f32, for exponents in the normal range.
fn exp2(e: i32) -> f32 {
    f32::from_bits((((e + 127) as u32) & 0xFF) << 23)
}

/// Smallest exponent `e` in `[EXP_MIN, EXP_MAX]` with `m / 2^e <= q_max`
/// (`EXP_MAX` if there is none). A bounded upward search — no `log2`, so
/// the result is a deterministic pure function of the bits of `m`.
fn scaling_exp(m: f32, q_max: f32) -> i32 {
    debug_assert!(m.is_finite() && m >= 0.0);
    let mut e = EXP_MIN;
    while e < EXP_MAX && m / exp2(e) > q_max {
        e += 1;
    }
    e
}

/// Admits a scaling exponent read off the wire (see [`EXP_MAX`]).
fn wire_exp(e: i32) -> Result<i32, ProtocolError> {
    if (EXP_MIN..=EXP_MAX).contains(&e) {
        Ok(e)
    } else {
        Err(ProtocolError::InvalidField("scaling exponent"))
    }
}

/// Checks every element is finite (quantized codecs reject NaN/Inf).
fn check_finite(values: &[f32]) -> Result<(), ProtocolError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(ProtocolError::InvalidField("non-finite gradient value"))
    }
}

/// Largest finite magnitude in `values` (0.0 when empty).
fn max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// Writes the 8-byte `Seg` header and the 4-byte codec sub-header.
fn codec_header(buf: &mut [u8], seg: u64, count: u16, id: u8, flags: u8, param: u16) {
    buf[..SEG_HEADER_BYTES].copy_from_slice(&seg_header(seg, count));
    buf[8] = id;
    buf[9] = flags;
    buf[10..12].copy_from_slice(&param.to_be_bytes());
}

/// Parsed codec sub-header plus the raw body.
struct CodecPayload<'a> {
    seg: u64,
    count: u16,
    flags: u8,
    param: u16,
    body: &'a [u8],
}

/// Splits a non-f32 payload into headers and body, checking the codec id.
fn parse_codec_payload(id: u8, payload: &[u8]) -> Result<CodecPayload<'_>, ProtocolError> {
    let (seg, count, rest) = split_seg_header(payload)?;
    let Some((&[codec_id, flags, p0, p1], body)) = rest.split_first_chunk() else {
        return Err(ProtocolError::Truncated {
            needed: BODY,
            got: payload.len(),
        });
    };
    if codec_id != id {
        return Err(ProtocolError::InvalidField("codec id"));
    }
    Ok(CodecPayload {
        seg,
        count,
        flags,
        param: u16::from_be_bytes([p0, p1]),
        body,
    })
}

/// Saturating add of `v` into `a`, symmetric around zero. Bumps
/// `saturations` when the clamp fires (the hardware's overflow flag).
fn sat_add(a: i32, v: i64, saturations: &mut u64) -> i32 {
    let sum = i64::from(a) + v;
    let clamped = sum.clamp(-(i32::MAX as i64), i32::MAX as i64);
    *saturations += u64::from(sum != clamped);
    clamped as i32
}

/// `m · 2^shift` with arithmetic shifting and i64 headroom; `shift` is the
/// source exponent minus the accumulator exponent.
fn align(m: i64, shift: i32) -> i64 {
    if shift >= 0 {
        m.checked_shl(shift.min(62) as u32).unwrap_or(i64::MAX)
    } else {
        m >> (-shift).min(63)
    }
}

/// Rescales an accumulator in place when a contribution arrives at a
/// larger exponent: every partial sum shifts down to the new scale.
fn rescale_acc(acc: &mut [i32], down_by: i32) {
    debug_assert!(down_by > 0);
    let s = down_by.min(31);
    for a in acc.iter_mut() {
        *a >>= s;
    }
}

// ---------------------------------------------------------------------------
// F32 — the paper's raw float format, bit-identical to the legacy wire.
// ---------------------------------------------------------------------------

/// Raw big-endian f32 (legacy layout; no sub-header).
pub struct F32Codec;

impl AggregationCodec for F32Codec {
    fn kind(&self) -> CodecKind {
        CodecKind::F32
    }

    fn elems_per_segment(&self) -> usize {
        FLOATS_PER_SEGMENT
    }

    fn contribution_bytes(&self, len: usize) -> usize {
        SEG_HEADER_BYTES + len * 4
    }

    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError> {
        Ok(crate::protocol::data::encode_segment(seg, 1, values))
    }

    fn encode_result(&self, seg: &DataSegment) -> Bytes {
        seg.encode()
    }

    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        DataSegment::decode_meta(payload)
    }

    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError> {
        DataSegment::decode(payload)
    }

    fn new_acc(&self, len: usize) -> WireAcc {
        WireAcc::F32(vec![0.0; len])
    }

    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
        let WireAcc::F32(sums) = acc else {
            return Err(ProtocolError::InvalidField("accumulator codec"));
        };
        let meta = DataSegment::decode_meta(payload)?;
        if meta.len != sums.len() {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        accumulate_f32_be(sums, &payload[SEG_HEADER_BYTES..]);
        Ok(AccEffects::default())
    }

    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32> {
        match acc {
            WireAcc::F32(sums) => sums.clone(),
            _ => unreachable!("f32 accumulator"),
        }
    }

    fn error_bound(&self, _max_abs: f32, _workers: usize) -> f32 {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Fixed-point — SwitchML-style i16 mantissas with a per-packet exponent.
// ---------------------------------------------------------------------------

/// i16 mantissas scaled by a per-packet power-of-two exponent, accumulated
/// in saturating i32 at the running maximum exponent; results re-encode as
/// i32 mantissas (wide).
pub struct FixedPointCodec;

const FIXED_ID: u8 = 1;

impl FixedPointCodec {
    /// Encodes a contribution whose *stamped* exponent is offset from the
    /// scaling exponent by `stamp_bias` — zero for correct operation. A
    /// non-zero bias is the chaos harness's seeded codec bug: the switch
    /// honors the stamp, so every biased contribution lands scaled by
    /// `2^stamp_bias`, silently corrupting aggregates without tripping any
    /// wire-format check.
    pub fn encode_contribution_biased(
        &self,
        seg: u64,
        values: &[f32],
        stamp_bias: i8,
    ) -> Result<Bytes, ProtocolError> {
        check_finite(values)?;
        let e = scaling_exp(max_abs(values), FIXED_Q_MAX as f32);
        let stamped = (e + i32::from(stamp_bias)).clamp(EXP_MIN, EXP_MAX) as i8;
        let mut buf = vec![0u8; BODY + values.len() * 2];
        codec_header(
            &mut buf,
            seg,
            1,
            FIXED_ID,
            0,
            u16::from_be_bytes([stamped as u8, 0]),
        );
        let scale = exp2(e);
        for (dst, v) in buf[BODY..].chunks_exact_mut(2).zip(values) {
            let q = (v / scale)
                .round()
                .clamp(-(FIXED_Q_MAX as f32), FIXED_Q_MAX as f32) as i16;
            dst.copy_from_slice(&q.to_be_bytes());
        }
        Ok(Bytes::from(buf))
    }
}

impl AggregationCodec for FixedPointCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::FixedPoint
    }

    fn elems_per_segment(&self) -> usize {
        FIXED_ELEMS_PER_SEGMENT
    }

    fn contribution_bytes(&self, len: usize) -> usize {
        BODY + len * 2
    }

    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError> {
        self.encode_contribution_biased(seg, values, 0)
    }

    fn encode_result(&self, seg: &DataSegment) -> Bytes {
        // Results carry i32 mantissas with headroom below saturation, so
        // the f32→wide→f32 round trip costs well under the contribution
        // quantization error.
        let e = scaling_exp(max_abs(&seg.values), FIXED_WIDE_Q_MAX as f32);
        let mut buf = vec![0u8; BODY + seg.values.len() * 4];
        codec_header(
            &mut buf,
            seg.seg,
            seg.count,
            FIXED_ID,
            FLAG_WIDE,
            u16::from_be_bytes([(e as i8) as u8, 0]),
        );
        let scale = exp2(e);
        for (dst, v) in buf[BODY..].chunks_exact_mut(4).zip(&seg.values) {
            let q = f64::from(v / scale).round() as i64;
            let q = q.clamp(-FIXED_WIDE_Q_MAX, FIXED_WIDE_Q_MAX) as i32;
            dst.copy_from_slice(&q.to_be_bytes());
        }
        Bytes::from(buf)
    }

    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        let p = parse_codec_payload(FIXED_ID, payload)?;
        let unit = if p.flags & FLAG_WIDE != 0 { 4 } else { 2 };
        if !p.body.len().is_multiple_of(unit) {
            return Err(ProtocolError::MisalignedPayload(p.body.len()));
        }
        Ok(SegmentMeta {
            seg: p.seg,
            count: p.count,
            len: p.body.len() / unit,
        })
    }

    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError> {
        let p = parse_codec_payload(FIXED_ID, payload)?;
        let scale = exp2(wire_exp(i32::from((p.param >> 8) as u8 as i8))?);
        let (unit, values): (usize, Vec<f32>) = if p.flags & FLAG_WIDE != 0 {
            (
                4,
                p.body
                    .chunks_exact(4)
                    .map(|c| i32::from_be_bytes(c.try_into().expect("4 bytes")) as f32 * scale)
                    .collect(),
            )
        } else {
            (
                2,
                p.body
                    .chunks_exact(2)
                    .map(|c| f32::from(i16::from_be_bytes(c.try_into().expect("2 bytes"))) * scale)
                    .collect(),
            )
        };
        if !p.body.len().is_multiple_of(unit) {
            return Err(ProtocolError::MisalignedPayload(p.body.len()));
        }
        Ok(DataSegment {
            seg: p.seg,
            count: p.count,
            values,
        })
    }

    fn new_acc(&self, len: usize) -> WireAcc {
        WireAcc::Fixed {
            acc: vec![0; len],
            exp: 0,
            seeded: false,
        }
    }

    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
        let WireAcc::Fixed { acc, exp, seeded } = acc else {
            return Err(ProtocolError::InvalidField("accumulator codec"));
        };
        let p = parse_codec_payload(FIXED_ID, payload)?;
        let wide = p.flags & FLAG_WIDE != 0;
        let unit = if wide { 4 } else { 2 };
        if p.body.len() != acc.len() * unit {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        let mut fx = AccEffects::default();
        let e_in = wire_exp(i32::from((p.param >> 8) as u8 as i8))?;
        if !*seeded {
            *exp = e_in as i8;
            *seeded = true;
        } else if e_in > i32::from(*exp) {
            // The switch keeps the largest exponent seen: shift existing
            // partial sums down to the coarser scale (SwitchML's exponent
            // alignment), then add at unit gain.
            rescale_acc(acc, e_in - i32::from(*exp));
            *exp = e_in as i8;
            fx.rebases += 1;
        }
        let shift = e_in - i32::from(*exp);
        if wide {
            for (a, c) in acc.iter_mut().zip(p.body.chunks_exact(4)) {
                let m = i64::from(i32::from_be_bytes(c.try_into().expect("4 bytes")));
                *a = sat_add(*a, align(m, shift), &mut fx.saturations);
            }
        } else {
            for (a, c) in acc.iter_mut().zip(p.body.chunks_exact(2)) {
                let m = i64::from(i16::from_be_bytes(c.try_into().expect("2 bytes")));
                *a = sat_add(*a, align(m, shift), &mut fx.saturations);
            }
        }
        Ok(fx)
    }

    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32> {
        match acc {
            WireAcc::Fixed { acc, exp, .. } => {
                let scale = exp2(i32::from(*exp));
                acc.iter().map(|&m| m as f32 * scale).collect()
            }
            _ => unreachable!("fixed-point accumulator"),
        }
    }

    fn error_bound(&self, max_abs: f32, workers: usize) -> f32 {
        // Per contribution: rounding ≤ 0.5·2^e plus one alignment-shift ulp,
        // with 2^e < max_abs / 2^14; the wide result re-encode adds under
        // one contribution's worth. Rounded up generously — the bound backs
        // invariant tolerances, not precision claims.
        (workers as f32 + 2.0) * max_abs * exp2(-13)
    }
}

// ---------------------------------------------------------------------------
// Block floating point — one shared exponent per 32-element block.
// ---------------------------------------------------------------------------

/// i8 mantissas sharing one exponent per [`BLOCK_ELEMS`]-element block,
/// accumulated in i32 at each block's running maximum exponent; results
/// re-encode per block as i16 mantissas (wide).
pub struct BlockFloatCodec;

const BLOCK_ID: u8 = 2;

/// Bytes of one `blen`-element block in the narrow/wide encoding.
fn block_bytes(blen: usize, wide: bool) -> usize {
    1 + blen * if wide { 2 } else { 1 }
}

/// Total body bytes for `len` elements.
fn block_body_bytes(len: usize, wide: bool) -> usize {
    let full = len / BLOCK_ELEMS;
    let tail = len % BLOCK_ELEMS;
    full * block_bytes(BLOCK_ELEMS, wide) + if tail > 0 { block_bytes(tail, wide) } else { 0 }
}

/// A block's true exponent from its exponent byte; `None` for the
/// all-zero sentinel.
fn block_exp(e_byte: u8) -> Result<Option<i32>, ProtocolError> {
    match e_byte {
        0 => Ok(None),
        e => wire_exp(i32::from(e) - BLOCK_EXP_BIAS).map(Some),
    }
}

impl AggregationCodec for BlockFloatCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::BlockFloat
    }

    fn elems_per_segment(&self) -> usize {
        BLOCKFLOAT_ELEMS_PER_SEGMENT
    }

    fn contribution_bytes(&self, len: usize) -> usize {
        BODY + block_body_bytes(len, false)
    }

    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError> {
        check_finite(values)?;
        let mut buf = vec![0u8; BODY + block_body_bytes(values.len(), false)];
        codec_header(&mut buf, seg, 1, BLOCK_ID, 0, values.len() as u16);
        let mut at = BODY;
        for block in values.chunks(BLOCK_ELEMS) {
            let m = max_abs(block);
            if m == 0.0 {
                buf[at] = 0; // all-zero sentinel; mantissas stay zero
            } else {
                let t = scaling_exp(m, BLOCK_Q_MAX as f32);
                buf[at] = (t + BLOCK_EXP_BIAS) as u8;
                let scale = exp2(t);
                for (dst, v) in buf[at + 1..].iter_mut().zip(block) {
                    *dst = ((v / scale)
                        .round()
                        .clamp(-(BLOCK_Q_MAX as f32), BLOCK_Q_MAX as f32)
                        as i8) as u8;
                }
            }
            at += block_bytes(block.len(), false);
        }
        Ok(Bytes::from(buf))
    }

    fn encode_result(&self, seg: &DataSegment) -> Bytes {
        let mut buf = vec![0u8; BODY + block_body_bytes(seg.values.len(), true)];
        codec_header(
            &mut buf,
            seg.seg,
            seg.count,
            BLOCK_ID,
            FLAG_WIDE,
            seg.values.len() as u16,
        );
        let mut at = BODY;
        for block in seg.values.chunks(BLOCK_ELEMS) {
            let m = max_abs(block);
            if m == 0.0 {
                buf[at] = 0;
            } else {
                let t = scaling_exp(m, BLOCK_WIDE_Q_MAX as f32);
                buf[at] = (t + BLOCK_EXP_BIAS) as u8;
                let scale = exp2(t);
                for (dst, v) in buf[at + 1..].chunks_exact_mut(2).zip(block) {
                    let q = (v / scale).round() as i64;
                    let q = q.clamp(-BLOCK_WIDE_Q_MAX, BLOCK_WIDE_Q_MAX) as i16;
                    dst.copy_from_slice(&q.to_be_bytes());
                }
            }
            at += block_bytes(block.len(), true);
        }
        Bytes::from(buf)
    }

    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        let p = parse_codec_payload(BLOCK_ID, payload)?;
        let len = usize::from(p.param);
        if p.body.len() != block_body_bytes(len, p.flags & FLAG_WIDE != 0) {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        Ok(SegmentMeta {
            seg: p.seg,
            count: p.count,
            len,
        })
    }

    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError> {
        let meta = self.decode_meta(payload)?;
        let p = parse_codec_payload(BLOCK_ID, payload)?;
        let wide = p.flags & FLAG_WIDE != 0;
        let mut values = Vec::with_capacity(meta.len);
        let mut at = 0;
        let mut remaining = meta.len;
        while remaining > 0 {
            let blen = remaining.min(BLOCK_ELEMS);
            // An all-zero block decodes through a zero scale.
            let scale = block_exp(p.body[at])?.map_or(0.0, exp2);
            if wide {
                for c in p.body[at + 1..at + 1 + blen * 2].chunks_exact(2) {
                    let m = i16::from_be_bytes(c.try_into().expect("2 bytes"));
                    values.push(f32::from(m) * scale);
                }
            } else {
                for &b in &p.body[at + 1..at + 1 + blen] {
                    values.push(f32::from(b as i8) * scale);
                }
            }
            at += block_bytes(blen, wide);
            remaining -= blen;
        }
        Ok(DataSegment {
            seg: p.seg,
            count: p.count,
            values,
        })
    }

    fn new_acc(&self, len: usize) -> WireAcc {
        WireAcc::Block {
            acc: vec![0; len],
            exps: vec![0; len.div_ceil(BLOCK_ELEMS)],
        }
    }

    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
        let WireAcc::Block { acc, exps } = acc else {
            return Err(ProtocolError::InvalidField("accumulator codec"));
        };
        let p = parse_codec_payload(BLOCK_ID, payload)?;
        let wide = p.flags & FLAG_WIDE != 0;
        if usize::from(p.param) != acc.len() || p.body.len() != block_body_bytes(acc.len(), wide) {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        // Reject before touching `acc`: a refused payload must leave the
        // round exactly as it found it. Every block but the last is full,
        // so the exponent bytes sit one full block apart.
        for &e_byte in p.body.iter().step_by(block_bytes(BLOCK_ELEMS, wide)) {
            block_exp(e_byte)?;
        }
        let mut fx = AccEffects::default();
        let mut at = 0;
        for (b, block) in acc.chunks_mut(BLOCK_ELEMS).enumerate() {
            let e_byte = p.body[at];
            let blen = block.len();
            if e_byte != 0 {
                let e_in = i32::from(e_byte) - BLOCK_EXP_BIAS;
                let e_slot = if exps[b] == 0 {
                    exps[b] = e_byte;
                    e_in
                } else {
                    let cur = i32::from(exps[b]) - BLOCK_EXP_BIAS;
                    if e_in > cur {
                        rescale_acc(block, e_in - cur);
                        exps[b] = e_byte;
                        fx.rebases += 1;
                        e_in
                    } else {
                        cur
                    }
                };
                let shift = e_in - e_slot;
                if wide {
                    for (a, c) in block
                        .iter_mut()
                        .zip(p.body[at + 1..at + 1 + blen * 2].chunks_exact(2))
                    {
                        let m = i64::from(i16::from_be_bytes(c.try_into().expect("2 bytes")));
                        *a = sat_add(*a, align(m, shift), &mut fx.saturations);
                    }
                } else {
                    for (a, &byte) in block.iter_mut().zip(&p.body[at + 1..at + 1 + blen]) {
                        *a = sat_add(*a, align(i64::from(byte as i8), shift), &mut fx.saturations);
                    }
                }
            }
            at += block_bytes(blen, wide);
        }
        Ok(fx)
    }

    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32> {
        match acc {
            WireAcc::Block { acc, exps } => acc
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let e = exps[i / BLOCK_ELEMS];
                    if e == 0 {
                        0.0
                    } else {
                        m as f32 * exp2(i32::from(e) - BLOCK_EXP_BIAS)
                    }
                })
                .collect(),
            _ => unreachable!("block-float accumulator"),
        }
    }

    fn error_bound(&self, max_abs: f32, workers: usize) -> f32 {
        // 7-bit mantissas: rounding ≤ 0.5·2^t with 2^t < block_max / 2^6,
        // plus alignment and the i16 result re-encode.
        (workers as f32 + 2.0) * max_abs * exp2(-5)
    }
}

// ---------------------------------------------------------------------------
// Top-k — magnitude sparsification with a dense fallback.
// ---------------------------------------------------------------------------

/// Sparse (u16 index, f32 value) pairs for the top `1/TOPK_DIVISOR` of a
/// segment by magnitude; dense raw f32 when the selection density makes
/// sparse encoding larger. Results are always dense f32.
pub struct TopKCodec;

const TOPK_ID: u8 = 3;

/// Indices of the top `k` elements of `values` by magnitude, ties broken
/// by ascending index, returned in ascending index order — a deterministic
/// pure function of the values.
pub fn topk_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut by_mag: Vec<usize> = (0..values.len()).filter(|&i| values[i] != 0.0).collect();
    by_mag.sort_by(|&a, &b| {
        values[b]
            .abs()
            .partial_cmp(&values[a].abs())
            .expect("finite values")
            .then(a.cmp(&b))
    });
    by_mag.truncate(k);
    by_mag.sort_unstable();
    by_mag
}

impl AggregationCodec for TopKCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::TopK
    }

    fn elems_per_segment(&self) -> usize {
        TOPK_ELEMS_PER_SEGMENT
    }

    fn contribution_bytes(&self, len: usize) -> usize {
        BODY + len.div_ceil(TOPK_DIVISOR).max(1) * 6
    }

    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError> {
        check_finite(values)?;
        let k = (values.len() / TOPK_DIVISOR).max(1);
        let keep = topk_indices(values, k);
        // Density crossover: a sparse entry costs 6 bytes against 4 dense,
        // so past 2/3 density the dense fallback is strictly smaller.
        if keep.len() * 6 >= values.len() * 4 {
            let mut buf = vec![0u8; BODY + values.len() * 4];
            codec_header(&mut buf, seg, 1, TOPK_ID, 0, values.len() as u16);
            for (dst, v) in buf[BODY..].chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&v.to_be_bytes());
            }
            return Ok(Bytes::from(buf));
        }
        let mut buf = vec![0u8; BODY + keep.len() * 6];
        codec_header(&mut buf, seg, 1, TOPK_ID, FLAG_SPARSE, values.len() as u16);
        for (dst, &i) in buf[BODY..].chunks_exact_mut(6).zip(&keep) {
            dst[..2].copy_from_slice(&(i as u16).to_be_bytes());
            dst[2..].copy_from_slice(&values[i].to_be_bytes());
        }
        Ok(Bytes::from(buf))
    }

    fn encode_result(&self, seg: &DataSegment) -> Bytes {
        // Aggregates of H sparse contributions are nearly always past the
        // density crossover, so results ship dense.
        let mut buf = vec![0u8; BODY + seg.values.len() * 4];
        codec_header(
            &mut buf,
            seg.seg,
            seg.count,
            TOPK_ID,
            FLAG_WIDE,
            seg.values.len() as u16,
        );
        for (dst, v) in buf[BODY..].chunks_exact_mut(4).zip(&seg.values) {
            dst.copy_from_slice(&v.to_be_bytes());
        }
        Bytes::from(buf)
    }

    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        let p = parse_codec_payload(TOPK_ID, payload)?;
        let len = usize::from(p.param);
        if p.flags & FLAG_SPARSE != 0 {
            if !p.body.len().is_multiple_of(6) {
                return Err(ProtocolError::MisalignedPayload(p.body.len()));
            }
            if p.body.len() / 6 > len {
                return Err(ProtocolError::InvalidField("sparse entry count"));
            }
        } else if p.body.len() != len * 4 {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        Ok(SegmentMeta {
            seg: p.seg,
            count: p.count,
            len,
        })
    }

    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError> {
        let meta = self.decode_meta(payload)?;
        let p = parse_codec_payload(TOPK_ID, payload)?;
        let values = if p.flags & FLAG_SPARSE != 0 {
            let mut out = vec![0.0f32; meta.len];
            for entry in p.body.chunks_exact(6) {
                let i = usize::from(u16::from_be_bytes(entry[..2].try_into().expect("2 bytes")));
                if i >= out.len() {
                    return Err(ProtocolError::InvalidField("sparse index"));
                }
                out[i] = f32::from_be_bytes(entry[2..].try_into().expect("4 bytes"));
            }
            out
        } else {
            p.body
                .chunks_exact(4)
                .map(|c| f32::from_be_bytes(c.try_into().expect("4 bytes")))
                .collect()
        };
        Ok(DataSegment {
            seg: p.seg,
            count: p.count,
            values,
        })
    }

    fn new_acc(&self, len: usize) -> WireAcc {
        WireAcc::TopK(vec![0.0; len])
    }

    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
        let WireAcc::TopK(sums) = acc else {
            return Err(ProtocolError::InvalidField("accumulator codec"));
        };
        let p = parse_codec_payload(TOPK_ID, payload)?;
        if usize::from(p.param) != sums.len() {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        if p.flags & FLAG_SPARSE != 0 {
            if !p.body.len().is_multiple_of(6) {
                return Err(ProtocolError::MisalignedPayload(p.body.len()));
            }
            let index = |entry: &[u8]| usize::from(u16::from_be_bytes([entry[0], entry[1]]));
            // Reject before touching `sums`: a refused payload must leave
            // the round exactly as it found it.
            if p.body.chunks_exact(6).any(|e| index(e) >= sums.len()) {
                return Err(ProtocolError::InvalidField("sparse index"));
            }
            // Scatter-add: untouched indices contribute zero, exactly as if
            // the worker had sent an explicit zero there.
            for entry in p.body.chunks_exact(6) {
                sums[index(entry)] += f32::from_be_bytes(entry[2..].try_into().expect("4 bytes"));
            }
        } else {
            if p.body.len() != sums.len() * 4 {
                return Err(ProtocolError::InvalidField("payload length"));
            }
            accumulate_f32_be(sums, p.body);
        }
        Ok(AccEffects::default())
    }

    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32> {
        match acc {
            WireAcc::TopK(sums) => sums.clone(),
            _ => unreachable!("top-k accumulator"),
        }
    }

    fn error_bound(&self, _max_abs: f32, _workers: usize) -> f32 {
        // Kept coordinates transfer exact f32 values; the sparsification
        // loss on dropped coordinates is the codec's design point, not a
        // wire error.
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 - n as f32 / 2.0) * 0.125)
            .collect()
    }

    #[test]
    fn capacities_fit_the_mtu_both_ways() {
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let n = codec.elems_per_segment();
            let contrib = codec
                .encode_contribution(0, &ramp(n))
                .expect("finite values encode");
            assert!(
                contrib.len() <= MAX_UDP_PAYLOAD,
                "{kind}: contribution {} bytes",
                contrib.len()
            );
            let result = codec.encode_result(&DataSegment {
                seg: 0,
                count: 9,
                values: ramp(n),
            });
            assert!(
                result.len() <= MAX_UDP_PAYLOAD,
                "{kind}: result {} bytes",
                result.len()
            );
            assert!(
                codec.contribution_bytes(n) <= MAX_UDP_PAYLOAD,
                "{kind}: sizing model exceeds MTU"
            );
        }
        assert_eq!(FIXED_ELEMS_PER_SEGMENT, 365);
        assert_eq!(BLOCKFLOAT_ELEMS_PER_SEGMENT, 704);
        assert_eq!(TOPK_ELEMS_PER_SEGMENT, 365);
    }

    #[test]
    fn acc_bytes_matches_a_real_accumulator() {
        for kind in CodecKind::ALL {
            for len in [1, 31, 32, 33, 365, 366, 704] {
                assert_eq!(
                    kind.acc_bytes(len),
                    kind.codec().new_acc(len).resident_bytes(),
                    "{kind} at len {len}"
                );
            }
        }
    }

    #[test]
    fn labels_parse_round_trip() {
        for kind in CodecKind::ALL {
            assert_eq!(kind.label().parse::<CodecKind>().unwrap(), kind);
        }
        assert!("float64".parse::<CodecKind>().is_err());
    }

    #[test]
    fn f32_wire_layout_is_the_legacy_layout() {
        let values = ramp(10);
        let codec = CodecKind::F32.codec();
        let payload = codec.encode_contribution(7, &values).unwrap();
        assert_eq!(
            payload,
            crate::protocol::data::encode_segment(7, 1, &values),
            "f32 contributions must be byte-identical to the legacy encoder"
        );
        let seg = DataSegment {
            seg: 7,
            count: 3,
            values,
        };
        assert_eq!(codec.encode_result(&seg), seg.encode());
    }

    #[test]
    fn meta_and_values_round_trip_for_every_codec() {
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let values = ramp(77);
            let payload = codec.encode_contribution(5, &values).unwrap();
            let meta = codec.decode_meta(&payload).unwrap();
            assert_eq!(meta.seg, 5, "{kind}");
            assert_eq!(meta.count, 1, "{kind}");
            assert_eq!(meta.len, 77, "{kind}");
            let decoded = codec.decode_values(&payload).unwrap();
            assert_eq!(decoded.values.len(), 77, "{kind}");
            let bound = codec.error_bound(max_abs(&values), 1).max(1e-6);
            for (i, (&d, &v)) in decoded.values.iter().zip(&values).enumerate() {
                if kind == CodecKind::TopK && d == 0.0 {
                    continue; // dropped by sparsification
                }
                assert!(
                    (d - v).abs() <= bound,
                    "{kind}: element {i}: {d} vs {v} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn exponent_stamp_bias_scales_decoded_values() {
        let codec = FixedPointCodec;
        let values = vec![1.0f32, -2.0, 0.5];
        let honest = codec.decode_values(&codec.encode_contribution_biased(0, &values, 0).unwrap());
        let biased = codec.decode_values(&codec.encode_contribution_biased(0, &values, 1).unwrap());
        let (honest, biased) = (honest.unwrap(), biased.unwrap());
        for (h, b) in honest.values.iter().zip(&biased.values) {
            assert!(
                (b - 2.0 * h).abs() <= 1e-6,
                "bias 1 must double: {h} vs {b}"
            );
        }
    }

    #[test]
    fn every_exponent_an_encoder_stamps_its_decoders_admit() {
        for kind in [CodecKind::FixedPoint, CodecKind::BlockFloat] {
            let codec = kind.codec();
            for mag in [0.0, 1e-38, 1e-30, 1.0, 1e6, 1e30, 1e33, f32::MAX] {
                let values = vec![mag, -mag / 2.0, 0.0];
                let aggregate = DataSegment {
                    seg: 0,
                    count: 2,
                    values: values.clone(),
                };
                let narrow = codec.encode_contribution(0, &values).unwrap();
                for payload in [narrow, codec.encode_result(&aggregate)] {
                    let decoded = codec.decode_values(&payload).expect("own output");
                    let mut acc = codec.new_acc(values.len());
                    codec.accumulate(&mut acc, &payload).expect("own output");
                    assert_eq!(codec.decode_acc(&acc), decoded.values, "{kind} at {mag}");
                    // Precision holds between the exponent range's ends:
                    // below 2^EXP_MIN mantissas round to 0 or 1, past
                    // q_max · 2^EXP_MAX they clip.
                    let banded = (1e-30..=1e30).contains(&mag);
                    let bound = codec.error_bound(mag, 1);
                    for (d, v) in decoded.values.iter().zip(&values) {
                        assert!(d.is_finite(), "{kind} at {mag}: {d}");
                        assert!(!banded || (d - v).abs() <= bound, "{kind}: {d} vs {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_and_wrong_id_payloads_rejected() {
        let payload = FixedPointCodec.encode_contribution(0, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            FixedPointCodec.decode_meta(&payload[..6]),
            Err(ProtocolError::Truncated { .. })
        ));
        assert_eq!(
            BlockFloatCodec.decode_meta(&payload),
            Err(ProtocolError::InvalidField("codec id"))
        );
    }
}
