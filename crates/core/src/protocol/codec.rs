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
//! Every codec is a pure function of its inputs: exponent selection reads
//! the exponent bits and tests one candidate (no `log2`), top-k selection
//! breaks magnitude ties by ascending index, and integer accumulation is
//! associative under the engine's deterministic packet order. The f32
//! accumulators (`F32`, `TopK`) add in arrival order, which the engine
//! replays identically for any `--threads`, so sharded artifacts stay
//! byte-identical per codec.

use std::fmt;
use std::str::FromStr;

use bytes::Bytes;
use iswitch_netsim::MAX_UDP_PAYLOAD;

use crate::error::ProtocolError;
use crate::protocol::data::{
    seg_header, split_seg_header, DataSegment, SegmentMeta, FLOATS_PER_SEGMENT, SEG_HEADER_BYTES,
};
use crate::protocol::wire_f32;

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

/// Scaling exponents on the wire lie in `[EXP_MIN, EXP_MAX]`. The floor is
/// the smallest normal f32 exponent. The ceiling is the largest exponent at
/// which a saturated accumulator still decodes finite: `i32::MAX as f32 ·
/// 2^96 = 2^127 < f32::MAX`, one more overflows. Encoders search no higher
/// (a magnitude past `q_max · 2^96`, ≳ 1e31, clips to the mantissa range);
/// decoders refuse anything outside, because the exponent is the one field
/// of an integer payload that can make the switch emit `inf`.
const EXP_MIN: i32 = -126;
const EXP_MAX: i32 = 96;
/// Exponent bias of a stored exponent byte: byte `b` means exponent
/// `b - 127`, so `EXP_MIN` is byte 1 and the byte 0 is free to mark an
/// all-zero block on the wire and an unseeded block in an accumulator.
const EXP_BIAS: i32 = 127;

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
            CodecKind::FixedPoint => &FIXED_POINT,
            CodecKind::BlockFloat => &BLOCK_FLOAT,
            CodecKind::TopK => &TopKCodec,
        }
    }

    /// An integer codec's block layout.
    fn blocks(self) -> Option<Blocks> {
        match self {
            CodecKind::FixedPoint => Some(FIXED_POINT.blocks),
            CodecKind::BlockFloat => Some(BLOCK_FLOAT.blocks),
            CodecKind::F32 | CodecKind::TopK => None,
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

    /// BRAM bytes a `len`-element accumulator occupies — what the
    /// accelerator's admission check charges before opening a round, and
    /// [`WireAcc::resident_bytes`] once it is open. A slot holds a 4-byte
    /// sum per element (f32, or an integer codec's i32) plus each exponent
    /// byte a block carries in the body: an integer slot is the size of a
    /// body of 4-byte mantissas.
    pub fn acc_bytes(self, len: usize) -> usize {
        self.blocks().map_or(len * 4, |b| b.body_bytes(len, 4))
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
    /// Saturating i32 mantissa sums of an integer codec, each block at its
    /// running maximum exponent.
    Int {
        /// The integer codec the sums are in.
        kind: CodecKind,
        /// Per-element mantissa accumulators.
        acc: Vec<i32>,
        /// Per-block exponents, biased by 127 (0 = no contribution yet).
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
            WireAcc::Int { acc, .. } => acc.len(),
        }
    }

    /// Whether the accumulator covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// BRAM bytes this accumulator occupies ([`CodecKind::acc_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        match self {
            WireAcc::F32(v) => CodecKind::F32.acc_bytes(v.len()),
            WireAcc::Int { kind, acc, .. } => kind.acc_bytes(acc.len()),
            WireAcc::TopK(v) => CodecKind::TopK.acc_bytes(v.len()),
        }
    }

    /// Resets in place for reuse at `len` elements (slot recycling).
    pub fn reset(&mut self, len: usize) {
        match self {
            WireAcc::F32(v) | WireAcc::TopK(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
            WireAcc::Int { kind, acc, exps } => {
                let blocks = kind.blocks().expect("an integer codec").count(len);
                acc.clear();
                acc.resize(len, 0);
                exps.clear();
                exps.resize(blocks, 0);
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

    /// Encodes the aggregate `acc` holds as round `seg` of `count` workers:
    /// byte for byte [`AggregationCodec::encode_result`] of what
    /// [`AggregationCodec::decode_acc`] gives, written straight from the
    /// accumulator with no decoded `Vec` in between — what the switch sends
    /// when a round closes.
    fn encode_acc(&self, seg: u64, count: u16, acc: &WireAcc) -> Bytes;

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

/// 2^e as f32, for exponents in the normal range. For `e` in
/// `[EXP_MIN, EXP_MAX]`, 2^-e is normal too, so `v * exp2(-e)` is
/// `v / exp2(e)` bit for bit — both are the correctly rounded `v · 2^-e` —
/// and the codecs scale by that multiply, never by a division.
#[inline]
fn exp2(e: i32) -> f32 {
    f32::from_bits((((e + 127) as u32) & 0xFF) << 23)
}

/// The unbiased exponent field of `x`: ⌊log2 x⌋ for a positive normal
/// `x`, and −127 for zero and subnormals.
#[inline]
fn exp_bits(x: f32) -> i32 {
    ((x.to_bits() >> 23) & 0xFF) as i32 - 127
}

/// Smallest exponent `e` in `[EXP_MIN, EXP_MAX]` with `m / 2^e <= q_max`
/// (`EXP_MAX` if there is none) — a deterministic pure function of the
/// bits of `m`, with no `log2` and no division ([`exp2`]). The bits put it
/// within one: with `em = exp_bits(m)` and `eq = exp_bits(q_max)`, every
/// `e < em − eq` has `q_max · 2^e < 2^(eq+1+e) ≤ 2^em ≤ m` and fails, and
/// `em − eq + 1` has `q_max · 2^e ≥ 2^(em+1) > m` and passes.
#[inline]
fn scaling_exp(m: f32, q_max: f32) -> i32 {
    debug_assert!(m.is_finite() && m >= 0.0);
    let e = (exp_bits(m) - exp_bits(q_max)).clamp(EXP_MIN, EXP_MAX);
    if e < EXP_MAX && m * exp2(-e) > q_max {
        e + 1
    } else {
        e
    }
}

/// `x.round().clamp(-q_max, q_max) as i32` for an integral `q_max`,
/// without `round`'s libm call on a baseline x86-64 target and in a loop
/// the compiler vectorises (a saturating `as i32` it does not). NaN gives
/// 0, and clamping first commutes with rounding. Adding `h`, the largest
/// f32 below ½, signed like `x`, then truncating rounds half away from
/// zero: a fraction of at least ½ carries the sum to the next integer (at
/// exactly ½ it falls `2^-25` short and rounds up to it), a smaller one
/// leaves it at least an ulp of `x` short, and from 2^23 up, where `x` is
/// integral, `h` is under half an ulp.
#[inline]
fn quantize(x: f32, q_max: f32) -> i32 {
    assert!(q_max < 2_147_483_648.0, "the mantissa range fits i32");
    let x = if x.is_nan() {
        0.0
    } else {
        x.clamp(-q_max, q_max)
    };
    let nudged = x + 0.499_999_97f32.copysign(x);
    // SAFETY: `nudged` is finite and truncates to within ±q_max, inside
    // the i32 range by the assert above (`clamp` itself panics on a NaN or
    // negative `q_max`).
    unsafe { nudged.to_int_unchecked() }
}

/// Checks every element is finite (quantized codecs reject NaN/Inf).
fn check_finite(values: &[f32]) -> Result<(), ProtocolError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(ProtocolError::InvalidField("non-finite gradient value"))
    }
}

/// Largest magnitude in `values`, NaN ignored as `f32::max` ignores it
/// (0.0 when empty). Compared as bits, which order like the magnitudes
/// they encode, so the compiler vectorises the scan.
fn max_abs(values: impl Iterator<Item = f32>) -> f32 {
    let magnitude = |v: f32| match v.to_bits() & 0x7FFF_FFFF {
        nan if nan > f32::INFINITY.to_bits() => 0,
        bits => bits,
    };
    f32::from_bits(values.map(magnitude).max().unwrap_or(0))
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
#[inline]
fn sat_add(a: i32, v: i64, saturations: &mut u64) -> i32 {
    let sum = i64::from(a) + v;
    let clamped = sum.clamp(-(i32::MAX as i64), i32::MAX as i64);
    *saturations += u64::from(sum != clamped);
    clamped as i32
}

/// The headroom check: whether every partial sum in `acc` can take an
/// addend of magnitude up to `bound` without passing the `±i32::MAX`
/// rails — its largest magnitude plus `bound` fits `i32`.
#[inline]
fn has_headroom(acc: &[i32], bound: u32) -> bool {
    let Some(limit) = (i32::MAX as u32).checked_sub(bound) else {
        return false;
    };
    let limit = limit as i32;
    // `|` rather than `any`: no early exit, so the scan vectorises.
    !acc.iter()
        .fold(false, |over, &a| over | (a > limit) | (a < -limit))
}

/// Sign-extends an `M`-byte big-endian mantissa. Each width converts
/// through its own integer type, which the loops vectorise.
fn mantissa<const M: usize>(c: [u8; M]) -> i32 {
    match *c.as_slice() {
        [b] => i32::from(b as i8),
        [hi, lo] => i32::from(i16::from_be_bytes([hi, lo])),
        [a, b, c, d] => i32::from_be_bytes([a, b, c, d]),
        _ => unreachable!("mantissas are 1, 2 or 4 bytes"),
    }
}

/// 2^(b − 127) for a biased exponent byte `b` — and 0.0 for the 0 byte,
/// the scale of an all-zero or unseeded block.
#[inline]
fn scale(b: u8) -> f32 {
    f32::from_bits(u32::from(b) << 23)
}

/// Adds the `M`-byte mantissas `ms`, each shifted right by `shift`, into
/// `acc`, and returns how many sums clamped. An accumulator always sits at
/// the largest exponent it has seen, so a contribution only ever shifts
/// right. With `headroom` proven ([`has_headroom`]) no sum can clamp, and
/// the adds are a plain `i32` loop the compiler vectorises; otherwise every
/// element goes through [`sat_add`].
fn add_mantissas<const M: usize>(
    acc: &mut [i32],
    ms: &[[u8; M]],
    shift: u32,
    headroom: bool,
) -> u64 {
    let shift = shift.min(31);
    if headroom {
        for (a, &c) in acc.iter_mut().zip(ms) {
            *a += mantissa(c) >> shift;
        }
        return 0;
    }
    let mut saturations = 0;
    for (a, &c) in acc.iter_mut().zip(ms) {
        *a = sat_add(*a, i64::from(mantissa(c) >> shift), &mut saturations);
    }
    saturations
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

    fn encode_acc(&self, seg: u64, count: u16, acc: &WireAcc) -> Bytes {
        let WireAcc::F32(sums) = acc else {
            unreachable!("f32 accumulator")
        };
        crate::protocol::data::encode_segment(seg, count, sums)
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
        // The big-endian f32 accumulate, straight off the wire with no
        // decoded `Vec<f32>` in between.
        wire_f32::add_be(sums, &payload[SEG_HEADER_BYTES..]);
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
// Block-scaled integers — fixed-point and block-float, one codec.
// ---------------------------------------------------------------------------

/// How a block-scaled payload groups its elements under exponents, and
/// where each exponent sits — the one thing the wire makes the two integer
/// codecs do differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocks {
    /// The whole segment is one block. Its exponent is a signed byte in
    /// the sub-header `param`, and the body is bare mantissas, so the
    /// element count is the body's length.
    Segment,
    /// Blocks of this many elements (the last may be short), each led by
    /// its exponent byte biased by [`EXP_BIAS`], 0 marking an all-zero
    /// block. The sub-header `param` is the element count.
    Of(usize),
}

impl Blocks {
    /// Elements per block of a `len`-element segment.
    fn len(self, len: usize) -> usize {
        match self {
            Blocks::Segment => len.max(1),
            Blocks::Of(n) => n,
        }
    }

    /// Blocks, so exponents, of a `len`-element segment.
    fn count(self, len: usize) -> usize {
        len.div_ceil(self.len(len))
    }

    /// Exponent bytes each block carries in the body.
    fn inline(self) -> usize {
        usize::from(self != Blocks::Segment)
    }

    /// Body bytes of `len` elements in `unit`-byte mantissas.
    fn body_bytes(self, len: usize, unit: usize) -> usize {
        len * unit + self.count(len) * self.inline()
    }
}

/// SwitchML-style block-scaled integer aggregation. Each block of a
/// segment shares one power-of-two exponent, the smallest that fits its
/// largest value; contributions carry `N`-byte mantissas, the switch sums
/// them in saturating i32 at each block's running maximum exponent, and
/// results re-encode as `W`-byte mantissas (wide). Its two parameter sets
/// are [`FIXED_POINT`] and [`BLOCK_FLOAT`].
pub struct BlockScaledCodec<const N: usize, const W: usize> {
    kind: CodecKind,
    id: u8,
    blocks: Blocks,
    elems_per_segment: usize,
}

/// Fixed-point: i16 mantissas under one exponent a packet, i32 results.
pub static FIXED_POINT: BlockScaledCodec<2, 4> = BlockScaledCodec {
    kind: CodecKind::FixedPoint,
    id: 1,
    blocks: Blocks::Segment,
    elems_per_segment: FIXED_ELEMS_PER_SEGMENT,
};

/// Block floating point: i8 mantissas under one exponent per
/// [`BLOCK_ELEMS`]-element block, i16 results.
pub static BLOCK_FLOAT: BlockScaledCodec<1, 2> = BlockScaledCodec {
    kind: CodecKind::BlockFloat,
    id: 2,
    blocks: Blocks::Of(BLOCK_ELEMS),
    elems_per_segment: BLOCKFLOAT_ELEMS_PER_SEGMENT,
};

impl<const N: usize, const W: usize> BlockScaledCodec<N, W> {
    /// Encodes a contribution whose *stamped* exponents are offset from the
    /// scaling exponents by `stamp_bias` — zero for correct operation. A
    /// non-zero bias is the chaos harness's seeded codec bug (fixed-point
    /// only): the switch honors the stamp, so every biased contribution
    /// lands scaled by `2^stamp_bias`, silently corrupting aggregates
    /// without tripping any wire-format check.
    pub fn encode_contribution_biased(
        &self,
        seg: u64,
        values: &[f32],
        stamp_bias: i8,
    ) -> Result<Bytes, ProtocolError> {
        check_finite(values)?;
        let blocks = values
            .chunks(self.blocks.len(values.len()))
            .map(|b| b.iter().copied());
        Ok(self.encode::<N, _>(seg, 1, 0, values.len(), blocks, stamp_bias.into()))
    }

    /// Encodes `len` values, given block by block, in `M`-byte mantissas
    /// under `flags`. Each block is scaled by the smallest exponent that
    /// fits its largest magnitude and stamped `stamp_bias` above it.
    fn encode<const M: usize, B>(
        &self,
        seg: u64,
        count: u16,
        flags: u8,
        len: usize,
        blocks: impl Iterator<Item = B>,
        stamp_bias: i32,
    ) -> Bytes
    where
        B: ExactSizeIterator<Item = f32> + Clone,
    {
        // The largest mantissa: the `M`-byte integer's symmetric range,
        // capped at 2^30 so an i32 result keeps headroom below saturation.
        let q_max = ((1i64 << (8 * M - 1)) - 1).min(1 << 30) as f32;
        let l = self.blocks;
        let mut buf = vec![0u8; BODY + l.body_bytes(len, M)];
        // An empty segment stamps `EXP_MIN`, as an all-zero one does.
        let param = match l {
            Blocks::Segment => u16::from_be_bytes([EXP_MIN as i8 as u8, 0]),
            Blocks::Of(_) => len as u16,
        };
        codec_header(&mut buf, seg, count, self.id, flags, param);
        let mut at = BODY + l.inline();
        for block in blocks {
            let blen = block.len();
            let m = max_abs(block.clone());
            let e = scaling_exp(m, q_max);
            let stamp = (e + stamp_bias).clamp(EXP_MIN, EXP_MAX);
            match l {
                Blocks::Segment => buf[10] = stamp as i8 as u8,
                // An all-zero block keeps the zero sentinel.
                Blocks::Of(_) if m == 0.0 => {}
                Blocks::Of(_) => buf[at - 1] = (stamp + EXP_BIAS) as u8,
            }
            let inv = exp2(-e);
            let (dst, _) = buf[at..at + blen * M].as_chunks_mut::<M>();
            for (dst, v) in dst.iter_mut().zip(block) {
                dst.copy_from_slice(&quantize(v * inv, q_max).to_be_bytes()[4 - M..]);
            }
            at += blen * M + l.inline();
        }
        Bytes::from(buf)
    }

    /// The element count of `p`, checked against its body's length.
    fn len_of(&self, p: &CodecPayload<'_>) -> Result<usize, ProtocolError> {
        let unit = if p.flags & FLAG_WIDE != 0 { W } else { N };
        match self.blocks {
            Blocks::Segment if p.body.len().is_multiple_of(unit) => Ok(p.body.len() / unit),
            Blocks::Segment => Err(ProtocolError::MisalignedPayload(p.body.len())),
            Blocks::Of(_) if p.body.len() == self.blocks.body_bytes(usize::from(p.param), unit) => {
                Ok(usize::from(p.param))
            }
            Blocks::Of(_) => Err(ProtocolError::InvalidField("payload length")),
        }
    }

    /// The blocks of a `len`-element payload `p` of `M`-byte mantissas:
    /// each block's exponent as a biased byte (0 for an all-zero block),
    /// refused outside `[EXP_MIN, EXP_MAX]`, and its mantissas.
    fn split<'a, const M: usize>(
        &self,
        p: &CodecPayload<'a>,
        len: usize,
    ) -> impl Iterator<Item = (Result<u8, ProtocolError>, &'a [[u8; M]])> + Clone {
        let (blocks, header) = (self.blocks, (p.param >> 8) as u8);
        let stride = blocks.len(len) * M + blocks.inline();
        let admit = |e: i32| match e {
            EXP_MIN..=EXP_MAX => Ok((e + EXP_BIAS) as u8),
            _ => Err(ProtocolError::InvalidField("scaling exponent")),
        };
        p.body.chunks(stride.max(1)).map(move |block| {
            let (e, ms) = match blocks {
                Blocks::Segment => (admit(i32::from(header as i8)), block),
                Blocks::Of(_) if block[0] == 0 => (Ok(0), &block[1..]),
                Blocks::Of(_) => (admit(i32::from(block[0]) - EXP_BIAS), &block[1..]),
            };
            (e, ms.as_chunks::<M>().0)
        })
    }

    /// Decodes a `len`-element payload of `M`-byte mantissas.
    fn decode_as<const M: usize>(
        &self,
        p: &CodecPayload<'_>,
        len: usize,
    ) -> Result<Vec<f32>, ProtocolError> {
        let mut values = Vec::with_capacity(len);
        for (e, ms) in self.split::<M>(p, len) {
            let s = scale(e?);
            values.extend(ms.iter().map(|&c| mantissa(c) as f32 * s));
        }
        Ok(values)
    }

    /// Accumulates the `M`-byte mantissas of `p` into `acc`, block by
    /// block at `exps`.
    fn add<const M: usize>(
        &self,
        acc: &mut [i32],
        exps: &mut [u8],
        p: &CodecPayload<'_>,
    ) -> Result<AccEffects, ProtocolError> {
        let blocks = self.split::<M>(p, acc.len());
        // Reject before touching `acc`: a refused payload must leave the
        // round exactly as it found it.
        for (e, _) in blocks.clone() {
            e?;
        }
        // One headroom check for the whole segment against the largest
        // mantissa `M` bytes hold (i32 leaves none), and per block against
        // its own largest only if that fails: a rebase only shrinks partial
        // sums, so it holds after.
        let segment_headroom = has_headroom(acc, 1 << (8 * M - 1));
        let mut fx = AccEffects::default();
        let block_len = self.blocks.len(acc.len());
        for ((block, e), (e_in, ms)) in acc.chunks_mut(block_len).zip(exps).zip(blocks) {
            let e_in = e_in?;
            if e_in == 0 {
                continue; // an all-zero block adds nothing
            }
            if *e == 0 {
                *e = e_in;
            } else if e_in > *e {
                // The switch keeps the largest exponent seen: shift existing
                // partial sums down to the coarser scale (SwitchML's exponent
                // alignment), then add at unit gain.
                let down = u32::from(e_in - *e).min(31);
                block.iter_mut().for_each(|a| *a >>= down);
                *e = e_in;
                fx.rebases += 1;
            }
            let bound = || ms.iter().map(|&c| mantissa(c).unsigned_abs()).max();
            let headroom = segment_headroom || has_headroom(block, bound().unwrap_or(0));
            fx.saturations += add_mantissas(block, ms, u32::from(*e - e_in), headroom);
        }
        Ok(fx)
    }
}

impl<const N: usize, const W: usize> AggregationCodec for BlockScaledCodec<N, W> {
    fn kind(&self) -> CodecKind {
        self.kind
    }

    fn elems_per_segment(&self) -> usize {
        self.elems_per_segment
    }

    fn contribution_bytes(&self, len: usize) -> usize {
        BODY + self.blocks.body_bytes(len, N)
    }

    fn encode_contribution(&self, seg: u64, values: &[f32]) -> Result<Bytes, ProtocolError> {
        self.encode_contribution_biased(seg, values, 0)
    }

    fn encode_result(&self, seg: &DataSegment) -> Bytes {
        let blocks = seg.values.chunks(self.blocks.len(seg.values.len()));
        let blocks = blocks.map(|b| b.iter().copied());
        self.encode::<W, _>(seg.seg, seg.count, FLAG_WIDE, seg.values.len(), blocks, 0)
    }

    fn encode_acc(&self, seg: u64, count: u16, acc: &WireAcc) -> Bytes {
        let WireAcc::Int { acc, exps, .. } = acc else {
            unreachable!("an integer accumulator")
        };
        // An unseeded block scales to zeros, which encode as the zeros
        // `decode_acc` gives it.
        let blocks = acc.chunks(self.blocks.len(acc.len())).zip(exps);
        let blocks = blocks.map(|(block, &e)| block.iter().map(move |&m| m as f32 * scale(e)));
        self.encode::<W, _>(seg, count, FLAG_WIDE, acc.len(), blocks, 0)
    }

    fn decode_meta(&self, payload: &[u8]) -> Result<SegmentMeta, ProtocolError> {
        let p = parse_codec_payload(self.id, payload)?;
        Ok(SegmentMeta {
            seg: p.seg,
            count: p.count,
            len: self.len_of(&p)?,
        })
    }

    fn decode_values(&self, payload: &[u8]) -> Result<DataSegment, ProtocolError> {
        let p = parse_codec_payload(self.id, payload)?;
        let len = self.len_of(&p)?;
        let values = if p.flags & FLAG_WIDE != 0 {
            self.decode_as::<W>(&p, len)?
        } else {
            self.decode_as::<N>(&p, len)?
        };
        Ok(DataSegment {
            seg: p.seg,
            count: p.count,
            values,
        })
    }

    fn new_acc(&self, len: usize) -> WireAcc {
        WireAcc::Int {
            kind: self.kind,
            acc: vec![0; len],
            exps: vec![0; self.blocks.count(len)],
        }
    }

    fn accumulate(&self, acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
        let (acc, exps) = match acc {
            WireAcc::Int { kind, acc, exps } if *kind == self.kind => (acc, exps),
            _ => return Err(ProtocolError::InvalidField("accumulator codec")),
        };
        let p = parse_codec_payload(self.id, payload)?;
        if self.len_of(&p) != Ok(acc.len()) {
            return Err(ProtocolError::InvalidField("payload length"));
        }
        if p.flags & FLAG_WIDE != 0 {
            self.add::<W>(acc, exps, &p)
        } else {
            self.add::<N>(acc, exps, &p)
        }
    }

    fn decode_acc(&self, acc: &WireAcc) -> Vec<f32> {
        let WireAcc::Int { acc, exps, .. } = acc else {
            unreachable!("an integer accumulator")
        };
        let mut values = Vec::with_capacity(acc.len());
        for (block, &e) in acc.chunks(self.blocks.len(acc.len())).zip(exps) {
            values.extend(block.iter().map(|&m| m as f32 * scale(e)));
        }
        values
    }

    fn error_bound(&self, max_abs: f32, workers: usize) -> f32 {
        // Per contribution: rounding ≤ 0.5·2^e plus one alignment-shift ulp,
        // with 2^e < max_abs / 2^(8N − 2); the wide result re-encode adds
        // under one contribution's worth. Rounded up generously — the bound
        // backs invariant tolerances, not precision claims.
        (workers as f32 + 2.0) * max_abs * exp2(3 - 8 * N as i32)
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

/// Indices of the top `k` non-zero elements of finite `values` by
/// magnitude, ties broken by ascending index, returned in ascending index
/// order — a deterministic pure function of the values.
///
/// A linear-time selection: each element becomes one `u64` key whose
/// ascending order is magnitude descending, then index ascending (the bits
/// of a non-negative f32 order like its value), and only the `k` selected
/// keys are sorted.
pub fn topk_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut keys: Vec<u64> = (values.iter().enumerate())
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, v)| (u64::from(!v.abs().to_bits()) << 32) | i as u64)
        .collect();
    if k < keys.len() {
        keys.select_nth_unstable(k);
        keys.truncate(k);
    }
    let mut kept: Vec<usize> = keys.iter().map(|&key| key as u32 as usize).collect();
    kept.sort_unstable();
    kept
}

/// A dense top-k payload: `values` as raw big-endian f32 after the headers.
fn topk_dense(seg: u64, count: u16, flags: u8, values: &[f32]) -> Bytes {
    let mut buf = vec![0u8; BODY + values.len() * 4];
    codec_header(&mut buf, seg, count, TOPK_ID, flags, values.len() as u16);
    wire_f32::write_be(&mut buf[BODY..], values);
    Bytes::from(buf)
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
            return Ok(topk_dense(seg, 1, 0, values));
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
        topk_dense(seg.seg, seg.count, FLAG_WIDE, &seg.values)
    }

    fn encode_acc(&self, seg: u64, count: u16, acc: &WireAcc) -> Bytes {
        let WireAcc::TopK(sums) = acc else {
            unreachable!("top-k accumulator")
        };
        topk_dense(seg, count, FLAG_WIDE, sums)
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
            wire_f32::add_be(sums, p.body);
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
mod fast_paths;

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
            let bound = codec
                .error_bound(max_abs(values.iter().copied()), 1)
                .max(1e-6);
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
        let codec = &FIXED_POINT;
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
        let payload = FIXED_POINT.encode_contribution(0, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            FIXED_POINT.decode_meta(&payload[..6]),
            Err(ProtocolError::Truncated { .. })
        ));
        assert_eq!(
            BLOCK_FLOAT.decode_meta(&payload),
            Err(ProtocolError::InvalidField("codec id"))
        );
    }
}
