//! The quantised datapath's fast paths against the straightforward code
//! they replace, kept here as oracles: per-element saturating adds in
//! `i64`, `decode_acc` → `encode_result`, a linear exponent search, and
//! division with `round`. Every fast path must be bit-identical to its
//! oracle — accumulators, exponents, `saturations`, `rebases` and bytes.

use super::*;

/// xorshift64: deterministic random bits without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A uniform value in `[-1, 1)` times `2^k`, or zero one time in eight.
    fn value(&mut self, k: i32) -> f32 {
        if self.below(8) == 0 {
            return 0.0;
        }
        let unit = (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
        unit * exp2(k)
    }

    /// [`Rng::value`] at `2^k` scaled down by up to `2^(spread-1)`.
    fn jittered(&mut self, k: i32, spread: u64) -> f32 {
        let down = self.below(spread) as i32;
        self.value(k - down)
    }

    /// A finite, non-negative f32 from random bits.
    fn finite(&mut self) -> f32 {
        loop {
            let x = f32::from_bits(self.next() as u32 & 0x7FFF_FFFF);
            if x.is_finite() {
                return x;
            }
        }
    }

    /// A partial sum: small, or within 2^15 of one of the `±i32::MAX` rails.
    fn partial_sum(&mut self) -> i32 {
        let near_rail = i32::MAX - self.below(1 << 15) as i32;
        match self.below(3) {
            0 => self.next() as i32 >> 12,
            1 => near_rail,
            _ => -near_rail,
        }
    }
}

/// The two integer codecs' wire facts, restated here so the oracles do not
/// read them from the codec they check.
const FIXED_ID: u8 = 1;
const BLOCK_ID: u8 = 2;
const FIXED_Q_MAX: f32 = i16::MAX as f32;
const FIXED_WIDE_Q_MAX: f32 = (1 << 30) as f32;
const BLOCK_Q_MAX: f32 = i8::MAX as f32;
const BLOCK_WIDE_Q_MAX: f32 = i16::MAX as f32;
/// Block-float exponent bias: byte `e` is exponent `e - 127`, 0 the
/// all-zero sentinel. An accumulator stores fixed-point's exponent the
/// same way.
const BIAS: i32 = 127;

/// Admits a wire exponent in `[EXP_MIN, EXP_MAX]`.
fn wire_exp(e: i32) -> Result<i32, ProtocolError> {
    if (EXP_MIN..=EXP_MAX).contains(&e) {
        Ok(e)
    } else {
        Err(ProtocolError::InvalidField("scaling exponent"))
    }
}

/// Bytes of one `blen`-element block-float block, narrow or wide.
fn block_bytes(blen: usize, wide: bool) -> usize {
    1 + blen * if wide { 2 } else { 1 }
}

/// Block-float body bytes for `len` elements.
fn block_body_bytes(len: usize, wide: bool) -> usize {
    (0..len)
        .step_by(BLOCK_ELEMS)
        .map(|i| block_bytes((len - i).min(BLOCK_ELEMS), wide))
        .sum()
}

/// A block's true exponent from its byte; `None` for the sentinel.
fn block_exp(e_byte: u8) -> Result<Option<i32>, ProtocolError> {
    match e_byte {
        0 => Ok(None),
        e => wire_exp(i32::from(e) - BIAS).map(Some),
    }
}

/// The magnitude scan as a float fold.
fn fold_max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// The exponent search from `EXP_MIN` up.
fn linear_scaling_exp(m: f32, q_max: f32) -> i32 {
    let mut e = EXP_MIN;
    while e < EXP_MAX && m / exp2(e) > q_max {
        e += 1;
    }
    e
}

/// Every partial sum shifted down `by` places.
fn rescale(acc: &mut [i32], by: i32) {
    acc.iter_mut().for_each(|a| *a >>= by.min(31));
}

/// `m · 2^shift` in `i64` headroom.
fn align(m: i64, shift: i32) -> i64 {
    if shift >= 0 {
        m.checked_shl(shift.min(62) as u32).unwrap_or(i64::MAX)
    } else {
        m >> (-shift).min(63)
    }
}

/// Every element through [`sat_add`]: the accumulate with no headroom
/// check.
fn saturating_accumulate(acc: &mut WireAcc, payload: &[u8]) -> Result<AccEffects, ProtocolError> {
    let mut fx = AccEffects::default();
    let WireAcc::Int { kind, acc, exps } = acc else {
        unreachable!("an integer accumulator")
    };
    match kind {
        CodecKind::FixedPoint => {
            let p = parse_codec_payload(FIXED_ID, payload)?;
            let wide = p.flags & FLAG_WIDE != 0;
            let unit = if wide { 4 } else { 2 };
            if p.body.len() != acc.len() * unit {
                return Err(ProtocolError::InvalidField("payload length"));
            }
            let e_in = wire_exp(i32::from((p.param >> 8) as u8 as i8))?;
            let exp = i32::from(exps[0]) - BIAS;
            if exps[0] == 0 {
                exps[0] = (e_in + BIAS) as u8;
            } else if e_in > exp {
                rescale(acc, e_in - exp);
                exps[0] = (e_in + BIAS) as u8;
                fx.rebases += 1;
            }
            let shift = e_in - (i32::from(exps[0]) - BIAS);
            for (a, c) in acc.iter_mut().zip(p.body.chunks_exact(unit)) {
                let m = if wide {
                    i64::from(i32::from_be_bytes(c.try_into().unwrap()))
                } else {
                    i64::from(i16::from_be_bytes(c.try_into().unwrap()))
                };
                *a = sat_add(*a, align(m, shift), &mut fx.saturations);
            }
        }
        CodecKind::BlockFloat => {
            let p = parse_codec_payload(BLOCK_ID, payload)?;
            let wide = p.flags & FLAG_WIDE != 0;
            if usize::from(p.param) != acc.len()
                || p.body.len() != block_body_bytes(acc.len(), wide)
            {
                return Err(ProtocolError::InvalidField("payload length"));
            }
            for &e_byte in p.body.iter().step_by(block_bytes(BLOCK_ELEMS, wide)) {
                block_exp(e_byte)?;
            }
            let mut at = 0;
            for (b, block) in acc.chunks_mut(BLOCK_ELEMS).enumerate() {
                let e_byte = p.body[at];
                let blen = block.len();
                if e_byte != 0 {
                    let e_in = i32::from(e_byte) - BIAS;
                    let e_slot = if exps[b] == 0 {
                        exps[b] = e_byte;
                        e_in
                    } else {
                        let cur = i32::from(exps[b]) - BIAS;
                        if e_in > cur {
                            rescale(block, e_in - cur);
                            exps[b] = e_byte;
                            fx.rebases += 1;
                            e_in
                        } else {
                            cur
                        }
                    };
                    let unit = if wide { 2 } else { 1 };
                    let body = &p.body[at + 1..at + 1 + blen * unit];
                    for (a, c) in block.iter_mut().zip(body.chunks_exact(unit)) {
                        let m = if wide {
                            i64::from(i16::from_be_bytes(c.try_into().unwrap()))
                        } else {
                            i64::from(c[0] as i8)
                        };
                        *a = sat_add(*a, align(m, e_in - e_slot), &mut fx.saturations);
                    }
                }
                at += block_bytes(blen, wide);
            }
        }
        _ => unreachable!("an integer codec"),
    }
    Ok(fx)
}

/// `decode_acc` with `exp2` per element; `block` elements share an
/// exponent.
fn decode_per_element(acc: &WireAcc, block: usize) -> Vec<f32> {
    let WireAcc::Int { acc, exps, .. } = acc else {
        unreachable!("an integer accumulator")
    };
    (acc.iter().enumerate())
        .map(|(i, &m)| match exps[i / block] {
            0 => 0.0,
            e => m as f32 * exp2(i32::from(e) - BIAS),
        })
        .collect()
}

/// Quantises one block or segment by division, `round` and the linear
/// exponent search; the exponent found, then the mantissas.
fn divide_and_round(values: &[f32], q_max: f32) -> (i32, Vec<i64>) {
    let e = linear_scaling_exp(fold_max_abs(values), q_max);
    let scale = exp2(e);
    let q = values.iter().map(|v| f64::from(v / scale).round() as i64);
    (
        e,
        q.map(|q| q.clamp(-(q_max as i64), q_max as i64)).collect(),
    )
}

/// `encode_result` (`wide`) or `encode_contribution` of `values` by
/// [`divide_and_round`].
fn encode_by_division(kind: CodecKind, seg: &DataSegment, wide: bool) -> Vec<u8> {
    let codec = kind.codec();
    // The headers as the codec writes them; exponents and mantissas anew.
    let mut out = if wide {
        codec.encode_result(seg).to_vec()
    } else {
        codec
            .encode_contribution(seg.seg, &seg.values)
            .unwrap()
            .to_vec()
    };
    match kind {
        CodecKind::FixedPoint => {
            let (q_max, unit) = if wide {
                (FIXED_WIDE_Q_MAX, 4)
            } else {
                (FIXED_Q_MAX, 2)
            };
            let (e, q) = divide_and_round(&seg.values, q_max);
            out[10] = e as i8 as u8;
            for (dst, q) in out[BODY..].chunks_exact_mut(unit).zip(q) {
                dst.copy_from_slice(&(q as i32).to_be_bytes()[4 - unit..]);
            }
        }
        CodecKind::BlockFloat => {
            let (q_max, unit) = if wide {
                (BLOCK_WIDE_Q_MAX, 2)
            } else {
                (BLOCK_Q_MAX, 1)
            };
            let body = &mut out[BODY..];
            body.fill(0);
            let mut at = 0;
            for block in seg.values.chunks(BLOCK_ELEMS) {
                if fold_max_abs(block) != 0.0 {
                    let (t, q) = divide_and_round(block, q_max);
                    body[at] = (t + BIAS) as u8;
                    for (dst, q) in body[at + 1..].chunks_exact_mut(unit).zip(q) {
                        dst.copy_from_slice(&(q as i16).to_be_bytes()[2 - unit..]);
                    }
                }
                at += block_bytes(block.len(), wide);
            }
        }
        _ => unreachable!("an integer codec"),
    }
    out
}

/// A wide payload with arbitrary mantissas — not only what the encoder
/// makes — at exponents near `e`.
fn raw_wide_payload(rng: &mut Rng, kind: CodecKind, len: usize, e: i32) -> Vec<u8> {
    let near = |rng: &mut Rng| (e + rng.below(9) as i32 - 4).clamp(EXP_MIN, EXP_MAX);
    match kind {
        CodecKind::FixedPoint => {
            let mut buf = vec![0u8; BODY + len * 4];
            let stamp = u16::from_be_bytes([near(rng) as i8 as u8, 0]);
            codec_header(&mut buf, 9, 2, FIXED_ID, FLAG_WIDE, stamp);
            for dst in buf[BODY..].chunks_exact_mut(4) {
                let m = if rng.below(2) == 0 {
                    rng.partial_sum()
                } else {
                    rng.next() as i32
                };
                dst.copy_from_slice(&m.to_be_bytes());
            }
            buf
        }
        CodecKind::BlockFloat => {
            let mut buf = vec![0u8; BODY + block_body_bytes(len, true)];
            codec_header(&mut buf, 9, 2, BLOCK_ID, FLAG_WIDE, len as u16);
            let mut at = BODY;
            for blen in (0..len)
                .step_by(BLOCK_ELEMS)
                .map(|i| (len - i).min(BLOCK_ELEMS))
            {
                if rng.below(8) != 0 {
                    buf[at] = (near(rng) + BIAS) as u8;
                    for dst in buf[at + 1..at + 1 + 2 * blen].chunks_exact_mut(2) {
                        dst.copy_from_slice(&(rng.next() as i16).to_be_bytes());
                    }
                }
                at += block_bytes(blen, true);
            }
            buf
        }
        _ => unreachable!("an integer codec"),
    }
}

/// A random accumulator state: fresh, or seeded with partial sums, some
/// within 2^15 of the rails, at exponents around zero.
fn seeded_acc(rng: &mut Rng, kind: CodecKind, len: usize) -> WireAcc {
    let mut acc = kind.codec().new_acc(len);
    if rng.below(4) == 0 {
        return acc;
    }
    let WireAcc::Int {
        acc: sums, exps, ..
    } = &mut acc
    else {
        unreachable!("an integer accumulator")
    };
    // Fixed-point's one exponent covers the whole segment.
    let block = if kind == CodecKind::FixedPoint {
        len
    } else {
        BLOCK_ELEMS
    };
    for (block, e) in sums.chunks_mut(block).zip(exps) {
        if kind == CodecKind::FixedPoint || rng.below(6) != 0 {
            *e = (rng.below(41) as i32 - 20 + BIAS) as u8;
            block.iter_mut().for_each(|a| *a = rng.partial_sum());
        }
    }
    acc
}

#[test]
fn scaling_exp_equals_the_linear_search() {
    let q_maxes = [FIXED_Q_MAX, FIXED_WIDE_Q_MAX, BLOCK_Q_MAX];
    let mut edges = vec![
        0.0,
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::MAX,
    ];
    // Powers of two, subnormal and normal, and their neighbours.
    let subnormal = (0..23).map(|j| f32::from_bits(1 << j));
    for p in subnormal.chain((1..=254).map(|field| f32::from_bits(field << 23))) {
        edges.extend([p, p.next_up(), p.next_down()]);
    }
    // Every exponent's boundary `q_max · 2^e` and its neighbours.
    for q_max in q_maxes {
        for e in EXP_MIN..=EXP_MAX {
            let b = q_max * exp2(e);
            edges.extend([b, b.next_up(), b.next_down()]);
        }
    }
    let mut rng = Rng(0x5CA1E);
    edges.extend((0..100_000).map(|_| rng.finite()));
    // BLOCK_WIDE_Q_MAX is FIXED_Q_MAX: both codecs' two maxima are covered.
    assert_eq!(BLOCK_WIDE_Q_MAX, FIXED_Q_MAX);
    for q_max in q_maxes {
        for &m in edges.iter().filter(|m| m.is_finite() && **m >= 0.0) {
            assert_eq!(
                scaling_exp(m, q_max),
                linear_scaling_exp(m, q_max),
                "{m:e} at q_max {q_max}"
            );
        }
    }
}

#[test]
fn quantize_rounds_and_clamps_like_round() {
    let mut rng = Rng(0x0D0D);
    let mut xs = vec![
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.5,
        -2.5,
        0.499_999_97,
        -0.499_999_97,
        8_388_607.5,
    ];
    xs.extend([2e9, -2e9, 1e30, -1e30, f32::MAX, f32::MIN, f32::NAN]);
    xs.extend((0..100_000).map(|_| {
        let x = rng.finite() * exp2(-(rng.below(100) as i32));
        if rng.below(2) == 0 {
            x
        } else {
            -x
        }
    }));
    xs.extend((0..1_000).map(|i| i as f32 * 0.25 - 125.0));
    // Every tie n + ½ and its neighbours, where rounding a nudged sum can
    // go wrong: strided up to 2^23, and at each power of two.
    let powers = (0..24).flat_map(|k| [(1u32 << k) - 1, 1 << k]);
    for n in (0..1 << 23).step_by(4_099).chain(powers) {
        let tie = n as f32 + 0.5;
        for x in [tie, tie.next_up(), tie.next_down()] {
            xs.extend([x, -x]);
        }
    }
    for q_max in [FIXED_Q_MAX, FIXED_WIDE_Q_MAX, BLOCK_Q_MAX] {
        for &x in &xs {
            let want = f64::from(x)
                .round()
                .clamp(-f64::from(q_max), f64::from(q_max)) as i32;
            assert_eq!(quantize(x, q_max), want, "{x:e} at q_max {q_max}");
        }
    }
}

#[test]
fn encoders_equal_division_and_round() {
    let mut rng = Rng(0xE4C0);
    for kind in [CodecKind::FixedPoint, CodecKind::BlockFloat] {
        for _ in 0..400 {
            let len = 1 + rng.below(kind.elems_per_segment() as u64) as usize;
            let k = rng.below(81) as i32 - 40;
            let values: Vec<f32> = (0..len).map(|_| rng.jittered(k, 12)).collect();
            let mut seg = DataSegment {
                seg: 3,
                count: 4,
                values,
            };
            for wide in [false, true] {
                let fast = if wide {
                    kind.codec().encode_result(&seg).to_vec()
                } else {
                    kind.codec()
                        .encode_contribution(seg.seg, &seg.values)
                        .unwrap()
                        .to_vec()
                };
                assert_eq!(
                    fast,
                    encode_by_division(kind, &seg, wide),
                    "{kind} wide={wide}"
                );
            }
            // A result may carry a NaN (a contribution may not): the scan
            // skips it and it encodes as 0, as `max` and `round` had it.
            seg.values[rng.below(len as u64) as usize] = f32::NAN;
            let fast = kind.codec().encode_result(&seg).to_vec();
            assert_eq!(fast, encode_by_division(kind, &seg, true), "{kind} NaN");
        }
    }
}

#[test]
fn topk_selection_equals_the_full_sort() {
    let mut rng = Rng(0x70BC);
    for _ in 0..2_000 {
        let len = rng.below(400) as usize;
        // Few distinct magnitudes, both signs and zeros: ties everywhere.
        let values: Vec<f32> = (0..len)
            .map(|_| (rng.below(7) as f32 - 3.0) * if rng.below(4) == 0 { 0.5 } else { 1.0 })
            .collect();
        let mut by_mag: Vec<usize> = (0..len).filter(|&i| values[i] != 0.0).collect();
        by_mag.sort_by(|&a, &b| {
            let (ma, mb) = (values[a].abs(), values[b].abs());
            mb.partial_cmp(&ma).unwrap().then(a.cmp(&b))
        });
        for k in [0, 1, len / TOPK_DIVISOR, len / 2, len, len + 1] {
            let mut want = by_mag[..k.min(by_mag.len())].to_vec();
            want.sort_unstable();
            assert_eq!(topk_indices(&values, k), want, "len {len}, k {k}");
        }
    }
}

/// The headroom check and the fused emit, against every element through
/// `sat_add` and `decode_acc` → `encode_result` by division: narrow and
/// wide payloads, rebases, right shifts, partial sums at the rails.
#[test]
fn fast_accumulate_and_fused_emit_equal_the_saturating_loop() {
    let mut rng = Rng(0xD1FF);
    let (mut saturated, mut clean, mut rebased) = (0, 0, 0);
    for kind in [CodecKind::FixedPoint, CodecKind::BlockFloat] {
        let codec = kind.codec();
        for _ in 0..1_500 {
            let len = 1 + rng.below(kind.elems_per_segment() as u64) as usize;
            let mut fast = seeded_acc(&mut rng, kind, len);
            let mut slow = fast.clone();
            for _ in 0..1 + rng.below(5) {
                let k = rng.below(41) as i32 - 20;
                let payload = match rng.below(3) {
                    0 => raw_wide_payload(&mut rng, kind, len, k - 10),
                    wide => {
                        let values = (0..len).map(|_| rng.jittered(k, 8)).collect();
                        let seg = DataSegment {
                            seg: 9,
                            count: 2,
                            values,
                        };
                        encode_by_division(kind, &seg, wide == 1)
                    }
                };
                let got = codec.accumulate(&mut fast, &payload);
                let want = saturating_accumulate(&mut slow, &payload);
                assert_eq!(got, want, "{kind}: effects");
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "{kind}: accumulator"
                );
                let fx = want.expect("well-formed payload");
                saturated += u64::from(fx.saturations > 0);
                clean += u64::from(fx.saturations == 0);
                rebased += fx.rebases;
            }
            let block = if kind == CodecKind::FixedPoint {
                len
            } else {
                BLOCK_ELEMS
            };
            let decoded = decode_per_element(&slow, block);
            assert_eq!(codec.decode_acc(&fast), decoded, "{kind}: decode_acc");
            let seg = DataSegment {
                seg: 77,
                count: 5,
                values: decoded,
            };
            let fused = codec.encode_acc(seg.seg, seg.count, &fast);
            assert_eq!(
                fused.to_vec(),
                encode_by_division(kind, &seg, true),
                "{kind}: emit"
            );
        }
    }
    assert!(
        saturated > 100 && clean > 1_000 && rebased > 1_000,
        "{saturated} {clean} {rebased}"
    );
}
