//! The f32 datapath's two byte-order loops: big-endian wire data added
//! into native sums, and native values written out as big-endian wire
//! data. Every f32 contribution the switch ingests passes through the
//! first, and every f32 payload encoded (a worker's contribution, the
//! switch's result) through the second, so together they set the
//! in-switch path's per-packet cost.
//!
//! # Two copies, one source
//!
//! On x86-64 the baseline target has SSE2 but no byte shuffle, so a swap
//! of four lanes costs seven shuffles; with AVX2 it is one `vpshufb`. Each
//! loop is therefore one `#[inline(always)]` body compiled twice — plain,
//! and inside a `#[target_feature(enable = "avx2")]` function — and each
//! call takes the AVX2 copy when the CPU has it
//! (`is_x86_feature_detected!` caches its answer in a static, so the check
//! is a load and a branch, and allocates nothing). Other targets compile
//! only the plain copy. No build flag is involved, so one binary runs
//! everywhere.
//!
//! The copies agree bit for bit, with one exception below. The body is
//! element-wise: one byte swap per element, and for the add one IEEE
//! single-precision addition per element in element order, with no
//! reassociation across elements and no fused multiply-add. A byte swap
//! is exact, and an IEEE add of two given operands has one correctly
//! rounded result, whatever the vector width. The exception is the
//! payload of NaN + NaN: IEEE 754 and Rust let it be either operand's
//! (quieted), and the compiler may commute an add, so even one copy may
//! pick either. A sum meets it only when two contributions are NaN in the
//! same element.
//! `tests::both_copies_match_the_per_element_reference` holds both copies
//! to a per-element `from_be_bytes` reference, bit for bit, over every
//! length up to a full segment and random bit patterns (NaN payloads, ±0,
//! ±inf, subnormals included), allowing that exception alone.

/// Adds the big-endian f32 values in `bytes` into `acc`, element by
/// element, in element order: `acc[i] += f32::from_be_bytes(bytes[4i..])`.
pub(crate) fn add_be(acc: &mut [f32], bytes: &[u8]) {
    debug_assert_eq!(acc.len() * 4, bytes.len());
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { add_be_avx2(acc, bytes) };
    }
    add_be_body(acc, bytes);
}

/// Writes `values` into `dst` as big-endian f32, four bytes each.
pub(crate) fn write_be(dst: &mut [u8], values: &[f32]) {
    debug_assert_eq!(dst.len(), values.len() * 4);
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { write_be_avx2(dst, values) };
    }
    write_be_body(dst, values);
}

#[inline(always)]
fn add_be_body(acc: &mut [f32], bytes: &[u8]) {
    let (chunks, _) = bytes.as_chunks::<4>();
    for (a, &c) in acc.iter_mut().zip(chunks) {
        *a += f32::from_be_bytes(c);
    }
}

#[inline(always)]
fn write_be_body(dst: &mut [u8], values: &[f32]) {
    let (chunks, _) = dst.as_chunks_mut::<4>();
    for (c, v) in chunks.iter_mut().zip(values) {
        *c = v.to_be_bytes();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_be_avx2(acc: &mut [f32], bytes: &[u8]) {
    add_be_body(acc, bytes);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn write_be_avx2(dst: &mut [u8], values: &[f32]) {
    write_be_body(dst, values);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full f32 segment (`FLOATS_PER_SEGMENT`).
    const MAX_LEN: usize = 366;

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

        /// Random f32 bits, one time in two a special value: a NaN with a
        /// random payload and sign, ±0, ±inf, a subnormal, or a value near
        /// the overflow threshold.
        fn bits(&mut self) -> u32 {
            let r = self.next();
            let sign = (r as u32) & 0x8000_0000;
            let payload = (r >> 32) as u32 & 0x007F_FFFF;
            match (r >> 56) % 12 {
                0 => sign | 0x7F80_0000 | payload.max(1),
                1 => sign,
                2 => sign | 0x7F80_0000,
                3 => sign | payload,
                4 => sign | 0x7F00_0000 | payload,
                5 => sign | 0x7FC0_0000,
                _ => (r >> 16) as u32,
            }
        }
    }

    /// Which copies of a loop this CPU can run, by name.
    type Copies<F> = Vec<(&'static str, F)>;
    type AddFn = fn(&mut [f32], &[u8]);
    type WriteFn = fn(&mut [u8], &[f32]);

    fn add_copies() -> Copies<AddFn> {
        let mut copies: Copies<AddFn> = vec![("plain", add_be_body)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: only called after the check above.
            copies.push(("avx2", |acc, bytes| unsafe { add_be_avx2(acc, bytes) }));
        }
        copies
    }

    fn write_copies() -> Copies<WriteFn> {
        let mut copies: Copies<WriteFn> = vec![("plain", write_be_body)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: only called after the check above.
            copies.push(("avx2", |dst, values| unsafe { write_be_avx2(dst, values) }));
        }
        copies
    }

    #[test]
    fn both_copies_match_the_per_element_reference() {
        let (adds, writes) = (add_copies(), write_copies());
        if adds.len() == 1 {
            eprintln!("this CPU has no AVX2: only the plain copies were checked");
        }
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for len in 0..=MAX_LEN {
            for _ in 0..4 {
                let acc: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.bits())).collect();
                let values: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.bits())).collect();
                let wire: Vec<u8> = values
                    .iter()
                    .flat_map(|v| v.to_bits().to_be_bytes())
                    .collect();

                for (name, add) in &adds {
                    let mut got = acc.clone();
                    add(&mut got, &wire);
                    for (i, (&a, &sum)) in acc.iter().zip(&got).enumerate() {
                        let b = values[i];
                        let want = a + f32::from_be_bytes(wire[4 * i..][..4].try_into().unwrap());
                        let ok = if a.is_nan() && b.is_nan() {
                            // Either operand's payload, quieted.
                            let quiet = |v: f32| v.to_bits() | 0x0040_0000;
                            [quiet(a), quiet(b)].contains(&sum.to_bits())
                        } else {
                            sum.to_bits() == want.to_bits()
                        };
                        assert!(
                            ok,
                            "{name} add at length {len}, element {i}: {a:?} + {b:?} = {sum:?}"
                        );
                    }
                }

                for (name, write) in &writes {
                    let mut got = vec![0u8; len * 4];
                    write(&mut got, &values);
                    assert_eq!(got, wire, "{name} write at length {len}");
                }
            }
        }
    }
}
