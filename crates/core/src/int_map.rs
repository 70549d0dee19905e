//! A hash map keyed by `u64` that hashes with one multiply instead of
//! SipHash. The switch looks up its open rounds (`Seg` values) and its
//! pending emissions (timer tokens) on every packet; neither key is chosen
//! by an adversary that could aim collisions at the table, so the
//! DoS-resistant default hasher buys nothing there but cost.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap<u64, V>` hashed by [`IntHasher`].
pub(crate) type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// Multiplies the key by an odd 64-bit constant (2^64 / φ), a bijection,
/// so distinct keys never share a hash. The table takes its bucket from
/// the hash's low bits, and the low bits of a product see only the low
/// bits of the key; rotating the well-mixed high half down makes the
/// bucket depend on every bit — a `Seg`'s round tag sits above bit 32.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IntHasher hashes u64 keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn round_tags_reach_the_bucket_bits() {
        // Round r of segment 0 is `r << 32`: the same index in successive
        // rounds must not land in one bucket of a small table.
        let buckets: std::collections::HashSet<u64> =
            (0..16u64).map(|r| hash(r << 32) & 15).collect();
        assert!(buckets.len() > 4, "{buckets:?}");
    }
}
