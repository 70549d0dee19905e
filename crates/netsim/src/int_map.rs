//! The one hasher of simulator state: one multiply per integer written,
//! instead of SipHash.
//!
//! Every map the simulator keeps on a per-packet path — the switch's open
//! rounds and pending emissions, the hosts' blob trains and round counters,
//! the engine's cancelled timers — is keyed by integers the simulation
//! itself chose (round tags, message ids, IPv4 addresses, timer ids). No
//! adversary picks those keys to aim collisions at a table, so the
//! DoS-resistant default hasher buys nothing there but cost.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IntHasher`]. Keys must hash as a sequence of
/// `u32`/`u64` writes: integers, [`crate::IpAddr`] and tuples of them.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`] (same key rule as [`IntMap`]).
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// The odd 64-bit constant 2^64 / φ: multiplying by it is a bijection.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds each written integer into its state as `state · K ^ x` and
/// finishes with one more multiply. A key of one `u64` therefore hashes to
/// `key · K`, a bijection, so distinct keys never share a hash; a tuple's
/// earlier fields reach the high bits through the multiplies. The table
/// takes its bucket from the hash's low bits, and the low bits of a
/// product see only the low bits of its factor; rotating the well-mixed
/// high half down makes the bucket depend on every bit of every field — a
/// `Seg`'s round tag sits above bit 32.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IntHasher hashes u32 and u64 keys only");
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.wrapping_mul(K) ^ x;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(K).rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn round_tags_reach_the_bucket_bits() {
        // Round r of segment 0 is `r << 32`: the same index in successive
        // rounds must not land in one bucket of a small table.
        let buckets: HashSet<u64> = (0..16u64).map(|r| hash(r << 32) & 15).collect();
        assert!(buckets.len() > 4, "{buckets:?}");
    }

    #[test]
    fn a_u64_key_hashes_to_one_multiply() {
        // The single-integer maps kept this exact hash when tuples and
        // `u32` keys began to fold into the state.
        for key in [0, 1, 7 << 32, u64::MAX] {
            assert_eq!(hash(key), key.wrapping_mul(K).rotate_left(32));
        }
    }

    #[test]
    fn tuple_keys_spread_over_every_field() {
        // A blob train's key: (sender address, tag, message id). Vary one
        // field at a time, as successive rounds or senders do; each must
        // alone fan out over a small table's buckets.
        let key = |src: u32, tag: u32, msg: u32| hash((crate::IpAddr::from_u32(src), tag, msg));
        let base = crate::IpAddr::new(10, 0, 0, 1).as_u32();
        let by_msg: HashSet<u64> = (0..64).map(|m| key(base, 1, m) & 63).collect();
        let by_src: HashSet<u64> = (0..64).map(|s| key(base + s, 1, 0) & 63).collect();
        let by_tag: HashSet<u64> = (0..64).map(|t| key(base, t, 0) & 63).collect();
        for (field, buckets) in [("msg", by_msg), ("src", by_src), ("tag", by_tag)] {
            assert!(buckets.len() > 32, "{field}: {} buckets", buckets.len());
        }
        // Order matters: a permuted tuple is another key.
        assert_ne!(hash((1u32, 2u32)), hash((2u32, 1u32)));
    }
}
