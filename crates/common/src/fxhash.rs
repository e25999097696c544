//! The FxHash hasher (the multiplicative scheme rustc uses internally) for
//! in-memory, per-key hash maps and shard selection.
//!
//! Keys hashed on the commit and read paths are small, fixed-size values:
//! FxHash is a rotate, a xor and a multiply per word, where SipHash runs
//! several mixing rounds per key.  The price is SipHash's resistance to keys
//! crafted to collide — the table keys of a stream are that stream's data,
//! so a source an adversary controls could lengthen chains; the MVCC key
//! index made that trade first.  The output is *not* stable across builds
//! of the standard library's `Hash` impls, so anything that must agree
//! across processes (partition routing, on-disk layouts) keeps its own
//! stable hash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative hasher: `hash = (hash.rotl(5) ^ word) * SEED` per word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product with its top 24 bits folded into the low ones.  A
    /// product's low bits depend only on the key's low bits, so they are
    /// zero whenever the key's are: keys `k << 16` all fall into one of
    /// every 65,536 buckets of a map that masks the low bits, as `HashMap`
    /// does.  After the fold, the bucket index of a table of up to 2²⁴
    /// buckets takes in the product's best-mixed bits, and the top 40 bits
    /// that [`fx_shard`] and the map's control tag read stay as they are.
    /// (Folding the high half, `>> 32`, brings in middle bits instead: keys
    /// `k << 16` then fill only 47 % of 4,096 buckets, against 70 % here.)
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 40)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// The [`FxHasher`] hash of `value`.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Which of `shards` shards `value` belongs to.
///
/// The index is taken from the hash's *high* bits (`hash · shards / 2⁶⁴`):
/// a multiplicative hash mixes into the high bits, and an [`FxHashMap`]
/// inside the shard picks its buckets from the low ones, so sharding on
/// the low bits would leave each shard's map using a fraction of its
/// buckets.
#[inline]
pub fn fx_shard<T: Hash + ?Sized>(value: &T, shards: usize) -> usize {
    ((u128::from(fx_hash(value)) * shards as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equally_and_words_mix() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&1u64), fx_hash(&2u64));
        assert_ne!(fx_hash(&(1u32, 2u32)), fx_hash(&(2u32, 1u32)));
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        map.insert(7, 70);
        assert_eq!(map.get(&7), Some(&70));
    }

    #[test]
    fn shards_spread_sequential_keys() {
        let mut counts = [0usize; 64];
        for k in 0u32..64_000 {
            let s = fx_shard(&k, 64);
            assert!(s < 64);
            counts[s] += 1;
        }
        // Every shard gets a fair share (1,000 on average).
        assert!(counts.iter().all(|&c| c > 500), "{counts:?}");
    }

    #[test]
    fn low_bits_spread_keys_with_zero_low_bits() {
        let mut used = vec![false; 4096];
        for k in 0u64..4096 {
            used[(fx_hash(&(k << 16)) & 4095) as usize] = true;
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > 2048, "{filled} of 4096 buckets");
    }
}
