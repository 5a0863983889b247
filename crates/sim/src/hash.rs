//! A hasher for maps keyed by simulator-minted integer ids.
//!
//! Packet, TLP, queue-pair and node ids are counters the simulation hands
//! out itself, never input an adversary could craft, so the per-lookup cost
//! of `std`'s SipHash buys nothing on the per-packet path. One multiply per
//! word, rotated so the bucket index draws on the product's high bits,
//! spreads sequential ids and ids that differ only in their top bits
//! (node-tagged TLP ids) alike.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// A `HashMap` keyed by simulator ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of simulator ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn node_tagged_ids_land_in_distinct_buckets() {
        // Ids equal in their low bits and differing only in the node tag
        // (bits 48+) must not share the low bits a small table indexes by.
        let mask = 0xFFF;
        let a = hash_of(7u64) & mask;
        let b = hash_of(7u64 | 1 << 62 | 1 << 48) & mask;
        assert_ne!(a, b);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..10_000u64 {
            m.insert(i << 20 | i, i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|i| m.get(&(i << 20 | i)) == Some(&i)));
        let mut s: IdSet<u32> = IdSet::default();
        assert!(s.insert(3) && !s.insert(3));
    }
}
