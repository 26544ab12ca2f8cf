//! The Fx hasher (from Firefox, by way of rustc): one rotate, xor and
//! multiply per word, with no key.
//!
//! The e-graph's id-keyed tables (the class table and operator index of
//! [`EGraph`](crate::EGraph), analysis memos) and the e-matching VM's
//! per-class dedup set are hit on every match, add and rebuild step, where
//! std's SipHash runs several mixing rounds per key. Their keys are ids the
//! e-graph creates itself, or terms deduplicated within one class's matches,
//! so crafted collisions have nothing to flood. The hash-cons memo and the
//! explanation forest, whose keys carry symbol names from requests and live
//! as long as the graph, keep std's keyed hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Odd multiplier of the Fx hash (rustc's `FxHasher` uses the same).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher for keys the program
/// creates itself (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Id;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fx(Id::from_index(7)), fx(Id::from_index(7)));
        assert_ne!(fx(Id::from_index(7)), fx(Id::from_index(8)));
        assert_ne!(fx((Id::from_index(1), 2u32)), fx((Id::from_index(2), 1u32)));
        // Byte input: a short tail counts, and so does a full word.
        assert_ne!(fx("shift"), fx("shifts"));
        assert_ne!(fx("12345678"), fx("12345679"));
    }

    #[test]
    fn maps_work_with_id_keys() {
        let mut map: FxHashMap<Id, usize> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(Id::from_index(i), i);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|i| map[&Id::from_index(i)] == i));
        let set: FxHashSet<u64> = (0..10).collect();
        assert!(set.contains(&9) && !set.contains(&10));
    }
}
