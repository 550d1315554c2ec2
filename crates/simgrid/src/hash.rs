//! A small deterministic hasher for the simulator's integer-keyed
//! tables: client ids, command tokens and probe readings.
//!
//! `std`'s default SipHash is keyed per process to resist flooding by
//! adversarial keys; a world's keys are its own small integers, so it
//! pays for a defence it does not need on every lookup. [`IdHasher`] is
//! a multiply-rotate hash (the `rustc-hash` construction): one add and
//! one multiply per word, and the same hash in every process. Nothing
//! keyed by it may be iterated where order reaches an output — use it
//! for lookup tables only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for integer keys. Deterministic: no
/// per-process seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// An odd constant with well-spread bits (from `rustc-hash`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits at the top; the table
        // indexes by the bottom ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn same_key_same_hash_in_every_map() {
        let a = BuildHasherDefault::<IdHasher>::default();
        let b = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(a.hash_one((7usize, 9u64)), b.hash_one((7usize, 9u64)));
        assert_ne!(a.hash_one((7usize, 9u64)), a.hash_one((9usize, 7u64)));
    }

    #[test]
    fn sequential_keys_spread_over_the_low_bits() {
        // A table of 1 024 slots indexes by the low ten bits: a
        // population's client ids must not pile into a few of them.
        let h = BuildHasherDefault::<IdHasher>::default();
        let mut slots = std::collections::HashSet::new();
        for client in 0..1_024usize {
            slots.insert(h.hash_one((client, 1u64)) & 1_023);
        }
        assert!(slots.len() > 600, "{} of 1024 slots used", slots.len());
    }
}
