//! A fast, deterministic hasher for simulation-state maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with a per-process random
//! key) is designed to survive adversarial keys from the network; the
//! simulator's keys are its own small integer ids, so that robustness buys
//! nothing and its cost dominates hot paths that build or probe large maps
//! (seeding 100 peers × 10 AUs × 99 reputation entries is ~100k inserts
//! per world build; every message delivery probes the node→peer map).
//!
//! [`FxHasher`] is the word-at-a-time multiply-rotate hash the Rust
//! compiler itself uses for exactly this workload. It is fully
//! deterministic, which is a *feature* here: nothing about a run may depend
//! on hash order anyway (the determinism suite enforces byte-identical
//! output across runs, which a randomized hasher would break if order ever
//! leaked), and a fixed hasher keeps any accidental order dependence
//! reproducible instead of flaky.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The `fxhash` multiplier (a 64-bit odd constant with good avalanche
/// behaviour under multiply-rotate mixing).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The rustc-style Fx word hasher.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            self.add(u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Mix the tail length so inputs differing only in trailing
            // zero bytes don't collide.
            self.add(rest.len() as u64 ^ u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An [`FxHashMap`] pre-sized for `n` entries: a bulk builder pays one
/// table allocation instead of a growth cascade.
pub fn with_capacity<K, V>(n: usize) -> FxHashMap<K, V> {
    HashMap::with_capacity_and_hasher(n, FxBuildHasher::default())
}

/// Control bytes past the last bucket: one SIMD group, mirrored so a probe
/// never wraps.
const GROUP_WIDTH: usize = 16;

/// Approximate heap of a map, as `(slot bytes, control bytes)`.
///
/// `std`'s table is a SwissTable: a power-of-two bucket array loaded to at
/// most 7/8 (below 8 buckets, to all but one), one control byte per bucket
/// and a trailing group. Its `capacity()` is that load limit, so the
/// bucket count is read back from it.
pub fn heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> (usize, usize) {
    let buckets = match map.capacity() {
        0 => return (0, 0),
        cap if cap < 8 => cap + 1,
        cap => cap / 7 * 8,
    };
    (
        buckets * std::mem::size_of::<(K, V)>(),
        buckets + GROUP_WIDTH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_and_is_deterministic() {
        let mut a: FxHashMap<u64, u32> = FxHashMap::default();
        let mut b: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            a.insert(i, i as u32 * 3);
            b.insert(i, i as u32 * 3);
        }
        assert_eq!(a.len(), 1000);
        assert_eq!(a.get(&500), Some(&1500));
        assert!(a.keys().eq(b.keys()), "fixed hasher implies fixed order");
    }

    /// The bucket count read back from `capacity()` is a power of two
    /// that holds the map's entries, at every size a table grows through.
    #[test]
    fn heap_bytes_reads_a_power_of_two_bucket_count() {
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        assert_eq!(heap_bytes(&map), (0, 0));
        for i in 0..5000u64 {
            map.insert(i, i);
            let (slots, control) = heap_bytes(&map);
            let buckets = control - GROUP_WIDTH;
            assert!(buckets.is_power_of_two(), "{} entries", map.len());
            assert!(buckets > map.len());
            assert_eq!(slots, buckets * 16);
        }
    }

    #[test]
    fn nearby_keys_spread() {
        // Sequential small integers (the simulator's ids) must not collide
        // in the low bits the table indexes by.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(i);
                h.finish()
            })
            .collect();
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 0x3f).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 32, "low bits too collision-prone: {low:?}");
    }

    #[test]
    fn byte_stream_matches_itself_across_chunkings() {
        let mut one = FxHasher::default();
        one.write(b"hello world, hashing");
        let mut two = FxHasher::default();
        two.write(b"hello world, hashing");
        assert_eq!(one.finish(), two.finish());
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0\0"));
        assert_ne!(hash(b"12345678\x01"), hash(b"12345678\x01\0"));
    }
}
