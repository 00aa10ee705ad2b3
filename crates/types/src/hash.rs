//! A fast, deterministic `BuildHasher` for the framework's hot hash maps.
//!
//! The default `std::collections::HashMap` hasher (SipHash-1-3) is keyed
//! and DoS-resistant, but costs tens of nanoseconds per small key — the
//! dominant cost of a synopsis `record()` whose keys are one or two
//! extents (12–24 bytes). The synopsis tables index *disk block numbers*
//! produced by a trusted block layer, not attacker-controlled strings, so
//! the ingestion pipeline trades DoS resistance for an FxHash-style
//! multiply-xor hash: one rotate, one xor and one multiply per 8-byte
//! word.
//!
//! The hash is fully deterministic (no per-process random state), which
//! the sharded pipeline additionally relies on: shard routing must assign
//! a given [`ExtentPair`](crate::ExtentPair) to the same shard in every
//! process and on every run, so that snapshots and benchmark trajectories
//! are reproducible.
//!
//! # Examples
//!
//! ```
//! use rtdac_types::{Extent, FxHashMap};
//!
//! let mut tallies: FxHashMap<Extent, u32> = FxHashMap::default();
//! *tallies.entry(Extent::new(100, 4)?).or_insert(0) += 1;
//! assert_eq!(tallies.len(), 1);
//! # Ok::<(), rtdac_types::ExtentError>(())
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier of rustc's FxHash: `2^64 / φ`, an odd constant whose
/// high bits avalanche well under multiplication.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: `state = (rotl5(state) ^ word) * K` per
/// 8-byte word. Deterministic, unkeyed, and extremely cheap on the short
/// integer keys (extents, pairs, PIDs) this workspace hashes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
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
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; plug into any `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`] — the default map of every hot path
/// (the decoder's pairing index) and of the analyzer's cold orphan
/// roots.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes any `Hash` value with the deterministic Fx algorithm. This is
/// the routing function of the sharded pipeline: equal values hash
/// equally in every process, every run.
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Extent;

    #[test]
    fn stable_across_hasher_instances() {
        let e = Extent::new(123_456, 8).unwrap();
        assert_eq!(fx_hash(&e), fx_hash(&e));
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        e.hash(&mut a);
        e.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn pinned_values_guard_algorithm_changes() {
        // The sharded pipeline's routing and the committed benchmark
        // trajectories depend on this exact hash function; if these
        // values change, shard assignment changes with them.
        assert_eq!(fx_hash(&0u64), 0);
        assert_eq!(fx_hash(&1u64), K);
        assert_eq!(fx_hash(&0xdead_beefu64), 0xdead_beef_u64.wrapping_mul(K));
    }

    #[test]
    fn adjacent_extents_hash_distinct() {
        let mut seen = std::collections::HashSet::new();
        for start in 0..4096u64 {
            let e = Extent::new(start, 1).unwrap();
            assert!(seen.insert(fx_hash(&e)), "collision at start {start}");
        }
        // Same start, different length is a different extent and must
        // hash differently too.
        let a = Extent::new(77, 1).unwrap();
        let b = Extent::new(77, 2).unwrap();
        assert_ne!(fx_hash(&a), fx_hash(&b));
    }

    #[test]
    fn shard_routing_is_roughly_balanced() {
        const SHARDS: usize = 8;
        let mut counts = [0usize; SHARDS];
        for start in 0..8_000u64 {
            let e = Extent::new(start * 3, 4).unwrap();
            counts[(fx_hash(&e) % SHARDS as u64) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&count),
                "shard {shard} got {count} of 8000"
            );
        }
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(
            fx_hash(&b"abcdefgh".as_slice()),
            fx_hash(&b"abcdefgh1".as_slice())
        );
        assert_ne!(fx_hash(&b"1".as_slice()), fx_hash(&b"2".as_slice()));
    }
}
