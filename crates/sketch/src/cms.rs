//! Count-Min sketch (Cormode & Muthukrishnan, 2005): a sub-linear
//! frequency estimator with one-sided error.

use std::hash::Hash;

use rtdac_types::fx_hash;

/// A Count-Min sketch over hashable keys.
///
/// Estimates never undercount: `estimate(k) >= true_count(k)`, with
/// overcounting bounded (w.h.p.) by `e·N/width` where `N` is the total
/// inserted count.
///
/// # Examples
///
/// ```
/// use rtdac_sketch::CountMinSketch;
///
/// let mut cms = CountMinSketch::new(1024, 4);
/// for _ in 0..5 {
///     cms.insert(&"hot");
/// }
/// assert!(cms.estimate(&"hot") >= 5);
/// ```
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: Vec<u32>,
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch of `depth` rows of `width` counters each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0, "sketch width must be positive");
        assert!(depth > 0, "sketch depth must be positive");
        CountMinSketch {
            width,
            depth,
            counters: vec![0; width * depth],
            total: 0,
        }
    }

    /// Sketch dimensioned for error factor `epsilon` and failure
    /// probability `delta` (`width = ⌈e/ε⌉`, `depth = ⌈ln 1/δ⌉`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1` and `0 < delta < 1`.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        CountMinSketch::new(width, depth)
    }

    /// The counter index of `key_hash` in `row`. The key is hashed
    /// *once* per probe (see [`insert_many`](CountMinSketch::insert_many));
    /// each row remixes that one hash with a row-salted splitmix-style
    /// finalizer, so the rows still behave as independent hash
    /// functions without re-walking the key per row.
    #[inline]
    fn row_index(&self, key_hash: u64, row: usize) -> usize {
        let mut x = key_hash.wrapping_add((row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        row * self.width + (x % self.width as u64) as usize
    }

    /// Adds one occurrence of `key`.
    pub fn insert<K: Hash>(&mut self, key: &K) {
        self.insert_many(key, 1);
    }

    /// Adds `count` occurrences of `key`.
    pub fn insert_many<K: Hash>(&mut self, key: &K, count: u32) {
        let h = fx_hash(key);
        for row in 0..self.depth {
            let idx = self.row_index(h, row);
            self.counters[idx] = self.counters[idx].saturating_add(count);
        }
        self.total += u64::from(count);
    }

    /// The estimated count of `key` (never below the true count).
    pub fn estimate<K: Hash>(&self, key: &K) -> u32 {
        let h = fx_hash(key);
        (0..self.depth)
            .map(|row| self.counters[self.row_index(h, row)])
            .min()
            .expect("depth >= 1")
    }

    /// Total occurrences inserted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint of the counter array in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u32>()
    }

    /// Sketch width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth (rows).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_one_sided() {
        let mut cms = CountMinSketch::new(64, 4);
        for key in 0u64..200 {
            for _ in 0..(key % 7 + 1) {
                cms.insert(&key);
            }
        }
        for key in 0u64..200 {
            assert!(cms.estimate(&key) >= (key % 7 + 1) as u32, "key {key}");
        }
    }

    #[test]
    fn wide_sketch_is_nearly_exact() {
        let mut cms = CountMinSketch::new(16_384, 4);
        for key in 0u64..100 {
            cms.insert_many(&key, 10);
        }
        for key in 0u64..100 {
            assert_eq!(cms.estimate(&key), 10, "key {key}");
        }
    }

    #[test]
    fn with_error_dimensions() {
        let cms = CountMinSketch::with_error(0.001, 0.01);
        assert!(cms.width() >= 2718);
        assert!(cms.depth() >= 4);
    }

    #[test]
    fn unseen_keys_can_only_overcount() {
        let mut cms = CountMinSketch::new(8, 2); // tiny: collisions certain
        for key in 0u64..100 {
            cms.insert(&key);
        }
        // Estimates for unseen keys are >= 0 by type; just confirm the
        // sketch does not panic and totals add up.
        assert_eq!(cms.total(), 100);
        let _ = cms.estimate(&u64::MAX);
    }

    #[test]
    fn memory_accounting() {
        let cms = CountMinSketch::new(1024, 4);
        assert_eq!(cms.memory_bytes(), 1024 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        CountMinSketch::new(0, 1);
    }
}
