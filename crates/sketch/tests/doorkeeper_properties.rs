//! Property tests for the [`Doorkeeper`] admission sketch: the
//! blocked, nibble-packed counter math must honor the Count-Min
//! guarantees (never undercount), the nibble-parallel halving must
//! match a scalar per-counter oracle exactly, and saturation must stay
//! confined to the 4-bit lane — a counter pinned at 15 can never carry
//! into its neighbor.

use std::collections::HashMap;

use rtdac_check::prelude::*;
use rtdac_sketch::{Doorkeeper, COUNTER_MAX};

/// A watermark far above anything the tests insert, so aging never
/// fires unless a test asks for it.
const NO_AGING: u64 = u64::MAX;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// With aging disabled, the doorkeeper never undercounts any key
    /// while its true count is below the 4-bit ceiling (the Count-Min
    /// one-sidedness the admission threshold relies on).
    #[test]
    fn never_undercounts_below_saturation(
        counters in 1usize..2048,
        stream in prop::collection::vec(0u16..48, 0..400),
    ) {
        let mut dk = Doorkeeper::with_counters(counters, NO_AGING);
        let mut truth: HashMap<u16, u32> = HashMap::new();
        for &key in &stream {
            dk.insert(&key);
            *truth.entry(key).or_insert(0) += 1;
        }
        for (key, &count) in &truth {
            if count <= COUNTER_MAX {
                prop_assert!(
                    dk.estimate(key) >= count,
                    "key {key}: estimate {} < true {count}",
                    dk.estimate(key)
                );
            }
        }
    }

    /// The nibble-parallel halving (`(w >> 1) & 0x7777…`) equals the
    /// scalar oracle — every counter independently floor-halved — for
    /// arbitrary sketch states, and restarts the insertion watermark.
    #[test]
    fn halving_matches_scalar_oracle(
        counters in 1usize..2048,
        stream in prop::collection::vec(0u32..96, 0..400),
    ) {
        let mut dk = Doorkeeper::with_counters(counters, NO_AGING);
        for key in &stream {
            dk.insert(key);
        }
        let before = dk.counter_values();
        dk.halve();
        let halved = dk.counter_values();
        prop_assert_eq!(halved.len(), before.len());
        for (i, (&b, &h)) in before.iter().zip(&halved).enumerate() {
            prop_assert_eq!(h, b / 2, "counter {i}: {b} halved to {h}");
        }
        prop_assert_eq!(dk.insertions_since_halving(), 0);
    }

    /// Counters saturate at 15 and stay in their 4-bit lane: after any
    /// stream no counter exceeds [`COUNTER_MAX`], and hammering one
    /// already-saturated key leaves the entire counter array untouched
    /// (no increment escapes into a neighboring nibble).
    #[test]
    fn saturates_at_15_without_neighbor_carry(
        counters in 1usize..2048,
        stream in prop::collection::vec(0u16..48, 0..300),
        hot in 0u16..48,
        hammer in 1u32..64,
    ) {
        let mut dk = Doorkeeper::with_counters(counters, NO_AGING);
        for &key in &stream {
            dk.insert(&key);
        }
        // Drive one key to full saturation (4-bit ceiling on all four
        // of its counters), then hammer it some more.
        for _ in 0..=COUNTER_MAX {
            dk.insert(&hot);
        }
        prop_assert!(dk.counter_values().iter().all(|&c| c <= COUNTER_MAX));
        prop_assert_eq!(dk.estimate(&hot), COUNTER_MAX);

        let frozen = dk.counter_values();
        for _ in 0..hammer {
            prop_assert_eq!(dk.insert(&hot), COUNTER_MAX);
        }
        prop_assert_eq!(
            dk.counter_values(),
            frozen,
            "inserting a saturated key mutated the sketch"
        );
    }
}
