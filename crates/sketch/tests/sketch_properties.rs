//! Property tests for the sketch guarantees.

use std::collections::HashMap;

use rtdac_check::prelude::*;
use rtdac_sketch::{CountMinSketch, SpaceSaving};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Count-Min never undercounts any key, at any dimensions.
    #[test]
    fn cms_estimates_are_one_sided(
        width in 1usize..64,
        depth in 1usize..5,
        stream in prop::collection::vec(0u16..64, 0..400),
    ) {
        let mut cms = CountMinSketch::new(width, depth);
        let mut truth: HashMap<u16, u32> = HashMap::new();
        for &key in &stream {
            cms.insert(&key);
            *truth.entry(key).or_insert(0) += 1;
        }
        for (key, &count) in &truth {
            prop_assert!(cms.estimate(key) >= count, "key {key}");
        }
        prop_assert_eq!(cms.total(), stream.len() as u64);
    }

    /// Count-Min overcounting is bounded by total inserted mass (a
    /// trivially true but structure-checking cap) and exact when there
    /// is only a single distinct key.
    #[test]
    fn cms_single_key_is_exact(
        count in 0u32..500,
        width in 1usize..32,
        depth in 1usize..5,
    ) {
        let mut cms = CountMinSketch::new(width, depth);
        cms.insert_many(&42u64, count);
        prop_assert_eq!(cms.estimate(&42u64), count);
    }

    /// Space-Saving: estimates bracket the truth
    /// (`count - error <= true <= count`), the key budget holds, and
    /// every key with true frequency > N/capacity is tracked.
    #[test]
    fn spacesaving_guarantees(
        capacity in 1usize..16,
        stream in prop::collection::vec(0u16..32, 0..400),
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: HashMap<u16, u64> = HashMap::new();
        for &key in &stream {
            ss.insert(key);
            *truth.entry(key).or_insert(0) += 1;
            prop_assert!(ss.len() <= capacity);
        }
        let n = stream.len() as u64;
        for (key, &true_count) in &truth {
            match ss.get(key) {
                Some(counter) => {
                    prop_assert!(counter.count >= true_count, "upper bound for {key}");
                    prop_assert!(
                        counter.count - counter.error <= true_count,
                        "lower bound for {key}"
                    );
                }
                None => {
                    // An untracked key cannot be a heavy hitter.
                    prop_assert!(
                        true_count <= n / capacity as u64,
                        "heavy key {key} ({true_count}/{n}) untracked at capacity {capacity}"
                    );
                }
            }
        }
    }

    /// `guaranteed_at_least` never reports a key whose true count is
    /// below the threshold (no false positives on the guarantee).
    #[test]
    fn spacesaving_guaranteed_has_no_false_positives(
        capacity in 1usize..12,
        threshold in 1u64..20,
        stream in prop::collection::vec(0u16..24, 0..300),
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: HashMap<u16, u64> = HashMap::new();
        for &key in &stream {
            ss.insert(key);
            *truth.entry(key).or_insert(0) += 1;
        }
        for (key, counter) in ss.guaranteed_at_least(threshold) {
            let true_count = truth.get(&key).copied().unwrap_or(0);
            prop_assert!(
                true_count >= counter.count - counter.error,
                "false positive: {key}"
            );
            prop_assert!(counter.count - counter.error >= threshold);
        }
    }
}
