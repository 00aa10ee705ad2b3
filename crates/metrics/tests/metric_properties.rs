//! Property tests for the metric machinery: the accuracy numbers the
//! whole evaluation rests on must themselves obey their definitions.

use std::collections::{HashMap, HashSet};

use rtdac_check::prelude::*;
use rtdac_metrics::{detection, representability, FrequencyCdf, OptimalCurve};
use rtdac_types::{Extent, ExtentPair};

fn pair(i: u64) -> ExtentPair {
    ExtentPair::new(
        Extent::new(i * 16, 1).expect("valid"),
        Extent::new(i * 16 + 7, 1).expect("valid"),
    )
    .expect("distinct")
}

fn counts_strategy() -> impl Strategy<Value = HashMap<ExtentPair, u32>> {
    prop::collection::vec(1u32..50, 0..60).prop_map(|freqs| {
        freqs
            .into_iter()
            .enumerate()
            .map(|(i, f)| (pair(i as u64), f))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Both CDF lines are monotone non-decreasing in frequency and end
    /// at exactly 1 (when non-empty).
    #[test]
    fn cdf_lines_are_monotone_to_one(counts in counts_strategy()) {
        let cdf = FrequencyCdf::from_counts(&counts);
        let points = cdf.points();
        for w in points.windows(2) {
            prop_assert!(w[0].frequency < w[1].frequency);
            prop_assert!(w[0].unique_fraction <= w[1].unique_fraction);
            prop_assert!(w[0].weighted_fraction <= w[1].weighted_fraction);
        }
        if let Some(last) = points.last() {
            prop_assert!((last.unique_fraction - 1.0).abs() < 1e-9);
            prop_assert!((last.weighted_fraction - 1.0).abs() < 1e-9);
        }
    }

    /// The unique line always leads (or ties) the weighted line: a pair
    /// counted once contributes more to "unique" mass than to weighted
    /// mass whenever heavier pairs exist.
    #[test]
    fn unique_leads_weighted(counts in counts_strategy()) {
        let cdf = FrequencyCdf::from_counts(&counts);
        for point in cdf.points() {
            prop_assert!(
                point.unique_fraction >= point.weighted_fraction - 1e-9,
                "at frequency {}",
                point.frequency
            );
        }
    }

    /// The optimal curve really is optimal: no subset of n pairs covers
    /// more mass than optimal_fraction(n).
    #[test]
    fn optimal_dominates_any_subset(
        counts in counts_strategy(),
        selector in prop::collection::vec(prop::bool::ANY, 0..60),
    ) {
        let curve = OptimalCurve::from_counts(&counts);
        let chosen: HashSet<ExtentPair> = counts
            .keys()
            .zip(selector.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, &take)| take)
            .map(|(p, _)| *p)
            .collect();
        let covered: u64 = chosen.iter().map(|p| u64::from(counts[p])).sum();
        let total = curve.total_occurrences().max(1);
        let fraction = covered as f64 / total as f64;
        prop_assert!(
            curve.optimal_fraction(chosen.len()) >= fraction - 1e-9,
            "subset of {} beats the optimal curve",
            chosen.len()
        );
    }

    /// min_size_for_fraction is the true inverse of optimal_fraction.
    #[test]
    fn min_size_inverts_optimal(counts in counts_strategy(), percent in 0u32..=100) {
        let curve = OptimalCurve::from_counts(&counts);
        let fraction = f64::from(percent) / 100.0;
        if let Some(n) = curve.min_size_for_fraction(fraction) {
            prop_assert!(curve.optimal_fraction(n) >= fraction - 1e-9);
            if n > 0 {
                prop_assert!(curve.optimal_fraction(n - 1) < fraction);
            }
        }
    }

    /// Representability's versus-optimal ratio is in [0, 1] (nothing
    /// beats optimal) whenever the stored set is drawn from the truth.
    #[test]
    fn versus_optimal_is_bounded(
        counts in counts_strategy(),
        selector in prop::collection::vec(prop::bool::ANY, 0..60),
    ) {
        let stored: HashSet<ExtentPair> = counts
            .keys()
            .zip(selector.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, &take)| take)
            .map(|(p, _)| *p)
            .collect();
        let r = representability(&stored, &counts);
        prop_assert!(r.captured_fraction >= -1e-9);
        prop_assert!(r.captured_fraction <= 1.0 + 1e-9);
        if !stored.is_empty() && !counts.is_empty() {
            prop_assert!(r.versus_optimal <= 1.0 + 1e-9, "beat optimal: {r:?}");
        }
    }

    /// detection() is symmetric in the expected way: swapping detected
    /// and truth swaps precision and recall.
    #[test]
    fn detection_swap_symmetry(
        sel_a in prop::collection::vec(prop::bool::ANY, 20),
        sel_b in prop::collection::vec(prop::bool::ANY, 20),
    ) {
        let set = |sel: &[bool]| -> HashSet<ExtentPair> {
            sel.iter()
                .enumerate()
                .filter(|(_, &take)| take)
                .map(|(i, _)| pair(i as u64))
                .collect()
        };
        let a = set(&sel_a);
        let b = set(&sel_b);
        if !a.is_empty() && !b.is_empty() {
            let fwd = detection(&a, &b);
            let rev = detection(&b, &a);
            prop_assert!((fwd.recall - rev.precision).abs() < 1e-12);
            prop_assert!((fwd.precision - rev.recall).abs() < 1e-12);
            prop_assert_eq!(fwd.hits, rev.hits);
        }
    }
}
