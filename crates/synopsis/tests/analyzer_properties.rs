//! Property tests for the online analyzer's global invariants under
//! arbitrary transaction streams.

use std::collections::{HashMap, HashSet};

use rtdac_check::prelude::*;
use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
use rtdac_types::{Extent, ExtentPair, Timestamp, Transaction};

fn txn_strategy() -> impl Strategy<Value = Transaction> {
    // Extents from a small universe so correlations recur.
    prop::collection::vec((0u64..40, 1u32..4), 1..8).prop_map(|items| {
        Transaction::from_extents(
            Timestamp::ZERO,
            items
                .into_iter()
                .map(|(start, len)| Extent::new(start * 8, len).expect("valid extent")),
        )
    })
}

/// Exact pair counts over a transaction stream (the unbounded oracle).
fn true_counts(txns: &[Transaction]) -> HashMap<ExtentPair, u32> {
    let mut counts = HashMap::new();
    for txn in txns {
        for pair in txn.unique_pairs() {
            *counts.entry(pair).or_insert(0) += 1;
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The synopsis only undercounts: a resident pair's tally never
    /// exceeds its true co-occurrence count (evictions lose history,
    /// they never invent it).
    #[test]
    fn tallies_never_exceed_truth(
        txns in prop::collection::vec(txn_strategy(), 0..60),
        capacity in 1usize..32,
    ) {
        let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(capacity));
        for txn in &txns {
            analyzer.process(txn);
        }
        let truth = true_counts(&txns);
        for (pair, tally, _) in &analyzer.snapshot().pairs {
            let true_count = truth.get(pair).copied().unwrap_or(0);
            prop_assert!(
                *tally <= true_count,
                "pair {pair} tallied {tally} > true {true_count}"
            );
        }
    }

    /// With tables large enough to never evict, the synopsis IS the
    /// oracle: every pair resident with its exact count.
    #[test]
    fn unbounded_table_is_exact(
        txns in prop::collection::vec(txn_strategy(), 0..60),
    ) {
        let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(100_000));
        for txn in &txns {
            analyzer.process(txn);
        }
        let truth = true_counts(&txns);
        let snapshot = analyzer.snapshot();
        prop_assert_eq!(snapshot.pairs.len(), truth.len());
        for (pair, tally, _) in &snapshot.pairs {
            prop_assert_eq!(Some(tally), truth.get(pair).as_ref().copied());
        }
    }

    /// Table sizes respect their configured bounds at every step.
    #[test]
    fn capacity_bounds_hold(
        txns in prop::collection::vec(txn_strategy(), 0..60),
        capacity in 1usize..16,
    ) {
        let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(capacity));
        for txn in &txns {
            analyzer.process(txn);
            prop_assert!(analyzer.item_table().len() <= 2 * capacity);
            prop_assert!(analyzer.correlation_table().len() <= 2 * capacity);
        }
    }

    /// `correlated_with` agrees with `frequent_pairs`: the per-extent
    /// point query and the global scan expose the same information.
    #[test]
    fn point_query_matches_global_scan(
        txns in prop::collection::vec(txn_strategy(), 0..40),
        min_tally in 1u32..4,
    ) {
        let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(64));
        for txn in &txns {
            analyzer.process(txn);
        }
        let global: HashSet<(ExtentPair, u32)> =
            analyzer.frequent_pairs(min_tally).into_iter().collect();
        // Rebuild the global set from point queries over every extent
        // seen.
        let mut rebuilt: HashSet<(ExtentPair, u32)> = HashSet::new();
        let extents: HashSet<Extent> = global
            .iter()
            .flat_map(|(p, _)| [p.first(), p.second()])
            .collect();
        for extent in extents {
            for (partner, tally) in analyzer.correlated_with(&extent, min_tally) {
                rebuilt.insert((
                    ExtentPair::new(extent, partner).expect("distinct"),
                    tally,
                ));
            }
        }
        prop_assert_eq!(rebuilt, global);
    }

    /// Processing is insensitive to duplicate extents within a
    /// transaction (the §III-D2 dedup requirement).
    #[test]
    fn duplicates_within_transaction_are_inert(
        extents in prop::collection::vec(0u64..20, 1..6),
    ) {
        let base: Vec<Extent> = extents.iter().map(|&s| Extent::block(s)).collect();
        let mut doubled = base.clone();
        doubled.extend(base.iter().copied());

        let mut a = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(64));
        a.process(&Transaction::from_extents(Timestamp::ZERO, base));
        let mut b = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(64));
        b.process(&Transaction::from_extents(Timestamp::ZERO, doubled));

        prop_assert_eq!(a.snapshot(), b.snapshot());
    }
}
