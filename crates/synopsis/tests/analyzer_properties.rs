//! Property tests for the online analyzer's global invariants under
//! arbitrary transaction streams.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use rtdac_check::prelude::*;
use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer, ReferenceAnalyzer, SynopsisSnapshot};
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

/// The work share a single-shard router hands `process_routed`: the
/// transaction's extents deduplicated in arrival order, and every pair
/// in `(i, j)` enumeration order.
fn routed_share(txn: &Transaction) -> (Vec<Extent>, Vec<ExtentPair>) {
    let mut extents: Vec<Extent> = Vec::new();
    for item in txn.items() {
        if !extents.contains(&item.extent) {
            extents.push(item.extent);
        }
    }
    let mut pairs = Vec::new();
    for i in 0..extents.len() {
        for j in (i + 1)..extents.len() {
            pairs.push(ExtentPair::new(extents[i], extents[j]).expect("distinct"));
        }
    }
    (extents, pairs)
}

/// `correlated_with(extent, 1)` rebuilt from a scan of the correlation
/// table, in the query's order.
fn scanned_partners(analyzer: &OnlineAnalyzer, extent: &Extent) -> Vec<(Extent, u32)> {
    let mut partners: Vec<(Extent, u32)> = analyzer
        .correlation_table()
        .iter()
        .filter_map(|(pair, tally, _)| Some((pair.other(extent)?, tally)))
        .collect();
    partners.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    partners
}

/// Differential check at capacities small enough that item evictions
/// demote stored pairs constantly: after every transaction, `process`,
/// `process_routed`, a copy periodically round-tripped through
/// `SynopsisSnapshot::capture` → `reseed(…, 1)` and the
/// `ReferenceAnalyzer` oracle must agree order-exactly; the partner
/// chains must pass their structural check; and `correlated_with` must
/// match a table scan. The suite must actually exercise correlated
/// demotion, so their total is asserted positive.
#[test]
fn small_tables_match_reference_order_exactly() {
    let demotions = Cell::new(0u64);
    let strategy = (
        1usize..13,
        1usize..25,
        2u32..4,
        prop::collection::vec(txn_strategy(), 0..120),
    );
    let result = rtdac_check::check(
        &ProptestConfig::with_cases(96),
        &strategy,
        |(item_capacity, pair_capacity, threshold, txns)| {
            let config = AnalyzerConfig::with_capacity(pair_capacity)
                .item_capacity(item_capacity)
                .promote_threshold(threshold);
            let mut direct = OnlineAnalyzer::new(config.clone());
            let mut routed = OnlineAnalyzer::new(config.clone());
            let mut reseeded = OnlineAnalyzer::new(config.clone());
            let mut reference = ReferenceAnalyzer::new(config.clone());
            for (step, txn) in txns.iter().enumerate() {
                direct.process(txn);
                reseeded.process(txn);
                reference.process(txn);
                let (extents, pairs) = routed_share(txn);
                routed.process_routed(&extents, &pairs);

                let expected = reference.snapshot();
                prop_assert_eq!(&direct.snapshot(), &expected, "process, step {}", step);
                prop_assert_eq!(&routed.snapshot(), &expected, "routed, step {}", step);
                prop_assert_eq!(&reseeded.snapshot(), &expected, "reseeded, step {}", step);
                prop_assert_eq!(direct.stats(), reference.stats(), "stats, step {}", step);
                prop_assert_eq!(
                    routed.stats().correlated_demotions,
                    reference.stats().correlated_demotions
                );
                direct.check_invariants();
                routed.check_invariants();
                reseeded.check_invariants();

                for item in txn.items() {
                    prop_assert_eq!(
                        direct.correlated_with(&item.extent, 1),
                        scanned_partners(&direct, &item.extent)
                    );
                }

                if step % 16 == 15 {
                    let snapshot = SynopsisSnapshot::capture(std::slice::from_ref(&reseeded));
                    let fresh = snapshot.reseed(&config, 1).pop().expect("one shard");
                    prop_assert_eq!(fresh.snapshot(), reseeded.snapshot(), "reseed round trip");
                    prop_assert_eq!(fresh.stats(), reseeded.stats());
                    fresh.check_invariants();
                    reseeded = fresh;
                }
            }
            demotions.set(demotions.get() + direct.stats().correlated_demotions);
            Ok(())
        },
    );
    if let Err(failure) = result {
        panic!("small_tables_match_reference_order_exactly {failure}");
    }
    println!("correlated demotions checked: {}", demotions.get());
    assert!(demotions.get() > 0, "no case demoted a stored pair");
}
