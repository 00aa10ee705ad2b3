//! Property tests for the dense mining engines: apriori ≡ eclat ≡
//! fp-growth ≡ `count_pairs` (restricted to len ≤ 2) on random
//! databases, sweeping `min_support` ∈ {1, 2, 5} and `max_len` ∈
//! {None, 1, 2, 3}, for both the generic and dense engines; task
//! decompositions merge to the serial result in scrambled orders; and
//! the incremental sliding window equals scratch recounts. Each check
//! also runs on fixed databases larger and more skewed than the
//! strategy draws.

use rtdac_check::prelude::*;
use rtdac_fim::{
    count_pairs, count_pairs_generic, frequent_pairs, Apriori, Eclat, EclatTasks, FimResult,
    FpGrowth, FpTasks, SlidingPairCounts, TransactionDb,
};
use rtdac_types::{Extent, Timestamp, Transaction};

fn transactions_strategy() -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(prop::collection::vec(1u64..16, 0..6), 0..25).prop_map(|rows| {
        rows.into_iter()
            .map(|starts| {
                Transaction::from_extents(
                    Timestamp::ZERO,
                    starts.into_iter().map(|s| Extent::new(s, 1).unwrap()),
                )
            })
            .collect()
    })
}

/// A fixed stream of `n` transactions of 0..=6 extents over `universe`
/// ids; `skew` sends 70% of draws to the lowest quarter of the ids.
fn fixed_transactions(seed: u64, n: usize, universe: u64, skew: bool) -> Vec<Transaction> {
    let mut state = seed | 1;
    let mut below = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut txns = Vec::with_capacity(n);
    for _ in 0..n {
        let mut extents = Vec::new();
        for _ in 0..below(7) {
            let id = if skew && below(10) < 7 {
                below(universe / 4 + 1)
            } else {
                below(universe)
            };
            extents.push(Extent::new(id + 1, 1).unwrap());
        }
        txns.push(Transaction::from_extents(Timestamp::ZERO, extents));
    }
    txns
}

/// Applies `max_len` to all three miners (None leaves them unbounded).
fn miners(min_support: u32, max_len: Option<usize>) -> (Apriori, Eclat, FpGrowth) {
    let (mut a, mut e, mut f) = (
        Apriori::new(min_support),
        Eclat::new(min_support),
        FpGrowth::new(min_support),
    );
    if let Some(k) = max_len {
        a = a.max_len(k);
        e = e.max_len(k);
        f = f.max_len(k);
    }
    (a, e, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generic_and_dense_engines_agree_across_the_sweep(
        txns in transactions_strategy(),
        support_idx in 0usize..3,
        len_idx in 0usize..4,
    ) {
        let min_support = [1u32, 2, 5][support_idx];
        let max_len = [None, Some(1), Some(2), Some(3)][len_idx];
        engines_agree(&txns, min_support, max_len)?;
    }

    #[test]
    fn count_pairs_agrees_with_miners_restricted_to_pairs(
        txns in transactions_strategy(),
        support_idx in 0usize..3,
    ) {
        let min_support = [1u32, 2, 5][support_idx];
        pairs_agree(&txns, min_support)?;
    }

    #[test]
    fn task_decompositions_merge_to_the_serial_result(
        txns in transactions_strategy(),
        support_idx in 0usize..3,
    ) {
        let min_support = [1u32, 2, 5][support_idx];
        tasks_merge_to_serial(&txns, min_support, None)?;
    }

    #[test]
    fn sliding_window_equals_scratch_recounts(
        txns in transactions_strategy(),
        window in 1usize..30,
    ) {
        sliding_window_recounts(&txns, window)?;
    }
}

/// Dense and generic eclat and fp-growth all return apriori's result.
fn engines_agree(
    txns: &[Transaction],
    min_support: u32,
    max_len: Option<usize>,
) -> Result<(), TestCaseError> {
    let db = TransactionDb::from_transactions(txns);
    let (apriori, eclat, fp) = miners(min_support, max_len);

    let reference = apriori.mine(&db);
    prop_assert_eq!(&eclat.mine(&db), &reference);
    prop_assert_eq!(&eclat.mine_generic(&db), &reference);
    prop_assert_eq!(&fp.mine(&db), &reference);
    prop_assert_eq!(&fp.mine_generic(&db), &reference);
    Ok(())
}

/// The dense pair kernel equals the generic one, and its pairs at
/// `min_support` are exactly the miners' frequent pairs.
fn pairs_agree(txns: &[Transaction], min_support: u32) -> Result<(), TestCaseError> {
    let counts = count_pairs(txns);
    prop_assert_eq!(&counts, &count_pairs_generic(txns));

    let db = TransactionDb::from_transactions(txns);
    let mined = Eclat::new(min_support).max_len(2).mine(&db);
    let mined_pairs = FimResult::from_raw(
        mined
            .of_len(2)
            .map(|(set, s)| (set.to_vec(), s))
            .collect::<Vec<_>>(),
    );
    let oracle_pairs = FimResult::from_raw(
        frequent_pairs(&counts, min_support)
            .into_iter()
            .map(|(p, c)| (vec![p.first(), p.second()], c))
            .collect::<Vec<_>>(),
    );
    prop_assert_eq!(mined_pairs, oracle_pairs);
    Ok(())
}

/// Eclat's per-class and fp-growth's per-item tasks, run in reversed
/// and then in reversed-and-rotated order, merge to the serial mine —
/// the property the bench work pool relies on.
fn tasks_merge_to_serial(
    txns: &[Transaction],
    min_support: u32,
    max_len: Option<usize>,
) -> Result<(), TestCaseError> {
    let db = TransactionDb::from_transactions(txns);
    let (_, eclat, fp) = miners(min_support, max_len);
    let tasks = eclat.tasks(&db);
    let ftasks = fp.tasks(&db);
    // Both decompositions have one task per frequent item.
    prop_assert_eq!(ftasks.len(), tasks.len());

    let mut order: Vec<usize> = (0..tasks.len()).rev().collect();
    for _ in 0..2 {
        let parts: Vec<_> = order.iter().map(|&c| tasks.run(c)).collect();
        prop_assert_eq!(EclatTasks::collect(parts), eclat.mine(&db));
        let parts: Vec<_> = order.iter().map(|&k| ftasks.run(k)).collect();
        prop_assert_eq!(FpTasks::collect(parts), fp.mine(&db));
        let third = order.len() / 3;
        order.rotate_left(third);
    }
    Ok(())
}

/// After every transaction, the sliding counts over the last `window`
/// transactions equal a scratch `count_pairs` of that window.
fn sliding_window_recounts(txns: &[Transaction], window: usize) -> Result<(), TestCaseError> {
    let mut sliding = SlidingPairCounts::new();
    for (i, t) in txns.iter().enumerate() {
        sliding.add(t);
        if i + 1 > window {
            sliding.retire(&txns[i - window]);
        }
        let live = &txns[(i + 1).saturating_sub(window)..=i];
        prop_assert_eq!(sliding.counts(), &count_pairs(live), "window ending at {i}");
    }
    Ok(())
}

#[test]
fn larger_and_skewed_fixed_databases() {
    let pass = |result: Result<(), TestCaseError>, case: String| {
        if let Err(failure) = result {
            panic!("{case}: {failure:?}");
        }
    };
    for (seed, universe, skew) in [(11, 12, false), (22, 40, true), (33, 6, true)] {
        let txns = fixed_transactions(seed, 60, universe, skew);
        for min_support in [1, 2, 5] {
            for max_len in [None, Some(1), Some(2), Some(3)] {
                pass(
                    engines_agree(&txns, min_support, max_len),
                    format!("seed {seed}, support {min_support}, max_len {max_len:?}"),
                );
            }
        }
    }
    for (seed, universe, skew) in [(44, 15, false), (55, 30, true)] {
        let txns = fixed_transactions(seed, 80, universe, skew);
        for min_support in [1, 2, 5] {
            pass(
                pairs_agree(&txns, min_support),
                format!("seed {seed}, support {min_support}"),
            );
        }
    }
    let txns = fixed_transactions(77, 70, 18, true);
    pass(tasks_merge_to_serial(&txns, 2, Some(3)), "tasks".into());
    let txns = fixed_transactions(66, 120, 20, true);
    pass(sliding_window_recounts(&txns, 25), "sliding".into());
}
