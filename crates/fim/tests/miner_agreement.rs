//! Property tests: the three offline miners are exact and must agree with
//! each other and with brute-force enumeration on arbitrary databases.

use std::collections::HashMap;

use rtdac_check::prelude::*;
use rtdac_fim::{Apriori, Eclat, FimResult, FpGrowth, TransactionDb};

/// Brute force: enumerate every subset of every transaction and count.
fn brute_force(db: &TransactionDb<u8>, min_support: u32) -> FimResult<u8> {
    let mut counts: HashMap<Vec<u8>, u32> = HashMap::new();
    for txn in db.transactions() {
        let n = txn.len();
        for mask in 1u32..(1 << n) {
            let subset: Vec<u8> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| txn[i])
                .collect();
            *counts.entry(subset).or_insert(0) += 1;
        }
    }
    FimResult::from_raw(
        counts
            .into_iter()
            .filter(|(_, c)| *c >= min_support)
            .collect(),
    )
}

fn db_strategy() -> impl Strategy<Value = TransactionDb<u8>> {
    prop::collection::vec(prop::collection::vec(0u8..10, 0..6), 0..20)
        .prop_map(TransactionDb::from_iter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_miners_agree_with_brute_force(
        db in db_strategy(),
        min_support in 1u32..4,
    ) {
        let expected = brute_force(&db, min_support);
        prop_assert_eq!(&Apriori::new(min_support).mine(&db), &expected);
        prop_assert_eq!(&Eclat::new(min_support).mine(&db), &expected);
        prop_assert_eq!(&FpGrowth::new(min_support).mine(&db), &expected);
    }

    #[test]
    fn max_len_is_a_pure_filter(
        db in db_strategy(),
        min_support in 1u32..4,
        max_len in 1usize..4,
    ) {
        // Mining with max_len must equal full mining filtered by length.
        let full = Eclat::new(min_support).mine(&db);
        let expected = FimResult::from_raw(
            full.itemsets()
                .iter()
                .filter(|(set, _)| set.len() <= max_len)
                .cloned()
                .collect(),
        );
        prop_assert_eq!(&Apriori::new(min_support).max_len(max_len).mine(&db), &expected);
        prop_assert_eq!(&Eclat::new(min_support).max_len(max_len).mine(&db), &expected);
        prop_assert_eq!(&FpGrowth::new(min_support).max_len(max_len).mine(&db), &expected);
    }

    #[test]
    fn support_is_antimonotone(db in db_strategy()) {
        // Every frequent itemset's subsets are frequent with >= support.
        let r = Eclat::new(1).mine(&db);
        for (set, support) in r.itemsets() {
            if set.len() < 2 {
                continue;
            }
            for skip in 0..set.len() {
                let subset: Vec<u8> = set
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, v)| *v)
                    .collect();
                let sub_support = r.support(&subset).expect("subset must be frequent");
                prop_assert!(sub_support >= *support);
            }
        }
    }
}
