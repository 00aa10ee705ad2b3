//! Property tests for the estDec-style streaming miner against exact
//! offline counts.

use std::collections::HashMap;

use rtdac_check::prelude::*;
use rtdac_fim::{EstDecConfig, EstDecMiner};

fn stream_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..12, 1..5), 0..120)
}

/// Exact pair counts of the stream.
fn exact_pairs(stream: &[Vec<u8>]) -> HashMap<(u8, u8), u32> {
    let mut counts = HashMap::new();
    for txn in stream {
        let mut t = txn.clone();
        t.sort_unstable();
        t.dedup();
        for i in 0..t.len() {
            for j in (i + 1)..t.len() {
                *counts.entry((t[i], t[j])).or_insert(0) += 1;
            }
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Without decay, tracked counts never exceed the true counts
    /// (delayed insertion can only lose the prefix before admission).
    #[test]
    fn counts_are_lower_bounds_without_decay(stream in stream_strategy()) {
        let mut miner = EstDecMiner::new(EstDecConfig {
            decay: 1.0,
            insertion_threshold: 1.0,
            max_len: 3,
            max_nodes: 100_000,
        });
        for txn in &stream {
            miner.observe(txn);
        }
        let truth = exact_pairs(&stream);
        for (set, count) in miner.frequent_itemsets(0.0) {
            if set.len() != 2 {
                continue;
            }
            let true_count = truth.get(&(set[0], set[1])).copied().unwrap_or(0);
            prop_assert!(
                count <= f64::from(true_count) + 1e-9,
                "{set:?}: tracked {count} > true {true_count}"
            );
        }
    }

    /// With threshold 1 and no decay, the admission delay costs at most
    /// one transaction: tracked >= true - 1 for every *tracked* pair.
    #[test]
    fn admission_delay_costs_at_most_one(stream in stream_strategy()) {
        let mut miner = EstDecMiner::new(EstDecConfig {
            decay: 1.0,
            insertion_threshold: 1.0,
            max_len: 2,
            max_nodes: 100_000,
        });
        for txn in &stream {
            miner.observe(txn);
        }
        let truth = exact_pairs(&stream);
        let tracked: HashMap<(u8, u8), f64> = miner
            .frequent_itemsets(0.0)
            .into_iter()
            .filter(|(set, _)| set.len() == 2)
            .map(|(set, c)| ((set[0], set[1]), c))
            .collect();
        for (&pair, &true_count) in &truth {
            // The cascade admits a pair within its first transaction
            // (singletons bump first), so every true pair is tracked with
            // a full count here.
            let count = tracked.get(&pair).copied().unwrap_or(0.0);
            prop_assert!(
                count >= f64::from(true_count) - 1.0 - 1e-9,
                "{pair:?}: tracked {count} < true {true_count} - 1"
            );
        }
    }

    /// The node budget holds after every transaction.
    #[test]
    fn budget_holds(stream in stream_strategy(), budget in 8usize..64) {
        let mut miner = EstDecMiner::new(EstDecConfig {
            decay: 0.999,
            insertion_threshold: 1.0,
            max_len: 3,
            max_nodes: budget,
        });
        for txn in &stream {
            miner.observe(txn);
            // Pruning triggers on exceed, so transiently the tree may
            // hold one transaction's worth of new nodes beyond budget.
            prop_assert!(
                miner.len() <= budget + 3 * 4 * 5,
                "len {} for budget {budget}",
                miner.len()
            );
        }
    }
}
