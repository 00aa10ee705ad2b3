//! The pre-optimization analyzer, kept as a golden reference.
//!
//! [`ReferenceAnalyzer`] is the straightforward implementation of the
//! online analysis module: its two tables are
//! [`MapTable<_, RandomState>`](MapTable) (a SipHash `HashMap` index into
//! a node slab, a single hash probe per record), and it keeps a
//! per-`process` `Vec` with an O(N²) `contains` dedup and a SipHash
//! pair index whose `HashSet` values allocate on the hot path. It exists
//! for two reasons:
//!
//! * **equivalence oracle** — the optimized [`OnlineAnalyzer`] must
//!   produce identical snapshots and stats on any transaction stream
//!   fed through `process` (same policy, different machinery), which
//!   the test suite asserts at capacities small enough to evict. Both
//!   analyzers demote one evicted item's stored pairs in ascending
//!   [`ExtentPair`] order: the order is observable through T1's LRU
//!   end whenever one eviction demotes two or more stored pairs, so it
//!   must not depend on hash-set iteration;
//! * **benchmark baseline** — `BENCH_ingest.json` reports the optimized
//!   and sharded analyzers' throughput as speedups over this
//!   implementation, so perf claims survive on machines where thread
//!   parallelism is unavailable.
//!
//! It is deliberately not exported as part of the tuned pipeline; new
//! code should use [`OnlineAnalyzer`] or
//! [`ShardedAnalyzer`](crate::ShardedAnalyzer).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};

use rtdac_types::{Extent, ExtentPair, Transaction};

use crate::analyzer::{AnalyzerConfig, AnalyzerStats, Snapshot};
use crate::map_table::MapTable;

/// The original, allocating, SipHash-based online analyzer.
#[derive(Clone, Debug)]
pub struct ReferenceAnalyzer {
    config: AnalyzerConfig,
    items: MapTable<Extent, RandomState>,
    pairs: MapTable<ExtentPair, RandomState>,
    pair_index: HashMap<Extent, HashSet<ExtentPair>>,
    stats: AnalyzerStats,
}

impl ReferenceAnalyzer {
    /// Creates a reference analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        let items = MapTable::with_hasher(
            config.item_capacity_per_tier,
            config.item_capacity_per_tier,
            config.promote_threshold,
        );
        let pairs = MapTable::with_hasher(
            config.correlation_capacity_per_tier,
            config.correlation_capacity_per_tier,
            config.promote_threshold,
        );
        ReferenceAnalyzer {
            config,
            items,
            pairs,
            pair_index: HashMap::new(),
            stats: AnalyzerStats::default(),
        }
    }

    /// The configuration the analyzer was built with.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Processes one transaction — the original implementation, heap
    /// allocations and all.
    pub fn process(&mut self, transaction: &Transaction) {
        self.stats.transactions += 1;

        let mut extents: Vec<Extent> = Vec::with_capacity(transaction.len());
        for item in transaction.items() {
            if let Some(filter) = self.config.op_filter {
                if item.op != filter {
                    continue;
                }
            }
            if !extents.contains(&item.extent) {
                extents.push(item.extent);
            }
        }

        for &extent in &extents {
            self.stats.extents += 1;
            let record = self.items.record(extent);
            if let Some((evicted, _)) = record.evicted {
                self.demote_pairs_of(&evicted);
            }
        }

        for i in 0..extents.len() {
            for j in (i + 1)..extents.len() {
                let pair = ExtentPair::new(extents[i], extents[j])
                    .expect("deduplicated extents are distinct");
                self.stats.pairs += 1;
                let record = self.pairs.record(pair);
                if !record.hit {
                    self.index_pair(pair);
                }
                if let Some((evicted, _)) = record.evicted {
                    self.unindex_pair(&evicted);
                }
            }
        }
    }

    fn demote_pairs_of(&mut self, extent: &Extent) {
        let Some(pairs) = self.pair_index.get(extent) else {
            return;
        };
        let mut affected: Vec<ExtentPair> = pairs.iter().copied().collect();
        affected.sort_unstable();
        for pair in affected {
            self.stats.correlated_demotions += 1;
            let was_present = self.pairs.demote(&pair);
            if was_present && !self.pairs.contains(&pair) {
                self.unindex_pair(&pair);
            }
        }
    }

    fn index_pair(&mut self, pair: ExtentPair) {
        self.pair_index
            .entry(pair.first())
            .or_default()
            .insert(pair);
        self.pair_index
            .entry(pair.second())
            .or_default()
            .insert(pair);
    }

    fn unindex_pair(&mut self, pair: &ExtentPair) {
        for extent in [pair.first(), pair.second()] {
            if let Some(set) = self.pair_index.get_mut(&extent) {
                set.remove(pair);
                if set.is_empty() {
                    self.pair_index.remove(&extent);
                }
            }
        }
    }

    /// The correlations currently stored with tally at least `min_tally`.
    pub fn frequent_pairs(&self, min_tally: u32) -> Vec<(ExtentPair, u32)> {
        self.pairs.entries_with_min_tally(min_tally)
    }

    /// A copy of both tables' contents at this instant.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            pairs: self
                .pairs
                .iter()
                .map(|(p, tally, tier)| (*p, tally, tier))
                .collect(),
            items: self
                .items
                .iter()
                .map(|(e, tally, tier)| (*e, tally, tier))
                .collect(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AnalyzerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::OnlineAnalyzer;
    use rtdac_types::Timestamp;

    fn e(start: u64, len: u32) -> Extent {
        Extent::new(start, len).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    /// The optimized analyzer must behave identically to the reference on
    /// a churny stream exercising evictions, promotions and demotions.
    /// Snapshot equality compares iteration order too, so LRU list state
    /// must agree — not just the stored sets.
    #[test]
    fn optimized_analyzer_matches_reference() {
        let config = AnalyzerConfig::with_capacity(4).item_capacity(2);
        let mut reference = ReferenceAnalyzer::new(config.clone());
        let mut optimized = OnlineAnalyzer::new(config);
        for i in 0..200u64 {
            let t = txn(&[
                e(i % 13, 1),
                e((i * 7) % 17 + 30, 1),
                e(i % 5 + 60, 1),
                e(i % 13, 1), // duplicate: exercises dedup paths
            ]);
            reference.process(&t);
            optimized.process(&t);
            assert_eq!(optimized.snapshot(), reference.snapshot(), "step {i}");
        }
        assert_eq!(optimized.stats(), reference.stats());
    }
}
