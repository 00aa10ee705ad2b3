//! Hash-partitioned sharding of the online analyzer.
//!
//! A [`ShardedAnalyzer`] splits the `ExtentPair` space across N shards by
//! the pair's deterministic [`fx_hash`]; each shard owns its own pair of
//! [`TwoTierTable`](crate::TwoTierTable)s and processes only its
//! partition of every transaction (see
//! [`OnlineAnalyzer::process_partition`]).
//!
//! **Routing invariant** (DESIGN.md §8): a pair's correlation record —
//! and the item records of *both* its member extents — land on the shard
//! that owns the pair's hash; a single-extent transaction routes by the
//! extent's hash. Consequences:
//!
//! * shards never contend: a pair's tallies, its index entries and the
//!   demotion hook that fires when one of its extents is evicted all
//!   touch one shard's tables only;
//! * with `N = 1` the sharded analyzer is *exactly* the single-threaded
//!   [`OnlineAnalyzer`] — same record order, same evictions, same
//!   snapshot;
//! * with `N > 1` and tables large enough to avoid overflow, the merged
//!   frequent-pair sets and tallies are identical to the single-threaded
//!   analyzer's (pair routing is deterministic and total). Under
//!   capacity pressure the shards' *local* LRU decisions may diverge
//!   from the global ones, as with any partitioned cache; item tallies
//!   are per-shard (an extent in pairs on two shards is counted on
//!   both).
//!
//! **Multi-router tally merging** (DESIGN.md §9): a parallel routing
//! front-end runs R routers, each with a *private* hot-pair tracker
//! that sees only a round-robin `1/R` sample of the batch stream — so
//! the routers may disagree about which pairs are hot, and a pair may
//! be split round-robin by one router while another still routes it by
//! hash. The merge paths here are deliberately agnostic to *who* dealt
//! each record: with `split_tallies` set, a pair's per-shard partials
//! are summed wherever they landed, so totals stay count-exact for any
//! R and any mix of split decisions. The reconciliation rule is just
//! addition — no router coordination is needed.
//!
//! This type is the sequential core; the threaded front-end that feeds
//! shards through SPSC rings lives in `rtdac-monitor`'s `pipeline`
//! module.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtdac_types::{ExtentPair, FxHashMap, Transaction};

use crate::analyzer::{AnalyzerConfig, AnalyzerStats, OnlineAnalyzer, Snapshot};

// The routing helpers live in `rtdac-types` so the pipeline front-end
// (crate `rtdac-monitor`) and the sequential shards here agree
// bit-for-bit; re-exported for backward compatibility.
pub use rtdac_types::{shard_of_extent, shard_of_pair};

/// N independent [`OnlineAnalyzer`] shards behind one analyzer-shaped
/// API, partitioned by pair hash.
///
/// The aggregate table capacity is held constant: each shard gets
/// `1/N`-th of the configured per-tier capacities, so sweeping the shard
/// count compares equal-memory configurations.
///
/// # Examples
///
/// ```
/// use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer, ShardedAnalyzer};
/// use rtdac_types::{Extent, Timestamp, Transaction};
///
/// let config = AnalyzerConfig::with_capacity(1024);
/// let mut single = OnlineAnalyzer::new(config.clone());
/// let mut sharded = ShardedAnalyzer::new(config, 4);
/// let t = Transaction::from_extents(
///     Timestamp::ZERO,
///     [Extent::new(1, 1)?, Extent::new(9, 1)?],
/// );
/// for _ in 0..3 {
///     single.process(&t);
///     sharded.process(&t);
/// }
/// assert_eq!(
///     sharded.snapshot().frequent_pairs(2),
///     single.snapshot().frequent_pairs(2),
/// );
/// # Ok::<(), rtdac_types::ExtentError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShardedAnalyzer {
    config: AnalyzerConfig,
    shards: Vec<OnlineAnalyzer>,
    /// Set when the shards were fed by a routed front-end with hot-pair
    /// splitting enabled: a pair's tally may then be spread over several
    /// shards, and the merge paths must sum per-pair instead of assuming
    /// the pair space is partitioned.
    split_tallies: bool,
    /// Transaction count of the stream, when the shards cannot know it
    /// themselves (routed dispatch sends each shard only its owned work,
    /// so per-shard counters see a subset).
    routed_transactions: Option<u64>,
}

impl ShardedAnalyzer {
    /// Creates `shard_count` shards, each configured by
    /// [`AnalyzerConfig::split_across`]: `1/shard_count`-th of the
    /// per-tier capacities (at least 1), and of the admission
    /// doorkeeper's counters when admission is on.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn new(config: AnalyzerConfig, shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        let shard_config = config.split_across(shard_count);
        let shards = (0..shard_count)
            .map(|_| OnlineAnalyzer::new(shard_config.clone()))
            .collect();
        ShardedAnalyzer {
            config,
            shards,
            split_tallies: false,
            routed_transactions: None,
        }
    }

    /// Reassembles a sharded analyzer from shards that were processed
    /// elsewhere (the threaded pipeline moves shards onto worker threads
    /// and hands them back on shutdown).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn from_shards(config: AnalyzerConfig, shards: Vec<OnlineAnalyzer>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        ShardedAnalyzer {
            config,
            shards,
            split_tallies: false,
            routed_transactions: None,
        }
    }

    /// Reassembles shards that were fed precomputed work lists by a
    /// routed front-end (see `rtdac-monitor`'s `Router`).
    ///
    /// `transactions` is the stream's transaction count as observed by
    /// the front-end — routed shards only see the transactions they own
    /// work for, so no shard's own counter is authoritative.
    /// `split_tallies` must be set when hot-pair splitting was enabled:
    /// the same pair may then hold partial tallies on several shards, and
    /// [`snapshot`](ShardedAnalyzer::snapshot) /
    /// [`frequent_pairs`](ShardedAnalyzer::frequent_pairs) switch to a
    /// per-pair summing merge.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn from_routed_shards(
        config: AnalyzerConfig,
        shards: Vec<OnlineAnalyzer>,
        transactions: u64,
        split_tallies: bool,
    ) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        ShardedAnalyzer {
            config,
            shards,
            split_tallies,
            routed_transactions: Some(transactions),
        }
    }

    /// Whether the merge paths sum per-pair tallies across shards
    /// (hot-pair splitting was enabled upstream).
    pub fn split_tallies(&self) -> bool {
        self.split_tallies
    }

    /// The aggregate configuration (per-shard tables are `1/N`-th of it).
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the individual shards.
    pub fn shards(&self) -> &[OnlineAnalyzer] {
        &self.shards
    }

    /// Consumes the analyzer, yielding the shards (for distribution onto
    /// worker threads).
    pub fn into_shards(self) -> Vec<OnlineAnalyzer> {
        self.shards
    }

    /// Processes one transaction: every shard records its owned
    /// partition. Sequential — the threaded version distributes the same
    /// `process_partition` calls across worker threads.
    pub fn process(&mut self, transaction: &Transaction) {
        let n = self.shards.len();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.process_partition(transaction, i, n);
        }
    }

    /// Merged point-in-time copy of all shards' tables. With one shard
    /// this is byte-for-byte the single-threaded snapshot; with more, the
    /// pair set is the disjoint union of the shards' (each pair lives on
    /// exactly one shard) and items may appear once per shard that owns a
    /// pair containing them. When hot-pair splitting was enabled, a split
    /// pair's per-shard partial tallies are summed into one entry (first
    /// shard's position, highest tier), so totals match the unsplit
    /// counts exactly.
    pub fn snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        let mut seen: FxHashMap<ExtentPair, usize> = FxHashMap::default();
        for shard in &self.shards {
            let snap = shard.snapshot();
            if self.split_tallies {
                for (pair, tally, tier) in snap.pairs {
                    match seen.entry(pair) {
                        std::collections::hash_map::Entry::Occupied(slot) => {
                            let entry = &mut merged.pairs[*slot.get()];
                            entry.1 += tally;
                            entry.2 = entry.2.max(tier);
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(merged.pairs.len());
                            merged.pairs.push((pair, tally, tier));
                        }
                    }
                }
            } else {
                merged.pairs.extend(snap.pairs);
            }
            merged.items.extend(snap.items);
        }
        merged
    }

    /// The stored correlations with tally at least `min_tally`, sorted by
    /// descending tally then ascending pair.
    ///
    /// Without split tallies this is a k-way merge of the per-shard
    /// sorted lists (shards partition the pair space, so no cross-shard
    /// deduplication is needed). With split tallies a pair's records may
    /// live on several shards, so the per-shard partials are summed
    /// *before* the threshold is applied — a pair whose pieces are each
    /// below `min_tally` but whose total crosses it is still reported —
    /// and the summed list is sorted into the same canonical order.
    pub fn frequent_pairs(&self, min_tally: u32) -> Vec<(ExtentPair, u32)> {
        if self.split_tallies {
            let mut tallies: FxHashMap<ExtentPair, u32> = FxHashMap::default();
            for shard in &self.shards {
                for (pair, tally, _) in shard.correlation_table().iter() {
                    *tallies.entry(*pair).or_insert(0) += tally;
                }
            }
            let mut out: Vec<(ExtentPair, u32)> = tallies
                .into_iter()
                .filter(|&(_, tally)| tally >= min_tally)
                .collect();
            out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            return out;
        }
        // Per-shard lists arrive already in the canonical order
        // (descending tally, ties by ascending pair) straight from
        // `entries_with_min_tally`.
        let mut lists: Vec<Vec<(ExtentPair, u32)>> = self
            .shards
            .iter()
            .map(|s| s.frequent_pairs(min_tally))
            .collect();

        let total = lists.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        // Max-heap keyed (tally, Reverse(pair)): highest tally first,
        // ties by smallest pair — the Snapshot::frequent_pairs order.
        let mut heap: BinaryHeap<(u32, Reverse<ExtentPair>, usize, usize)> = lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| (l[0].1, Reverse(l[0].0), i, 0))
            .collect();
        while let Some((tally, Reverse(pair), list, pos)) = heap.pop() {
            out.push((pair, tally));
            let next = pos + 1;
            if let Some(&(p, t)) = lists[list].get(next) {
                heap.push((t, Reverse(p), list, next));
            }
        }
        for l in &mut lists {
            l.clear();
        }
        out
    }

    /// Merged lifetime counters. The record counters sum across shards.
    /// Sequentially fed shards ([`process`](ShardedAnalyzer::process))
    /// each observe every transaction, so the transaction count is
    /// taken from one shard; for routed shards the front-end's count
    /// (passed to
    /// [`from_routed_shards`](ShardedAnalyzer::from_routed_shards)) is
    /// authoritative.
    pub fn stats(&self) -> AnalyzerStats {
        let mut merged = AnalyzerStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            merged.extents += s.extents;
            merged.pairs += s.pairs;
            merged.pair_rejections += s.pair_rejections;
            merged.correlated_demotions += s.correlated_demotions;
        }
        merged.transactions = self
            .routed_transactions
            .unwrap_or_else(|| self.shards[0].stats().transactions);
        merged
    }

    /// Re-partitions the analyzer to `shard_count` shards by draining
    /// every shard into a [`SynopsisSnapshot`](crate::SynopsisSnapshot)
    /// and re-seeding fresh shards from it, preserving tallies, tier
    /// membership and per-tier recency order (summing any split-pair
    /// partials, the same reconciliation the merge paths apply). In
    /// the no-overflow regime the resulting
    /// [`frequent_pairs`](ShardedAnalyzer::frequent_pairs) are
    /// count-identical to never having resized; see the snapshot
    /// module docs for the item-tally caveat.
    ///
    /// Admission doorkeepers are **reset** by a reshard: the fresh
    /// shards start with zeroed sketches (approximate recent-frequency
    /// state has no meaningful cross-partition redistribution), so
    /// not-yet-admitted pairs re-earn admission while already-stored
    /// pairs keep their tallies — table counts stay monotone.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn resharded(self, shard_count: usize) -> ShardedAnalyzer {
        let snapshot = crate::SynopsisSnapshot::drain(self.shards);
        let shards = snapshot.reseed(&self.config, shard_count);
        ShardedAnalyzer {
            config: self.config,
            shards,
            split_tallies: self.split_tallies,
            routed_transactions: self.routed_transactions,
        }
    }

    /// Forgets all shards' contents (stats are preserved).
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdac_types::{Extent, Timestamp};

    fn e(start: u64, len: u32) -> Extent {
        Extent::new(start, len).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    #[test]
    fn routing_is_total_and_deterministic() {
        let a = ExtentPair::new(e(1, 1), e(2, 1)).unwrap();
        for n in [1, 2, 4, 8] {
            let shard = shard_of_pair(&a, n);
            assert!(shard < n);
            assert_eq!(shard, shard_of_pair(&a, n));
        }
        assert_eq!(shard_of_pair(&a, 1), 0);
        assert_eq!(shard_of_extent(&e(1, 1), 1), 0);
    }

    #[test]
    fn single_shard_matches_online_analyzer_exactly() {
        let config = AnalyzerConfig::with_capacity(4).item_capacity(2);
        let mut single = OnlineAnalyzer::new(config.clone());
        let mut sharded = ShardedAnalyzer::new(config, 1);
        // Small tables force evictions, promotions and demotions; the
        // N = 1 reduction must agree through all of them.
        for i in 0..50u64 {
            let t = txn(&[e(i % 7, 1), e((i * 3) % 11 + 20, 1), e(i % 3 + 40, 1)]);
            single.process(&t);
            sharded.process(&t);
        }
        assert_eq!(sharded.snapshot(), single.snapshot());
        assert_eq!(sharded.stats(), single.stats());
    }

    #[test]
    fn pair_space_is_partitioned() {
        let config = AnalyzerConfig::with_capacity(1024);
        let mut sharded = ShardedAnalyzer::new(config, 4);
        for i in 0..40u64 {
            sharded.process(&txn(&[e(i, 1), e(i + 100, 1), e(i + 200, 1)]));
        }
        // Each stored pair must live on exactly the shard its hash names.
        for (i, shard) in sharded.shards().iter().enumerate() {
            for (pair, _, _) in &shard.snapshot().pairs {
                assert_eq!(shard_of_pair(pair, 4), i);
            }
        }
    }

    #[test]
    fn merge_orders_by_tally_then_pair() {
        let config = AnalyzerConfig::with_capacity(1024);
        let mut sharded = ShardedAnalyzer::new(config, 4);
        for rep in 0..3 {
            for i in 0..(10 - rep) {
                sharded.process(&txn(&[e(i, 1), e(i + 50, 1)]));
            }
        }
        let merged = sharded.frequent_pairs(1);
        let resorted = {
            let mut v = merged.clone();
            v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        };
        assert_eq!(merged, resorted);
        assert_eq!(merged, sharded.snapshot().frequent_pairs(1));
    }

    #[test]
    fn split_tallies_sum_at_merge_time() {
        // A hot pair split across both shards: each shard holds a partial
        // tally, and the split-aware merge must report the exact sum.
        let config = AnalyzerConfig::with_capacity(64);
        let hot = ExtentPair::new(e(1, 1), e(2, 1)).unwrap();
        let cold = ExtentPair::new(e(10, 1), e(20, 1)).unwrap();
        let mut shards = ShardedAnalyzer::new(config.clone(), 2).into_shards();
        for _ in 0..3 {
            shards[0].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        for _ in 0..2 {
            shards[1].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        shards[1].process_routed(&[e(10, 1), e(20, 1)], &[cold]);

        let merged = ShardedAnalyzer::from_routed_shards(config, shards, 6, true);
        assert!(merged.split_tallies());
        assert_eq!(merged.frequent_pairs(1), vec![(hot, 5), (cold, 1)]);
        // Threshold applies to the sum, not the partials: each piece of
        // `hot` is below 4, the total is not.
        assert_eq!(merged.frequent_pairs(4), vec![(hot, 5)]);
        // The snapshot carries one summed entry per split pair.
        let snap = merged.snapshot();
        assert_eq!(snap.pairs.iter().filter(|(p, _, _)| *p == hot).count(), 1);
        assert_eq!(snap.frequent_pairs(1), merged.frequent_pairs(1));
        // The front-end's transaction count is authoritative.
        assert_eq!(merged.stats().transactions, 6);
        assert_eq!(merged.stats().pairs, 6);
    }

    #[test]
    fn disagreeing_routers_still_sum_exactly() {
        // Two parallel routers, each tracking hot pairs over its own
        // 1/R sample, disagree: router A considers `hot` hot and deals
        // its records round-robin across both shards; router B never
        // promoted it and keeps routing it by hash to shard 0. The
        // interleaved result — partials on both shards, unevenly sized
        // — must still merge to the exact total.
        let config = AnalyzerConfig::with_capacity(64);
        let hot = ExtentPair::new(e(1, 1), e(2, 1)).unwrap();
        let mut shards = ShardedAnalyzer::new(config.clone(), 2).into_shards();
        // Router A: 4 records split alternately (2 to each shard).
        for i in 0..4 {
            shards[i % 2].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        // Router B: 3 records, all hash-routed to shard 0.
        for _ in 0..3 {
            shards[0].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }

        let merged = ShardedAnalyzer::from_routed_shards(config, shards, 7, true);
        assert_eq!(merged.frequent_pairs(1), vec![(hot, 7)]);
        // The shard-local partials really were uneven (5 + 2).
        let partials: Vec<u32> = merged
            .shards()
            .iter()
            .map(|s| {
                s.correlation_table()
                    .iter()
                    .map(|(_, tally, _)| tally)
                    .sum()
            })
            .collect();
        assert_eq!(partials, vec![5, 2]);
    }

    #[test]
    fn from_shards_round_trips() {
        let config = AnalyzerConfig::with_capacity(64);
        let mut sharded = ShardedAnalyzer::new(config.clone(), 2);
        sharded.process(&txn(&[e(1, 1), e(2, 1)]));
        let before = sharded.snapshot();
        let rebuilt = ShardedAnalyzer::from_shards(config, sharded.into_shards());
        assert_eq!(rebuilt.snapshot(), before);
    }
}
