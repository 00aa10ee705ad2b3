//! Partition-invariant synopsis state for elastic re-sharding.
//!
//! A [`SynopsisSnapshot`] is the drained contents of a set of analyzer
//! shards — item and pair tables with tallies and recency order —
//! expressed independently of the shard count that produced it, so the
//! elastic pipeline can quiesce N shards, capture one snapshot and
//! re-seed N ± k fresh shards from it (ROADMAP "Adaptive stage
//! counts", DESIGN.md §11).
//!
//! **Merge rule.** Draining merges per-shard entries for the same key
//! by *summing tallies* and keeping the higher tier — exactly the
//! reconciliation [`ShardedAnalyzer`](crate::ShardedAnalyzer) applies
//! to hot-pair split tallies at merge time (DESIGN.md §9). When the
//! pair space is partitioned (no splitting) each pair lives on exactly
//! one shard and summing is the identity, so one rule covers both
//! dispatch regimes; re-seeding therefore reproduces the same
//! `frequent_pairs` and per-pair tallies as never having resized, for
//! any old/new shard-count combination, as long as no table
//! overflowed.
//!
//! **Recency.** Entries carry their MRU→LRU position within their tier
//! (minimum across shards for merged entries) and are re-seeded
//! MRU-first ([`TwoTierTable::seed`](crate::TwoTierTable::seed)
//! appends at the LRU end), so each rebuilt tier's recency order
//! interleaves the drained shards' orders deterministically. An
//! identity re-seed (same shard count, no split tallies) rebuilds
//! every shard's tables in exactly their drained order.
//!
//! **Items are approximate by construction.** Per-shard item tallies
//! are *not* reconstructible from any partition-invariant state: a
//! transaction `{a, b, c}` whose pairs straddle two shards records
//! item `b` once on each, so the per-shard counts depend on the old
//! topology (DESIGN.md §8 documents the same "counted once per owning
//! shard" semantics for the live sharded analyzer). Re-seeding places
//! each item, with its merged tally, on every new shard that received
//! a pair containing it — preserving the structural invariant the
//! item-eviction demotion hook relies on — and pairless items on their
//! hash shard. Item tallies only influence pair state through that
//! demotion hook, which never fires without item-table overflow, so
//! pair equivalence is unaffected in the no-overflow regime.

use rtdac_types::{Extent, ExtentPair, FxHashMap, FxHashSet};

use crate::analyzer::{AnalyzerConfig, AnalyzerStats, OnlineAnalyzer};
use crate::sharded::{shard_of_extent, shard_of_pair};
use crate::table::Tier;

/// One drained table entry: key, merged tally, merged tier, and the
/// minimum MRU→LRU rank the key held within its tier on any shard.
type Entry<K> = (K, u32, Tier, usize);

/// Shard-count-independent synopsis state: the merged contents of a
/// set of analyzer shards, ready to re-seed any number of fresh
/// shards. See the module docs for the merge and recency rules.
///
/// # Examples
///
/// ```
/// use rtdac_synopsis::{AnalyzerConfig, ShardedAnalyzer, SynopsisSnapshot};
/// use rtdac_types::{Extent, Timestamp, Transaction};
///
/// let config = AnalyzerConfig::with_capacity(1024);
/// let mut sharded = ShardedAnalyzer::new(config.clone(), 4);
/// let t = Transaction::from_extents(
///     Timestamp::ZERO,
///     [Extent::new(1, 1)?, Extent::new(9, 1)?],
/// );
/// for _ in 0..3 {
///     sharded.process(&t);
/// }
/// let before = sharded.frequent_pairs(1);
/// let snapshot = SynopsisSnapshot::capture(sharded.shards());
/// let reseeded = ShardedAnalyzer::from_shards(
///     config.clone(),
///     snapshot.reseed(&config, 2),
/// );
/// assert_eq!(reseeded.frequent_pairs(1), before);
/// # Ok::<(), rtdac_types::ExtentError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynopsisSnapshot {
    /// Merged pair entries, T2 before T1, each tier most-recent first.
    pairs: Vec<Entry<ExtentPair>>,
    /// Merged item entries, same order contract as `pairs`.
    items: Vec<Entry<Extent>>,
    /// Aggregate lifetime counters of the drained shards.
    stats: AnalyzerStats,
}

impl SynopsisSnapshot {
    /// Captures the merged state of `shards` without consuming them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn capture(shards: &[OnlineAnalyzer]) -> Self {
        assert!(!shards.is_empty(), "need at least one shard to capture");
        // Routed shards count no transactions; their front-end's figure
        // is carried outside the analyzers (`PipelineStats.transactions`).
        Self::capture_tables(
            shards
                .iter()
                .map(|s| (s.item_table(), s.correlation_table())),
            AnalyzerStats::merge_shards(shards.iter().map(OnlineAnalyzer::stats)),
        )
    }

    /// Captures and consumes `shards` — the quiesce path: the old
    /// epoch's analyzers are drained into the snapshot and dropped.
    pub fn drain(shards: Vec<OnlineAnalyzer>) -> Self {
        Self::capture(&shards)
    }

    /// Captures merged state from bare table references — the one merge
    /// behind [`capture`](Self::capture) and the
    /// [`LiveView`](crate::LiveView) snapshot path, which holds mirror
    /// tables rather than full analyzers, so a mirror set that tracks
    /// its shards bit-exactly yields an identical snapshot.
    pub(crate) fn capture_tables<'a, I>(parts: I, stats: AnalyzerStats) -> Self
    where
        I: Iterator<
            Item = (
                &'a crate::TwoTierTable<Extent>,
                &'a crate::TwoTierTable<ExtentPair>,
            ),
        >,
    {
        let mut pairs = Merger::default();
        let mut items = Merger::default();
        for (item_table, pair_table) in parts {
            pairs.absorb(pair_table.iter().map(|(k, tally, tier)| (*k, tally, tier)));
            items.absorb(item_table.iter().map(|(k, tally, tier)| (*k, tally, tier)));
        }
        SynopsisSnapshot {
            pairs: pairs.into_ordered(),
            items: items.into_ordered(),
            stats,
        }
    }

    /// Builds `shard_count` fresh shards seeded from this snapshot,
    /// each configured by [`AnalyzerConfig::split_across`] — the same
    /// equal-aggregate-memory division as
    /// [`ShardedAnalyzer::new`](crate::ShardedAnalyzer::new).
    ///
    /// Admission doorkeepers are **reset**, not carried: each fresh
    /// shard starts with a zeroed sketch sized for the new shard
    /// count. A sketch's counters are keyed by the old partition's
    /// traffic and have no meaningful redistribution onto a different
    /// topology, so the explicit contract is reset-on-reshard —
    /// already-stored pairs keep their seeded tallies (table counts
    /// stay monotone through a resize), while pairs still below the
    /// admission threshold re-earn admission afterwards.
    ///
    /// Every pair is seeded onto the shard owning its hash under the
    /// *new* count — where future hash-routed records for it will land
    /// — and items follow their pairs (see the module docs). The
    /// drained aggregate [`AnalyzerStats`] are carried on shard 0, so
    /// a sharded view over the result reports continuous counters.
    ///
    /// Under capacity pressure (shrinking into tables too small for
    /// the drained state, or hash imbalance) the least-recent entries
    /// of an overfull tier are dropped, exactly as sustained live
    /// traffic would have evicted them.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn reseed(&self, config: &AnalyzerConfig, shard_count: usize) -> Vec<OnlineAnalyzer> {
        assert!(shard_count > 0, "need at least one shard to reseed");
        let shard_config = config.split_across(shard_count);
        let mut shards: Vec<OnlineAnalyzer> = (0..shard_count)
            .map(|_| OnlineAnalyzer::new(shard_config.clone()))
            .collect();

        // Pairs: MRU-first onto the owner shard under the new count.
        let mut members: Vec<FxHashSet<Extent>> = vec![FxHashSet::default(); shard_count];
        for &(pair, tally, tier, _) in &self.pairs {
            let owner = shard_of_pair(&pair, shard_count);
            shards[owner].seed_pair(pair, tally, tier);
            members[owner].insert(pair.first());
            members[owner].insert(pair.second());
        }

        // Items: MRU-first onto every shard holding one of their pairs
        // (the demotion hook is shard-local), else the hash shard.
        for &(extent, tally, tier, _) in &self.items {
            let mut placed = false;
            for (shard, set) in members.iter().enumerate() {
                if set.contains(&extent) {
                    shards[shard].seed_item(extent, tally, tier);
                    placed = true;
                }
            }
            if !placed {
                shards[shard_of_extent(&extent, shard_count)].seed_item(extent, tally, tier);
            }
        }

        shards[0].set_stats(self.stats);
        shards
    }

    /// Merged pair entries as `(pair, tally, tier)`, T2 before T1,
    /// each tier most-recent first.
    pub fn pairs(&self) -> impl Iterator<Item = (ExtentPair, u32, Tier)> + '_ {
        self.pairs
            .iter()
            .map(|&(k, tally, tier, _)| (k, tally, tier))
    }

    /// Merged item entries as `(extent, tally, tier)`, same order
    /// contract as [`pairs`](SynopsisSnapshot::pairs).
    pub fn items(&self) -> impl Iterator<Item = (Extent, u32, Tier)> + '_ {
        self.items
            .iter()
            .map(|&(k, tally, tier, _)| (k, tally, tier))
    }

    /// Aggregate lifetime counters of the drained shards.
    pub fn stats(&self) -> AnalyzerStats {
        self.stats
    }
}

/// Accumulates per-shard table iterations into merged, recency-ranked
/// entries (sum tallies, max tier, min per-tier rank).
struct Merger<K> {
    slots: FxHashMap<K, usize>,
    entries: Vec<Entry<K>>,
}

impl<K> Default for Merger<K> {
    fn default() -> Self {
        Merger {
            slots: FxHashMap::default(),
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + std::hash::Hash + Ord> Merger<K> {
    /// Absorbs one shard's iteration (T2 then T1, each MRU→LRU — the
    /// [`TwoTierTable::iter`](crate::TwoTierTable::iter) contract).
    fn absorb(&mut self, entries: impl Iterator<Item = (K, u32, Tier)>) {
        let (mut t1_rank, mut t2_rank) = (0usize, 0usize);
        for (key, tally, tier) in entries {
            let rank = match tier {
                Tier::T2 => {
                    t2_rank += 1;
                    t2_rank - 1
                }
                Tier::T1 => {
                    t1_rank += 1;
                    t1_rank - 1
                }
            };
            match self.slots.entry(key) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    let entry = &mut self.entries[*slot.get()];
                    entry.1 += tally;
                    entry.2 = entry.2.max(tier);
                    entry.3 = entry.3.min(rank);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(self.entries.len());
                    self.entries.push((key, tally, tier, rank));
                }
            }
        }
    }

    /// The merged entries in canonical seed order: T2 before T1, each
    /// tier by ascending rank (most recent first), ties broken by
    /// descending tally then ascending key — fully deterministic for
    /// any shard iteration interleaving.
    fn into_ordered(mut self) -> Vec<Entry<K>> {
        self.entries.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then_with(|| a.3.cmp(&b.3))
                .then_with(|| b.1.cmp(&a.1))
                .then_with(|| a.0.cmp(&b.0))
        });
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedAnalyzer;
    use rtdac_types::{Timestamp, Transaction};

    fn e(start: u64, len: u32) -> Extent {
        Extent::new(start, len).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    fn stream(n: u64) -> Vec<Transaction> {
        // Recurring correlated pairs over a noisy background, enough
        // churn to exercise promotions and recency movement.
        (0..n)
            .map(|i| txn(&[e(i % 13, 1), e((i * 7) % 29 + 100, 1), e(i % 5 + 400, 1)]))
            .collect()
    }

    #[test]
    fn identity_reseed_reproduces_shards_exactly() {
        // Same shard count in and out, no split tallies: every pair
        // returns to the shard that held it with its order intact, so
        // each rebuilt pair table must match the original snapshot.
        let config = AnalyzerConfig::with_capacity(4 * 1024);
        let mut sharded = ShardedAnalyzer::new(config.clone(), 4);
        for t in stream(500) {
            sharded.process(&t);
        }
        let snapshot = SynopsisSnapshot::capture(sharded.shards());
        let reseeded = snapshot.reseed(&config, 4);
        for (old, new) in sharded.shards().iter().zip(&reseeded) {
            assert_eq!(old.snapshot().pairs, new.snapshot().pairs);
        }
    }

    #[test]
    fn reseed_preserves_frequent_pairs_for_any_shard_count() {
        let config = AnalyzerConfig::with_capacity(4 * 1024);
        for old_count in [1usize, 2, 4] {
            let mut sharded = ShardedAnalyzer::new(config.clone(), old_count);
            for t in stream(500) {
                sharded.process(&t);
            }
            let want = sharded.frequent_pairs(1);
            let snapshot = SynopsisSnapshot::capture(sharded.shards());
            for new_count in [1usize, 2, 3, 4, 8] {
                let reseeded = ShardedAnalyzer::from_shards(
                    config.clone(),
                    snapshot.reseed(&config, new_count),
                );
                assert_eq!(
                    reseeded.frequent_pairs(1),
                    want,
                    "{old_count} -> {new_count} shards"
                );
            }
        }
    }

    #[test]
    fn processing_continues_equivalently_after_reshard() {
        // Grow 2 -> 4 mid-stream and shrink 4 -> 2 mid-stream: the
        // final frequent-pair view must equal never having resized.
        let config = AnalyzerConfig::with_capacity(4 * 1024);
        let transactions = stream(600);
        let (first, second) = transactions.split_at(300);
        for (old_count, new_count) in [(2usize, 4usize), (4, 2), (3, 1)] {
            let mut baseline = ShardedAnalyzer::new(config.clone(), new_count);
            let mut elastic = ShardedAnalyzer::new(config.clone(), old_count);
            for t in first {
                baseline.process(t);
                elastic.process(t);
            }
            let mut elastic = elastic.resharded(new_count);
            for t in second {
                baseline.process(t);
                elastic.process(t);
            }
            assert_eq!(
                elastic.frequent_pairs(1),
                baseline.frequent_pairs(1),
                "{old_count} -> {new_count} shards"
            );
            // Counters stay continuous across the reshard.
            assert_eq!(elastic.stats().transactions, transactions.len() as u64);
            assert_eq!(elastic.stats().pairs, baseline.stats().pairs);
        }
    }

    #[test]
    fn split_tallies_reconcile_through_reseed() {
        // A hot pair with partial tallies on both shards (as a
        // splitting router leaves it): the snapshot must merge the
        // partials by summation, and a reseed to any count must report
        // the exact total — the PR 2/3 merge rule.
        let config = AnalyzerConfig::with_capacity(64);
        let hot = ExtentPair::new(e(1, 1), e(2, 1)).unwrap();
        let mut shards = ShardedAnalyzer::new(config.clone(), 2).into_shards();
        for _ in 0..3 {
            shards[0].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        for _ in 0..2 {
            shards[1].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        let snapshot = SynopsisSnapshot::capture(&shards);
        assert_eq!(
            snapshot.pairs().collect::<Vec<_>>(),
            vec![(hot, 5, Tier::T2)]
        );
        for new_count in [1usize, 2, 3] {
            let reseeded = ShardedAnalyzer::from_routed_shards(
                config.clone(),
                snapshot.reseed(&config, new_count),
                5,
                true,
            );
            assert_eq!(reseeded.frequent_pairs(1), vec![(hot, 5)]);
        }
    }

    #[test]
    fn reseed_under_capacity_pressure_keeps_most_recent() {
        // Shrinking 4 shards of state into 1-entry-per-tier tables
        // must not panic and must retain the most recent entries.
        let config = AnalyzerConfig::with_capacity(4);
        let mut sharded = ShardedAnalyzer::new(config.clone(), 4);
        for t in stream(200) {
            sharded.process(&t);
        }
        let snapshot = SynopsisSnapshot::capture(sharded.shards());
        let tiny = AnalyzerConfig::with_capacity(1);
        let reseeded = snapshot.reseed(&tiny, 1);
        assert_eq!(reseeded.len(), 1);
        let table = reseeded[0].correlation_table();
        assert!(table.len() <= table.capacity());
        // The seed order is MRU-first, so whatever survived is a
        // prefix of the snapshot's recency order for its tier.
        let first = snapshot.pairs().next();
        if let Some((first, ..)) = first {
            if table.tier_len(Tier::T2) > 0 {
                assert!(table.contains(&first));
            }
        }
    }

    #[test]
    fn reshard_resets_doorkeeper_but_keeps_counts_monotone() {
        use crate::analyzer::{Admission, DoorkeeperConfig};

        // The explicit reset-on-reshard contract: stored pairs carry
        // their tallies across the resize (count monotonicity), fresh
        // shards start with zeroed sketches, and a pair still below the
        // admission threshold re-earns admission afterwards.
        let config = AnalyzerConfig::with_capacity(1024).admission(Admission::Doorkeeper(
            DoorkeeperConfig {
                counters: 4096,
                admit_threshold: 2,
                watermark: u64::MAX,
            },
        ));
        let mut sharded = ShardedAnalyzer::new(config.clone(), 2);
        let admitted = txn(&[e(1, 1), e(2, 1)]);
        let pending = txn(&[e(50, 1), e(60, 1)]);
        for _ in 0..4 {
            sharded.process(&admitted);
        }
        sharded.process(&pending); // one sighting: rejected, sketch = 1
        let before = sharded.frequent_pairs(1);
        assert_eq!(before.len(), 1);
        let tally_before = before[0].1;
        // Each pair's first sighting was rejected (sketch bumped to 1).
        assert_eq!(sharded.stats().pair_rejections, 2);

        let mut resharded = sharded.resharded(4);
        // Stored tallies survive; nothing shrank.
        assert_eq!(resharded.frequent_pairs(1), before);
        // Sketches are fresh: zero counters, watermark progress reset.
        for shard in resharded.shards() {
            let dk = shard.doorkeeper().expect("admission survived the split");
            assert_eq!(dk.insertions_since_halving(), 0);
        }
        // The pending pair lost its single sketch sighting and must
        // re-earn admission: one sighting is again not enough...
        resharded.process(&pending);
        assert_eq!(resharded.frequent_pairs(1).len(), 1);
        // ... while the admitted pair keeps counting monotonically.
        resharded.process(&admitted);
        assert_eq!(resharded.frequent_pairs(1)[0].1, tally_before + 1);
        // ... and a second post-reshard sighting admits the pending pair.
        resharded.process(&pending);
        assert_eq!(resharded.frequent_pairs(1).len(), 2);
    }

    #[test]
    fn drain_consumes_and_matches_capture() {
        let config = AnalyzerConfig::with_capacity(256);
        let mut sharded = ShardedAnalyzer::new(config.clone(), 2);
        for t in stream(100) {
            sharded.process(&t);
        }
        let captured = SynopsisSnapshot::capture(sharded.shards());
        let drained = SynopsisSnapshot::drain(sharded.into_shards());
        assert_eq!(
            captured.pairs().collect::<Vec<_>>(),
            drained.pairs().collect::<Vec<_>>()
        );
        assert_eq!(
            captured.items().collect::<Vec<_>>(),
            drained.items().collect::<Vec<_>>()
        );
        assert_eq!(captured.stats(), drained.stats());
    }
}
