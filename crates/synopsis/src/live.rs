//! The reader side of the quiesce-free query path: a persistent merged
//! synopsis folded from epoch-published shard deltas (DESIGN.md §15).
//!
//! A [`LiveView`] holds one mirror [`TwoTierTable`] pair per shard and
//! advances each mirror by replaying the shard's published
//! [`ShardDelta`]s: ops chronologically (evictions, back-of-T1
//! demotions), then the touched prefixes LRU-first via push-front
//! upserts, which reproduces the shard's tables **bit-exactly** —
//! keys, tallies, tiers and per-tier recency order. Queries then run
//! the identical merge logic as [`ShardedAnalyzer`](crate::ShardedAnalyzer)
//! over the mirrors, so a `LiveView` read at epoch `E` equals a
//! quiesced [`SynopsisSnapshot`] taken at `E`'s batch boundary.
//!
//! Folding and querying touch no locks and — once the reused scratch
//! buffers reach their plateau — allocate nothing; shard workers
//! publish through wait-free SPSC rings and never block on readers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use rtdac_types::{shard_of_pair, Epoch, Extent, ExtentPair, FxHashMap};

use crate::analyzer::{AnalyzerConfig, AnalyzerStats};
use crate::delta::{DeltaOp, ShardDelta, TableDelta};
use crate::snapshot::SynopsisSnapshot;
use crate::table::{Tier, TwoTierTable};

/// One shard's mirror: both synopsis tables plus the shard's counters
/// and the epoch the mirror has been folded up to.
#[derive(Clone, Debug)]
struct ShardMirror {
    items: TwoTierTable<Extent>,
    pairs: TwoTierTable<ExtentPair>,
    stats: AnalyzerStats,
    epoch: Epoch,
}

/// A lock-free merged read view over epoch-published shard deltas.
///
/// Build one sized like the shard set it mirrors, feed it every
/// published [`ShardDelta`] via [`apply_delta`](LiveView::apply_delta),
/// and query it with the same semantics as
/// [`ShardedAnalyzer`](crate::ShardedAnalyzer):
/// [`frequent_pairs`](LiveView::frequent_pairs) (and its allocation-free
/// sibling [`frequent_pairs_into`](LiveView::frequent_pairs_into)),
/// top-k, and per-key point queries. Staleness is bounded by the
/// publish cadence: the view lags the ingest frontier by at most one
/// epoch once every in-flight delta is folded.
#[derive(Clone, Debug)]
pub struct LiveView {
    mirrors: Vec<ShardMirror>,
    /// Hot-pair splitting upstream: a pair's tally may be spread over
    /// several mirrors and merges must sum per pair.
    split_tallies: bool,
    /// Reused per-mirror sorted lists for the k-way merge (non-split).
    lists: Vec<Vec<(ExtentPair, u32)>>,
    /// Reused merge heap, keyed like `ShardedAnalyzer::frequent_pairs`.
    heap: BinaryHeap<(u32, Reverse<ExtentPair>, usize, usize)>,
    /// Reused per-pair summing scratch (split path).
    sums: FxHashMap<ExtentPair, u32>,
}

impl LiveView {
    /// Creates a view mirroring `shard_count` shards of an analyzer
    /// built from `config` — the same
    /// [`split_across`](AnalyzerConfig::split_across) sizing the real
    /// shards use. `split_tallies` must match the upstream dispatch
    /// (see [`ShardedAnalyzer::from_routed_shards`](crate::ShardedAnalyzer::from_routed_shards)).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn new(config: &AnalyzerConfig, shard_count: usize, split_tallies: bool) -> Self {
        assert!(shard_count > 0, "need at least one shard to mirror");
        let shard_config = config.split_across(shard_count);
        let mirrors = (0..shard_count)
            .map(|_| ShardMirror {
                items: TwoTierTable::new(
                    shard_config.item_capacity_per_tier,
                    shard_config.item_capacity_per_tier,
                    shard_config.promote_threshold,
                ),
                pairs: TwoTierTable::new(
                    shard_config.correlation_capacity_per_tier,
                    shard_config.correlation_capacity_per_tier,
                    shard_config.promote_threshold,
                ),
                stats: AnalyzerStats::default(),
                epoch: Epoch::ZERO,
            })
            .collect();
        LiveView {
            mirrors,
            split_tallies,
            lists: (0..shard_count).map(|_| Vec::new()).collect(),
            heap: BinaryHeap::new(),
            sums: FxHashMap::default(),
        }
    }

    /// Number of shards mirrored.
    pub fn shard_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Whether merges sum per-pair tallies across mirrors.
    pub fn split_tallies(&self) -> bool {
        self.split_tallies
    }

    /// The epoch every mirror has reached — the view's consistency
    /// point: the slowest shard's folded boundary.
    pub fn epoch(&self) -> Epoch {
        self.mirrors
            .iter()
            .map(|m| m.epoch)
            .min()
            .unwrap_or(Epoch::ZERO)
    }

    /// The epoch `shard`'s mirror has been folded to.
    pub fn shard_epoch(&self, shard: usize) -> Epoch {
        self.mirrors[shard].epoch
    }

    /// Folds one published delta into `shard`'s mirror: ops replay
    /// chronologically, then the touched prefixes LRU-first so
    /// push-front upserts reproduce the shard's exact recency order.
    /// Allocation-free once the mirrors have reached their capacity
    /// plateau.
    pub fn apply_delta(&mut self, shard: usize, delta: &ShardDelta) {
        let mirror = &mut self.mirrors[shard];
        mirror.epoch = delta.epoch;
        mirror.stats = delta.stats;
        apply_table(&mut mirror.items, &delta.items);
        apply_table(&mut mirror.pairs, &delta.pairs);
    }

    /// The stored correlations with tally at least `min_tally`, sorted
    /// by descending tally then ascending pair — exactly
    /// [`ShardedAnalyzer::frequent_pairs`](crate::ShardedAnalyzer::frequent_pairs)
    /// over the mirrored state. Allocates the result vector; the query
    /// loop of a live pipeline should prefer
    /// [`frequent_pairs_into`](LiveView::frequent_pairs_into).
    pub fn frequent_pairs(&mut self, min_tally: u32) -> Vec<(ExtentPair, u32)> {
        let mut out = Vec::new();
        self.frequent_pairs_into(min_tally, &mut out);
        out
    }

    /// [`frequent_pairs`](LiveView::frequent_pairs) into a reused
    /// output vector: with a warm `out` and warm internal scratch this
    /// performs no allocation.
    ///
    /// Both merge paths reproduce the sharded analyzer's ordering
    /// contract. The comparator (descending tally, ascending pair) is a
    /// total order over unique pairs, so the unstable sorts used here —
    /// chosen because stable sorts allocate — yield identical output.
    pub fn frequent_pairs_into(&mut self, min_tally: u32, out: &mut Vec<(ExtentPair, u32)>) {
        self.strongest_pairs_into(min_tally, usize::MAX, out);
    }

    /// The `k` strongest stored correlations (any tally), strongest
    /// first — [`frequent_pairs_into`](LiveView::frequent_pairs_into)
    /// truncated to `k`, without sorting the pairs that cannot make
    /// the cut.
    pub fn top_pairs_into(&mut self, k: usize, out: &mut Vec<(ExtentPair, u32)>) {
        self.strongest_pairs_into(1, k, out);
    }

    /// The first `limit` entries of the merged report over pairs with
    /// tally at least `min_tally`. Each candidate list is cut to its
    /// `limit` strongest by selection before it is sorted, and the
    /// merge stops after `limit` outputs: the global top `limit` lies
    /// within the union of every list's top `limit`.
    fn strongest_pairs_into(
        &mut self,
        min_tally: u32,
        limit: usize,
        out: &mut Vec<(ExtentPair, u32)>,
    ) {
        out.clear();
        if self.split_tallies {
            self.sums.clear();
            for mirror in &self.mirrors {
                for (pair, tally, _) in mirror.pairs.iter() {
                    *self.sums.entry(*pair).or_insert(0) += tally;
                }
            }
            out.extend(
                self.sums
                    .iter()
                    .filter(|&(_, &tally)| tally >= min_tally)
                    .map(|(&pair, &tally)| (pair, tally)),
            );
            keep_strongest(out, limit);
            return;
        }
        for (mirror, list) in self.mirrors.iter().zip(self.lists.iter_mut()) {
            list.clear();
            list.extend(
                mirror
                    .pairs
                    .iter()
                    .filter(|&(_, tally, _)| tally >= min_tally)
                    .map(|(pair, tally, _)| (*pair, tally)),
            );
            keep_strongest(list, limit);
        }
        self.heap.clear();
        for (i, list) in self.lists.iter().enumerate() {
            if let Some(&(pair, tally)) = list.first() {
                self.heap.push((tally, Reverse(pair), i, 0));
            }
        }
        while out.len() < limit {
            let Some((tally, Reverse(pair), list, pos)) = self.heap.pop() else {
                break;
            };
            out.push((pair, tally));
            let next = pos + 1;
            if let Some(&(p, t)) = self.lists[list].get(next) {
                self.heap.push((t, Reverse(p), list, next));
            }
        }
    }

    /// Point query: the merged tally of `pair`, if stored. Without
    /// split tallies this is one lookup on the owning mirror; with
    /// them, the sum of the per-mirror partials.
    pub fn pair_tally(&self, pair: &ExtentPair) -> Option<u32> {
        if self.split_tallies {
            let mut sum = 0u32;
            let mut found = false;
            for mirror in &self.mirrors {
                if let Some(tally) = mirror.pairs.tally(pair) {
                    sum += tally;
                    found = true;
                }
            }
            return found.then_some(sum);
        }
        self.mirrors[shard_of_pair(pair, self.mirrors.len())]
            .pairs
            .tally(pair)
    }

    /// Point query: the summed item tally of `extent` across mirrors.
    /// Items are counted once per owning shard (DESIGN.md §8), so the
    /// sum matches the sharded analyzer's aggregate view.
    pub fn item_tally(&self, extent: &Extent) -> Option<u32> {
        let mut sum = 0u32;
        let mut found = false;
        for mirror in &self.mirrors {
            if let Some(tally) = mirror.items.tally(extent) {
                sum += tally;
                found = true;
            }
        }
        found.then_some(sum)
    }

    /// Merged lifetime counters at the folded boundary, with the
    /// [`ShardedAnalyzer::stats`](crate::ShardedAnalyzer::stats)
    /// conventions: record counters sum across mirrors; the transaction
    /// count is taken from mirror 0 (authoritative for sequentially fed
    /// shards, zero for routed shards, whose front-end counts).
    pub fn stats(&self) -> AnalyzerStats {
        AnalyzerStats::merge_shards(self.mirrors.iter().map(|m| m.stats))
    }

    /// A quiesced-equivalent snapshot of the mirrored state: runs the
    /// identical merge as [`SynopsisSnapshot::capture`] over the
    /// mirrors, so at epoch `E` it equals a snapshot captured from the
    /// real shards at `E`'s batch boundary. Allocates (not a hot-path
    /// query).
    pub fn snapshot(&self) -> SynopsisSnapshot {
        SynopsisSnapshot::capture_tables(
            self.mirrors.iter().map(|m| (&m.items, &m.pairs)),
            self.stats(),
        )
    }

    /// Capacity-based footprint of the view: every mirror table plus
    /// the reused query scratch at its current plateau. The publish
    /// side's delta buffers are accounted separately
    /// ([`ShardDelta::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        let mirrors: usize = self
            .mirrors
            .iter()
            .map(|m| m.items.memory_bytes() + m.pairs.memory_bytes())
            .sum();
        let scratch = self
            .lists
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<(ExtentPair, u32)>())
            .sum::<usize>()
            + self.heap.capacity()
                * std::mem::size_of::<(u32, Reverse<ExtentPair>, usize, usize)>()
            + self.sums.capacity()
                * (std::mem::size_of::<ExtentPair>() + std::mem::size_of::<u32>());
        mirrors + scratch
    }
}

/// The report order: descending tally, then ascending pair.
fn by_strength(a: &(ExtentPair, u32), b: &(ExtentPair, u32)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Cuts `list` to its `limit` strongest entries, sorted strongest
/// first. In-place selection and sorting: no allocation.
fn keep_strongest(list: &mut Vec<(ExtentPair, u32)>, limit: usize) {
    if limit < list.len() {
        list.select_nth_unstable_by(limit, by_strength);
        list.truncate(limit);
    }
    list.sort_unstable_by(by_strength);
}

/// Replays one table delta onto its mirror (see the module docs for
/// why this ordering is exact).
fn apply_table<K: Eq + Hash + Clone>(table: &mut TwoTierTable<K>, delta: &TableDelta<K>) {
    if delta.rebase {
        table.clear();
    }
    for op in &delta.ops {
        match op {
            DeltaOp::Evict(k) => table.apply_remove(k),
            DeltaOp::DemoteBack(k, tally) => table.apply_upsert_back_t1(k, *tally),
        }
    }
    for (k, tally) in delta.touched_t1.iter().rev() {
        table.apply_upsert_front(k, *tally, Tier::T1);
    }
    for (k, tally) in delta.touched_t2.iter().rev() {
        table.apply_upsert_front(k, *tally, Tier::T2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::OnlineAnalyzer;
    use crate::ShardedAnalyzer;
    use rtdac_types::{Timestamp, Transaction};

    fn e(start: u64, len: u32) -> Extent {
        Extent::new(start, len).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    fn stream(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| txn(&[e(i % 13, 1), e((i * 7) % 29 + 100, 1), e(i % 5 + 400, 1)]))
            .collect()
    }

    /// Feeds a sharded analyzer and a LiveView in lockstep, publishing
    /// a delta from every shard each `interval` transactions; at every
    /// publish boundary the view must equal a quiesced snapshot.
    fn view_tracks_shards(shard_count: usize, capacity: usize, interval: usize) {
        let config = AnalyzerConfig::with_capacity(capacity);
        let mut shards: Vec<OnlineAnalyzer> =
            ShardedAnalyzer::new(config.clone(), shard_count).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(&config, shard_count, false);
        let mut delta = ShardDelta::default();
        for (i, t) in stream(600).iter().enumerate() {
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.process_partition(t, s, shard_count);
            }
            if (i + 1) % interval == 0 {
                for (s, shard) in shards.iter_mut().enumerate() {
                    shard.extract_delta(&mut delta);
                    delta.epoch = Epoch::new((i + 1) as u64);
                    view.apply_delta(s, &delta);
                }
                assert_eq!(
                    view.snapshot(),
                    SynopsisSnapshot::capture(&shards),
                    "diverged at transaction {} ({shard_count} shards)",
                    i + 1
                );
                let merged =
                    ShardedAnalyzer::from_shards(config.clone(), shards.clone()).frequent_pairs(2);
                assert_eq!(view.frequent_pairs(2), merged);
                assert_eq!(view.epoch(), Epoch::new((i + 1) as u64));
            }
        }
    }

    #[test]
    fn live_view_is_bit_exact_at_every_publish() {
        view_tracks_shards(1, 4 * 1024, 37);
        view_tracks_shards(4, 4 * 1024, 29);
        // Tiny tables force eviction/demotion churn through the delta.
        view_tracks_shards(2, 8, 13);
    }

    #[test]
    fn split_tallies_sum_like_the_sharded_merge() {
        let config = AnalyzerConfig::with_capacity(64);
        let hot = ExtentPair::new(e(1, 1), e(2, 1)).unwrap();
        let cold = ExtentPair::new(e(10, 1), e(20, 1)).unwrap();
        let mut shards = ShardedAnalyzer::new(config.clone(), 2).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(&config, 2, true);
        for _ in 0..3 {
            shards[0].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        for _ in 0..2 {
            shards[1].process_routed(&[e(1, 1), e(2, 1)], &[hot]);
        }
        shards[1].process_routed(&[e(10, 1), e(20, 1)], &[cold]);
        let mut delta = ShardDelta::default();
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.extract_delta(&mut delta);
            delta.epoch = Epoch::new(1);
            view.apply_delta(s, &delta);
        }
        assert_eq!(view.frequent_pairs(1), vec![(hot, 5), (cold, 1)]);
        assert_eq!(view.frequent_pairs(4), vec![(hot, 5)]);
        assert_eq!(view.pair_tally(&hot), Some(5));
        assert_eq!(view.pair_tally(&cold), Some(1));
        let mut top = Vec::new();
        view.top_pairs_into(1, &mut top);
        assert_eq!(top, vec![(hot, 5)]);
        // Items were recorded on both shards; the point query sums.
        assert_eq!(view.item_tally(&e(1, 1)), Some(5));
        assert_eq!(view.item_tally(&e(999, 1)), None);
    }

    #[test]
    fn point_queries_match_owning_shard() {
        let config = AnalyzerConfig::with_capacity(1024);
        let shard_count = 4;
        let mut shards = ShardedAnalyzer::new(config.clone(), shard_count).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(&config, shard_count, false);
        for t in stream(200) {
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.process_partition(&t, s, shard_count);
            }
        }
        let mut delta = ShardDelta::default();
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.extract_delta(&mut delta);
            delta.epoch = Epoch::new(200);
            view.apply_delta(s, &delta);
        }
        let merged = ShardedAnalyzer::from_shards(config, shards);
        for (pair, tally) in merged.frequent_pairs(1) {
            assert_eq!(view.pair_tally(&pair), Some(tally));
        }
        assert_eq!(view.stats(), merged.stats());
    }

    /// `top_pairs_into(k)` must be the first `k` entries of the full
    /// report, for every `k` around the edges, on `view`.
    fn assert_top_k_is_report_prefix(view: &mut LiveView) {
        let report = view.frequent_pairs(1);
        let n = report.len();
        assert!(n > 20, "need more than 20 stored pairs, have {n}");
        let mut top = Vec::new();
        for k in [0, 1, 20, n - 1, n, n + 5] {
            view.top_pairs_into(k, &mut top);
            assert_eq!(top, report[..k.min(n)], "k = {k} of {n}");
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_report_on_both_merge_paths() {
        // Per-mirror k-way merge: four routed shards.
        let config = AnalyzerConfig::with_capacity(4 * 1024);
        let shard_count = 4;
        let mut shards = ShardedAnalyzer::new(config.clone(), shard_count).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(&config, shard_count, false);
        for t in stream(300) {
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.process_partition(&t, s, shard_count);
            }
        }
        let mut delta = ShardDelta::default();
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.extract_delta(&mut delta);
            view.apply_delta(s, &delta);
        }
        assert_top_k_is_report_prefix(&mut view);

        // Split tallies: one pair's partials spread over several
        // mirrors, with many tied sums.
        let shard_count = 3;
        let mut shards = ShardedAnalyzer::new(config.clone(), shard_count).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(&config, shard_count, true);
        for i in 0..600u64 {
            let (a, b) = (e(i % 17, 1), e(100 + i % 11, 1));
            let pair = ExtentPair::new(a, b).unwrap();
            shards[(i % 3) as usize].process_routed(&[a, b], &[pair]);
        }
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.extract_delta(&mut delta);
            view.apply_delta(s, &delta);
        }
        assert_top_k_is_report_prefix(&mut view);
    }

    #[test]
    fn memory_bytes_covers_mirrors() {
        let config = AnalyzerConfig::with_capacity(256);
        let view = LiveView::new(&config, 2, false);
        let shard_config = config.split_across(2);
        let one_items = TwoTierTable::<Extent>::new(
            shard_config.item_capacity_per_tier,
            shard_config.item_capacity_per_tier,
            2,
        )
        .memory_bytes();
        assert!(view.memory_bytes() >= 2 * one_items);
    }
}
