//! Routed batch dispatch: compute each transaction's pair set **once**
//! at the front-end and partition it into per-shard work lists, so no
//! shard re-deduplicates or re-hashes the records it does not own.
//!
//! ```text
//!            ┌───────────── Router ─────────────┐
//!  batch ───▶│ dedup once · hash each pair once │──▶ RoutedBatch
//!            │ hot-pair tally · round-robin split│      ├─ WorkList shard 0
//!            └──────────────────────────────────┘      ├─ WorkList shard 1
//!                                                      └─ WorkList shard N
//! ```
//!
//! A [`WorkList`] is the exact record sequence its shard must apply:
//! per routed transaction, the item records (deduplicated arrival order)
//! followed by the owned pair records (canonical `(i, j)` enumeration
//! order) — the same order `OnlineAnalyzer::process_partition` produces,
//! so [`WorkList::apply`] leaves a shard's tables bit-for-bit identical
//! to `process_partition` over the full stream while doing only
//! O(owned work) per shard.
//!
//! **Hot-pair splitting.** `fx_hash` partitions the pair space evenly,
//! but a Zipf-hot pair serializes on its owning shard. With
//! [`SplitConfig`] enabled the router keeps a small decayed top-K tally
//! of pair hashes; once a pair's share of recent pair records crosses
//! [`SplitConfig::hot_fraction`], its records are dealt round-robin
//! across all shards instead of hashed. Each split record carries its
//! member-extent item records along (the demotion hook stays
//! shard-local), and the merge paths of
//! [`ShardedAnalyzer`](rtdac_synopsis::ShardedAnalyzer) sum the per-shard
//! partial tallies, so totals are exact — see
//! `ShardedAnalyzer::from_routed_shards`.
//!
//! # Examples
//!
//! ```
//! use rtdac_monitor::{Router, RouterConfig};
//! use rtdac_synopsis::{AnalyzerConfig, ShardedAnalyzer};
//! use rtdac_types::{Extent, Timestamp, Transaction};
//!
//! let mut router = Router::new(RouterConfig::new(2));
//! let txn = Transaction::from_extents(
//!     Timestamp::ZERO,
//!     [Extent::new(1, 1)?, Extent::new(9, 1)?],
//! );
//! let batch = router.route(vec![txn]);
//! // Exactly one shard owns the pair's work.
//! let owners = batch.per_shard.iter().filter(|w| !w.is_empty()).count();
//! assert_eq!(owners, 1);
//! # Ok::<(), rtdac_types::ExtentError>(())
//! ```

use std::sync::Arc;

use rtdac_synopsis::OnlineAnalyzer;
use rtdac_types::{
    fx_hash, shard_for_hash, shard_of_extent, Extent, ExtentPair, InlineVec, IoOp, Transaction,
};

/// Dedup scratch capacity; transactions are capped at 8 requests by the
/// monitor (hand-built ones spill transparently).
const TXN_SCRATCH: usize = 8;

/// Hot-pair splitting knobs of a [`Router`].
#[derive(Clone, Debug, PartialEq)]
pub struct SplitConfig {
    /// A pair is *hot* — and its records are spread round-robin across
    /// all shards — once its decayed tally reaches this fraction of the
    /// decayed total of recent pair records (default 0.10).
    pub hot_fraction: f64,
    /// Slots in the top-K tracker (default 16). Only pairs heavy enough
    /// to hold a slot can be classified hot, so K bounds both memory and
    /// the number of simultaneously split pairs.
    pub tracker_slots: usize,
    /// Pair records between tally halvings (default 4096). Halving makes
    /// the tally a sliding estimate, so a pair that *was* hot decays back
    /// to hash routing when the workload drifts.
    pub decay_interval: u64,
    /// Pair records observed before any split decision is made (default
    /// 256) — too small a sample would split on noise.
    pub warmup: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            hot_fraction: 0.10,
            tracker_slots: 16,
            decay_interval: 4096,
            warmup: 256,
        }
    }
}

/// Shape of a [`Router`]: shard count, the analyzer's op filter (applied
/// once at the front-end instead of once per shard), and optional
/// hot-pair splitting.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterConfig {
    /// Number of shards work is partitioned across.
    pub shard_count: usize,
    /// Only requests of this direction are routed (mirrors
    /// `AnalyzerConfig::op_filter`; the routed fast path skips shard-side
    /// filtering, so the filter must be applied here).
    pub op_filter: Option<IoOp>,
    /// Hot-pair splitting; `None` routes every pair by hash.
    pub split: Option<SplitConfig>,
}

impl RouterConfig {
    /// A router over `shard_count` shards, no op filter, no splitting.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn new(shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        RouterConfig {
            shard_count,
            op_filter: None,
            split: None,
        }
    }

    /// Restricts routing to one request direction.
    pub fn op_filter(mut self, op: Option<IoOp>) -> Self {
        self.op_filter = op;
        self
    }

    /// Enables hot-pair splitting.
    pub fn split(mut self, split: SplitConfig) -> Self {
        self.split = Some(split);
        self
    }

    /// Sets hot-pair splitting from an optional config.
    pub fn split_opt(mut self, split: Option<SplitConfig>) -> Self {
        self.split = split;
        self
    }
}

/// One shard's share of a routed batch: the exact record sequence to
/// apply, flattened into parallel arrays.
///
/// For each routed transaction, `txns` holds its `(item records, pair
/// records)` counts; the records themselves are consumed in order from
/// `extents` and `pairs`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkList {
    /// `(extent count, pair count)` per transaction routed to this shard.
    pub txns: Vec<(u32, u32)>,
    /// Item records, flattened across transactions.
    pub extents: Vec<Extent>,
    /// Pair records, flattened across transactions.
    pub pairs: Vec<ExtentPair>,
}

impl WorkList {
    /// Whether this shard received no work from the batch.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Total table records (items + pairs) in the list — the per-shard
    /// work metric the load-balance benchmarks report.
    pub fn ops(&self) -> u64 {
        (self.extents.len() + self.pairs.len()) as u64
    }

    /// Empties the list, keeping its buffer capacity. The pipeline
    /// recycles work lists through return rings (shard workers clear and
    /// hand buffers back to their router), so steady state routes with
    /// zero allocation — see `IngestPipeline`.
    pub fn clear(&mut self) {
        self.txns.clear();
        self.extents.clear();
        self.pairs.clear();
    }

    /// Applies the list to a shard: per transaction, the item records
    /// then the pair records, exactly as `process_partition` would have.
    pub fn apply(&self, shard: &mut OnlineAnalyzer) {
        let (mut e, mut p) = (0usize, 0usize);
        for &(extents, pairs) in &self.txns {
            let (ne, np) = (extents as usize, pairs as usize);
            shard.process_routed(&self.extents[e..e + ne], &self.pairs[p..p + np]);
            e += ne;
            p += np;
        }
    }
}

/// A batch routed into per-shard work lists. The transactions ride along
/// refcounted (consumers that need timestamps or request metadata read
/// them without another copy); shard workers index `per_shard` by their
/// own shard number.
#[derive(Clone, Debug)]
pub struct RoutedBatch {
    /// The batch's transactions, shared across shard rings.
    pub txns: Arc<[Transaction]>,
    /// One work list per shard, indexed by shard number.
    pub per_shard: Vec<WorkList>,
}

/// A small decayed top-K tally of pair hashes (Space-Saving over a
/// fixed slot array): `observe` returns the pair's estimated share of
/// recent observations. Halving all counts every `decay_interval`
/// observations keeps the estimate sliding, deterministic and O(K).
#[derive(Clone, Debug)]
struct HotTracker {
    /// `(pair hash, decayed count)`; linear-scanned, K is small.
    slots: Vec<(u64, u64)>,
    /// Decayed total of observations (halved with the slots).
    total: u64,
    /// Observations since the last halving.
    since_decay: u64,
    decay_interval: u64,
}

impl HotTracker {
    fn new(slots: usize, decay_interval: u64) -> Self {
        HotTracker {
            slots: Vec::with_capacity(slots.max(1)),
            total: 0,
            since_decay: 0,
            decay_interval: decay_interval.max(1),
        }
    }

    /// Records one observation of `hash`; returns `(estimated count,
    /// decayed total)`.
    fn observe(&mut self, hash: u64, capacity: usize) -> (u64, u64) {
        self.total += 1;
        self.since_decay += 1;
        if self.since_decay >= self.decay_interval {
            self.since_decay = 0;
            self.total /= 2;
            self.slots.retain_mut(|slot| {
                slot.1 /= 2;
                slot.1 > 0
            });
        }
        let count = if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == hash) {
            slot.1 += 1;
            slot.1
        } else if self.slots.len() < capacity.max(1) {
            self.slots.push((hash, 1));
            1
        } else {
            // Space-Saving replacement: evict the minimum, inherit its
            // count (an overestimate, which only errs toward splitting
            // slightly early — never toward missing a truly hot pair).
            let min = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.1)
                .map(|(i, _)| i)
                .expect("tracker has at least one slot");
            self.slots[min].0 = hash;
            self.slots[min].1 += 1;
            self.slots[min].1
        };
        (count, self.total)
    }
}

/// Per-shard and splitting counters of a [`Router`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Transactions routed to each shard (a transaction counts for a
    /// shard when the shard received at least one of its records).
    pub routed_transactions: Vec<u64>,
    /// Table records (items + pairs) routed to each shard.
    pub routed_ops: Vec<u64>,
    /// Pair records dealt round-robin instead of hashed (0 without
    /// splitting, or while nothing is hot).
    pub split_records: u64,
}

impl RouterStats {
    /// Accumulates another router's counters. The parallel front-end
    /// runs R routers over disjoint round-robin slices of the batch
    /// stream, so their per-shard counts sum losslessly to exactly what
    /// a single router would have reported.
    pub fn merge(&mut self, other: &RouterStats) {
        if self.routed_transactions.len() < other.routed_transactions.len() {
            self.routed_transactions
                .resize(other.routed_transactions.len(), 0);
            self.routed_ops.resize(other.routed_ops.len(), 0);
        }
        for (mine, theirs) in self
            .routed_transactions
            .iter_mut()
            .zip(&other.routed_transactions)
        {
            *mine += theirs;
        }
        for (mine, theirs) in self.routed_ops.iter_mut().zip(&other.routed_ops) {
            *mine += theirs;
        }
        self.split_records += other.split_records;
    }
}

/// The routing stage: consumes batches of transactions, produces
/// [`RoutedBatch`]es. Deterministic — dedup order, pair enumeration
/// order, the unkeyed routing hash, and the round-robin split counter
/// are all functions of the transaction stream alone.
#[derive(Clone, Debug)]
pub struct Router {
    config: RouterConfig,
    tracker: Option<HotTracker>,
    /// Round-robin cursor for split pair records.
    next_split_shard: u64,
    stats: RouterStats,
    /// Reused per-transaction ownership bitmasks, one per shard; word
    /// `w` bit `b` covers deduplicated extent index `64 * w + b`.
    owned: Vec<Vec<u64>>,
    /// Reused per-shard pair-list watermarks (length at the start of the
    /// current transaction).
    pair_marks: Vec<usize>,
}

impl Router {
    /// Creates a router.
    pub fn new(config: RouterConfig) -> Self {
        assert!(config.shard_count > 0, "need at least one shard");
        let tracker = config
            .split
            .as_ref()
            .map(|s| HotTracker::new(s.tracker_slots, s.decay_interval));
        let shard_count = config.shard_count;
        Router {
            config,
            tracker,
            next_split_shard: 0,
            stats: RouterStats {
                routed_transactions: vec![0; shard_count],
                routed_ops: vec![0; shard_count],
                split_records: 0,
            },
            owned: vec![Vec::new(); shard_count],
            pair_marks: vec![0; shard_count],
        }
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Lifetime routing counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Routes one batch: dedups and hashes every transaction once,
    /// returning freshly allocated per-shard work lists in the shards'
    /// record order. Convenience wrapper over
    /// [`route_into`](Router::route_into), which the pipeline uses with
    /// recycled buffers instead.
    pub fn route(&mut self, batch: Vec<Transaction>) -> RoutedBatch {
        let mut per_shard: Vec<WorkList> = vec![WorkList::default(); self.config.shard_count];
        self.route_into(&batch, &mut per_shard);
        RoutedBatch {
            txns: batch.into(),
            per_shard,
        }
    }

    /// Routes one batch into caller-provided work lists (one per shard,
    /// cleared here; capacity is retained, so pooled buffers make the
    /// routing stage allocation-free in steady state).
    ///
    /// # Panics
    ///
    /// Panics if `per_shard.len()` differs from the configured shard
    /// count.
    pub fn route_into(&mut self, batch: &[Transaction], per_shard: &mut [WorkList]) {
        let n_shards = self.config.shard_count;
        assert_eq!(per_shard.len(), n_shards, "one work list per shard");
        for work in per_shard.iter_mut() {
            work.clear();
        }

        for transaction in batch {
            // Dedup + op filter, once for the whole shard set — same
            // algorithm (and thus same surviving order) as
            // `OnlineAnalyzer::process_partition`.
            let mut scratch: InlineVec<Extent, TXN_SCRATCH> = InlineVec::new();
            let mut sorted: InlineVec<Extent, TXN_SCRATCH> = InlineVec::new();
            for item in transaction.items() {
                if let Some(filter) = self.config.op_filter {
                    if item.op != filter {
                        continue;
                    }
                }
                if let Err(pos) = sorted.as_slice().binary_search(&item.extent) {
                    sorted.insert(pos, item.extent);
                    scratch.push(item.extent);
                }
            }
            let extents = scratch.as_slice();
            let n = extents.len();
            if n == 0 {
                continue;
            }

            let words = n.div_ceil(64);
            for mask in &mut self.owned {
                mask.clear();
                mask.resize(words, 0);
            }
            for (work, mark) in per_shard.iter().zip(&mut self.pair_marks) {
                *mark = work.pairs.len();
            }

            if n == 1 {
                // Pairless transaction: route the lone item record by
                // extent hash.
                self.owned[shard_of_extent(&extents[0], n_shards)][0] |= 1;
            } else {
                for i in 0..n {
                    for j in (i + 1)..n {
                        let pair = ExtentPair::new(extents[i], extents[j])
                            .expect("deduplicated extents are distinct");
                        let hash = fx_hash(&pair);
                        let shard = match self.split_target(hash, n_shards) {
                            Some(split_shard) => {
                                self.stats.split_records += 1;
                                split_shard
                            }
                            None => shard_for_hash(hash, n_shards),
                        };
                        per_shard[shard].pairs.push(pair);
                        self.owned[shard][i / 64] |= 1 << (i % 64);
                        self.owned[shard][j / 64] |= 1 << (j % 64);
                    }
                }
            }

            // Emit per-shard work items: item records in dedup order,
            // then the pair records already appended in (i, j) order.
            for (shard, work) in per_shard.iter_mut().enumerate() {
                let mask = &self.owned[shard];
                let n_pairs = (work.pairs.len() - self.pair_marks[shard]) as u32;
                let mut n_extents = 0u32;
                for (i, &extent) in extents.iter().enumerate() {
                    if mask[i / 64] & (1 << (i % 64)) != 0 {
                        work.extents.push(extent);
                        n_extents += 1;
                    }
                }
                if n_extents > 0 || n_pairs > 0 {
                    work.txns.push((n_extents, n_pairs));
                    self.stats.routed_transactions[shard] += 1;
                    self.stats.routed_ops[shard] += u64::from(n_extents) + u64::from(n_pairs);
                }
            }
        }
    }

    /// Split decision for one pair record: `Some(shard)` deals it
    /// round-robin because the pair is currently hot, `None` routes by
    /// hash. Observes the hash in the tracker either way.
    fn split_target(&mut self, hash: u64, n_shards: usize) -> Option<usize> {
        if n_shards == 1 {
            // With one shard there is nothing to balance; skip the
            // tracker entirely.
            return None;
        }
        let split = self.config.split.as_ref()?;
        let tracker = self.tracker.as_mut().expect("tracker exists with split");
        let (count, total) = tracker.observe(hash, split.tracker_slots);
        if total < split.warmup {
            return None;
        }
        if (count as f64) < split.hot_fraction * (total as f64) {
            return None;
        }
        let shard = (self.next_split_shard % n_shards as u64) as usize;
        self.next_split_shard += 1;
        Some(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdac_synopsis::{shard_of_pair, AnalyzerConfig, ShardedAnalyzer};
    use rtdac_types::Timestamp;

    fn e(start: u64) -> Extent {
        Extent::new(start, 1).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    /// A deterministic mixed stream: recurring pairs, triples, singles.
    fn stream(len: u64) -> Vec<Transaction> {
        (0..len)
            .map(|i| match i % 4 {
                0 => txn(&[e(i % 13), e(100 + i % 7)]),
                1 => txn(&[e(i % 5), e(200 + i % 11), e(300 + i % 3)]),
                2 => txn(&[e(400 + i % 17)]),
                _ => txn(&[e(i % 13), e(100 + i % 7), e(500), e(600)]),
            })
            .collect()
    }

    #[test]
    fn routed_apply_matches_sequential_sharded_exactly() {
        // Small tables force eviction churn; per-shard table state must
        // still match the sequential process_partition path bit-for-bit.
        let config = AnalyzerConfig::with_capacity(16).item_capacity(8);
        for shards in [1usize, 2, 3, 4, 8] {
            let mut sequential = ShardedAnalyzer::new(config.clone(), shards);
            for t in &stream(400) {
                sequential.process(t);
            }

            let mut router = Router::new(RouterConfig::new(shards));
            let mut routed_shards = ShardedAnalyzer::new(config.clone(), shards).into_shards();
            for chunk in stream(400).chunks(64) {
                let batch = router.route(chunk.to_vec());
                for (shard, work) in routed_shards.iter_mut().zip(&batch.per_shard) {
                    work.apply(shard);
                }
            }

            for (i, (routed, reference)) in
                routed_shards.iter().zip(sequential.shards()).enumerate()
            {
                assert_eq!(
                    routed.snapshot(),
                    reference.snapshot(),
                    "shard {i} of {shards} diverged"
                );
            }
        }
    }

    #[test]
    fn pairs_route_to_their_hash_shard_without_splitting() {
        let mut router = Router::new(RouterConfig::new(4));
        let batch = router.route(stream(200));
        for (shard, work) in batch.per_shard.iter().enumerate() {
            for pair in &work.pairs {
                assert_eq!(shard_of_pair(pair, 4), shard, "pair on wrong shard");
            }
        }
    }

    #[test]
    fn op_filter_is_applied_at_the_front_end() {
        let mut t = Transaction::new(Timestamp::ZERO);
        t.push(e(1), IoOp::Write);
        t.push(e(2), IoOp::Read);
        t.push(e(3), IoOp::Write);
        let mut router = Router::new(RouterConfig::new(2).op_filter(Some(IoOp::Write)));
        let batch = router.route(vec![t]);
        let pairs: usize = batch.per_shard.iter().map(|w| w.pairs.len()).sum();
        let extents: usize = batch.per_shard.iter().map(|w| w.extents.len()).sum();
        assert_eq!(pairs, 1); // only the write-write pair
        assert_eq!(extents, 2);
    }

    #[test]
    fn hot_pair_splits_round_robin() {
        let split = SplitConfig {
            hot_fraction: 0.2,
            warmup: 32,
            ..SplitConfig::default()
        };
        let mut router = Router::new(RouterConfig::new(4).split(split));
        // One dominant pair (~every transaction) plus rotating cold pairs.
        let hot = [e(1), e(2)];
        let mut txns = Vec::new();
        for i in 0..2_000u64 {
            txns.push(txn(&hot));
            txns.push(txn(&[e(1_000 + i % 97), e(5_000 + i % 89)]));
        }
        let batch = router.route(txns);
        assert!(
            router.stats().split_records > 1_000,
            "hot pair never split: {:?}",
            router.stats()
        );
        // The hot pair's records land on every shard, roughly evenly.
        let hot_pair = ExtentPair::new(hot[0], hot[1]).unwrap();
        let per_shard: Vec<usize> = batch
            .per_shard
            .iter()
            .map(|w| w.pairs.iter().filter(|p| **p == hot_pair).count())
            .collect();
        assert!(per_shard.iter().all(|&c| c > 0), "skewed: {per_shard:?}");
        let (min, max) = (
            per_shard.iter().min().unwrap(),
            per_shard.iter().max().unwrap(),
        );
        assert!(max - min <= 1 + (per_shard.iter().sum::<usize>() / 3));
    }

    #[test]
    fn split_totals_stay_exact() {
        // Whatever the split decisions, the total number of routed pair
        // records must equal the stream's pair count, and the merged
        // tallies must match the single-threaded analyzer.
        let split = SplitConfig {
            hot_fraction: 0.05,
            warmup: 16,
            ..SplitConfig::default()
        };
        let mut router = Router::new(RouterConfig::new(4).split(split));
        let config = AnalyzerConfig::with_capacity(64 * 1024);
        let mut shards = ShardedAnalyzer::new(config.clone(), 4).into_shards();
        let mut single = rtdac_synopsis::OnlineAnalyzer::new(config.clone());
        let txns = stream(1_000);
        for t in &txns {
            single.process(t);
        }
        for chunk in txns.chunks(64) {
            let batch = router.route(chunk.to_vec());
            for (shard, work) in shards.iter_mut().zip(&batch.per_shard) {
                work.apply(shard);
            }
        }
        let merged = ShardedAnalyzer::from_routed_shards(config, shards, txns.len() as u64, true);
        // The single analyzer breaks tally ties by table recency; the
        // merged view uses the canonical (tally desc, pair asc) order —
        // compare in canonical order.
        let mut expected = single.frequent_pairs(1);
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(merged.frequent_pairs(1), expected);
        assert_eq!(merged.stats().pairs, single.stats().pairs);
        assert_eq!(merged.stats().transactions, single.stats().transactions);
    }

    #[test]
    fn tracker_decays_and_bounds_slots() {
        let mut tracker = HotTracker::new(4, 64);
        for i in 0..1_000u64 {
            tracker.observe(i % 9, 4);
        }
        assert!(tracker.slots.len() <= 4);
        // Decay keeps the total bounded near the interval, not the
        // lifetime count.
        assert!(tracker.total < 200, "total {} never decayed", tracker.total);
    }

    #[test]
    fn route_into_reuses_buffers_and_matches_route() {
        // Routing through recycled (dirty, capacity-bearing) buffers
        // must produce the same work lists as fresh allocation.
        let txns = stream(400);
        let mut fresh_router = Router::new(RouterConfig::new(4));
        let mut pooled_router = Router::new(RouterConfig::new(4));
        let mut pooled: Vec<WorkList> = vec![WorkList::default(); 4];
        for chunk in txns.chunks(64) {
            let fresh = fresh_router.route(chunk.to_vec());
            pooled_router.route_into(chunk, &mut pooled);
            assert_eq!(pooled, fresh.per_shard);
        }
        assert_eq!(pooled_router.stats(), fresh_router.stats());
    }

    #[test]
    fn router_stats_merge_sums_round_robin_slices() {
        // Two routers over alternating batches must merge to exactly the
        // single-router counters.
        let txns = stream(512);
        let mut single = Router::new(RouterConfig::new(4));
        let mut split = [
            Router::new(RouterConfig::new(4)),
            Router::new(RouterConfig::new(4)),
        ];
        let mut scratch: Vec<WorkList> = vec![WorkList::default(); 4];
        for (i, chunk) in txns.chunks(64).enumerate() {
            single.route_into(chunk, &mut scratch);
            split[i % 2].route_into(chunk, &mut scratch);
        }
        let mut merged = RouterStats::default();
        merged.merge(split[0].stats());
        merged.merge(split[1].stats());
        assert_eq!(&merged, single.stats());
    }

    #[test]
    fn empty_and_filtered_transactions_route_nowhere() {
        let mut router = Router::new(RouterConfig::new(2).op_filter(Some(IoOp::Write)));
        let mut read_only = Transaction::new(Timestamp::ZERO);
        read_only.push(e(1), IoOp::Read);
        let batch = router.route(vec![Transaction::new(Timestamp::ZERO), read_only]);
        assert!(batch.per_shard.iter().all(|w| w.is_empty()));
        assert_eq!(router.stats().routed_transactions, vec![0, 0]);
    }
}
