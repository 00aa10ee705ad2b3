//! The online analysis module: item table + correlation table processing
//! of monitored transactions (§III-D).

use std::collections::HashSet;

use rtdac_sketch::Doorkeeper;
use rtdac_types::{Extent, ExtentPair, FxHashMap, InlineVec, IoOp, Transaction};

use crate::delta::ShardDelta;
use crate::sharded::{shard_of_extent, shard_of_pair};
use crate::table::{Tier, TwoTierTable};

/// Transactions are capped at 8 requests by the monitor
/// (`MonitorConfig::transaction_limit`), so fixed scratch arrays of this
/// size make `process` allocation-free on every monitored transaction.
/// Hand-built transactions beyond the cap spill to the heap transparently.
const TXN_SCRATCH: usize = 8;

/// Inline partner capacity of the pair index: a stored extent typically
/// participates in a handful of stored pairs.
const PAIR_INDEX_INLINE: usize = 4;

/// Paper's memory model: an item-table entry is a 64-bit block ID, a
/// 32-bit length and a 32-bit tally — 16 bytes (§IV-C1).
pub const ITEM_ENTRY_BYTES: usize = 16;
/// Paper's memory model: a correlation-table entry is two extents and a
/// tally — 28 bytes (§IV-C1).
pub const PAIR_ENTRY_BYTES: usize = 28;

/// Parameters of the [doorkeeper](rtdac_sketch::Doorkeeper) admission
/// filter (see [`Admission::Doorkeeper`]).
///
/// All fields are plain integers so [`AnalyzerConfig`] stays `Eq` and
/// cheaply comparable across snapshots and re-seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoorkeeperConfig {
    /// 4-bit counters in the sketch. Rounded up to whole 64-byte blocks
    /// with a power-of-two block count (see
    /// [`Doorkeeper::with_counters`]); size it at a multiple of the
    /// correlation-table capacity — each counter costs half a byte
    /// against a ~40-byte table entry.
    pub counters: usize,
    /// Sketch estimate (including the bump for the current sighting) an
    /// *absent* pair must reach before it is granted a real
    /// correlation-table entry. A threshold of 1 admits everything;
    /// 2 blocks one-shot pairs, and 3 (the [`Default`]) additionally
    /// suppresses the tail pairs that slip past 2 through counter
    /// collisions — under a heavy one-shot tail those leaks are what
    /// churns the table.
    pub admit_threshold: u32,
    /// Aging cadence (TinyLFU's reset watermark): all counters are
    /// halved after this many counter increments, so the sketch tracks
    /// recent popularity instead of lifetime totals. Keep it well below
    /// `counters` — each increment bumps up to four nibbles, so a
    /// window of `W` increments drives the average nibble toward
    /// `4 W / counters`, and a saturated sketch admits everything.
    /// `counters / 16` (the [`Default`] ratio) keeps the end-of-window
    /// average near 0.25, low enough that an `admit_threshold` of 3
    /// stays meaningful against collision noise.
    pub watermark: u64,
}

impl Default for DoorkeeperConfig {
    /// 64 Ki counters (32 KiB of sketch), admit on the third sighting
    /// within an aging window, age every `counters / 16` increments.
    fn default() -> Self {
        DoorkeeperConfig {
            counters: 64 * 1024,
            admit_threshold: 3,
            watermark: 4 * 1024,
        }
    }
}

/// Admission policy in front of the correlation table.
///
/// At production keyspaces most extent pairs are seen exactly once; with
/// admission [`Off`](Admission::Off) each of them still costs a full
/// table entry — inserted, indexed, then evicted — displacing the
/// recurring pairs the synopsis exists to find. A
/// [`Doorkeeper`](Admission::Doorkeeper) makes one-shot pairs cost four
/// bits instead of an entry (DESIGN.md §14).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Every pair gets a table entry on first sighting — the paper's
    /// behavior, and bit-exact to the pre-doorkeeper pipeline.
    #[default]
    Off,
    /// A pair absent from the correlation table first bumps a compact
    /// frequency sketch and is only admitted once its estimate reaches
    /// the configured threshold. Pairs already stored never consult the
    /// sketch, so the hit path is unchanged.
    Doorkeeper(DoorkeeperConfig),
}

/// Configuration for an [`OnlineAnalyzer`].
///
/// The paper uses equal T1/T2 sizes ("we found using equal sizes for T1
/// and T2 to be appropriate"), a correlation table of `C` entries per
/// tier, and an item table of the same entry count; both defaults follow
/// suit. Build a config with [`AnalyzerConfig::with_capacity`] and adjust
/// via the builder methods.
///
/// # Examples
///
/// ```
/// use rtdac_synopsis::AnalyzerConfig;
///
/// let config = AnalyzerConfig::with_capacity(16 * 1024)
///     .promote_threshold(2)
///     .op_filter(None);
/// assert_eq!(config.correlation_capacity_per_tier, 16 * 1024);
/// // §IV-C1: 88 C bytes total for equal tables of C entries per tier.
/// assert_eq!(config.memory_bytes(), 88 * 16 * 1024);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Entries per tier in the item table.
    pub item_capacity_per_tier: usize,
    /// Entries per tier in the correlation table (the paper's `C`).
    pub correlation_capacity_per_tier: usize,
    /// Tally at which a T1 entry is promoted to T2 (default 2).
    pub promote_threshold: u32,
    /// If set, only requests of this direction are analyzed — correlated
    /// writes feed garbage-collection placement, correlated reads feed
    /// parallel placement (§V).
    pub op_filter: Option<IoOp>,
    /// Admission policy in front of the correlation table (default
    /// [`Admission::Off`]: bit-exact paper behavior).
    pub admission: Admission,
}

impl AnalyzerConfig {
    /// Config with `c` entries per tier in *both* tables and the paper's
    /// defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn with_capacity(c: usize) -> Self {
        assert!(c > 0, "capacity must be positive");
        AnalyzerConfig {
            item_capacity_per_tier: c,
            correlation_capacity_per_tier: c,
            promote_threshold: 2,
            op_filter: None,
            admission: Admission::Off,
        }
    }

    /// Sets the item-table per-tier capacity.
    pub fn item_capacity(mut self, c: usize) -> Self {
        self.item_capacity_per_tier = c;
        self
    }

    /// Sets the promotion threshold for both tables.
    pub fn promote_threshold(mut self, threshold: u32) -> Self {
        self.promote_threshold = threshold;
        self
    }

    /// Restricts analysis to one request direction (or `None` for both).
    pub fn op_filter(mut self, op: Option<IoOp>) -> Self {
        self.op_filter = op;
        self
    }

    /// Sets the correlation-table admission policy.
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// The per-shard configuration of an `shard_count`-way deployment:
    /// per-tier capacities — and a doorkeeper's counters, when admission
    /// is on — divided by the shard count (floored at one), so the
    /// aggregate footprint is independent of the shard count. Both
    /// [`ShardedAnalyzer::new`](crate::ShardedAnalyzer::new) and
    /// [`SynopsisSnapshot::reseed`](crate::SynopsisSnapshot::reseed)
    /// derive shard configs through this method, so an elastic re-seed
    /// sizes its shards exactly as a fresh construction would.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn split_across(&self, shard_count: usize) -> AnalyzerConfig {
        assert!(shard_count > 0, "shard_count must be positive");
        let mut shard = self.clone();
        shard.item_capacity_per_tier = (self.item_capacity_per_tier / shard_count).max(1);
        shard.correlation_capacity_per_tier =
            (self.correlation_capacity_per_tier / shard_count).max(1);
        if let Admission::Doorkeeper(dk) = &mut shard.admission {
            dk.counters = (dk.counters / shard_count).max(1);
            // Each shard sees ~1/N of the insert stream, so the aging
            // cadence divides with the sketch to keep the same
            // saturation profile per shard.
            dk.watermark = (dk.watermark / shard_count as u64).max(1);
        }
        shard
    }

    /// Total synopsis memory under the paper's model: `32·C_item +
    /// 56·C_corr` bytes (16/28 bytes per entry, two tiers each). The
    /// doorkeeper is not part of the paper's model; see
    /// [`OnlineAnalyzer::table_memory_bytes`] for the measured footprint
    /// including it.
    pub fn memory_bytes(&self) -> usize {
        2 * ITEM_ENTRY_BYTES * self.item_capacity_per_tier
            + 2 * PAIR_ENTRY_BYTES * self.correlation_capacity_per_tier
    }
}

impl Default for AnalyzerConfig {
    /// The paper's smallest evaluated configuration: C = 16 K entries per
    /// tier (1.44 MB of synopsis under its memory model).
    fn default() -> Self {
        AnalyzerConfig::with_capacity(16 * 1024)
    }
}

/// Lifetime counters of an [`OnlineAnalyzer`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalyzerStats {
    /// Transactions processed.
    pub transactions: u64,
    /// Extents recorded into the item table.
    pub extents: u64,
    /// Pairs recorded into the correlation table.
    pub pairs: u64,
    /// Pair records the admission doorkeeper turned away (always zero
    /// with [`Admission::Off`]). Rejected records still count in
    /// [`pairs`](AnalyzerStats::pairs).
    pub pair_rejections: u64,
    /// Correlation-table demotions triggered by item-table evictions.
    pub correlated_demotions: u64,
}

impl AnalyzerStats {
    /// Merges per-shard counters: the record counters sum, and the
    /// transaction count is the first shard's. Sequentially fed shards
    /// each observe every transaction, so one shard's count is the
    /// stream total; routed shards count none, and their front-end's
    /// figure is authoritative (see
    /// [`ShardedAnalyzer::stats`](crate::ShardedAnalyzer::stats)).
    pub(crate) fn merge_shards(shards: impl IntoIterator<Item = AnalyzerStats>) -> AnalyzerStats {
        let mut shards = shards.into_iter();
        let mut merged = shards.next().unwrap_or_default();
        for s in shards {
            merged.extents += s.extents;
            merged.pairs += s.pairs;
            merged.pair_rejections += s.pair_rejections;
            merged.correlated_demotions += s.correlated_demotions;
        }
        merged
    }
}

/// A point-in-time copy of the correlation table's contents, used by the
/// concept-drift experiment (Fig. 10) and by offline comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(pair, tally, tier)` for every stored correlation.
    pub pairs: Vec<(ExtentPair, u32, Tier)>,
    /// `(extent, tally, tier)` for every stored item.
    pub items: Vec<(Extent, u32, Tier)>,
}

impl Snapshot {
    /// The pairs with tally at least `min_tally`.
    pub fn frequent_pairs(&self, min_tally: u32) -> Vec<(ExtentPair, u32)> {
        let mut v: Vec<(ExtentPair, u32)> = self
            .pairs
            .iter()
            .filter(|(_, tally, _)| *tally >= min_tally)
            .map(|(p, tally, _)| (*p, *tally))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The set of stored pairs, regardless of tally.
    pub fn pair_set(&self) -> HashSet<ExtentPair> {
        self.pairs.iter().map(|(p, _, _)| *p).collect()
    }
}

/// The paper's online analysis module: a single-pass consumer of
/// transactions that maintains the two synopsis tables and exposes the
/// frequent extent correlations found so far.
///
/// Per transaction (§III-D2): extents are deduplicated, each extent is
/// recorded in the *item table*, and every unique pair of extents is
/// recorded in the *correlation table*. When an extent is evicted from
/// the item table, every pair containing it is demoted in the correlation
/// table, since "frequent correlations must involve frequent extents".
///
/// # Examples
///
/// ```
/// use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
/// use rtdac_types::{Extent, Timestamp, Transaction};
///
/// let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(1024));
/// let a = Extent::new(100, 4)?;
/// let b = Extent::new(200, 3)?;
/// for _ in 0..5 {
///     analyzer.process(&Transaction::from_extents(Timestamp::ZERO, [a, b]));
/// }
/// let frequent = analyzer.frequent_pairs(5);
/// assert_eq!(frequent.len(), 1);
/// assert_eq!(frequent[0].1, 5);
/// # Ok::<(), rtdac_types::ExtentError>(())
/// ```
#[derive(Clone, Debug)]
pub struct OnlineAnalyzer {
    config: AnalyzerConfig,
    items: TwoTierTable<Extent>,
    pairs: TwoTierTable<ExtentPair>,
    /// extent → pairs currently stored that contain it, for the
    /// item-eviction demotion hook. Inline small-vec values keep hot-path
    /// index maintenance allocation-free.
    pair_index: FxHashMap<Extent, InlineVec<ExtentPair, PAIR_INDEX_INLINE>>,
    /// Admission filter in front of `pairs`, when configured.
    doorkeeper: Option<AdmissionFilter>,
    stats: AnalyzerStats,
}

/// The built form of [`Admission::Doorkeeper`]: the sketch plus the
/// threshold an absent pair's estimate must reach.
#[derive(Clone, Debug)]
struct AdmissionFilter {
    sketch: Doorkeeper,
    threshold: u32,
}

impl OnlineAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        let items = TwoTierTable::new(
            config.item_capacity_per_tier,
            config.item_capacity_per_tier,
            config.promote_threshold,
        );
        let pairs = TwoTierTable::new(
            config.correlation_capacity_per_tier,
            config.correlation_capacity_per_tier,
            config.promote_threshold,
        );
        let doorkeeper = match &config.admission {
            Admission::Off => None,
            Admission::Doorkeeper(dk) => Some(AdmissionFilter {
                sketch: Doorkeeper::with_counters(dk.counters, dk.watermark),
                threshold: dk.admit_threshold,
            }),
        };
        OnlineAnalyzer {
            config,
            items,
            pairs,
            pair_index: FxHashMap::default(),
            doorkeeper,
            stats: AnalyzerStats::default(),
        }
    }

    /// The configuration the analyzer was built with.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Processes one transaction through both synopsis tables.
    ///
    /// Allocation-free for monitored transactions: the dedup scratch is a
    /// fixed 8-slot array (the monitor's transaction cap) and the pair
    /// index maintains inline small-vecs.
    pub fn process(&mut self, transaction: &Transaction) {
        self.process_partition(transaction, 0, 1);
    }

    /// Processes the partition of `transaction` owned by shard `shard` of
    /// `shard_count`, under the sharded pipeline's routing invariant: a
    /// pair's record — and the item records of *both* its extents — land
    /// on the shard owning the pair's [`fx_hash`](rtdac_types::fx_hash);
    /// a single-extent transaction lands on the shard owning the extent
    /// hash. With `shard_count == 1` this is exactly [`process`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count` or `shard_count == 0`.
    pub fn process_partition(
        &mut self,
        transaction: &Transaction,
        shard: usize,
        shard_count: usize,
    ) {
        assert!(shard_count > 0, "shard_count must be positive");
        assert!(shard < shard_count, "shard out of range");
        self.stats.transactions += 1;

        // Dedup and apply the optional direction filter, preserving
        // arrival order (record order is observable through LRU state).
        // The insertion-sorted shadow turns the membership check into a
        // binary search instead of the old O(N²) `contains` scan.
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
        let n = scratch.len();

        // Which extents this shard records: those appearing in a pair the
        // shard owns (the routing invariant keeps the item-eviction
        // demotion hook local — a shard demotes exactly its own pairs).
        // Pairless single-extent transactions route by extent hash.
        let mut owned: InlineVec<bool, TXN_SCRATCH> = InlineVec::new();
        if shard_count == 1 {
            for _ in 0..n {
                owned.push(true);
            }
        } else {
            for _ in 0..n {
                owned.push(false);
            }
            let extents = scratch.as_slice();
            if n == 1 {
                owned.as_mut_slice()[0] = shard_of_extent(&extents[0], shard_count) == shard;
            } else {
                for i in 0..n {
                    for j in (i + 1)..n {
                        let pair = ExtentPair::new(extents[i], extents[j])
                            .expect("deduplicated extents are distinct");
                        if shard_of_pair(&pair, shard_count) == shard {
                            owned.as_mut_slice()[i] = true;
                            owned.as_mut_slice()[j] = true;
                        }
                    }
                }
            }
        }

        // Record every owned extent in the item table; an eviction demotes
        // all stored pairs containing the evicted extent.
        for i in 0..n {
            if !owned.as_slice()[i] {
                continue;
            }
            let extent = scratch.as_slice()[i];
            self.stats.extents += 1;
            let record = self.items.record(extent);
            if let Some((evicted, _)) = record.evicted {
                self.demote_pairs_of(&evicted);
            }
        }

        // Record every owned pair in the correlation table.
        for i in 0..n {
            for j in (i + 1)..n {
                let pair = ExtentPair::new(scratch.as_slice()[i], scratch.as_slice()[j])
                    .expect("deduplicated extents are distinct");
                if shard_count > 1 && shard_of_pair(&pair, shard_count) != shard {
                    continue;
                }
                self.record_pair(pair);
            }
        }
    }

    /// Processes one transaction's pre-routed work share: `extents` are
    /// the item records to make (in the deduplicated arrival order the
    /// router preserved) and `pairs` the owned pair records (in the
    /// router's canonical `(i, j)` enumeration order).
    ///
    /// This is the routed-dispatch fast path: the front-end has already
    /// deduplicated the transaction and hashed every pair once to
    /// partition the work, so this entry performs **no** dedup, no
    /// op-filtering and no ownership hashing — it only applies table
    /// records. Feeding a shard the work lists a `Router` (crate
    /// `rtdac-monitor`) computed for it leaves the shard's tables in
    /// exactly the state [`process_partition`] would have produced,
    /// because the record sequence is identical.
    ///
    /// Does not count a transaction in [`stats`](OnlineAnalyzer::stats):
    /// a routed shard only sees the transactions it owns work for, so
    /// the stream's transaction count is tracked by the front-end (see
    /// [`ShardedAnalyzer::from_routed_shards`]).
    ///
    /// [`process_partition`]: OnlineAnalyzer::process_partition
    /// [`ShardedAnalyzer::from_routed_shards`]: crate::ShardedAnalyzer::from_routed_shards
    pub fn process_routed(&mut self, extents: &[Extent], pairs: &[ExtentPair]) {
        for &extent in extents {
            self.stats.extents += 1;
            let record = self.items.record(extent);
            if let Some((evicted, _)) = record.evicted {
                self.demote_pairs_of(&evicted);
            }
        }
        for &pair in pairs {
            self.record_pair(pair);
        }
    }

    /// Applies one correlation-table record, routing it through the
    /// admission doorkeeper when one is configured, and maintains the
    /// pair index across admitted inserts and evictions.
    ///
    /// The sketch is consulted (and bumped) *only* when the pair is
    /// absent from the table — `record_filtered` runs the admission
    /// closure on the vacant path alone — so with a stored pair the
    /// record sequence is byte-identical to [`Admission::Off`].
    #[inline]
    fn record_pair(&mut self, pair: ExtentPair) {
        self.stats.pairs += 1;
        let record = match &mut self.doorkeeper {
            None => Some(self.pairs.record(pair)),
            Some(filter) => {
                let threshold = filter.threshold;
                let sketch = &mut filter.sketch;
                self.pairs
                    .record_filtered(pair, || sketch.insert(&pair) >= threshold)
            }
        };
        let Some(record) = record else {
            self.stats.pair_rejections += 1;
            return;
        };
        if !record.hit {
            self.index_pair(pair);
        }
        if let Some((evicted, _)) = record.evicted {
            self.unindex_pair(&evicted);
        }
    }

    fn demote_pairs_of(&mut self, extent: &Extent) {
        let Some(pairs) = self.pair_index.get(extent) else {
            return;
        };
        // Demoting may itself evict pairs from the correlation table
        // (demotion into a full T1 trims), so snapshot the partner list
        // first — an inline copy, no allocation unless it has spilled.
        let affected = pairs.clone();
        for &pair in affected.iter() {
            self.stats.correlated_demotions += 1;
            let was_present = self.pairs.demote(&pair);
            if was_present && !self.pairs.contains(&pair) {
                self.unindex_pair(&pair);
            }
        }
    }

    fn index_pair(&mut self, pair: ExtentPair) {
        for extent in [pair.first(), pair.second()] {
            let partners = self.pair_index.entry(extent).or_default();
            debug_assert!(
                !partners.contains(&pair),
                "pair indexed twice without eviction"
            );
            partners.push(pair);
        }
    }

    fn unindex_pair(&mut self, pair: &ExtentPair) {
        for extent in [pair.first(), pair.second()] {
            if let Some(partners) = self.pair_index.get_mut(&extent) {
                partners.remove_value(pair);
                if partners.is_empty() {
                    self.pair_index.remove(&extent);
                }
            }
        }
    }

    /// The correlations currently stored with tally at least `min_tally`,
    /// sorted by descending tally (ties by ascending pair). Allocating
    /// wrapper around [`frequent_pairs_into`](Self::frequent_pairs_into).
    pub fn frequent_pairs(&self, min_tally: u32) -> Vec<(ExtentPair, u32)> {
        self.pairs.entries_with_min_tally(min_tally)
    }

    /// Collects the frequent correlations into a reused buffer
    /// (cleared first) — the steady-state query entry that does not
    /// allocate once the buffer reaches its plateau.
    pub fn frequent_pairs_into(&self, min_tally: u32, out: &mut Vec<(ExtentPair, u32)>) {
        self.pairs.entries_with_min_tally_into(min_tally, out);
    }

    /// The extents currently stored with tally at least `min_tally`,
    /// sorted by descending tally (ties by ascending extent).
    /// Allocating wrapper around
    /// [`frequent_items_into`](Self::frequent_items_into).
    pub fn frequent_items(&self, min_tally: u32) -> Vec<(Extent, u32)> {
        self.items.entries_with_min_tally(min_tally)
    }

    /// Collects the frequent extents into a reused buffer (cleared
    /// first) without allocating at its plateau.
    pub fn frequent_items_into(&self, min_tally: u32, out: &mut Vec<(Extent, u32)>) {
        self.items.entries_with_min_tally_into(min_tally, out);
    }

    /// The extents currently known to correlate with `extent` at tally
    /// at least `min_tally`, strongest first — the point query an
    /// optimization module (prefetcher, data placer, GC stream
    /// assigner) issues on each access. O(partners of `extent`), via
    /// the same index that powers the eviction hook.
    ///
    /// ```
    /// use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
    /// use rtdac_types::{Extent, Timestamp, Transaction};
    ///
    /// let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(64));
    /// let a = Extent::new(1, 1)?;
    /// let b = Extent::new(9, 1)?;
    /// for _ in 0..3 {
    ///     analyzer.process(&Transaction::from_extents(Timestamp::ZERO, [a, b]));
    /// }
    /// assert_eq!(analyzer.correlated_with(&a, 3), vec![(b, 3)]);
    /// assert_eq!(analyzer.correlated_with(&a, 4), vec![]);
    /// # Ok::<(), rtdac_types::ExtentError>(())
    /// ```
    pub fn correlated_with(&self, extent: &Extent, min_tally: u32) -> Vec<(Extent, u32)> {
        let Some(pairs) = self.pair_index.get(extent) else {
            return Vec::new();
        };
        let mut partners: Vec<(Extent, u32)> = pairs
            .iter()
            .filter_map(|pair| {
                let tally = self.pairs.tally(pair)?;
                if tally < min_tally {
                    return None;
                }
                Some((pair.other(extent).expect("pair contains extent"), tally))
            })
            .collect();
        partners.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        partners
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

    /// Read access to the item table.
    pub fn item_table(&self) -> &TwoTierTable<Extent> {
        &self.items
    }

    /// Read access to the correlation table.
    pub fn correlation_table(&self) -> &TwoTierTable<ExtentPair> {
        &self.pairs
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AnalyzerStats {
        self.stats
    }

    /// Synopsis memory under the paper's model (§IV-C1).
    pub fn memory_bytes(&self) -> usize {
        self.config.memory_bytes()
    }

    /// Measured capacity-based footprint of the structures actually
    /// built: both two-tier tables plus the doorkeeper, from the real
    /// type sizes ([`TwoTierTable::memory_bytes`],
    /// [`Doorkeeper::memory_bytes`]) rather than the paper's 16/28-byte
    /// entry model. Equal-memory comparisons budget against this.
    pub fn table_memory_bytes(&self) -> usize {
        self.items.memory_bytes()
            + self.pairs.memory_bytes()
            + self
                .doorkeeper
                .as_ref()
                .map_or(0, |f| f.sketch.memory_bytes())
    }

    /// Read access to the admission doorkeeper, if one is configured.
    pub fn doorkeeper(&self) -> Option<&Doorkeeper> {
        self.doorkeeper.as_ref().map(|f| &f.sketch)
    }

    /// Forgets everything — table contents, pair index and doorkeeper
    /// counters (stats are preserved).
    pub fn clear(&mut self) {
        self.items.clear();
        self.pairs.clear();
        self.pair_index.clear();
        if let Some(filter) = &mut self.doorkeeper {
            filter.sketch.clear();
        }
    }

    /// Turns on delta tracking of both synopsis tables (DESIGN.md §15):
    /// subsequent [`extract_delta`](Self::extract_delta) calls drain
    /// everything a [`LiveView`](crate::LiveView) mirror needs to track
    /// this analyzer bit-exactly. If the tables already hold entries
    /// (e.g. the analyzer was just re-seeded after a resize) the first
    /// delta is a full-dump rebase. Idempotent; tracking does not
    /// change any observable policy behaviour.
    pub fn enable_delta_tracking(&mut self) {
        self.items.enable_delta_tracking();
        self.pairs.enable_delta_tracking();
    }

    /// Drains both tables' changes since the previous extraction into
    /// `out` (clearing it first) and records the analyzer's counters at
    /// this boundary. The caller stamps `out.epoch` with the batch
    /// boundary it published at. Steady-state calls are allocation-free
    /// once the recycled buffer has reached its plateau.
    pub fn extract_delta(&mut self, out: &mut ShardDelta) {
        self.items.extract_delta(&mut out.items);
        self.pairs.extract_delta(&mut out.pairs);
        out.stats = self.stats;
    }

    /// Reserves `out`'s buffers to this analyzer's hard delta bounds
    /// (see [`TwoTierTable::preallocate_delta`]), so
    /// [`extract_delta`](Self::extract_delta) into it never allocates —
    /// the publish side's zero-steady-state-allocation contract.
    pub fn preallocate_delta(&self, out: &mut ShardDelta) {
        self.items.preallocate_delta(&mut out.items);
        self.pairs.preallocate_delta(&mut out.pairs);
    }

    /// Seeds one item-table entry with pre-computed state (the snapshot
    /// re-seed path — see [`SynopsisSnapshot`](crate::SynopsisSnapshot)).
    /// Entries must be fed MRU-first; capacity overflow follows
    /// [`TwoTierTable::seed`].
    pub(crate) fn seed_item(&mut self, extent: Extent, tally: u32, tier: Tier) {
        self.items.seed(extent, tally, tier);
    }

    /// Seeds one correlation-table entry with pre-computed state,
    /// maintaining the pair index exactly as a live insert would so the
    /// item-eviction demotion hook keeps working after a re-seed.
    pub(crate) fn seed_pair(&mut self, pair: ExtentPair, tally: u32, tier: Tier) {
        if self.pairs.seed(pair, tally, tier).is_some() {
            self.index_pair(pair);
        }
    }

    /// Replaces the lifetime counters (re-seed path: the drained
    /// aggregate stats are carried onto one shard so sharded sums stay
    /// continuous across a resize).
    pub(crate) fn set_stats(&mut self, stats: AnalyzerStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdac_types::Timestamp;

    fn e(start: u64, len: u32) -> Extent {
        Extent::new(start, len).unwrap()
    }

    fn txn(extents: &[Extent]) -> Transaction {
        Transaction::from_extents(Timestamp::ZERO, extents.iter().copied())
    }

    fn pair(a: Extent, b: Extent) -> ExtentPair {
        ExtentPair::new(a, b).unwrap()
    }

    #[test]
    fn records_items_and_pairs() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        an.process(&txn(&[e(100, 4), e(200, 3), e(300, 1)]));
        assert_eq!(an.item_table().len(), 3);
        assert_eq!(an.correlation_table().len(), 3); // C(3,2)
        assert_eq!(an.stats().transactions, 1);
        assert_eq!(an.stats().pairs, 3);
    }

    #[test]
    fn repeated_transactions_build_tally() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        for _ in 0..4 {
            an.process(&txn(&[e(1, 1), e(2, 1)]));
        }
        let p = pair(e(1, 1), e(2, 1));
        assert_eq!(an.correlation_table().tally(&p), Some(4));
        assert_eq!(an.frequent_pairs(4), vec![(p, 4)]);
        assert_eq!(an.frequent_pairs(5), vec![]);
    }

    #[test]
    fn duplicate_extents_in_transaction_counted_once() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        an.process(&txn(&[e(1, 1), e(1, 1), e(2, 1)]));
        assert_eq!(an.item_table().tally(&e(1, 1)), Some(1));
        assert_eq!(an.correlation_table().len(), 1);
    }

    #[test]
    fn op_filter_restricts_analysis() {
        use rtdac_types::IoOp;
        let mut an =
            OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16).op_filter(Some(IoOp::Write)));
        let mut t = Transaction::new(Timestamp::ZERO);
        t.push(e(1, 1), IoOp::Write);
        t.push(e(2, 1), IoOp::Read);
        t.push(e(3, 1), IoOp::Write);
        an.process(&t);
        assert!(an.item_table().contains(&e(1, 1)));
        assert!(!an.item_table().contains(&e(2, 1)));
        assert_eq!(an.correlation_table().len(), 1); // only the write pair
    }

    #[test]
    fn process_routed_matches_process() {
        // The routed entry fed a transaction's own dedup + pair set must
        // leave the tables exactly as `process` does — same record
        // order, so same LRU state, through eviction churn (tiny tables).
        let config = AnalyzerConfig::with_capacity(4).item_capacity(2);
        let mut direct = OnlineAnalyzer::new(config.clone());
        let mut routed = OnlineAnalyzer::new(config);
        for i in 0..60u64 {
            let extents = [e(i % 7, 1), e((i * 3) % 11 + 20, 1), e(i % 3 + 40, 1)];
            direct.process(&txn(&extents));
            let pairs = [
                pair(extents[0], extents[1]),
                pair(extents[0], extents[2]),
                pair(extents[1], extents[2]),
            ];
            routed.process_routed(&extents, &pairs);
        }
        assert_eq!(routed.snapshot(), direct.snapshot());
        let (r, d) = (routed.stats(), direct.stats());
        assert_eq!((r.extents, r.pairs), (d.extents, d.pairs));
        assert_eq!(r.correlated_demotions, d.correlated_demotions);
    }

    #[test]
    fn item_eviction_demotes_its_pairs() {
        // Item table of 1 entry per tier forces immediate item churn.
        let config = AnalyzerConfig::with_capacity(8).item_capacity(1);
        let mut an = OnlineAnalyzer::new(config);
        // Build up a frequent pair so it sits at T2 of the correlation
        // table...
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        let p = pair(e(1, 1), e(2, 1));
        assert_eq!(an.correlation_table().tier(&p), Some(Tier::T2));
        // ... then stream unrelated items through the tiny item table.
        // Evicting extents 1 and 2 from the item table must demote the
        // pair back to T1.
        an.process(&txn(&[e(50, 1), e(60, 1), e(70, 1)]));
        assert_eq!(an.correlation_table().tier(&p), Some(Tier::T1));
        assert!(an.stats().correlated_demotions > 0);
    }

    #[test]
    fn pair_index_is_cleaned_on_pair_eviction() {
        // Correlation table of 1 entry per tier: every new pair evicts.
        let config = AnalyzerConfig::with_capacity(1).item_capacity(64);
        let mut an = OnlineAnalyzer::new(config);
        for i in 0..20u64 {
            an.process(&txn(&[e(i * 2, 1), e(i * 2 + 1, 1)]));
        }
        // At most T1+T2 pairs stored; index should track exactly the
        // stored pairs' member extents.
        let stored: usize = an.correlation_table().len();
        assert!(stored <= 2);
        let indexed_pairs: HashSet<ExtentPair> = an
            .pair_index
            .values()
            .flat_map(|s| s.iter().copied())
            .collect();
        let table_pairs: HashSet<ExtentPair> =
            an.correlation_table().iter().map(|(p, _, _)| *p).collect();
        assert_eq!(indexed_pairs, table_pairs);
    }

    #[test]
    fn snapshot_reflects_tables() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        let snap = an.snapshot();
        assert_eq!(snap.pairs.len(), 1);
        assert_eq!(snap.items.len(), 2);
        assert_eq!(snap.frequent_pairs(2).len(), 1);
        assert_eq!(snap.frequent_pairs(3).len(), 0);
        assert!(snap.pair_set().contains(&pair(e(1, 1), e(2, 1))));
    }

    fn doorkeeper_config(threshold: u32) -> AnalyzerConfig {
        AnalyzerConfig::with_capacity(16).admission(Admission::Doorkeeper(DoorkeeperConfig {
            counters: 1024,
            admit_threshold: threshold,
            watermark: u64::MAX, // no aging inside a test
        }))
    }

    #[test]
    fn doorkeeper_blocks_one_shot_pairs() {
        let mut an = OnlineAnalyzer::new(doorkeeper_config(2));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        // First sighting: sketch bumped to 1, below the threshold — no
        // table entry, but the items are recorded unfiltered.
        assert_eq!(an.correlation_table().len(), 0);
        assert_eq!(an.item_table().len(), 2);
        assert_eq!(an.stats().pairs, 1);
        assert_eq!(an.stats().pair_rejections, 1);
        // Second sighting crosses the threshold and admits the pair.
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        let p = pair(e(1, 1), e(2, 1));
        assert_eq!(an.correlation_table().tally(&p), Some(1));
        assert_eq!(an.stats().pair_rejections, 1);
        // Once stored, records bypass the sketch entirely.
        let sketch_before = an.doorkeeper().unwrap().insertions_since_halving();
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        assert_eq!(an.correlation_table().tally(&p), Some(2));
        assert_eq!(
            an.doorkeeper().unwrap().insertions_since_halving(),
            sketch_before
        );
    }

    #[test]
    fn admission_threshold_one_matches_off_exactly() {
        // Threshold 1 admits every pair on first sighting: the table
        // record sequence is identical to Admission::Off, so all
        // observable state must match (the sketch still counts).
        let base = AnalyzerConfig::with_capacity(4).item_capacity(2);
        let mut off = OnlineAnalyzer::new(base.clone());
        let mut on = OnlineAnalyzer::new(base.admission(Admission::Doorkeeper(DoorkeeperConfig {
            counters: 1024,
            admit_threshold: 1,
            watermark: u64::MAX,
        })));
        for i in 0..200u64 {
            let t = txn(&[e(i % 9, 1), e((i * 5) % 13 + 30, 1), e(i % 4 + 60, 1)]);
            off.process(&t);
            on.process(&t);
        }
        assert_eq!(on.snapshot(), off.snapshot());
        assert_eq!(on.stats().pair_rejections, 0);
    }

    #[test]
    fn split_across_divides_capacities_and_doorkeeper() {
        let config = AnalyzerConfig::with_capacity(64)
            .item_capacity(32)
            .admission(Admission::Doorkeeper(DoorkeeperConfig {
                counters: 4096,
                admit_threshold: 2,
                watermark: 512,
            }));
        let shard = config.split_across(4);
        assert_eq!(shard.item_capacity_per_tier, 8);
        assert_eq!(shard.correlation_capacity_per_tier, 16);
        let Admission::Doorkeeper(dk) = &shard.admission else {
            panic!("admission policy lost in split");
        };
        assert_eq!(dk.counters, 1024);
        assert_eq!(dk.admit_threshold, 2);
        // Over-sharding floors at one, never zero.
        let tiny = config.split_across(1 << 20);
        assert_eq!(tiny.item_capacity_per_tier, 1);
        let Admission::Doorkeeper(dk) = &tiny.admission else {
            panic!("admission policy lost in split");
        };
        assert_eq!(dk.counters, 1);
    }

    #[test]
    fn table_memory_bytes_includes_doorkeeper() {
        let plain = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        let gated = OnlineAnalyzer::new(doorkeeper_config(2).item_capacity(16));
        assert!(plain.doorkeeper().is_none());
        let sketch_bytes = gated.doorkeeper().unwrap().memory_bytes();
        assert!(sketch_bytes >= 1024 / 2);
        assert_eq!(
            gated.table_memory_bytes(),
            plain.table_memory_bytes() + sketch_bytes
        );
    }

    #[test]
    fn clear_resets_doorkeeper_counters() {
        let mut an = OnlineAnalyzer::new(doorkeeper_config(2));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        assert!(an.doorkeeper().unwrap().insertions_since_halving() > 0);
        an.clear();
        assert_eq!(an.doorkeeper().unwrap().insertions_since_halving(), 0);
        // After the wipe the pair must re-earn admission from scratch.
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        assert_eq!(an.correlation_table().len(), 0);
    }

    #[test]
    fn memory_model_matches_paper() {
        // §IV-C1: C = 16 K → 1.44 MB; C = 4 M → 369 MB.
        let small = AnalyzerConfig::with_capacity(16 * 1024);
        assert_eq!(small.memory_bytes(), 88 * 16 * 1024); // 1.44 MB
        let large = AnalyzerConfig::with_capacity(4 * 1024 * 1024);
        assert!((large.memory_bytes() as f64 / 1e6 - 369.0).abs() < 1.0);
    }

    #[test]
    fn clear_forgets_contents() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        an.process(&txn(&[e(1, 1), e(2, 1)]));
        an.clear();
        assert!(an.item_table().is_empty());
        assert!(an.correlation_table().is_empty());
        assert!(an.pair_index.is_empty());
    }

    #[test]
    fn empty_transaction_is_a_no_op() {
        let mut an = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16));
        an.process(&Transaction::new(Timestamp::ZERO));
        assert!(an.item_table().is_empty());
        assert_eq!(an.stats().transactions, 1);
    }
}
