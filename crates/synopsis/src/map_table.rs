//! The HashMap-index two-tier table: the bit-exact oracle for the
//! open-addressing [`TwoTierTable`](crate::TwoTierTable), and the table
//! under [`ReferenceAnalyzer`](crate::ReferenceAnalyzer).
//!
//! [`MapTable`] is a `std::HashMap<K, usize>` index into a separate
//! `Node` slab, with `usize` recency links. It stores every key twice
//! (once in the map, once in the node) and chases pointers across two
//! allocations — the costs the open-addressing table avoids — but its
//! policy behaviour (hit/miss, promotion, demotion, eviction, seeding,
//! delta extraction) is the reference semantics both tables must share.
//!
//! Every policy-bearing rewrite needs a live oracle, and this is the
//! one for the table seam. The `table_properties` property suite and the
//! `table` sweep of the `ingest_throughput` harness drive random and
//! fixed operation streams through both tables and require identical
//! [`Record`] returns, [`TableStats`], iteration order and delta
//! streams; the same sweep reports the open-vs-map bytes per entry and
//! record speed. The hasher is a type parameter:
//! [`ReferenceAnalyzer`](crate::ReferenceAnalyzer) instantiates it with
//! SipHash (`RandomState`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};

use rtdac_types::FxBuildHasher;

use crate::delta::{DeltaOp, TableDelta};
use crate::table::{Record, TableStats, Tier};

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node<K> {
    key: K,
    tally: u32,
    tier: Tier,
    prev: usize,
    next: usize,
    /// Moved to its tier's MRU end since the last delta extraction
    /// (extraction clears it) — same scheme as the open table's slot
    /// flag, so both tables emit identical delta streams.
    dirty: bool,
}

/// Per-table delta-tracking state (present only once
/// [`MapTable::enable_delta_tracking`] has run). See
/// [`TwoTierTable::enable_delta_tracking`](crate::TwoTierTable::enable_delta_tracking).
#[derive(Clone, Debug)]
struct DeltaLog<K> {
    ops: Vec<DeltaOp<K>>,
    pending_rebase: bool,
}

/// One intrusive doubly-linked list (front = MRU, back = LRU).
#[derive(Clone, Copy, Debug, Default)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    fn new() -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// The HashMap-index two-tier table: the bit-exact oracle of
/// [`TwoTierTable`](crate::TwoTierTable) and the table under
/// [`ReferenceAnalyzer`](crate::ReferenceAnalyzer) (see the module
/// docs).
///
/// Public API and policy semantics are identical to
/// [`TwoTierTable`](crate::TwoTierTable); only the storage layout (and
/// therefore [`memory_bytes`](MapTable::memory_bytes) and raw speed)
/// differs.
#[derive(Clone, Debug)]
pub struct MapTable<K, S = FxBuildHasher> {
    index: HashMap<K, usize, S>,
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    t1: List,
    t2: List,
    t1_capacity: usize,
    t2_capacity: usize,
    promote_threshold: u32,
    stats: TableStats,
    delta: Option<Box<DeltaLog<K>>>,
}

impl<K: Eq + Hash + Clone> MapTable<K> {
    /// Creates a table with the given per-tier capacities and promotion
    /// threshold, hashing with the default [`FxBuildHasher`].
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or `promote_threshold < 2`.
    pub fn new(t1_capacity: usize, t2_capacity: usize, promote_threshold: u32) -> Self {
        Self::with_hasher(t1_capacity, t2_capacity, promote_threshold)
    }
}

impl<K: Eq + Hash + Clone, S: BuildHasher + Default> MapTable<K, S> {
    /// Creates a table like [`new`](MapTable::new) but with an arbitrary
    /// `BuildHasher`.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or `promote_threshold < 2`.
    pub fn with_hasher(t1_capacity: usize, t2_capacity: usize, promote_threshold: u32) -> Self {
        assert!(t1_capacity > 0, "T1 capacity must be positive");
        assert!(t2_capacity > 0, "T2 capacity must be positive");
        assert!(
            promote_threshold >= 2,
            "promotion threshold must be at least 2"
        );
        MapTable {
            index: HashMap::with_capacity_and_hasher(t1_capacity + t2_capacity, S::default()),
            nodes: Vec::with_capacity(t1_capacity + t2_capacity),
            free: Vec::new(),
            t1: List::new(),
            t2: List::new(),
            t1_capacity,
            t2_capacity,
            promote_threshold,
            stats: TableStats::default(),
            delta: None,
        }
    }

    /// Records one sighting of `key` — see
    /// [`TwoTierTable::record`](crate::TwoTierTable::record).
    pub fn record(&mut self, key: K) -> Record<K> {
        self.record_filtered(key, || true)
            .expect("unconditional admission cannot reject")
    }

    /// Like [`record`](MapTable::record) but consulting `admit` on the
    /// miss path — see
    /// [`TwoTierTable::record_filtered`](crate::TwoTierTable::record_filtered).
    pub fn record_filtered(&mut self, key: K, admit: impl FnOnce() -> bool) -> Option<Record<K>> {
        match self.index.entry(key) {
            Entry::Occupied(entry) => {
                let idx = *entry.get();
                self.stats.hits += 1;
                let node = &mut self.nodes[idx];
                node.tally = node.tally.saturating_add(1);
                node.dirty = true;
                let tally = node.tally;
                let tier = node.tier;
                if tier == Tier::T1 && tally >= self.promote_threshold {
                    // Promote to T2's MRU end.
                    Self::unlink(&mut self.nodes, &mut self.t1, idx);
                    self.nodes[idx].tier = Tier::T2;
                    Self::push_front(&mut self.nodes, &mut self.t2, idx);
                    self.stats.promotions += 1;
                    let evicted = self.rebalance_after_promotion();
                    Some(Record {
                        hit: true,
                        tier: Tier::T2,
                        tally,
                        evicted,
                    })
                } else {
                    let list = match tier {
                        Tier::T1 => &mut self.t1,
                        Tier::T2 => &mut self.t2,
                    };
                    Self::unlink(&mut self.nodes, list, idx);
                    Self::push_front(&mut self.nodes, list, idx);
                    Some(Record {
                        hit: true,
                        tier,
                        tally,
                        evicted: None,
                    })
                }
            }
            Entry::Vacant(entry) => {
                if !admit() {
                    self.stats.rejections += 1;
                    return None;
                }
                self.stats.misses += 1;
                let node = Node {
                    key: entry.key().clone(),
                    tally: 1,
                    tier: Tier::T1,
                    prev: NIL,
                    next: NIL,
                    dirty: true,
                };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.nodes[idx] = node;
                        idx
                    }
                    None => {
                        self.nodes.push(node);
                        self.nodes.len() - 1
                    }
                };
                entry.insert(idx);
                Self::push_front(&mut self.nodes, &mut self.t1, idx);
                let evicted = if self.t1.len > self.t1_capacity {
                    self.evict_t1_lru()
                } else {
                    None
                };
                Some(Record {
                    hit: false,
                    tier: Tier::T1,
                    tally: 1,
                    evicted,
                })
            }
        }
    }

    /// LRU-end insertion bypassing policy — see
    /// [`TwoTierTable::seed`](crate::TwoTierTable::seed).
    pub fn seed(&mut self, key: K, tally: u32, tier: Tier) -> Option<Tier> {
        if let Some(log) = self.delta.as_deref_mut() {
            log.ops.clear();
            log.pending_rebase = true;
        }
        if self.index.contains_key(&key) {
            return None;
        }
        let target = match tier {
            Tier::T2 if self.t2.len < self.t2_capacity => Tier::T2,
            _ if self.t1.len < self.t1_capacity => Tier::T1,
            _ => {
                self.stats.evictions += 1;
                return None;
            }
        };
        let node = Node {
            key: key.clone(),
            tally: tally.max(1),
            tier: target,
            prev: NIL,
            next: NIL,
            dirty: false,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, idx);
        let list = match target {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::push_back(&mut self.nodes, list, idx);
        Some(target)
    }

    fn rebalance_after_promotion(&mut self) -> Option<(K, u32)> {
        if self.t2.len <= self.t2_capacity {
            return None;
        }
        let victim = self.t2.tail;
        debug_assert_ne!(victim, NIL);
        let evicted = if self.t1.len >= self.t1_capacity {
            self.evict_t1_lru()
        } else {
            None
        };
        Self::unlink(&mut self.nodes, &mut self.t2, victim);
        self.nodes[victim].tier = Tier::T1;
        Self::push_back(&mut self.nodes, &mut self.t1, victim);
        self.stats.demotions += 1;
        if self.delta.is_some() {
            let (key, tally) = {
                let n = &self.nodes[victim];
                (n.key.clone(), n.tally)
            };
            self.log_op(DeltaOp::DemoteBack(key, tally));
        }
        evicted
    }

    fn evict_t1_lru(&mut self) -> Option<(K, u32)> {
        let victim = self.t1.tail;
        if victim == NIL {
            return None;
        }
        Self::unlink(&mut self.nodes, &mut self.t1, victim);
        let node = &mut self.nodes[victim];
        let key = node.key.clone();
        let tally = node.tally;
        self.index.remove(&key);
        self.free.push(victim);
        self.stats.evictions += 1;
        if self.delta.is_some() {
            self.log_op(DeltaOp::Evict(key.clone()));
        }
        Some((key, tally))
    }

    /// Moves `key` to T1's LRU end — see
    /// [`TwoTierTable::demote`](crate::TwoTierTable::demote).
    pub fn demote(&mut self, key: &K) -> bool {
        let Some(&idx) = self.index.get(key) else {
            return false;
        };
        let list = match self.nodes[idx].tier {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::unlink(&mut self.nodes, list, idx);
        self.nodes[idx].tier = Tier::T1;
        Self::push_back(&mut self.nodes, &mut self.t1, idx);
        self.stats.demotions += 1;
        if self.delta.is_some() {
            let tally = self.nodes[idx].tally;
            self.log_op(DeltaOp::DemoteBack(key.clone(), tally));
        }
        if self.t1.len > self.t1_capacity {
            self.evict_t1_lru();
        }
        true
    }

    /// Removes `key` from the table, returning its tally.
    pub fn remove(&mut self, key: &K) -> Option<u32> {
        let idx = self.index.remove(key)?;
        let list = match self.nodes[idx].tier {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::unlink(&mut self.nodes, list, idx);
        let tally = self.nodes[idx].tally;
        self.free.push(idx);
        if self.delta.is_some() {
            self.log_op(DeltaOp::Evict(key.clone()));
        }
        Some(tally)
    }

    /// Current tally of `key`, if present.
    pub fn tally(&self, key: &K) -> Option<u32> {
        self.index.get(key).map(|&idx| self.nodes[idx].tally)
    }

    /// Tier `key` currently resides in, if present.
    pub fn tier(&self, key: &K) -> Option<Tier> {
        self.index.get(key).map(|&idx| self.nodes[idx].tier)
    }

    /// Whether `key` is present in either tier.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Total number of entries across both tiers.
    pub fn len(&self) -> usize {
        self.t1.len + self.t2.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries currently in `tier`.
    pub fn tier_len(&self, tier: Tier) -> usize {
        match tier {
            Tier::T1 => self.t1.len,
            Tier::T2 => self.t2.len,
        }
    }

    /// Configured capacity of `tier`.
    pub fn tier_capacity(&self, tier: Tier) -> usize {
        match tier {
            Tier::T1 => self.t1_capacity,
            Tier::T2 => self.t2_capacity,
        }
    }

    /// Configured total capacity (both tiers).
    pub fn capacity(&self) -> usize {
        self.t1_capacity + self.t2_capacity
    }

    /// The promotion threshold this table was built with.
    pub fn promote_threshold(&self) -> u32 {
        self.promote_threshold
    }

    /// Capacity-based memory footprint of the map-index layout: one
    /// hash-index slot (key + slab index) and one intrusive slab node
    /// per entry at the configured capacity — the baseline figure the
    /// `table` sweep's bytes-per-entry reduction is measured against.
    pub fn memory_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<K>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<Node<K>>();
        let log = self
            .delta
            .as_ref()
            .map_or(0, |d| d.ops.capacity() * std::mem::size_of::<DeltaOp<K>>());
        (self.t1_capacity + self.t2_capacity) * per_entry + log
    }

    /// Lifetime behaviour counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Iterator over `(key, tally, tier)` — T2 first, each tier
    /// MRU→LRU.
    pub fn iter(&self) -> MapIter<'_, K, S> {
        MapIter {
            table: self,
            tier: Tier::T2,
            cursor: self.t2.head,
        }
    }

    /// All entries with tally at least `min_tally`, sorted by
    /// descending tally then ascending key — same canonical order as
    /// [`TwoTierTable::entries_with_min_tally`](crate::TwoTierTable::entries_with_min_tally).
    pub fn entries_with_min_tally(&self, min_tally: u32) -> Vec<(K, u32)>
    where
        K: Ord,
    {
        let mut out = Vec::new();
        self.entries_with_min_tally_into(min_tally, &mut out);
        out
    }

    /// [`entries_with_min_tally`](MapTable::entries_with_min_tally)
    /// into a reused output vector.
    pub fn entries_with_min_tally_into(&self, min_tally: u32, out: &mut Vec<(K, u32)>)
    where
        K: Ord,
    {
        out.clear();
        out.extend(
            self.iter()
                .filter(|(_, tally, _)| *tally >= min_tally)
                .map(|(k, tally, _)| (k.clone(), tally)),
        );
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }

    /// Removes every entry and resets the lists (stats are preserved).
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
        self.t1 = List::new();
        self.t2 = List::new();
        if let Some(log) = self.delta.as_deref_mut() {
            log.ops.clear();
            log.pending_rebase = true;
        }
    }

    /// Turns on delta tracking — see
    /// [`TwoTierTable::enable_delta_tracking`](crate::TwoTierTable::enable_delta_tracking).
    pub fn enable_delta_tracking(&mut self) {
        if self.delta.is_some() {
            return;
        }
        let limit = self.op_limit();
        self.delta = Some(Box::new(DeltaLog {
            ops: Vec::with_capacity(limit),
            pending_rebase: !self.is_empty(),
        }));
    }

    /// Reserves `out`'s buffers to this table's hard delta bounds.
    pub fn preallocate_delta(&self, out: &mut TableDelta<K>) {
        out.ops.reserve(self.op_limit());
        out.touched_t1.reserve(self.t1_capacity);
        out.touched_t2.reserve(self.t2_capacity);
    }

    /// Whether [`enable_delta_tracking`](Self::enable_delta_tracking)
    /// has run.
    pub fn delta_tracking(&self) -> bool {
        self.delta.is_some()
    }

    fn op_limit(&self) -> usize {
        self.t1_capacity + self.t2_capacity + 64
    }

    fn log_op(&mut self, op: DeltaOp<K>) {
        let limit = self.op_limit();
        if let Some(log) = self.delta.as_deref_mut() {
            if log.pending_rebase {
                return;
            }
            if log.ops.len() >= limit {
                log.ops.clear();
                log.pending_rebase = true;
            } else {
                log.ops.push(op);
            }
        }
    }

    /// Drains everything since the previous extraction into `out` — see
    /// [`TwoTierTable::extract_delta`](crate::TwoTierTable::extract_delta).
    pub fn extract_delta(&mut self, out: &mut TableDelta<K>) {
        out.clear();
        let Some(log) = self.delta.as_deref_mut() else {
            return;
        };
        if log.pending_rebase {
            log.pending_rebase = false;
            out.rebase = true;
            // A rebase replaces the mirror wholesale, so it also
            // retires any dirty bits left behind the prefix — the next
            // epoch starts clean (same as the open table).
            let mut cursor = self.t2.head;
            while cursor != NIL {
                let n = &mut self.nodes[cursor];
                n.dirty = false;
                out.touched_t2.push((n.key.clone(), n.tally));
                cursor = n.next;
            }
            let mut cursor = self.t1.head;
            while cursor != NIL {
                let n = &mut self.nodes[cursor];
                n.dirty = false;
                out.touched_t1.push((n.key.clone(), n.tally));
                cursor = n.next;
            }
            return;
        }
        std::mem::swap(&mut log.ops, &mut out.ops);
        let mut cursor = self.t2.head;
        while cursor != NIL {
            let n = &mut self.nodes[cursor];
            if !n.dirty {
                break;
            }
            n.dirty = false;
            out.touched_t2.push((n.key.clone(), n.tally));
            cursor = n.next;
        }
        let mut cursor = self.t1.head;
        while cursor != NIL {
            let n = &mut self.nodes[cursor];
            if !n.dirty {
                break;
            }
            n.dirty = false;
            out.touched_t1.push((n.key.clone(), n.tally));
            cursor = n.next;
        }
    }

    #[inline]
    fn unlink(nodes: &mut [Node<K>], list: &mut List, idx: usize) {
        let (prev, next) = {
            let n = &nodes[idx];
            (n.prev, n.next)
        };
        if prev != NIL {
            nodes[prev].next = next;
        }
        if next != NIL {
            nodes[next].prev = prev;
        }
        if list.head == idx {
            list.head = next;
        }
        if list.tail == idx {
            list.tail = prev;
        }
        list.len -= 1;
        nodes[idx].prev = NIL;
        nodes[idx].next = NIL;
    }

    #[inline]
    fn push_front(nodes: &mut [Node<K>], list: &mut List, idx: usize) {
        let head = list.head;
        nodes[idx].prev = NIL;
        nodes[idx].next = head;
        if head != NIL {
            nodes[head].prev = idx;
        }
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
        list.len += 1;
    }

    #[inline]
    fn push_back(nodes: &mut [Node<K>], list: &mut List, idx: usize) {
        let tail = list.tail;
        nodes[idx].next = NIL;
        nodes[idx].prev = tail;
        if tail != NIL {
            nodes[tail].next = idx;
        }
        list.tail = idx;
        if list.head == NIL {
            list.head = idx;
        }
        list.len += 1;
    }

    /// Structural self-check (list ↔ index ↔ slab consistency). Free in
    /// release builds.
    #[cfg(debug_assertions)]
    pub fn check_invariants(&self) {
        assert!(self.t1.len <= self.t1_capacity, "T1 over capacity");
        assert!(self.t2.len <= self.t2_capacity, "T2 over capacity");
        assert_eq!(self.index.len(), self.t1.len + self.t2.len);
        for (tier, list) in [(Tier::T1, &self.t1), (Tier::T2, &self.t2)] {
            let mut count = 0;
            let mut cursor = list.head;
            let mut prev = NIL;
            while cursor != NIL {
                let node = &self.nodes[cursor];
                assert_eq!(node.tier, tier);
                assert_eq!(node.prev, prev);
                assert_eq!(self.index[&node.key], cursor);
                prev = cursor;
                cursor = node.next;
                count += 1;
                assert!(count <= list.len, "list cycle detected");
            }
            assert_eq!(count, list.len);
            assert_eq!(list.tail, prev);
        }
    }

    /// Structural self-check — no-op without debug assertions.
    #[cfg(not(debug_assertions))]
    #[inline]
    pub fn check_invariants(&self) {}
}

/// Iterator over the entries of a [`MapTable`], created by
/// [`MapTable::iter`].
pub struct MapIter<'a, K, S = FxBuildHasher> {
    table: &'a MapTable<K, S>,
    tier: Tier,
    cursor: usize,
}

impl<'a, K, S> Iterator for MapIter<'a, K, S> {
    type Item = (&'a K, u32, Tier);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor == NIL {
                if self.tier == Tier::T2 {
                    self.tier = Tier::T1;
                    self.cursor = self.table.t1.head;
                    continue;
                }
                return None;
            }
            let node = &self.table.nodes[self.cursor];
            self.cursor = node.next;
            return Some((&node.key, node.tally, node.tier));
        }
    }
}

impl<'a, K: Eq + Hash + Clone, S: BuildHasher + Default> IntoIterator for &'a MapTable<K, S> {
    type Item = (&'a K, u32, Tier);
    type IntoIter = MapIter<'a, K, S>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: Eq + Hash + Clone + fmt::Display, S: BuildHasher + Default> fmt::Display
    for MapTable<K, S>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MapTable(T1 {}/{}, T2 {}/{})",
            self.t1.len, self.t1_capacity, self.t2.len, self.t2_capacity
        )?;
        for (key, tally, tier) in self.iter() {
            writeln!(f, "  [{tier:?}] {key} ×{tally}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_policy_matches_reference_semantics() {
        let mut t = MapTable::new(2, 2, 2);
        t.record(1);
        t.record(2);
        let r = t.record(3);
        assert_eq!(r.evicted, Some((1, 1)));
        let r = t.record(2);
        assert!(r.hit);
        assert_eq!(r.tier, Tier::T2);
        assert_eq!(t.stats().promotions, 1);
        assert_eq!(t.stats().evictions, 1);
        t.check_invariants();
    }

    #[test]
    fn memory_bytes_is_capacity_based() {
        let t = MapTable::<u64>::new(100, 28, 2);
        let mut u = MapTable::<u64>::new(100, 28, 2);
        u.record(7);
        assert_eq!(u.memory_bytes(), t.memory_bytes());
        assert!(t.memory_bytes() > 0);
    }
}
