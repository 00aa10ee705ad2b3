//! Partner chains: the analyzer's extent → stored-pairs index, kept
//! intrusively in the synopsis tables instead of in a hash map of its
//! own (DESIGN.md §17).
//!
//! Every stored pair owns one node, and the node sits on two
//! doubly-linked chains, one per member extent. A chain links node
//! *halves*: half `2n + s` is node `n`'s link on the chain of its
//! pair's first (`s = 0`) or second (`s = 1`) extent. The chain of an
//! extent is rooted in that extent's item-table slot, whose payload
//! word holds the head half; the pair's correlation-table slot holds
//! its node as payload. The head's `prev` names its root, so unlinking
//! any node — on a pair eviction or a trimmed demotion — touches only
//! the node, its chain neighbours and at most one item slot, and never
//! probes a table.
//!
//! An extent can have stored pairs but no item entry (its item was
//! evicted while its pairs survived demotion, or a pair was recorded
//! after its item was evicted within one transaction). Its chain is
//! then rooted in the cold `orphans` map, which an item insert checks
//! — only while it is non-empty — to adopt the chain back.
//!
//! Item-table rehashes move entries between slots, so an item-rooted
//! head's tag is a hint, like the root hints a pair insert takes: an
//! unlink that finds the tagged slot no longer holding the extent
//! re-probes the item table for it and refreshes the tag. Pair-table
//! rehashes need nothing, because nodes hold pair keys, not slot
//! indices.

use rtdac_types::{Extent, ExtentPair, FxHashMap};

use crate::table::{TwoTierTable, NO_PAYLOAD};

/// No half: the end of a chain, an empty root, an empty free list.
pub(crate) const NONE: u32 = NO_PAYLOAD;

/// `prev` of a head half rooted in the item table, last seen in slot
/// `prev & !ROOT` (stale once an item-table rehash moved the entry).
const ROOT: u32 = 1 << 31;

/// `prev` of a head half rooted in the `orphans` map.
const ORPHAN: u32 = u32::MAX;

/// One stored pair's node: the pair and its links on the pair's two
/// extent chains.
#[derive(Clone, Copy, Debug)]
struct Node {
    pair: ExtentPair,
    /// Next half on each side's chain ([`NONE`] at the tail). A free
    /// node keeps the free list in `next[0]`.
    next: [u32; 2],
    /// Previous half on each side's chain, or the root tag
    /// ([`ROOT`]` | slot` or [`ORPHAN`]) at the head.
    prev: [u32; 2],
}

/// The partner chains of one analyzer: a node array sized to the
/// correlation table's capacity, its free list and the orphan roots.
#[derive(Debug)]
pub(crate) struct PartnerChains {
    /// Grown on demand up to `capacity` (reserved up front, so it
    /// never reallocates); freed nodes are recycled first.
    nodes: Vec<Node>,
    capacity: usize,
    free: u32,
    live: usize,
    /// Roots of extents with stored pairs but no item entry.
    orphans: FxHashMap<Extent, u32>,
}

impl Clone for PartnerChains {
    /// Keeps the node reservation, so a clone's inserts stay
    /// allocation-free too.
    fn clone(&self) -> Self {
        let mut nodes = Vec::with_capacity(self.capacity);
        nodes.extend_from_slice(&self.nodes);
        PartnerChains {
            nodes,
            capacity: self.capacity,
            free: self.free,
            live: self.live,
            orphans: self.orphans.clone(),
        }
    }
}

#[inline]
fn half(node: u32, side: usize) -> u32 {
    node * 2 + side as u32
}

impl PartnerChains {
    /// Chains for an item table and a correlation table of
    /// `item_capacity` and `pair_capacity` entries (both tiers).
    ///
    /// # Panics
    ///
    /// Panics if the halves of `pair_capacity` nodes do not fit a
    /// table payload word, or item slot indices do not fit a root tag.
    pub(crate) fn new(item_capacity: usize, pair_capacity: usize) -> Self {
        assert!(
            pair_capacity < (NONE / 2) as usize,
            "correlation table too large for partner-chain links"
        );
        assert!(
            item_capacity < 1 << 29,
            "item table too large for partner-chain root tags"
        );
        PartnerChains {
            nodes: Vec::with_capacity(pair_capacity),
            capacity: pair_capacity,
            free: NONE,
            live: 0,
            orphans: FxHashMap::default(),
        }
    }

    /// Bytes of the node reservation plus the orphan map's table — the
    /// index's footprint beside the two synopsis tables.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.orphans.capacity() * (std::mem::size_of::<(Extent, u32)>() + 1)
    }

    /// Forgets every chain (after both tables were cleared).
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.free = NONE;
        self.live = 0;
        self.orphans.clear();
    }

    /// The pair stored under `node`.
    #[inline]
    pub(crate) fn pair(&self, node: u32) -> ExtentPair {
        self.nodes[node as usize].pair
    }

    /// The extent whose chain half `h` is on.
    fn extent(&self, h: u32) -> Extent {
        let pair = &self.nodes[(h / 2) as usize].pair;
        if h & 1 == 0 {
            pair.first()
        } else {
            pair.second()
        }
    }

    #[inline]
    fn prev(&self, h: u32) -> u32 {
        self.nodes[(h / 2) as usize].prev[(h % 2) as usize]
    }

    #[inline]
    fn set_prev(&mut self, h: u32, prev: u32) {
        self.nodes[(h / 2) as usize].prev[(h % 2) as usize] = prev;
    }

    #[inline]
    fn next(&self, h: u32) -> u32 {
        self.nodes[(h / 2) as usize].next[(h % 2) as usize]
    }

    #[inline]
    fn set_next(&mut self, h: u32, next: u32) {
        self.nodes[(h / 2) as usize].next[(h % 2) as usize] = next;
    }

    /// Head half of `extent`'s chain, or [`NONE`].
    pub(crate) fn head_of(&self, items: &TwoTierTable<Extent>, extent: &Extent) -> u32 {
        match items.find(extent) {
            Some(slot) => items.payload(slot),
            None => self.orphans.get(extent).copied().unwrap_or(NONE),
        }
    }

    /// Links a freshly stored `pair` onto both member chains and
    /// returns its node. `hints` are item slots that probably hold the
    /// pair's first and second extent (what the transaction's item
    /// records returned); a stale hint costs one item-table probe.
    pub(crate) fn link(
        &mut self,
        items: &mut TwoTierTable<Extent>,
        pair: ExtentPair,
        hints: [u32; 2],
    ) -> u32 {
        let node = self.alloc(pair);
        for (side, hint) in hints.into_iter().enumerate() {
            let h = half(node, side);
            let extent = self.extent(h);
            let slot = if items.slot_holds(hint, &extent) {
                Some(hint)
            } else {
                items.find(&extent)
            };
            let (old, root) = match slot {
                Some(slot) => {
                    let old = items.payload(slot);
                    items.set_payload(slot, h);
                    (old, ROOT | slot)
                }
                None => {
                    let head = self.orphans.entry(extent).or_insert(NONE);
                    let old = std::mem::replace(head, h);
                    (old, ORPHAN)
                }
            };
            self.set_prev(h, root);
            self.set_next(h, old);
            if old != NONE {
                self.set_prev(old, h);
            }
        }
        node
    }

    /// Unlinks `node` from both chains and frees it.
    pub(crate) fn unlink(&mut self, items: &mut TwoTierTable<Extent>, node: u32) {
        for side in 0..2 {
            let h = half(node, side);
            let (mut prev, next) = (self.prev(h), self.next(h));
            if prev & ROOT == 0 {
                self.set_next(prev, next);
            } else if prev == ORPHAN {
                let extent = self.extent(h);
                if next == NONE {
                    self.orphans.remove(&extent);
                } else {
                    *self.orphans.get_mut(&extent).expect("orphan root") = next;
                }
            } else {
                let extent = self.extent(h);
                let mut slot = prev & !ROOT;
                if !items.slot_holds(slot, &extent) {
                    slot = items.find(&extent).expect("item-rooted extent is stored");
                    prev = ROOT | slot;
                }
                items.set_payload(slot, next);
            }
            if next != NONE {
                self.set_prev(next, prev);
            }
        }
        self.nodes[node as usize].next[0] = self.free;
        self.free = node;
        self.live -= 1;
    }

    /// An item insert for `extent` landed in `slot`: adopts the
    /// extent's orphaned chain, if any, into the slot.
    #[inline]
    pub(crate) fn adopt(&mut self, items: &mut TwoTierTable<Extent>, extent: &Extent, slot: u32) {
        if self.orphans.is_empty() {
            return;
        }
        if let Some(head) = self.orphans.remove(extent) {
            items.set_payload(slot, head);
            self.set_prev(head, ROOT | slot);
        }
    }

    /// `extent`'s item entry was evicted while its chain (headed by
    /// `head`) still has stored pairs: roots the chain in `orphans`.
    pub(crate) fn orphan(&mut self, extent: Extent, head: u32) {
        debug_assert_ne!(head, NONE);
        self.set_prev(head, ORPHAN);
        let previous = self.orphans.insert(extent, head);
        debug_assert!(previous.is_none(), "extent rooted twice");
    }

    /// The nodes on the chain starting at `head`, in chain order.
    pub(crate) fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let mut h = head;
        std::iter::from_fn(move || {
            (h != NONE).then(|| {
                let node = h / 2;
                h = self.next(h);
                node
            })
        })
    }

    /// The chain starting at `head` into `out` (cleared first),
    /// ordered by ascending pair — the defined order of correlated
    /// demotion.
    pub(crate) fn sorted_chain(&self, head: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.chain(head));
        out.sort_unstable_by_key(|&node| self.nodes[node as usize].pair);
    }

    /// A node for `pair`, its links still to be set by the caller.
    fn alloc(&mut self, pair: ExtentPair) -> u32 {
        self.live += 1;
        if self.free != NONE {
            let node = self.free;
            self.free = self.nodes[node as usize].next[0];
            self.nodes[node as usize].pair = pair;
            return node;
        }
        debug_assert!(self.nodes.len() < self.capacity, "more nodes than pairs");
        self.nodes.push(Node {
            pair,
            next: [NONE; 2],
            prev: [NONE; 2],
        });
        (self.nodes.len() - 1) as u32
    }

    /// Full structural check against both tables: every stored pair is
    /// on both of its chains exactly once, under the node its slot
    /// names; the live node count equals the pair count; every link is
    /// mirrored; every head is tagged with its kind of root (an item
    /// root's slot may be stale after a rehash); no orphan root
    /// belongs to an extent in the item table; no chain is empty.
    #[cfg(debug_assertions)]
    pub(crate) fn check(&self, items: &TwoTierTable<Extent>, pairs: &TwoTierTable<ExtentPair>) {
        use std::collections::HashMap;
        assert_eq!(self.live, pairs.len(), "live nodes vs stored pairs");
        let mut seen: HashMap<u32, u32> = HashMap::new();
        let mut walk = |extent: &Extent, head: u32, orphaned: bool| {
            assert_ne!(head, NONE, "empty chain kept a root");
            let root = self.prev(head);
            assert!(
                root & ROOT != 0 && (root == ORPHAN) == orphaned,
                "head tagged with the wrong kind of root"
            );
            let mut h = head;
            let mut prev = root;
            while h != NONE {
                assert_eq!(self.extent(h), *extent, "node on a foreign chain");
                assert_eq!(self.prev(h), prev, "chain back-link");
                *seen.entry(h).or_default() += 1;
                prev = h;
                h = self.next(h);
            }
        };
        for (_, extent, head) in items.payloads() {
            walk(extent, head, false);
        }
        for (extent, &head) in &self.orphans {
            assert!(!items.contains(extent), "orphan root for a stored item");
            walk(extent, head, true);
        }
        assert_eq!(
            seen.len(),
            2 * pairs.len(),
            "chained halves vs stored pairs"
        );
        for (slot, pair, node) in pairs.payloads() {
            assert!(pairs.slot_holds(slot, pair));
            assert_eq!(
                self.nodes[node as usize].pair, *pair,
                "slot names a foreign node"
            );
            for side in 0..2 {
                assert_eq!(
                    seen.get(&half(node, side)),
                    Some(&1),
                    "pair {pair} side {side}"
                );
            }
        }
        assert_eq!(
            pairs.payloads().count(),
            pairs.len(),
            "stored pair without a node"
        );
    }
}
