//! The two-tier LRU/frequency table underlying both synopsis tables.
//!
//! Storage is a cache-conscious open-addressing table (DESIGN.md §17):
//! SwissTable-style control bytes probed eight at a time with std-only
//! SWAR on `u64` words, entries stored inline in a single slot array
//! (key, tally, recency links and one packed word of tier, delta dirty
//! bit and owner payload co-located — no key duplication, no
//! index→slab indirection), and the intrusive
//! MRU/LRU lists linked with `u32` indices. The previous
//! HashMap-index implementation is preserved as
//! [`MapTable`](crate::MapTable), the bit-exact oracle every policy
//! decision here is tested against.

use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::mem::MaybeUninit;

use rtdac_types::FxBuildHasher;

use crate::delta::{DeltaOp, TableDelta};

/// Which tier of a [`TwoTierTable`] an entry resides in.
///
/// T1 holds entries seen "infrequently" (inserted on first sight); entries
/// whose tally reaches the promotion threshold move to T2, the "frequent"
/// tier (§III-D1 of the paper).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Tier {
    /// The infrequent tier — new entries land here. Orders below
    /// [`Tier::T2`], so `max` picks the frequent tier when merging split
    /// records of one pair.
    T1,
    /// The frequent tier — entries are promoted here by tally.
    T2,
}

/// List-link sentinel. Bucket indices fit `u32` (asserted at
/// construction), halving link footprint vs the old `usize` links.
const NIL: u32 = u32::MAX;

/// Control bytes are probed one 8-byte word at a time.
const GROUP: usize = 8;

/// Control byte of a never-occupied slot: `0b1111_1111`.
const EMPTY: u8 = 0xff;

/// Control byte of a tombstone (erased slot inside what may still be a
/// fully-occupied probe window): `0b1000_0000`.
const DELETED: u8 = 0x80;

/// A FULL control byte is the key's 7-bit `h2` tag (high bit clear).
#[inline]
fn is_full(ctrl: u8) -> bool {
    ctrl & 0x80 == 0
}

const LSBS: u64 = 0x0101_0101_0101_0101;
const MSBS: u64 = 0x8080_8080_8080_8080;

/// Secondary hash: 7 bits stored in the control byte. Taken from bits
/// 32..39 — independent of the high bits the widening-multiply home
/// index consumes and of the weaker low bits of `FxHasher`.
#[inline]
fn h2(hash: u64) -> u8 {
    ((hash >> 32) & 0x7f) as u8
}

/// Bytewise `group == byte` as a mask with bit 7 of each matching byte
/// set (the classic SWAR zero-byte trick on `group ^ splat(byte)`).
///
/// May report false positives on bytes equal to `byte ^ 0x01` that
/// trail a real match (borrow propagation) — but since `byte` is a
/// 7-bit tag, any false positive is another FULL byte, never EMPTY or
/// DELETED (their xor keeps bit 7 set, which masks them out). Matches
/// are verified by key comparison anyway.
#[inline]
fn match_byte(group: u64, byte: u8) -> u64 {
    let x = group ^ (LSBS * u64::from(byte));
    x.wrapping_sub(LSBS) & !x & MSBS
}

/// Mask of EMPTY bytes (bit 7 of each EMPTY byte set): only EMPTY has
/// both bit 7 and bit 6 set.
#[inline]
fn match_empty(group: u64) -> u64 {
    group & (group << 1) & MSBS
}

/// Mask of EMPTY or DELETED bytes (both have bit 7 set; FULL does not).
#[inline]
fn match_empty_or_deleted(group: u64) -> u64 {
    group & MSBS
}

/// Bit 31 of [`Slot::meta`]: the entry sits in T2.
const META_T2: u32 = 1 << 31;
/// Bit 30 of [`Slot::meta`]: the delta dirty bit.
const META_DIRTY: u32 = 1 << 30;
/// Bits 0..30 of [`Slot::meta`]: the owner's payload word.
const META_PAYLOAD: u32 = META_DIRTY - 1;

/// Payload of an entry its owner has not tagged, and the largest
/// payload a slot can hold (30 bits).
pub(crate) const NO_PAYLOAD: u32 = META_PAYLOAD;

/// One inline table slot: key, tally, both recency links and one
/// packed word of tier, delta dirty bit and owner payload, co-located
/// in a single cache-line-friendly record. `key` is live iff the
/// slot's control byte is FULL.
struct Slot<K> {
    key: MaybeUninit<K>,
    tally: u32,
    prev: u32,
    next: u32,
    /// Tier ([`META_T2`]), dirty bit ([`META_DIRTY`]: moved to its
    /// tier's MRU end since the last delta extraction, which clears
    /// it — see [`DeltaLog`]) and a 30-bit payload the table's owner
    /// attaches to the entry (the analyzer's partner-chain links).
    /// Packing all three into one word keeps the slot at 48 B for
    /// pairs / 32 B for items.
    meta: u32,
}

impl<K> Slot<K> {
    fn vacant() -> Self {
        Slot {
            key: MaybeUninit::uninit(),
            tally: 0,
            prev: NIL,
            next: NIL,
            meta: NO_PAYLOAD,
        }
    }

    #[inline]
    fn tier(&self) -> Tier {
        if self.meta & META_T2 != 0 {
            Tier::T2
        } else {
            Tier::T1
        }
    }

    #[inline]
    fn set_tier(&mut self, tier: Tier) {
        match tier {
            Tier::T1 => self.meta &= !META_T2,
            Tier::T2 => self.meta |= META_T2,
        }
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.meta & META_DIRTY != 0
    }

    #[inline]
    fn set_dirty(&mut self, dirty: bool) {
        if dirty {
            self.meta |= META_DIRTY;
        } else {
            self.meta &= !META_DIRTY;
        }
    }
}

/// Per-table delta-tracking state (present only once
/// [`TwoTierTable::enable_delta_tracking`] has run).
///
/// Every MRU-end movement marks its entry dirty; `extract_delta`
/// collects each tier's dirty head prefix (clearing the bits as it
/// walks, which is what ends the epoch) and swaps out the op log. The
/// rebase path visits every entry, so it clears every bit. A dirty
/// entry parked at T1's back by a demotion can therefore survive its
/// epoch and be picked up by a *later* prefix walk; that emits the
/// entry's true tally at its true position, which the mirror replay
/// reproduces exactly — redundant, never wrong (the u64-generation
/// scheme this replaced suppressed those emissions, nothing more).
#[derive(Clone, Debug)]
struct DeltaLog<K> {
    ops: Vec<DeltaOp<K>>,
    /// Incremental log invalidated (clear/seed/op overflow): the next
    /// extraction must carry a full dump.
    pending_rebase: bool,
}

/// One intrusive doubly-linked list (front = MRU, back = LRU).
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
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

/// Counters describing a table's behaviour over its lifetime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups that found the key already present.
    pub hits: u64,
    /// Lookups that inserted a new entry.
    pub misses: u64,
    /// Entries evicted from T1's LRU position.
    pub evictions: u64,
    /// Entries promoted from T1 to T2.
    pub promotions: u64,
    /// Entries demoted (T2→T1 overflow demotions and explicit
    /// [`TwoTierTable::demote`] calls).
    pub demotions: u64,
    /// Lookups of absent keys the admission filter turned away before
    /// an entry was created ([`TwoTierTable::record_filtered`] only —
    /// plain [`record`](TwoTierTable::record) never rejects).
    pub rejections: u64,
}

/// What happened during a [`TwoTierTable::record`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record<K> {
    /// Whether the key was already present, and in which tier it ended up.
    pub hit: bool,
    /// Tier the key resides in after the call.
    pub tier: Tier,
    /// Tally of the key after the call.
    pub tally: u32,
    /// Entry evicted to make room, if any, with its final tally.
    pub evicted: Option<(K, u32)>,
}

/// An entry the policy removed, with the payload its owner had
/// attached to it.
pub(crate) struct Evicted<K> {
    pub(crate) key: K,
    pub(crate) tally: u32,
    pub(crate) payload: u32,
}

/// What [`TwoTierTable::apply`] did: the public [`Record`] plus the
/// slot the key now occupies and the evicted entry's payload — what
/// an owner that attaches payloads needs to keep them consistent.
pub(crate) struct Applied<K> {
    pub(crate) hit: bool,
    pub(crate) tier: Tier,
    pub(crate) tally: u32,
    /// Slot of the recorded key, valid until the next insert (which
    /// may rehash) or removal.
    pub(crate) slot: u32,
    pub(crate) evicted: Option<Evicted<K>>,
}

impl<K> Applied<K> {
    fn into_record(self) -> Record<K> {
        Record {
            hit: self.hit,
            tier: self.tier,
            tally: self.tally,
            evicted: self.evicted.map(|e| (e.key, e.tally)),
        }
    }
}

/// What [`TwoTierTable::demote_entry`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Demotion {
    /// The key was not stored.
    Absent,
    /// The key now sits at T1's LRU end.
    Kept,
    /// Demoting overfilled T1, so the entry — now T1's LRU — was
    /// trimmed; the payload it carried.
    Trimmed(u32),
}

/// Result of one control-byte probe walk.
enum Probe {
    /// The key lives in this slot.
    Found(usize),
    /// The key is absent; the payload is the first EMPTY or DELETED
    /// slot along its probe sequence (where an insert belongs).
    Vacant(usize),
}

/// A fixed-size two-tier table combining recency (LRU within each tier)
/// and frequency (tally-based promotion) — the synopsis data structure of
/// §III-D1, used for both the item table and the correlation table.
///
/// Semantics (see DESIGN.md §2 for the full interpretation):
///
/// * a **miss** inserts the key at T1's MRU end with tally 1, evicting
///   T1's LRU entry if T1 is full;
/// * a **hit** increments the tally and moves the entry to the MRU end of
///   its tier;
/// * a T1 entry whose tally reaches the *promotion threshold* moves to
///   T2's MRU end; if T2 is full, T2's LRU entry is **demoted** to T1's
///   LRU end — next in line for eviction — rather than moved to a ghost
///   list as ARC would;
/// * [`demote`](TwoTierTable::demote) moves an entry to T1's LRU end
///   without evicting it, reducing its relevancy (used by the analyzer
///   when a correlated item is evicted from the item table).
///
/// All operations are O(1) (amortized). Layout is open addressing with
/// SWAR group probing (DESIGN.md §17): one control-byte array and one
/// inline slot array, so a `record` touches the probed control word plus
/// the entry's own slot — no separate index, no second key copy, no slab
/// hop. Hashing uses [`FxBuildHasher`] by default — deterministic and
/// far cheaper than SipHash on the short extent/pair keys the synopsis
/// stores — and each `record` performs a single hash + one probe walk on
/// both the hit and the miss path (a miss that lands on a saturated
/// region additionally triggers a rare in-place rehash).
///
/// # Examples
///
/// ```
/// use rtdac_synopsis::{Tier, TwoTierTable};
///
/// let mut table = TwoTierTable::new(2, 2, 2); // T1 cap 2, T2 cap 2, promote at tally 2
/// table.record("a");
/// assert_eq!(table.tier(&"a"), Some(Tier::T1));
/// table.record("a"); // second sighting: promoted
/// assert_eq!(table.tier(&"a"), Some(Tier::T2));
/// assert_eq!(table.tally(&"a"), Some(2));
/// ```
pub struct TwoTierTable<K, S = FxBuildHasher> {
    /// `buckets + GROUP` control bytes: one per slot plus a mirror of
    /// the first GROUP bytes so group loads starting anywhere in
    /// `[0, buckets)` never wrap mid-word.
    ctrl: Box<[u8]>,
    slots: Box<[Slot<K>]>,
    buckets: usize,
    /// DELETED control bytes currently in the table; purged by
    /// [`rehash_in_place`](Self::rehash_in_place).
    tombstones: usize,
    hasher: S,
    t1: List,
    t2: List,
    t1_capacity: usize,
    t2_capacity: usize,
    promote_threshold: u32,
    stats: TableStats,
    delta: Option<Box<DeltaLog<K>>>,
}

impl<K: Eq + Hash + Clone> TwoTierTable<K> {
    /// Creates a table with the given per-tier capacities and promotion
    /// threshold (the tally at which a T1 entry moves to T2; the paper
    /// promotes "upon a cache hit in the first \[tier\]", i.e. threshold 2),
    /// hashing with the default [`FxBuildHasher`].
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or `promote_threshold < 2` (a
    /// threshold of 1 would bypass T1 entirely).
    pub fn new(t1_capacity: usize, t2_capacity: usize, promote_threshold: u32) -> Self {
        Self::with_hasher(t1_capacity, t2_capacity, promote_threshold)
    }
}

/// Number of slots backing `capacity` entries: ~1.44× plus a small
/// constant floor, rounded up to a whole number of GROUPs. *Not*
/// rounded to a power of two — synopsis capacities are usually powers
/// of two themselves, and the classic next-pow2 sizing would double
/// the allocation right where it hurts; the home bucket is derived
/// with a widening multiply instead of a mask, which works for any
/// bucket count. The pad buys churn headroom: a full table runs at
/// ~0.70 load, and the max-load margin (`buckets/8` tombstones)
/// scales with it, spacing out in-place rehashes under heavy
/// evict/insert traffic. The 1-bit dirty flag (vs the old u64 delta
/// stamp) pays for the extra slots within the same byte budget.
fn bucket_count(capacity: usize) -> usize {
    let padded = capacity + (capacity * 7 / 16).max(16);
    padded.div_ceil(GROUP) * GROUP
}

impl<K: Eq + Hash + Clone, S: BuildHasher + Default> TwoTierTable<K, S> {
    /// Creates a table like [`new`](TwoTierTable::new) but with an
    /// arbitrary `BuildHasher` (e.g. `std`'s SipHash `RandomState` for the
    /// reference analyzer).
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
        let capacity = t1_capacity + t2_capacity;
        assert!(
            capacity <= (u32::MAX as usize) / 2,
            "table capacity must fit u32 recency links"
        );
        let buckets = bucket_count(capacity);
        let table = TwoTierTable {
            ctrl: vec![EMPTY; buckets + GROUP].into_boxed_slice(),
            slots: (0..buckets).map(|_| Slot::vacant()).collect(),
            buckets,
            tombstones: 0,
            hasher: S::default(),
            t1: List::new(),
            t2: List::new(),
            t1_capacity,
            t2_capacity,
            promote_threshold,
            stats: TableStats::default(),
            delta: None,
        };
        // The policy holds one tier at capacity+1 transiently
        // (insert-then-trim); the load bound must absorb that without
        // a probe walk ever failing to find a free slot.
        debug_assert!(table.max_load() > capacity);
        table
    }

    /// Non-EMPTY slots (occupied + tombstones) are capped below the
    /// bucket count so every probe walk terminates at an EMPTY group;
    /// exceeding the cap triggers an in-place rehash that purges
    /// tombstones.
    #[inline]
    fn max_load(&self) -> usize {
        self.buckets - self.buckets / 8
    }

    /// Home bucket: the high hash bits scaled into `[0, buckets)` with
    /// a widening multiply (Lemire's fast range reduction) — no
    /// power-of-two requirement, no modulo in the hot path.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (((hash as u128) * (self.buckets as u128)) >> 64) as usize
    }

    #[inline]
    fn wrap(&self, idx: usize) -> usize {
        if idx >= self.buckets {
            idx - self.buckets
        } else {
            idx
        }
    }

    /// Loads the 8 control bytes starting at `pos` (any position in
    /// `[0, buckets)`; the mirror bytes cover reads past the end).
    #[inline]
    fn group(&self, pos: usize) -> u64 {
        debug_assert!(pos + GROUP <= self.ctrl.len());
        // SAFETY: every caller passes `pos < buckets`, and the control
        // array carries GROUP mirror bytes past the ring, so the 8-byte
        // window is always in bounds. An unchecked unaligned load keeps
        // the bounds test and panic path out of the probe loop.
        u64::from_le(unsafe { (self.ctrl.as_ptr().add(pos) as *const u64).read_unaligned() })
    }

    /// Writes a control byte, keeping the wrap-around mirror in sync.
    #[inline]
    fn set_ctrl(&mut self, idx: usize, val: u8) {
        self.ctrl[idx] = val;
        if idx < GROUP {
            self.ctrl[self.buckets + idx] = val;
        }
    }

    /// One probe walk: starts at the key's home bucket and advances a
    /// whole GROUP at a time. Because `buckets` is a multiple of GROUP,
    /// successive windows tile the ring disjointly — every slot is
    /// visited exactly once before the walk wraps to its start, and the
    /// load bound guarantees an EMPTY byte stops it before then.
    #[inline]
    fn probe(&self, key: &K, hash: u64) -> Probe {
        let tag = h2(hash);
        let mut pos = self.home(hash);
        let mut insert = None;
        loop {
            let group = self.group(pos);
            let mut m = match_byte(group, tag);
            while m != 0 {
                let idx = self.wrap(pos + (m.trailing_zeros() as usize) / 8);
                debug_assert!(is_full(self.ctrl[idx]));
                // SAFETY: `wrap` keeps `idx` inside the slot array, and
                // `match_byte` only flags FULL bytes (its false
                // positives are other 7-bit tags — see its docs), so
                // the slot's key is initialized.
                if unsafe { self.slots.get_unchecked(idx).key.assume_init_ref() } == key {
                    return Probe::Found(idx);
                }
                m &= m - 1;
            }
            if insert.is_none() {
                let free = match_empty_or_deleted(group);
                if free != 0 {
                    insert = Some(self.wrap(pos + (free.trailing_zeros() as usize) / 8));
                }
            }
            if match_empty(group) != 0 {
                return Probe::Vacant(insert.expect("an EMPTY byte is also EMPTY-or-DELETED"));
            }
            pos = self.wrap(pos + GROUP);
        }
    }

    /// First EMPTY or DELETED slot along `hash`'s probe sequence —
    /// the insert position when the key is known absent.
    fn find_free_slot(&self, hash: u64) -> usize {
        let mut pos = self.home(hash);
        loop {
            let free = match_empty_or_deleted(self.group(pos));
            if free != 0 {
                return self.wrap(pos + (free.trailing_zeros() as usize) / 8);
            }
            pos = self.wrap(pos + GROUP);
        }
    }

    /// Fills `candidate` (the probe's first-free slot) with a fresh
    /// entry, reusing a tombstone when possible and rehashing in place
    /// when taking a new EMPTY slot would breach the load bound. The
    /// entry is returned detached; the caller links it.
    fn insert_at(
        &mut self,
        candidate: usize,
        hash: u64,
        key: K,
        tally: u32,
        tier: Tier,
        dirty: bool,
    ) -> u32 {
        let idx = if self.ctrl[candidate] == DELETED {
            self.tombstones -= 1;
            candidate
        } else if self.len() + self.tombstones + 1 > self.max_load() {
            self.rehash_in_place();
            self.find_free_slot(hash)
        } else {
            candidate
        };
        debug_assert!(!is_full(self.ctrl[idx]));
        let slot = &mut self.slots[idx];
        slot.key.write(key);
        slot.tally = tally;
        slot.meta = NO_PAYLOAD;
        slot.set_tier(tier);
        slot.set_dirty(dirty);
        slot.prev = NIL;
        slot.next = NIL;
        self.set_ctrl(idx, h2(hash));
        idx as u32
    }

    /// Clears slot `idx`'s control byte after its entry was unlinked
    /// and its key dropped/moved out. The slot becomes a tombstone only
    /// when some 8-byte probe window covering it is otherwise fully
    /// non-EMPTY (a probe could have walked past it); otherwise every
    /// walk that saw this slot also saw an EMPTY in the same window, so
    /// it can revert straight to EMPTY.
    fn erase(&mut self, idx: usize) {
        let before = (idx + self.buckets - GROUP) % self.buckets;
        let empty_before = match_empty(self.group(before));
        let empty_after = match_empty(self.group(idx));
        let run_before = (empty_before.leading_zeros() / 8) as usize;
        let run_after = (empty_after.trailing_zeros() / 8) as usize;
        if run_before + run_after >= GROUP {
            self.tombstones += 1;
            self.set_ctrl(idx, DELETED);
        } else {
            self.set_ctrl(idx, EMPTY);
        }
    }

    /// Points `idx`'s list neighbours (or its list's head/tail) back at
    /// it — the link fix-up after a slot relocation.
    fn fix_links(&mut self, idx: usize) {
        let me = idx as u32;
        let (prev, next, tier) = {
            let s = &self.slots[idx];
            (s.prev, s.next, s.tier())
        };
        if prev == NIL {
            match tier {
                Tier::T1 => self.t1.head = me,
                Tier::T2 => self.t2.head = me,
            }
        } else {
            self.slots[prev as usize].next = me;
        }
        if next == NIL {
            match tier {
                Tier::T1 => self.t1.tail = me,
                Tier::T2 => self.t2.tail = me,
            }
        } else {
            self.slots[next as usize].prev = me;
        }
    }

    /// Swaps two occupied slots and repairs all recency links touching
    /// them (including the case where the two entries were adjacent and
    /// pointed at each other).
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        let (a32, b32) = (a as u32, b as u32);
        let remap = |x: u32| {
            if x == a32 {
                b32
            } else if x == b32 {
                a32
            } else {
                x
            }
        };
        for i in [a, b] {
            let s = &mut self.slots[i];
            s.prev = remap(s.prev);
            s.next = remap(s.next);
        }
        self.fix_links(a);
        self.fix_links(b);
    }

    /// Whether `a` and `b` fall into the same probe window of `hash`'s
    /// walk (windows are GROUP-sized, offset by the home bucket).
    fn same_window(&self, hash: u64, a: usize, b: usize) -> bool {
        let home = self.home(hash);
        let da = (a + self.buckets - home) % self.buckets;
        let db = (b + self.buckets - home) % self.buckets;
        da / GROUP == db / GROUP
    }

    /// Rebuilds the control bytes without allocating (hot paths stay
    /// allocation-free even across rehashes): tombstones revert to
    /// EMPTY, every live entry is marked displaced, then each displaced
    /// entry either stays (its first-free slot is in its own probe
    /// window), moves into an EMPTY slot, or swaps with another
    /// displaced entry — repairing recency links on every move.
    fn rehash_in_place(&mut self) {
        for i in 0..self.buckets {
            self.ctrl[i] = if is_full(self.ctrl[i]) {
                DELETED
            } else {
                EMPTY
            };
        }
        self.sync_mirror();
        self.tombstones = 0;
        for i in 0..self.buckets {
            while self.ctrl[i] == DELETED {
                let hash = {
                    // SAFETY: DELETED during rehash marks a displaced
                    // live entry (real tombstones were cleared above).
                    let key = unsafe { self.slots[i].key.assume_init_ref() };
                    self.hasher.hash_one(key)
                };
                let target = self.find_free_slot(hash);
                if self.same_window(hash, i, target) {
                    // Already reachable: every slot before its window
                    // is FULL, and probes scan whole windows.
                    self.set_ctrl(i, h2(hash));
                } else if self.ctrl[target] == EMPTY {
                    self.set_ctrl(target, h2(hash));
                    self.set_ctrl(i, EMPTY);
                    self.slots.swap(i, target);
                    self.fix_links(target);
                } else {
                    // `target` holds another displaced entry: place
                    // this one there and keep resolving the displaced
                    // one, now parked at `i`.
                    self.set_ctrl(target, h2(hash));
                    self.swap_slots(i, target);
                }
            }
        }
    }

    fn sync_mirror(&mut self) {
        let (main, mirror) = self.ctrl.split_at_mut(self.buckets);
        mirror.copy_from_slice(&main[..GROUP]);
    }

    /// Records one sighting of `key`, applying the full hit/miss,
    /// promotion, demotion and eviction policy. Returns what happened,
    /// including any entry evicted to make room.
    ///
    /// Exactly one hash and one probe walk per call on both the hit and
    /// the miss path; the probe tracks the insert position as it goes,
    /// so a miss never re-walks.
    pub fn record(&mut self, key: K) -> Record<K> {
        self.record_filtered(key, || true)
            .expect("unconditional admission cannot reject")
    }

    /// Like [`record`](TwoTierTable::record), but consults `admit`
    /// before creating an entry: the closure runs only on the miss
    /// path (the key is absent), and a `false` return leaves the table
    /// untouched — counted in [`TableStats::rejections`] — and yields
    /// `None`.
    ///
    /// This is the pre-admission entry of the doorkeeper-filtered
    /// analyzer (DESIGN.md §14): `admit` bumps the frequency sketch
    /// and reports whether the estimate crossed the admission
    /// threshold, so one-shot tail keys never consume a table slot.
    /// The hit path is bit-identical to `record` — present keys never
    /// pay for admission — and both paths still perform a single hash
    /// and probe walk.
    pub fn record_filtered(&mut self, key: K, admit: impl FnOnce() -> bool) -> Option<Record<K>> {
        self.apply(key, admit).map(Applied::into_record)
    }

    /// [`record_filtered`](Self::record_filtered) reporting what an
    /// owner of payloads needs: the recorded key's slot and the
    /// evicted entry's payload. A fresh entry's payload is
    /// [`NO_PAYLOAD`]; a hit keeps the entry's payload.
    pub(crate) fn apply(&mut self, key: K, admit: impl FnOnce() -> bool) -> Option<Applied<K>> {
        let hash = self.hasher.hash_one(&key);
        match self.probe(&key, hash) {
            Probe::Found(found) => {
                let idx = found as u32;
                self.stats.hits += 1;
                let slot = &mut self.slots[found];
                slot.tally = slot.tally.saturating_add(1);
                slot.set_dirty(true);
                let tally = slot.tally;
                let tier = slot.tier();
                if tier == Tier::T1 && tally >= self.promote_threshold {
                    // Promote to T2's MRU end.
                    Self::unlink(&mut self.slots, &mut self.t1, idx);
                    self.slots[found].set_tier(Tier::T2);
                    Self::push_front(&mut self.slots, &mut self.t2, idx);
                    self.stats.promotions += 1;
                    let evicted = self.rebalance_after_promotion();
                    Some(Applied {
                        hit: true,
                        tier: Tier::T2,
                        tally,
                        slot: idx,
                        evicted,
                    })
                } else {
                    // Refresh recency within the current tier.
                    let list = match tier {
                        Tier::T1 => &mut self.t1,
                        Tier::T2 => &mut self.t2,
                    };
                    Self::unlink(&mut self.slots, list, idx);
                    Self::push_front(&mut self.slots, list, idx);
                    Some(Applied {
                        hit: true,
                        tier,
                        tally,
                        slot: idx,
                        evicted: None,
                    })
                }
            }
            Probe::Vacant(candidate) => {
                if !admit() {
                    self.stats.rejections += 1;
                    return None;
                }
                self.stats.misses += 1;
                let idx = self.insert_at(candidate, hash, key, 1, Tier::T1, true);
                Self::push_front(&mut self.slots, &mut self.t1, idx);
                // Inserting first, then trimming, is equivalent to the
                // evict-then-insert order: the fresh entry sits at the MRU
                // end and is never the trimmed tail.
                let evicted = if self.t1.len > self.t1_capacity {
                    self.evict_t1_lru()
                } else {
                    None
                };
                Some(Applied {
                    hit: false,
                    tier: Tier::T1,
                    tally: 1,
                    slot: idx,
                    evicted,
                })
            }
        }
    }

    /// Inserts `key` with a pre-computed `tally` and `tier` at the LRU
    /// end of the target list, bypassing the hit/miss policy. The
    /// re-seeding path of the elastic pipeline replays a drained
    /// snapshot MRU-first, so successive `seed` calls rebuild each
    /// tier's recency order exactly (each entry lands behind the
    /// previous one).
    ///
    /// If the requested tier is full the entry falls back the same
    /// direction the live policy moves entries: a full T2 overflows
    /// into T1 (like a demotion), and a full T1 drops the entry
    /// (counted as an eviction — only the least-recent seeds are ever
    /// dropped). Returns the tier the entry landed in, or `None` if it
    /// was dropped. Seeding never overwrites a live entry: re-seeding
    /// an existing key returns `None` without touching it.
    pub fn seed(&mut self, key: K, tally: u32, tier: Tier) -> Option<Tier> {
        self.seed_slot(key, tally, tier)
            .map(|slot| self.slots[slot as usize].tier())
    }

    /// [`seed`](Self::seed) returning the slot the entry landed in.
    pub(crate) fn seed_slot(&mut self, key: K, tally: u32, tier: Tier) -> Option<u32> {
        // Seeding rebuilds arbitrary order outside the record policy;
        // the incremental log cannot express it, so the next extracted
        // delta must carry a full dump.
        if let Some(log) = self.delta.as_deref_mut() {
            log.ops.clear();
            log.pending_rebase = true;
        }
        let hash = self.hasher.hash_one(&key);
        let candidate = match self.probe(&key, hash) {
            Probe::Found(_) => return None,
            Probe::Vacant(candidate) => candidate,
        };
        let target = match tier {
            Tier::T2 if self.t2.len < self.t2_capacity => Tier::T2,
            _ if self.t1.len < self.t1_capacity => Tier::T1,
            _ => {
                self.stats.evictions += 1;
                return None;
            }
        };
        let idx = self.insert_at(candidate, hash, key, tally.max(1), target, false);
        let list = match target {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::push_back(&mut self.slots, list, idx);
        Some(idx)
    }

    /// After a promotion, T2 may exceed capacity; demote its LRU entry to
    /// T1's LRU end. If T1 is in turn full, evict T1's LRU first.
    fn rebalance_after_promotion(&mut self) -> Option<Evicted<K>> {
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
        Self::unlink(&mut self.slots, &mut self.t2, victim);
        self.slots[victim as usize].set_tier(Tier::T1);
        Self::push_back(&mut self.slots, &mut self.t1, victim);
        self.stats.demotions += 1;
        if self.delta.is_some() {
            let (key, tally) = {
                let s = &self.slots[victim as usize];
                // SAFETY: the victim was linked in T2, hence FULL.
                (unsafe { s.key.assume_init_ref() }.clone(), s.tally)
            };
            self.log_op(DeltaOp::DemoteBack(key, tally));
        }
        evicted
    }

    fn evict_t1_lru(&mut self) -> Option<Evicted<K>> {
        let victim = self.t1.tail;
        if victim == NIL {
            return None;
        }
        Self::unlink(&mut self.slots, &mut self.t1, victim);
        let idx = victim as usize;
        // SAFETY: the victim was linked in T1, hence FULL; `erase`
        // retires the slot right after, so the key is moved out, not
        // cloned.
        let key = unsafe { self.slots[idx].key.assume_init_read() };
        let tally = self.slots[idx].tally;
        let payload = self.slots[idx].meta & META_PAYLOAD;
        self.erase(idx);
        self.stats.evictions += 1;
        if self.delta.is_some() {
            self.log_op(DeltaOp::Evict(key.clone()));
        }
        Some(Evicted {
            key,
            tally,
            payload,
        })
    }

    /// Demotes `key` to the LRU end of T1 — "next in line for eviction" —
    /// without removing it or resetting its tally. Returns `false` if the
    /// key is not present.
    ///
    /// The online analyzer calls this on every correlation-table pair
    /// containing an extent just evicted from the item table (§III-D2).
    pub fn demote(&mut self, key: &K) -> bool {
        self.demote_entry(key) != Demotion::Absent
    }

    /// [`demote`](Self::demote) reporting whether the demotion also
    /// trimmed the entry, with its payload — one probe, where asking
    /// [`contains`](Self::contains) afterwards would cost a second.
    pub(crate) fn demote_entry(&mut self, key: &K) -> Demotion {
        let hash = self.hasher.hash_one(key);
        let Probe::Found(found) = self.probe(key, hash) else {
            return Demotion::Absent;
        };
        let idx = found as u32;
        let list = match self.slots[found].tier() {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::unlink(&mut self.slots, list, idx);
        self.slots[found].set_tier(Tier::T1);
        Self::push_back(&mut self.slots, &mut self.t1, idx);
        self.stats.demotions += 1;
        if self.delta.is_some() {
            let tally = self.slots[found].tally;
            self.log_op(DeltaOp::DemoteBack(key.clone(), tally));
        }
        // Demotion may push T1 over capacity when the entry came from T2;
        // evict the *new* LRU (which is this entry) is pointless, so we
        // instead allow T1 to transiently hold capacity+1 and trim the
        // entry least recently used. Since the demoted entry was pushed to
        // the back, trimming evicts it — exactly "next in line".
        if self.t1.len > self.t1_capacity {
            let trimmed = self.evict_t1_lru().expect("T1 over capacity is non-empty");
            debug_assert!(trimmed.key == *key, "the trim takes the demoted entry");
            return Demotion::Trimmed(trimmed.payload);
        }
        Demotion::Kept
    }

    /// Removes `key` from the table, returning its tally.
    pub fn remove(&mut self, key: &K) -> Option<u32> {
        let hash = self.hasher.hash_one(key);
        let Probe::Found(found) = self.probe(key, hash) else {
            return None;
        };
        let list = match self.slots[found].tier() {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::unlink(&mut self.slots, list, found as u32);
        let tally = self.slots[found].tally;
        // SAFETY: the entry was linked, hence FULL; `erase` retires the
        // slot right after the key is dropped.
        unsafe { self.slots[found].key.assume_init_drop() };
        self.erase(found);
        if self.delta.is_some() {
            self.log_op(DeltaOp::Evict(key.clone()));
        }
        Some(tally)
    }

    /// Current tally of `key`, if present.
    pub fn tally(&self, key: &K) -> Option<u32> {
        match self.probe(key, self.hasher.hash_one(key)) {
            Probe::Found(idx) => Some(self.slots[idx].tally),
            Probe::Vacant(_) => None,
        }
    }

    /// Tier `key` currently resides in, if present.
    pub fn tier(&self, key: &K) -> Option<Tier> {
        match self.probe(key, self.hasher.hash_one(key)) {
            Probe::Found(idx) => Some(self.slots[idx].tier()),
            Probe::Vacant(_) => None,
        }
    }

    /// Whether `key` is present in either tier.
    pub fn contains(&self, key: &K) -> bool {
        matches!(self.probe(key, self.hasher.hash_one(key)), Probe::Found(_))
    }

    /// Slot holding `key`, if present.
    pub(crate) fn find(&self, key: &K) -> Option<u32> {
        match self.probe(key, self.hasher.hash_one(key)) {
            Probe::Found(idx) => Some(idx as u32),
            Probe::Vacant(_) => None,
        }
    }

    /// Whether `slot` currently holds `key` — a hint check that costs
    /// one key comparison instead of a probe walk. Any `u32` is
    /// accepted; out-of-range slots hold nothing.
    #[inline]
    pub(crate) fn slot_holds(&self, slot: u32, key: &K) -> bool {
        let idx = slot as usize;
        // SAFETY: `&&` reads the key only after `idx` was checked to be
        // a slot index whose control byte is FULL, hence initialized.
        idx < self.buckets
            && is_full(self.ctrl[idx])
            && unsafe { self.slots[idx].key.assume_init_ref() } == key
    }

    /// The payload attached to the entry in `slot` ([`NO_PAYLOAD`]
    /// until its owner sets one).
    #[inline]
    pub(crate) fn payload(&self, slot: u32) -> u32 {
        debug_assert!(
            is_full(self.ctrl[slot as usize]),
            "payload of a vacant slot"
        );
        self.slots[slot as usize].meta & META_PAYLOAD
    }

    /// Attaches `payload` (at most [`NO_PAYLOAD`]) to the entry in
    /// `slot`. The payload travels with the entry through rehashes and
    /// is handed back when the policy evicts or trims it.
    #[inline]
    pub(crate) fn set_payload(&mut self, slot: u32, payload: u32) {
        debug_assert!(payload <= NO_PAYLOAD, "payload wider than 30 bits");
        debug_assert!(
            is_full(self.ctrl[slot as usize]),
            "payload of a vacant slot"
        );
        let meta = &mut self.slots[slot as usize].meta;
        *meta = (*meta & !META_PAYLOAD) | payload;
    }

    /// `(slot, key, payload)` of every entry whose payload is set (for
    /// structural checks).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn payloads(&self) -> impl Iterator<Item = (u32, &K, u32)> + '_ {
        (0..self.buckets).filter_map(move |idx| {
            if !is_full(self.ctrl[idx]) {
                return None;
            }
            let slot = &self.slots[idx];
            let payload = slot.meta & META_PAYLOAD;
            // SAFETY: the FULL control byte checked above ⇒ initialized key.
            (payload != NO_PAYLOAD)
                .then(|| (idx as u32, unsafe { slot.key.assume_init_ref() }, payload))
        })
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

    /// Exact bytes of the table's owned allocations: the control-byte
    /// array (buckets + mirror) plus the inline slot array, plus the
    /// delta op log's plateau when tracking is enabled. Unlike the old
    /// map-index estimate this *is* the allocation — the figure the
    /// fig15/admission equal-memory budgets divide by.
    pub fn memory_bytes(&self) -> usize {
        let log = self
            .delta
            .as_ref()
            .map_or(0, |d| d.ops.capacity() * std::mem::size_of::<DeltaOp<K>>());
        self.ctrl.len() + self.slots.len() * std::mem::size_of::<Slot<K>>() + log
    }

    /// Lifetime behaviour counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Iterator over `(key, tally, tier)` for every entry, T2 first, each
    /// tier in MRU→LRU order.
    pub fn iter(&self) -> Iter<'_, K, S> {
        Iter {
            table: self,
            tier: Tier::T2,
            cursor: self.t2.head,
        }
    }

    /// All entries with tally at least `min_tally`, in the canonical
    /// query order: descending tally, ties by ascending key. This is
    /// the "frequent correlations" query the optimization modules
    /// consume; allocating wrapper around
    /// [`entries_with_min_tally_into`](Self::entries_with_min_tally_into).
    pub fn entries_with_min_tally(&self, min_tally: u32) -> Vec<(K, u32)>
    where
        K: Ord,
    {
        let mut out = Vec::new();
        self.entries_with_min_tally_into(min_tally, &mut out);
        out
    }

    /// Collects all entries with tally at least `min_tally` into `out`
    /// (cleared first), sorted by descending tally then ascending key.
    /// With a warm `out` the query path does not allocate once the
    /// buffer reaches its plateau.
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
        if std::mem::needs_drop::<K>() {
            for i in 0..self.buckets {
                if is_full(self.ctrl[i]) {
                    // SAFETY: FULL control byte ⇒ initialized key; the
                    // fill below retires every slot.
                    unsafe { self.slots[i].key.assume_init_drop() };
                }
            }
        }
        self.ctrl.fill(EMPTY);
        self.tombstones = 0;
        self.t1 = List::new();
        self.t2 = List::new();
        if let Some(log) = self.delta.as_deref_mut() {
            log.ops.clear();
            log.pending_rebase = true;
        }
    }

    /// Turns on delta tracking (DESIGN.md §15): from now on every
    /// MRU-end movement marks its entry dirty and evictions /
    /// back-of-T1 demotions are logged, so
    /// [`extract_delta`](Self::extract_delta) can advance a mirror from
    /// one extraction point to the next bit-exactly. If the table
    /// already holds entries (e.g. it was just re-seeded after a
    /// resize) the first extracted delta is a full-dump rebase.
    /// Idempotent.
    pub fn enable_delta_tracking(&mut self) {
        if self.delta.is_some() {
            return;
        }
        // The log is preallocated to its overflow bound: it circulates
        // (by swap) with the publish buffers, and any vector below the
        // bound in that rotation could grow on the hot path.
        let limit = self.op_limit();
        self.delta = Some(Box::new(DeltaLog {
            ops: Vec::with_capacity(limit),
            pending_rebase: !self.is_empty(),
        }));
    }

    /// Reserves `out`'s buffers to this table's hard delta bounds — the
    /// op-log overflow limit and the two tier capacities (a dirty
    /// prefix visits each entry at most once, so a touched list can
    /// never exceed its tier) — making extraction into `out` provably
    /// allocation-free, independent of how many epochs merged while
    /// the buffer was away.
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

    /// Beyond this many logged ops, replaying the log costs more than
    /// rebuilding the mirror outright (a rebase is at most one upsert
    /// per entry) — overflow falls back to a full-dump rebase, which
    /// also bounds the log's preallocated memory plateau.
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

    /// Drains everything that happened since the previous extraction
    /// into `out` (clearing it first) and starts a new epoch. With
    /// tracking disabled this only clears `out`.
    ///
    /// Entries moved to an MRU end this epoch form each tier's
    /// contiguous head run (untouched entries never move, and the only
    /// non-front movements — evictions and back-of-T1 demotions — are
    /// in the op log), so one dirty-prefix walk per tier captures
    /// every front-mover in exact recency order, clearing each bit as
    /// it goes. Steady-state calls allocate only while the reused
    /// buffers are still growing toward their plateau.
    pub fn extract_delta(&mut self, out: &mut TableDelta<K>) {
        out.clear();
        let Some(log) = self.delta.as_deref_mut() else {
            return;
        };
        if log.pending_rebase {
            log.pending_rebase = false;
            out.rebase = true;
            // A rebase replaces the mirror wholesale, so it also
            // retires any dirty bits left behind the prefix (e.g. on
            // demoted entries) — the next epoch starts clean.
            let mut cursor = self.t2.head;
            while cursor != NIL {
                let s = &mut self.slots[cursor as usize];
                s.set_dirty(false);
                // SAFETY: linked entries are FULL.
                out.touched_t2
                    .push((unsafe { s.key.assume_init_ref() }.clone(), s.tally));
                cursor = s.next;
            }
            let mut cursor = self.t1.head;
            while cursor != NIL {
                let s = &mut self.slots[cursor as usize];
                s.set_dirty(false);
                // SAFETY: linked entries are FULL.
                out.touched_t1
                    .push((unsafe { s.key.assume_init_ref() }.clone(), s.tally));
                cursor = s.next;
            }
            return;
        }
        std::mem::swap(&mut log.ops, &mut out.ops);
        let mut cursor = self.t2.head;
        while cursor != NIL {
            let s = &mut self.slots[cursor as usize];
            if !s.dirty() {
                break;
            }
            s.set_dirty(false);
            // SAFETY: linked entries are FULL.
            out.touched_t2
                .push((unsafe { s.key.assume_init_ref() }.clone(), s.tally));
            cursor = s.next;
        }
        let mut cursor = self.t1.head;
        while cursor != NIL {
            let s = &mut self.slots[cursor as usize];
            if !s.dirty() {
                break;
            }
            s.set_dirty(false);
            // SAFETY: linked entries are FULL.
            out.touched_t1
                .push((unsafe { s.key.assume_init_ref() }.clone(), s.tally));
            cursor = s.next;
        }
    }

    /// Detaches `key`'s entry from its list, or inserts a fresh
    /// detached entry for it — the shared front half of the mirror-side
    /// apply primitives below.
    fn apply_detach_or_alloc(&mut self, key: &K) -> u32 {
        let hash = self.hasher.hash_one(key);
        match self.probe(key, hash) {
            Probe::Found(found) => {
                let list = match self.slots[found].tier() {
                    Tier::T1 => &mut self.t1,
                    Tier::T2 => &mut self.t2,
                };
                Self::unlink(&mut self.slots, list, found as u32);
                found as u32
            }
            Probe::Vacant(candidate) => {
                self.insert_at(candidate, hash, key.clone(), 0, Tier::T1, false)
            }
        }
    }

    /// Mirror-side upsert at `tier`'s MRU end with an authoritative
    /// tally, bypassing the hit/miss policy, stats and delta logging.
    /// Replaying a delta's touched prefix LRU-first through this call
    /// reproduces the prefix order exactly ([`LiveView`](crate::LiveView)).
    pub(crate) fn apply_upsert_front(&mut self, key: &K, tally: u32, tier: Tier) {
        let idx = self.apply_detach_or_alloc(key);
        self.slots[idx as usize].tally = tally;
        self.slots[idx as usize].set_tier(tier);
        let list = match tier {
            Tier::T1 => &mut self.t1,
            Tier::T2 => &mut self.t2,
        };
        Self::push_front(&mut self.slots, list, idx);
    }

    /// Mirror-side upsert at T1's LRU end — replays a
    /// [`DeltaOp::DemoteBack`].
    pub(crate) fn apply_upsert_back_t1(&mut self, key: &K, tally: u32) {
        let idx = self.apply_detach_or_alloc(key);
        self.slots[idx as usize].tally = tally;
        self.slots[idx as usize].set_tier(Tier::T1);
        Self::push_back(&mut self.slots, &mut self.t1, idx);
    }

    /// Mirror-side removal — replays a [`DeltaOp::Evict`]. Absent keys
    /// are a no-op (the entry may have been created and evicted within
    /// one epoch).
    pub(crate) fn apply_remove(&mut self, key: &K) {
        let hash = self.hasher.hash_one(key);
        if let Probe::Found(found) = self.probe(key, hash) {
            let list = match self.slots[found].tier() {
                Tier::T1 => &mut self.t1,
                Tier::T2 => &mut self.t2,
            };
            Self::unlink(&mut self.slots, list, found as u32);
            // SAFETY: the entry was linked, hence FULL; `erase` retires
            // the slot right after the key is dropped.
            unsafe { self.slots[found].key.assume_init_drop() };
            self.erase(found);
        }
    }

    /// Unlinks `idx` from `list` (which must be the list owning the
    /// entry). Free functions over disjoint field borrows keep these
    /// primitives callable while other table state is borrowed.
    ///
    /// These three run on every `record`; the link fields they chase
    /// are list invariants (NIL or a valid slot index, checked by
    /// `check_invariants` in debug builds), so the release build skips
    /// the per-access bounds tests.
    #[inline]
    fn unlink(slots: &mut [Slot<K>], list: &mut List, idx: u32) {
        debug_assert!((idx as usize) < slots.len());
        // SAFETY: `idx` and the entry's prev/next links are valid slot
        // indices by the list invariant.
        unsafe {
            let s = slots.get_unchecked(idx as usize);
            let (prev, next) = (s.prev, s.next);
            if prev != NIL {
                slots.get_unchecked_mut(prev as usize).next = next;
            }
            if next != NIL {
                slots.get_unchecked_mut(next as usize).prev = prev;
            }
            if list.head == idx {
                list.head = next;
            }
            if list.tail == idx {
                list.tail = prev;
            }
            list.len -= 1;
            let s = slots.get_unchecked_mut(idx as usize);
            s.prev = NIL;
            s.next = NIL;
        }
    }

    #[inline]
    fn push_front(slots: &mut [Slot<K>], list: &mut List, idx: u32) {
        debug_assert!((idx as usize) < slots.len());
        // SAFETY: `idx` is a valid slot index and `list.head` is NIL
        // or a valid slot index by the list invariant.
        unsafe {
            let head = list.head;
            let s = slots.get_unchecked_mut(idx as usize);
            s.prev = NIL;
            s.next = head;
            if head != NIL {
                slots.get_unchecked_mut(head as usize).prev = idx;
            }
            list.head = idx;
            if list.tail == NIL {
                list.tail = idx;
            }
            list.len += 1;
        }
    }

    #[inline]
    fn push_back(slots: &mut [Slot<K>], list: &mut List, idx: u32) {
        debug_assert!((idx as usize) < slots.len());
        // SAFETY: `idx` is a valid slot index and `list.tail` is NIL
        // or a valid slot index by the list invariant.
        unsafe {
            let tail = list.tail;
            let s = slots.get_unchecked_mut(idx as usize);
            s.next = NIL;
            s.prev = tail;
            if tail != NIL {
                slots.get_unchecked_mut(tail as usize).next = idx;
            }
            list.tail = idx;
            if list.head == NIL {
                list.head = idx;
            }
            list.len += 1;
        }
    }

    /// Full structural self-check: recency lists ↔ control bytes ↔
    /// occupancy, tombstone accounting, mirror-byte consistency, and
    /// probe reachability of every linked key. Debug builds only (the
    /// release twin is a no-op) — tests call it after every mutation
    /// batch.
    #[cfg(debug_assertions)]
    pub fn check_invariants(&self) {
        assert!(self.t1.len <= self.t1_capacity, "T1 over capacity");
        assert!(self.t2.len <= self.t2_capacity, "T2 over capacity");
        let full = (0..self.buckets).filter(|&i| is_full(self.ctrl[i])).count();
        let deleted = (0..self.buckets)
            .filter(|&i| self.ctrl[i] == DELETED)
            .count();
        assert_eq!(full, self.len(), "FULL control bytes vs list occupancy");
        assert_eq!(deleted, self.tombstones, "tombstone count drift");
        assert!(full + deleted <= self.max_load(), "load bound breached");
        for g in 0..GROUP {
            assert_eq!(self.ctrl[self.buckets + g], self.ctrl[g], "mirror bytes");
        }
        for (tier, list) in [(Tier::T1, self.t1), (Tier::T2, self.t2)] {
            let mut count = 0;
            let mut cursor = list.head;
            let mut prev = NIL;
            while cursor != NIL {
                let idx = cursor as usize;
                assert!(is_full(self.ctrl[idx]), "linked slot is not FULL");
                let slot = &self.slots[idx];
                assert_eq!(slot.tier(), tier);
                assert_eq!(slot.prev, prev);
                // SAFETY: just asserted FULL.
                let key = unsafe { slot.key.assume_init_ref() };
                let hash = self.hasher.hash_one(key);
                assert_eq!(self.ctrl[idx], h2(hash), "control byte is not the h2 tag");
                match self.probe(key, hash) {
                    Probe::Found(found) => assert_eq!(found, idx, "probe found a different slot"),
                    Probe::Vacant(_) => panic!("linked key unreachable by probe"),
                }
                prev = cursor;
                cursor = slot.next;
                count += 1;
                assert!(count <= list.len, "list cycle detected");
            }
            assert_eq!(count, list.len);
            assert_eq!(list.tail, prev);
        }
    }

    /// Structural self-check — compiled to nothing without debug
    /// assertions.
    #[cfg(not(debug_assertions))]
    #[inline]
    pub fn check_invariants(&self) {}
}

impl<K, S> Drop for TwoTierTable<K, S> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<K>() {
            return;
        }
        for i in 0..self.buckets {
            if is_full(self.ctrl[i]) {
                // SAFETY: FULL control byte ⇒ initialized key, dropped
                // exactly once here.
                unsafe { self.slots[i].key.assume_init_drop() };
            }
        }
    }
}

impl<K: Clone, S: Clone> Clone for TwoTierTable<K, S> {
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| Slot {
                key: if is_full(self.ctrl[i]) {
                    // SAFETY: FULL control byte ⇒ initialized key.
                    MaybeUninit::new(unsafe { s.key.assume_init_ref() }.clone())
                } else {
                    MaybeUninit::uninit()
                },
                tally: s.tally,
                prev: s.prev,
                next: s.next,
                meta: s.meta,
            })
            .collect();
        TwoTierTable {
            ctrl: self.ctrl.clone(),
            slots,
            buckets: self.buckets,
            tombstones: self.tombstones,
            hasher: self.hasher.clone(),
            t1: self.t1,
            t2: self.t2,
            t1_capacity: self.t1_capacity,
            t2_capacity: self.t2_capacity,
            promote_threshold: self.promote_threshold,
            stats: self.stats,
            delta: self.delta.clone(),
        }
    }
}

// Structural summary only: slot keys are conditionally initialized, so
// a derived impl (which would also demand `K: Debug`) is not usable.
impl<K, S> fmt::Debug for TwoTierTable<K, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoTierTable")
            .field("t1_len", &self.t1.len)
            .field("t1_capacity", &self.t1_capacity)
            .field("t2_len", &self.t2.len)
            .field("t2_capacity", &self.t2_capacity)
            .field("buckets", &self.buckets)
            .field("tombstones", &self.tombstones)
            .field("promote_threshold", &self.promote_threshold)
            .field("stats", &self.stats)
            .field("delta_tracking", &self.delta.is_some())
            .finish()
    }
}

/// Iterator over the entries of a [`TwoTierTable`], created by
/// [`TwoTierTable::iter`].
pub struct Iter<'a, K, S = FxBuildHasher> {
    table: &'a TwoTierTable<K, S>,
    tier: Tier,
    cursor: u32,
}

impl<'a, K, S> Iterator for Iter<'a, K, S> {
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
            let slot = &self.table.slots[self.cursor as usize];
            self.cursor = slot.next;
            // SAFETY: linked entries are FULL, hence initialized.
            return Some((
                unsafe { slot.key.assume_init_ref() },
                slot.tally,
                slot.tier(),
            ));
        }
    }
}

impl<'a, K: Eq + Hash + Clone, S: BuildHasher + Default> IntoIterator for &'a TwoTierTable<K, S> {
    type Item = (&'a K, u32, Tier);
    type IntoIter = Iter<'a, K, S>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: Eq + Hash + Clone + fmt::Display, S: BuildHasher + Default> fmt::Display
    for TwoTierTable<K, S>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TwoTierTable(T1 {}/{}, T2 {}/{})",
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

    fn keys_in_order(t: &TwoTierTable<u32>, tier: Tier) -> Vec<u32> {
        t.iter()
            .filter(|(_, _, ti)| *ti == tier)
            .map(|(k, _, _)| *k)
            .collect()
    }

    #[test]
    fn slots_stay_32_bytes_for_items_and_48_for_pairs() {
        use rtdac_types::{Extent, ExtentPair};
        // The payload word shares its top bits with tier and dirty, so
        // the analyzer's budget buys the same capacities it did before
        // slots carried a payload.
        assert_eq!(std::mem::size_of::<Slot<Extent>>(), 32);
        assert_eq!(std::mem::size_of::<Slot<ExtentPair>>(), 48);
    }

    #[test]
    fn payloads_survive_hits_and_rehashes_and_come_back_on_eviction() {
        let mut t = TwoTierTable::<u32>::new(64, 64, 2);
        let tag = |t: &mut TwoTierTable<u32>, k: u32| {
            let slot = t.find(&k).unwrap();
            assert_eq!(t.payload(slot), NO_PAYLOAD);
            t.set_payload(slot, k + 100);
        };
        for k in 0..4 {
            t.record(k);
            tag(&mut t, k);
        }
        // A hit promotes without touching the payload or the tier bits.
        let applied = t.apply(2, || true).unwrap();
        assert_eq!(t.payload(applied.slot), 102);
        assert_eq!(t.tier(&2), Some(Tier::T2));
        // Churn through enough fresh keys to force in-place rehashes;
        // every evicted payload is the one its key was tagged with, and
        // entries a rehash moved keep theirs.
        let mut slots = std::collections::HashMap::new();
        let mut moves = 0;
        let mut x = 7u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 40) as u32 + 1_000;
            let applied = t.apply(k, || true).unwrap();
            t.set_payload(applied.slot, k + 100);
            if let Some(e) = applied.evicted {
                assert_eq!(e.payload, e.key + 100);
                slots.remove(&e.key);
            }
            for (slot, key, payload) in t.payloads() {
                assert!(t.slot_holds(slot, key));
                assert_eq!(payload, key + 100);
                moves += usize::from(slots.insert(*key, slot).is_some_and(|was| was != slot));
            }
        }
        assert!(moves > 0, "churn never moved an entry");
        assert!(!t.slot_holds(u32::MAX, &2));
        // A trimmed demotion hands the payload back.
        t.record(500);
        t.record(500); // promoted, leaving a hole in T1...
        t.record(501); // ...which a fresh key fills
        let slot = t.find(&500).unwrap();
        t.set_payload(slot, 7);
        assert_eq!(t.demote_entry(&500), Demotion::Trimmed(7));
        assert_eq!(t.demote_entry(&500), Demotion::Absent);
        t.check_invariants();
    }

    #[test]
    fn swar_match_byte_finds_all_occurrences() {
        // Bytes: [0x21, EMPTY, 0x21, DELETED, 0x00, 0x7f, 0x21, EMPTY]
        let group = u64::from_le_bytes([0x21, EMPTY, 0x21, DELETED, 0x00, 0x7f, 0x21, EMPTY]);
        let m = match_byte(group, 0x21);
        let hits: Vec<usize> = (0..8).filter(|i| m & (0x80 << (i * 8)) != 0).collect();
        assert_eq!(hits, vec![0, 2, 6]);
        assert_eq!(match_byte(group, 0x33), 0);
    }

    #[test]
    fn swar_false_positives_never_flag_empty_or_deleted() {
        // A true match followed by tag^0x01 can false-positive (borrow
        // propagation) — allowed, it is another FULL byte. EMPTY and
        // DELETED must never be flagged for any 7-bit tag.
        for tag in 0..=0x7fu8 {
            let adjacent = tag ^ 0x01;
            let group =
                u64::from_le_bytes([tag, adjacent, EMPTY, DELETED, tag, EMPTY, DELETED, adjacent]);
            let m = match_byte(group, tag);
            for i in [2usize, 3, 5, 6] {
                assert_eq!(m & (0x80 << (i * 8)), 0, "tag {tag:#x} flagged byte {i}");
            }
            // The true matches are always present.
            assert_ne!(m & 0x80, 0);
            assert_ne!(m & (0x80 << 32), 0);
        }
    }

    #[test]
    fn swar_empty_and_deleted_masks() {
        let group = u64::from_le_bytes([0x00, EMPTY, DELETED, 0x7f, EMPTY, 0x01, DELETED, EMPTY]);
        let e = match_empty(group);
        let ed = match_empty_or_deleted(group);
        let flagged =
            |m: u64| -> Vec<usize> { (0..8).filter(|i| m & (0x80 << (i * 8)) != 0).collect() };
        assert_eq!(flagged(e), vec![1, 4, 7]);
        assert_eq!(flagged(ed), vec![1, 2, 4, 6, 7]);
    }

    #[test]
    fn miss_inserts_into_t1_mru() {
        let mut t = TwoTierTable::new(3, 3, 2);
        t.record(1);
        t.record(2);
        assert_eq!(keys_in_order(&t, Tier::T1), vec![2, 1]);
        t.check_invariants();
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut t = TwoTierTable::new(3, 3, 3); // high threshold: no promotion
        t.record(1);
        t.record(2);
        t.record(3);
        t.record(1); // 1 becomes MRU
        assert_eq!(keys_in_order(&t, Tier::T1), vec![1, 3, 2]);
        assert_eq!(t.tally(&1), Some(2));
        t.check_invariants();
    }

    #[test]
    fn t1_overflow_evicts_lru() {
        let mut t = TwoTierTable::new(2, 2, 2);
        t.record(1);
        t.record(2);
        let r = t.record(3);
        assert_eq!(r.evicted, Some((1, 1)));
        assert!(!t.contains(&1));
        assert_eq!(t.stats().evictions, 1);
        t.check_invariants();
    }

    #[test]
    fn second_sighting_promotes() {
        let mut t = TwoTierTable::new(2, 2, 2);
        t.record(7);
        let r = t.record(7);
        assert!(r.hit);
        assert_eq!(r.tier, Tier::T2);
        assert_eq!(t.tier(&7), Some(Tier::T2));
        assert_eq!(t.stats().promotions, 1);
        t.check_invariants();
    }

    #[test]
    fn promotion_respects_threshold() {
        let mut t = TwoTierTable::new(4, 4, 4);
        t.record(7);
        t.record(7);
        t.record(7);
        assert_eq!(t.tier(&7), Some(Tier::T1)); // tally 3 < 4
        t.record(7);
        assert_eq!(t.tier(&7), Some(Tier::T2)); // tally 4 == 4
        t.check_invariants();
    }

    #[test]
    fn t2_overflow_demotes_lru_to_t1_back() {
        let mut t = TwoTierTable::new(3, 2, 2);
        // Promote 1, 2, 3 in turn; T2 capacity is 2, so promoting 3 must
        // demote 1 (T2's LRU) to the back of T1.
        for k in [1, 2, 3] {
            t.record(k);
            t.record(k);
        }
        assert_eq!(t.tier(&1), Some(Tier::T1));
        assert_eq!(t.tier(&2), Some(Tier::T2));
        assert_eq!(t.tier(&3), Some(Tier::T2));
        // 1 sits at T1's LRU end: the very next T1 overflow evicts it.
        assert_eq!(keys_in_order(&t, Tier::T1).last(), Some(&1));
        assert_eq!(t.stats().demotions, 1);
        // Demoted entries keep their tally.
        assert_eq!(t.tally(&1), Some(2));
        t.check_invariants();
    }

    #[test]
    fn demoted_entry_is_next_for_eviction() {
        let mut t = TwoTierTable::new(2, 1, 2);
        t.record(1);
        t.record(1); // 1 in T2
        t.record(2);
        t.record(2); // 2 promoted, 1 demoted to T1 back
        t.record(3); // T1 holds [3, 1]; full
        let r = t.record(4); // overflow: evicts 1, the demoted entry
        assert_eq!(r.evicted, Some((1, 2)));
        t.check_invariants();
    }

    #[test]
    fn explicit_demote_moves_to_t1_back() {
        let mut t = TwoTierTable::new(3, 3, 2);
        t.record(1);
        t.record(1); // promoted
        t.record(2);
        assert!(t.demote(&1));
        assert_eq!(t.tier(&1), Some(Tier::T1));
        assert_eq!(keys_in_order(&t, Tier::T1).last(), Some(&1));
        assert!(!t.demote(&99));
        t.check_invariants();
    }

    #[test]
    fn demote_into_full_t1_evicts_demoted_entry() {
        let mut t = TwoTierTable::new(2, 2, 2);
        t.record(9);
        t.record(9); // 9 in T2
        t.record(1);
        t.record(2); // T1 full
        assert!(t.demote(&9));
        // T1 was full, so the demoted entry (pushed to the back) is
        // trimmed immediately — demotion into a full T1 is an eviction.
        assert!(!t.contains(&9));
        t.check_invariants();
    }

    #[test]
    fn remove_returns_tally() {
        let mut t = TwoTierTable::new(2, 2, 2);
        t.record(5);
        t.record(5);
        t.record(5);
        assert_eq!(t.remove(&5), Some(3));
        assert_eq!(t.remove(&5), None);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn slot_reuse_after_eviction() {
        // Tiny table, long churn: every record after the first evicts,
        // so tombstones accumulate and the load bound forces repeated
        // in-place rehashes — memory must stay at its construction
        // plateau and the table must stay fully consistent throughout.
        let mut t = TwoTierTable::new(1, 1, 2);
        let footprint = t.memory_bytes();
        for k in 0..1000 {
            t.record(k);
            t.check_invariants();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.memory_bytes(), footprint, "fixed-size storage grew");
        t.check_invariants();
    }

    #[test]
    fn tombstone_churn_keeps_keys_reachable() {
        // Alternating remove/insert over a stable working set drills
        // erase's EMPTY-vs-DELETED decision: every surviving key must
        // stay reachable through any tombstones left behind.
        let mut t = TwoTierTable::new(8, 8, 2);
        for k in 0..16u64 {
            t.record(k);
            t.record(k);
        }
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 24;
            if x.is_multiple_of(3) {
                t.remove(&k);
            } else {
                t.record(k);
            }
            for (key, tally, _) in t.iter().map(|(k, ta, ti)| (*k, ta, ti)).collect::<Vec<_>>() {
                assert_eq!(t.tally(&key), Some(tally), "key {key} lost");
            }
        }
        t.check_invariants();
    }

    #[test]
    fn entries_with_min_tally_sorted() {
        let mut t = TwoTierTable::new(8, 8, 2);
        for _ in 0..5 {
            t.record("a");
        }
        for _ in 0..3 {
            t.record("b");
        }
        t.record("c");
        let top = t.entries_with_min_tally(2);
        assert_eq!(top, vec![("a", 5), ("b", 3)]);
        assert_eq!(t.entries_with_min_tally(100), vec![]);
    }

    #[test]
    fn entries_with_min_tally_breaks_ties_by_key() {
        let mut t = TwoTierTable::new(8, 8, 3);
        for k in ["d", "b", "c", "a"] {
            t.record(k);
            t.record(k);
        }
        assert_eq!(
            t.entries_with_min_tally(2),
            vec![("a", 2), ("b", 2), ("c", 2), ("d", 2)]
        );
        // The reusable-buffer entry point produces the same list and
        // clears stale contents first.
        let mut out = vec![("zzz", 999)];
        t.entries_with_min_tally_into(2, &mut out);
        assert_eq!(out, vec![("a", 2), ("b", 2), ("c", 2), ("d", 2)]);
    }

    #[test]
    fn iter_yields_t2_then_t1() {
        let mut t = TwoTierTable::new(4, 4, 2);
        t.record(1);
        t.record(1); // T2
        t.record(2); // T1
        let tiers: Vec<Tier> = t.iter().map(|(_, _, tier)| tier).collect();
        assert_eq!(tiers, vec![Tier::T2, Tier::T1]);
    }

    #[test]
    fn clear_empties_table() {
        let mut t = TwoTierTable::new(4, 4, 2);
        t.record(1);
        t.record(2);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(&1));
        t.record(3);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn clone_and_drop_handle_owned_keys() {
        // String keys exercise the manual Drop/Clone over
        // conditionally-initialized slots (miri-style churn: clones,
        // clears and natural drops must each free every live key
        // exactly once).
        let mut t = TwoTierTable::new(4, 4, 2);
        for k in 0..12u32 {
            t.record(format!("key-{k}"));
        }
        let c = t.clone();
        assert_eq!(t.len(), c.len());
        for (k, tally, tier) in t.iter() {
            assert_eq!(c.tally(k), Some(tally));
            assert_eq!(c.tier(k), Some(tier));
        }
        t.clear();
        assert!(t.is_empty());
        drop(t);
        drop(c);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        TwoTierTable::<u32>::new(0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 2")]
    fn threshold_one_panics() {
        TwoTierTable::<u32>::new(1, 1, 1);
    }

    #[test]
    fn seed_rebuilds_recency_order_mru_first() {
        // Build a table organically, then rebuild it from its own
        // iteration order via seed: orders and tallies must match.
        let mut original = TwoTierTable::new(4, 4, 2);
        for k in [1u32, 1, 2, 3, 2, 4] {
            original.record(k);
        }
        let mut seeded = TwoTierTable::new(4, 4, 2);
        for (k, tally, tier) in original.iter() {
            assert_eq!(seeded.seed(*k, tally, tier), Some(tier));
        }
        for tier in [Tier::T1, Tier::T2] {
            assert_eq!(keys_in_order(&original, tier), keys_in_order(&seeded, tier));
        }
        for (k, tally, tier) in original.iter() {
            assert_eq!(seeded.tally(k), Some(tally));
            assert_eq!(seeded.tier(k), Some(tier));
        }
        seeded.check_invariants();
    }

    #[test]
    fn seed_overflow_falls_t2_to_t1_then_drops() {
        let mut t = TwoTierTable::new(1, 1, 2);
        assert_eq!(t.seed(1, 5, Tier::T2), Some(Tier::T2));
        // T2 full: falls into T1 like a demotion.
        assert_eq!(t.seed(2, 4, Tier::T2), Some(Tier::T1));
        // Both tiers full: dropped and counted as an eviction.
        assert_eq!(t.seed(3, 3, Tier::T2), None);
        assert_eq!(t.seed(4, 3, Tier::T1), None);
        assert_eq!(t.stats().evictions, 2);
        // Seeding never clobbers a live entry.
        let mut u = TwoTierTable::new(2, 2, 2);
        u.record(7);
        assert_eq!(u.seed(7, 99, Tier::T2), None);
        assert_eq!(u.tally(&7), Some(1));
        t.check_invariants();
        u.check_invariants();
    }

    #[test]
    fn record_filtered_rejects_only_absent_keys() {
        let mut t = TwoTierTable::new(2, 2, 2);
        // Absent + rejected: no entry, counted, nothing else moves.
        assert_eq!(t.record_filtered(1, || false), None);
        assert!(!t.contains(&1));
        assert_eq!(t.stats().rejections, 1);
        assert_eq!(t.stats().misses, 0);
        // Absent + admitted: exactly a `record` miss.
        let r = t.record_filtered(1, || true).unwrap();
        assert!(!r.hit);
        assert_eq!(t.tally(&1), Some(1));
        // Present: the closure must not run; the hit path is intact.
        let r = t
            .record_filtered(1, || panic!("admission ran on a hit"))
            .unwrap();
        assert!(r.hit);
        assert_eq!(r.tier, Tier::T2); // promoted at tally 2
        assert_eq!(t.stats().rejections, 1);
        t.check_invariants();
    }

    #[test]
    fn record_filtered_with_true_matches_record() {
        let mut plain = TwoTierTable::new(2, 2, 2);
        let mut filtered = TwoTierTable::new(2, 2, 2);
        for k in [1u32, 2, 1, 3, 4, 1, 2, 5] {
            let a = plain.record(k);
            let b = filtered.record_filtered(k, || true).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), filtered.stats());
        plain.check_invariants();
        filtered.check_invariants();
    }

    #[test]
    fn memory_bytes_is_exact_owned_allocations() {
        let t = TwoTierTable::<u64>::new(100, 28, 2);
        // One slot array plus control bytes (with the group-sized
        // mirror tail), nothing else.
        let expected = (t.buckets + GROUP) + t.buckets * std::mem::size_of::<Slot<u64>>();
        assert_eq!(t.memory_bytes(), expected);
        // Contents don't change the footprint (fixed-size storage)...
        let mut u = TwoTierTable::<u64>::new(100, 28, 2);
        u.record(7);
        assert_eq!(u.memory_bytes(), t.memory_bytes());
        // ...and enabling delta tracking adds exactly the op log.
        u.enable_delta_tracking();
        assert_eq!(
            u.memory_bytes(),
            expected + (128 + 64) * std::mem::size_of::<DeltaOp<u64>>()
        );
    }

    #[test]
    fn open_layout_beats_map_layout_by_a_quarter() {
        use crate::map_table::MapTable;
        use rtdac_types::{Extent, ExtentPair};
        // The bytes-per-entry gate at the analyzer's real key types:
        // at least 25% below the map-index layout at equal capacities.
        fn reduction<K: Eq + Hash + Clone + Ord>(caps: (usize, usize)) -> f64 {
            let open = TwoTierTable::<K>::new(caps.0, caps.1, 2).memory_bytes() as f64;
            let map = MapTable::<K>::new(caps.0, caps.1, 2).memory_bytes() as f64;
            1.0 - open / map
        }
        for caps in [(64, 64), (1024, 1024), (4096, 4096)] {
            assert!(
                reduction::<Extent>(caps) >= 0.25,
                "item-table reduction below gate at {caps:?}"
            );
            assert!(
                reduction::<ExtentPair>(caps) >= 0.25,
                "pair-table reduction below gate at {caps:?}"
            );
        }
    }

    /// Replays `delta` onto a (non-tracking) mirror table — the
    /// reference implementation of the LiveView fold, kept here so the
    /// table's own tests pin the protocol.
    fn replay(mirror: &mut TwoTierTable<u32>, delta: &TableDelta<u32>) {
        if delta.rebase {
            mirror.clear();
        }
        for op in &delta.ops {
            match op {
                DeltaOp::Evict(k) => mirror.apply_remove(k),
                DeltaOp::DemoteBack(k, tally) => mirror.apply_upsert_back_t1(k, *tally),
            }
        }
        for (k, tally) in delta.touched_t1.iter().rev() {
            mirror.apply_upsert_front(k, *tally, Tier::T1);
        }
        for (k, tally) in delta.touched_t2.iter().rev() {
            mirror.apply_upsert_front(k, *tally, Tier::T2);
        }
    }

    fn entries(t: &TwoTierTable<u32>) -> Vec<(u32, u32, Tier)> {
        t.iter().map(|(k, ta, ti)| (*k, ta, ti)).collect()
    }

    /// Drives a tracked table with a deterministic pseudo-random mix of
    /// records, demotes and removes, extracting a delta every
    /// `interval` steps and replaying it onto a mirror; the mirror must
    /// match the table — keys, tallies, tiers *and order* — at every
    /// extraction point.
    fn mirror_tracks_table(
        caps: (usize, usize),
        keyspace: u32,
        steps: u32,
        interval: u32,
        mut seed: u64,
    ) {
        let mut table = TwoTierTable::new(caps.0, caps.1, 2);
        let mut mirror = TwoTierTable::new(caps.0, caps.1, 2);
        table.enable_delta_tracking();
        let mut delta = TableDelta::default();
        for step in 1..=steps {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (seed >> 33) as u32 % keyspace;
            match seed % 10 {
                8 => {
                    table.demote(&key);
                }
                9 => {
                    table.remove(&key);
                }
                _ => {
                    table.record(key);
                }
            }
            if step % interval == 0 {
                table.extract_delta(&mut delta);
                replay(&mut mirror, &delta);
                assert_eq!(entries(&table), entries(&mirror), "diverged at step {step}");
                mirror.check_invariants();
            }
        }
    }

    #[test]
    fn delta_mirror_matches_under_churn() {
        // High churn: tiny tiers, busy keyspace, frequent extraction.
        mirror_tracks_table((3, 2), 12, 2_000, 7, 1);
        // Promotion-heavy: small keyspace so most records are hits.
        mirror_tracks_table((4, 4), 6, 2_000, 5, 2);
        // Sparse extraction with a bigger table.
        mirror_tracks_table((16, 16), 48, 4_000, 63, 3);
    }

    #[test]
    fn delta_overflow_rebases_and_still_matches() {
        // Capacity (1,1): op limit is 4*2+64 = 72, and nearly every
        // record logs an eviction — a 500-step epoch must
        // overflow the log and fall back to a full-dump rebase.
        let mut table = TwoTierTable::new(1, 1, 2);
        let mut mirror = TwoTierTable::new(1, 1, 2);
        table.enable_delta_tracking();
        let mut delta = TableDelta::default();
        for k in 0..500u32 {
            table.record(k % 97);
        }
        table.extract_delta(&mut delta);
        assert!(delta.rebase, "op overflow must force a rebase");
        assert!(delta.ops.is_empty());
        replay(&mut mirror, &delta);
        assert_eq!(entries(&table), entries(&mirror));
    }

    #[test]
    fn clear_and_late_enable_force_rebase() {
        let mut table = TwoTierTable::new(4, 4, 2);
        table.record(1);
        table.record(2);
        // Enabling on a non-empty table: first delta is a full dump.
        table.enable_delta_tracking();
        let mut delta = TableDelta::default();
        table.extract_delta(&mut delta);
        assert!(delta.rebase);
        let mut mirror = TwoTierTable::new(4, 4, 2);
        replay(&mut mirror, &delta);
        assert_eq!(entries(&table), entries(&mirror));
        // A clear invalidates the log again.
        table.clear();
        table.record(9);
        table.extract_delta(&mut delta);
        assert!(delta.rebase);
        replay(&mut mirror, &delta);
        assert_eq!(entries(&table), entries(&mirror));
    }

    #[test]
    fn delta_tracking_does_not_change_policy() {
        // The tracked table must behave identically to an untracked
        // one: dirty-marking and logging are pure observers.
        let mut plain = TwoTierTable::new(2, 2, 2);
        let mut tracked = TwoTierTable::new(2, 2, 2);
        tracked.enable_delta_tracking();
        let mut delta = TableDelta::default();
        for (i, k) in [1u32, 2, 1, 3, 4, 1, 2, 5, 5, 3].iter().enumerate() {
            assert_eq!(plain.record(*k), tracked.record(*k));
            if i % 3 == 0 {
                tracked.extract_delta(&mut delta);
            }
        }
        assert_eq!(plain.stats(), tracked.stats());
        assert_eq!(entries(&plain), entries(&tracked));
    }

    #[test]
    fn stats_accumulate() {
        let mut t = TwoTierTable::new(1, 1, 2);
        t.record(1); // miss
        t.record(1); // hit + promotion
        t.record(2); // miss
        t.record(3); // miss + eviction of 2
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.evictions, 1);
    }
}
