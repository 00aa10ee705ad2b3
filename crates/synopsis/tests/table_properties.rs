//! Model-based property tests: the O(1) intrusive-list `TwoTierTable` must
//! behave identically to a naive, obviously-correct reference
//! implementation under arbitrary operation sequences.

use rtdac_check::prelude::*;
use rtdac_synopsis::{MapTable, TableDelta, Tier, TwoTierTable};

/// Naive reference: two `Vec`s ordered MRU→LRU, linear scans everywhere.
struct RefTable {
    t1: Vec<(u16, u32)>,
    t2: Vec<(u16, u32)>,
    t1_cap: usize,
    t2_cap: usize,
    threshold: u32,
}

impl RefTable {
    fn new(t1_cap: usize, t2_cap: usize, threshold: u32) -> Self {
        RefTable {
            t1: Vec::new(),
            t2: Vec::new(),
            t1_cap,
            t2_cap,
            threshold,
        }
    }

    fn record(&mut self, key: u16) {
        if let Some(pos) = self.t1.iter().position(|(k, _)| *k == key) {
            let (k, tally) = self.t1.remove(pos);
            let tally = tally + 1;
            if tally >= self.threshold {
                self.t2.insert(0, (k, tally));
                if self.t2.len() > self.t2_cap {
                    let demoted = self.t2.pop().unwrap();
                    if self.t1.len() >= self.t1_cap {
                        self.t1.pop();
                    }
                    self.t1.push(demoted);
                }
            } else {
                self.t1.insert(0, (k, tally));
            }
        } else if let Some(pos) = self.t2.iter().position(|(k, _)| *k == key) {
            let (k, tally) = self.t2.remove(pos);
            self.t2.insert(0, (k, tally + 1));
        } else {
            if self.t1.len() >= self.t1_cap {
                self.t1.pop();
            }
            self.t1.insert(0, (key, 1));
        }
    }

    fn demote(&mut self, key: u16) {
        let entry = if let Some(pos) = self.t1.iter().position(|(k, _)| *k == key) {
            Some(self.t1.remove(pos))
        } else if let Some(pos) = self.t2.iter().position(|(k, _)| *k == key) {
            Some(self.t2.remove(pos))
        } else {
            None
        };
        if let Some(entry) = entry {
            self.t1.push(entry);
            if self.t1.len() > self.t1_cap {
                self.t1.pop();
            }
        }
    }

    fn remove(&mut self, key: u16) {
        self.t1.retain(|(k, _)| *k != key);
        self.t2.retain(|(k, _)| *k != key);
    }

    fn tally(&self, key: u16) -> Option<u32> {
        self.t1
            .iter()
            .chain(self.t2.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, t)| *t)
    }

    fn tier(&self, key: u16) -> Option<Tier> {
        if self.t1.iter().any(|(k, _)| *k == key) {
            Some(Tier::T1)
        } else if self.t2.iter().any(|(k, _)| *k == key) {
            Some(Tier::T2)
        } else {
            None
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Record(u16),
    Demote(u16),
    Remove(u16),
}

fn op_strategy(key_space: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..key_space).prop_map(Op::Record),
        1 => (0..key_space).prop_map(Op::Demote),
        1 => (0..key_space).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The intrusive implementation agrees with the reference model on
    /// membership, tallies, tiers, and full MRU→LRU ordering.
    #[test]
    fn matches_reference_model(
        t1_cap in 1usize..6,
        t2_cap in 1usize..6,
        threshold in 2u32..5,
        ops in prop::collection::vec(op_strategy(16), 0..200),
    ) {
        let mut real = TwoTierTable::new(t1_cap, t2_cap, threshold);
        let mut model = RefTable::new(t1_cap, t2_cap, threshold);
        for op in ops {
            match op {
                Op::Record(k) => {
                    real.record(k);
                    model.record(k);
                }
                Op::Demote(k) => {
                    real.demote(&k);
                    model.demote(k);
                }
                Op::Remove(k) => {
                    real.remove(&k);
                    model.remove(k);
                }
            }
            // Full-state comparison after every operation.
            prop_assert_eq!(real.tier_len(Tier::T1), model.t1.len());
            prop_assert_eq!(real.tier_len(Tier::T2), model.t2.len());
            let real_t1: Vec<(u16, u32)> = real
                .iter()
                .filter(|(_, _, tier)| *tier == Tier::T1)
                .map(|(k, t, _)| (*k, t))
                .collect();
            let real_t2: Vec<(u16, u32)> = real
                .iter()
                .filter(|(_, _, tier)| *tier == Tier::T2)
                .map(|(k, t, _)| (*k, t))
                .collect();
            prop_assert_eq!(&real_t1, &model.t1);
            prop_assert_eq!(&real_t2, &model.t2);
        }
    }

    /// Capacity bounds hold under any workload.
    #[test]
    fn never_exceeds_capacity(
        t1_cap in 1usize..8,
        t2_cap in 1usize..8,
        keys in prop::collection::vec(0u16..64, 0..400),
    ) {
        let mut t = TwoTierTable::new(t1_cap, t2_cap, 2);
        for k in keys {
            t.record(k);
            prop_assert!(t.tier_len(Tier::T1) <= t1_cap);
            prop_assert!(t.tier_len(Tier::T2) <= t2_cap);
            prop_assert!(t.len() <= t1_cap + t2_cap);
        }
    }

    /// Tallies never decrease while an entry remains resident, and a
    /// resident entry's tally equals the number of sightings since its
    /// last insertion.
    #[test]
    fn tally_counts_sightings_since_insertion(
        keys in prop::collection::vec(0u16..8, 1..200),
    ) {
        // Large table: nothing is ever evicted, so tallies must equal the
        // exact occurrence counts.
        let mut t = TwoTierTable::new(64, 64, 2);
        let mut counts = std::collections::HashMap::new();
        for k in keys {
            t.record(k);
            *counts.entry(k).or_insert(0u32) += 1;
        }
        for (k, expected) in counts {
            prop_assert_eq!(t.tally(&k), Some(expected));
        }
    }

    /// A key recorded `threshold` times with no interference always ends
    /// in T2.
    #[test]
    fn enough_sightings_promote(threshold in 2u32..6) {
        let mut t = TwoTierTable::new(4, 4, threshold);
        for _ in 0..threshold {
            t.record(42u16);
        }
        prop_assert_eq!(t.tier(&42), Some(Tier::T2));
    }
}

/// Full-API operation for the open-vs-map oracle property: everything
/// the table exposes, including the mutations the simple model above
/// cannot express (seeding, admission filtering, clears, delta
/// extraction).
#[derive(Clone, Debug)]
enum OracleOp {
    Record(u16),
    RecordFiltered(u16, bool),
    Seed(u16, u32, bool),
    Demote(u16),
    Remove(u16),
    Clear,
    ExtractDelta,
}

fn oracle_op_strategy(key_space: u16) -> impl Strategy<Value = OracleOp> {
    prop_oneof![
        10 => (0..key_space).prop_map(OracleOp::Record),
        3 => ((0..key_space), any::<bool>())
            .prop_map(|(k, admit)| OracleOp::RecordFiltered(k, admit)),
        2 => ((0..key_space), 1u32..8, any::<bool>())
            .prop_map(|(k, tally, t2)| OracleOp::Seed(k, tally, t2)),
        2 => (0..key_space).prop_map(OracleOp::Demote),
        2 => (0..key_space).prop_map(OracleOp::Remove),
        1 => Just(OracleOp::Clear),
        2 => Just(OracleOp::ExtractDelta),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The open-addressing `TwoTierTable` is bit-exact to `MapTable`
    /// (the preserved HashMap-index implementation) across the whole
    /// API: identical `Record` returns, stats, MRU→LRU iteration order
    /// and delta streams under arbitrary operation sequences.
    #[test]
    fn open_table_matches_map_oracle(
        t1_cap in 1usize..8,
        t2_cap in 1usize..8,
        threshold in 2u32..5,
        ops in prop::collection::vec(oracle_op_strategy(24), 0..300),
    ) {
        open_matches_map((t1_cap, t2_cap), threshold, ops)?;
    }
}

/// Drives the open-addressing `TwoTierTable` and `MapTable` with one
/// operation stream and requires bit-identical observable behaviour
/// after every operation.
fn open_matches_map(
    (t1_cap, t2_cap): (usize, usize),
    threshold: u32,
    ops: Vec<OracleOp>,
) -> Result<(), TestCaseError> {
    let mut open = TwoTierTable::new(t1_cap, t2_cap, threshold);
    let mut map = MapTable::new(t1_cap, t2_cap, threshold);
    open.enable_delta_tracking();
    map.enable_delta_tracking();
    let mut open_delta = TableDelta::default();
    let mut map_delta = TableDelta::default();
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            OracleOp::Record(k) => {
                prop_assert_eq!(open.record(k), map.record(k));
            }
            OracleOp::RecordFiltered(k, admit) => {
                prop_assert_eq!(
                    open.record_filtered(k, || admit),
                    map.record_filtered(k, || admit)
                );
            }
            OracleOp::Seed(k, tally, t2) => {
                let tier = if t2 { Tier::T2 } else { Tier::T1 };
                prop_assert_eq!(open.seed(k, tally, tier), map.seed(k, tally, tier));
            }
            OracleOp::Demote(k) => {
                prop_assert_eq!(open.demote(&k), map.demote(&k));
            }
            OracleOp::Remove(k) => {
                prop_assert_eq!(open.remove(&k), map.remove(&k));
            }
            OracleOp::Clear => {
                open.clear();
                map.clear();
            }
            OracleOp::ExtractDelta => {
                open.extract_delta(&mut open_delta);
                map.extract_delta(&mut map_delta);
                prop_assert_eq!(&open_delta, &map_delta);
            }
        }
        open.check_invariants();
        prop_assert_eq!(open.len(), map.len());
        prop_assert_eq!(open.stats(), map.stats());
        let open_entries: Vec<(u16, u32, Tier)> =
            open.iter().map(|(k, t, ti)| (*k, t, ti)).collect();
        let map_entries: Vec<(u16, u32, Tier)> = map.iter().map(|(k, t, ti)| (*k, t, ti)).collect();
        prop_assert_eq!(open_entries, map_entries);
        if step % 64 == 0 {
            prop_assert_eq!(
                open.entries_with_min_tally(2),
                map.entries_with_min_tally(2)
            );
            map.check_invariants();
        }
    }
    // Whatever accumulated past the last extraction must also agree.
    open.extract_delta(&mut open_delta);
    map.extract_delta(&mut map_delta);
    prop_assert_eq!(&open_delta, &map_delta);
    prop_assert_eq!(
        open.entries_with_min_tally(2),
        map.entries_with_min_tally(2)
    );
    Ok(())
}

/// A long deterministic operation stream over `keyspace` keys, from an
/// LCG. Unlike `oracle_op_strategy` it also seeds tally 0.
fn fixed_ops(keyspace: u64, steps: u32) -> Vec<OracleOp> {
    let mut seed = 0x2545f4914f6cdd1du64 ^ u64::from(steps);
    let mut ops = Vec::new();
    for _ in 0..steps {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = seed >> 16;
        let key = (r % keyspace) as u16;
        ops.push(match r % 23 {
            0..=13 => OracleOp::Record(key),
            14..=16 => OracleOp::RecordFiltered(key, r & (1 << 13) != 0),
            17..=18 => OracleOp::Demote(key),
            19 => OracleOp::Remove(key),
            20 => OracleOp::Seed(key, (r % 9) as u32, r & (1 << 14) != 0),
            21 => OracleOp::ExtractDelta,
            // Half of the remaining draws clear; the rest are no-ops.
            _ if r & (1 << 15) != 0 => OracleOp::Clear,
            _ => continue,
        });
    }
    ops
}

#[test]
fn open_table_matches_map_oracle_on_long_fixed_streams() {
    for (caps, threshold, keyspace, steps) in [
        // Churn-heavy: tiny tiers, busy keyspace — constant eviction,
        // tombstone build-up and in-place rehashes on the open side.
        ((3, 2), 2, 16, 6_000),
        // Promotion-heavy: small keyspace, most records are hits.
        ((4, 4), 2, 6, 6_000),
        // Higher threshold and a larger table.
        ((32, 32), 3, 120, 8_000),
        // Single-slot tiers: the degenerate corner.
        ((1, 1), 2, 9, 3_000),
    ] {
        if let Err(failure) = open_matches_map(caps, threshold, fixed_ops(keyspace, steps)) {
            panic!("caps {caps:?}, threshold {threshold}, keyspace {keyspace}: {failure:?}");
        }
    }
}

#[test]
fn model_sanity_check() {
    // Quick deterministic cross-check that the *reference model itself*
    // encodes the intended semantics (guards against a vacuous proptest).
    let mut m = RefTable::new(2, 1, 2);
    m.record(1);
    m.record(1);
    assert_eq!(m.tier(1), Some(Tier::T2));
    m.record(2);
    m.record(2); // promotes 2, demotes 1 to T1's back
    assert_eq!(m.tier(1), Some(Tier::T1));
    assert_eq!(m.tally(1), Some(2));
    assert_eq!(m.tier(2), Some(Tier::T2));
}
