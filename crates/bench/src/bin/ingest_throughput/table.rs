//! The table sweep: the open-addressing `TwoTierTable` against the
//! preserved HashMap-index `MapTable` oracle — bit-exactness on a fixed
//! skewed pair stream (every `Record` return, the stats block, and the
//! final MRU→LRU iteration order), owned-allocation bytes at equal
//! capacities, single-thread `record` throughput on that stream, and
//! the end-to-end uniform 4-shard one-core-per-shard rate (a model)
//! against the same run's `reference` analyzer, which runs on
//! `MapTable`.

use std::time::Instant;

use rtdac_bench::sweep::{self, env_or, median, Criterion, Obj};
use rtdac_synopsis::{MapTable, TwoTierTable};
use rtdac_types::{Extent, ExtentPair};

use crate::Sweep;

/// Bytes-per-entry reduction floor: the open-addressing table's owned
/// allocations vs `MapTable`'s at equal capacities.
const TABLE_BYTES_REDUCTION_FLOOR: f64 = 0.25;
/// Single-thread `record` throughput floor: open table over `MapTable`
/// on the skewed pair stream (full mode only — timing).
const TABLE_SPEEDUP_FLOOR: f64 = 1.2;
/// The uniform 4-shard routed one-core-per-shard rate must reach this
/// multiple of the same run's `reference` rate (10.8x measured on a
/// 2-thread host when this floor was set).
const FOUR_SHARD_OVER_REFERENCE_FLOOR: f64 = 5.4;

/// Runs both table implementations over one fixed skewed pair stream —
/// geometric-skew ranks, keyspace 4× capacity, so the mix covers hits,
/// misses, evictions, promotions and overflow demotions — checking
/// bit-exactness record by record, then timing `repeat` passes of each
/// (medians). `RTDAC_TABLE_RECORDS` overrides the stream length.
pub(crate) fn run(
    smoke: bool,
    seed: u64,
    repeat: usize,
    four_shard_events_per_sec: f64,
    reference_events_per_sec: f64,
) -> Sweep {
    // Full mode runs at a production keyspace (64 Ki pairs/tier ≈ 9 MB
    // table): the open layout's throughput edge is cache-footprint
    // driven, so it only shows once the working set outgrows the LLC —
    // at toy capacities both layouts are cache-resident and the
    // SIMD-probed std map is marginally faster per op (DESIGN.md §17).
    let records = env_or(
        "RTDAC_TABLE_RECORDS",
        if smoke { 50_000 } else { 2_000_000 },
    ) as usize;
    let capacity_per_tier = env_or(
        "RTDAC_TABLE_CAPACITY",
        if smoke { 1_024 } else { 64 * 1_024 },
    ) as usize;
    let keyspace = (capacity_per_tier * 4) as u64;
    let mut state = seed | 1;
    let stream: Vec<ExtentPair> = (0..records)
        .map(|_| {
            let mut rand = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 16
            };
            let rank = (rand() % keyspace).min(rand() % keyspace);
            ExtentPair::new(
                Extent::new(rank * 64, 8).expect("valid extent"),
                Extent::new((rank + keyspace) * 64, 8).expect("valid extent"),
            )
            .expect("distinct extents")
        })
        .collect();

    // Correctness pass: every Record return must agree, then stats and
    // the full recency iteration order.
    let mut open = TwoTierTable::new(capacity_per_tier, capacity_per_tier, 2);
    let mut map = MapTable::new(capacity_per_tier, capacity_per_tier, 2);
    let mut bit_exact = true;
    for pair in &stream {
        if open.record(*pair) != map.record(*pair) {
            bit_exact = false;
            break;
        }
    }
    bit_exact = bit_exact
        && open.stats() == map.stats()
        && open.len() == map.len()
        && open.iter().zip(map.iter()).all(|(a, b)| a == b);
    let open_bytes = open.memory_bytes();
    let map_bytes = map.memory_bytes();

    // Timing passes: median of `repeat` fresh single-thread runs each.
    let time = |run: &mut dyn FnMut() -> u64| {
        let mut samples = Vec::with_capacity(repeat.max(1));
        for _ in 0..repeat.max(1) {
            let start = Instant::now();
            std::hint::black_box(run());
            samples.push(start.elapsed().as_secs_f64());
        }
        median(&samples)
    };
    let open_secs = time(&mut || {
        let mut t = TwoTierTable::new(capacity_per_tier, capacity_per_tier, 2);
        for pair in &stream {
            t.record(*pair);
        }
        t.stats().hits
    });
    let map_secs = time(&mut || {
        let mut t = MapTable::new(capacity_per_tier, capacity_per_tier, 2);
        for pair in &stream {
            t.record(*pair);
        }
        t.stats().hits
    });
    let bytes_reduction = 1.0 - open_bytes as f64 / map_bytes as f64;
    let speedup = map_secs / open_secs;
    let four_shard_floor = reference_events_per_sec * FOUR_SHARD_OVER_REFERENCE_FLOOR;

    println!(
        "\n  [table] open-addressing TwoTierTable vs MapTable oracle, {records} skewed pair \
         records, {capacity_per_tier} capacity/tier"
    );
    println!(
        "  {:<6} {:>12} {:>16} {:>12}",
        "table", "bytes", "records/s", "secs"
    );
    for (name, bytes, secs) in [
        ("open", open_bytes, open_secs),
        ("map", map_bytes, map_secs),
    ] {
        println!(
            "  {name:<6} {bytes:>12} {:>16.0} {secs:>12.6}",
            records as f64 / secs
        );
    }
    println!(
        "  4-shard one-core-per-shard (model) {four_shard_events_per_sec:.0} ev/s vs \
         {FOUR_SHARD_OVER_REFERENCE_FLOOR}x the same run's reference = {four_shard_floor:.0}"
    );

    let holds = Criterion::at_least(
        "table uniform 4-shard one-core-per-shard rate (model) over the same run's reference",
        four_shard_events_per_sec / reference_events_per_sec,
        FOUR_SHARD_OVER_REFERENCE_FLOOR,
    )
    .full_only(smoke);
    let four_shard_holds = holds.pass();
    let criteria = vec![
        Criterion::holds("table open-addressing bit-exact to MapTable", bit_exact),
        Criterion::at_least(
            "table owned-bytes reduction vs MapTable",
            bytes_reduction,
            TABLE_BYTES_REDUCTION_FLOOR,
        ),
        Criterion::at_least(
            "table single-thread record speedup vs MapTable",
            speedup,
            TABLE_SPEEDUP_FLOOR,
        )
        .full_only(smoke),
        holds,
    ];

    let contender = |bytes: usize, secs: f64| {
        Obj::new()
            .field("bytes", bytes)
            .num("elapsed_secs", secs, 6)
            .num("records_per_sec", records as f64 / secs, 0)
    };
    let json = Obj::new()
        .field(
            "notes",
            "the open-addressing TwoTierTable (SWAR group probing, inline slots, u32 \
             recency links — DESIGN.md §17) vs the preserved HashMap-index MapTable on one \
             fixed skewed pair stream (geometric ranks, keyspace 4x capacity); \
             bit-exactness covers every Record return, the stats block, and the final \
             MRU->LRU iteration order; bytes are each table's exact owned allocations at \
             equal capacities; records/s are fresh single-thread passes (median of \
             repeat); the end-to-end figure is the uniform 4-shard routed \
             one-core-per-shard rate from the main grid (a model), gated at a multiple of \
             the same run's reference analyzer, which runs on MapTable",
        )
        .field("capacity_per_tier", capacity_per_tier)
        .field("records", records)
        .field("bit_exact_to_map_table", bit_exact)
        .field("open", contender(open_bytes, open_secs))
        .field("map", contender(map_bytes, map_secs))
        .num("bytes_reduction", bytes_reduction, 3)
        .num("bytes_reduction_floor", TABLE_BYTES_REDUCTION_FLOOR, 2)
        .num("record_speedup_vs_map", speedup, 3)
        .num("record_speedup_floor", TABLE_SPEEDUP_FLOOR, 1)
        .num(
            "four_shard_one_core_per_shard_events_per_sec",
            four_shard_events_per_sec,
            0,
        )
        .num("four_shard_floor_events_per_sec", four_shard_floor, 0)
        .field("four_shard_holds_floor", four_shard_holds)
        .field("met", sweep::met(&criteria));
    (json, criteria)
}
