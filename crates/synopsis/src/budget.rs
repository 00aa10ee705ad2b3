//! Budget-driven analyzer sizing, shared by every harness and by the
//! tenant runtime's admission control.
//!
//! The paper sizes the synopsis in entries; operators size deployments
//! in bytes. [`analyzer_config_for`] converts a byte budget into an
//! [`AnalyzerConfig`] whose *measured* footprint fills the budget,
//! optionally carving out a doorkeeper admission sketch and a
//! reservation for the reader-side live-query structures.

use rtdac_types::{Extent, ExtentPair};

use crate::analyzer::{Admission, AnalyzerConfig, DoorkeeperConfig};
use crate::table::TwoTierTable;

/// Per-capacity-unit cost of the analyzer's real structures, measured
/// on a probe instance. Both tables scale near-linearly in the
/// per-tier capacity — the open-addressing layout adds a constant
/// bucket pad and whole-group rounding (DESIGN.md §17) — so one probe
/// fixes the slope that seeds the search in [`capacities_filling`].
/// Because the slope now reflects the inline single-allocation layout
/// instead of the old map-index estimate, an equal byte budget buys
/// ~1.4× the capacity it used to.
fn analyzer_unit_bytes() -> usize {
    const PROBE: usize = 64;
    tables_bytes(PROBE, PROBE) / PROBE
}

/// Measured footprint of the tables at candidate per-tier capacities:
/// what [`OnlineAnalyzer::table_memory_bytes`] reports without a
/// doorkeeper. The search builds the two tables alone, since the rest
/// of an analyzer (its partner-chain index) is not budgeted and would
/// only slow every probe down.
///
/// [`OnlineAnalyzer::table_memory_bytes`]: crate::OnlineAnalyzer::table_memory_bytes
fn tables_bytes(item_capacity: usize, pair_capacity: usize) -> usize {
    let threshold = AnalyzerConfig::default().promote_threshold;
    TwoTierTable::<Extent>::new(item_capacity, item_capacity, threshold).memory_bytes()
        + TwoTierTable::<ExtentPair>::new(pair_capacity, pair_capacity, threshold).memory_bytes()
}

/// Largest `f(capacity)` whose measured footprint (monotone in
/// capacity) fits `budget`, seeded by `estimate`. Returns 1 when even
/// the smallest instance overflows.
fn largest_fitting(budget: usize, estimate: usize, f: impl Fn(usize) -> usize) -> usize {
    if f(1) > budget {
        return 1; // Budget below the smallest table; cap at minimum.
    }
    let mut lo = 1; // Invariant: f(lo) <= budget.
    let mut hi = estimate.max(2);
    while f(hi) <= budget {
        lo = hi;
        hi *= 2;
    }
    // Invariant: f(hi) > budget.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if f(mid) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Per-tier capacities (item, pair) whose *measured* joint footprint
/// fills `budget` from below. The probe slope seeds an equal-capacity
/// binary search; because the open layout's footprint moves in
/// whole-group steps (and carries a constant pad), that search can
/// stop a pair-table step (~half a KB) short, so a second pass grows
/// the cheaper item table alone to soak up the remainder. Both
/// searches run on measured footprints, not the slope, and only at
/// setup time.
fn capacities_filling(budget: usize) -> (usize, usize) {
    let estimate = (budget / analyzer_unit_bytes()).max(1);
    let pair = largest_fitting(budget, estimate, |c| tables_bytes(c, c));
    let item = largest_fitting(budget, pair * 2, |c| tables_bytes(c.max(pair), pair)).max(pair);
    (item, pair)
}

/// Analyzer config whose measured footprint fills `budget`, spending
/// at most `doorkeeper_bytes` of it on an admission sketch (0 =
/// admission off) and reserving `live_bytes` for the reader-side
/// live-query structures (the `LiveView` mirrors plus the circulating
/// delta buffers; 0 = no live view). The sketch rounds *down* to a
/// power-of-two count of 64-byte blocks — never exceeding its slice —
/// and the tables are sized from whatever the sketch and the live
/// reservation actually left over.
///
/// Shared with the `ingest_throughput` admission and query-load sweeps
/// and with the tenant runtime's per-tenant budgets, so every consumer
/// sizes analyzers identically.
pub fn analyzer_config_for(
    budget: usize,
    doorkeeper_bytes: usize,
    live_bytes: usize,
) -> AnalyzerConfig {
    let sketch_bytes = if doorkeeper_bytes == 0 {
        0
    } else {
        let blocks = (doorkeeper_bytes / 64).max(1);
        let blocks = if blocks.is_power_of_two() {
            blocks
        } else {
            blocks.next_power_of_two() / 2
        };
        blocks * 64
    };
    let (item, pair) = capacities_filling(budget.saturating_sub(sketch_bytes + live_bytes));
    let config = AnalyzerConfig::with_capacity(pair).item_capacity(item);
    if sketch_bytes == 0 {
        return config;
    }
    let counters = sketch_bytes * 2; // two 4-bit counters per byte
    config.admission(Admission::Doorkeeper(DoorkeeperConfig {
        counters,
        watermark: (counters as u64 / 16).max(1),
        ..DoorkeeperConfig::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlineAnalyzer;

    #[test]
    fn tables_bytes_is_what_the_analyzer_reports() {
        for (items, pairs) in [(1, 1), (64, 64), (1_667, 1_667), (3_000, 1_200)] {
            let config = AnalyzerConfig::with_capacity(pairs).item_capacity(items);
            assert_eq!(
                tables_bytes(items, pairs),
                OnlineAnalyzer::new(config).table_memory_bytes()
            );
        }
    }

    #[test]
    fn tables_land_near_budget() {
        // The probe-derived slope must keep filling byte budgets across
        // the sizes the benches and tenant runtime actually use, even
        // with the open layout's bucket pad and group rounding.
        for budget in [256 * 1024, 512 * 1024, 4 * 1024 * 1024] {
            let analyzer = OnlineAnalyzer::new(analyzer_config_for(budget, 0, 0));
            let ratio = analyzer.table_memory_bytes() as f64 / budget as f64;
            assert!(
                (1.0 - ratio).abs() < 0.05,
                "ratio {ratio} at budget {budget}"
            );
        }
    }

    #[test]
    fn small_budgets_fill_within_admission_slack() {
        // The admission sweep checks 2% byte parity at a 24 KB budget,
        // with and without a doorkeeper carve-out — the tightest fit
        // the harnesses demand. The item-table top-off pass is what
        // keeps the quantized footprint this close from below.
        let budget = 24 * 1024;
        for doorkeeper in [0, budget / 8] {
            let analyzer = OnlineAnalyzer::new(analyzer_config_for(budget, doorkeeper, 0));
            let bytes = analyzer.table_memory_bytes();
            assert!(bytes <= budget, "over budget: {bytes}");
            let ratio = bytes as f64 / budget as f64;
            assert!(ratio > 0.98, "ratio {ratio} (doorkeeper {doorkeeper})");
        }
    }

    #[test]
    fn sketch_slice_never_exceeds_request() {
        let budget = 256 * 1024;
        let config = analyzer_config_for(budget, budget / 8, 0);
        match config.admission {
            Admission::Doorkeeper(d) => {
                // Two 4-bit counters per byte: bytes = counters / 2.
                assert!(d.counters / 2 <= budget / 8);
            }
            _ => panic!("doorkeeper expected"),
        }
    }

    #[test]
    fn live_reservation_shrinks_tables() {
        let budget = 512 * 1024;
        let plain = analyzer_config_for(budget, 0, 0);
        let reserved = analyzer_config_for(budget, 0, budget / 2);
        assert!(
            reserved.correlation_capacity_per_tier < plain.correlation_capacity_per_tier,
            "live reservation must come out of the tables"
        );
    }
}
