//! Property tests for the monitoring module: conservation, windowing
//! and limit invariants under arbitrary event streams.

use std::time::Duration;

use proptest::prelude::*;
use rtdac_monitor::{Monitor, MonitorConfig, WindowPolicy};
use rtdac_types::{Extent, IoEvent, IoOp, Timestamp};

/// An arbitrary timestamp-ordered event stream.
fn events_strategy() -> impl Strategy<Value = Vec<IoEvent>> {
    prop::collection::vec(
        (0u64..500, 0u64..30, 1u32..4, 10u64..200, prop::bool::ANY),
        0..80,
    )
    .prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(gap, start, len, lat_us, is_write)| {
                t += gap;
                IoEvent::new(
                    Timestamp::from_micros(t),
                    1,
                    if is_write { IoOp::Write } else { IoOp::Read },
                    Extent::new(start * 8, len).expect("valid extent"),
                    Duration::from_micros(lat_us),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// No admitted request is lost or invented: with dedup off, the
    /// total requests across emitted transactions equals the event
    /// count, in order.
    #[test]
    fn conservation_without_dedup(
        events in events_strategy(),
        window_us in 1u64..1_000,
        limit in 1usize..12,
    ) {
        let config = MonitorConfig::new(WindowPolicy::Static(
            Duration::from_micros(window_us),
        ))
        .transaction_limit(limit)
        .dedup(false);
        let txns = Monitor::new(config).into_transactions(events.clone());
        let emitted: Vec<Extent> = txns.iter().flat_map(|t| t.extents()).collect();
        let offered: Vec<Extent> = events.iter().map(|e| e.extent).collect();
        prop_assert_eq!(emitted, offered);
    }

    /// Every transaction respects the size limit, and only the last
    /// transaction of a burst may be under-full due to a window close.
    #[test]
    fn limit_always_respected(
        events in events_strategy(),
        limit in 1usize..12,
    ) {
        let config = MonitorConfig::default().transaction_limit(limit);
        let txns = Monitor::new(config).into_transactions(events);
        for txn in &txns {
            prop_assert!(txn.len() <= limit);
            prop_assert!(!txn.is_empty());
        }
    }

    /// Consecutive requests inside one transaction are within the
    /// static window of each other; consecutive transactions are
    /// separated by more than the window OR by a limit split.
    #[test]
    fn window_semantics(
        events in events_strategy(),
        window_us in 1u64..1_000,
    ) {
        let window = Duration::from_micros(window_us);
        let config = MonitorConfig::new(WindowPolicy::Static(window))
            .transaction_limit(1_000_000) // effectively unlimited
            .dedup(false);
        let txns = Monitor::new(config).into_transactions(events.clone());

        // Rebuild per-transaction event times from the order-preserving
        // conservation property.
        let mut cursor = 0usize;
        let mut previous_end: Option<Timestamp> = None;
        for txn in &txns {
            let times: Vec<Timestamp> =
                events[cursor..cursor + txn.len()].iter().map(|e| e.timestamp).collect();
            cursor += txn.len();
            for pair in times.windows(2) {
                prop_assert!(
                    pair[1].saturating_since(pair[0]) <= window,
                    "intra-transaction gap exceeds the window"
                );
            }
            if let Some(end) = previous_end {
                prop_assert!(
                    times[0].saturating_since(end) > window,
                    "consecutive transactions not separated by the window"
                );
            }
            previous_end = Some(*times.last().expect("non-empty"));
        }
        prop_assert_eq!(cursor, events.len());
    }

    /// Emitted transactions carry no duplicate extents when dedup is on.
    #[test]
    fn dedup_leaves_no_duplicates(events in events_strategy()) {
        let txns = Monitor::new(MonitorConfig::default()).into_transactions(events);
        for txn in &txns {
            let unique = txn.unique_extents();
            prop_assert_eq!(unique.len(), txn.len());
        }
    }

    /// The dynamic window always stays within its configured clamp.
    #[test]
    fn dynamic_window_stays_clamped(events in events_strategy()) {
        let min = Duration::from_micros(20);
        let max = Duration::from_micros(500);
        let config = MonitorConfig::new(WindowPolicy::Dynamic {
            multiplier: 2.0,
            min,
            max,
        });
        let mut monitor = Monitor::new(config);
        for event in events {
            monitor.push(event);
            let w = monitor.current_window();
            prop_assert!(w >= min && w <= max, "window {w:?} out of clamp");
        }
    }
}

/// A small arbitrary transaction stream: extents drawn from a tight
/// block range so pairs recur, 1–4 extents per transaction.
fn transactions_strategy() -> impl Strategy<Value = Vec<rtdac_types::Transaction>> {
    prop::collection::vec(prop::collection::vec(0u64..24, 1..5), 1..60).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, blocks)| {
                let mut txn = rtdac_types::Transaction::new(Timestamp::from_micros(i as u64));
                for block in blocks {
                    txn.push(Extent::new(block * 8, 4).expect("valid extent"), IoOp::Read);
                }
                txn
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Routing is a pure refactoring of per-shard partitioning: applying
    /// a router's work lists leaves every shard's tables bit-for-bit
    /// identical to `process_partition` over the full stream — even with
    /// tiny tables where eviction order is observable.
    #[test]
    fn routed_work_lists_match_sequential_partitions_per_shard(
        txns in transactions_strategy(),
        shards in 1usize..6,
    ) {
        use rtdac_monitor::{Router, RouterConfig};
        use rtdac_synopsis::{AnalyzerConfig, ShardedAnalyzer};

        let config = AnalyzerConfig::with_capacity(8).item_capacity(4);
        let mut sequential = ShardedAnalyzer::new(config.clone(), shards);
        for t in &txns {
            sequential.process(t);
        }

        let mut router = Router::new(RouterConfig::new(shards));
        let mut routed = ShardedAnalyzer::new(config, shards).into_shards();
        for chunk in txns.chunks(16) {
            let batch = router.route(chunk.to_vec());
            for (shard, work) in routed.iter_mut().zip(&batch.per_shard) {
                work.apply(shard);
            }
        }

        for (s, r) in sequential.shards().iter().zip(&routed) {
            prop_assert_eq!(s.snapshot(), r.snapshot());
        }
    }

    /// With hot-pair splitting enabled, merged tallies stay exact: the
    /// summed frequent-pair view equals the single-threaded analyzer's,
    /// whatever the split decisions were.
    #[test]
    fn split_merge_is_count_exact(
        txns in transactions_strategy(),
        shards in 2usize..6,
    ) {
        use rtdac_monitor::{Router, RouterConfig, SplitConfig};
        use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer, ShardedAnalyzer};

        let config = AnalyzerConfig::with_capacity(64 * 1024);
        let mut single = OnlineAnalyzer::new(config.clone());
        for t in &txns {
            single.process(t);
        }
        let mut expected = single.frequent_pairs(1);
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let split = SplitConfig { hot_fraction: 0.05, warmup: 8, ..SplitConfig::default() };
        let mut router = Router::new(RouterConfig::new(shards).split(split));
        let mut shard_tables = ShardedAnalyzer::new(config.clone(), shards).into_shards();
        for chunk in txns.chunks(16) {
            let batch = router.route(chunk.to_vec());
            for (shard, work) in shard_tables.iter_mut().zip(&batch.per_shard) {
                work.apply(shard);
            }
        }
        let merged = ShardedAnalyzer::from_routed_shards(
            config,
            shard_tables,
            txns.len() as u64,
            true,
        );
        prop_assert_eq!(merged.frequent_pairs(1), expected);
        prop_assert_eq!(merged.stats().pairs, single.stats().pairs);
    }
}
