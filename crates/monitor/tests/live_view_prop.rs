//! Property tests for quiesce-free live queries: a [`LiveView`] read at
//! *any* epoch boundary must be bit-exact to a quiesced
//! [`SynopsisSnapshot`] taken at that boundary — across shard and
//! router counts, admission on/off, and a scripted mid-stream resize.
//!
//! The oracle replays the identical history (same transactions, same
//! resize point) through a non-publishing pipeline and captures its
//! quiesced state; the live pipeline is drained to the same boundary
//! with heartbeat batches (which carry no records and cannot change
//! table state) and its view compared snapshot-for-snapshot.

use rtdac_check::prelude::*;
use rtdac_monitor::{IngestPipeline, MonitorConfig, PipelineConfig};
use rtdac_synopsis::{Admission, AnalyzerConfig, DoorkeeperConfig, SynopsisSnapshot};
use rtdac_types::{Extent, IoOp, Timestamp, Transaction};
use std::time::{Duration, Instant};

/// A tight-range stream so pairs recur and small tables churn:
/// 1–4 extents per transaction, blocks drawn from 24 slots.
fn transactions_strategy() -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(prop::collection::vec(0u64..24, 1..5), 40..160).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, blocks)| {
                let mut txn = Transaction::new(Timestamp::from_micros(i as u64));
                for block in blocks {
                    txn.push(Extent::new(block * 8, 4).expect("valid extent"), IoOp::Read);
                }
                txn
            })
            .collect()
    })
}

fn analyzer_config(admission: bool) -> AnalyzerConfig {
    let config = AnalyzerConfig::with_capacity(256);
    if admission {
        config.admission(Admission::Doorkeeper(DoorkeeperConfig {
            counters: 1024,
            admit_threshold: 2,
            watermark: 256,
        }))
    } else {
        config
    }
}

fn pipeline_config(shards: usize, routers: usize, publish: usize) -> PipelineConfig {
    PipelineConfig::with_shards(shards)
        .routers(routers)
        .batch_size(8)
        .publish_interval(publish)
}

/// Feeds `prefix` transactions with the scripted resize applied at
/// `resize_at` (if inside the prefix), quiesces, and captures the
/// partition-exact snapshot — the ground truth for that boundary.
fn oracle_snapshot(
    transactions: &[Transaction],
    prefix: usize,
    config: &AnalyzerConfig,
    shards: usize,
    routers: usize,
    resize_at: usize,
    resize_to: (usize, usize),
) -> SynopsisSnapshot {
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        config.clone(),
        pipeline_config(shards, routers, 0),
    );
    for (i, t) in transactions[..prefix].iter().enumerate() {
        if i == resize_at {
            pipeline.resize(resize_to.0, resize_to.1);
        }
        pipeline.push_transaction(t.clone());
    }
    SynopsisSnapshot::capture(pipeline.finish().shards())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every sampled boundary — including one straddling a scripted
    /// resize — the live view equals the quiesced oracle bit-for-bit.
    #[test]
    fn live_view_equals_quiesced_snapshot_at_any_boundary(
        txns in transactions_strategy(),
        shards_index in 0usize..3,
        routers in 1usize..3,
        admission in any::<bool>(),
        resize_seed in 0usize..usize::MAX,
        to_shards_index in 0usize..3,
        to_routers in 1usize..3,
        sample_seeds in prop::collection::vec(0usize..usize::MAX, 1..4),
    ) {
        let shards = [1usize, 2, 4][shards_index];
        let resize_to = ([1usize, 2, 4][to_shards_index], to_routers);
        let resize_at = resize_seed % txns.len();
        let mut samples: Vec<usize> = sample_seeds
            .into_iter()
            .map(|s| 1 + s % txns.len())
            .collect();
        // Always sample the boundary right after the resize applies.
        samples.push((resize_at + 1).min(txns.len()));
        samples.sort_unstable();
        samples.dedup();

        let config = analyzer_config(admission);
        let mut live = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            pipeline_config(shards, routers, 4),
        );
        let mut next_sample = 0usize;
        for (i, t) in txns.iter().enumerate() {
            if i == resize_at {
                live.resize(resize_to.0, resize_to.1);
            }
            live.push_transaction(t.clone());
            if next_sample < samples.len() && i + 1 == samples[next_sample] {
                next_sample += 1;
                live.flush_batch();
                // Drain the view to the frontier: heartbeats give idle
                // workers publish opportunities without touching state.
                let target = live.frontier_epoch();
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let epoch = live.poll_live().expect("publishing enabled");
                    if epoch >= target {
                        break;
                    }
                    prop_assert!(
                        Instant::now() < deadline,
                        "live view never reached epoch {}", target
                    );
                    live.heartbeat();
                    std::thread::sleep(Duration::from_micros(100));
                }
                let expected = oracle_snapshot(
                    &txns, i + 1, &config, shards, routers, resize_at, resize_to,
                );
                let view = live.live_view().expect("publishing enabled");
                prop_assert_eq!(
                    view.snapshot(),
                    expected,
                    "boundary {} (resize at {}, {} shards -> {:?})",
                    i + 1, resize_at, shards, resize_to
                );
            }
        }
        live.finish();
    }
}
