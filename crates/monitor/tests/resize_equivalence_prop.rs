//! Property tests for elastic resize: at *arbitrary* resize points —
//! random shard counts, router counts and batch indices — a resized
//! pipeline's merged frequent-pair view must be identical to a pipeline
//! that never resized, on both uniform and skewed streams.

use rtdac_check::prelude::*;
use rtdac_monitor::{IngestPipeline, MonitorConfig, PipelineConfig, SplitConfig};
use rtdac_synopsis::AnalyzerConfig;
use rtdac_types::{Extent, ExtentPair, IoOp, Timestamp, Transaction};
use rtdac_workloads::SkewedSpec;

/// A uniform stream: extents drawn evenly from a tight block range so
/// pairs recur, 1–4 extents per transaction.
fn uniform_transactions_strategy() -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(prop::collection::vec(0u64..24, 1..5), 30..120).prop_map(|raw| {
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

/// A skewed stream: one hot pair plus a Zipf-weighted background, the
/// workload the splitting tracker exists to serve.
fn skewed_transactions_strategy() -> impl Strategy<Value = Vec<Transaction>> {
    (0u64..1_000).prop_map(|seed| {
        SkewedSpec::new()
            .transactions(600)
            .hot_fraction(0.4)
            .seed(seed)
            .generate()
            .transactions
    })
}

/// A random resize schedule: up to three (transaction index, shards,
/// routers) points, applied in stream order.
fn schedule_strategy(stream_len: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0..stream_len, 1usize..6, 1usize..4), 1..4).prop_map(|mut points| {
        points.sort_by_key(|p| p.0);
        points
    })
}

fn run(
    transactions: &[Transaction],
    config: &AnalyzerConfig,
    pipeline_config: PipelineConfig,
    schedule: &[(usize, usize, usize)],
) -> Vec<(ExtentPair, u32)> {
    let mut pipeline =
        IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config);
    let mut next = 0usize;
    for (i, t) in transactions.iter().enumerate() {
        while next < schedule.len() && schedule[next].0 == i {
            let (_, shards, routers) = schedule[next];
            pipeline.resize(shards, routers);
            next += 1;
        }
        pipeline.push_transaction(t.clone());
    }
    pipeline.finish().snapshot().frequent_pairs(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform stream, random resize points: the resized pipeline's
    /// frequent pairs equal the never-resized pipeline's.
    #[test]
    fn uniform_random_resizes_match_never_resized(
        txns in uniform_transactions_strategy(),
        start_shards in 1usize..6,
        start_routers in 1usize..4,
        schedule_seed in prop::collection::vec((0usize..120, 1usize..6, 1usize..4), 1..4),
    ) {
        let mut schedule: Vec<_> = schedule_seed
            .into_iter()
            .map(|(at, s, r)| (at % txns.len().max(1), s, r))
            .collect();
        schedule.sort_by_key(|p| p.0);
        let config = AnalyzerConfig::with_capacity(64 * 1024);
        let base = PipelineConfig::with_shards(start_shards)
            .routers(start_routers)
            .batch_size(16);
        let expected = run(&txns, &config, base.clone(), &[]);
        let resized = run(&txns, &config, base, &schedule);
        prop_assert_eq!(resized, expected);
    }

    /// Skewed stream with splitting engaged, random resize points: the
    /// splitting tracker's tallies must reconcile through every
    /// drain/re-seed, keeping merged counts exact.
    #[test]
    fn skewed_random_resizes_match_never_resized(
        txns in skewed_transactions_strategy(),
        schedule in schedule_strategy(600),
        start_shards in 1usize..6,
    ) {
        let split = SplitConfig { hot_fraction: 0.2, warmup: 32, ..SplitConfig::default() };
        let config = AnalyzerConfig::with_capacity(64 * 1024);
        let base = PipelineConfig::with_shards(start_shards)
            .batch_size(16)
            .split(split);
        let expected = run(&txns, &config, base.clone(), &[]);
        let resized = run(&txns, &config, base, &schedule);
        prop_assert_eq!(resized, expected);
    }
}
