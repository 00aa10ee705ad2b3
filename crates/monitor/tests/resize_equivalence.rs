//! End-to-end equivalence of elastic resize: a pipeline that grows or
//! shrinks its stage pools mid-stream must report exactly the
//! correlations of a pipeline that never resized — and of the paper's
//! single-threaded reference analyzer — on the skewed hot-pair
//! workload, with and without hot-pair splitting.

use rtdac_monitor::{IngestPipeline, MonitorConfig, PipelineConfig, SplitConfig};
use rtdac_synopsis::{Admission, AnalyzerConfig, ReferenceAnalyzer, ShardedAnalyzer};
use rtdac_types::{ExtentPair, Transaction};
use rtdac_workloads::SkewedSpec;

fn skewed_transactions() -> Vec<Transaction> {
    SkewedSpec::new()
        .transactions(4_000)
        .hot_fraction(0.4)
        .seed(42)
        .generate()
        .transactions
}

/// A resize point: after `at` transactions have been pushed, retarget
/// the pool to `shards` x `routers`.
type Schedule<'a> = &'a [(usize, usize, usize)];

/// Streams the workload through a pipeline, resizing at the scheduled
/// points, and returns the merged frequent-pair view plus final stats.
fn run_with_resizes(
    transactions: &[Transaction],
    config: &AnalyzerConfig,
    pipeline_config: PipelineConfig,
    schedule: Schedule,
) -> (
    Vec<(ExtentPair, u32)>,
    rtdac_monitor::PipelineStats,
    rtdac_synopsis::AnalyzerStats,
) {
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
    let stats = pipeline.stats();
    let analyzer = pipeline.finish();
    let analyzer_stats = analyzer.stats();
    (analyzer.snapshot().frequent_pairs(1), stats, analyzer_stats)
}

fn reference_pairs(
    transactions: &[Transaction],
    config: &AnalyzerConfig,
) -> Vec<(ExtentPair, u32)> {
    let mut reference = ReferenceAnalyzer::new(config.clone());
    for t in transactions {
        reference.process(t);
    }
    reference.snapshot().frequent_pairs(1)
}

#[test]
fn shard_resizes_match_never_resized_and_reference() {
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);
    let expected = reference_pairs(&transactions, &config);
    assert!(!expected.is_empty(), "workload produced no pairs");

    let third = transactions.len() / 3;
    // Each schedule exercises both directions; the start topology and
    // the schedule together cover grow-only, shrink-only and round-trip
    // shapes across shard counts 1..8.
    let cases: &[(usize, Schedule)] = &[
        (1, &[(third, 2, 1), (2 * third, 4, 1)]), // grow, grow
        (8, &[(third, 4, 1), (2 * third, 1, 1)]), // shrink, shrink
        (2, &[(third, 8, 2), (2 * third, 2, 1)]), // round trip
        (4, &[(1, 2, 1), (transactions.len() - 1, 8, 1)]), // edges of the stream
    ];
    for (start, schedule) in cases {
        let (pairs, stats, _) = run_with_resizes(
            &transactions,
            &config,
            PipelineConfig::with_shards(*start).batch_size(32),
            schedule,
        );
        assert_eq!(
            pairs, expected,
            "start {start} shards, schedule {schedule:?}"
        );
        assert_eq!(stats.resizes, schedule.len() as u64, "start {start} shards");
    }
}

#[test]
fn router_resizes_are_bit_exact_per_shard() {
    // Router resizes move no table state, and the per-epoch sequence
    // restart keeps the deal/fan-in alignment deterministic — so even
    // with tiny tables under eviction churn, every shard's state must
    // stay bit-identical to a sequential ShardedAnalyzer that never
    // resized (process_partition per shard, same record order).
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(32).item_capacity(16);
    let shards = 4usize;
    let third = transactions.len() / 3;

    let snapshots = |pipeline_config: PipelineConfig, schedule: Schedule| {
        let mut pipeline =
            IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config);
        let mut next = 0usize;
        for (i, t) in transactions.iter().enumerate() {
            while next < schedule.len() && schedule[next].0 == i {
                let (_, s, r) = schedule[next];
                pipeline.resize(s, r);
                next += 1;
            }
            pipeline.push_transaction(t.clone());
        }
        let analyzer = pipeline.finish();
        analyzer
            .shards()
            .iter()
            .map(|shard| shard.snapshot())
            .collect::<Vec<_>>()
    };

    let mut reference = ShardedAnalyzer::new(config.clone(), shards);
    for t in &transactions {
        reference.process(t);
    }
    let baseline: Vec<_> = reference
        .shards()
        .iter()
        .map(|shard| shard.snapshot())
        .collect();
    let resized = snapshots(
        PipelineConfig::with_shards(shards)
            .batch_size(32)
            .routers(1),
        &[(third, shards, 4), (2 * third, shards, 2)],
    );
    assert_eq!(resized, baseline, "router-only resizes diverged");
}

#[test]
fn resizes_with_splitting_stay_count_exact() {
    // The hardest path: hot-pair splitting is engaged, so shard resizes
    // must reconcile the splitting tracker's per-shard tallies through
    // the snapshot drain/re-seed — merged counts must stay exact.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);
    let expected = reference_pairs(&transactions, &config);
    let third = transactions.len() / 3;

    let split = SplitConfig {
        hot_fraction: 0.2, // the hot pair carries ~40% of records
        warmup: 64,
        ..SplitConfig::default()
    };
    for routers in [1usize, 2] {
        let (pairs, stats, analyzer_stats) = run_with_resizes(
            &transactions,
            &config,
            PipelineConfig::with_shards(2)
                .routers(routers)
                .batch_size(32)
                .split(split.clone()),
            &[(third, 4, routers), (2 * third, 2, routers)],
        );
        assert!(
            stats.split_records > 100,
            "{routers} routers: hot pair never split ({} records)",
            stats.split_records
        );
        assert_eq!(pairs, expected, "split, {routers} routers");
        // Tally reconciliation must not invent or lose pair records.
        let mut reference = ReferenceAnalyzer::new(config.clone());
        for t in &transactions {
            reference.process(t);
        }
        assert_eq!(analyzer_stats.pairs, reference.stats().pairs);
    }
}

#[test]
fn explicit_admission_off_matches_default_across_resizes() {
    // The resize path re-seeds shards through `split_across`, which
    // also carries the admission policy; an explicit `Admission::Off`
    // must replay a grow + shrink schedule to exactly the defaulted
    // config's report (and the reference's).
    let transactions = skewed_transactions();
    let defaulted = AnalyzerConfig::with_capacity(64 * 1024);
    let explicit = defaulted.clone().admission(Admission::Off);
    let expected = reference_pairs(&transactions, &defaulted);
    let third = transactions.len() / 3;
    let schedule: Schedule = &[(third, 4, 2), (2 * third, 2, 1)];

    for config in [&defaulted, &explicit] {
        let (pairs, _, stats) = run_with_resizes(
            &transactions,
            config,
            PipelineConfig::with_shards(2).routers(2).batch_size(32),
            schedule,
        );
        assert_eq!(pairs, expected, "admission {:?}", config.admission);
        assert_eq!(stats.pair_rejections, 0, "Off must reject nothing");
    }
}

#[test]
fn stats_stay_cumulative_across_resizes() {
    // Scalar stats must survive the pool teardown: transaction, batch
    // and record counts accumulate across epochs, and every resize is
    // recorded with its observed topology transition.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);
    let half = transactions.len() / 2;

    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        config,
        PipelineConfig::with_shards(2).routers(2).batch_size(32),
    );
    for t in &transactions[..half] {
        pipeline.push_transaction(t.clone());
    }
    let before = pipeline.stats();
    assert!(pipeline.resize(4, 1));
    for t in &transactions[half..] {
        pipeline.push_transaction(t.clone());
    }
    let after = pipeline.stats();

    assert_eq!(after.transactions, transactions.len() as u64);
    assert!(after.transactions > before.transactions);
    assert!(
        after.batches > before.batches,
        "batch count reset by resize"
    );
    assert_eq!(after.resizes, 1);
    assert!(after.resize_nanos > 0);
    // Epoch-local vectors reflect the *current* topology only.
    assert_eq!(after.routed_transactions.len(), 4);
    assert_eq!(after.shard_ring_highwater.len(), 4);

    let events = pipeline.resize_events().to_vec();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].from.to_string(), "2s x 2r");
    assert_eq!(events[0].to.to_string(), "4s x 1r");
    assert!(events[0].reseeded, "shard-count change must re-seed");

    let analyzer = pipeline.finish();
    assert_eq!(analyzer.stats().transactions, transactions.len() as u64);
}
