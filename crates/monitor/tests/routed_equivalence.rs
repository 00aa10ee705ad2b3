//! End-to-end equivalence of the routed ingestion pipeline: for every
//! shard count, router count and splitting setting, the pipeline must
//! report exactly the correlations the paper's single-threaded
//! reference analyzer finds — on the skewed hot-pair workload that
//! routing exists to serve — and leave every shard's tables identical
//! to a sequential [`ShardedAnalyzer`] over the same stream.

use rtdac_monitor::{IngestPipeline, MonitorConfig, PipelineConfig, SplitConfig};
use rtdac_synopsis::{Admission, AnalyzerConfig, ReferenceAnalyzer, ShardedAnalyzer};
use rtdac_types::Transaction;
use rtdac_workloads::SkewedSpec;

fn skewed_transactions() -> Vec<Transaction> {
    SkewedSpec::new()
        .transactions(4_000)
        .hot_fraction(0.4)
        .seed(42)
        .generate()
        .transactions
}

/// Runs the stream through a routed pipeline and returns the merged
/// frequent-pair view in canonical order.
fn run_pipeline(
    transactions: &[Transaction],
    config: &AnalyzerConfig,
    pipeline_config: PipelineConfig,
) -> (
    Vec<(rtdac_types::ExtentPair, u32)>,
    rtdac_monitor::PipelineStats,
) {
    let mut pipeline =
        IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config);
    for t in transactions {
        pipeline.push_transaction(t.clone());
    }
    let stats = pipeline.stats();
    let analyzer = pipeline.finish();
    (analyzer.snapshot().frequent_pairs(1), stats)
}

/// The per-shard reference: a sequential [`ShardedAnalyzer`] running
/// `process_partition` on every shard, transaction by transaction — the
/// same per-shard record order the pipeline's routed work lists replay.
fn sequential_shards(
    transactions: &[Transaction],
    config: &AnalyzerConfig,
    shards: usize,
) -> ShardedAnalyzer {
    let mut sharded = ShardedAnalyzer::new(config.clone(), shards);
    for t in transactions {
        sharded.process(t);
    }
    sharded
}

#[test]
fn routed_pipeline_matches_reference_on_skewed_workload() {
    let transactions = skewed_transactions();
    // Capacity above the stream's footprint: the reference oracle and
    // the online analyzer agree exactly when nothing overflows.
    let config = AnalyzerConfig::with_capacity(64 * 1024);

    let mut reference = ReferenceAnalyzer::new(config.clone());
    for t in &transactions {
        reference.process(t);
    }
    let expected = reference.snapshot().frequent_pairs(1);
    assert!(!expected.is_empty(), "workload produced no pairs");

    for shards in [1usize, 2, 4, 8] {
        let (pairs, _) = run_pipeline(
            &transactions,
            &config,
            PipelineConfig::with_shards(shards).batch_size(32),
        );
        assert_eq!(pairs, expected, "routed, {shards} shards");
    }
}

#[test]
fn split_pipeline_matches_reference_and_actually_splits() {
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);

    let mut reference = ReferenceAnalyzer::new(config.clone());
    for t in &transactions {
        reference.process(t);
    }
    let expected = reference.snapshot().frequent_pairs(1);

    for shards in [2usize, 4, 8] {
        let split = SplitConfig {
            hot_fraction: 0.2, // the hot pair carries ~40% of records
            warmup: 64,
            ..SplitConfig::default()
        };
        let (pairs, stats) = run_pipeline(
            &transactions,
            &config,
            PipelineConfig::with_shards(shards)
                .batch_size(32)
                .split(split),
        );
        // The split path must have actually engaged…
        assert!(
            stats.split_records > 100,
            "{shards} shards: hot pair never split ({} records)",
            stats.split_records
        );
        // …and the merged tallies must still be exact.
        assert_eq!(pairs, expected, "split, {shards} shards");
    }
}

#[test]
fn split_spreads_hot_work_across_shards() {
    // Under hash routing every hot-pair record lands on one shard; with
    // splitting the deterministic per-shard op counts must flatten out.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);
    let shards = 4usize;

    let imbalance = |stats: &rtdac_monitor::PipelineStats| {
        let ops = &stats.routed_ops;
        let max = *ops.iter().max().unwrap() as f64;
        let mean = ops.iter().sum::<u64>() as f64 / ops.len() as f64;
        max / mean
    };

    let (_, hashed) = run_pipeline(
        &transactions,
        &config,
        PipelineConfig::with_shards(shards).batch_size(32),
    );
    let split = SplitConfig {
        hot_fraction: 0.2,
        warmup: 64,
        ..SplitConfig::default()
    };
    let (_, spread) = run_pipeline(
        &transactions,
        &config,
        PipelineConfig::with_shards(shards)
            .batch_size(32)
            .split(split),
    );

    let (before, after) = (imbalance(&hashed), imbalance(&spread));
    assert!(
        after < before,
        "splitting did not improve balance: {before:.3} -> {after:.3}"
    );
    assert!(
        after < 1.5,
        "split max/mean per-shard work still skewed: {after:.3}"
    );
}

#[test]
fn parallel_routers_are_bit_exact_across_the_sweep() {
    // For R ∈ {1,2,4} × shards ∈ {1,2,4,8}, every shard's table state
    // is bit-identical to the sequential per-shard reference (and thus
    // to R = 1). Tiny tables force eviction churn, so any reordering in
    // the multi-router fan-in would surface as a snapshot diff.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(32).item_capacity(16);

    let snapshots = |pipeline_config: PipelineConfig| {
        let mut pipeline =
            IngestPipeline::new(MonitorConfig::default(), config.clone(), pipeline_config);
        for t in &transactions {
            pipeline.push_transaction(t.clone());
        }
        let analyzer = pipeline.finish();
        analyzer
            .shards()
            .iter()
            .map(|shard| shard.snapshot())
            .collect::<Vec<_>>()
    };

    for shards in [1usize, 2, 4, 8] {
        let reference: Vec<_> = sequential_shards(&transactions, &config, shards)
            .shards()
            .iter()
            .map(|shard| shard.snapshot())
            .collect();
        for routers in [1usize, 2, 4] {
            let routed = snapshots(
                PipelineConfig::with_shards(shards)
                    .batch_size(32)
                    .routers(routers),
            );
            assert_eq!(
                routed, reference,
                "{routers} routers x {shards} shards diverged from the sequential shards"
            );
        }
    }
}

#[test]
fn parallel_routers_with_splitting_stay_count_exact() {
    // Each parallel router owns a private hot-pair tracker that sees a
    // round-robin 1/R sample of the batch stream; whatever each one
    // decides, merge-time tally summation must keep frequent_pairs
    // count-exact against the single-threaded reference — and the hot
    // pair must still actually get split.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(64 * 1024);

    let mut reference = ReferenceAnalyzer::new(config.clone());
    for t in &transactions {
        reference.process(t);
    }
    let expected = reference.snapshot().frequent_pairs(1);

    for routers in [1usize, 2, 4] {
        let split = SplitConfig {
            hot_fraction: 0.2,
            warmup: 64,
            ..SplitConfig::default()
        };
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            PipelineConfig::with_shards(4)
                .routers(routers)
                .batch_size(32)
                .split(split),
        );
        for t in &transactions {
            pipeline.push_transaction(t.clone());
        }
        pipeline.flush_batch();
        // Parallel-router counters are eventually consistent; wait for
        // the routers to drain before checking that splitting engaged.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut split_records = pipeline.stats().split_records;
        while split_records <= 100 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
            split_records = pipeline.stats().split_records;
        }
        assert!(
            split_records > 100,
            "{routers} routers: hot pair never split ({split_records} records)"
        );
        let pairs = pipeline.finish().snapshot().frequent_pairs(1);
        assert_eq!(pairs, expected, "split with {routers} routers");
    }
}

#[test]
fn explicit_admission_off_is_bit_exact_with_default() {
    // Every config in this matrix leaves `admission` defaulted; the
    // default is `Admission::Off`, and spelling it out must change
    // nothing — per-shard snapshots stay bit-identical even under
    // eviction churn, across shard and router counts.
    let transactions = skewed_transactions();
    let defaulted = AnalyzerConfig::with_capacity(32).item_capacity(16);
    let explicit = defaulted.clone().admission(Admission::Off);

    let snapshots = |config: &AnalyzerConfig, shards: usize, routers: usize| {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            PipelineConfig::with_shards(shards)
                .routers(routers)
                .batch_size(32),
        );
        for t in &transactions {
            pipeline.push_transaction(t.clone());
        }
        let analyzer = pipeline.finish();
        analyzer
            .shards()
            .iter()
            .map(|shard| shard.snapshot())
            .collect::<Vec<_>>()
    };

    for (shards, routers) in [(1usize, 1usize), (4, 2)] {
        assert_eq!(
            snapshots(&defaulted, shards, routers),
            snapshots(&explicit, shards, routers),
            "explicit Admission::Off diverged at {shards} shards x {routers} routers"
        );
    }
}

#[test]
fn routed_and_sequential_shards_agree_under_table_overflow() {
    // Tiny tables force constant eviction; the routed pipeline (split
    // off) and the sequential per-shard reference must still produce
    // identical per-shard state, so the merged views agree too.
    let transactions = skewed_transactions();
    let config = AnalyzerConfig::with_capacity(32).item_capacity(16);

    for shards in [1usize, 2, 4, 8] {
        let reference = sequential_shards(&transactions, &config, shards)
            .snapshot()
            .frequent_pairs(1);
        let (routed, _) = run_pipeline(
            &transactions,
            &config,
            PipelineConfig::with_shards(shards).batch_size(32),
        );
        assert_eq!(reference, routed, "{shards} shards under overflow");
    }
}
