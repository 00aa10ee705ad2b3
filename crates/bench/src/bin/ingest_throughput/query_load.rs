//! The quiesce-free live-query sweep. Four independent measurements:
//!
//! 1. **Throughput under query load** — the threaded pipeline ingests
//!    the uniform stream while the driver thread issues live top-k
//!    queries at a wall-clock-scheduled rate; each query is one
//!    `poll_live` (fold published deltas) plus a `top_pairs_into`
//!    against the merged view, timed individually, with the epoch lag
//!    vs the dispatch frontier recorded after the fold.
//! 2. **Publish-cost retention, scheduler-free** — each shard's apply
//!    work timed alone (`stage_cpu_secs`-style, no threads) over
//!    pre-routed batches, with and without delta tracking + an
//!    extraction every epoch boundary into recycled buffers. Queries
//!    run on the reader and cost the shards nothing; what the shards
//!    pay for queryability is tracking + extraction, and that is what
//!    this ratio isolates.
//! 3. **Boundary exactness** — the live view, drained to the frontier
//!    at sampled mid-stream boundaries, must equal a quiesced
//!    `SynopsisSnapshot` of a second pipeline replaying the identical
//!    prefix.
//! 4. **Zero allocations** — a steady-state publish + query cycle
//!    under the counting allocator must not allocate.
//!
//! Sizing is equal-memory: `analyzer_config_for` reserves the live
//! structures' measured bytes out of the shared budget (fixed-point on
//! the measured footprint — live bytes are linear in table capacity).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rtdac_bench::experiments::fig15_sketch::{analyzer_config_for, BUDGET_SLACK};
use rtdac_bench::sweep::{self, median, percentile, Criterion, Obj};
use rtdac_monitor::{
    IngestPipeline, MonitorConfig, PipelineConfig, RoutedBatch, Router, RouterConfig,
};
use rtdac_synopsis::{AnalyzerConfig, LiveView, ShardDelta, ShardedAnalyzer, SynopsisSnapshot};
use rtdac_types::{Extent, ExtentPair, Timestamp, Transaction};

use crate::{Sweep, Workload, BATCH_SIZE, RING_CAPACITY};

/// Counting allocator backing the query-load sweep's zero-allocation
/// gate: tallies every `alloc`/`alloc_zeroed`/`realloc` (frees are not
/// counted — recycling is about never *needing* new memory). One
/// relaxed atomic increment per allocation; the timed hot paths are
/// allocation-free by design, so the counter never perturbs them.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for this call is passed to
        // the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for this call is passed to
        // the system allocator unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for this call is passed to
        // the system allocator unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for this call is passed to
        // the system allocator unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Query rates for the quiesce-free live-query sweep (queries/sec,
/// wall-clock scheduled on the driver thread; 0 = ingest-only
/// reference, publishing still on).
const QUERY_RATES: [u64; 4] = [0, 100, 1_000, 10_000];
/// Live top-k size served per query.
const QUERY_TOP_K: usize = 8;
/// Shard count for the query-load pipeline.
const QUERY_SHARDS: usize = 2;
/// Equal-memory budget for the query-load pipeline: the shard tables
/// (delta tracking included) plus the reader-side live structures
/// (mirrors + circulating delta buffers) together must land on it.
const QUERY_BUDGET: usize = 256 * 1024;
/// Scheduler-free shard stage CPU with epoch publishing enabled must
/// retain this fraction of the no-publish baseline.
const QUERY_RETENTION_FLOOR: f64 = 0.90;
/// p99 reader staleness ceiling, in publish intervals, at the gated
/// query rates (>= 1000 q/s — below that, staleness is bounded by the
/// client's own polling cadence, not by the publish protocol).
const QUERY_LAG_P99_CEILING: u64 = 1;

/// One query rate's measured row in the query-load sweep.
struct QueryRateRow {
    rate: u64,
    /// Queries actually issued (pooled across repetitions).
    queries: usize,
    elapsed_secs: f64,
    events_per_sec: f64,
    /// Query service latency percentiles (µs): poll + fold + top-k.
    latency_us: (f64, f64, f64),
    /// Reader staleness percentiles in publish intervals, measured
    /// right after each query's fold against the dispatch frontier.
    lag_p50: u64,
    lag_p99: u64,
    /// Per-run mean epoch publishes / skipped boundaries.
    epoch_publishes: u64,
    epoch_publish_skips: u64,
}

pub(crate) fn run(smoke: bool, repeat: usize, uniform: &Workload, skewed: &Workload) -> Sweep {
    // Interval >= ring capacity: the ring bounds how far a worker can
    // trail the dispatch frontier, so one interval of ring backlog plus
    // one partial interval keeps the post-fold staleness at <= 1 whole
    // interval whenever the reader polls at epoch cadence or faster.
    let publish_interval = if smoke { 8 } else { RING_CAPACITY };

    // Equal-memory sizing: live bytes scale linearly with table
    // capacity, so iterate reservation -> measured footprint to a
    // fixed point within the budget slack.
    let live_footprint = |config: &AnalyzerConfig| -> (usize, usize) {
        let mut shards = ShardedAnalyzer::new(config.clone(), QUERY_SHARDS).into_shards();
        let view = LiveView::new(config, QUERY_SHARDS, false);
        let mut live = view.memory_bytes();
        let mut tables = 0usize;
        for shard in &mut shards {
            shard.enable_delta_tracking();
            for _ in 0..2 {
                let mut buf = ShardDelta::default();
                shard.preallocate_delta(&mut buf);
                live += buf.memory_bytes();
            }
            tables += shard.table_memory_bytes();
        }
        (tables, live)
    };
    let at_parity = |total: usize| (1.0 - total as f64 / QUERY_BUDGET as f64).abs() <= BUDGET_SLACK;
    let mut live_reserve = QUERY_BUDGET / 2;
    let mut config = analyzer_config_for(QUERY_BUDGET, 0, live_reserve);
    let (mut tables_bytes, mut live_bytes) = live_footprint(&config);
    for _ in 0..8 {
        let total = tables_bytes + live_bytes;
        if at_parity(total) {
            break;
        }
        // Scale the tables' share of the budget by how far the measured
        // total overshot it.
        let tables_share = (QUERY_BUDGET - live_reserve) as f64 / total as f64;
        live_reserve = QUERY_BUDGET - (QUERY_BUDGET as f64 * tables_share) as usize;
        config = analyzer_config_for(QUERY_BUDGET, 0, live_reserve);
        (tables_bytes, live_bytes) = live_footprint(&config);
    }
    let budget_parity = at_parity(tables_bytes + live_bytes);

    let pipe_cfg = |publish: usize| {
        PipelineConfig::with_shards(QUERY_SHARDS)
            .batch_size(BATCH_SIZE)
            .ring_capacity(RING_CAPACITY)
            .publish_interval(publish)
    };

    // (1) Throughput + latency + freshness per query rate.
    let mut rows = Vec::new();
    for &rate in &QUERY_RATES {
        let mut elapsed_samples = Vec::with_capacity(repeat.max(1));
        let mut lat_pool: Vec<f64> = Vec::new();
        let mut lags: Vec<u64> = Vec::new();
        let mut publishes = 0u64;
        let mut skips = 0u64;
        for _rep in 0..repeat.max(1) {
            let mut pipeline = IngestPipeline::new(
                MonitorConfig::default(),
                config.clone(),
                pipe_cfg(publish_interval),
            );
            let mut top: Vec<(ExtentPair, u32)> = Vec::new();
            let query_gap = (rate > 0).then(|| Duration::from_nanos(1_000_000_000 / rate));
            let start = Instant::now();
            let mut next_query = start;
            for chunk in uniform.transactions.chunks(BATCH_SIZE) {
                let owned: Vec<Transaction> = chunk.to_vec();
                for t in owned {
                    pipeline.push_transaction(t);
                }
                let Some(gap) = query_gap else { continue };
                let now = Instant::now();
                if now < next_query {
                    continue;
                }
                let query_start = Instant::now();
                let folded = pipeline.poll_live().expect("publishing enabled");
                let view = pipeline.live_view_mut().expect("publishing enabled");
                view.top_pairs_into(QUERY_TOP_K, &mut top);
                std::hint::black_box(&top);
                lat_pool.push(query_start.elapsed().as_secs_f64() * 1e6);
                lags.push(folded.lag_intervals(pipeline.frontier_epoch(), publish_interval as u64));
                next_query += gap;
                // A long batch can cover several query slots; skip the
                // missed ones rather than bursting to catch up.
                while next_query <= now {
                    next_query += gap;
                }
            }
            pipeline.flush_batch();
            elapsed_samples.push(start.elapsed().as_secs_f64());
            let stats = pipeline.stats();
            publishes += stats.epoch_publishes;
            skips += stats.epoch_publish_skips;
            let analyzer = pipeline.finish();
            std::hint::black_box(analyzer.stats());
        }
        let elapsed = median(&elapsed_samples);
        lat_pool.sort_by(|a, b| a.total_cmp(b));
        lags.sort_unstable();
        let reps = repeat.max(1) as u64;
        rows.push(QueryRateRow {
            rate,
            queries: lat_pool.len(),
            elapsed_secs: elapsed,
            events_per_sec: uniform.events as f64 / elapsed,
            latency_us: (
                percentile(&lat_pool, 50),
                percentile(&lat_pool, 95),
                percentile(&lat_pool, 99),
            ),
            lag_p50: percentile(&lags, 50),
            lag_p99: percentile(&lags, 99),
            epoch_publishes: publishes / reps,
            epoch_publish_skips: skips / reps,
        });
    }

    // (2) Scheduler-free publish-cost retention over pre-routed batches.
    let mut router = Router::new(RouterConfig::new(QUERY_SHARDS));
    let batches: Vec<RoutedBatch> = uniform
        .transactions
        .chunks(BATCH_SIZE)
        .map(|chunk| router.route(chunk.to_vec()))
        .collect();
    let stage = |publish: bool| -> f64 {
        let mut reps_out = Vec::with_capacity(repeat.max(1));
        for _rep in 0..repeat.max(1) {
            let mut total = 0.0;
            for index in 0..QUERY_SHARDS {
                let mut shard = ShardedAnalyzer::new(config.clone(), QUERY_SHARDS)
                    .into_shards()
                    .swap_remove(index);
                let mut bufs: Vec<ShardDelta> = Vec::new();
                if publish {
                    shard.enable_delta_tracking();
                    for _ in 0..2 {
                        let mut buf = ShardDelta::default();
                        shard.preallocate_delta(&mut buf);
                        bufs.push(buf);
                    }
                }
                let start = Instant::now();
                for (i, batch) in batches.iter().enumerate() {
                    batch.per_shard[index].apply(&mut shard);
                    if publish && (i + 1) % publish_interval == 0 {
                        // Rotate through the double buffer exactly as a
                        // keeping-up reader (>= epoch cadence) would
                        // recycle it.
                        let buf = &mut bufs[(i / publish_interval) % 2];
                        buf.clear();
                        shard.extract_delta(buf);
                        std::hint::black_box(&*buf);
                    }
                }
                total += start.elapsed().as_secs_f64();
            }
            reps_out.push(total);
        }
        median(&reps_out)
    };
    let baseline_stage_secs = stage(false);
    let publish_stage_secs = stage(true);

    // (3) Boundary exactness on the skewed stream (hot pairs, constant
    // table churn): drain the live view to the frontier at sampled
    // boundaries and compare bit-for-bit against a quiesced snapshot of
    // the identical prefix. A denser epoch cadence than the timed runs
    // so even the smoke stream crosses many boundaries.
    let exact_interval = 4;
    let mut exact = true;
    let mut exact_samples = 0usize;
    {
        let mut live = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            pipe_cfg(exact_interval),
        );
        let third = skewed.transactions.len() / 3;
        let samples = [third, 2 * third, skewed.transactions.len()];
        for (i, t) in skewed.transactions.iter().enumerate() {
            live.push_transaction(t.clone());
            if !samples.contains(&(i + 1)) {
                continue;
            }
            exact_samples += 1;
            live.flush_batch();
            let target = live.frontier_epoch();
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let folded = live.poll_live().expect("publishing enabled");
                if folded >= target {
                    break;
                }
                if Instant::now() >= deadline {
                    exact = false;
                    break;
                }
                // Heartbeats carry no records: they only hand the
                // workers empty work items to cross boundaries on.
                live.heartbeat();
                std::thread::sleep(Duration::from_micros(100));
            }
            let mut oracle =
                IngestPipeline::new(MonitorConfig::default(), config.clone(), pipe_cfg(0));
            for t in &skewed.transactions[..i + 1] {
                oracle.push_transaction(t.clone());
            }
            let expected = SynopsisSnapshot::capture(oracle.finish().shards());
            let view = live.live_view().expect("publishing enabled");
            exact &= view.snapshot() == expected;
        }
        live.finish();
    }

    let zero_alloc = publish_query_zero_alloc();
    let stage_retention = baseline_stage_secs / publish_stage_secs;

    println!(
        "\n  [query_load] live queries against the epoch-published view ({QUERY_SHARDS} shards \
         routed, publish every {publish_interval} batches, {} KB equal-memory budget: tables \
         {tables_bytes} + live {live_bytes} bytes)",
        QUERY_BUDGET / 1024,
    );
    println!(
        "  {:>9} {:>8} {:>14} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "queries/s",
        "queries",
        "events/s",
        "p50 query",
        "p95 query",
        "p99 query",
        "lag p50",
        "lag p99"
    );
    for r in &rows {
        println!(
            "  {:>9} {:>8} {:>14.0} {:>8.1}µs {:>8.1}µs {:>8.1}µs {:>8} {:>8}",
            r.rate,
            r.queries,
            r.events_per_sec,
            r.latency_us.0,
            r.latency_us.1,
            r.latency_us.2,
            r.lag_p50,
            r.lag_p99,
        );
    }
    println!(
        "  stage CPU (scheduler-free, per-shard apply summed): baseline {:.3} ms, \
         publishing {:.3} ms -> retention {stage_retention:.3}",
        baseline_stage_secs * 1e3,
        publish_stage_secs * 1e3,
    );

    // Freshness is gated at >= 1000 q/s: below that, staleness is
    // bounded by the client's own polling cadence, not by the publish
    // protocol. No sampled gated rate reads as NaN, which fails.
    let gated_lag = rows
        .iter()
        .filter(|r| r.rate >= 1_000 && r.queries > 0)
        .map(|r| r.lag_p99 as f64)
        .reduce(f64::max)
        .unwrap_or(f64::NAN);
    let retention = Criterion::at_least(
        "query_load shard stage CPU retention with publishing on",
        stage_retention,
        QUERY_RETENTION_FLOOR,
    )
    .full_only(smoke);
    let lag = Criterion::at_most(
        "query_load p99 epoch lag (publish intervals) at >= 1000 q/s",
        gated_lag,
        QUERY_LAG_P99_CEILING as f64,
    )
    .full_only(smoke);
    let lag_within_bound = lag.pass();
    let criteria = vec![
        Criterion::holds(
            "query_load LiveView bit-exact to a quiesced snapshot at sampled epoch boundaries",
            exact,
        ),
        Criterion::holds(
            "query_load steady-state publish+query cycle allocation-free",
            zero_alloc,
        ),
        Criterion::holds(
            "query_load tables + live structures at byte parity with the budget",
            budget_parity,
        ),
        retention,
        lag,
    ];

    let json = Obj::new()
        .field(
            "notes",
            "live queries against the epoch-published LiveView while the routed pipeline \
             ingests at full speed: each query polls the delta rings, folds into the merged \
             mirrors, and serves a top-k — latency percentiles time that whole cycle on the \
             driver thread; lag percentiles are the folded epoch's staleness vs the dispatch \
             frontier in publish intervals, sampled after each fold; stage retention is \
             scheduler-free — per-shard apply over pre-routed batches timed alone, with vs \
             without delta tracking + an extraction every epoch boundary into recycled \
             buffers (what the shards pay for queryability; reader-side query cost never \
             touches them); sizing is equal-memory via analyzer_config_for's live_bytes \
             reservation (tables incl. tracking + mirrors + circulating delta buffers land \
             on the shared budget); boundary exactness, the zero-allocation publish+query \
             gate, and byte parity gate in smoke mode too, retention and p99 freshness (at \
             >= 1000 q/s) in full runs only",
        )
        .field("shards", QUERY_SHARDS)
        .field("publish_interval_batches", publish_interval)
        .field("budget_bytes", QUERY_BUDGET)
        .field("tables_bytes", tables_bytes)
        .field("live_view_bytes", live_bytes)
        .field("budget_parity", budget_parity)
        .field(
            "rates",
            rows.iter()
                .map(|r| {
                    Obj::new()
                        .field("queries_per_sec", r.rate)
                        .field("queries", r.queries)
                        .num("elapsed_secs", r.elapsed_secs, 6)
                        .num("events_per_sec", r.events_per_sec, 0)
                        .num("query_p50_us", r.latency_us.0, 2)
                        .num("query_p95_us", r.latency_us.1, 2)
                        .num("query_p99_us", r.latency_us.2, 2)
                        .field("epoch_lag_p50", r.lag_p50)
                        .field("epoch_lag_p99", r.lag_p99)
                        .field("epoch_publishes", r.epoch_publishes)
                        .field("epoch_publish_skips", r.epoch_publish_skips)
                })
                .collect::<Vec<_>>(),
        )
        .num("stage_cpu_baseline_secs", baseline_stage_secs, 6)
        .num("stage_cpu_publishing_secs", publish_stage_secs, 6)
        .num("stage_cpu_retention", stage_retention, 4)
        .num("retention_floor", QUERY_RETENTION_FLOOR, 1)
        .field("lag_p99_ceiling_intervals", QUERY_LAG_P99_CEILING)
        .field("lag_within_bound", lag_within_bound)
        .field("boundary_exact", exact)
        .field("boundary_samples", exact_samples)
        .field("publish_query_zero_alloc", zero_alloc)
        .field("met", sweep::met(&criteria));
    (json, criteria)
}

/// Steady-state allocation gate for the publish + query paths: after a
/// warmup long enough for every pool to prime (delta buffers, mirror
/// tables, query scratch), a measured window of publish-under-query
/// cycles must not allocate. Same discipline as the workspace's
/// zero-alloc test suite, run here so the JSON records the gate.
fn publish_query_zero_alloc() -> bool {
    // 64 distinct two-extent transactions per cycle, all pairs well
    // under the table capacity: after the first pass every record is a
    // table hit. Streams are built *before* the counter snapshot —
    // constructing a transaction is the caller's cost.
    let stream = |cycles: usize| -> Vec<Transaction> {
        let mut out = Vec::with_capacity(cycles * 64);
        for c in 0..cycles as u64 {
            for i in 0..64u64 {
                out.push(Transaction::from_extents(
                    Timestamp::from_micros(c * 64 + i),
                    [
                        Extent::new(100 + i * 10, 4).expect("valid extent"),
                        Extent::new(10_000 + i * 10, 4).expect("valid extent"),
                    ],
                ));
            }
        }
        out
    };
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        AnalyzerConfig::with_capacity(4096),
        PipelineConfig::with_shards(QUERY_SHARDS)
            .batch_size(16)
            .ring_capacity(8)
            .publish_interval(2),
    );
    let warmup = stream(200);
    let measured = stream(100);
    let probe = Extent::new(100, 4).expect("valid extent");
    let mut pairs: Vec<(ExtentPair, u32)> = Vec::new();
    let mut top: Vec<(ExtentPair, u32)> = Vec::new();
    let mut run = |pipeline: &mut IngestPipeline, transactions: Vec<Transaction>| {
        for (i, t) in transactions.into_iter().enumerate() {
            pipeline.push_transaction(t);
            if i % 16 == 0 {
                pipeline.poll_live().expect("publishing enabled");
                let view = pipeline.live_view_mut().expect("publishing enabled");
                view.frequent_pairs_into(1, &mut pairs);
                view.top_pairs_into(QUERY_TOP_K, &mut top);
                std::hint::black_box(view.item_tally(&probe));
            }
        }
        pipeline.flush_batch();
    };
    run(&mut pipeline, warmup);
    std::thread::sleep(Duration::from_millis(100));
    pipeline.poll_live();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run(&mut pipeline, measured);
    std::thread::sleep(Duration::from_millis(100));
    pipeline.poll_live();
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    let published = pipeline.stats().epoch_publishes > 0;
    let full_view = pairs.len() == 64 && top.len() == QUERY_TOP_K;
    pipeline.finish();
    after == before && published && full_view
}
