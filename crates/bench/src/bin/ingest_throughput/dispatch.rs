//! The dispatch grid. Measured configurations, all consuming identical
//! transaction streams:
//!
//! * `reference` — the preserved pre-optimization analyzer
//!   ([`ReferenceAnalyzer`]: SipHash maps, allocating hot path, O(N²)
//!   dedup, on `MapTable`). This is the speedup baseline, so the numbers
//!   stay honest on machines without hardware thread parallelism.
//! * `optimized` — the tuned single-threaded [`OnlineAnalyzer`].
//! * `pipeline` × mode ∈ {routed, routed_split} × shards × routers — the
//!   threaded [`IngestPipeline`]. Routed computes each transaction's
//!   pair set once and ships per-shard work lists; routed_split
//!   additionally deals hot pairs round-robin. R parallel routers each
//!   handle the 1/R round-robin slice of the batch sequence.
//! * per-shard partitioning — every shard of a sequential
//!   [`ShardedAnalyzer`] timed alone running `process_partition` over
//!   the full stream (N× total CPU): the "broadcast" side of the
//!   routed-vs-broadcast figures.
//!
//! For each pipeline config three quantities are measured separately:
//!
//! * wall-clock of the full threaded run;
//! * the **one-core-per-stage model**: each stage timed alone on
//!   pre-partitioned input — every shard's apply work, and each router's
//!   1/R slice of the batch stream (`route_into` over borrowed chunks,
//!   recycled buffers, no clones in the timed loop). The modelled rate
//!   is `events / max(busiest router slice, slowest shard)`;
//! * per-batch enqueue latency percentiles with ring-full backpressure
//!   stalls **subtracted** (stall time is queueing delay, reported
//!   separately). Batch clones happen *before* each latency window
//!   opens — building the input is the caller's cost.

use std::time::Instant;

use rtdac_bench::sweep::{self, percentile, Criterion, Obj};
use rtdac_monitor::{
    IngestPipeline, MonitorConfig, PipelineConfig, RoutedBatch, Router, RouterConfig, SplitConfig,
    WorkList,
};
use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer, ReferenceAnalyzer, ShardedAnalyzer};
use rtdac_types::{ExtentPair, Transaction};

use crate::{split_config, Workload, BATCH_SIZE, RING_CAPACITY};

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Shard counts timed for per-shard partitioning: the 8-shard total-CPU
/// and 4-shard critical-path figures compare against them.
const BROADCAST_SHARDS: [usize; 2] = [4, 8];
const ROUTER_SWEEP: [usize; 3] = [1, 2, 4];
/// Routed p99 per-batch service latency ceiling (µs). The event-driven
/// park/wake protocol must keep the tail under this. The criterion is
/// evaluated over the parallel-router rows (R >= 2): with R = 1 the
/// routing stage still runs 35–85 µs of CPU on the caller's thread
/// inside the latency window, and on a busy host that long a window
/// regularly catches a multi-millisecond scheduler round through the
/// shard workers — a measurement artifact of inline routing, not of the
/// rings (the R >= 2 rows, where enqueue is a pure ring handoff, sit at
/// single-digit µs). The inline maximum is still printed.
const ROUTED_P99_CEILING_US: f64 = 500.0;
/// Routed-vs-optimized total-CPU ceiling: the routed stage sum lands at
/// 1.3–1.6x the single-threaded optimized analyzer, while broadcast
/// (every shard re-dedups and re-hashes the full stream) sits near 3.5x.
const ROUTED_CPU_RATIO_CEILING: f64 = 1.75;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Routed,
    RoutedSplit,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Routed => "pipeline_routed",
            Mode::RoutedSplit => "pipeline_routed_split",
        }
    }

    fn split(self) -> Option<SplitConfig> {
        match self {
            Mode::Routed => None,
            Mode::RoutedSplit => Some(split_config()),
        }
    }

    fn router_config(self, shards: usize) -> RouterConfig {
        RouterConfig::new(shards).split_opt(self.split())
    }
}

/// One grid row.
struct Measurement {
    workload: &'static str,
    name: &'static str,
    shards: usize,
    routers: usize,
    events_per_sec: f64,
    elapsed_secs: f64,
    /// Threaded pipeline rows only.
    stages: Option<Stages>,
}

/// A pipeline row's stage timings and routing counters.
struct Stages {
    /// Per-batch enqueue latency percentiles with stall time subtracted.
    batch_p50_us: f64,
    batch_p99_us: f64,
    /// Mean ring-full stall time (ms) and stall count per run.
    stall_ms: f64,
    stall_count: f64,
    /// Slowest single stage timed alone: the one-core-per-stage model.
    critical_path_secs: f64,
    /// Busiest single router's 1/R slice routed alone.
    routing_secs: f64,
    /// Sum of all R router slices.
    routing_cpu_secs: f64,
    /// Busiest shard's apply stage timed alone.
    slowest_shard_secs: f64,
    /// Every stage's time summed: total CPU work, free of scheduler and
    /// backoff artifacts, unlike the threaded wall clock.
    stage_cpu_secs: f64,
    /// Deterministic per-shard routed record and transaction counts.
    routed_ops: Vec<u64>,
    routed_transactions: Vec<u64>,
}

impl Measurement {
    fn pipeline(&self) -> &Stages {
        self.stages.as_ref().expect("pipeline row")
    }

    fn json(&self, events: usize, baseline: f64) -> Obj {
        let speedup = self.events_per_sec / baseline;
        let mut row = Obj::new()
            .field("workload", self.workload)
            .field("name", self.name)
            .field("shards", self.shards)
            .field("routers", self.routers)
            .field("threaded", self.stages.is_some())
            .num("elapsed_secs", self.elapsed_secs, 6)
            .num("events_per_sec", self.events_per_sec, 0)
            .num("speedup_vs_reference", speedup, 3);
        if let Some(s) = &self.stages {
            let modelled = events as f64 / s.critical_path_secs;
            row = row
                .num("batch_service_p50_us", s.batch_p50_us, 2)
                .num("batch_service_p99_us", s.batch_p99_us, 2)
                .num("stall_ms", s.stall_ms, 3)
                .num("stall_count", s.stall_count, 1)
                .num("shard_critical_path_secs", s.critical_path_secs, 6)
                .num("events_per_sec_one_core_per_shard", modelled, 0)
                .num(
                    "one_core_per_shard_speedup_vs_reference",
                    modelled / baseline,
                    3,
                )
                .num("routing_secs", s.routing_secs, 6)
                .num("routing_cpu_secs", s.routing_cpu_secs, 6)
                .num("slowest_shard_secs", s.slowest_shard_secs, 6)
                .num("stage_cpu_secs", s.stage_cpu_secs, 6)
                .field("routed_ops_per_shard", s.routed_ops.clone())
                .num("work_ratio_max_over_mean", work_ratio(&s.routed_ops), 3)
                .field(
                    "routed_transactions_per_shard",
                    s.routed_transactions.clone(),
                );
        }
        if self.workload == "skewed" && speedup < 1.0 {
            row = row.field(
                "reference_note",
                "reference is anomalously fast on this tiny skewed trace — the hot \
                 working set is cache-resident, so its SipHash maps never miss; compare \
                 the one-core-per-stage rates instead",
            );
        }
        row
    }
}

/// What the grid hands the rest of the harness.
pub(crate) struct Grid {
    pub configs: Vec<Obj>,
    /// The one-core-per-stage model note and the measured threaded
    /// scaling beside it.
    pub model: Obj,
    pub criteria: Vec<Criterion>,
    /// Skewed routed_split `(shards, routers, critical path secs)` over
    /// the full shard × router sweep: the static surface the adaptive
    /// controller is judged against.
    pub skew_grid: Vec<(usize, usize, f64)>,
    /// Uniform 4-shard R=1 one-core-per-shard rate (model).
    pub four_shard_events_per_sec: f64,
    /// Uniform `reference` analyzer rate.
    pub reference_events_per_sec: f64,
}

/// max / mean of the per-shard routed op counts — the load-balance
/// figure of merit for the skewed criterion.
fn work_ratio(ops: &[u64]) -> f64 {
    let max = ops.iter().copied().max().unwrap_or(0) as f64;
    let mean = ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    max / mean
}

pub(crate) fn run(
    smoke: bool,
    repeat: usize,
    config: &AnalyzerConfig,
    workloads: [&Workload; 2],
    skewed_pairs: &[(ExtentPair, u32)],
) -> Grid {
    // One entry per timed configuration. Repetitions are *interleaved*
    // (rep loop outside, configs inside): on a virtualized host,
    // steal-time regimes last seconds, so back-to-back samples of one
    // config share the same bias — spreading each config's samples
    // across the whole run makes the medians comparable.
    #[derive(Clone, Copy, PartialEq)]
    enum Cfg {
        Reference(usize),                        // workload index
        Optimized(usize),                        // workload index
        Pipeline(usize, Mode, usize, usize),     // workload, mode, shards, routers
        Route(usize, Mode, usize, usize, usize), // workload, mode, shards, slice, router count
        ShardBroadcast(usize, usize, usize),     // workload, shards, index
        ShardRouted(usize, Mode, usize, usize),  // workload, mode, shards, index
    }

    // Uniform gets the full shard × router sweep in routed mode, plus
    // the per-shard partitioning timings at the two shard counts the
    // routed-vs-broadcast figures compare; the skewed stream is the
    // 4-shard load-balance experiment, and its routed_split stage
    // timings span the whole sweep (the static surface the adaptive
    // controller is judged against). A stage timed once serves every
    // config that shares it: non-split routing is a pure per-batch
    // function, so the per-shard work lists are identical for any R.
    let mut cfgs: Vec<Cfg> = Vec::new();
    let mut add = |cfg: Cfg| {
        if !cfgs.contains(&cfg) {
            cfgs.push(cfg);
        }
    };
    // A pipeline's stages: each router's 1/R slice, each shard's apply.
    let stages = |w, mode, shards, routers| {
        (0..routers)
            .map(move |slice| Cfg::Route(w, mode, shards, slice, routers))
            .chain((0..shards).map(move |index| Cfg::ShardRouted(w, mode, shards, index)))
    };
    for w in 0..2 {
        add(Cfg::Reference(w));
        add(Cfg::Optimized(w));
    }
    for shards in BROADCAST_SHARDS {
        (0..shards).for_each(|index| add(Cfg::ShardBroadcast(0, shards, index)));
    }
    for shards in SHARD_SWEEP {
        for routers in ROUTER_SWEEP {
            add(Cfg::Pipeline(0, Mode::Routed, shards, routers));
            stages(0, Mode::Routed, shards, routers).for_each(&mut add);
        }
    }
    for mode in [Mode::Routed, Mode::RoutedSplit] {
        add(Cfg::Pipeline(1, mode, 4, 1));
        stages(1, mode, 4, 1).for_each(&mut add);
    }
    for shards in SHARD_SWEEP {
        for routers in ROUTER_SWEEP {
            stages(1, Mode::RoutedSplit, shards, routers).for_each(&mut add);
        }
    }

    // Pre-routed batches per (workload, mode, shards), shared by the
    // ShardRouted timings so the routing stage is excluded from shard
    // service time. Routing is deterministic, so one routing pass also
    // supplies the per-shard work counters.
    type Prerouted = ((usize, Mode, usize), Vec<RoutedBatch>, Vec<u64>, Vec<u64>);
    let mut routed_batches: Vec<Prerouted> = Vec::new();
    for cfg in &cfgs {
        if let Cfg::Route(w, mode, shards, _, _) = *cfg {
            let key = (w, mode, shards);
            if routed_batches.iter().any(|(k, ..)| *k == key) {
                continue;
            }
            let mut router = Router::new(mode.router_config(shards));
            let batches: Vec<RoutedBatch> = workloads[w]
                .transactions
                .chunks(BATCH_SIZE)
                .map(|chunk| router.route(chunk.to_vec()))
                .collect();
            let stats = router.stats();
            routed_batches.push((
                key,
                batches,
                stats.routed_ops.clone(),
                stats.routed_transactions.clone(),
            ));
        }
    }
    let prerouted = |w: usize, mode: Mode, shards: usize| {
        routed_batches
            .iter()
            .find(|(k, ..)| *k == (w, mode, shards))
            .expect("prerouted batches")
    };

    let mut samples: Vec<Vec<f64>> = (0..cfgs.len()).map(|_| Vec::new()).collect();
    // Pooled per-batch service latencies (µs, stalls subtracted) and
    // stall totals, one pool per Pipeline slot.
    let mut latencies: Vec<Vec<f64>> = (0..cfgs.len()).map(|_| Vec::new()).collect();
    let mut stall_totals: Vec<(f64, u64)> = vec![(0.0, 0); cfgs.len()];

    for _rep in 0..repeat.max(1) {
        for (slot, cfg) in cfgs.iter().enumerate() {
            let elapsed = match *cfg {
                Cfg::Reference(w) => {
                    let mut analyzer = ReferenceAnalyzer::new(config.clone());
                    let start = Instant::now();
                    for t in &workloads[w].transactions {
                        analyzer.process(t);
                    }
                    start.elapsed().as_secs_f64()
                }
                Cfg::Optimized(w) => {
                    let mut analyzer = OnlineAnalyzer::new(config.clone());
                    let start = Instant::now();
                    for t in &workloads[w].transactions {
                        analyzer.process(t);
                    }
                    start.elapsed().as_secs_f64()
                }
                Cfg::Pipeline(w, mode, shards, routers) => {
                    let mut pipeline = IngestPipeline::new(
                        MonitorConfig::default(),
                        config.clone(),
                        PipelineConfig {
                            split: mode.split(),
                            ..PipelineConfig::with_shards(shards)
                                .routers(routers)
                                .batch_size(BATCH_SIZE)
                                .ring_capacity(RING_CAPACITY)
                        },
                    );
                    let start = Instant::now();
                    let mut stall_before = 0u64;
                    for chunk in workloads[w].transactions.chunks(BATCH_SIZE) {
                        // Clone the batch *before* the latency window:
                        // input construction is the caller's cost.
                        let owned: Vec<Transaction> = chunk.to_vec();
                        let batch_start = Instant::now();
                        for t in owned {
                            pipeline.push_transaction(t);
                        }
                        let wall_us = batch_start.elapsed().as_secs_f64() * 1e6;
                        let stall_after = pipeline.stats().stall_nanos;
                        let stall_us = (stall_after - stall_before) as f64 / 1e3;
                        stall_before = stall_after;
                        // Service latency: enqueue wall time minus time
                        // blocked on full rings.
                        latencies[slot].push((wall_us - stall_us).max(0.0));
                    }
                    let stats = pipeline.stats();
                    stall_totals[slot].0 += stats.stall_nanos as f64 / 1e6;
                    stall_totals[slot].1 += stats.stalls;
                    let analyzer = pipeline.finish();
                    assert_eq!(
                        analyzer.stats().transactions,
                        workloads[w].transactions.len() as u64,
                        "pipeline lost transactions"
                    );
                    start.elapsed().as_secs_f64()
                }
                Cfg::Route(w, mode, shards, slice, router_count) => {
                    // One router worker's stage: route its 1/R
                    // round-robin slice of the batch sequence into
                    // recycled per-shard buffers — borrowed chunks, no
                    // clones, exactly the production `route_into` path.
                    let mut router = Router::new(mode.router_config(shards));
                    let mut staged: Vec<WorkList> =
                        (0..shards).map(|_| WorkList::default()).collect();
                    let chunks: Vec<&[Transaction]> = workloads[w]
                        .transactions
                        .chunks(BATCH_SIZE)
                        .enumerate()
                        .filter(|(i, _)| i % router_count == slice)
                        .map(|(_, c)| c)
                        .collect();
                    let start = Instant::now();
                    for chunk in &chunks {
                        router.route_into(chunk, &mut staged);
                        std::hint::black_box(&staged);
                    }
                    start.elapsed().as_secs_f64()
                }
                Cfg::ShardBroadcast(w, shards, index) => {
                    let mut shard = ShardedAnalyzer::new(config.clone(), shards)
                        .into_shards()
                        .swap_remove(index);
                    let start = Instant::now();
                    for t in &workloads[w].transactions {
                        shard.process_partition(t, index, shards);
                    }
                    start.elapsed().as_secs_f64()
                }
                Cfg::ShardRouted(w, mode, shards, index) => {
                    let (_, batches, ..) = prerouted(w, mode, shards);
                    let mut shard = ShardedAnalyzer::new(config.clone(), shards)
                        .into_shards()
                        .swap_remove(index);
                    let start = Instant::now();
                    for batch in batches {
                        batch.per_shard[index].apply(&mut shard);
                    }
                    start.elapsed().as_secs_f64()
                }
            };
            samples[slot].push(elapsed);
        }
    }

    // The slowest of `count` stage timings, `stage(0..count)`, and their
    // sum (looked up by key, not by position in cfgs).
    let stage_times = |count: usize, stage: &dyn Fn(usize) -> Cfg| -> (f64, f64) {
        let times: Vec<f64> = (0..count)
            .map(|i| {
                let slot = cfgs.iter().position(|c| *c == stage(i));
                sweep::median(&samples[slot.expect("timed stage")])
            })
            .collect();
        (
            times.iter().copied().fold(0.0f64, f64::max),
            times.iter().sum(),
        )
    };

    let mut results: Vec<Measurement> = Vec::new();
    for (slot, cfg) in cfgs.iter().enumerate() {
        let elapsed = sweep::median(&samples[slot]);
        let simple = |w: usize, name| Measurement {
            workload: workloads[w].name,
            name,
            shards: 1,
            routers: 1,
            events_per_sec: workloads[w].events as f64 / elapsed,
            elapsed_secs: elapsed,
            stages: None,
        };
        match *cfg {
            Cfg::Reference(w) => results.push(simple(w, "reference")),
            Cfg::Optimized(w) => results.push(simple(w, "optimized")),
            Cfg::Pipeline(w, mode, shards, routers) => {
                let mut pool = latencies[slot].clone();
                pool.sort_by(|a, b| a.total_cmp(b));
                let reps = repeat.max(1) as f64;
                let (stall_ms, stall_count) = stall_totals[slot];
                let (routing, routing_cpu) = stage_times(routers, &|slice| {
                    Cfg::Route(w, mode, shards, slice, routers)
                });
                let (slowest_shard, shard_cpu) =
                    stage_times(shards, &|index| Cfg::ShardRouted(w, mode, shards, index));
                let (_, _, ops, txns) = prerouted(w, mode, shards);
                results.push(Measurement {
                    name: mode.name(),
                    shards,
                    routers,
                    stages: Some(Stages {
                        batch_p50_us: percentile(&pool, 50),
                        batch_p99_us: percentile(&pool, 99),
                        stall_ms: stall_ms / reps,
                        stall_count: stall_count as f64 / reps,
                        // One core per stage: the pipeline sustains the
                        // rate of its slowest stage.
                        critical_path_secs: slowest_shard.max(routing),
                        routing_secs: routing,
                        routing_cpu_secs: routing_cpu,
                        slowest_shard_secs: slowest_shard,
                        stage_cpu_secs: shard_cpu + routing_cpu,
                        routed_ops: ops.clone(),
                        routed_transactions: txns.clone(),
                    }),
                    ..simple(w, "")
                });
            }
            Cfg::Route(..) | Cfg::ShardBroadcast(..) | Cfg::ShardRouted(..) => {}
        }
    }

    let [uniform, skewed] = workloads;
    let find = |workload: &str, name: &str, shards: usize, routers: usize| {
        results
            .iter()
            .find(|m| {
                m.workload == workload
                    && m.name == name
                    && m.shards == shards
                    && m.routers == routers
            })
            .unwrap_or_else(|| panic!("{workload} {name} {shards}s x {routers}r"))
    };
    let modelled_rate = |m: &Measurement| uniform.events as f64 / m.pipeline().critical_path_secs;
    let uniform_routed = |shards, routers| find("uniform", "pipeline_routed", shards, routers);
    let reference = find("uniform", "reference", 1, 1);
    let optimized = find("uniform", "optimized", 1, 1);
    // The broadcast side: each shard's sequential process_partition
    // pass over the full uniform stream, timed alone.
    let broadcast = |shards| stage_times(shards, &|index| Cfg::ShardBroadcast(0, shards, index));

    // Routed total CPU (every stage timed alone, no threads — wall time
    // on an oversubscribed host measures the scheduler as much as the
    // work) against the single-threaded optimized analyzer, on the
    // single-router 8-shard row.
    let routed_cpu_ratio = uniform_routed(8, 1).pipeline().stage_cpu_secs / optimized.elapsed_secs;
    let broadcast_cpu_ratio = broadcast(8).1 / optimized.elapsed_secs;
    let routed_vs_broadcast =
        modelled_rate(uniform_routed(4, 1)) / (uniform.events as f64 / broadcast(4).0);
    // Skewed load balance: with splitting the max/mean per-shard record
    // count must flatten, and the merged view must stay exact.
    let split_ratio = work_ratio(
        &find("skewed", "pipeline_routed_split", 4, 1)
            .pipeline()
            .routed_ops,
    );
    let split_pairs_exact = {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            PipelineConfig::with_shards(4)
                .batch_size(BATCH_SIZE)
                .split(split_config()),
        );
        for t in &skewed.transactions {
            pipeline.push_transaction(t.clone());
        }
        pipeline.finish().snapshot().frequent_pairs(1) == skewed_pairs
    };
    // At 8 shards the front-end must be off the critical path at the
    // best router count, and the parallel routers must lift the
    // modelled rate well past the same run's single inline router.
    let best8 = ROUTER_SWEEP
        .iter()
        .map(|&r| uniform_routed(8, r))
        .min_by(|a, b| {
            a.pipeline()
                .critical_path_secs
                .total_cmp(&b.pipeline().critical_path_secs)
        })
        .expect("8-shard router sweep");
    let router_scaling = modelled_rate(best8) / modelled_rate(uniform_routed(8, 1));
    // Routed tail latency over the parallel-router rows; the inline
    // (R = 1) rows are printed only (see ROUTED_P99_CEILING_US).
    let routed_p99 = |parallel: bool| {
        results
            .iter()
            .filter(|m| m.workload == "uniform" && m.name == Mode::Routed.name())
            .filter(|m| (m.routers >= 2) == parallel)
            .map(|m| m.pipeline().batch_p99_us)
            .fold(0.0f64, f64::max)
    };
    // The skewed routed_split static grid: the slowest stage of every
    // (shards, routers) cell.
    let skew_grid: Vec<(usize, usize, f64)> = SHARD_SWEEP
        .iter()
        .flat_map(|&shards| ROUTER_SWEEP.iter().map(move |&routers| (shards, routers)))
        .map(|(shards, routers)| {
            let split = Mode::RoutedSplit;
            let (slowest_shard, _) =
                stage_times(shards, &|index| Cfg::ShardRouted(1, split, shards, index));
            let (busiest_route, _) = stage_times(routers, &|slice| {
                Cfg::Route(1, split, shards, slice, routers)
            });
            (shards, routers, slowest_shard.max(busiest_route))
        })
        .collect();
    let (one_shard, two_shards) = (uniform_routed(1, 1), uniform_routed(2, 1));
    let scaling = two_shards.events_per_sec / one_shard.events_per_sec;

    print_table(&results, &workloads);
    println!(
        "  measured threaded scaling (uniform, R=1, wall clock): 1 shard {:.0} ev/s -> \
         2 shards {:.0} ev/s ({scaling:.2}x)",
        one_shard.events_per_sec, two_shards.events_per_sec,
    );
    println!(
        "  uniform 8-shard total CPU vs optimized: routed {routed_cpu_ratio:.2}x, broadcast \
         {broadcast_cpu_ratio:.2}x; inline R=1 p99 batch service max {:.1} µs (printed only)",
        routed_p99(false),
    );

    let best8_stages = best8.pipeline();
    let criteria = vec![
        Criterion::at_most(
            "uniform 8-shard routed total stage CPU over the 1-shard optimized analyzer",
            routed_cpu_ratio,
            ROUTED_CPU_RATIO_CEILING,
        )
        .full_only(smoke),
        Criterion::at_least(
            "uniform 4-shard routed over broadcast, one core per shard (model)",
            routed_vs_broadcast,
            1.5,
        )
        .full_only(smoke),
        Criterion::below(
            "skewed 4-shard split work ratio (max/mean)",
            split_ratio,
            1.5,
        )
        .full_only(smoke),
        Criterion::holds(
            "skewed 4-shard split frequent_pairs exact",
            split_pairs_exact,
        ),
        Criterion::below(
            format!(
                "uniform 8-shard best front-end (R={}): per-router slice over busiest shard",
                best8.routers
            ),
            best8_stages.routing_secs / best8_stages.slowest_shard_secs,
            1.0,
        )
        .full_only(smoke),
        Criterion::at_least(
            "uniform 8-shard best-R one-core-per-stage rate over the same run's R=1 (model)",
            router_scaling,
            1.5,
        )
        .full_only(smoke),
        Criterion::below(
            "uniform parallel-router (R >= 2) p99 batch service us, stalls subtracted",
            routed_p99(true),
            ROUTED_P99_CEILING_US,
        )
        .full_only(smoke),
    ];

    let baseline = |w: &Workload| find(w.name, "reference", 1, 1).events_per_sec;
    let configs = results
        .iter()
        .map(|m| {
            let w = if m.workload == uniform.name {
                uniform
            } else {
                skewed
            };
            m.json(w.events, baseline(w))
        })
        .collect::<Vec<_>>();
    let model = Obj::new()
        .field(
            "note",
            "one-core-per-stage figures are models, not measurements: every stage (a \
             router's 1/R slice, a shard's apply) is timed alone on pre-partitioned input \
             and the slowest taken, as if each stage had a core of its own. Modelled keys: \
             configs[].shard_critical_path_secs, \
             configs[].events_per_sec_one_core_per_shard, \
             configs[].one_core_per_shard_speedup_vs_reference, \
             resize_sweep.static_grid[].critical_path_secs, \
             resize_sweep.static_grid[].events_per_sec_one_core_per_stage, \
             resize_sweep.best_static.critical_path_secs, \
             table.four_shard_one_core_per_shard_events_per_sec",
        )
        .field(
            "measured_threaded_scaling",
            Obj::new()
                .field("workload", uniform.name)
                .field("routers", 1usize)
                .num("one_shard_events_per_sec", one_shard.events_per_sec, 0)
                .num("two_shards_events_per_sec", two_shards.events_per_sec, 0)
                .num("two_over_one", scaling, 3),
        );
    Grid {
        configs,
        model,
        criteria,
        skew_grid,
        four_shard_events_per_sec: modelled_rate(uniform_routed(4, 1)),
        reference_events_per_sec: reference.events_per_sec,
    }
}

fn print_table(results: &[Measurement], workloads: &[&Workload; 2]) {
    for w in workloads {
        let baseline = results
            .iter()
            .find(|m| m.workload == w.name && m.name == "reference")
            .map_or(1.0, |m| m.events_per_sec);
        println!(
            "\n  [{}] {:<20} {:>6} {:>4} {:>13} {:>9} {:>13} {:>10} {:>10}",
            w.name,
            "config",
            "shards",
            "rtrs",
            "events/sec",
            "speedup",
            "N-core model",
            "p50 batch",
            "p99 batch"
        );
        for m in results.iter().filter(|m| m.workload == w.name) {
            let (projected, latency) = match &m.stages {
                Some(s) => (
                    format!(
                        "{:>12.2}x",
                        w.events as f64 / s.critical_path_secs / baseline
                    ),
                    format!("{:>8.1}µs {:>8.1}µs", s.batch_p50_us, s.batch_p99_us),
                ),
                None => (format!("{:>13}", "-"), format!("{:>10} {:>10}", "-", "-")),
            };
            println!(
                "  {:<29} {:>6} {:>4} {:>13.0} {:>8.2}x {projected} {latency}",
                m.name,
                m.shards,
                m.routers,
                m.events_per_sec,
                m.events_per_sec / baseline
            );
        }
    }
    println!(
        "\n  (speedup = wall clock vs reference on this host's {} hardware thread(s);",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("   N-core model = events / slowest independently timed stage (busiest router");
    println!("   slice or busiest shard): a model of one core per stage, not a measured");
    println!("   rate; batch latencies have ring-full stall time subtracted)");
}
