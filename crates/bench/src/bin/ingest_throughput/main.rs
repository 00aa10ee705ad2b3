//! Ingestion throughput harness: replays a uniform MSR-like stream and a
//! skewed hot-pair stream through every analyzer front-end and writes
//! `BENCH_ingest.json`.
//!
//! One module per sweep, each returning its JSON object and its
//! acceptance [`Criterion`] list:
//!
//! * [`dispatch`] — the `reference`
//!   ([`ReferenceAnalyzer`](rtdac_synopsis::ReferenceAnalyzer), the
//!   pre-optimization baseline), `optimized` and threaded-pipeline
//!   shard × router grid, plus per-shard partitioning ("broadcast");
//! * [`resize`] — a scripted mid-stream grow + shrink, and the adaptive
//!   controller judged against the static one-core-per-stage grid;
//! * [`from_disk`] — streaming readers and the columnar format against
//!   the in-memory pipeline;
//! * [`admission`] — the doorkeeper against an ungated analyzer at
//!   equal measured bytes;
//! * [`query_load`] — live queries against the epoch-published view;
//! * [`service`] — the multi-tenant runtime's capacity grid;
//! * [`table`] — the open-addressing table against the `MapTable`
//!   oracle.
//!
//! "One core per stage" figures are models: every stage (a router's
//! 1/R slice, a shard's apply) is timed alone on pre-partitioned input
//! and the slowest one taken. They are labelled as such in the console
//! and the JSON, beside the measured threaded wall-clock scaling.
//!
//! The process exits nonzero when acceptance fails. Correctness
//! criteria gate every run; timing criteria gate full runs only, since
//! under `--smoke` the stream is tiny and the host shared.
//!
//! Environment / flags: `--smoke` (tiny stream, 1 repetition — CI),
//! `RTDAC_REQUESTS`, `RTDAC_SEED`, `RTDAC_BENCH_REPEAT` (default 5,
//! median of N), `RTDAC_BENCH_OUT` (default `<repo
//! root>/BENCH_ingest.json`).
//!
//! Run with: `cargo run --release --bin ingest_throughput`

mod admission;
mod dispatch;
mod from_disk;
mod query_load;
mod resize;
mod service;
mod table;

use rtdac_bench::support::{banner, monitored};
use rtdac_bench::sweep::{self, env_or, Criterion, Obj};
use rtdac_monitor::SplitConfig;
use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
use rtdac_types::{ExtentPair, Transaction};
use rtdac_workloads::{MsrServer, SkewedSpec};

const BATCH_SIZE: usize = 64;
const RING_CAPACITY: usize = 64;
const TABLE_CAPACITY: usize = 64 * 1024;

/// A sweep's JSON object and acceptance criteria.
type Sweep = (Obj, Vec<Criterion>);

/// One prepared input stream.
struct Workload {
    name: &'static str,
    detail: &'static str,
    transactions: Vec<Transaction>,
    events: usize,
}

/// The split knobs used by every `routed_split` config: the skewed
/// stream's hot pair carries ~40% of pair records, so a 10% share
/// threshold splits it decisively while leaving the Zipf tail hashed.
fn split_config() -> SplitConfig {
    SplitConfig::default()
}

/// The single-threaded analyzer's frequent pairs: the oracle every
/// split, resized and adaptive run must reproduce.
fn single_pairs(config: &AnalyzerConfig, transactions: &[Transaction]) -> Vec<(ExtentPair, u32)> {
    let mut single = OnlineAnalyzer::new(config.clone());
    for t in transactions {
        single.process(t);
    }
    single.snapshot().frequent_pairs(1)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = env_or("RTDAC_REQUESTS", if smoke { 4_000 } else { 40_000 }) as usize;
    let seed = env_or("RTDAC_SEED", 7);
    let repeat = env_or("RTDAC_BENCH_REPEAT", if smoke { 1 } else { 5 }) as usize;

    let mut head = String::new();
    banner(
        &mut head,
        "ingestion throughput: routed dispatch vs per-shard partitioning (events/sec)",
    );
    print!("{head}");
    println!("  requests={requests} seed={seed} repeat={repeat} smoke={smoke}");

    // Prepare both streams once: only analyzer ingestion is timed below.
    let server = MsrServer::Wdev;
    let trace = server.synthesize(requests, seed);
    let uniform = Workload {
        name: "uniform",
        detail: "msr_wdev_synthetic",
        events: trace.requests().len(),
        transactions: monitored(&trace, server.paper_reference().replay_speedup, seed),
    };
    let skew = SkewedSpec::new()
        .transactions(requests / 2)
        .seed(seed)
        .generate();
    let skewed = Workload {
        name: "skewed",
        detail: "hot_pair_40pct_zipf_background",
        events: skew.transactions.iter().map(|t| t.items().len()).sum(),
        transactions: skew.transactions,
    };
    for w in [&uniform, &skewed] {
        println!(
            "  {} stream: {} events -> {} transactions",
            w.name,
            w.events,
            w.transactions.len()
        );
    }

    let config = AnalyzerConfig::with_capacity(TABLE_CAPACITY);
    let skewed_pairs = single_pairs(&config, &skewed.transactions);
    let grid = dispatch::run(smoke, repeat, &config, [&uniform, &skewed], &skewed_pairs);
    let sweeps = [
        (
            "resize_sweep",
            resize::run(smoke, &config, &skewed, &skewed_pairs, &grid.skew_grid),
        ),
        ("from_disk", from_disk::run(smoke, seed, repeat, &config)),
        ("admission", admission::run(smoke, seed, repeat)),
        (
            "query_load",
            query_load::run(smoke, repeat, &uniform, &skewed),
        ),
        ("service", service::run(smoke, seed, repeat)),
        (
            "table",
            table::run(
                smoke,
                seed,
                repeat,
                grid.four_shard_events_per_sec,
                grid.reference_events_per_sec,
            ),
        ),
    ];

    let mut criteria = grid.criteria;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = Obj::new()
        .field("benchmark", "ingest_throughput")
        .field(
            "workloads",
            Obj::new()
                .field(uniform.name, workload_json(&uniform))
                .field(skewed.name, workload_json(&skewed)),
        )
        .field("seed", seed)
        .field("repeat", repeat)
        .field("smoke", smoke)
        .field("batch_size", BATCH_SIZE)
        .field("ring_capacity", RING_CAPACITY)
        .field("table_capacity_per_tier", TABLE_CAPACITY)
        .field("hardware_threads", hardware_threads)
        .field(
            "notes",
            "speedups are vs the reference analyzer (ReferenceAnalyzer) on the same \
             workload; wall-clock numbers time-share this host's hardware threads; \
             stage_cpu_secs is the total CPU work — the sum of every stage (all router \
             slices plus all shards) timed independently with no threading, free of \
             scheduler and backoff artifacts; routing_secs is the busiest single router's \
             1/R slice of the batch stream and routing_cpu_secs the sum of all R slices; \
             shard_critical_path_secs is the slowest independently timed stage (busiest \
             router slice or busiest shard), the bound with one core per stage (a model: \
             see model); batch_latency percentiles have ring-full stall time subtracted — \
             stalls are reported separately as stall_ms/stall_count, both per-run means",
        )
        .field("configs", grid.configs)
        .field("model", grid.model);
    for (key, (object, sweep_criteria)) in sweeps {
        json = json.field(key, object);
        criteria.extend(sweep_criteria);
    }

    sweep::finish(json, &criteria, smoke, "BENCH_ingest.json");
}

fn workload_json(w: &Workload) -> Obj {
    Obj::new()
        .field("detail", w.detail)
        .field("events", w.events)
        .field("transactions", w.transactions.len())
}
