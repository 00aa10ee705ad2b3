//! Offline-mining throughput harness: old (generic) vs new (dense-ID)
//! FIM engines on three workload shapes, plus the evaluation-runner
//! machinery this PR adds around them, writing `BENCH_fim.json`.
//!
//! Measured per workload (uniform random, hot-pair skewed, MSR-like):
//!
//! * `eclat` — the preserved SipHash/`HashMap` generic miner
//!   (`mine_generic`, the pre-optimization engine and the equivalence
//!   oracle) vs the dense engine (`u32`-interned items, adaptive
//!   bitset/sparse tidsets) serial, vs the dense engine with first-level
//!   equivalence classes fanned over the work pool;
//! * `fp_growth` — generic pointer-tree miner vs the arena
//!   (first-child/next-sibling) engine, serial and pool-parallel over
//!   conditional projections;
//! * `count_pairs` — generic `HashMap` kernel vs the dense
//!   triangular/FxHash kernel.
//!
//! Two runner-level measurements ride along:
//!
//! * sliding window: `SlidingPairCounts` add/retire per step vs
//!   re-counting the window from scratch each step;
//! * ground-truth cache: four evaluation consumers re-mining one MSR
//!   workload independently vs reading `ExpContext`'s shared cache —
//!   the reason `exp_all`'s figures stopped re-mining the same traces.
//!
//! Every run (smoke included) proves bit-exact equivalence: generic,
//! dense, and pool-parallel miners must return identical `FimResult`s
//! on all three workloads, both pair kernels identical maps, and the
//! incremental window identical counts to the scratch recount. Timing
//! gates (dense speedup ≥ 3x on skewed, ≥ 2x on uniform, cache ≥ 1.5x)
//! apply in full mode only; under `--smoke` the stream is tiny and the
//! host shared, so only correctness gates. The process exits nonzero
//! when acceptance fails.
//!
//! Environment / flags: `--smoke` (tiny stream, 1 repetition — CI),
//! `RTDAC_REQUESTS`, `RTDAC_SEED`, `RTDAC_BENCH_REPEAT` (default 5,
//! median of N), `RTDAC_BENCH_OUT` (default `<repo
//! root>/BENCH_fim.json`).
//!
//! Run with: `cargo run --release --bin fim_throughput`

use std::path::PathBuf;
use std::time::Instant;

use rtdac_bench::pool;
use rtdac_bench::support::{banner, monitored, ExpConfig, ExpContext};
use rtdac_bench::sweep::{self, env_or, median, Criterion, Obj};
use rtdac_fim::{
    count_pairs, count_pairs_generic, Eclat, FimResult, FpGrowth, SlidingPairCounts, TransactionDb,
};
use rtdac_types::{Extent, Timestamp, Transaction};
use rtdac_workloads::MsrServer;

/// Mining parameters shared by every engine: enough support that the
/// result is selective, enough depth that the DFS/projection stages
/// dominate over setup.
const MIN_SUPPORT: u32 = 4;
const MAX_LEN: usize = 3;
/// Sliding-window comparison: window width and number of steps timed.
const WINDOW: usize = 256;
/// Ground-truth cache comparison: number of evaluation consumers that
/// need the same workload's oracle (exp_all has seven).
const CACHE_CONSUMERS: usize = 4;

/// Full-mode timing gates.
const SKEWED_MIN_SPEEDUP: f64 = 3.0;
const UNIFORM_MIN_SPEEDUP: f64 = 2.0;
const CACHE_MIN_SPEEDUP: f64 = 1.5;

/// Uniform random transactions: `universe` equally likely extents,
/// transaction sizes 2..=7 — no skew, so tidlists stay short and the
/// sparse intersection path dominates.
fn uniform_transactions(seed: u64, n: usize, universe: u64) -> Vec<Transaction> {
    let mut state = seed | 1;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    (0..n)
        .map(|_| {
            let len = 2 + rand() % 6;
            let extents: Vec<Extent> = (0..len)
                .map(|_| Extent::new(rand() % universe + 1, 1).expect("nonzero extent"))
                .collect();
            Transaction::from_extents(Timestamp::ZERO, extents)
        })
        .collect()
}

/// Skewed transactions modelling the paper's access-popularity pattern:
/// extent popularity follows Zipf(1.0) over `universe` (inverse-CDF via
/// `exp(u·ln universe)`), transaction sizes 2..=9, and a correlated hot
/// extent pair rides along in ~40% of transactions. Popular extents
/// appear in a large share of rows, so their tidlists go dense and the
/// FP-tree grows deep shared prefixes — the regime the dense engines
/// are built for.
fn skewed_transactions(seed: u64, n: usize, universe: u64) -> Vec<Transaction> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let hmax = (universe as f64).ln();
    (0..n)
        .map(|_| {
            let len = 2 + rand() % 8;
            let mut extents: Vec<Extent> = (0..len)
                .map(|_| {
                    let u = (rand() % 1_000_000) as f64 / 1_000_000.0;
                    let id = ((u * hmax).exp() as u64).min(universe - 1) + 1;
                    Extent::new(id, 1).expect("nonzero extent")
                })
                .collect();
            if rand() % 10 < 4 {
                // The correlated pair lives outside the Zipf range.
                for hot in 1..=2 {
                    extents.push(Extent::new(universe + hot, 1).expect("nonzero extent"));
                }
            }
            Transaction::from_extents(Timestamp::ZERO, extents)
        })
        .collect()
}

struct Workload {
    name: &'static str,
    transactions: Vec<Transaction>,
}

#[derive(Clone, Copy)]
struct EngineRow {
    generic_secs: f64,
    dense_secs: f64,
    parallel_secs: f64,
    /// Ratio of per-side minima over repetitions (see [`speedup`]), not
    /// a ratio of the median times above.
    dense_speedup: f64,
    parallel_speedup: f64,
}

/// Ratio of the two sides' fastest repetitions. The engines are
/// deterministic and CPU-bound, so each side's minimum is its run time
/// absent scheduler interference — the least-noise estimator on a busy
/// shared host (the same reason `timeit` reports minima). Medians of
/// either side still carry whatever steal time the host injected.
fn speedup(num: &[f64], den: &[f64]) -> f64 {
    let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    min(num) / min(den)
}

struct WorkloadResult {
    name: &'static str,
    transactions: usize,
    frequent_itemsets: usize,
    eclat: EngineRow,
    fp_growth: EngineRow,
    pairs_generic_secs: f64,
    pairs_dense_secs: f64,
    equivalent: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = env_or("RTDAC_REQUESTS", if smoke { 3_000 } else { 40_000 }) as usize;
    let seed = env_or("RTDAC_SEED", 7);
    let repeat = env_or("RTDAC_BENCH_REPEAT", if smoke { 1 } else { 5 }) as usize;
    let threads = pool::default_threads();

    let mut head = String::new();
    banner(
        &mut head,
        "offline mining throughput: generic vs dense-ID engines",
    );
    print!("{head}");
    println!(
        "  requests={requests} seed={seed} repeat={repeat} threads={threads} smoke={smoke} \
         (support {MIN_SUPPORT}, max_len {MAX_LEN})"
    );

    // Prepare the three streams once; only mining is timed.
    let msr_server = MsrServer::Src2;
    let msr_trace = msr_server.synthesize(requests, seed);
    let workloads = [
        Workload {
            name: "uniform",
            transactions: uniform_transactions(seed, requests / 2, 600),
        },
        Workload {
            name: "skewed",
            transactions: skewed_transactions(seed, requests / 2, 2_000),
        },
        Workload {
            name: "msr_like",
            transactions: monitored(
                &msr_trace,
                msr_server.paper_reference().replay_speedup,
                seed,
            ),
        },
    ];
    for w in &workloads {
        println!("  {} stream: {} transactions", w.name, w.transactions.len());
    }

    let eclat = Eclat::new(MIN_SUPPORT).max_len(MAX_LEN);
    let fp = FpGrowth::new(MIN_SUPPORT).max_len(MAX_LEN);

    // Timed configurations, repetitions interleaved (rep loop outside)
    // so steal-time regimes on a shared host bias every config equally.
    const N_CFG: usize = 8; // per-workload configs
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(repeat); workloads.len() * N_CFG];
    let dbs: Vec<TransactionDb<Extent>> = workloads
        .iter()
        .map(|w| TransactionDb::from_transactions(&w.transactions))
        .collect();
    for _rep in 0..repeat {
        for (w, workload) in workloads.iter().enumerate() {
            let db = &dbs[w];
            let timed: [(usize, Box<dyn Fn()>); N_CFG] = [
                (0, Box::new(|| drop(eclat.mine_generic(db)))),
                (1, Box::new(|| drop(eclat.mine(db)))),
                (
                    2,
                    Box::new(|| drop(pool::eclat_parallel(threads, &eclat, db))),
                ),
                (3, Box::new(|| drop(fp.mine_generic(db)))),
                (4, Box::new(|| drop(fp.mine(db)))),
                (
                    5,
                    Box::new(|| drop(pool::fp_growth_parallel(threads, &fp, db))),
                ),
                (
                    6,
                    Box::new(|| drop(count_pairs_generic(&workload.transactions))),
                ),
                (7, Box::new(|| drop(count_pairs(&workload.transactions)))),
            ];
            for (c, run) in &timed {
                let start = Instant::now();
                run();
                samples[w * N_CFG + c].push(start.elapsed().as_secs_f64());
            }
        }
    }

    // Equivalence: every engine and the pool decomposition must return
    // the same normalized result; both pair kernels the same map.
    let mut results = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        let db = &dbs[w];
        let reference: FimResult<Extent> = eclat.mine_generic(db);
        let equivalent = eclat.mine(db) == reference
            && fp.mine_generic(db) == reference
            && fp.mine(db) == reference
            && pool::eclat_parallel(threads, &eclat, db) == reference
            && pool::fp_growth_parallel(threads, &fp, db) == reference
            && count_pairs(&workload.transactions) == count_pairs_generic(&workload.transactions);
        let m = |c: usize| median(&samples[w * N_CFG + c]);
        let s =
            |num: usize, den: usize| speedup(&samples[w * N_CFG + num], &samples[w * N_CFG + den]);
        results.push(WorkloadResult {
            name: workload.name,
            transactions: workload.transactions.len(),
            frequent_itemsets: reference.len(),
            eclat: EngineRow {
                generic_secs: m(0),
                dense_secs: m(1),
                parallel_secs: m(2),
                dense_speedup: s(0, 1),
                parallel_speedup: s(0, 2),
            },
            fp_growth: EngineRow {
                generic_secs: m(3),
                dense_secs: m(4),
                parallel_secs: m(5),
                dense_speedup: s(3, 4),
                parallel_speedup: s(3, 5),
            },
            pairs_generic_secs: m(6),
            pairs_dense_secs: m(7),
            equivalent,
        });
    }

    println!(
        "\n{:<9} {:<10} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "workload", "engine", "generic", "dense", "parallel", "dense x", "parallel x"
    );
    for r in &results {
        for (engine, row) in [("eclat", r.eclat), ("fp_growth", r.fp_growth)] {
            println!(
                "{:<9} {:<10} {:>9.1}ms {:>9.1}ms {:>9.1}ms {:>7.2}x {:>8.2}x",
                r.name,
                engine,
                row.generic_secs * 1e3,
                row.dense_secs * 1e3,
                row.parallel_secs * 1e3,
                row.dense_speedup,
                row.parallel_speedup,
            );
        }
        println!(
            "{:<9} {:<10} {:>9.1}ms {:>9.1}ms {:>10} {:>7.2}x  (itemsets: {}, equivalent: {})",
            r.name,
            "pairs",
            r.pairs_generic_secs * 1e3,
            r.pairs_dense_secs * 1e3,
            "-",
            r.pairs_generic_secs / r.pairs_dense_secs,
            r.frequent_itemsets,
            r.equivalent,
        );
    }

    // Sliding window: incremental add/retire vs scratch recount, same
    // stream (the MSR-like one), same windows, equality checked at the
    // end of every stride.
    let stream = &workloads[2].transactions;
    let steps = stream.len().min(1_500);
    let mut scratch_secs = Vec::with_capacity(repeat);
    let mut incremental_secs = Vec::with_capacity(repeat);
    let mut window_equivalent = true;
    for _ in 0..repeat {
        let start = Instant::now();
        let mut final_scratch = None;
        for i in 0..steps {
            let live = &stream[(i + 1).saturating_sub(WINDOW)..=i];
            let counts = count_pairs(live);
            if i + 1 == steps {
                final_scratch = Some(counts);
            }
        }
        scratch_secs.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut sliding = SlidingPairCounts::new();
        for (i, txn) in stream[..steps].iter().enumerate() {
            sliding.add(txn);
            if i + 1 > WINDOW {
                sliding.retire(&stream[i - WINDOW]);
            }
        }
        incremental_secs.push(start.elapsed().as_secs_f64());
        window_equivalent &= Some(sliding.counts().clone()) == final_scratch;
    }
    let scratch = median(&scratch_secs);
    let incremental = median(&incremental_secs);
    println!(
        "\nsliding window ({WINDOW}-txn window, {steps} steps): scratch {:.1} ms, \
         incremental {:.1} ms ({:.1}x), equivalent: {window_equivalent}",
        scratch * 1e3,
        incremental * 1e3,
        scratch / incremental,
    );

    // Ground-truth cache: CACHE_CONSUMERS evaluation consumers needing
    // the same workload oracle, uncached vs through ExpContext. The
    // cached pass includes the one real computation (cold first read).
    let cache_config = ExpConfig {
        requests,
        seed,
        out_dir: PathBuf::from("/tmp"),
    };
    let mut uncached_secs = Vec::with_capacity(repeat);
    let mut cached_secs = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let ctx = ExpContext::new(cache_config.clone());
        let txns = ctx.transactions(msr_server); // trace prep not timed
        let start = Instant::now();
        for _ in 0..CACHE_CONSUMERS {
            drop(count_pairs(&*txns));
        }
        uncached_secs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..CACHE_CONSUMERS {
            drop(ctx.ground_truth(msr_server));
        }
        cached_secs.push(start.elapsed().as_secs_f64());
    }
    let uncached = median(&uncached_secs);
    let cached = median(&cached_secs);
    println!(
        "ground-truth cache ({CACHE_CONSUMERS} consumers): uncached {:.1} ms, cached {:.1} ms \
         ({:.1}x) — why exp_all's figures stopped re-mining",
        uncached * 1e3,
        cached * 1e3,
        uncached / cached,
    );

    // Acceptance.
    let by_name = |n: &str| results.iter().find(|r| r.name == n).expect("workload");
    let skewed = by_name("skewed");
    let uniform = by_name("uniform");
    let mut criteria = vec![
        Criterion::at_least(
            "skewed dense eclat speedup",
            skewed.eclat.dense_speedup,
            SKEWED_MIN_SPEEDUP,
        )
        .full_only(smoke),
        Criterion::at_least(
            "skewed dense fp-growth speedup",
            skewed.fp_growth.dense_speedup,
            SKEWED_MIN_SPEEDUP,
        )
        .full_only(smoke),
        Criterion::at_least(
            "uniform dense eclat speedup",
            uniform.eclat.dense_speedup,
            UNIFORM_MIN_SPEEDUP,
        )
        .full_only(smoke),
        Criterion::at_least(
            "uniform dense fp-growth speedup",
            uniform.fp_growth.dense_speedup,
            UNIFORM_MIN_SPEEDUP,
        )
        .full_only(smoke),
        Criterion::at_least(
            "ground-truth cache speedup",
            uncached / cached,
            CACHE_MIN_SPEEDUP,
        )
        .full_only(smoke),
        Criterion::holds("sliding window equivalence", window_equivalent),
    ];
    for r in &results {
        criteria.push(Criterion::holds(
            format!("{} engine equivalence", r.name),
            r.equivalent,
        ));
    }

    let engine = |row: EngineRow| {
        Obj::new()
            .num("generic_secs", row.generic_secs, 6)
            .num("dense_secs", row.dense_secs, 6)
            .num("parallel_secs", row.parallel_secs, 6)
            .num("dense_speedup", row.dense_speedup, 3)
            .num("parallel_speedup", row.parallel_speedup, 3)
    };
    let json = Obj::new()
        .field("bench", "fim_throughput")
        .field("smoke", smoke)
        .field("requests", requests)
        .field("seed", seed)
        .field("repeat", repeat)
        .field("threads", threads)
        .field("min_support", u64::from(MIN_SUPPORT))
        .field("max_len", MAX_LEN)
        .field(
            "workloads",
            results
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("name", r.name)
                        .field("transactions", r.transactions)
                        .field("frequent_itemsets", r.frequent_itemsets)
                        .field("equivalent", r.equivalent)
                        .field("eclat", engine(r.eclat))
                        .field("fp_growth", engine(r.fp_growth))
                        .field(
                            "count_pairs",
                            Obj::new()
                                .num("generic_secs", r.pairs_generic_secs, 6)
                                .num("dense_secs", r.pairs_dense_secs, 6)
                                .num("speedup", r.pairs_generic_secs / r.pairs_dense_secs, 3),
                        )
                })
                .collect::<Vec<_>>(),
        )
        .field(
            "sliding_window",
            Obj::new()
                .field("window", WINDOW)
                .field("steps", steps)
                .num("scratch_secs", scratch, 6)
                .num("incremental_secs", incremental, 6)
                .num("speedup", scratch / incremental, 3)
                .field("equivalent", window_equivalent),
        )
        .field(
            "ground_truth_cache",
            Obj::new()
                .field("consumers", CACHE_CONSUMERS)
                .num("uncached_secs", uncached, 6)
                .num("cached_secs", cached, 6)
                .num("speedup", uncached / cached, 3),
        );
    sweep::finish(json, &criteria, smoke, "BENCH_fim.json");
}
