//! The admission sweep: a doorkeeper-gated analyzer against an ungated
//! one at equal *measured* bytes (tables + sketch) on a long-tail stream
//! whose keyspace dwarfs the table. The gated run must win on truncated
//! top-k recall while holding events/s — rejected pairs skip the insert
//! + index work, so filtering is a throughput optimization, not a tax.

use std::collections::HashSet;
use std::time::Instant;

use rtdac_bench::experiments::fig15_sketch::{analyzer_config_for, BUDGET_SLACK};
use rtdac_bench::sweep::{self, env_or, median, Criterion, Obj};
use rtdac_synopsis::{Admission, AnalyzerConfig, OnlineAnalyzer};
use rtdac_types::ExtentPair;
use rtdac_workloads::LongTailSpec;

use crate::Sweep;

/// Throughput-parity floor: "holding" events/s means the gated run is
/// within this fraction of the ungated one. Rejected pairs skip the
/// insert + index work entirely, so the gated run is normally *faster*;
/// the floor only absorbs timer noise on a shared host.
const ADMISSION_THROUGHPUT_FLOOR: f64 = 0.95;

/// At the same measured footprint, an admission-Off analyzer spends
/// every tail sighting of a Zipf working set buried under a one-shot
/// tail ([`LongTailSpec`]) on a full insert + index + evict cycle, while
/// the gated one spends four bits on it. Recall is judged against the
/// workload's exact ground-truth top-k. `RTDAC_ADMISSION_TXNS`
/// overrides the stream length.
pub(crate) fn run(smoke: bool, seed: u64, repeat: usize) -> Sweep {
    let transactions = env_or("RTDAC_ADMISSION_TXNS", if smoke { 8_000 } else { 40_000 }) as usize;
    let budget = 24 * 1024;
    let top_k = 64;
    let workload = LongTailSpec::new()
        .transactions(transactions)
        .seed(seed)
        .generate();
    let truth: HashSet<ExtentPair> = workload.top_k(top_k).into_iter().collect();

    // Off bit-exactness: the defaulted `admission` field and an explicit
    // `Admission::Off` must replay to identical snapshots.
    let off_config = analyzer_config_for(budget, 0, 0);
    let off_bit_exact = {
        let mut defaulted = OnlineAnalyzer::new(off_config.clone());
        let mut explicit = OnlineAnalyzer::new(off_config.clone().admission(Admission::Off));
        for txn in &workload.transactions {
            defaulted.process(txn);
            explicit.process(txn);
        }
        defaulted.snapshot() == explicit.snapshot()
    };

    let run = |config: AnalyzerConfig| {
        let mut samples = Vec::with_capacity(repeat.max(1));
        let mut recall = 0.0;
        let mut bytes = 0;
        let mut rejections = 0;
        for _rep in 0..repeat.max(1) {
            let mut analyzer = OnlineAnalyzer::new(config.clone());
            let start = Instant::now();
            for txn in &workload.transactions {
                analyzer.process(txn);
            }
            samples.push(start.elapsed().as_secs_f64());
            let mut reported = analyzer.frequent_pairs(1);
            reported.truncate(top_k);
            recall =
                reported.iter().filter(|(p, _)| truth.contains(p)).count() as f64 / top_k as f64;
            bytes = analyzer.table_memory_bytes();
            rejections = analyzer.stats().pair_rejections;
        }
        (median(&samples), recall, bytes, rejections)
    };
    let (off_secs, off_recall, off_bytes, _) = run(off_config);
    let (gated_secs, gated_recall, gated_bytes, gated_rejections) =
        run(analyzer_config_for(budget, budget / 8, 0));
    let parity = |bytes: usize| (1.0 - bytes as f64 / budget as f64).abs() <= BUDGET_SLACK;
    let budget_parity = parity(off_bytes) && parity(gated_bytes);
    let rate = |secs: f64| transactions as f64 / secs;

    println!(
        "\n  [admission] long-tail stream, {transactions} txns ({}% one-shot tail), {} KB \
         budget, top-{top_k} recall vs exact ground truth",
        100 * workload.tail_count / transactions.max(1),
        budget / 1024,
    );
    println!(
        "  {:<12} {:>8} {:>8} {:>14} {:>12}",
        "admission", "bytes", "recall", "events/s", "rejections"
    );
    for (name, bytes, recall, secs, rejections) in [
        ("off", off_bytes, off_recall, off_secs, 0),
        (
            "doorkeeper",
            gated_bytes,
            gated_recall,
            gated_secs,
            gated_rejections,
        ),
    ] {
        println!(
            "  {name:<12} {bytes:>8} {:>7.1}% {:>14.0} {rejections:>12}",
            recall * 100.0,
            rate(secs),
        );
    }

    let recall = Criterion::above(
        format!("admission top-{top_k} recall gain over admission-off at equal bytes"),
        gated_recall - off_recall,
        0.0,
    )
    .full_only(smoke);
    let throughput = Criterion::at_least(
        "admission doorkeeper events/s over admission-off",
        rate(gated_secs) / rate(off_secs),
        ADMISSION_THROUGHPUT_FLOOR,
    )
    .full_only(smoke);
    let (recall_improves, throughput_holds) = (recall.pass(), throughput.pass());
    let criteria = vec![
        Criterion::holds(
            "admission defaulted config bit-exact with explicit Admission::Off",
            off_bit_exact,
        ),
        Criterion::holds(
            "admission contenders within the byte-budget slack",
            budget_parity,
        ),
        Criterion::at_least(
            "admission doorkeeper rejections",
            gated_rejections as f64,
            1.0,
        ),
        recall,
        throughput,
    ];

    let contender = |bytes: usize, recall: f64, secs: f64| {
        Obj::new()
            .field("bytes", bytes)
            .num("recall", recall, 4)
            .num("elapsed_secs", secs, 6)
            .num("events_per_sec", rate(secs), 0)
    };
    let json = Obj::new()
        .field(
            "notes",
            "doorkeeper-gated vs ungated OnlineAnalyzer at equal measured bytes \
             (table_memory_bytes: tables + sketch) on a long-tail stream whose keyspace \
             dwarfs the table; recall is the truncated top-k report judged against the \
             workload's exact ground-truth top-k; the gated run spends 1/8 of the budget \
             on a 4-bit doorkeeper sketch and must win on recall while holding events/s; \
             bit-exactness and budget parity gate in smoke mode too, recall and \
             throughput only in full mode",
        )
        .field("transactions", transactions)
        .field("tail_transactions", workload.tail_count)
        .field("top_k", top_k)
        .field("budget_bytes", budget)
        .field("off", contender(off_bytes, off_recall, off_secs))
        .field(
            "doorkeeper",
            contender(gated_bytes, gated_recall, gated_secs).field("rejections", gated_rejections),
        )
        .field("off_bit_exact", off_bit_exact)
        .field("budget_parity", budget_parity)
        .field("recall_improves", recall_improves)
        .field("throughput_holds", throughput_holds)
        .num("throughput_floor", ADMISSION_THROUGHPUT_FLOOR, 2)
        .field("met", sweep::met(&criteria));
    (json, criteria)
}
