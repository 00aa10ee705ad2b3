//! End-to-end benchmark of `rtdacd`: spawns the release daemon, drives
//! it over loopback with the shipped `WireClient`, checks every report
//! against an in-process oracle, and prints one JSON result line.
//!
//! ```text
//! daemonbench --workload <wdev-replay|stg-replay-2t|src2-live> --seed N
//!             --seconds S --trace <0|1> --daemon PATH [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the daemon.
//! `--trace 1` runs the daemon again (for its CPU and frame round
//! trips), then replays the same bytes in process through each layer's
//! public functions with spans around every call, and prints the
//! per-layer metrics and the ledger table. Spans are written to `--out`.

mod daemon;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use daemon::{ConnLog, Daemon};
use workload::{Oracle, Stream, Workload, LIVE_FRAME_BYTES, LIVE_RATE_EPS};

/// Daemons spawned per run to time set-up; the last one is measured.
const SETUP_REPEATS: usize = 15;

/// The tail percentile every `_p95_` metric reports.
const TAIL_PCT: f64 = 95.0;

/// Top-k round trips timed per run: a replay's query block over all its
/// connections, and the live query loop's minimum. 200 samples support
/// p95.
const QUERY_SAMPLES: usize = 200;

const USAGE: &str = "usage: daemonbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --daemon PATH [--out DIR]";

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
        daemon: PathBuf::from(get("daemon")?),
        out: PathBuf::from(flags.get("out").map_or(".bench_out", String::as_str)),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        trace::run(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(report) => {
            let correct = report.correct();
            println!("{}", report.json());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One run's result: what the JSON line carries.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that could not be
                // measured reads as null rather than as a number.
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload's generated input: streams, their oracles, and for the
/// live workload the pacing.
pub struct Inputs {
    streams: Vec<Stream>,
    oracles: Vec<Oracle>,
    tenants: Vec<String>,
    /// Live only: frames to send and the gap between their due times.
    live_frames: usize,
    live_interval: Duration,
}

impl Inputs {
    /// Generates the inputs for `seconds` of measurement.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let streams = workload.streams(seed, seconds);
        let config = workload::daemon_analyzer_config();
        let (mut live_frames, mut live_interval) = (0, Duration::ZERO);
        if workload.is_live() {
            let stream = &streams[0];
            let bytes_per_event = stream.bytes.len() as f64 / stream.events as f64;
            live_interval = Duration::from_secs_f64(
                LIVE_FRAME_BYTES as f64 / (LIVE_RATE_EPS * bytes_per_event),
            );
            live_frames = (seconds / live_interval.as_secs_f64()) as usize;
            assert!(
                live_frames * LIVE_FRAME_BYTES <= stream.bytes.len(),
                "live stream shorter than the schedule"
            );
        }
        let oracles = streams
            .iter()
            .map(|s| {
                let bytes = if workload.is_live() {
                    s.prefix(live_frames, LIVE_FRAME_BYTES)
                } else {
                    &s.bytes
                };
                workload::oracle(bytes, &config)
            })
            .collect();
        let tenants = (0..workload.tenants())
            .map(|t| format!("{}-{t}", workload.name()))
            .collect();
        Inputs {
            streams,
            oracles,
            tenants,
            live_frames,
            live_interval,
        }
    }

    /// Bytes one daemon connection ingests per round (replays) or in
    /// total (live) for tenant `t`.
    pub fn ingested(&self, workload: Workload, t: usize) -> &[u8] {
        if workload.is_live() {
            self.streams[t].prefix(self.live_frames, LIVE_FRAME_BYTES)
        } else {
            &self.streams[t].bytes
        }
    }

    fn print_provenance(&self, workload: Workload) {
        println!(
            "workload {}: {} tenant(s), frames of {} B{}",
            workload.name(),
            self.tenants.len(),
            workload.frame_bytes(),
            if workload.is_live() {
                format!(
                    ", paced at {LIVE_RATE_EPS} ev/s: {} frames every {:.2} ms",
                    self.live_frames,
                    self.live_interval.as_secs_f64() * 1e3
                )
            } else {
                String::new()
            }
        );
        println!(
            "  {:<18} {:>9} {:>10} {:>7} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7}",
            "provenance",
            "events",
            "bytes",
            "frames",
            "ev/txn",
            "pair-hit",
            "item-hit",
            "reuse",
            "one-off",
            "pairs"
        );
        for (t, (stream, oracle)) in self.streams.iter().zip(&self.oracles).enumerate() {
            let bytes = self.ingested(workload, t).len();
            println!(
                "  {:<18} {:>9} {:>10} {:>7} {:>8.2} {:>9.3} {:>9.3} {:>7.2} {:>8.3} {:>7}",
                self.tenants[t],
                oracle.events,
                bytes,
                bytes.div_ceil(workload.frame_bytes()),
                oracle.events as f64 / oracle.transactions.max(1) as f64,
                oracle.pair_hit_ratio,
                oracle.item_hit_ratio,
                stream.reuse_ratio,
                stream.one_off_share,
                oracle.pairs.len()
            );
        }
    }
}

/// What one measured daemon session produced.
pub struct Session {
    /// Per-connection logs (ingest connections first).
    pub logs: Vec<ConnLog>,
    /// Daemon CPU seconds over the measured phase.
    pub cpu_secs: f64,
    /// Daemon peak RSS at the end, MB.
    pub rss_mb: f64,
    /// Set-up time of every daemon spawned, seconds.
    pub setup_secs: Vec<f64>,
}

impl Session {
    /// Events ingested across connections.
    pub fn events(&self) -> u64 {
        self.logs.iter().map(|l| l.events).sum()
    }

    /// All connections' observations in one log.
    pub fn merged(self) -> ConnLog {
        let mut all = ConnLog::default();
        for log in self.logs {
            all.merge(log);
        }
        all
    }
}

/// Spawns `setup_repeats` daemons for set-up timing, then measures the
/// workload on the last one. A replay ingests rounds for `seconds`; the
/// daemon's CPU is read then, before the connections time
/// `query_samples` top-k queries between them, split evenly, each on its
/// drained view. The live workload
/// paces its ingest over the schedule in `inputs` and queries beside it,
/// at least `query_samples` times.
pub fn drive(
    args: &Args,
    inputs: &Inputs,
    seconds: f64,
    setup_repeats: usize,
    query_samples: usize,
) -> Result<Session, String> {
    let workload = args.workload;
    let connections = if workload.is_live() {
        2
    } else {
        inputs.tenants.len()
    };
    let mut setup_secs = Vec::with_capacity(setup_repeats);
    let mut session = None;
    for repeat in 0..setup_repeats.max(1) {
        let (daemon, clients, secs) = daemon::set_up(&args.daemon, &inputs.tenants, connections)
            .map_err(|e| format!("daemon set-up failed: {e}"))?;
        setup_secs.push(secs);
        if repeat + 1 < setup_repeats {
            drop(clients);
            daemon
                .stop()
                .map_err(|e| format!("daemon stop failed: {e}"))?;
        } else {
            session = Some((daemon, clients));
        }
    }
    let (daemon, mut clients): (Daemon, _) = session.expect("at least one set-up");
    let cpu_secs = || daemon.cpu_secs().map_err(|e| e.to_string());
    let cpu_before = cpu_secs()?;
    let (logs, cpu_after) = if workload.is_live() {
        let (ingest, query) = clients.split_at_mut(1);
        let log = daemon::live(
            &mut ingest[0],
            &mut query[0],
            inputs.ingested(workload, 0),
            LIVE_FRAME_BYTES,
            inputs.live_frames,
            inputs.live_interval,
            &inputs.oracles[0].pairs,
            query_samples,
        );
        (vec![log], cpu_secs()?)
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut logs = on_each(&mut clients, |t, client| {
            daemon::replay_connection(
                client,
                &inputs.tenants[t],
                inputs.ingested(workload, t),
                workload.frame_bytes(),
                &inputs.oracles[t].pairs,
                deadline,
            )
        });
        let cpu_after = cpu_secs()?;
        let per_connection = query_samples.div_ceil(connections);
        let blocks = on_each(&mut clients, |_, client| {
            let mut log = ConnLog::default();
            log.query_block(client, per_connection);
            log
        });
        for (log, block) in logs.iter_mut().zip(blocks) {
            log.merge(block);
        }
        (logs, cpu_after)
    };
    let rss_mb = daemon.peak_rss_mb().map_err(|e| e.to_string())?;
    drop(clients);
    daemon
        .stop()
        .map_err(|e| format!("daemon stop failed: {e}"))?;
    Ok(Session {
        logs,
        cpu_secs: cpu_after - cpu_before,
        rss_mb,
        setup_secs,
    })
}

/// Runs `f(i, client)` on every client at once, the first on this
/// thread, and returns the results in client order.
fn on_each<T: Send>(
    clients: &mut [daemon::Client],
    f: impl Fn(usize, &mut daemon::Client) -> T + Sync,
) -> Vec<T> {
    let f = &f;
    std::thread::scope(|scope| {
        let (first, rest) = clients.split_first_mut().expect("at least one connection");
        let helpers: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || f(i + 1, client)))
            .collect();
        let mut results = vec![f(0, first)];
        results.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked")),
        );
        results
    })
}

/// Prints one timing line and returns its summary in milliseconds.
fn timing(name: &str, samples_secs: &[f64]) -> Option<stats::Summary> {
    let ms: Vec<f64> = samples_secs.iter().map(|s| s * 1e3).collect();
    let summary = stats::summarize(&ms, TAIL_PCT);
    match summary {
        Some(s) => println!(
            "  {name:<24} p50 {:>10.3} ms   p{TAIL_PCT} {:>14}   n = {}",
            s.p50,
            s.tail
                .map_or("unsupported".to_string(), |t| format!("{t:.3} ms")),
            s.count
        ),
        None => println!("  {name:<24} no samples"),
    }
    summary
}

/// The `--trace 0` run: end-to-end metrics from the untraced daemon.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let inputs = Inputs::generate(workload, args.seed, args.seconds);
    inputs.print_provenance(workload);
    // A replay ingests for two thirds of the run and spends the rest, at
    // today's round trips, on its fixed block of top-k queries.
    let session = drive(
        args,
        &inputs,
        args.seconds * 2.0 / 3.0,
        SETUP_REPEATS,
        QUERY_SAMPLES,
    )?;

    let ingest_eps: f64 = session
        .logs
        .iter()
        .filter(|l| l.window_secs > 0.0)
        .map(|l| l.events as f64 / l.window_secs)
        .sum();
    let events = session.events();
    let cpu_us_per_event = session.cpu_secs * 1e6 / events.max(1) as f64;
    let setup = stats::median(&session.setup_secs).unwrap_or(f64::NAN);
    let (cpu_secs, rss_mb) = (session.cpu_secs, session.rss_mb);
    let setup_samples = session.setup_secs.clone();
    let log = session.merged();

    println!(
        "daemon: {events} events in {} round(s), {cpu_secs:.2} s CPU, peak RSS {rss_mb:.1} MB",
        log.rounds
    );
    let query = timing("query (top-k) rtt", &log.topk_rtts);
    timing("query (stats) rtt", &log.stats_rtts);
    let lag = timing(
        if workload.is_live() {
            "visible lag"
        } else {
            "visible lag (round)"
        },
        &log.lags,
    );
    timing(
        "ingest frame rtt",
        &log.frame_rtts.iter().map(|f| f.1).collect::<Vec<_>>(),
    );
    if !workload.is_live() {
        timing("ingest-end rtt (drain)", &log.end_rtts);
    }
    timing("set-up", &setup_samples);
    if workload.is_live() {
        timing("generator lateness", &log.lateness);
    }
    if log.unresolved > 0 {
        println!(
            "  {} frame(s) never became visible to a Stats reply",
            log.unresolved
        );
    }
    let failure_ratio = log.failed as f64 / log.attempted.max(1) as f64;
    println!(
        "op_failure_ratio {failure_ratio} ({} of {} requests)",
        log.failed, log.attempted
    );
    for error in log.errors.iter().take(5) {
        println!("  failure: {error}");
    }

    let mut report = Report {
        attempted: log.attempted,
        failed: log.failed,
        ..Report::default()
    };
    report.metric("ingest_eps", ingest_eps, "1/s");
    report.metric("daemon_cpu_us_per_event", cpu_us_per_event, "us");
    report.metric("daemon_rss_mb", rss_mb, "MB");
    report.metric("setup_s", setup, "s");
    // A tail the samples do not support reads as null, never as a
    // lower percentile.
    let nan = f64::NAN;
    let tail = |s: Option<stats::Summary>| s.and_then(|s| s.tail).unwrap_or(nan);
    report.metric("query_p50_ms", query.map_or(nan, |s| s.p50), "ms");
    report.metric("query_p95_ms", tail(query), "ms");
    report.metric("visible_lag_p50_ms", lag.map_or(nan, |s| s.p50), "ms");
    report.metric("visible_lag_p95_ms", tail(lag), "ms");
    // The percentile and sample count behind each timing, one line
    // ahead of the result so a comparison can check like for like.
    let support: Vec<String> = [("query", query), ("visible_lag", lag)]
        .iter()
        .flat_map(|(name, summary)| {
            let count = summary.map_or(0, |s| s.count);
            [
                (50.0, true),
                (TAIL_PCT, summary.is_some_and(|s| s.tail.is_some())),
            ]
            .map(|(pct, supported)| {
                format!(
                    "\"{name}_p{pct}_ms\": {{\"percentile\": {pct}, \"count\": {count}, \
                         \"supported\": {}}}",
                    supported && count > 0
                )
            })
        })
        .collect();
    println!("{{\"timing_support\": {{{}}}}}", support.join(", "));
    Ok(report)
}
