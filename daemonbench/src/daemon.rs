//! Driving a real `rtdacd` child process over loopback: spawn and
//! set-up timing, `/proc` readings, the closed-loop replay connections
//! and the paced live workload with its query loop.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rtdac_types::wire::{WireClient, WireError, WireStats};
use rtdac_types::ExtentPair;

use crate::stats::{self, FrameMark, StatsReply};
use crate::workload::{canonical, daemon_runtime_config, TOP_K};

/// A request that takes longer than this counts as dropped.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a stopping daemon may take to drain and exit.
const STOP_DEADLINE: Duration = Duration::from_secs(10);

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 in the Linux user-space ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// A client connection to the daemon.
pub type Client = WireClient<TcpStream>;

/// A running `rtdacd` child. Dropping it kills the process if it is
/// still running and waits for it.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `binary` with default flags and waits for its listening
    /// line on stdout. Fails if the tenant cap or per-tenant budget the
    /// banner reports differs from [`daemon_runtime_config`], the
    /// configuration the oracle and the traced replica model.
    pub fn spawn(binary: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).and_then(|_| {
            let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
            let banner = stats::parse_banner(&line)
                .ok_or_else(|| invalid(format!("unexpected daemon banner {line:?}")))?;
            let modelled = daemon_runtime_config();
            let want = (modelled.max_tenants, modelled.tenant_budget_bytes / 1024);
            if (banner.max_tenants, banner.budget_kib) != want {
                return Err(invalid(format!(
                    "daemon runs {} tenants at {} KiB, the benchmark models {} at {} KiB",
                    banner.max_tenants, banner.budget_kib, want.0, want.1
                )));
            }
            Ok(banner.addr)
        });
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        // On error the daemon is dropped here, which kills it.
        daemon.addr = addr?;
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens a connection with request timeouts set.
    pub fn connect(&self) -> io::Result<Client> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(WireClient::new(stream))
    }

    /// User plus system CPU seconds the daemon has used so far,
    /// exited threads included.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        stats::parse_stat_ticks(&stat)
            .map(|ticks| ticks as f64 / TICKS_PER_SEC)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable stat"))
    }

    /// Peak resident set in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        stats::parse_vmhwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.connect()?
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let deadline = Instant::now() + STOP_DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not stop in time"));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns a daemon and opens `connections` connections, each bound to
/// `tenants[i % tenants.len()]`. Returns the daemon, the bound clients
/// and the set-up time: spawn until every `Open` is acknowledged.
pub fn set_up(
    binary: &Path,
    tenants: &[String],
    connections: usize,
) -> io::Result<(Daemon, Vec<Client>, f64)> {
    let started = Instant::now();
    let daemon = Daemon::spawn(binary)?;
    let mut clients = Vec::with_capacity(connections);
    for i in 0..connections {
        let mut client = daemon.connect()?;
        client
            .open(&tenants[i % tenants.len()])
            .map_err(|e| io::Error::other(e.to_string()))?;
        clients.push(client);
    }
    Ok((daemon, clients, started.elapsed().as_secs_f64()))
}

/// Everything one connection observed.
#[derive(Default)]
pub struct ConnLog {
    /// Events acknowledged by `IngestEnd`, summed over rounds.
    pub events: u64,
    /// Seconds from each round's first ingest frame sent to its
    /// `IngestEnd` ack, summed.
    pub window_secs: f64,
    /// Ingest frame round trips: `(frame id within its round, seconds)`.
    pub frame_rtts: Vec<(usize, f64)>,
    /// `IngestEnd` round trips, seconds: the daemon drains the round and
    /// folds it into the live view before acknowledging.
    pub end_rtts: Vec<f64>,
    /// Paced loop only: how late each frame was sent, seconds.
    pub lateness: Vec<f64>,
    /// `QueryTopK` round trips, seconds.
    pub topk_rtts: Vec<f64>,
    /// `QueryStats` round trips, seconds.
    pub stats_rtts: Vec<f64>,
    /// Visible lag of every resolved frame, seconds.
    pub lags: Vec<f64>,
    /// Frames no `Stats` reply resolved.
    pub unresolved: usize,
    /// Complete ingest rounds.
    pub rounds: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Error replies, dropped or timed-out requests, and reports that
    /// differ from the oracle.
    pub failed: u64,
    /// What went wrong, for the report.
    pub errors: Vec<String>,
}

impl ConnLog {
    /// Runs one request, counting it; a failure is recorded and
    /// returned so the caller can abandon the connection.
    fn call<T>(&mut self, f: impl FnOnce() -> Result<T, WireError>) -> Result<T, ()> {
        self.attempted += 1;
        f().map_err(|e| {
            self.failed += 1;
            self.errors.push(e.to_string());
        })
    }

    /// Checks a daemon report against the oracle; a mismatch counts
    /// as a failed request.
    fn check(&mut self, got: Vec<(ExtentPair, u32)>, want: &[(ExtentPair, u32)], what: &str) {
        if canonical(got) != want {
            self.failed += 1;
            self.errors
                .push(format!("{what}: frequent_pairs(1) differs from the oracle"));
        }
    }

    /// Folds another connection's log into this one.
    pub fn merge(&mut self, other: ConnLog) {
        self.events += other.events;
        self.window_secs += other.window_secs;
        self.frame_rtts.extend(other.frame_rtts);
        self.end_rtts.extend(other.end_rtts);
        self.lateness.extend(other.lateness);
        self.topk_rtts.extend(other.topk_rtts);
        self.stats_rtts.extend(other.stats_rtts);
        self.lags.extend(other.lags);
        self.unresolved += other.unresolved;
        self.rounds += other.rounds;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    fn stats_reply(&mut self, client: &mut Client, origin: Instant) -> Result<StatsReply, ()> {
        let sent = Instant::now();
        let WireStats {
            events,
            batches,
            view_epoch,
            ..
        } = self.call(|| client.stats())?;
        self.stats_rtts.push(sent.elapsed().as_secs_f64());
        Ok(StatsReply {
            at: origin.elapsed().as_secs_f64(),
            events,
            batches,
            view_epoch,
        })
    }

    fn top_k(&mut self, client: &mut Client) -> Result<(), ()> {
        let sent = Instant::now();
        self.call(|| client.top_k(TOP_K))?;
        self.topk_rtts.push(sent.elapsed().as_secs_f64());
        Ok(())
    }

    /// Times `samples` back-to-back `QueryTopK` requests on `client`'s
    /// tenant. A replay runs this block once its rounds are done, on the
    /// fully drained view, so every run has the same sample count.
    pub fn query_block(&mut self, client: &mut Client, samples: usize) {
        for _ in 0..samples {
            if self.top_k(client).is_err() {
                return;
            }
        }
    }
}

/// Closed-loop replay on one connection bound to `tenant`: each round
/// streams `bytes` in `frame_bytes` frames, ends the ingest, checks
/// `frequent_pairs(1)` against `oracle`, then evicts and re-opens the
/// tenant so the next round starts fresh. Rounds start until `deadline`;
/// the last round's tenant stays open.
pub fn replay_connection(
    client: &mut Client,
    tenant: &str,
    bytes: &[u8],
    frame_bytes: usize,
    oracle: &[(ExtentPair, u32)],
    deadline: Instant,
) -> ConnLog {
    let mut log = ConnLog::default();
    let _ = replay_rounds(
        &mut log,
        client,
        tenant,
        bytes,
        frame_bytes,
        oracle,
        deadline,
    );
    log
}

fn replay_rounds(
    log: &mut ConnLog,
    client: &mut Client,
    tenant: &str,
    bytes: &[u8],
    frame_bytes: usize,
    oracle: &[(ExtentPair, u32)],
    deadline: Instant,
) -> Result<(), ()> {
    loop {
        if log.rounds > 0 {
            log.call(|| client.evict(tenant))?;
            log.call(|| client.open(tenant))?;
        }
        let first_sent = Instant::now();
        let mut sends = Vec::with_capacity(bytes.len() / frame_bytes + 1);
        let mut last_ack = first_sent;
        for (id, frame) in bytes.chunks(frame_bytes).enumerate() {
            let sent = Instant::now();
            log.call(|| client.ingest(frame))?;
            last_ack = Instant::now();
            log.frame_rtts
                .push((id, last_ack.duration_since(sent).as_secs_f64()));
            sends.push(sent);
        }
        let events = log.call(|| client.end_ingest())?;
        let ended = Instant::now();
        log.end_rtts
            .push(ended.duration_since(last_ack).as_secs_f64());
        log.window_secs += ended.duration_since(first_sent).as_secs_f64();
        log.events += events;
        // No reader runs beside a replay, so a frame becomes visible when
        // `IngestEnd` acknowledges the drained view: its lag is the rest
        // of the round after it was sent (round latency).
        log.lags
            .extend(sends.iter().map(|s| ended.duration_since(*s).as_secs_f64()));
        let report = log.call(|| client.frequent_pairs(1))?;
        log.check(report, oracle, tenant);
        log.rounds += 1;
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// The paced live workload. `ingest` streams `frames` frames of
/// `frame_bytes` from `bytes`, frame `i` due at `i * interval` from the
/// start, then ends the ingest. Meanwhile `query` alternates top-k and
/// stats until the ingest has ended and at least `min_queries` top-k
/// round trips are timed, then asks stats once more so every frame's lag
/// resolves. Finally the tenant's `frequent_pairs(1)` is
/// checked against `oracle`. Returns the merged log.
#[allow(clippy::too_many_arguments)]
pub fn live(
    ingest: &mut Client,
    query: &mut Client,
    bytes: &[u8],
    frame_bytes: usize,
    frames: usize,
    interval: Duration,
    oracle: &[(ExtentPair, u32)],
    min_queries: usize,
) -> ConnLog {
    let origin = Instant::now();
    let ended = AtomicBool::new(false);
    let (mut ingest_log, marks, mut query_log, replies) = thread::scope(|scope| {
        let querier = scope.spawn(|| {
            let mut log = ConnLog::default();
            let mut replies = Vec::new();
            let _ = (|| -> Result<(), ()> {
                while !ended.load(Ordering::SeqCst) || log.topk_rtts.len() < min_queries {
                    log.top_k(query)?;
                    replies.push(log.stats_reply(query, origin)?);
                }
                replies.push(log.stats_reply(query, origin)?);
                Ok(())
            })();
            (log, replies)
        });
        let mut log = ConnLog::default();
        let mut marks = Vec::with_capacity(frames);
        let _ = paced_ingest(
            &mut log,
            &mut marks,
            ingest,
            bytes,
            frame_bytes,
            frames,
            interval,
            origin,
        );
        ended.store(true, Ordering::SeqCst);
        let (query_log, replies) = querier.join().expect("query thread panicked");
        (log, marks, query_log, replies)
    });
    let lags = stats::visible_lags(&marks, &replies);
    ingest_log.unresolved += marks.len() - lags.len();
    ingest_log.lags.extend(lags);
    if let Ok(report) = query_log.call(|| query.frequent_pairs(1)) {
        query_log.check(report, oracle, "live tenant");
    }
    ingest_log.merge(query_log);
    ingest_log
}

#[allow(clippy::too_many_arguments)]
fn paced_ingest(
    log: &mut ConnLog,
    marks: &mut Vec<FrameMark>,
    client: &mut Client,
    bytes: &[u8],
    frame_bytes: usize,
    frames: usize,
    interval: Duration,
    origin: Instant,
) -> Result<(), ()> {
    let secs = |t: Instant| t.duration_since(origin).as_secs_f64();
    let mut previous_ack = 0.0;
    let mut first_sent = None;
    for (id, frame) in bytes.chunks(frame_bytes).take(frames).enumerate() {
        let due = interval.as_secs_f64() * id as f64;
        let (send_at, _) = stats::paced_send(due, previous_ack);
        let now = secs(Instant::now());
        if send_at > now {
            thread::sleep(Duration::from_secs_f64(send_at - now));
        }
        let sent = Instant::now();
        first_sent.get_or_insert(sent);
        log.lateness.push(secs(sent) - due);
        let events = log.call(|| client.ingest(frame))?;
        let acked = Instant::now();
        previous_ack = secs(acked);
        log.frame_rtts
            .push((id, acked.duration_since(sent).as_secs_f64()));
        marks.push(FrameMark { due, events });
    }
    let events = log.call(|| client.end_ingest())?;
    log.window_secs += first_sent.unwrap_or(origin).elapsed().as_secs_f64();
    log.events += events;
    log.rounds += 1;
    Ok(())
}
