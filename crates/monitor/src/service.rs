//! The `rtdacd` service loop: a std-only TCP daemon serving the
//! [`TenantRuntime`] over the framed wire protocol
//! (`rtdac_types::wire`).
//!
//! One connection binds to one tenant (`Open`) and then interleaves
//! ingest frames — raw blktrace-codec bytes, fed straight into a
//! [`BlktraceEventSource`] whose chunked decoder reassembles records
//! across frame boundaries — with query frames answered from the
//! tenant's `LiveView`. Ingest is zero-copy from the decode buffer
//! into the pipeline; queries never quiesce the shard workers.
//!
//! Error containment: a *protocol* error (bad magic, unknown kind,
//! oversized length, malformed blktrace bytes) drops only the
//! offending connection. The bound tenant's pipeline has absorbed a
//! valid prefix of the stream and stays consistent; other tenants
//! never notice. *Command* errors (no tenant bound, tenant cap,
//! eviction races) are reported in-band and leave the connection
//! usable.
//!
//! Every wait is a blocking one: the accept loop blocks in `accept()`,
//! connection threads block reading their socket, and the idle sweeper
//! sleeps out its period. A `Shutdown` frame wakes each of them
//! explicitly, so an idle daemon spends no CPU on timers.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtdac_types::wire::{
    decode_pair_query, encode_pairs, encode_stats, encode_tenant_list, read_frame_into,
    write_frame, FrameKind, WireError, WireStats,
};
use rtdac_types::EventSource;

use crate::pipeline::IngestPipeline;
use crate::stream::BlktraceEventSource;
use crate::tenant::{Tenant, TenantRuntime, TenantRuntimeConfig};

/// Daemon configuration on top of the tenant runtime's.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Fleet sizing and lifecycle policy.
    pub runtime: TenantRuntimeConfig,
    /// Latency assigned to issue events whose completion never
    /// arrives, matching the offline readers' default.
    pub default_latency: Duration,
    /// How often the idle sweeper looks for idle tenants to park.
    pub idle_sweep: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            runtime: TenantRuntimeConfig::default(),
            default_latency: Duration::from_micros(100),
            idle_sweep: Duration::from_secs(1),
        }
    }
}

/// How long a query waits for the live view to reach the ingest
/// frontier after `IngestEnd` before reporting an error.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Read timeout while a frame is in flight (half-open protection).
/// Between frames a timeout only re-arms the wait.
const MID_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the accept loop pauses when the process or system is out
/// of file descriptors, so it does not spin while none are freed.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Daemon-wide state shared by the accept loop, the idle sweeper and
/// every connection thread.
struct Daemon {
    runtime: TenantRuntime,
    default_latency: Duration,
    shutdown: AtomicBool,
    /// Where a loopback connect reaches the listener: the wake-up for
    /// an accept loop blocked in `accept()`.
    wake_addr: SocketAddr,
    /// Every connection's socket. The handler thread owns the `Arc`,
    /// so a socket closes the moment its handler exits; shutdown
    /// upgrades the ones still open and shuts their read halves, which
    /// wakes a handler blocked waiting for its next frame.
    connections: Mutex<Vec<Weak<TcpStream>>>,
}

impl Daemon {
    /// Flags shutdown and wakes the accept loop with one loopback
    /// connect. Only the first call connects.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // The accept loop drops this connection unserved. Should
            // the connect fail, the next client to arrive wakes it.
            let _ = TcpStream::connect(self.wake_addr);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Records a new connection's socket, dropping entries whose
    /// handlers have exited.
    fn register(&self, stream: &Arc<TcpStream>) {
        let mut connections = self
            .connections
            .lock()
            .expect("connection registry poisoned");
        connections.retain(|conn| conn.strong_count() > 0);
        connections.push(Arc::downgrade(stream));
    }

    /// Wakes every connection handler still blocked on its socket: a
    /// shut read half reads as EOF once the buffered bytes are gone.
    fn hang_up_readers(&self) {
        let connections = std::mem::take(
            &mut *self
                .connections
                .lock()
                .expect("connection registry poisoned"),
        );
        for stream in connections.iter().filter_map(Weak::upgrade) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// The address a local connect reaches `bound` on: a wildcard bind is
/// reached through the loopback address of its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// What the accept loop does after a failed `accept()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// The failure belongs to one connection (it was aborted or reset
    /// before it was accepted, or the call was interrupted): accept
    /// the next one.
    Retry,
    /// File descriptors ran out: pause, then accept again once
    /// connections have closed.
    Backoff,
    /// The listener itself is broken: stop serving.
    Fatal,
}

/// `EMFILE`/`ENFILE`, numbered alike on Linux, macOS and the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Sorts an `accept()` error into transient and fatal. Linux also
/// reports a pending network error of the new connection through
/// `accept()`, and Windows a connection reset before it was accepted;
/// those are the new connection's failure, not the listener's.
fn classify_accept_error(error: &io::Error) -> AcceptFailure {
    use io::ErrorKind::*;
    match error.kind() {
        ConnectionAborted | ConnectionReset | Interrupted | HostUnreachable
        | NetworkUnreachable | NetworkDown => AcceptFailure::Retry,
        _ if cfg!(unix) && matches!(error.raw_os_error(), Some(EMFILE | ENFILE)) => {
            AcceptFailure::Backoff
        }
        _ => AcceptFailure::Fatal,
    }
}

/// The connection's one frame buffer, and the `Read` the blktrace
/// decoder pulls from: every frame's payload is read into `buf` in
/// place, and the decoder consumes an ingest payload from `pos` on.
/// Running dry is `WouldBlock` — *not* EOF — so the decoder parks with
/// its partial-record state intact until the next ingest frame
/// arrives; `IngestEnd` sets `eof` and turns dryness into a clean EOF.
#[derive(Default)]
struct ChunkFeed {
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
}

impl Read for ChunkFeed {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return if self.eof {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "awaiting frames"))
            };
        }
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// Per-connection state: the bound tenant plus this connection's
/// ingest session (decoder + D/C pairing window, which owns the
/// frame buffer).
struct Connection {
    daemon: Arc<Daemon>,
    tenant: Option<Arc<Mutex<Tenant>>>,
    source: BlktraceEventSource<ChunkFeed>,
    /// Events this connection has pushed into its tenant.
    events: u64,
}

/// A response plus whether the connection must close afterwards.
struct Reply {
    frame: (FrameKind, Vec<u8>),
    hangup: bool,
}

impl Reply {
    fn ok(kind: FrameKind, payload: Vec<u8>) -> Self {
        Reply {
            frame: (kind, payload),
            hangup: false,
        }
    }

    fn ack() -> Self {
        Reply::ok(FrameKind::Ack, Vec::new())
    }

    /// Command-level error: reported in-band, connection stays up.
    fn error(message: String) -> Self {
        Reply::ok(FrameKind::Error, message.into_bytes())
    }

    /// Protocol-level error: reported, then the connection drops.
    fn fatal(message: String) -> Self {
        Reply {
            frame: (FrameKind::Error, message.into_bytes()),
            hangup: true,
        }
    }
}

impl Connection {
    fn new(daemon: Arc<Daemon>) -> Self {
        let source = BlktraceEventSource::new(ChunkFeed::default(), daemon.default_latency);
        Connection {
            daemon,
            tenant: None,
            source,
            events: 0,
        }
    }

    /// Reads the next frame's payload into the feed's buffer, over the
    /// last frame's bytes: [`Connection::pump`] reads an ingest payload
    /// to its end, and any other payload is consumed by its command.
    /// An ingest payload refused because no tenant is bound (or it was
    /// evicted) is overwritten unread. It could never be decoded: only
    /// an `Open` makes ingest possible again, and it starts a fresh
    /// session.
    fn read_frame(&mut self, r: &mut impl Read) -> Result<FrameKind, WireError> {
        let feed = self.source.get_mut();
        feed.pos = 0;
        read_frame_into(r, &mut feed.buf)
    }

    /// Answers the frame [`Connection::read_frame`] just read.
    fn dispatch(&mut self, kind: FrameKind) -> Reply {
        if kind == FrameKind::Ingest {
            return match self.with_pipeline(true, |conn, pipeline| {
                conn.pump(pipeline)
                    .map_err(|e| Reply::fatal(format!("ingest decode failed: {e}")))
            }) {
                Ok(()) => Reply::ok(FrameKind::Ack, self.events.to_le_bytes().to_vec()),
                Err(reply) => reply,
            };
        }
        // Any other payload is a command argument, never decoder input:
        // lend it to the command, then hand the buffer back consumed so
        // its capacity carries over to the next frame.
        let payload = std::mem::take(&mut self.source.get_mut().buf);
        let reply = self.handle(kind, &payload);
        let feed = self.source.get_mut();
        feed.pos = payload.len();
        feed.buf = payload;
        reply
    }

    /// Drains every decodable event into the pipeline, which reads the
    /// feed dry. `WouldBlock` means the decoder needs more frames — not
    /// an error.
    fn pump(&mut self, pipeline: &mut IngestPipeline) -> io::Result<()> {
        loop {
            match self.source.next_event() {
                Ok(Some(event)) => {
                    pipeline.push(event);
                    self.events += 1;
                }
                Ok(None) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs `f` on the bound tenant's pipeline, mapping the unbound /
    /// evicted cases to command errors.
    fn with_pipeline<T>(
        &mut self,
        touch: bool,
        f: impl FnOnce(&mut Self, &mut IngestPipeline) -> Result<T, Reply>,
    ) -> Result<T, Reply> {
        let Some(tenant) = self.tenant.clone() else {
            return Err(Reply::error("no tenant bound; send Open first".into()));
        };
        let mut tenant = tenant.lock().expect("tenant poisoned");
        let pipeline = if touch {
            tenant.pipeline()
        } else {
            tenant.peek_mut()
        };
        match pipeline {
            Ok(pipeline) => f(self, pipeline),
            Err(e) => Err(Reply::error(e.to_string())),
        }
    }

    /// Waits until the live view has folded deltas up to the
    /// pipeline's current frontier, driving the publish cadence with
    /// heartbeats while the stream is paused.
    fn drain_live(pipeline: &mut IngestPipeline) -> Result<(), Reply> {
        if pipeline.live_view().is_none() {
            return Ok(());
        }
        let target = pipeline.frontier_epoch();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            if pipeline.poll_live().is_some_and(|epoch| epoch >= target) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(Reply::error("live view drain timed out".into()));
            }
            pipeline.heartbeat();
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn handle(&mut self, kind: FrameKind, payload: &[u8]) -> Reply {
        match kind {
            FrameKind::Open => {
                let Ok(id) = std::str::from_utf8(payload) else {
                    return Reply::fatal("tenant id is not utf-8".into());
                };
                match self.daemon.runtime.open(id) {
                    Ok(tenant) => {
                        self.tenant = Some(tenant);
                        // A fresh ingest session per binding: decoder
                        // and pairing window reset, the tenant's
                        // pipeline state persists.
                        self.source = BlktraceEventSource::new(
                            ChunkFeed::default(),
                            self.daemon.default_latency,
                        );
                        self.events = 0;
                        Reply::ack()
                    }
                    Err(e) => Reply::error(e.to_string()),
                }
            }
            FrameKind::Flush => match self.with_pipeline(true, |_, pipeline| {
                pipeline.flush_batch();
                Ok(())
            }) {
                Ok(()) => Reply::ack(),
                Err(reply) => reply,
            },
            FrameKind::IngestEnd => {
                self.source.get_mut().eof = true;
                match self.with_pipeline(true, |conn, pipeline| {
                    conn.pump(pipeline)
                        .map_err(|e| Reply::fatal(format!("ingest decode failed: {e}")))?;
                    pipeline.flush_window();
                    Self::drain_live(pipeline)
                }) {
                    Ok(()) => Reply::ok(FrameKind::Ack, self.events.to_le_bytes().to_vec()),
                    Err(reply) => reply,
                }
            }
            FrameKind::QueryTopK => {
                let Ok(bytes) = <[u8; 4]>::try_from(payload) else {
                    return Reply::fatal("top-k payload must be a u32".into());
                };
                let k = u32::from_le_bytes(bytes) as usize;
                self.query(|view| {
                    let mut pairs = Vec::new();
                    view.top_pairs_into(k, &mut pairs);
                    pairs
                })
            }
            FrameKind::QueryFrequent => {
                let Ok(bytes) = <[u8; 4]>::try_from(payload) else {
                    return Reply::fatal("frequent-pairs payload must be a u32".into());
                };
                let min_tally = u32::from_le_bytes(bytes);
                self.query(|view| view.frequent_pairs(min_tally))
            }
            FrameKind::QueryPair => {
                let pair = match decode_pair_query(payload) {
                    Ok(pair) => pair,
                    Err(e) => return Reply::fatal(e.to_string()),
                };
                match self.with_pipeline(false, |_, pipeline| {
                    pipeline.poll_live();
                    let Some(view) = pipeline.live_view() else {
                        return Err(Reply::error("live queries disabled for this tenant".into()));
                    };
                    let tally = view.pair_tally(&pair);
                    let mut payload = vec![u8::from(tally.is_some())];
                    payload.extend_from_slice(&tally.unwrap_or(0).to_le_bytes());
                    Ok(payload)
                }) {
                    Ok(payload) => Reply::ok(FrameKind::Tally, payload),
                    Err(reply) => reply,
                }
            }
            FrameKind::QueryStats => {
                let events = self.events;
                match self.with_pipeline(false, |_, pipeline| {
                    pipeline.poll_live();
                    let stats = pipeline.stats();
                    Ok(WireStats {
                        events: events.max(pipeline.monitor().stats().events),
                        transactions: stats.transactions,
                        batches: stats.batches,
                        view_epoch: pipeline
                            .live_view()
                            .map_or(0, |view| view.epoch().batches()),
                        parked: pipeline.is_parked(),
                    })
                }) {
                    Ok(stats) => Reply::ok(FrameKind::Stats, encode_stats(&stats)),
                    Err(reply) => reply,
                }
            }
            FrameKind::ListTenants => Reply::ok(
                FrameKind::TenantList,
                encode_tenant_list(&self.daemon.runtime.tenant_ids()),
            ),
            FrameKind::Evict => {
                let Ok(id) = std::str::from_utf8(payload) else {
                    return Reply::fatal("tenant id is not utf-8".into());
                };
                match self.daemon.runtime.evict(id) {
                    Some(_) => Reply::ack(),
                    None => Reply::error(format!("unknown tenant: {id}")),
                }
            }
            FrameKind::Shutdown => {
                self.daemon.request_shutdown();
                Reply {
                    frame: (FrameKind::Ack, Vec::new()),
                    hangup: true,
                }
            }
            // Response kinds arriving at the server are protocol abuse.
            _ => Reply::fatal(format!("unexpected frame kind {kind:?}")),
        }
    }

    /// Shared shape of the pair-report queries: poll the view to its
    /// latest published epoch, then answer from it.
    fn query(
        &mut self,
        f: impl FnOnce(&mut rtdac_synopsis::LiveView) -> Vec<(rtdac_types::ExtentPair, u32)>,
    ) -> Reply {
        match self.with_pipeline(false, |_, pipeline| {
            pipeline.poll_live();
            let Some(view) = pipeline.live_view_mut() else {
                return Err(Reply::error("live queries disabled for this tenant".into()));
            };
            Ok(f(view))
        }) {
            Ok(pairs) => Reply::ok(FrameKind::Pairs, encode_pairs(&pairs)),
            Err(reply) => reply,
        }
    }
}

/// Serves connections on `listener` until a `Shutdown` frame arrives,
/// then drains every tenant and returns. Each connection gets its own
/// thread, and a sweeper thread parks idle tenants every
/// [`ServiceConfig::idle_sweep`]. Transient `accept()` failures are
/// survived; `Err` means the listener itself failed, and even then every
/// tenant is drained first.
pub fn serve(listener: TcpListener, config: ServiceConfig) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    let daemon = Arc::new(Daemon {
        runtime: TenantRuntime::new(config.runtime.clone()),
        default_latency: config.default_latency,
        shutdown: AtomicBool::new(false),
        wake_addr: wake_address(listener.local_addr()?),
        connections: Mutex::new(Vec::new()),
    });
    let sweeper = {
        let daemon = Arc::clone(&daemon);
        thread::Builder::new()
            .name("rtdacd-sweeper".into())
            .spawn(move || sweep_idle(&daemon, config.idle_sweep))?
    };
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let result = accept_until_shutdown(&listener, &daemon, &mut workers);
    // Stop everything else, whichever way the accept loop ended. The
    // flag is set before each wake-up, so no waiter can miss it.
    daemon.shutdown.store(true, Ordering::SeqCst);
    sweeper.thread().unpark();
    daemon.hang_up_readers();
    for worker in workers {
        let _ = worker.join();
    }
    let _ = sweeper.join();
    daemon.runtime.shutdown();
    result
}

/// The accept loop: blocks in `accept()` and spawns one handler thread
/// per connection until shutdown is requested.
fn accept_until_shutdown(
    listener: &TcpListener,
    daemon: &Arc<Daemon>,
    workers: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    loop {
        let accepted = listener.accept();
        if daemon.is_shutting_down() {
            return Ok(());
        }
        match accepted {
            Ok((stream, _)) => {
                let stream = Arc::new(stream);
                daemon.register(&stream);
                let daemon = Arc::clone(daemon);
                workers.push(thread::spawn(move || {
                    // A broken connection already cleaned up after
                    // itself; nothing to report.
                    let _ = handle_connection(&stream, daemon);
                }));
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptFailure::Retry => {}
                AcceptFailure::Backoff => thread::sleep(ACCEPT_BACKOFF),
                AcceptFailure::Fatal => return Err(e),
            },
        }
        workers.retain(|w| !w.is_finished());
    }
}

/// The idle sweeper: parks idle tenants every `period` until shutdown,
/// which unparks it.
fn sweep_idle(daemon: &Daemon, period: Duration) {
    let mut next = Instant::now() + period;
    while !daemon.is_shutting_down() {
        let now = Instant::now();
        if now < next {
            thread::park_timeout(next - now);
            continue;
        }
        daemon.runtime.park_idle();
        next = now + period;
    }
}

/// One connection's read-dispatch-write loop.
fn handle_connection(stream: &TcpStream, daemon: Arc<Daemon>) -> io::Result<()> {
    let mut connection = Connection::new(daemon);
    // One timeout for the connection's life: it bounds a stalled
    // mid-frame read, while between frames it only re-arms the wait.
    // Shutdown wakes an idle wait by shutting the read half (EOF).
    stream.set_read_timeout(Some(MID_FRAME_TIMEOUT))?;
    let mut io = stream;
    loop {
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()), // client closed, or daemon shutdown
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if connection.daemon.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let reply = match connection.read_frame(&mut io) {
            Ok(kind) => connection.dispatch(kind),
            Err(WireError::Io(e)) => return Err(e),
            // Protocol garbage: answer once, then hang up. The
            // stream position is undefined, so reading on would only
            // misparse.
            Err(e) => Reply::fatal(e.to_string()),
        };
        let (kind, payload) = reply.frame;
        write_frame(&mut io, kind, &payload)?;
        io.flush()?;
        if reply.hangup {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_of_one_connection_are_retried() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
            io::ErrorKind::NetworkUnreachable,
        ] {
            assert_eq!(
                classify_accept_error(&io::Error::from(kind)),
                AcceptFailure::Retry,
                "{kind:?}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn descriptor_exhaustion_backs_off() {
        for errno in [EMFILE, ENFILE] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(errno)),
                AcceptFailure::Backoff,
                "errno {errno}"
            );
        }
    }

    #[test]
    fn listener_failures_are_fatal() {
        for kind in [
            io::ErrorKind::InvalidInput,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::Other,
        ] {
            assert_eq!(
                classify_accept_error(&io::Error::from(kind)),
                AcceptFailure::Fatal,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn wildcard_binds_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7000".parse().unwrap();
        assert_eq!(wake_address(v4), "127.0.0.1:7000".parse().unwrap());
        let v6: SocketAddr = "[::]:7000".parse().unwrap();
        assert_eq!(wake_address(v6), "[::1]:7000".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:7000".parse().unwrap();
        assert_eq!(wake_address(bound), bound);
    }
}
