//! End-to-end tests of the `rtdacd` service loop over loopback TCP:
//! multi-tenant bit-exactness against the offline reference,
//! protocol-error containment at the socket boundary, and the daemon's
//! lifecycle: prompt shutdown past idle connections, and an idle daemon
//! that uses no CPU.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rtdac::monitor::{blktrace, serve, BlktraceEventSource, Monitor, ServiceConfig, TenantRuntime};
use rtdac::synopsis::ReferenceAnalyzer;
use rtdac::types::wire::{read_frame, write_frame, FrameKind, WireClient, WireError, WIRE_MAGIC};
use rtdac::types::{EventSource, ExtentPair};
use rtdac::workloads::MsrServer;

/// Matches the daemon's unmatched-issue latency.
const DEFAULT_LATENCY: Duration = Duration::from_micros(100);

fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.runtime.tenant_budget_bytes = 64 * 1024;
    config.runtime.max_tenants = 4;
    config
}

/// Spawns a daemon on an ephemeral loopback port; returns its address
/// and the serve-loop handle (joined after a `Shutdown` frame).
fn spawn_daemon(config: ServiceConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || serve(listener, config).expect("serve"));
    (addr, handle)
}

fn connect(addr: std::net::SocketAddr) -> WireClient<TcpStream> {
    WireClient::new(TcpStream::connect(addr).expect("connect"))
}

/// A synthesized trace in its blktrace-binary (= wire ingest) form.
fn trace_bytes(server: MsrServer, requests: usize, seed: u64) -> Vec<u8> {
    let trace = server.synthesize(requests, seed);
    let mut bytes = Vec::new();
    blktrace::write_trace(&trace, &mut bytes).expect("encode");
    bytes
}

/// What the daemon must report for `bytes`: the offline reference run
/// with the daemon's own tenant sizing, ties totally ordered the way
/// the live view orders them.
fn oracle_pairs(bytes: &[u8], config: &ServiceConfig) -> Vec<(ExtentPair, u32)> {
    let runtime = TenantRuntime::new(config.runtime.clone());
    let mut source = BlktraceEventSource::new(BufReader::new(bytes), DEFAULT_LATENCY);
    let mut monitor = Monitor::new(config.runtime.monitor.clone());
    let mut analyzer = ReferenceAnalyzer::new(runtime.analyzer_config().clone());
    while let Some(event) = source.next_event().expect("decode") {
        if let Some(txn) = monitor.push(event) {
            analyzer.process(&txn);
        }
    }
    if let Some(txn) = monitor.flush() {
        analyzer.process(&txn);
    }
    let mut pairs = analyzer.frequent_pairs(1);
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

#[test]
fn two_concurrent_tenants_are_bit_exact_and_isolated() {
    let config = service_config();
    let (addr, daemon) = spawn_daemon(config.clone());
    let tenants = [
        ("wdev", trace_bytes(MsrServer::Wdev, 3_000, 11)),
        ("stg", trace_bytes(MsrServer::Stg, 3_000, 12)),
    ];

    // Stream both tenants concurrently, interleaved in small chunks.
    let streamers: Vec<_> = tenants
        .iter()
        .map(|(id, bytes)| {
            let (id, bytes) = (id.to_string(), bytes.clone());
            thread::spawn(move || {
                let mut client = connect(addr);
                client.open(&id).expect("open");
                for chunk in bytes.chunks(4096) {
                    client.ingest(chunk).expect("ingest");
                }
                client.end_ingest().expect("end ingest")
            })
        })
        .collect();
    for streamer in streamers {
        assert!(streamer.join().expect("streamer") > 0);
    }

    // Each tenant's report equals its own oracle — no cross-talk.
    let mut client = connect(addr);
    for (id, bytes) in &tenants {
        let oracle = oracle_pairs(bytes, &config);
        client.open(id).expect("open");
        let top = client.top_k(oracle.len() as u32).expect("top-k");
        assert_eq!(top, oracle, "tenant {id} diverged from its oracle");
        let frequent = client.frequent_pairs(2).expect("frequent");
        let expected: Vec<_> = oracle.iter().copied().filter(|&(_, t)| t >= 2).collect();
        assert_eq!(frequent, expected);
        // Point queries agree with the report.
        if let Some(&(pair, tally)) = oracle.first() {
            assert_eq!(client.pair_tally(pair).expect("point"), Some(tally));
        }
        let stats = client.stats().expect("stats");
        assert!(stats.events > 0 && stats.transactions > 0);
    }
    assert_eq!(client.tenants().expect("list"), ["stg", "wdev"]);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn tenant_cap_is_reported_in_band() {
    let mut config = service_config();
    config.runtime.max_tenants = 1;
    let (addr, daemon) = spawn_daemon(config);
    let mut client = connect(addr);
    client.open("only").expect("first tenant admitted");
    match client.open("too-many") {
        Err(WireError::Remote(message)) => assert!(message.contains("limit")),
        other => panic!("expected remote admission error, got {other:?}"),
    }
    // The connection survives the command error.
    client.open("only").expect("rebind");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits");
}

/// Expects the server to answer one `Error` frame and then close.
fn assert_error_then_close(mut stream: TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.kind, FrameKind::Error, "got {frame:?}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "server wrote past the error frame");
}

#[test]
fn malformed_wire_input_drops_only_the_offending_connection() {
    let config = service_config();
    let (addr, daemon) = spawn_daemon(config.clone());

    // A healthy tenant ingests first; it must be unaffected throughout.
    let bytes = trace_bytes(MsrServer::Wdev, 1_000, 3);
    let mut healthy = connect(addr);
    healthy.open("healthy").expect("open");
    healthy.ingest(&bytes).expect("ingest");
    healthy.end_ingest().expect("end");
    let oracle = oracle_pairs(&bytes, &config);

    // Case 1: truncated blktrace record mid-frame — the decoder holds
    // the partial tail across frames, so the truncation only surfaces
    // (and kills the connection) at IngestEnd.
    {
        let mut client = connect(addr);
        client.open("victim").expect("open");
        client
            .ingest(&bytes[..blktrace::RECORD_BYTES + 7])
            .expect("partial record parks in the decoder");
        let mut stream = client.into_inner();
        write_frame(&mut stream, FrameKind::IngestEnd, &[]).expect("send end");
        assert_error_then_close(stream);
    }

    // Case 2: bad frame magic.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&(WIRE_MAGIC ^ 0xdead).to_le_bytes());
        header.push(2);
        header.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&header).expect("send garbage");
        assert_error_then_close(stream);
    }

    // Case 3: oversized frame length — rejected before any payload
    // buffering.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        header.push(2);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&header).expect("send oversized");
        assert_error_then_close(stream);
    }

    // Case 4: unknown frame kind.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        header.push(250);
        header.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&header).expect("send unknown kind");
        assert_error_then_close(stream);
    }

    // The healthy tenant still answers, bit-exact; the victim tenant's
    // pipeline absorbed a valid prefix (zero full transactions here)
    // and can be re-opened and streamed cleanly.
    let mut client = connect(addr);
    client.open("healthy").expect("reopen");
    assert_eq!(
        client.top_k(oracle.len() as u32).expect("top-k"),
        oracle,
        "healthy tenant was disturbed by another connection's garbage"
    );
    client.open("victim").expect("victim is re-openable");
    client.ingest(&bytes).expect("fresh session ingests");
    client.end_ingest().expect("end");
    assert!(!client.top_k(5).expect("victim answers").is_empty());
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn queries_without_a_bound_tenant_are_command_errors() {
    let (addr, daemon) = spawn_daemon(service_config());
    let mut client = connect(addr);
    match client.top_k(5) {
        Err(WireError::Remote(message)) => assert!(message.contains("Open")),
        other => panic!("expected remote error, got {other:?}"),
    }
    // Still usable afterwards.
    client.open("t").expect("open");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits");
}

#[test]
fn shutdown_wakes_idle_bound_connections_promptly() {
    let (addr, daemon) = spawn_daemon(service_config());
    let idle: Vec<TcpStream> = ["a", "b"]
        .into_iter()
        .map(|id| {
            let mut client = connect(addr);
            client.open(id).expect("open");
            client.into_inner()
        })
        .collect();
    connect(addr).shutdown().expect("shutdown");
    let requested = Instant::now();
    while !daemon.is_finished() && requested.elapsed() < Duration::from_secs(1) {
        thread::sleep(Duration::from_millis(5));
    }
    assert!(
        daemon.is_finished(),
        "serve still running 1 s after Shutdown with two idle connections"
    );
    daemon.join().expect("daemon exits");
    for mut stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("idle client reads EOF");
        assert!(rest.is_empty(), "idle client got unsolicited bytes");
    }
}

/// Kills and reaps the daemon process if a test leaves it running.
#[cfg(target_os = "linux")]
struct ChildGuard(std::process::Child);

#[cfg(target_os = "linux")]
impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU of process `pid` (all threads), in clock ticks.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[cfg(target_os = "linux")]
#[test]
fn idle_daemon_uses_no_cpu() {
    use std::process::{Command, Stdio};

    let port_file = std::env::temp_dir().join(format!("rtdacd-idle-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut daemon = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_rtdacd"))
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn rtdacd"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let port = loop {
        let published = std::fs::read_to_string(&port_file).ok();
        if let Some(port) = published.and_then(|text| text.trim().parse::<u16>().ok()) {
            break port;
        }
        assert!(Instant::now() < deadline, "rtdacd never published its port");
        thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));

    // Two connections, each bound to its own tenant (so each tenant's
    // shard workers are up and waiting), then silence.
    let idle: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|id| {
            let mut client = connect(addr);
            client.open(id).expect("open");
            client
        })
        .collect();
    thread::sleep(Duration::from_millis(300));
    let pid = daemon.0.id();
    let before = cpu_ticks(pid);
    thread::sleep(Duration::from_secs(3));
    let used = cpu_ticks(pid) - before;

    connect(addr).shutdown().expect("shutdown");
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait rtdacd") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "rtdacd still running 10 s after Shutdown"
        );
        thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "rtdacd exited with {status}");
    assert!(
        used <= 1,
        "idle rtdacd used {used} CPU ticks in 3 s (allowed: 1 tick)"
    );
}
