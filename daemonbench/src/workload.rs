//! The benchmark's workloads: which MSR-like server each streams, how the
//! bytes are generated from the seed, and the in-process oracle every
//! daemon report must equal.

use std::time::Duration;

use rtdac_monitor::{blktrace, BlktraceEventSource, Monitor, TenantRuntime, TenantRuntimeConfig};
use rtdac_monitor::{PipelineConfig, ServiceConfig};
use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
use rtdac_types::{EventSource, Extent, ExtentPair, FxHashMap};
use rtdac_workloads::MsrServer;

/// Ingest frame size of the closed-loop replays: `WireClient::ingest`'s
/// own chunking.
pub const REPLAY_FRAME_BYTES: usize = 256 * 1024;

/// Offered rate of the paced `src2-live` ingest connection, events/s.
pub const LIVE_RATE_EPS: f64 = 10_000.0;

/// Frame size of the paced `src2-live` ingest: 64 KiB rounded down to
/// whole 40-byte records, so every prefix of frames the run sends is a
/// whole-record stream the oracle can replay.
pub const LIVE_FRAME_BYTES: usize = (64 * 1024 / blktrace::RECORD_BYTES) * blktrace::RECORD_BYTES;

/// Requests per replay round (one tenant's stream, ingested start to
/// `IngestEnd` and checked against its oracle each round).
pub const REPLAY_ROUND_REQUESTS: usize = 100_000;

/// Live top-k the query loop asks for.
pub const TOP_K: u32 = 20;

/// The benchmark's workloads. Why each exists is its `why` in
/// BENCHMARK.json.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One tenant, closed-loop replay of a wdev stream.
    WdevReplay,
    /// Two tenants on two connections, each replaying a distinct-seed
    /// stg stream.
    StgReplay2t,
    /// One tenant: src2 ingest paced open-loop beside a closed query
    /// loop on a second connection.
    Src2Live,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::WdevReplay,
        Workload::StgReplay2t,
        Workload::Src2Live,
    ];

    /// The name the command line and BENCHMARK.json use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WdevReplay => "wdev-replay",
            Workload::StgReplay2t => "stg-replay-2t",
            Workload::Src2Live => "src2-live",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn server(self) -> MsrServer {
        match self {
            Workload::WdevReplay => MsrServer::Wdev,
            Workload::StgReplay2t => MsrServer::Stg,
            Workload::Src2Live => MsrServer::Src2,
        }
    }

    /// Tenants (one ingest connection each).
    pub fn tenants(self) -> usize {
        match self {
            Workload::StgReplay2t => 2,
            _ => 1,
        }
    }

    /// Whether ingest is paced open-loop with a concurrent query loop.
    pub fn is_live(self) -> bool {
        self == Workload::Src2Live
    }

    /// Ingest frame size in bytes.
    pub fn frame_bytes(self) -> usize {
        if self.is_live() {
            LIVE_FRAME_BYTES
        } else {
            REPLAY_FRAME_BYTES
        }
    }

    /// Generates each tenant's stream from `seed`. Replays get one
    /// round's worth; the live stream is long enough for `seconds` of
    /// pacing at [`LIVE_RATE_EPS`] with a fifth to spare.
    pub fn streams(self, seed: u64, seconds: f64) -> Vec<Stream> {
        let requests = if self.is_live() {
            (LIVE_RATE_EPS * seconds * 1.2) as usize + 10_000
        } else {
            REPLAY_ROUND_REQUESTS
        };
        (0..self.tenants())
            .map(|t| {
                let stream_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t as u64 + 1);
                Stream::synthesize(self.server(), requests, stream_seed)
            })
            .collect()
    }
}

/// One tenant's input: the blktrace-codec bytes the wire carries, plus
/// the facts about them the report records.
pub struct Stream {
    /// Blktrace-codec bytes (issue and completion records).
    pub bytes: Vec<u8>,
    /// Issue events (requests) in `bytes`.
    pub events: u64,
    /// Total over unique data accessed (Table I's reuse ratio).
    pub reuse_ratio: f64,
    /// Share of requests whose extent is accessed exactly once.
    pub one_off_share: f64,
}

impl Stream {
    fn synthesize(server: MsrServer, requests: usize, seed: u64) -> Stream {
        let trace = server.synthesize(requests, seed);
        let mut bytes = Vec::with_capacity(trace.len() * 2 * blktrace::RECORD_BYTES);
        blktrace::write_trace(&trace, &mut bytes).expect("writing to a Vec cannot fail");
        let mut seen: FxHashMap<Extent, u32> = FxHashMap::default();
        for request in trace.iter() {
            *seen.entry(request.extent).or_default() += 1;
        }
        let once = seen.values().filter(|&&n| n == 1).count();
        Stream {
            bytes,
            events: trace.len() as u64,
            reuse_ratio: trace.stats().reuse_ratio(),
            one_off_share: once as f64 / trace.len().max(1) as f64,
        }
    }

    /// The whole-record prefix covering the first `frames` frames of
    /// `frame_bytes` each.
    pub fn prefix(&self, frames: usize, frame_bytes: usize) -> &[u8] {
        &self.bytes[..(frames * frame_bytes).min(self.bytes.len())]
    }
}

/// The tenant configuration `rtdacd` runs with its default flags
/// (1 shard, 512 KiB per tenant, publish interval 4, no doorkeeper).
/// `Daemon::spawn` checks the tenant cap and budget against the
/// daemon's banner; the shard count and publish interval it cannot check.
pub fn daemon_runtime_config() -> TenantRuntimeConfig {
    TenantRuntimeConfig {
        max_tenants: 64,
        tenant_budget_bytes: 512 * 1024,
        doorkeeper_bytes: 0,
        pipeline: PipelineConfig::with_shards(1).publish_interval(4),
        idle_park_after: Duration::from_secs(30),
        ..TenantRuntimeConfig::default()
    }
}

/// Latency the daemon gives issues whose completion never arrives.
pub fn daemon_default_latency() -> Duration {
    ServiceConfig::default().default_latency
}

/// The analyzer sizing every daemon tenant gets.
pub fn daemon_analyzer_config() -> AnalyzerConfig {
    TenantRuntime::new(daemon_runtime_config())
        .analyzer_config()
        .clone()
}

/// Ties broken the way the daemon's live view orders them (tally
/// descending, pair ascending), so reports compare exactly.
pub fn canonical(mut pairs: Vec<(ExtentPair, u32)>) -> Vec<(ExtentPair, u32)> {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

/// What the oracle computed over one stream.
pub struct Oracle {
    /// Every tracked pair and tally, canonically ordered.
    pub pairs: Vec<(ExtentPair, u32)>,
    /// Events decoded.
    pub events: u64,
    /// Transactions the monitor formed.
    pub transactions: u64,
    /// Pair-table hits over records.
    pub pair_hit_ratio: f64,
    /// Item-table hits over records.
    pub item_hit_ratio: f64,
}

/// Replays `bytes` in process exactly as one daemon connection would
/// (`BlktraceEventSource` → `Monitor` → analyzer at the daemon's
/// sizing, window flushed at end of stream) and reports `frequent_pairs(1)`.
pub fn oracle(bytes: &[u8], config: &AnalyzerConfig) -> Oracle {
    let mut source = BlktraceEventSource::new(bytes, daemon_default_latency());
    let mut monitor = Monitor::new(daemon_runtime_config().monitor);
    let mut analyzer = OnlineAnalyzer::new(config.clone());
    while let Some(event) = source
        .next_event()
        .expect("generated streams decode cleanly")
    {
        if let Some(txn) = monitor.push(event) {
            analyzer.process(&txn);
        }
    }
    if let Some(txn) = monitor.flush() {
        analyzer.process(&txn);
    }
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let pairs = analyzer.correlation_table().stats();
    let items = analyzer.item_table().stats();
    Oracle {
        pairs: canonical(analyzer.frequent_pairs(1)),
        events: monitor.stats().events,
        transactions: monitor.stats().transactions,
        pair_hit_ratio: ratio(pairs.hits, pairs.misses),
        item_hit_ratio: ratio(items.hits, items.misses),
    }
}
