//! The `--trace 1` run: per-layer metrics and the ledger.
//!
//! The daemon is driven once more (for its CPU per event and its frame
//! round trips); then the same bytes are replayed in process through
//! each layer's public functions in the daemon's order, with spans
//! recorded here, around the calls — nothing inside the program is
//! instrumented. A single-threaded pass gives each layer's self time;
//! a threaded pass through `TenantRuntime` and `IngestPipeline` (with a
//! query thread on the live workload) gives the waits: tenant lock
//! acquisition and the pipeline's own stall and skip counters.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use rtdac_monitor::{BlktraceEventSource, Monitor, Router, RouterConfig, TenantRuntime, WorkList};
use rtdac_synopsis::{AnalyzerConfig, LiveView, OnlineAnalyzer, ShardDelta, TableDelta};
use rtdac_types::wire::{read_frame, write_frame, FrameKind};
use rtdac_types::{Epoch, EventSource, ExtentPair, IoEvent, Transaction};

use crate::stats;
use crate::workload::{self, Workload, TOP_K};
use crate::{drive, Args, Inputs, Report};

/// Alternating untraced/traced single-threaded passes per run.
const PASSES: usize = 3;

/// Layers whose spans run on a shard worker or the query connection in
/// the daemon, not on the ingest connection's thread.
const OFF_CONNECTION: [&str; 4] = ["synopsis", "live.extract", "live.fold", "live.topk"];

/// Ledger rows, in the daemon's order along one event's path.
const LAYERS: [&str; 9] = [
    "wire",
    "stream",
    "monitor",
    "router",
    "synopsis",
    "live.extract",
    "live.fold",
    "live.topk",
    "service",
];

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The frame id the span worked for.
    request: u64,
}

/// In-memory span recorder; disabled, it records nothing.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.stack.pop().expect("exit without enter");
        self.spans[index].end_ns = self.now();
    }

    /// Runs `f` inside a leaf span.
    fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Per span: its duration minus the time its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| (span.end_ns - span.start_ns).saturating_sub(covered))
            .collect()
    }

    /// Self time and call count per span name.
    fn by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut layers = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = layers.entry(span.name).or_insert((0, 0));
            entry.0 += self_ns;
            entry.1 += 1;
        }
        layers
    }

    /// Ingest-connection handling time per root span (frame): its
    /// duration minus the children that run elsewhere in the daemon.
    fn handling_ns(&self) -> BTreeMap<u64, u64> {
        let mut handling = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            match span.parent {
                None => *handling.entry(span.request).or_insert(0) += duration,
                Some(_) if OFF_CONNECTION.contains(&span.name) => {
                    let entry = handling.entry(span.request).or_insert(0u64);
                    *entry = entry.saturating_sub(duration);
                }
                Some(_) => {}
            }
        }
        handling
    }

    /// Writes the spans as tab-separated lines.
    fn write(&self, path: &Path, tenant: usize) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\ttenant\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{tenant}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// The daemon's per-connection ingest feed: frame payloads go in one
/// handle, the decoder reads from the other; empty is `WouldBlock`
/// until the stream is ended.
#[derive(Clone, Default)]
struct Feed(Rc<RefCell<(VecDeque<u8>, bool)>>);

impl Feed {
    fn push(&self, bytes: &[u8]) {
        self.0.borrow_mut().0.extend(bytes);
    }

    fn end(&self) {
        self.0.borrow_mut().1 = true;
    }
}

impl Read for Feed {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut state = self.0.borrow_mut();
        let (buf, ended) = &mut *state;
        if buf.is_empty() {
            return if *ended {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "awaiting frames"))
            };
        }
        let (front, _) = buf.as_slices();
        let n = front.len().min(out.len());
        out[..n].copy_from_slice(&front[..n]);
        buf.drain(..n);
        Ok(n)
    }
}

/// Decodes every event the feed holds into `out`.
fn decode_available(source: &mut BlktraceEventSource<Feed>, out: &mut Vec<IoEvent>) {
    loop {
        match source.next_event() {
            Ok(Some(event)) => out.push(event),
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) => panic!("generated stream failed to decode: {e}"),
        }
    }
}

fn delta_entries<K>(delta: &TableDelta<K>) -> u64 {
    (delta.ops.len() + delta.touched_t1.len() + delta.touched_t2.len()) as u64
}

/// Counts a single-threaded pass leaves behind.
#[derive(Default)]
struct ReplicaCounts {
    events: u64,
    transactions: u64,
    limit_splits: u64,
    routed_ops: u64,
    pair_hits: u64,
    pair_misses: u64,
    item_hits: u64,
    item_misses: u64,
    pair_evictions: u64,
    delta_entries: u64,
    lag_epochs: Vec<f64>,
    topk_ns: Vec<f64>,
}

/// One daemon tenant's ingest path rebuilt single-threaded from the
/// public pieces, in the daemon's order: frame decode → blktrace decode
/// and D/C pairing → monitor → 64-transaction batches → router → shard
/// apply → delta publish every `publish_interval` batches over two
/// circulating buffers → live-view fold when a reader polls.
struct Replica {
    feed: Feed,
    source: BlktraceEventSource<Feed>,
    monitor: Monitor,
    batch: Vec<Transaction>,
    batch_size: usize,
    router: Router,
    work: Vec<WorkList>,
    shard: OnlineAnalyzer,
    publish_interval: u64,
    applied: u64,
    publish_due: bool,
    free: Vec<ShardDelta>,
    published: VecDeque<ShardDelta>,
    view: LiveView,
    frontier: u64,
    events: Vec<IoEvent>,
    txns: Vec<Transaction>,
    ack: Vec<u8>,
    top: Vec<(ExtentPair, u32)>,
    counts: ReplicaCounts,
}

impl Replica {
    fn new(config: &AnalyzerConfig) -> Self {
        let runtime = workload::daemon_runtime_config();
        let pipeline = &runtime.pipeline;
        let feed = Feed::default();
        let mut shard = OnlineAnalyzer::new(config.split_across(pipeline.shard_count));
        let mut view = LiveView::new(config, pipeline.shard_count, false);
        shard.enable_delta_tracking();
        let mut initial = ShardDelta::default();
        shard.extract_delta(&mut initial);
        view.apply_delta(0, &initial);
        let free = (0..pipeline.publish_buffers)
            .map(|_| {
                let mut buf = ShardDelta::default();
                shard.preallocate_delta(&mut buf);
                buf
            })
            .collect();
        Replica {
            source: BlktraceEventSource::new(feed.clone(), workload::daemon_default_latency()),
            feed,
            monitor: Monitor::new(runtime.monitor.clone()),
            batch: Vec::with_capacity(pipeline.batch_size),
            batch_size: pipeline.batch_size,
            router: Router::new(
                RouterConfig::new(pipeline.shard_count).op_filter(config.op_filter),
            ),
            work: vec![WorkList::default(); pipeline.shard_count],
            shard,
            publish_interval: pipeline.publish_interval_batches as u64,
            applied: 0,
            publish_due: false,
            free,
            published: VecDeque::new(),
            view,
            frontier: 0,
            events: Vec::new(),
            txns: Vec::new(),
            ack: Vec::new(),
            top: Vec::new(),
            counts: ReplicaCounts::default(),
        }
    }

    /// One ingest frame, as `Connection::handle` would see it; with
    /// `query`, a reader then polls the view and asks for top-k.
    fn frame(&mut self, tracer: &mut Tracer, id: u64, framed: &[u8], query: bool) {
        tracer.enter("service", id);
        let frame = tracer.span("wire", id, || {
            read_frame(&mut &framed[..]).expect("replica frames decode")
        });
        self.feed.push(&frame.payload);
        self.ingest_available(tracer, id, false);
        let acked = self.counts.events;
        let ack = &mut self.ack;
        tracer.span("wire", id, || {
            ack.clear();
            write_frame(ack, FrameKind::Ack, &acked.to_le_bytes()).expect("Vec write");
        });
        if query {
            self.query(tracer, id);
        }
        let frontier = Epoch::new(self.frontier);
        self.counts.lag_epochs.push(
            self.view
                .epoch()
                .lag_intervals(frontier, self.publish_interval) as f64,
        );
        tracer.exit();
    }

    /// `IngestEnd`: drain the decoder, close the monitor window, flush
    /// the batch, and drive heartbeats until the view reaches the
    /// frontier; then the round's closing top-k.
    fn end(&mut self, tracer: &mut Tracer, id: u64) {
        tracer.enter("service", id);
        self.feed.end();
        self.ingest_available(tracer, id, true);
        if !self.batch.is_empty() {
            self.dispatch(tracer, id);
        }
        let target = self.frontier;
        loop {
            self.poll(tracer, id);
            if self.view.epoch().batches() >= target {
                break;
            }
            self.dispatch(tracer, id);
        }
        self.query(tracer, id);
        tracer.exit();
    }

    fn ingest_available(&mut self, tracer: &mut Tracer, id: u64, flush: bool) {
        let (source, events) = (&mut self.source, &mut self.events);
        tracer.span("stream", id, || decode_available(source, events));
        self.counts.events += self.events.len() as u64;
        let (monitor, events, txns) = (&mut self.monitor, &mut self.events, &mut self.txns);
        tracer.span("monitor", id, || {
            for event in events.drain(..) {
                if let Some(txn) = monitor.push(event) {
                    txns.push(txn);
                }
            }
            if flush {
                txns.extend(monitor.flush());
            }
        });
        let txns = std::mem::take(&mut self.txns);
        for txn in txns {
            self.counts.transactions += 1;
            self.batch.push(txn);
            if self.batch.len() >= self.batch_size {
                self.dispatch(tracer, id);
            }
        }
    }

    /// Routes and applies the open batch (empty for a heartbeat), then
    /// runs the shard worker's publish cadence.
    fn dispatch(&mut self, tracer: &mut Tracer, id: u64) {
        self.frontier += 1;
        let (router, batch, work) = (&mut self.router, &self.batch, &mut self.work);
        tracer.span("router", id, || router.route_into(batch, work));
        self.batch.clear();
        self.counts.routed_ops += self.work.iter().map(WorkList::ops).sum::<u64>();
        let (work, shard) = (&self.work[0], &mut self.shard);
        tracer.span("synopsis", id, || work.apply(shard));
        self.applied += 1;
        if self.applied.is_multiple_of(self.publish_interval) {
            self.publish_due = true;
        }
        if self.publish_due {
            if let Some(mut buf) = self.free.pop() {
                let shard = &mut self.shard;
                tracer.span("live.extract", id, || {
                    buf.clear();
                    shard.extract_delta(&mut buf);
                });
                buf.epoch = Epoch::new(self.applied);
                self.counts.delta_entries += delta_entries(&buf.items) + delta_entries(&buf.pairs);
                self.published.push_back(buf);
                self.publish_due = false;
            }
        }
    }

    fn poll(&mut self, tracer: &mut Tracer, id: u64) {
        let (published, free, view) = (&mut self.published, &mut self.free, &mut self.view);
        tracer.span("live.fold", id, || {
            while let Some(delta) = published.pop_front() {
                view.apply_delta(0, &delta);
                free.push(delta);
            }
        });
    }

    fn query(&mut self, tracer: &mut Tracer, id: u64) {
        self.poll(tracer, id);
        let started = Instant::now();
        let (view, top) = (&mut self.view, &mut self.top);
        tracer.span("live.topk", id, || view.top_pairs_into(TOP_K as usize, top));
        self.counts
            .topk_ns
            .push(started.elapsed().as_nanos() as f64);
    }

    fn finish(mut self) -> ReplicaCounts {
        let pairs = self.shard.correlation_table().stats();
        let items = self.shard.item_table().stats();
        let counts = &mut self.counts;
        counts.limit_splits = self.monitor.stats().limit_splits;
        counts.pair_hits = pairs.hits;
        counts.pair_misses = pairs.misses;
        counts.item_hits = items.hits;
        counts.item_misses = items.misses;
        counts.pair_evictions = pairs.evictions;
        self.counts
    }
}

/// Each tenant's frames, encoded as the client sends them.
fn encode_frames(workload: Workload, inputs: &Inputs) -> Vec<Vec<Vec<u8>>> {
    (0..inputs.streams.len())
        .map(|t| {
            inputs
                .ingested(workload, t)
                .chunks(workload.frame_bytes())
                .map(|chunk| {
                    let mut framed = Vec::with_capacity(chunk.len() + 9);
                    write_frame(&mut framed, FrameKind::Ingest, chunk).expect("Vec write");
                    framed
                })
                .collect()
        })
        .collect()
}

/// One single-threaded pass over every tenant's frames. Returns the
/// pass's wall seconds, the tracers (one per tenant) and the counts.
fn single_pass(
    workload: Workload,
    frames: &[Vec<Vec<u8>>],
    config: &AnalyzerConfig,
    traced: bool,
) -> (f64, Vec<Tracer>, Vec<ReplicaCounts>) {
    let started = Instant::now();
    let mut tracers = Vec::new();
    let mut counts = Vec::new();
    for tenant_frames in frames {
        let mut tracer = Tracer::new(traced);
        let mut replica = Replica::new(config);
        for (id, framed) in tenant_frames.iter().enumerate() {
            replica.frame(&mut tracer, id as u64, framed, workload.is_live());
        }
        replica.end(&mut tracer, tenant_frames.len() as u64);
        counts.push(replica.finish());
        tracers.push(tracer);
    }
    (started.elapsed().as_secs_f64(), tracers, counts)
}

/// What the threaded pass measured.
#[derive(Default)]
struct Threaded {
    open_ms: Vec<f64>,
    lock_wait_us: Vec<f64>,
    frame_hold_ms: Vec<f64>,
    shard_busy_ns: u64,
    stall_ns: u64,
    highwater_ratio: f64,
    publishes: u64,
    skips: u64,
    events: u64,
}

/// Locks `tenant`, recording the acquire wait in µs.
fn timed_lock<'a, T>(tenant: &'a Mutex<T>, waits: &mut Vec<f64>) -> std::sync::MutexGuard<'a, T> {
    let started = Instant::now();
    let guard = tenant.lock().expect("tenant mutex poisoned");
    waits.push(started.elapsed().as_nanos() as f64 / 1e3);
    guard
}

/// Feeds `frames` into `tenant` as one daemon connection would: the
/// tenant lock held per frame, frames paced `interval` apart (zero for
/// a closed loop), then the `IngestEnd` drain. Returns lock waits and
/// hold times.
fn threaded_ingest(
    tenant: &Mutex<rtdac_monitor::Tenant>,
    frames: &[Vec<u8>],
    interval: Duration,
) -> (Vec<f64>, Vec<f64>, u64) {
    let feed = Feed::default();
    let mut source = BlktraceEventSource::new(feed.clone(), workload::daemon_default_latency());
    let mut events = Vec::new();
    let (mut waits, mut holds) = (Vec::new(), Vec::new());
    let mut pushed = 0u64;
    let started = Instant::now();
    for (id, framed) in frames.iter().enumerate() {
        let due = started + interval * id as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let frame = read_frame(&mut &framed[..]).expect("replica frames decode");
        let mut guard = timed_lock(tenant, &mut waits);
        let held = Instant::now();
        feed.push(&frame.payload);
        decode_available(&mut source, &mut events);
        let pipeline = guard.pipeline().expect("tenant not evicted");
        pushed += events.len() as u64;
        for event in events.drain(..) {
            pipeline.push(event);
        }
        holds.push(held.elapsed().as_secs_f64() * 1e3);
    }
    let mut guard = timed_lock(tenant, &mut waits);
    feed.end();
    decode_available(&mut source, &mut events);
    let pipeline = guard.pipeline().expect("tenant not evicted");
    pushed += events.len() as u64;
    for event in events.drain(..) {
        pipeline.push(event);
    }
    pipeline.flush_window();
    let target = pipeline.frontier_epoch();
    while pipeline.poll_live().is_some_and(|epoch| epoch < target) {
        pipeline.heartbeat();
        thread::sleep(Duration::from_micros(200));
    }
    (waits, holds, pushed)
}

/// The threaded pass: a fresh `TenantRuntime` at the daemon's
/// configuration, one ingest thread per tenant and, on the live
/// workload, a query thread alternating top-k and stats with
/// `think` between requests (the daemon run's query round trip).
fn threaded_pass(
    workload: Workload,
    frames: &[Vec<Vec<u8>>],
    interval: Duration,
    think: Duration,
) -> Threaded {
    let runtime = TenantRuntime::new(workload::daemon_runtime_config());
    let mut out = Threaded::default();
    let tenants: Vec<_> = (0..frames.len())
        .map(|t| {
            let started = Instant::now();
            let tenant = runtime
                .open(&format!("{}-{t}", workload.name()))
                .expect("under the tenant cap");
            out.open_ms.push(started.elapsed().as_secs_f64() * 1e3);
            tenant
        })
        .collect();
    let ended = AtomicBool::new(false);
    let results: Vec<(Vec<f64>, Vec<f64>, u64)> = thread::scope(|scope| {
        let helper = if workload.is_live() {
            let tenant = &tenants[0];
            let ended = &ended;
            Some(scope.spawn(move || {
                let mut waits = Vec::new();
                let mut top = Vec::new();
                let mut ask_top = true;
                while !ended.load(Ordering::SeqCst) {
                    thread::sleep(think);
                    let mut guard = timed_lock(tenant, &mut waits);
                    let pipeline = guard.peek_mut().expect("tenant not evicted");
                    pipeline.poll_live();
                    if ask_top {
                        if let Some(view) = pipeline.live_view_mut() {
                            view.top_pairs_into(TOP_K as usize, &mut top);
                        }
                    } else {
                        std::hint::black_box(pipeline.stats());
                    }
                    ask_top = !ask_top;
                }
                (waits, Vec::new(), 0)
            }))
        } else if frames.len() > 1 {
            let tenant = &tenants[1];
            let frames = &frames[1];
            Some(scope.spawn(move || threaded_ingest(tenant, frames, interval)))
        } else {
            None
        };
        let mut results = vec![threaded_ingest(&tenants[0], &frames[0], interval)];
        ended.store(true, Ordering::SeqCst);
        if let Some(helper) = helper {
            results.push(helper.join().expect("threaded pass helper panicked"));
        }
        results
    });
    for (waits, holds, events) in results {
        out.lock_wait_us.extend(waits);
        out.frame_hold_ms.extend(holds);
        out.events += events;
    }
    for tenant in &tenants {
        let guard = tenant.lock().expect("tenant mutex poisoned");
        let stats = guard.peek().expect("tenant not evicted").stats();
        out.shard_busy_ns += stats.shard_busy_nanos.iter().sum::<u64>();
        out.stall_ns += stats.stall_nanos;
        let high = stats
            .shard_ring_highwater
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        out.highwater_ratio = out
            .highwater_ratio
            .max(high as f64 / stats.ring_slots.max(1) as f64);
        out.publishes += stats.epoch_publishes;
        out.skips += stats.epoch_publish_skips;
    }
    drop(tenants);
    runtime.shutdown();
    out
}

fn median_or_nan(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

/// Nearest-rank percentile of a per-layer sample set. Its size is set by
/// the workload's frame and query counts in the replica, so the figure is
/// the same percentile on every commit even where fewer than
/// [`stats::MIN_BEYOND`] samples lie beyond it.
fn percentile_or_nan(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        f64::NAN
    } else {
        stats::percentile(&sorted, p)
    }
}

/// The `--trace 1` run.
pub fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    // Half the budget drives the daemon; the rest replays its bytes.
    let daemon_secs = args.seconds / 2.0;
    let inputs = Inputs::generate(workload, args.seed, daemon_secs);
    inputs.print_provenance(workload);
    let config = workload::daemon_analyzer_config();
    let session = drive(args, &inputs, daemon_secs, 1, 0)?;
    let daemon_events = session.events();
    let cpu_ns_per_event = session.cpu_secs * 1e9 / daemon_events.max(1) as f64;

    let frames = encode_frames(workload, &inputs);
    // Alternate untraced and traced passes; keep every traced pass's
    // per-layer self times and the last one's spans.
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut layer_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layer_calls: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last = None;
    for _ in 0..PASSES {
        untraced_secs.push(single_pass(workload, &frames, &config, false).0);
        let (secs, tracers, counts) = single_pass(workload, &frames, &config, true);
        traced_secs.push(secs);
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for tracer in &tracers {
            for (name, (ns, calls)) in tracer.by_layer() {
                let entry = totals.entry(name).or_insert((0, 0));
                entry.0 += ns;
                entry.1 += calls;
            }
        }
        for (name, (ns, calls)) in totals {
            layer_ns.entry(name).or_default().push(ns as f64);
            layer_calls.insert(name, calls);
        }
        last = Some((tracers, counts));
    }
    let (tracers, counts) = last.expect("at least one pass");
    let replica_events: u64 = counts.iter().map(|c| c.events).sum();
    let per_event = |ns: f64| ns / replica_events.max(1) as f64;
    let self_ns = |name: &str| layer_ns.get(name).map_or(0.0, |v| median_or_nan(v));

    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    for (t, tracer) in tracers.iter().enumerate() {
        let path = args.out.join(format!(
            "spans-{}-seed{}-tenant{t}.tsv",
            workload.name(),
            args.seed
        ));
        tracer.write(&path, t).map_err(|e| e.to_string())?;
    }

    // Transport wait: the daemon's frame round trip minus the replica's
    // ingest-connection handling of the same frame.
    let handling: Vec<BTreeMap<u64, u64>> = tracers.iter().map(Tracer::handling_ns).collect();
    let mut waits = Vec::new();
    let mut rtts = Vec::new();
    for (t, log) in session.logs.iter().enumerate() {
        for &(id, rtt) in &log.frame_rtts {
            rtts.push(rtt * 1e3);
            let handled = handling[t].get(&(id as u64)).copied().unwrap_or(0);
            waits.push(rtt * 1e3 - handled as f64 / 1e6);
        }
    }
    let transport_wait_ms = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
    let query_rtt = session
        .logs
        .iter()
        .flat_map(|l| l.topk_rtts.iter().copied())
        .collect::<Vec<_>>();
    let think = Duration::from_secs_f64(stats::median(&query_rtt).unwrap_or(0.0));
    let (attempted, failed) = session
        .logs
        .iter()
        .fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed));

    // The live threaded pass keeps the daemon's pacing, over the first
    // half of its frames to bound the run's length.
    let (interval, threaded_frames) = if workload.is_live() {
        let half = frames[0].len().div_ceil(2);
        (inputs.live_interval, vec![frames[0][..half].to_vec()])
    } else {
        (Duration::ZERO, frames.clone())
    };
    let threaded = threaded_pass(workload, &threaded_frames, interval, think);

    let sum = |f: fn(&ReplicaCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| a / (a + b).max(1.0);
    let untraced = median_or_nan(&untraced_secs);
    let traced = median_or_nan(&traced_secs);
    let ledger_sum: f64 = LAYERS.iter().map(|l| per_event(self_ns(l))).sum();
    let lags: Vec<f64> = counts.iter().flat_map(|c| c.lag_epochs.clone()).collect();
    let topk: Vec<f64> = counts.iter().flat_map(|c| c.topk_ns.clone()).collect();
    let stream_bytes: usize = (0..inputs.streams.len())
        .map(|t| inputs.ingested(workload, t).len())
        .sum();

    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    let frames_sent: usize = session.logs.iter().map(|l| l.frame_rtts.len()).sum();
    report.metric("wire.frames", frames_sent as f64, "count");
    report.metric(
        "wire.bytes_per_event",
        stream_bytes as f64 / replica_events.max(1) as f64,
        "B",
    );
    report.metric("wire.codec_ns_per_event", per_event(self_ns("wire")), "ns");
    report.metric("wire.rtt_ms_p50", median_or_nan(&rtts), "ms");
    report.metric("wire.transport_wait_ms_per_frame", transport_wait_ms, "ms");
    report.metric("stream.ns_per_event", per_event(self_ns("stream")), "ns");
    report.metric("monitor.ns_per_event", per_event(self_ns("monitor")), "ns");
    report.metric(
        "monitor.events_per_txn",
        replica_events as f64 / sum(|c| c.transactions).max(1.0),
        "count",
    );
    report.metric("monitor.limit_splits", sum(|c| c.limit_splits), "count");
    report.metric("router.ns_per_event", per_event(self_ns("router")), "ns");
    report.metric(
        "router.ops_per_event",
        per_event(sum(|c| c.routed_ops)),
        "count",
    );
    report.metric(
        "synopsis.apply_ns_per_event",
        per_event(self_ns("synopsis")),
        "ns",
    );
    report.metric(
        "synopsis.pair_hit_ratio",
        ratio(sum(|c| c.pair_hits), sum(|c| c.pair_misses)),
        "ratio",
    );
    report.metric(
        "synopsis.item_hit_ratio",
        ratio(sum(|c| c.item_hits), sum(|c| c.item_misses)),
        "ratio",
    );
    report.metric(
        "synopsis.pair_evictions_per_event",
        per_event(sum(|c| c.pair_evictions)),
        "count",
    );
    report.metric(
        "pipeline.shard_busy_ns_per_event",
        threaded.shard_busy_ns as f64 / threaded.events.max(1) as f64,
        "ns",
    );
    report.metric("pipeline.stall_ms", threaded.stall_ns as f64 / 1e6, "ms");
    report.metric(
        "pipeline.ring_highwater_ratio",
        threaded.highwater_ratio,
        "ratio",
    );
    report.metric(
        "pipeline.publish_skip_ratio",
        ratio(threaded.skips as f64, threaded.publishes as f64),
        "ratio",
    );
    report.metric(
        "live.extract_ns_per_event",
        per_event(self_ns("live.extract")),
        "ns",
    );
    report.metric(
        "live.fold_ns_per_event",
        per_event(self_ns("live.fold")),
        "ns",
    );
    report.metric(
        "live.delta_entries_per_event",
        per_event(sum(|c| c.delta_entries)),
        "count",
    );
    report.metric("live.topk_us", median_or_nan(&topk) / 1e3, "us");
    report.metric(
        "live.lag_epochs_p95",
        percentile_or_nan(&lags, 95.0),
        "epochs",
    );
    report.metric("tenant.open_ms", median_or_nan(&threaded.open_ms), "ms");
    report.metric(
        "tenant.lock_wait_us_p50",
        median_or_nan(&threaded.lock_wait_us),
        "us",
    );
    report.metric(
        "tenant.lock_wait_us_p95",
        percentile_or_nan(&threaded.lock_wait_us, 95.0),
        "us",
    );
    report.metric(
        "tenant.lock_hold_ms_per_frame",
        threaded.frame_hold_ms.iter().sum::<f64>() / threaded.frame_hold_ms.len().max(1) as f64,
        "ms",
    );
    report.metric("ledger.sum_ns_per_event", ledger_sum, "ns");
    report.metric(
        "ledger.unexplained_ns_per_event",
        cpu_ns_per_event - ledger_sum,
        "ns",
    );
    report.metric("ledger.trace_overhead", traced / untraced - 1.0, "ratio");
    report.metric(
        "replay.single_thread_eps",
        replica_events as f64 / untraced,
        "1/s",
    );

    print_ledger(
        workload,
        &LedgerInputs {
            self_ns: &LAYERS.map(|l| (l, per_event(self_ns(l)))),
            calls: &layer_calls,
            cpu_ns_per_event,
            transport_wait_ms,
            frames_sent,
            stall_ms: threaded.stall_ns as f64 / 1e6,
            lock_wait_ms: threaded.lock_wait_us.iter().sum::<f64>() / 1e3,
            lock_calls: threaded.lock_wait_us.len(),
            trace_overhead: traced / untraced - 1.0,
        },
    );
    // Where the daemon's wall time goes: its CPU, and the frames'
    // transport wait, both per 200 k events.
    let wall: f64 = session.logs.iter().map(|l| l.window_secs).sum();
    let per_200k = |secs: f64| secs / daemon_events.max(1) as f64 * 200_000.0;
    let gap = per_200k(wall) - per_200k(session.cpu_secs);
    let transport = per_200k(waits.iter().sum::<f64>() / 1e3);
    // The daemon's CPU partly overlaps the wait (shard workers apply
    // while the connection waits), so the wait can exceed the gap.
    println!(
        "per 200 k events: {:.3} s of ingest wall time, {:.3} s of daemon CPU; \
         frame transport wait {transport:.3} s = {:.0}% of the wall time, {:.0}% of \
         the {gap:.3} s gap",
        per_200k(wall),
        per_200k(session.cpu_secs),
        transport / per_200k(wall) * 100.0,
        transport / gap * 100.0
    );
    Ok(report)
}

/// What the ledger table shows.
struct LedgerInputs<'a> {
    self_ns: &'a [(&'static str, f64)],
    calls: &'a BTreeMap<&'static str, u64>,
    cpu_ns_per_event: f64,
    transport_wait_ms: f64,
    frames_sent: usize,
    stall_ms: f64,
    lock_wait_ms: f64,
    lock_calls: usize,
    trace_overhead: f64,
}

/// Prints the ledger in the style of a syscall summary table: one row
/// per layer with its self time per event, its share of the daemon's
/// CPU per event, calls, and time spent waiting.
fn print_ledger(workload: Workload, l: &LedgerInputs) {
    println!(
        "\nledger {}: in-process replica of rtdacd's layers, timed from outside the daemon \
         (not the daemon's internal counters); % is of daemon_cpu_us_per_event = {:.3} us",
        workload.name(),
        l.cpu_ns_per_event / 1e3
    );
    println!(
        "{:>7} {:>11} {:>10} {:>12} layer",
        "% cpu", "ns/event", "calls", "wait ms"
    );
    println!("{:-<7} {:-<11} {:-<10} {:-<12} {:-<24}", "", "", "", "", "");
    let pct = |ns: f64| ns / l.cpu_ns_per_event * 100.0;
    let mut sum = 0.0;
    for &(name, ns) in l.self_ns {
        sum += ns;
        let wait = if name == "wire" {
            format!("{:.1}", l.transport_wait_ms * l.frames_sent as f64)
        } else {
            String::new()
        };
        println!(
            "{:>7.2} {:>11.1} {:>10} {:>12} {name}",
            pct(ns),
            ns,
            l.calls.get(name).copied().unwrap_or(0),
            wait
        );
    }
    println!(
        "{:>7} {:>11} {:>10} {:>12.1} pipeline (threaded pass: ring stalls)",
        "", "", "", l.stall_ms
    );
    println!(
        "{:>7} {:>11} {:>10} {:>12.3} tenant (threaded pass: lock acquire)",
        "", "", l.lock_calls, l.lock_wait_ms
    );
    let unexplained = l.cpu_ns_per_event - sum;
    println!(
        "{:>7.2} {:>11.1} {:>10} {:>12} unexplained (daemon CPU minus the layers)",
        pct(unexplained),
        unexplained,
        "",
        ""
    );
    println!(
        "{:>7.2} {:>11} {:>10} {:>12} trace overhead (traced / untraced pass - 1)",
        l.trace_overhead * 100.0,
        "",
        "",
        ""
    );
    println!("{:-<7} {:-<11} {:-<10} {:-<12} {:-<24}", "", "", "", "", "");
    println!(
        "{:>7.2} {:>11.1} {:>10} {:>12} total (daemon CPU per event)",
        100.0, l.cpu_ns_per_event, "", ""
    );
}
