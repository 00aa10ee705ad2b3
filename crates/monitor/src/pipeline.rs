//! The batched, sharded ingestion front-end: block events in, a merged
//! correlation synopsis out, with the per-shard synopsis work running on
//! dedicated worker threads and — when configured — the routing stage
//! itself scaled across parallel router workers.
//!
//! ```text
//!                                  ┌─▶ router 0 ─┬─▶ ring (0,0) ─┐
//!  events ─▶ Monitor ─▶ batch seq n┤  (batches   ├─▶ ring (0,1) ─┼─▶ worker s merges its
//!            (dealt to router n%R) └─▶ router R-1┴─▶ ring (R-1,s)┘   R rings in seq order
//! ```
//!
//! A [`Router`] deduplicates each transaction and hashes each pair
//! exactly once, partitioning the records into per-shard [`WorkList`]s
//! which each shard applies verbatim via
//! [`OnlineAnalyzer::process_routed`] — no re-dedup, no re-hashing.
//! Total CPU across shards is O(stream), not O(stream × shards), and
//! each shard's table state is bit-identical to what
//! [`OnlineAnalyzer::process_partition`] would build from the full
//! stream. Optional [`SplitConfig`] spreads hot pairs round-robin; the
//! merged analyzer then sums partial tallies
//! (`ShardedAnalyzer::from_routed_shards`).
//!
//! With [`PipelineConfig::routers`] `== 1` the router runs inline on
//! the caller's thread. With `R >= 2` the front-end deals whole batches
//! round-robin to R router worker threads (batch `n` to router
//! `n % R`), and every shard owns one ring *per router*, reading them
//! in `n % R` order — the **sequence-ordered fan-in**. Because the batch
//! sequence is a single monotone counter and each ring is FIFO, that
//! merge replays the exact global batch order, so per-shard apply order
//! (and therefore shard table state) is bit-identical for any R.
//!
//! Buffers recycle instead of churning the allocator: shard workers
//! clear each applied `WorkList` and hand it back to its router over a
//! return ring, and routers hand emptied batch `Vec`s back to the
//! front-end the same way. Each return ring is prefilled at
//! construction with more buffers than its forward path can hold in
//! flight, so a producer's refill always finds a recycled buffer and
//! the pipeline performs **zero heap allocations per batch** in steady
//! state (the `zero_alloc` integration test pins this down with a
//! counting global allocator).
//!
//! Batches amortize ring traffic; rings are bounded, so a
//! slow stage applies backpressure instead of growing an unbounded
//! queue. Time the *front-end* spends blocked on a full ring is
//! accounted in [`PipelineStats::stall_nanos`]; time *router workers*
//! spend blocked on full shard rings lands in
//! [`PipelineStats::routing_stall_nanos`] — both are queueing delay,
//! not service time.
//!
//! # Elastic stage pools
//!
//! The router and shard stages live in a *stage pool* that can be
//! resized online. [`IngestPipeline::resize`]
//! runs the **quiesce → snapshot → re-seed** protocol at a batch
//! boundary:
//!
//! 1. **Quiesce** — the open batch is flushed and the front-end's
//!    senders are dropped. The batch sequence counter is monotone, so a
//!    closed-and-empty ring is a barrier: routers drain every dispatched
//!    batch and exit, which closes the shard rings; shard workers drain
//!    to the same barrier and return their [`OnlineAnalyzer`]s.
//! 2. **Snapshot / re-seed** — if the shard count changes, the shard
//!    tables are drained into a partition-invariant
//!    [`SynopsisSnapshot`](rtdac_synopsis::SynopsisSnapshot) and
//!    re-seeded across the new shard count (same tally-summing merge
//!    rule as the final `ShardedAnalyzer` merge, so `frequent_pairs`
//!    is count-identical to never having resized). A router-only
//!    resize is the cheap path: no table state moves — only the dealing
//!    modulus and the fan-in width change.
//! 3. **Re-spawn** — a fresh pool is spawned at the new topology, with
//!    every return ring prefilled to the new forward bound, so the
//!    zero-allocation steady state is re-established immediately.
//!
//! Resizes can be issued manually or by an
//! [`AdaptiveController`](crate::AdaptiveController) watching the ring
//! high-water marks and the per-stage busy split that
//! [`PipelineStats`] now exposes (see [`PipelineConfig::adaptive`]).
//!
//! # Quiesce-free live queries
//!
//! With [`PipelineConfig::publish_interval`] set, every shard worker
//! publishes an incremental state delta
//! ([`ShardDelta`](rtdac_synopsis::ShardDelta)) at epoch boundaries —
//! every N dispatched batches — into preallocated buffers that
//! circulate through a pair of SPSC rings per shard, exactly like the
//! router's recycled `WorkList`s: the worker takes an empty buffer
//! from its return ring, extracts the delta, stamps the epoch (the
//! cumulative batch count, monotone across resizes) and ships it;
//! [`IngestPipeline::poll_live`] folds shipped deltas into a
//! [`LiveView`](rtdac_synopsis::LiveView) on the caller's thread and
//! recycles the buffers. Shard workers never wait on the reader: if no
//! buffer is back yet the publish is deferred to the next work item
//! (counted in [`PipelineStats::epoch_publish_skips`]; the eventual
//! delta covers the merged interval). The view is bit-exact to a
//! quiesced snapshot at its epoch's batch boundary and lags the ingest
//! frontier by at most one publish interval once in-flight deltas are
//! folded — see DESIGN.md §15 for the protocol and its memory-ordering
//! argument. Resizes compose: quiesce drains in-flight deltas into the
//! view, and a shard-count change re-primes fresh mirrors from the
//! re-seeded tables before the new pool spawns.
//!
//! [`IngestPipeline::finish`] flushes the monitor and the open batch,
//! quiesces the pool the same way and reassembles the shards into a
//! [`ShardedAnalyzer`](rtdac_synopsis::ShardedAnalyzer) for querying —
//! with splitting off, results are identical to feeding the same events
//! through the single-threaded [`OnlineAnalyzer`]; with splitting on,
//! tallies are still exact (summed at merge time) and ordering is
//! stable.
//!
//! # Examples
//!
//! ```
//! use rtdac_monitor::{IngestPipeline, MonitorConfig, PipelineConfig};
//! use rtdac_synopsis::AnalyzerConfig;
//! use rtdac_types::{Extent, IoEvent, IoOp, Timestamp};
//! use std::time::Duration;
//!
//! let mut pipeline = IngestPipeline::new(
//!     MonitorConfig::default(),
//!     AnalyzerConfig::with_capacity(1024),
//!     PipelineConfig::with_shards(2).routers(2),
//! );
//! for i in 0..100u64 {
//!     for block in [10, 900] {
//!         pipeline.push(IoEvent::new(
//!             Timestamp::from_millis(i * 50),
//!             1,
//!             IoOp::Read,
//!             Extent::new(block, 4).unwrap(),
//!             Duration::from_micros(40),
//!         ));
//!     }
//! }
//! // Grow the pool mid-stream: state is re-seeded, results unchanged.
//! pipeline.resize(4, 1);
//! let analyzer = pipeline.finish();
//! assert_eq!(analyzer.frequent_pairs(50).len(), 1);
//! ```
//!
//! [`OnlineAnalyzer`]: rtdac_synopsis::OnlineAnalyzer
//! [`OnlineAnalyzer::process_partition`]: rtdac_synopsis::OnlineAnalyzer::process_partition
//! [`OnlineAnalyzer::process_routed`]: rtdac_synopsis::OnlineAnalyzer::process_routed

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtdac_synopsis::{
    AnalyzerConfig, LiveView, OnlineAnalyzer, ShardDelta, ShardedAnalyzer, SynopsisSnapshot,
};
use rtdac_types::{router_for_batch, Epoch, IoEvent, Topology, Transaction};

use crate::controller::{AdaptiveController, ControllerConfig};
use crate::monitor::{Monitor, MonitorConfig};
use crate::pool::{send_counting_stalls, FrontEnd, StagePool};
use crate::router::SplitConfig;

/// Shape of the parallel pipeline: how many shards and routers, how
/// transactions are batched, how deep each ring is, and whether hot
/// pairs are split. `shard_count` and `routers` are the *initial*
/// topology; [`IngestPipeline::resize`] (or an attached controller) can
/// change the live topology later.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Number of shard worker threads.
    pub shard_count: usize,
    /// Router workers (default 1). `1` routes inline on the caller's
    /// thread; `R >= 2` spawns R router threads and deals batches to
    /// them round-robin by sequence number, with every shard merging
    /// its R rings back in sequence order (shard state stays bit-exact
    /// for any R).
    pub routers: usize,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Batches each ring can buffer before its producer blocks
    /// (bounded: a slow stage applies backpressure instead of growing an
    /// unbounded queue).
    pub ring_capacity: usize,
    /// Hot-pair splitting; `None` (the default) routes every pair to
    /// its owning shard by hash.
    pub split: Option<SplitConfig>,
    /// Occupancy-driven resize controller; `None` (the default) keeps
    /// the topology fixed unless [`IngestPipeline::resize`] is called.
    pub controller: Option<ControllerConfig>,
    /// Epoch length for live-query publishing, in dispatched batches:
    /// every shard worker publishes a state delta toward the
    /// [`LiveView`] each time this many batches have been applied.
    /// `0` (the default) disables publishing entirely — no rings, no
    /// buffers, no per-batch overhead.
    pub publish_interval_batches: usize,
    /// Delta buffers circulating per shard when publishing is enabled
    /// (default 2: one in flight, one being refilled). More buffers
    /// tolerate a slower reader before publishes start merging epochs.
    pub publish_buffers: usize,
}

impl PipelineConfig {
    /// A pipeline with `shard_count` shards, one (inline) router, no
    /// hot-pair splitting, and the default batch size (64
    /// transactions) and ring depth (16 batches).
    ///
    /// Each (router, shard) ring keeps its depth plus three work lists
    /// in circulation, each grown to a batch's worth of routed pairs,
    /// so the depth sets most of a pipeline's buffer memory: 19 lists
    /// per shard at depth 16 against 67 at depth 64. Going shallower
    /// costs throughput: a producer that finds its ring full parks and
    /// is woken once per freed slot, and at depth 8 that cost about 4%
    /// of the daemon's end-to-end ingest rate, where 16 cost nothing
    /// measurable.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_shards(shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        PipelineConfig {
            shard_count,
            routers: 1,
            batch_size: 64,
            ring_capacity: 16,
            split: None,
            controller: None,
            publish_interval_batches: 0,
            publish_buffers: 2,
        }
    }

    /// Sets the number of router workers.
    ///
    /// # Panics
    ///
    /// Panics if `routers == 0`.
    pub fn routers(mut self, routers: usize) -> Self {
        assert!(routers > 0, "need at least one router");
        self.routers = routers;
        self
    }

    /// Sets the transactions-per-batch granularity.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the per-ring depth in batches.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity == 0`.
    pub fn ring_capacity(mut self, ring_capacity: usize) -> Self {
        assert!(ring_capacity > 0, "ring capacity must be positive");
        self.ring_capacity = ring_capacity;
        self
    }

    /// Enables hot-pair splitting.
    pub fn split(mut self, split: SplitConfig) -> Self {
        self.split = Some(split);
        self
    }

    /// Attaches an occupancy-driven [`AdaptiveController`] that resizes
    /// the stage pool at batch boundaries.
    pub fn adaptive(mut self, controller: ControllerConfig) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Enables live-query publishing with an epoch every `batches`
    /// dispatched batches (`0` disables it).
    pub fn publish_interval(mut self, batches: usize) -> Self {
        self.publish_interval_batches = batches;
        self
    }

    /// Sets the number of delta buffers circulating per shard.
    ///
    /// # Panics
    ///
    /// Panics if `buffers == 0` (the publish path needs at least one
    /// buffer in circulation).
    pub fn publish_buffers(mut self, buffers: usize) -> Self {
        assert!(buffers > 0, "need at least one delta buffer");
        self.publish_buffers = buffers;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::with_shards(4)
    }
}

/// Counters of an [`IngestPipeline`]'s front-end.
///
/// Scalar fields are **cumulative** over the pipeline's lifetime,
/// across resizes. Per-stage vectors (`routed_*`, `*_highwater`,
/// `*_busy_nanos`) are **epoch-local**: they describe the current
/// topology only and reset when the pool is resized (their lengths
/// always match the live shard/router counts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Transactions enqueued toward the shards.
    pub transactions: u64,
    /// Batches dispatched (to the shard rings, or to router workers).
    pub batches: u64,
    /// Ring-full backpressure events on the *caller's* thread: sends
    /// that found a shard ring (inline routing) or a router ring
    /// (parallel routing) full and had to block.
    pub stalls: u64,
    /// Total nanoseconds the caller's thread spent blocked on full
    /// rings. Queueing delay, not service time — benchmarks that
    /// measure per-batch service latency subtract this.
    pub stall_nanos: u64,
    /// Parallel routing only: ring-full backpressure events inside the
    /// router workers (a full shard ring blocked a router). Zero with
    /// an inline router, whose blocking is charged to `stalls`.
    pub routing_stalls: u64,
    /// Total nanoseconds router workers spent blocked on full shard
    /// rings (parallel routing only).
    pub routing_stall_nanos: u64,
    /// Transactions routed to each shard (a transaction counts for
    /// every shard that received at least one of its records) since the
    /// last resize.
    pub routed_transactions: Vec<u64>,
    /// Table records (items + pairs) routed to each shard since the
    /// last resize — the deterministic per-shard work metric.
    pub routed_ops: Vec<u64>,
    /// Pair records dealt round-robin by hot-pair splitting (0 without
    /// splitting).
    pub split_records: u64,
    /// Resizes applied so far (manual and controller-issued).
    pub resizes: u64,
    /// Total nanoseconds spent inside resizes (quiesce + re-seed +
    /// re-spawn) — the stream is paused for this long in total.
    pub resize_nanos: u64,
    /// Slot count of every work ring (the occupancy denominator for
    /// the high-water marks below): the configured `ring_capacity`
    /// rounded up to a power of two.
    pub ring_slots: u64,
    /// Per shard: the highest occupancy any of its work rings reached
    /// since the last resize, sampled producer-side after every send.
    /// A value at `ring_slots` means the shard saturated and applied
    /// backpressure — the controller's grow signal.
    pub shard_ring_highwater: Vec<u64>,
    /// Per router (parallel routing only): the highest occupancy its
    /// batch ring reached since the last resize. Empty with an inline
    /// router.
    pub batch_ring_highwater: Vec<u64>,
    /// Per router: nanoseconds spent routing (service time, stall time
    /// excluded) since the last resize. The busy half of the routing
    /// stage's busy/stall split; the stall half is
    /// `routing_stall_nanos` (or `stall_nanos` for an inline router).
    pub router_busy_nanos: Vec<u64>,
    /// Per shard: nanoseconds spent applying work (service time; ring
    /// waits excluded) since the last resize. The busy half of the
    /// shard stage's busy/stall split; the stall side of a slow shard
    /// shows up as its ring high-water mark and the producers' stall
    /// counters. With publishing enabled, delta extraction is part of
    /// the service time (it runs inside the worker's timed window).
    pub shard_busy_nanos: Vec<u64>,
    /// Epoch deltas published by shard workers toward the live view
    /// (cumulative across resizes; zero with publishing disabled).
    pub epoch_publishes: u64,
    /// Publish ticks that found no recycled delta buffer — the reader
    /// was behind, so the epoch was merged into the next publish
    /// instead of blocking the worker (cumulative across resizes).
    pub epoch_publish_skips: u64,
}

/// One applied resize: when, from what, to what, and how long the
/// stream was paused for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Batches dispatched before the resize took effect.
    pub batch: u64,
    /// Topology before.
    pub from: Topology,
    /// Topology after.
    pub to: Topology,
    /// Wall nanoseconds of the quiesce → re-seed → re-spawn window.
    pub nanos: u64,
    /// Whether shard tables were drained and re-seeded (`false` for a
    /// router-only resize — the cheap path where no table state moves).
    pub reseeded: bool,
}

/// The multi-threaded ingestion pipeline: monitor front-end, routed
/// batches over SPSC rings, one synopsis shard per worker
/// thread — and, with [`PipelineConfig::routers`] `>= 2`, a pool of
/// parallel router workers between the two. The router and shard pools
/// are elastic: see [`IngestPipeline::resize`] and the module docs.
pub struct IngestPipeline {
    monitor: Monitor,
    analyzer_config: AnalyzerConfig,
    /// Live configuration: `shard_count` and `routers` track the
    /// current topology across resizes.
    config: PipelineConfig,
    batch: Vec<Transaction>,
    /// The current pool epoch; `None` only transiently inside
    /// resize/finish (never observed by callers).
    pool: Option<StagePool>,
    /// Whether merged tallies must be summed per pair (splitting was
    /// enabled, so a pair's tally may be spread across shards).
    split_tallies: bool,
    controller: Option<AdaptiveController>,
    stats: PipelineStats,
    resize_events: Vec<ResizeEvent>,
    /// The merged live query view; `Some` iff publishing is enabled.
    /// Survives router-only resizes; re-primed from the re-seeded
    /// tables on a shard-count change.
    live: Option<LiveView>,
    /// Quiesced table state while parked (the idle-tenant lifecycle):
    /// the pool is down, its threads joined, and the shard tables
    /// drained into a partition-invariant snapshot. `Some` iff parked;
    /// the next dispatch re-seeds and re-spawns transparently.
    parked: Option<SynopsisSnapshot>,
}

impl IngestPipeline {
    /// Builds the pipeline and spawns one worker thread per shard (plus
    /// one per router when `routers >= 2`).
    pub fn new(
        monitor_config: MonitorConfig,
        analyzer_config: AnalyzerConfig,
        pipeline_config: PipelineConfig,
    ) -> Self {
        assert!(pipeline_config.shard_count > 0, "need at least one shard");
        assert!(pipeline_config.routers > 0, "need at least one router");
        let split_tallies = pipeline_config.split.is_some();
        let mut shards = ShardedAnalyzer::new(analyzer_config.clone(), pipeline_config.shard_count)
            .into_shards();
        let live = (pipeline_config.publish_interval_batches > 0)
            .then(|| Self::prime_live(&mut shards, &analyzer_config, split_tallies, Epoch::ZERO));
        let pool = StagePool::spawn(shards, &pipeline_config, &analyzer_config, 0);
        let controller = pipeline_config
            .controller
            .clone()
            .map(AdaptiveController::new);
        IngestPipeline {
            monitor: Monitor::new(monitor_config),
            analyzer_config,
            batch: Vec::with_capacity(pipeline_config.batch_size),
            config: pipeline_config,
            pool: Some(pool),
            split_tallies,
            controller,
            stats: PipelineStats::default(),
            resize_events: Vec::new(),
            live,
            parked: None,
        }
    }

    /// Enables delta tracking on every shard and folds each one's
    /// initial delta (a full dump when the tables are non-empty — the
    /// re-seed path) into a fresh [`LiveView`], so the view is exact
    /// from the first poll rather than empty until the first publish.
    fn prime_live(
        shards: &mut [OnlineAnalyzer],
        analyzer_config: &AnalyzerConfig,
        split_tallies: bool,
        epoch: Epoch,
    ) -> LiveView {
        let mut view = LiveView::new(analyzer_config, shards.len(), split_tallies);
        let mut delta = ShardDelta::default();
        for (index, shard) in shards.iter_mut().enumerate() {
            shard.enable_delta_tracking();
            delta.clear();
            shard.extract_delta(&mut delta);
            delta.epoch = epoch;
            view.apply_delta(index, &delta);
        }
        view
    }

    /// Offers one block-layer event to the monitor; a completed
    /// transaction is batched toward the shards.
    pub fn push(&mut self, event: IoEvent) {
        if let Some(transaction) = self.monitor.push(event) {
            self.enqueue(transaction);
        }
    }

    /// Enqueues an already-windowed transaction, bypassing the monitor
    /// (replay and benchmark path).
    pub fn push_transaction(&mut self, transaction: Transaction) {
        self.enqueue(transaction);
    }

    fn enqueue(&mut self, transaction: Transaction) {
        self.stats.transactions += 1;
        self.batch.push(transaction);
        if self.batch.len() >= self.config.batch_size {
            self.flush_batch();
        }
    }

    /// Ships the open batch (blocking while rings are full;
    /// blocked time is accounted in [`PipelineStats::stall_nanos`]).
    /// Called automatically at batch-size granularity and by
    /// [`finish`](IngestPipeline::finish); call it directly to cap
    /// latency when the event stream pauses. With a controller
    /// attached, window sampling — and any resulting resize — happens
    /// here, at the batch boundary.
    pub fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.dispatch_batch();
    }

    /// Ships an **empty** batch: advances the batch sequence — and
    /// therefore the publish cadence — without carrying any
    /// transactions. Lets a paused event stream reach its next epoch
    /// boundary so shard workers get a work item to publish on (they
    /// only tick between work items; an idle worker never publishes).
    /// Shard state is unaffected: an empty batch routes empty work
    /// lists.
    pub fn heartbeat(&mut self) {
        self.flush_batch();
        self.dispatch_batch();
    }

    /// Closes the monitor's open transaction window — emitting its
    /// transaction, if any — and dispatches the open batch. This is
    /// the end-of-stream half of [`finish`](IngestPipeline::finish)
    /// without tearing the pipeline down: after it, every pushed event
    /// is visible to the shards (and, once the publish cadence catches
    /// up, to the live view). Events pushed afterwards start a fresh
    /// window, exactly as an offline oracle would see two separately
    /// flushed streams.
    pub fn flush_window(&mut self) {
        if let Some(transaction) = self.monitor.flush() {
            self.enqueue(transaction);
        }
        self.flush_batch();
    }

    /// Parks the pipeline: flushes the open batch, quiesces the pool at
    /// the sequence barrier (joining every worker thread) and drains
    /// the shard tables into a partition-invariant
    /// [`SynopsisSnapshot`] — the resize protocol's storage form, so
    /// results after a park/resume cycle are count-identical to never
    /// having parked. The monitor's open window and all cumulative
    /// stats are preserved, and the live view keeps answering queries
    /// at its quiesce-exact epoch while the threads are down. Any
    /// subsequent dispatch ([`push`](IngestPipeline::push),
    /// [`heartbeat`](IngestPipeline::heartbeat),
    /// [`resize`](IngestPipeline::resize),
    /// [`finish`](IngestPipeline::finish)) re-seeds the snapshot and
    /// re-spawns the pool transparently. No-op when already parked.
    ///
    /// This is the tenant runtime's idle-quiesce verb: a parked tenant
    /// holds no threads and no ring buffers, only its synopsis.
    pub fn park(&mut self) {
        if self.parked.is_some() {
            return;
        }
        self.flush_batch();
        let pool = self.pool.take().expect("pipeline already finished");
        let mut analyzers = pool.quiesce(&mut self.stats, self.live.as_mut());
        // The quiesce folded every *published* delta; changes since the
        // last epoch boundary are still pending inside the shards.
        // Extract them now so the parked view answers queries at the
        // park boundary exactly, not up to one interval behind.
        if let Some(view) = self.live.as_mut() {
            let mut delta = ShardDelta::default();
            for (index, shard) in analyzers.iter_mut().enumerate() {
                delta.clear();
                shard.extract_delta(&mut delta);
                delta.epoch = Epoch::new(self.stats.batches);
                view.apply_delta(index, &delta);
            }
        }
        self.parked = Some(SynopsisSnapshot::drain(analyzers));
    }

    /// Whether the pipeline is parked (no worker threads running).
    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Re-seeds the parked snapshot across the current shard count and
    /// re-spawns the pool, re-priming the live mirrors so the view
    /// stays exact (and warm) across the gap. No-op unless parked.
    fn ensure_running(&mut self) {
        let Some(snapshot) = self.parked.take() else {
            return;
        };
        let mut analyzers = snapshot.reseed(&self.analyzer_config, self.config.shard_count);
        if self.live.is_some() {
            self.live = Some(Self::prime_live(
                &mut analyzers,
                &self.analyzer_config,
                self.split_tallies,
                Epoch::new(self.stats.batches),
            ));
        }
        self.pool = Some(StagePool::spawn(
            analyzers,
            &self.config,
            &self.analyzer_config,
            self.stats.batches,
        ));
    }

    fn dispatch_batch(&mut self) {
        self.ensure_running();
        let pool = self.pool.as_mut().expect("pipeline already finished");
        let sequence = pool.sequence;
        pool.sequence += 1;
        pool.window_batches += 1;
        self.stats.batches += 1;
        let batch_size = self.config.batch_size;
        let stats = &mut self.stats;
        let counters = Arc::clone(&pool.counters);
        match &mut pool.front_end {
            FrontEnd::Inline(routing) => {
                let started = Instant::now();
                routing.router.route_into(&self.batch, &mut routing.staged);
                self.batch.clear();
                let (mut stalls, mut stall_nanos) = (0u64, 0u64);
                for (shard, (sender, staged)) in routing
                    .senders
                    .iter()
                    .zip(routing.staged.iter_mut())
                    .enumerate()
                {
                    // Refill the stage from this shard's return ring;
                    // the prefill guarantees a recycled list is waiting
                    // (see the circulation bound in `spawn`).
                    let refill = routing.returns[shard].try_recv().unwrap_or_default();
                    let work = std::mem::replace(staged, refill);
                    send_counting_stalls(sender, work, &mut stalls, &mut stall_nanos);
                    counters.shard_ring_high[shard]
                        .fetch_max(sender.occupancy() as u64, Ordering::Relaxed);
                }
                stats.stalls += stalls;
                stats.stall_nanos += stall_nanos;
                // The inline router's busy time lives on the caller's
                // thread; its ring-blocked share is front-end stall.
                let busy = (started.elapsed().as_nanos() as u64).saturating_sub(stall_nanos);
                counters.router_busy_nanos[0].fetch_add(busy, Ordering::Relaxed);
            }
            FrontEnd::Parallel(routing) => {
                let router = router_for_batch(sequence, routing.batch_senders.len());
                // Swap in a recycled batch buffer before shipping the
                // full one to its router: this router's return ring
                // first, then any other (the prefill guarantees one is
                // waiting somewhere).
                let mut replacement = routing.batch_returns[router].try_recv();
                if replacement.is_none() {
                    for (ring, returns) in routing.batch_returns.iter().enumerate() {
                        if ring == router {
                            continue;
                        }
                        replacement = returns.try_recv();
                        if replacement.is_some() {
                            break;
                        }
                    }
                }
                let replacement = replacement.unwrap_or_else(|| Vec::with_capacity(batch_size));
                let batch = std::mem::replace(&mut self.batch, replacement);
                send_counting_stalls(
                    &routing.batch_senders[router],
                    batch,
                    &mut stats.stalls,
                    &mut stats.stall_nanos,
                );
                counters.batch_ring_high[router].fetch_max(
                    routing.batch_senders[router].occupancy() as u64,
                    Ordering::Relaxed,
                );
            }
        }
        self.controller_tick();
    }

    /// With a controller attached: closes the observation window every
    /// `interval_batches` dispatched batches, feeds it a sample and
    /// applies any resize it issues.
    fn controller_tick(&mut self) {
        let Some(controller) = self.controller.as_mut() else {
            return;
        };
        let pool = self.pool.as_mut().expect("pipeline already finished");
        if pool.window_batches < controller.config().interval_batches {
            return;
        }
        pool.window_batches = 0;
        let topology = Topology::new(self.config.shard_count, self.config.routers);
        let sample = pool.sample_window(topology);
        if let Some(target) = controller.observe(&sample) {
            self.resize(target.shards, target.routers);
        }
    }

    /// The monitor front-end (window state, latency average, stats).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Folds every published shard delta into the live view and
    /// recycles the buffers, then reports the view's consistency epoch
    /// (the slowest shard's folded boundary). `None` when publishing is
    /// disabled. Lock-free both ways: the drain is a `try_recv` loop
    /// over the per-shard SPSC rings and the workers never wait on it.
    pub fn poll_live(&mut self) -> Option<Epoch> {
        let view = self.live.as_mut()?;
        if let Some(pool) = self.pool.as_ref() {
            for (shard, rx) in pool.delta_rx.iter().enumerate() {
                while let Some(delta) = rx.try_recv() {
                    view.apply_delta(shard, &delta);
                    let returned = pool.buf_tx[shard].try_send(delta).is_ok();
                    debug_assert!(returned, "buffer ring sized below circulation");
                }
            }
        }
        Some(view.epoch())
    }

    /// The live query view, as last folded by
    /// [`poll_live`](IngestPipeline::poll_live). `None` when publishing
    /// is disabled ([`PipelineConfig::publish_interval`]).
    pub fn live_view(&self) -> Option<&LiveView> {
        self.live.as_ref()
    }

    /// Mutable access to the live view — the allocation-free query
    /// methods ([`LiveView::frequent_pairs_into`],
    /// [`LiveView::top_pairs_into`]) reuse internal scratch and need
    /// `&mut`.
    pub fn live_view_mut(&mut self) -> Option<&mut LiveView> {
        self.live.as_mut()
    }

    /// The ingest frontier: the epoch of the last dispatched batch.
    /// `frontier_epoch() - poll_live()` (in publish intervals — see
    /// [`Epoch::lag_intervals`]) is the view's staleness.
    pub fn frontier_epoch(&self) -> Epoch {
        Epoch::new(self.stats.batches)
    }

    /// Front-end counters. Under inline routing the per-shard vectors
    /// reflect everything dispatched so far; under parallel routing
    /// they are eventually consistent (each router publishes after
    /// routing a batch) and become exact once the stream drains.
    /// Scalars are cumulative across resizes; per-stage vectors cover
    /// the current topology epoch only (see the field docs).
    pub fn stats(&self) -> PipelineStats {
        let mut stats = self.stats.clone();
        let Some(pool) = self.pool.as_ref() else {
            return stats;
        };
        let counters = &pool.counters;
        let load =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        stats.ring_slots = pool.ring_slots;
        stats.shard_ring_highwater = counters
            .shard_ring_high
            .iter()
            .zip(&pool.highwater_fold)
            .map(|(live, fold)| (*fold).max(live.load(Ordering::Relaxed)))
            .collect();
        stats.batch_ring_highwater = load(&counters.batch_ring_high);
        stats.router_busy_nanos = load(&counters.router_busy_nanos);
        stats.shard_busy_nanos = load(&counters.shard_busy_nanos);
        stats.epoch_publishes += counters.epoch_publishes.load(Ordering::Relaxed);
        stats.epoch_publish_skips += counters.epoch_publish_skips.load(Ordering::Relaxed);
        match &pool.front_end {
            FrontEnd::Inline(routing) => {
                let routed = routing.router.stats();
                stats.routed_transactions = routed.routed_transactions.clone();
                stats.routed_ops = routed.routed_ops.clone();
                stats.split_records += routed.split_records;
            }
            FrontEnd::Parallel(_) => {
                stats.routed_transactions = load(&counters.routed_transactions);
                stats.routed_ops = load(&counters.routed_ops);
                stats.split_records += counters.split_records.load(Ordering::Relaxed);
                stats.routing_stalls += counters.routing_stalls.load(Ordering::Relaxed);
                stats.routing_stall_nanos += counters.routing_stall_nanos.load(Ordering::Relaxed);
            }
        }
        stats
    }

    /// Number of shard workers in the current topology.
    pub fn shard_count(&self) -> usize {
        self.config.shard_count
    }

    /// The current (live) topology.
    pub fn topology(&self) -> Topology {
        Topology::new(self.config.shard_count, self.config.routers)
    }

    /// Every resize applied so far, in order.
    pub fn resize_events(&self) -> &[ResizeEvent] {
        &self.resize_events
    }

    /// Resizes the stage pools online to `shards` shard workers and
    /// `routers` routers, via quiesce → snapshot → re-seed (see the
    /// module docs). Blocks the caller for the quiesce window; the
    /// merged results are count-identical to never having resized.
    /// Returns `false` (and does nothing) if the topology is unchanged.
    ///
    /// A router-only change is the cheap path: shard tables are handed
    /// to the new pool untouched. A shard-count change drains the
    /// tables into a [`SynopsisSnapshot`] and re-seeds them across the
    /// new shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `routers == 0`.
    pub fn resize(&mut self, shards: usize, routers: usize) -> bool {
        assert!(shards > 0, "need at least one shard");
        assert!(routers > 0, "need at least one router");
        if shards == self.config.shard_count && routers == self.config.routers {
            return false;
        }
        // Ship the open batch under the old topology first: the resize
        // happens at a clean batch boundary. A parked pipeline is
        // resumed first — the resize protocol needs a live pool.
        self.ensure_running();
        self.flush_batch();
        let from = self.topology();
        let started = Instant::now();
        let pool = self.pool.take().expect("pipeline already finished");
        let mut analyzers = pool.quiesce(&mut self.stats, self.live.as_mut());
        let reseeded = shards != self.config.shard_count;
        if reseeded {
            let snapshot = SynopsisSnapshot::drain(analyzers);
            analyzers = snapshot.reseed(&self.analyzer_config, shards);
            // The mirror set must match the new shard count: re-prime a
            // fresh view from the re-seeded tables, so it stays exact
            // (and warm) across the resize. A router-only resize keeps
            // the view as-is — no table state moved, and the quiesce
            // drain above already folded every in-flight delta.
            if self.live.is_some() {
                self.live = Some(Self::prime_live(
                    &mut analyzers,
                    &self.analyzer_config,
                    self.split_tallies,
                    Epoch::new(self.stats.batches),
                ));
            }
        }
        self.config.shard_count = shards;
        self.config.routers = routers;
        self.pool = Some(StagePool::spawn(
            analyzers,
            &self.config,
            &self.analyzer_config,
            self.stats.batches,
        ));
        let nanos = started.elapsed().as_nanos() as u64;
        self.stats.resizes += 1;
        self.stats.resize_nanos += nanos;
        self.resize_events.push(ResizeEvent {
            batch: self.stats.batches,
            from,
            to: Topology::new(shards, routers),
            nanos,
            reseeded,
        });
        true
    }

    /// Flushes the monitor and the open batch, closes the rings
    /// (routers drain first, then the shards), joins every worker and
    /// reassembles the shards into a queryable [`ShardedAnalyzer`].
    ///
    /// # Panics
    ///
    /// Propagates a router or shard worker's panic, if one occurred.
    pub fn finish(mut self) -> ShardedAnalyzer {
        self.ensure_running();
        if let Some(transaction) = self.monitor.flush() {
            self.enqueue(transaction);
        }
        self.flush_batch();
        let pool = self.pool.take().expect("pipeline already finished");
        let shards = pool.quiesce(&mut self.stats, self.live.as_mut());
        // Routed shards never count transactions; the front-end's
        // (cumulative) count is authoritative.
        ShardedAnalyzer::from_routed_shards(
            self.analyzer_config.clone(),
            shards,
            self.stats.transactions,
            self.split_tallies,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdac_synopsis::OnlineAnalyzer;
    use rtdac_types::{Extent, IoOp, Timestamp};
    use std::time::Duration;

    fn event(us: u64, block: u64) -> IoEvent {
        IoEvent::new(
            Timestamp::from_micros(us),
            1,
            IoOp::Read,
            Extent::new(block, 1).unwrap(),
            Duration::from_micros(40),
        )
    }

    fn events() -> Vec<IoEvent> {
        // Correlated bursts (two extents close in time) separated by
        // window-breaking gaps.
        let mut out = Vec::new();
        for i in 0..500u64 {
            let base = i * 10_000;
            out.push(event(base, 10 + (i % 5)));
            out.push(event(base + 20, 500 + (i % 5)));
        }
        out
    }

    /// Every hot-pair splitting setting: off, and on with defaults.
    fn split_modes() -> Vec<Option<SplitConfig>> {
        vec![None, Some(SplitConfig::default())]
    }

    #[test]
    fn pipeline_matches_sequential_analysis() {
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(4096);

        // Sequential ground truth: same monitor, single-threaded analyzer.
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        let mut single = OnlineAnalyzer::new(analyzer_config.clone());
        for t in &transactions {
            single.process(t);
        }
        let expected = single.snapshot().frequent_pairs(1);
        assert!(!expected.is_empty());

        for split in split_modes() {
            for shards in [1usize, 2, 4] {
                for routers in [1usize, 2] {
                    let mut pipeline = IngestPipeline::new(
                        monitor_config.clone(),
                        analyzer_config.clone(),
                        PipelineConfig {
                            split: split.clone(),
                            ..PipelineConfig::with_shards(shards)
                                .routers(routers)
                                .batch_size(16)
                                .ring_capacity(4)
                        },
                    );
                    for e in events() {
                        pipeline.push(e);
                    }
                    let analyzer = pipeline.finish();
                    assert_eq!(
                        analyzer.snapshot().frequent_pairs(1),
                        expected,
                        "{shards} shards, {routers} routers, split {split:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn routed_shard_state_matches_sequential_partitions_exactly() {
        // With splitting off, the pipeline must leave every shard's
        // tables bit-for-bit identical to a sequential ShardedAnalyzer
        // running process_partition per shard over the same stream
        // (tiny tables force eviction churn, so record order matters) —
        // for any router count, thanks to the sequence-ordered fan-in.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(8).item_capacity(4);
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        for shards in [1usize, 2, 4, 8] {
            let mut reference = ShardedAnalyzer::new(analyzer_config.clone(), shards);
            for t in &transactions {
                reference.process(t);
            }
            for routers in [1usize, 2] {
                let mut pipeline = IngestPipeline::new(
                    monitor_config.clone(),
                    analyzer_config.clone(),
                    PipelineConfig::with_shards(shards)
                        .routers(routers)
                        .batch_size(8),
                );
                for e in events() {
                    pipeline.push(e);
                }
                let routed = pipeline.finish();
                for (i, (s, r)) in reference.shards().iter().zip(routed.shards()).enumerate() {
                    assert_eq!(
                        s.snapshot(),
                        r.snapshot(),
                        "shard {i} of {shards}, {routers} routers"
                    );
                }
                assert_eq!(reference.stats(), routed.stats());
            }
        }
    }

    #[test]
    fn partial_batch_is_flushed_on_finish() {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100))),
            AnalyzerConfig::with_capacity(64),
            // Batch size far above the transaction count: nothing would
            // ship without the finish() flush.
            PipelineConfig::with_shards(2).batch_size(1024),
        );
        pipeline.push(event(0, 1));
        pipeline.push(event(10, 2));
        let analyzer = pipeline.finish();
        assert_eq!(analyzer.snapshot().pairs.len(), 1);
    }

    #[test]
    fn stats_count_batches_and_transactions() {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(10))),
            AnalyzerConfig::with_capacity(64),
            PipelineConfig::with_shards(1).batch_size(2),
        );
        for i in 0..8u64 {
            // 1 ms apart: every event closes the previous transaction.
            pipeline.push(event(i * 1000, i));
        }
        let stats = pipeline.stats();
        assert_eq!(stats.transactions, 7); // the 8th is still open
        assert_eq!(stats.batches, 3); // batches of 2, one pending
        assert_eq!(stats.routed_transactions, vec![6]); // routed = flushed
        pipeline.finish();
    }

    #[test]
    fn backpressure_does_not_deadlock_and_is_accounted() {
        for split in split_modes() {
            for routers in [1usize, 2] {
                // Tiny rings and batches: every stage must block and
                // resume rather than drop or deadlock.
                let mut pipeline = IngestPipeline::new(
                    MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(10))),
                    AnalyzerConfig::with_capacity(1024),
                    PipelineConfig {
                        split: split.clone(),
                        ..PipelineConfig::with_shards(2)
                            .routers(routers)
                            .batch_size(1)
                            .ring_capacity(1)
                    },
                );
                for i in 0..2_000u64 {
                    pipeline.push(event(i * 1000, i % 50));
                }
                let stats = pipeline.stats();
                // Stall accounting only: every stall charged some
                // blocked time, at each stage.
                assert!(stats.stalls == 0 || stats.stall_nanos > 0);
                assert!(stats.routing_stalls == 0 || stats.routing_stall_nanos > 0);
                let analyzer = pipeline.finish();
                assert_eq!(
                    analyzer.stats().transactions,
                    2_000,
                    "split {split:?}, {routers} routers"
                );
            }
        }
    }

    #[test]
    fn routed_pipeline_counts_per_shard_work() {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100))),
            AnalyzerConfig::with_capacity(4096),
            PipelineConfig::with_shards(4).batch_size(16),
        );
        for e in events() {
            pipeline.push(e);
        }
        pipeline.flush_batch(); // the 500th transaction is still open
        let stats = pipeline.stats();
        // Each 2-extent transaction is one pair + two item records on
        // exactly one shard.
        assert_eq!(stats.routed_transactions.len(), 4);
        assert_eq!(stats.routed_transactions.iter().sum::<u64>(), 499);
        assert_eq!(stats.routed_ops.iter().sum::<u64>(), 499 * 3);
        assert_eq!(stats.split_records, 0);
        pipeline.finish();
    }

    #[test]
    fn parallel_router_counters_converge_to_exact_totals() {
        // The live atomics are eventually consistent; once the routers
        // drain they must equal exactly what one router would report.
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100))),
            AnalyzerConfig::with_capacity(4096),
            PipelineConfig::with_shards(4).routers(2).batch_size(16),
        );
        for e in events() {
            pipeline.push(e);
        }
        pipeline.flush_batch();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stats = pipeline.stats();
        while stats.routed_transactions.iter().sum::<u64>() < 499 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            stats = pipeline.stats();
        }
        assert_eq!(stats.routed_transactions.iter().sum::<u64>(), 499);
        assert_eq!(stats.routed_ops.iter().sum::<u64>(), 499 * 3);
        pipeline.finish();
    }

    #[test]
    fn undersized_ring_reports_saturated_highwater() {
        // A one-slot ring under a continuous stream must show a
        // high-water mark at capacity: the shard stage saturated and
        // applied backpressure — exactly the controller's grow signal.
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(10))),
            AnalyzerConfig::with_capacity(1024),
            PipelineConfig::with_shards(1)
                .batch_size(1)
                .ring_capacity(1),
        );
        for i in 0..2_000u64 {
            pipeline.push(event(i * 1000, i % 50));
        }
        let stats = pipeline.stats();
        assert_eq!(stats.ring_slots, 1);
        assert_eq!(stats.shard_ring_highwater, vec![1]);
        // The busy split is populated alongside: one shard, one
        // (inline) router, both with service time on the books.
        assert_eq!(stats.shard_busy_nanos.len(), 1);
        assert!(stats.shard_busy_nanos[0] > 0);
        assert_eq!(stats.router_busy_nanos.len(), 1);
        assert!(stats.router_busy_nanos[0] > 0);
        pipeline.finish();
    }

    #[test]
    fn resize_matches_never_resized_pipeline() {
        // Grow shards and routers mid-stream, then shrink below the
        // starting point: frequent pairs and cumulative stats must be
        // identical to never having resized.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(4096);
        let stream = events();

        let mut baseline = IngestPipeline::new(
            monitor_config.clone(),
            analyzer_config.clone(),
            PipelineConfig::with_shards(2).batch_size(16),
        );
        for e in stream.clone() {
            baseline.push(e);
        }
        let baseline = baseline.finish();
        let expected = baseline.snapshot().frequent_pairs(1);

        let mut pipeline = IngestPipeline::new(
            monitor_config,
            analyzer_config,
            PipelineConfig::with_shards(2).batch_size(16),
        );
        let third = stream.len() / 3;
        for (i, e) in stream.into_iter().enumerate() {
            if i == third {
                assert!(pipeline.resize(4, 2)); // grow both stages
            } else if i == 2 * third {
                assert!(pipeline.resize(1, 1)); // shrink below start
            }
            pipeline.push(e);
        }
        assert_eq!(pipeline.topology(), Topology::new(1, 1));
        let stats = pipeline.stats();
        assert_eq!(stats.resizes, 2);
        // 500 two-event bursts; the last transaction is still open.
        assert_eq!(stats.transactions, 499);
        let resize_log = pipeline.resize_events().to_vec();
        assert_eq!(resize_log.len(), 2);
        assert_eq!(resize_log[0].from, Topology::new(2, 1));
        assert_eq!(resize_log[0].to, Topology::new(4, 2));
        assert!(resize_log[0].reseeded);
        assert_eq!(resize_log[1].to, Topology::new(1, 1));

        let analyzer = pipeline.finish();
        assert_eq!(analyzer.snapshot().frequent_pairs(1), expected);
        assert_eq!(analyzer.stats().transactions, 500);
        assert_eq!(analyzer.stats().pairs, baseline.stats().pairs);
    }

    #[test]
    fn router_only_resize_skips_reseeding() {
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100))),
            AnalyzerConfig::with_capacity(4096),
            PipelineConfig::with_shards(2).batch_size(16),
        );
        for e in events() {
            pipeline.push(e);
        }
        assert!(!pipeline.resize(2, 1), "same topology is a no-op");
        assert!(pipeline.resize(2, 2), "router-only change applies");
        assert!(!pipeline.resize_events()[0].reseeded);
        assert_eq!(pipeline.topology(), Topology::new(2, 2));
        let analyzer = pipeline.finish();
        assert_eq!(analyzer.stats().transactions, 500);
    }

    /// Polls the live view until it covers `target`, issuing heartbeat
    /// batches so idle workers get publish opportunities.
    fn drain_live_to(pipeline: &mut IngestPipeline, target: Epoch) -> Epoch {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let epoch = pipeline.poll_live().expect("publishing enabled");
            if epoch >= target {
                return epoch;
            }
            assert!(
                Instant::now() < deadline,
                "live view never reached {target}"
            );
            pipeline.heartbeat();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn live_view_matches_quiesced_snapshot() {
        // A LiveView read must be bit-exact to a quiesced snapshot at
        // the same boundary: feed identical pre-windowed transactions
        // to a publishing pipeline and an oracle, drain the view to the
        // ingest frontier, and compare against the oracle's quiesced
        // capture — with and without splitting, across topologies, with
        // tiny tables to force delta-visible eviction churn.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        for split in split_modes() {
            for (shards, routers) in [(1usize, 1usize), (2, 2), (4, 1)] {
                let analyzer_config = AnalyzerConfig::with_capacity(64).item_capacity(32);
                let build = |publish: usize| {
                    IngestPipeline::new(
                        monitor_config.clone(),
                        analyzer_config.clone(),
                        PipelineConfig {
                            split: split.clone(),
                            ..PipelineConfig::with_shards(shards)
                                .routers(routers)
                                .batch_size(16)
                                .publish_interval(publish)
                        },
                    )
                };
                let mut live = build(4);
                let mut oracle = build(0);
                assert!(oracle.poll_live().is_none());
                assert!(oracle.live_view().is_none());
                for t in &transactions {
                    live.push_transaction(t.clone());
                    oracle.push_transaction(t.clone());
                }
                live.flush_batch();
                let target = live.frontier_epoch();
                drain_live_to(&mut live, target);
                let expected = SynopsisSnapshot::capture(oracle.finish().shards());
                let view = live.live_view_mut().unwrap();
                assert_eq!(
                    view.snapshot(),
                    expected,
                    "{shards} shards, {routers} routers, split {split:?}"
                );
                let stats = live.stats();
                assert!(stats.epoch_publishes >= shards as u64);
                live.finish();
            }
        }
    }

    #[test]
    fn live_view_survives_resizes() {
        // Query-during-resize: the view must stay exact across a grow
        // (re-seeded mirrors) and a router-only change (mirrors carried
        // over), matching an oracle replaying the identical history.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(512);
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        let build = |publish: usize| {
            IngestPipeline::new(
                monitor_config.clone(),
                analyzer_config.clone(),
                PipelineConfig::with_shards(2)
                    .batch_size(8)
                    .publish_interval(publish),
            )
        };
        let mut live = build(2);
        let mut oracle = build(0);
        let third = transactions.len() / 3;
        for (i, t) in transactions.iter().enumerate() {
            if i == third {
                assert!(live.resize(4, 2));
                assert!(oracle.resize(4, 2));
                // Immediately after a re-seeding resize the re-primed
                // view is already exact — queryable before the new
                // pool publishes anything.
                let pairs = live.live_view_mut().unwrap().frequent_pairs(1);
                assert!(!pairs.is_empty());
            } else if i == 2 * third {
                assert!(live.resize(4, 1)); // router-only: cheap path
                assert!(oracle.resize(4, 1));
            }
            live.push_transaction(t.clone());
            oracle.push_transaction(t.clone());
            if i % 64 == 0 {
                live.poll_live();
            }
        }
        live.flush_batch();
        let target = live.frontier_epoch();
        drain_live_to(&mut live, target);
        let expected = SynopsisSnapshot::capture(oracle.finish().shards());
        assert_eq!(live.live_view_mut().unwrap().snapshot(), expected);
        live.finish();
    }

    #[test]
    fn heartbeats_do_not_change_results() {
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(4096);
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        let run = |beats: bool| {
            let mut pipeline = IngestPipeline::new(
                monitor_config.clone(),
                analyzer_config.clone(),
                PipelineConfig::with_shards(2).routers(2).batch_size(16),
            );
            for (i, t) in transactions.iter().enumerate() {
                pipeline.push_transaction(t.clone());
                if beats && i % 50 == 0 {
                    pipeline.heartbeat();
                }
            }
            SynopsisSnapshot::capture(pipeline.finish().shards())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn park_resume_preserves_results() {
        // Parking mid-stream (threads joined, tables drained to a
        // snapshot) and resuming on the next push must yield results
        // count-identical to never having parked — the same guarantee
        // the resize protocol gives, through the same machinery.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(4096);
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        let run = |parks: bool| {
            let mut pipeline = IngestPipeline::new(
                monitor_config.clone(),
                analyzer_config.clone(),
                PipelineConfig::with_shards(2).batch_size(16),
            );
            for (i, t) in transactions.iter().enumerate() {
                pipeline.push_transaction(t.clone());
                if parks && i % 100 == 0 {
                    pipeline.park();
                    assert!(pipeline.is_parked());
                }
            }
            pipeline.finish().frequent_pairs(1)
        };
        let parked = run(true);
        assert!(!parked.is_empty());
        assert_eq!(parked, run(false));
    }

    #[test]
    fn parked_pipeline_answers_live_queries_and_resumes_exact() {
        // While parked the live view must keep answering queries at
        // its quiesce-exact boundary (every in-flight delta folded by
        // the quiesce), and after resuming + draining, the view must
        // again match a quiesced capture.
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(100)));
        let analyzer_config = AnalyzerConfig::with_capacity(512);
        let transactions = Monitor::new(monitor_config.clone()).into_transactions(events());
        let mid = transactions.len() / 2;
        let mut pipeline = IngestPipeline::new(
            monitor_config,
            analyzer_config.clone(),
            PipelineConfig::with_shards(2)
                .batch_size(8)
                .publish_interval(2),
        );
        for t in &transactions[..mid] {
            pipeline.push_transaction(t.clone());
        }
        pipeline.park();
        // Quiesce folded everything: parked view == parked tables.
        let mut oracle = OnlineAnalyzer::new(analyzer_config);
        for t in &transactions[..mid] {
            oracle.process(t);
        }
        // The live view totally orders ties by pair; re-sort the
        // oracle (ties in table order) the same way before comparing.
        let canonical = |mut pairs: Vec<(rtdac_types::ExtentPair, u32)>| {
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            pairs
        };
        let parked_pairs = pipeline
            .live_view_mut()
            .expect("publishing enabled")
            .frequent_pairs(1);
        assert_eq!(parked_pairs, canonical(oracle.frequent_pairs(1)));
        // Resume by pushing the rest; the view stays live.
        for t in &transactions[mid..] {
            pipeline.push_transaction(t.clone());
            oracle.process(t);
        }
        assert!(!pipeline.is_parked());
        let frontier = pipeline.frontier_epoch();
        drain_live_to(&mut pipeline, frontier);
        let live_pairs = pipeline
            .live_view_mut()
            .expect("publishing enabled")
            .frequent_pairs(1);
        assert_eq!(live_pairs, canonical(oracle.frequent_pairs(1)));
        pipeline.finish();
    }

    #[test]
    fn adaptive_controller_grows_saturated_pipeline() {
        // One-slot rings saturate on every batch, so the occupancy
        // rule must walk the shard pool up to its bound — and the
        // result must still match the sequential analysis.
        let analyzer_config = AnalyzerConfig::with_capacity(4096);
        let monitor_config =
            MonitorConfig::new(crate::WindowPolicy::Static(Duration::from_micros(10)));
        let controller = ControllerConfig::default()
            .shard_bounds(1, 4)
            .router_bounds(1, 1) // pin R: only the occupancy rule acts
            .interval_batches(8)
            .confirm_windows(1)
            .cooldown_windows(1);
        let mut pipeline = IngestPipeline::new(
            monitor_config.clone(),
            analyzer_config.clone(),
            PipelineConfig::with_shards(1)
                .batch_size(1)
                .ring_capacity(1)
                .adaptive(controller),
        );
        let stream: Vec<_> = (0..2_000u64).map(|i| event(i * 1000, i % 50)).collect();
        for e in stream.clone() {
            pipeline.push(e);
        }
        assert_eq!(pipeline.topology(), Topology::new(4, 1));
        assert!(pipeline.stats().resizes >= 2);

        let transactions = Monitor::new(monitor_config).into_transactions(stream);
        let mut single = OnlineAnalyzer::new(analyzer_config);
        for t in &transactions {
            single.process(t);
        }
        let analyzer = pipeline.finish();
        assert_eq!(
            analyzer.snapshot().frequent_pairs(1),
            single.snapshot().frequent_pairs(1)
        );
    }
}
