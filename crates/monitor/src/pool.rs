//! The elastic stage pool: the worker threads, SPSC ring matrix and
//! buffer-recycling machinery behind [`IngestPipeline`]. One
//! [`StagePool`] is one topology epoch — `IngestPipeline` (and, above
//! it, the tenant runtime) owns the lifecycle: spawn, quiesce at a
//! sequence barrier, re-seed, re-spawn. The protocol and its
//! correctness argument live in the `pipeline` module docs and
//! DESIGN.md §11/§15.
//!
//! [`IngestPipeline`]: crate::IngestPipeline
//! [`StagePool`]: crate::pool::StagePool

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rtdac_synopsis::{AnalyzerConfig, LiveView, OnlineAnalyzer, ShardDelta};
use rtdac_types::{Epoch, Topology, Transaction};

use crate::controller::WindowSample;
use crate::pipeline::{PipelineConfig, PipelineStats};
use crate::router::{Router, RouterConfig, WorkList};
use crate::spsc;

/// Live counters shared between the pool's workers and
/// [`IngestPipeline::stats`]. Eventually consistent while the pipeline
/// runs (each worker publishes at batch granularity) and exact once
/// the pool quiesces. One instance per pool epoch: vectors are sized
/// to the epoch's topology.
pub(crate) struct PoolCounters {
    pub(crate) routed_transactions: Vec<AtomicU64>,
    pub(crate) routed_ops: Vec<AtomicU64>,
    pub(crate) split_records: AtomicU64,
    pub(crate) routing_stalls: AtomicU64,
    pub(crate) routing_stall_nanos: AtomicU64,
    /// Per shard: high-water occupancy of its work rings, sampled
    /// producer-side after each send. Swapped to zero by the
    /// controller's window sampler (the epoch maximum is folded into
    /// `StagePool::highwater_fold`).
    pub(crate) shard_ring_high: Vec<AtomicU64>,
    /// Per router (parallel routing): high-water occupancy of its
    /// batch ring.
    pub(crate) batch_ring_high: Vec<AtomicU64>,
    /// Per router: cumulative busy (service) nanoseconds this epoch.
    pub(crate) router_busy_nanos: Vec<AtomicU64>,
    /// Per shard: cumulative busy (service) nanoseconds this epoch.
    pub(crate) shard_busy_nanos: Vec<AtomicU64>,
    /// Deltas published toward the live view this pool epoch.
    pub(crate) epoch_publishes: AtomicU64,
    /// Publish ticks deferred for lack of a recycled buffer.
    pub(crate) epoch_publish_skips: AtomicU64,
}

impl PoolCounters {
    fn new(shard_count: usize, router_count: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        PoolCounters {
            routed_transactions: zeros(shard_count),
            routed_ops: zeros(shard_count),
            split_records: AtomicU64::new(0),
            routing_stalls: AtomicU64::new(0),
            routing_stall_nanos: AtomicU64::new(0),
            shard_ring_high: zeros(shard_count),
            batch_ring_high: zeros(router_count),
            router_busy_nanos: zeros(router_count),
            shard_busy_nanos: zeros(shard_count),
            epoch_publishes: AtomicU64::new(0),
            epoch_publish_skips: AtomicU64::new(0),
        }
    }
}

/// The front-end's dispatch machinery, by router count.
pub(crate) enum FrontEnd {
    /// One router, running inline on the caller's thread.
    Inline(Box<InlineRouting>),
    /// `R >= 2` router worker threads fed round-robin.
    Parallel(ParallelRouting),
}

/// Inline routing state: the router plus the per-shard staging lists
/// and recycling rings.
pub(crate) struct InlineRouting {
    pub(crate) router: Router,
    pub(crate) senders: Vec<spsc::Sender<WorkList>>,
    /// Cleared work lists flowing back from the shards, one ring per
    /// shard (buffers never migrate between shards, so each one's
    /// capacity plateaus at its own shard's demand).
    pub(crate) returns: Vec<spsc::Receiver<WorkList>>,
    /// One staging list per shard, swapped out as lists ship.
    pub(crate) staged: Vec<WorkList>,
}

/// Parallel routing state: batch rings to R router workers and the
/// emptied batch buffers flowing back.
pub(crate) struct ParallelRouting {
    pub(crate) batch_senders: Vec<spsc::Sender<Vec<Transaction>>>,
    pub(crate) batch_returns: Vec<spsc::Receiver<Vec<Transaction>>>,
    pub(crate) handles: Vec<JoinHandle<Router>>,
}

/// Sends one item, separating ring-full backpressure from the fast
/// path: a failed `try_send` falls back to the blocking `send`, and the
/// blocked time is charged to the caller's stall counters.
pub(crate) fn send_counting_stalls<T: Send>(
    sender: &spsc::Sender<T>,
    value: T,
    stalls: &mut u64,
    stall_nanos: &mut u64,
) {
    if let Err(value) = sender.try_send(value) {
        let blocked = Instant::now();
        // A send fails only if the receiving worker died; its panic
        // surfaces when finish() joins.
        let _ = sender.send(value);
        *stall_nanos += blocked.elapsed().as_nanos() as u64;
        *stalls += 1;
    }
}

/// Body of one parallel router worker: batches in (a round-robin slice
/// of the stream, in order), one `WorkList` per shard out — to *every*
/// shard, empty or not, because the sequence-ordered fan-in consumes
/// exactly one entry per batch per ring.
fn router_worker(
    index: usize,
    mut router: Router,
    batches: spsc::Receiver<Vec<Transaction>>,
    batch_return: spsc::Sender<Vec<Transaction>>,
    work_senders: Vec<spsc::Sender<WorkList>>,
    work_returns: Vec<spsc::Receiver<WorkList>>,
    counters: Arc<PoolCounters>,
) -> Router {
    let shard_count = work_senders.len();
    let mut staged: Vec<WorkList> = (0..shard_count).map(|_| WorkList::default()).collect();
    let mut reported_splits = 0u64;
    while let Some(mut batch) = batches.recv() {
        let started = Instant::now();
        router.route_into(&batch, &mut staged);
        batch.clear();
        // Hand the emptied batch buffer back to the front-end; if the
        // return ring is full or gone the buffer is simply dropped.
        let _ = batch_return.try_send(batch);
        let (mut stalls, mut stall_nanos) = (0u64, 0u64);
        for (shard, sender) in work_senders.iter().enumerate() {
            // Refill the stage from this shard's return ring before
            // swapping the routed list out. Buffers never migrate
            // between (router, shard) cycles, so each one's capacity
            // plateaus at its cycle's demand.
            let refill = work_returns[shard].try_recv().unwrap_or_default();
            let work = std::mem::replace(&mut staged[shard], refill);
            counters.routed_transactions[shard]
                .fetch_add(work.txns.len() as u64, Ordering::Relaxed);
            counters.routed_ops[shard].fetch_add(work.ops(), Ordering::Relaxed);
            send_counting_stalls(sender, work, &mut stalls, &mut stall_nanos);
            counters.shard_ring_high[shard].fetch_max(sender.occupancy() as u64, Ordering::Relaxed);
        }
        if stalls > 0 {
            counters.routing_stalls.fetch_add(stalls, Ordering::Relaxed);
            counters
                .routing_stall_nanos
                .fetch_add(stall_nanos, Ordering::Relaxed);
        }
        let splits = router.stats().split_records;
        counters
            .split_records
            .fetch_add(splits - reported_splits, Ordering::Relaxed);
        reported_splits = splits;
        // Busy = service time: the batch window minus time blocked on
        // full shard rings (that part is queueing, charged above).
        let busy = (started.elapsed().as_nanos() as u64).saturating_sub(stall_nanos);
        counters.router_busy_nanos[index].fetch_add(busy, Ordering::Relaxed);
    }
    router
}

/// One epoch of the elastic worker pools: the routers and shard
/// workers for a fixed topology, their shared counters, and the
/// per-epoch batch sequence. [`IngestPipeline::resize`] quiesces the
/// current pool and spawns a fresh one.
pub(crate) struct StagePool {
    pub(crate) front_end: FrontEnd,
    pub(crate) workers: Vec<JoinHandle<OnlineAnalyzer>>,
    pub(crate) counters: Arc<PoolCounters>,
    /// Slot count of every work ring this epoch.
    pub(crate) ring_slots: u64,
    /// Batches dispatched this epoch: the dealing sequence for
    /// `router_for_batch` and the shard fan-in. Restarts at zero each
    /// epoch so the round-robin merge starts aligned for any new R.
    pub(crate) sequence: u64,
    /// Batches dispatched since the last controller window sample.
    pub(crate) window_batches: u64,
    /// Epoch-maximum ring high-water marks, folded in when the window
    /// sampler swaps the live atomics to zero (so `stats()` stays an
    /// epoch maximum even with a controller sampling windows).
    pub(crate) highwater_fold: Vec<u64>,
    /// Cumulative busy nanos at the last window sample, per router.
    pub(crate) prev_router_busy: Vec<u64>,
    /// Cumulative busy nanos at the last window sample, per shard.
    pub(crate) prev_shard_busy: Vec<u64>,
    /// Per shard, publishing only: published deltas flowing to the
    /// reader ([`IngestPipeline::poll_live`] drains these).
    pub(crate) delta_rx: Vec<spsc::Receiver<Box<ShardDelta>>>,
    /// Per shard, publishing only: recycled delta buffers flowing back
    /// to the worker.
    pub(crate) buf_tx: Vec<spsc::Sender<Box<ShardDelta>>>,
}

impl StagePool {
    /// Spawns the router and shard workers for one topology epoch,
    /// seeding the shard workers with `shards` (fresh ones at
    /// construction, re-seeded ones after a resize). Every return ring
    /// is prefilled to the forward bound so the pool is allocation-free
    /// from its very first batch.
    /// `epoch_base` is the pipeline's cumulative batch count at spawn:
    /// worker batch counters restart each pool epoch, so published
    /// epochs are offset by the base to stay monotone across resizes.
    pub(crate) fn spawn(
        shards: Vec<OnlineAnalyzer>,
        pipeline_config: &PipelineConfig,
        analyzer_config: &AnalyzerConfig,
        epoch_base: u64,
    ) -> Self {
        let shard_count = shards.len();
        debug_assert_eq!(shard_count, pipeline_config.shard_count);
        let feeders = pipeline_config.routers;
        let ring_capacity = pipeline_config.ring_capacity;
        // Buffer recycling is provably mint-free: a (producer, consumer)
        // cycle over a forward ring of (power-of-two) capacity C can
        // hold at most C + 2 buffers outside its return ring — C
        // queued, one staged at the producer, one in the consumer's
        // hands. Each return ring is therefore *prefilled* with C + 2
        // empty buffers at construction (total circulation C + 3 with
        // the initial stage), so whenever the producer refills, at
        // least one recycled buffer is waiting: the `unwrap_or_default`
        // mint fallbacks below are dead code in steady *and* cold
        // state. Return rings are sized so a recycled buffer is never
        // dropped for lack of space (dropping one would shrink
        // circulation below the forward bound and force a mint). The
        // rings rotate FIFO, so every buffer in a cycle is exercised —
        // and its capacity grown to the cycle's demand — within one
        // full rotation.
        let forward_bound = ring_capacity.next_power_of_two() + 2;
        let return_capacity = ring_capacity.next_power_of_two() * 2 + 2;

        let counters = Arc::new(PoolCounters::new(shard_count, feeders));

        // Channel matrix: one work ring per (feeder, shard), each with a
        // matching return ring recycling cleared lists.
        let mut work_tx: Vec<Vec<spsc::Sender<WorkList>>> = (0..feeders)
            .map(|_| Vec::with_capacity(shard_count))
            .collect();
        let mut ret_rx: Vec<Vec<spsc::Receiver<WorkList>>> = (0..feeders)
            .map(|_| Vec::with_capacity(shard_count))
            .collect();
        let publish_interval = pipeline_config.publish_interval_batches as u64;
        let mut delta_rx = Vec::new();
        let mut buf_tx = Vec::new();
        let mut workers = Vec::with_capacity(shard_count);
        for (index, mut shard) in shards.into_iter().enumerate() {
            // Delta publishing: one forward ring (worker → reader) and
            // one return ring (reader → worker), with `publish_buffers`
            // boxes circulating. Both rings hold the whole circulation,
            // so neither side's try_send can ever fail — the worker
            // never blocks on the reader and no delta is ever dropped.
            let publish = (publish_interval > 0).then(|| {
                shard.enable_delta_tracking();
                let buffers = pipeline_config.publish_buffers;
                let (d_tx, d_rx) = spsc::channel::<Box<ShardDelta>>(buffers);
                let (b_tx, b_rx) = spsc::channel::<Box<ShardDelta>>(buffers);
                for _ in 0..buffers {
                    // Preallocated to the shard's hard delta bounds, so
                    // extraction never grows a buffer mid-stream no
                    // matter how many epochs merged while it was away.
                    let mut buf = Box::<ShardDelta>::default();
                    shard.preallocate_delta(&mut buf);
                    let sent = b_tx.try_send(buf).is_ok();
                    debug_assert!(sent, "buffer ring sized below its prefill");
                }
                delta_rx.push(d_rx);
                buf_tx.push(b_tx);
                (d_tx, b_rx)
            });
            let mut rings = Vec::with_capacity(feeders);
            let mut returns = Vec::with_capacity(feeders);
            for feeder in 0..feeders {
                let (tx, rx) = spsc::channel::<WorkList>(ring_capacity);
                work_tx[feeder].push(tx);
                rings.push(rx);
                let (return_tx, return_rx) = spsc::channel::<WorkList>(return_capacity);
                for _ in 0..forward_bound {
                    let sent = return_tx.try_send(WorkList::default()).is_ok();
                    debug_assert!(sent, "return ring sized below its prefill");
                }
                returns.push(return_tx);
                ret_rx[feeder].push(return_rx);
            }
            let worker_counters = Arc::clone(&counters);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rtdac-shard-{index}"))
                    .spawn(move || {
                        // Sequence-ordered fan-in: batch n arrives on
                        // ring n % feeders and each ring is FIFO, so
                        // reading the rings round-robin replays the
                        // exact global batch order. A closed-and-empty
                        // ring at the expected slot means batch n was
                        // never dispatched; the sequence counter is
                        // monotone, so no later batch exists anywhere
                        // and the worker is done — this is the quiesce
                        // barrier the resize protocol drains to.
                        let feeders = rings.len();
                        let mut next = 0usize;
                        // Publish cadence: batches applied this pool
                        // epoch, plus whether an epoch tick is still
                        // waiting for a recycled buffer.
                        let mut batches = 0u64;
                        let mut publish_due = false;
                        loop {
                            let ring = next % feeders;
                            let Some(mut work) = rings[ring].recv() else {
                                break;
                            };
                            let started = Instant::now();
                            work.apply(&mut shard);
                            work.clear();
                            // Recycle the buffer to the router that
                            // filled it; a closed ring (shutdown) just
                            // drops it.
                            let _ = returns[ring].try_send(work);
                            batches += 1;
                            if let Some((delta_tx, buf_rx)) = publish.as_ref() {
                                if batches.is_multiple_of(publish_interval) {
                                    if publish_due {
                                        // A whole interval passed with
                                        // the reader still holding every
                                        // buffer: this epoch merges into
                                        // the next publish.
                                        worker_counters
                                            .epoch_publish_skips
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    publish_due = true;
                                }
                                if publish_due {
                                    if let Some(mut buf) = buf_rx.try_recv() {
                                        buf.clear();
                                        shard.extract_delta(&mut buf);
                                        buf.epoch = Epoch::new(epoch_base + batches);
                                        let sent = delta_tx.try_send(buf).is_ok();
                                        debug_assert!(
                                            sent,
                                            "delta ring sized below buffer circulation"
                                        );
                                        worker_counters
                                            .epoch_publishes
                                            .fetch_add(1, Ordering::Relaxed);
                                        publish_due = false;
                                    }
                                }
                            }
                            worker_counters.shard_busy_nanos[index]
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            next += 1;
                        }
                        shard
                    })
                    .expect("spawning shard worker"),
            );
        }

        let router_config = RouterConfig::new(shard_count)
            .op_filter(analyzer_config.op_filter)
            .split_opt(pipeline_config.split.clone());
        let front_end = if feeders == 1 {
            FrontEnd::Inline(Box::new(InlineRouting {
                router: Router::new(router_config),
                senders: work_tx.pop().expect("one inline feeder"),
                returns: ret_rx.pop().expect("one inline feeder"),
                staged: (0..shard_count).map(|_| WorkList::default()).collect(),
            }))
        } else {
            let mut batch_senders = Vec::with_capacity(feeders);
            let mut batch_returns = Vec::with_capacity(feeders);
            let mut handles = Vec::with_capacity(feeders);
            for (index, (work_senders, work_returns)) in
                work_tx.drain(..).zip(ret_rx.drain(..)).enumerate()
            {
                let (batch_tx, batch_rx) = spsc::channel::<Vec<Transaction>>(ring_capacity);
                // Batch buffers migrate between router cycles
                // (the front-end grabs a replacement from any
                // return ring), so each ring is sized for the
                // whole circulation, not just its own cycle's.
                let (return_tx, return_rx) =
                    spsc::channel::<Vec<Transaction>>(feeders * forward_bound + 1);
                for _ in 0..forward_bound {
                    let sent = return_tx
                        .try_send(Vec::with_capacity(pipeline_config.batch_size))
                        .is_ok();
                    debug_assert!(sent, "batch return ring sized below its prefill");
                }
                batch_senders.push(batch_tx);
                batch_returns.push(return_rx);
                let router = Router::new(router_config.clone());
                let counters = Arc::clone(&counters);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("rtdac-router-{index}"))
                        .spawn(move || {
                            router_worker(
                                index,
                                router,
                                batch_rx,
                                return_tx,
                                work_senders,
                                work_returns,
                                counters,
                            )
                        })
                        .expect("spawning router worker"),
                );
            }
            FrontEnd::Parallel(ParallelRouting {
                batch_senders,
                batch_returns,
                handles,
            })
        };

        StagePool {
            front_end,
            workers,
            counters,
            ring_slots: ring_capacity.next_power_of_two() as u64,
            sequence: 0,
            window_batches: 0,
            highwater_fold: vec![0; shard_count],
            prev_router_busy: vec![0; feeders],
            prev_shard_busy: vec![0; shard_count],
            delta_rx,
            buf_tx,
        }
    }

    /// Drains the pool to the sequence barrier and returns the shard
    /// analyzers. Dropping the front-end closes the batch rings;
    /// routers route everything already dispatched and exit, which
    /// closes the shard rings; shard workers apply everything and
    /// return their state. Routing-stage scalars are folded into
    /// `stats`' cumulative base; per-stage vectors die with the epoch.
    pub(crate) fn quiesce(
        self,
        stats: &mut PipelineStats,
        live: Option<&mut LiveView>,
    ) -> Vec<OnlineAnalyzer> {
        let StagePool {
            front_end,
            workers,
            counters,
            delta_rx,
            ..
        } = self;
        match front_end {
            FrontEnd::Inline(routing) => {
                let split_records = routing.router.stats().split_records;
                // Dropping the routing state closes the shard rings.
                drop(routing);
                stats.split_records += split_records;
            }
            FrontEnd::Parallel(routing) => {
                // Closing the batch rings drains the routers; router
                // exit closes the shard rings. After the join the live
                // atomics are exact.
                drop(routing.batch_senders);
                drop(routing.batch_returns);
                for handle in routing.handles {
                    handle.join().expect("router worker panicked");
                }
                stats.routing_stalls += counters.routing_stalls.load(Ordering::Relaxed);
                stats.routing_stall_nanos += counters.routing_stall_nanos.load(Ordering::Relaxed);
                stats.split_records += counters.split_records.load(Ordering::Relaxed);
            }
        }
        let shards: Vec<OnlineAnalyzer> = workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        stats.epoch_publishes += counters.epoch_publishes.load(Ordering::Relaxed);
        stats.epoch_publish_skips += counters.epoch_publish_skips.load(Ordering::Relaxed);
        // Fold deltas still in flight into the live view before the
        // rings drop: after the joins every published delta is in its
        // ring, so this drain is complete and the view loses nothing
        // across a resize.
        if let Some(view) = live {
            for (shard, rx) in delta_rx.iter().enumerate() {
                while let Some(delta) = rx.try_recv() {
                    view.apply_delta(shard, &delta);
                }
            }
        }
        shards
    }

    /// Samples one controller window: swaps the ring high-water marks
    /// to zero (folding the epoch maximum aside for `stats()`) and
    /// takes the busy-time deltas since the previous sample, reduced to
    /// the busiest single ring / router / shard.
    pub(crate) fn sample_window(&mut self, topology: Topology) -> WindowSample {
        let mut shard_ring_high = 0u64;
        for (fold, live) in self
            .highwater_fold
            .iter_mut()
            .zip(&self.counters.shard_ring_high)
        {
            let window = live.swap(0, Ordering::Relaxed);
            *fold = (*fold).max(window);
            shard_ring_high = shard_ring_high.max(window);
        }
        let mut router_busy_nanos = 0u64;
        for (prev, live) in self
            .prev_router_busy
            .iter_mut()
            .zip(&self.counters.router_busy_nanos)
        {
            let total = live.load(Ordering::Relaxed);
            router_busy_nanos = router_busy_nanos.max(total - *prev);
            *prev = total;
        }
        let mut shard_busy_nanos = 0u64;
        for (prev, live) in self
            .prev_shard_busy
            .iter_mut()
            .zip(&self.counters.shard_busy_nanos)
        {
            let total = live.load(Ordering::Relaxed);
            shard_busy_nanos = shard_busy_nanos.max(total - *prev);
            *prev = total;
        }
        WindowSample {
            topology,
            ring_slots: self.ring_slots,
            shard_ring_high,
            router_busy_nanos,
            shard_busy_nanos,
        }
    }
}
