//! Buffer-pool correctness: after warmup, the steady-state routed
//! pipeline performs **zero heap allocations per batch**.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`alloc_zeroed`/`realloc` call (frees are not
//! counted — recycling is about never *needing* new memory). The test
//! drives the pipeline through a warmup long enough for every pool to
//! prime — work-list buffers cycling shard → router, batch buffers
//! cycling router → front-end, table slabs and dedup scratch at their
//! high-water marks — then snapshots the counter, streams a measurement
//! window of pre-built transactions, and asserts the counter did not
//! move. Any allocation regression on the routed hot path (front-end,
//! router workers, or shard workers) fails the assert with the exact
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rtdac_monitor::{blktrace, BlktraceEventSource, IngestPipeline, MonitorConfig, PipelineConfig};
use rtdac_synopsis::{Admission, AnalyzerConfig, DoorkeeperConfig, TableDelta, TwoTierTable};
use rtdac_types::{
    ColumnarReader, ColumnarWriter, EventSource, Extent, IoOp, IoRequest, MsrCsvReader,
    RequestSource, Timestamp, Trace, Transaction,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One cycle of the steady-state workload: 64 distinct two-extent
/// transactions, all pairs well under the table capacities, so after
/// the first pass every record is a table *hit* (no insertions, no
/// evictions — the analyzer hot path is allocation-free by design and
/// must stay that way).
fn cycle() -> Vec<Transaction> {
    (0..64u64)
        .map(|i| {
            Transaction::from_extents(
                Timestamp::from_micros(i),
                [
                    Extent::new(100 + i * 10, 4).unwrap(),
                    Extent::new(10_000 + i * 10, 4).unwrap(),
                ],
            )
        })
        .collect()
}

/// A pre-built stream of `cycles` repetitions of the workload cycle.
/// Built *before* the measurement snapshot: constructing a Transaction
/// allocates its item vector, and that is the caller's cost, not the
/// pipeline's.
fn stream(cycles: usize) -> Vec<Transaction> {
    let one = cycle();
    let mut out = Vec::with_capacity(cycles * one.len());
    for _ in 0..cycles {
        out.extend(one.iter().cloned());
    }
    out
}

fn assert_steady_state_allocation_free(routers: usize) {
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        AnalyzerConfig::with_capacity(4096),
        PipelineConfig::with_shards(2)
            .routers(routers)
            .batch_size(16)
            .ring_capacity(8),
    );

    // Warmup: prime the tables and rotate every recycling ring many
    // times over (200 cycles = 800 batches against rings prefilled
    // with ~10 buffers each) — the rings are FIFO, so every pooled
    // buffer is exercised and grown to its cycle's high-water
    // capacity well before the window opens.
    let warmup = stream(200);
    let measured = stream(100);
    // Touch the main thread's handle so its lazy init (used by the
    // ring park/wake handshake) cannot fire inside the window.
    let _ = std::thread::current();
    for t in warmup {
        pipeline.push_transaction(t);
    }
    pipeline.flush_batch();
    // Let the router and shard workers drain everything in flight so
    // no warmup-era allocation (a buffer pool still growing toward its
    // plateau) can land inside the measurement window.
    std::thread::sleep(Duration::from_millis(100));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for t in measured {
        pipeline.push_transaction(t);
    }
    pipeline.flush_batch();
    std::thread::sleep(Duration::from_millis(100));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{routers}-router steady state performed {} heap allocations \
         across 400 batches (expected zero: buffers must recycle)",
        after - before
    );

    // The measurement stream was processed for real, not dropped.
    let analyzer = pipeline.finish();
    assert_eq!(analyzer.stats().transactions, (200 + 100) * 64);
}

/// A resize tears the pools down and rebuilds them, so it *may*
/// allocate (quiesce-window cost, counted and reported separately) —
/// but once the fresh pool's rings have rotated through warmup, the
/// steady state must be allocation-free again at the new topology.
fn assert_allocation_free_after_resize() {
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        AnalyzerConfig::with_capacity(4096),
        PipelineConfig::with_shards(2)
            .routers(2)
            .batch_size(16)
            .ring_capacity(8),
    );
    let _ = std::thread::current();
    let mut total = 0u64;
    for t in stream(200) {
        pipeline.push_transaction(t);
    }
    pipeline.flush_batch();
    std::thread::sleep(Duration::from_millis(100));

    // Grow both stages, then shrink both below the starting topology.
    for (step, (shards, routers)) in [(4usize, 4usize), (2, 1)].into_iter().enumerate() {
        // Built before any counter snapshot — transaction construction
        // allocates, and that is the caller's cost, not the pipeline's.
        let rewarm = stream(200);
        let measured = stream(100);
        let before_resize = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(pipeline.resize(shards, routers));
        let quiesce_allocations = ALLOCATIONS.load(Ordering::SeqCst) - before_resize;
        // The quiesce window builds a whole new pool (rings, prefilled
        // buffers, snapshot merge): it must allocate — this is the
        // separately-counted budget the steady-state assert excludes.
        assert!(
            quiesce_allocations > 0,
            "resize to {shards}s x {routers}r allocated nothing — \
             the pool was not actually rebuilt"
        );
        println!(
            "resize {step} (to {shards}s x {routers}r): \
             {quiesce_allocations} quiesce-window allocations"
        );

        // Re-warm the fresh pool, then hold it to zero.
        for t in rewarm {
            pipeline.push_transaction(t);
        }
        pipeline.flush_batch();
        std::thread::sleep(Duration::from_millis(100));

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for t in measured {
            pipeline.push_transaction(t);
        }
        pipeline.flush_batch();
        std::thread::sleep(Duration::from_millis(100));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "steady state after resize to {shards}s x {routers}r performed \
             {} heap allocations (expected zero: the pool must re-establish \
             its recycling plateau)",
            after - before
        );
        total += 300;
    }

    // Nothing was dropped across the resizes.
    let analyzer = pipeline.finish();
    assert_eq!(analyzer.stats().transactions, (200 + total) * 64);
}

/// One cycle's worth of never-repeating tail transactions: extents
/// drawn from a region far above the recurring cycle's, advancing
/// every cycle so no tail pair is ever seen twice. With a threshold-3
/// doorkeeper these stay below the admission threshold forever — the
/// steady state exercises the sketch-probe *rejection* path on every
/// one of them.
fn tail_cycle(cycle_index: u64) -> Vec<Transaction> {
    (0..16u64)
        .map(|j| {
            let n = cycle_index * 16 + j;
            Transaction::from_extents(
                Timestamp::from_micros(1_000_000 + n),
                [
                    Extent::new(50_000_000 + n * 128, 4).unwrap(),
                    Extent::new(90_000_000 + n * 128, 4).unwrap(),
                ],
            )
        })
        .collect()
}

/// With admission on, the steady state has three hot paths the ungated
/// phases never touch — sketch-probe rejections for the never-repeating
/// tail, sketch bumps under the admitted working set's first sightings,
/// and the periodic in-place halving when the aging watermark fires —
/// and none of them may allocate. The recurring cycle is admitted
/// during warmup (third sighting crosses the threshold); the measured
/// window then mixes table hits with guaranteed rejections and several
/// watermark resets.
fn assert_admission_steady_state_allocation_free() {
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        AnalyzerConfig::with_capacity(4096).admission(Admission::Doorkeeper(DoorkeeperConfig {
            counters: 8192,
            admit_threshold: 3,
            // Low enough that halving fires repeatedly inside the
            // measured window (16 rejected bumps per cycle x 100
            // cycles, against a per-shard watermark of 512 after the
            // 2-way split).
            watermark: 1024,
        })),
        PipelineConfig::with_shards(2)
            .routers(2)
            .batch_size(16)
            .ring_capacity(8),
    );
    let _ = std::thread::current();
    let build = |cycles: std::ops::Range<u64>| -> Vec<Transaction> {
        let recurring = cycle();
        let mut out = Vec::with_capacity(cycles.clone().count() * (recurring.len() + 16));
        for c in cycles {
            out.extend(recurring.iter().cloned());
            out.extend(tail_cycle(c));
        }
        out
    };
    let warmup = build(0..200);
    let measured = build(200..300);
    for t in warmup {
        pipeline.push_transaction(t);
    }
    pipeline.flush_batch();
    std::thread::sleep(Duration::from_millis(100));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for t in measured {
        pipeline.push_transaction(t);
    }
    pipeline.flush_batch();
    std::thread::sleep(Duration::from_millis(100));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "admission-on steady state performed {} heap allocations \
         (expected zero: the sketch probe, rejection, and halving paths \
         must all be allocation-free)",
        after - before
    );

    let analyzer = pipeline.finish();
    assert_eq!(analyzer.stats().transactions, 300 * (64 + 16));
    // The phase really exercised the admission paths: the recurring
    // cycle got in, the tail did not.
    assert!(
        analyzer.stats().pair_rejections >= 300 * 16,
        "tail pairs were admitted — the doorkeeper never gated"
    );
    assert_eq!(analyzer.frequent_pairs(1).len(), 64);
}

/// With epoch publishing enabled and a reader querying the live view,
/// the steady state gains three more hot paths — delta extraction in
/// the shard workers (op-log swap + stamped-prefix walks into recycled
/// buffers), delta folding into the mirror tables, and the merged
/// queries themselves (k-way merge and point lookups against warm
/// scratch) — and none of them may allocate. Warmup rotates the delta
/// buffers through many publish cycles and runs every query shape so
/// all scratch reaches its plateau before the window opens.
fn assert_publish_and_query_steady_state_allocation_free() {
    let mut pipeline = IngestPipeline::new(
        MonitorConfig::default(),
        AnalyzerConfig::with_capacity(4096),
        PipelineConfig::with_shards(2)
            .routers(2)
            .batch_size(16)
            .ring_capacity(8)
            .publish_interval(2),
    );
    let _ = std::thread::current();
    let warmup = stream(200);
    let measured = stream(100);
    let probe = Extent::new(100, 4).unwrap();
    let mut pairs = Vec::new();
    let mut top = Vec::new();
    let run = |pipeline: &mut IngestPipeline,
               transactions: Vec<Transaction>,
               pairs: &mut Vec<(rtdac_types::ExtentPair, u32)>,
               top: &mut Vec<(rtdac_types::ExtentPair, u32)>| {
        for (i, t) in transactions.into_iter().enumerate() {
            pipeline.push_transaction(t);
            // Query against warm buffers at every batch boundary: fold
            // published deltas, then run both merge shapes and a point
            // lookup.
            if i % 16 == 0 {
                pipeline.poll_live().expect("publishing enabled");
                let view = pipeline.live_view_mut().expect("publishing enabled");
                view.frequent_pairs_into(1, pairs);
                view.top_pairs_into(8, top);
                std::hint::black_box(view.item_tally(&probe));
            }
        }
        pipeline.flush_batch();
    };
    run(&mut pipeline, warmup, &mut pairs, &mut top);
    std::thread::sleep(Duration::from_millis(100));
    // Fold the warmup's in-flight deltas too, so the mirrors are at
    // their plateau before the counter snapshot.
    pipeline.poll_live();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run(&mut pipeline, measured, &mut pairs, &mut top);
    std::thread::sleep(Duration::from_millis(100));
    pipeline.poll_live();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "publish-under-query steady state performed {} heap allocations \
         (expected zero: delta extraction, mirror folding, and live \
         queries must all recycle)",
        after - before
    );

    // The window did real work: epochs published, queries saw the
    // whole working set.
    let stats = pipeline.stats();
    assert!(stats.epoch_publishes > 0, "no epochs were published");
    assert_eq!(pairs.len(), 64, "live query missed the working set");
    assert_eq!(top.len(), 8);
    let analyzer = pipeline.finish();
    assert_eq!(analyzer.stats().transactions, (200 + 100) * 64);
}

/// A trace whose on-disk encoding is byte-uniform in every format: a
/// constant time stride (offset high enough that tick/varint widths
/// never grow mid-file), a 64-extent cycle, and a constant latency —
/// so every reader's reusable buffers reach their high-water mark
/// during the warmup half and the measured half cannot trigger a
/// late growth reallocation by construction.
fn fixed_stride_trace(requests: usize) -> Trace {
    let mut trace = Trace::new("alloc");
    for i in 0..requests as u64 {
        trace.push(
            IoRequest::new(
                Timestamp::from_micros(1_000_000 + i),
                3,
                if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                Extent::new(100 + (i % 64) * 10, 4).unwrap(),
            )
            .with_latency(Duration::from_micros(100)),
        );
    }
    trace
}

/// Streams the second half of a decode pass under the allocation
/// counter: the first half is the warmup (fixed chunk buffers filling,
/// the D/C pairing index and pending ring plateauing, the line buffer
/// reaching its high-water mark), the second half must decode without
/// a single heap allocation.
fn assert_second_half_allocation_free<T>(
    what: &str,
    total: usize,
    mut next: impl FnMut() -> Option<T>,
) {
    let half = total / 2;
    for _ in 0..half {
        assert!(next().is_some(), "{what}: stream ended during warmup");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut n = 0usize;
    while let Some(item) = next() {
        std::hint::black_box(&item);
        n += 1;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{what}: steady-state decode performed {} heap allocations \
         over {n} records (expected zero: readers must reuse buffers)",
        after - before
    );
    assert_eq!(n, total - half, "{what}: decode lost records");
}

/// The streaming readers' zero-allocation contract: after warmup,
/// pulling the next record from any on-disk format allocates nothing.
fn assert_streaming_decoders_allocation_free() {
    let trace = fixed_stride_trace(64 * 200);

    // Blktrace binary, with online D/C pairing (the pending window and
    // pairing index plateau at the 100-deep in-flight cycle).
    let mut blk = Vec::new();
    blktrace::write_trace(&trace, &mut blk).expect("in-memory write");
    let mut source = BlktraceEventSource::new(blk.as_slice(), Duration::from_micros(50));
    assert_second_half_allocation_free("blktrace", trace.len(), || {
        source.next_event().expect("well-formed blktrace")
    });

    // Blktrace again, but no extent ever repeats: the pairing index
    // must forget each key once its issue resolves, or it grows (and
    // allocates) with every request ever seen.
    let mut fresh = Trace::new("fresh");
    for (i, request) in trace.iter().enumerate() {
        let extent = Extent::new(100 + i as u64 * 10, 4).unwrap();
        fresh.push(IoRequest { extent, ..*request });
    }
    let mut blk = Vec::new();
    blktrace::write_trace(&fresh, &mut blk).expect("in-memory write");
    let mut source = BlktraceEventSource::new(blk.as_slice(), Duration::from_micros(50));
    assert_second_half_allocation_free("blktrace (fresh extents)", fresh.len(), || {
        source.next_event().expect("well-formed blktrace")
    });

    // Columnar, small blocks so the measured half crosses many block
    // loads (the reusable block buffer and cursors are the hot path).
    let mut writer = ColumnarWriter::with_block_records(Vec::new(), 256);
    for request in &trace {
        writer.push(request).expect("in-memory write");
    }
    let (col, _) = writer.finish().expect("in-memory finish");
    let mut source = ColumnarReader::new(col.as_slice());
    assert_second_half_allocation_free("columnar", trace.len(), || {
        source.next_request().expect("well-formed columnar")
    });

    // MSR CSV, one reused line buffer (constant-width lines by
    // construction, so its capacity is settled after the first line).
    let mut csv = Vec::new();
    trace.write_msr_csv(&mut csv).expect("in-memory write");
    let mut source = MsrCsvReader::new(csv.as_slice());
    assert_second_half_allocation_free("msr_csv", trace.len(), || {
        source.next_request().expect("well-formed csv")
    });
}

/// The open-addressing table's own steady-state contract, exercised
/// directly (no pipeline): a fixed-size table under heavy churn —
/// misses, evictions, promotions, demotions, removals, the tombstone
/// buildup that triggers in-place rehashes, delta extraction into
/// preallocated buffers, and the reusable-buffer frequent-entry query —
/// performs zero heap allocations once every buffer is at its plateau.
/// The in-place rehash is the point: the storage is a single fixed
/// allocation, so even hash-layout maintenance must be free.
fn assert_table_churn_allocation_free() {
    let mut table: TwoTierTable<u64> = TwoTierTable::new(512, 512, 2);
    table.enable_delta_tracking();
    let mut delta = TableDelta::default();
    table.preallocate_delta(&mut delta);
    let mut top = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut drive = |table: &mut TwoTierTable<u64>,
                     delta: &mut TableDelta<u64>,
                     top: &mut Vec<(u64, u32)>,
                     steps: u32| {
        for step in 0..steps {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Keyspace 4× capacity: a steady mix of hits, misses and
            // evictions, with enough tombstone churn to keep forcing
            // in-place rehashes.
            let key = (state >> 33) % 4096;
            match state % 16 {
                14 => {
                    table.demote(&key);
                }
                15 => {
                    table.remove(&key);
                }
                _ => {
                    table.record(key);
                }
            }
            if step % 256 == 0 {
                table.extract_delta(delta);
                table.entries_with_min_tally_into(1, top);
            }
        }
    };
    drive(&mut table, &mut delta, &mut top, 200_000);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive(&mut table, &mut delta, &mut top, 100_000);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "table churn steady state performed {} heap allocations \
         (expected zero: single fixed allocation, in-place rehash, \
         recycled delta and query buffers)",
        after - before
    );
    assert!(!top.is_empty(), "the query window saw no entries");
}

#[test]
fn routed_pipeline_is_allocation_free_after_warmup() {
    // One test, sequential phases: the counter is process-global, so
    // concurrently running test threads would pollute each other's
    // measurement windows.
    assert_steady_state_allocation_free(1); // inline router
    assert_steady_state_allocation_free(2); // parallel routers
    assert_steady_state_allocation_free(4); // full router fan-out
    assert_admission_steady_state_allocation_free(); // doorkeeper-gated hot path
    assert_publish_and_query_steady_state_allocation_free(); // live-view hot path
    assert_allocation_free_after_resize(); // elastic pool, re-primed
    assert_streaming_decoders_allocation_free(); // disk readers' hot path
    assert_table_churn_allocation_free(); // open-addressing table churn
}
