//! Per-tenant memory gate: one `rtdacd` tenant at the daemon's default
//! sizing, ingesting a long low-reuse stream, must keep its peak live
//! heap within a fixed bound.
//!
//! The synopsis is a small fixed-size structure (its tables come from
//! the 512 KiB tenant budget), so a tenant's footprint should be set by
//! that budget and by the work in flight — not by how many requests the
//! tenant has ever seen. A `#[global_allocator]` wrapper tracks live
//! bytes and their high-water mark across every thread (the shard
//! worker's allocations count too). The input is built first and the
//! mark is reset after it, so the bound covers what admitting the
//! tenant, decoding the stream, pairing completions, forming
//! transactions, applying them and folding the live view cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rtdac_monitor::{
    blktrace, BlktraceEventSource, ServiceConfig, TenantRuntime, TenantRuntimeConfig,
};
use rtdac_types::EventSource;
use rtdac_workloads::MsrServer;

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Peak live heap one default tenant may reach on the stream below.
const PEAK_BOUND_BYTES: usize = 6 * 1024 * 1024;

/// Requests in the stream, as many as one tenant of the end-to-end
/// benchmark's `stg-replay-2t` workload replays per round.
const REQUESTS: usize = 100_000;

#[test]
fn default_tenant_peak_heap_stays_bounded() {
    let trace = MsrServer::Stg.synthesize(REQUESTS, 21);
    let mut blk = Vec::new();
    blktrace::write_trace(&trace, &mut blk).expect("in-memory write");
    drop(trace);

    let runtime = TenantRuntime::new(TenantRuntimeConfig::default());
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);

    let tenant = runtime.open("stg").expect("admitted");
    let mut tenant = tenant.lock().expect("not poisoned");
    let pipeline = tenant.pipeline().expect("not evicted");
    let mut source =
        BlktraceEventSource::new(blk.as_slice(), ServiceConfig::default().default_latency);
    let mut events = 0usize;
    while let Some(event) = source.next_event().expect("well-formed stream") {
        pipeline.push(event);
        events += 1;
        // Fold published deltas as a querying client would, so the
        // live view's mirrors grow to their working size.
        if events.is_multiple_of(4096) {
            pipeline.poll_live();
        }
    }
    pipeline.flush_window();
    let target = pipeline.frontier_epoch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pipeline.poll_live().is_none_or(|epoch| epoch < target) {
        assert!(Instant::now() < deadline, "live view never caught up");
        pipeline.heartbeat();
        std::thread::sleep(Duration::from_millis(1));
    }
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(events, REQUESTS, "decode lost events");
    println!(
        "default tenant, {REQUESTS} stg requests: peak live heap {:.2} MiB (bound {:.0} MiB)",
        peak as f64 / (1024.0 * 1024.0),
        PEAK_BOUND_BYTES as f64 / (1024.0 * 1024.0)
    );
    assert!(
        peak <= PEAK_BOUND_BYTES,
        "one default tenant peaked at {peak} live heap bytes on {REQUESTS} stg requests \
         (bound {PEAK_BOUND_BYTES}): some ingest buffer grows with the stream, not with \
         the work in flight"
    );
}
