//! The service sweep: the multi-tenant runtime's `tenants x events/s`
//! capacity grid against equivalent bare in-process pipelines, with
//! per-tenant oracle exactness at every cell.

use std::time::Instant;

use rtdac_bench::support::monitored;
use rtdac_bench::sweep::{self, env_or, median, Criterion, Obj};
use rtdac_monitor::{IngestPipeline, TenantRuntime, TenantRuntimeConfig};
use rtdac_synopsis::OnlineAnalyzer;
use rtdac_types::{ExtentPair, Transaction};
use rtdac_workloads::MsrServer;

use crate::{Sweep, BATCH_SIZE};

/// Tenant counts of the service capacity grid ([1, 2] under --smoke).
const SERVICE_TENANTS: [usize; 4] = [1, 2, 4, 8];
/// Per-tenant byte budget for the service sweep's runtime.
const SERVICE_BUDGET: usize = 128 * 1024;
/// Aggregate-throughput retention floor for the service sweep: ingest
/// through [`TenantRuntime`] handles (registry + per-tenant mutex)
/// must keep at least this fraction of the equivalent bare in-process
/// pipelines' aggregate events/s at every tenant count.
const SERVICE_RETENTION_FLOOR: f64 = 0.85;

/// One tenant-count cell of the service capacity grid.
struct ServiceCell {
    tenants: usize,
    /// Aggregate events ingested across all tenants of the cell.
    events: usize,
    /// Bare in-process pipelines, round-robin interleaved.
    baseline_secs: f64,
    /// The identical interleave through [`TenantRuntime`] handles.
    service_secs: f64,
    /// Every tenant's final report matched its own offline oracle.
    exact: bool,
}

/// Total order on frequent-pairs reports (tally desc, pair asc):
/// sharded merges and single-table oracles leave ties in different
/// table orders, so both sides are re-sorted before comparing.
fn canonical_pairs(mut pairs: Vec<(ExtentPair, u32)>) -> Vec<(ExtentPair, u32)> {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

/// The multi-tenant service sweep: at each tenant count N, N distinct
/// MSR-like transaction streams are interleaved round-robin (one batch
/// per tenant per turn, the shape a daemon's connection threads
/// produce) into (a) N bare [`IngestPipeline`]s and (b) N tenants of
/// one [`TenantRuntime`], both sized identically from the runtime's
/// per-tenant budget. The timed window covers pushes through drain
/// (finish/shutdown), so queued work cannot hide. Correctness: every
/// tenant's final report must equal an [`OnlineAnalyzer`] oracle fed
/// its own stream — cross-tenant contamination would break it.
/// `RTDAC_SERVICE_REQUESTS` overrides the per-tenant stream length.
pub(crate) fn run(smoke: bool, seed: u64, repeat: usize) -> Sweep {
    let requests = env_or("RTDAC_SERVICE_REQUESTS", if smoke { 2_000 } else { 20_000 }) as usize;
    let tenant_counts: &[usize] = if smoke {
        &SERVICE_TENANTS[..2]
    } else {
        &SERVICE_TENANTS
    };
    let runtime_config = TenantRuntimeConfig {
        tenant_budget_bytes: SERVICE_BUDGET,
        ..TenantRuntimeConfig::default()
    };
    // The sizing every contender (and the oracles) shares — derived
    // once; `TenantRuntime::new` is deterministic.
    let analyzer_config = TenantRuntime::new(runtime_config.clone())
        .analyzer_config()
        .clone();

    // One distinct stream per tenant slot (server model and seed both
    // vary), shared across cells and repetitions.
    let servers = [
        MsrServer::Wdev,
        MsrServer::Stg,
        MsrServer::Rsrch,
        MsrServer::Src2,
    ];
    let max_tenants = *tenant_counts.last().expect("tenant grid");
    let mut streams: Vec<Vec<Transaction>> = Vec::with_capacity(max_tenants);
    let mut stream_events: Vec<usize> = Vec::with_capacity(max_tenants);
    for t in 0..max_tenants {
        let server = servers[t % servers.len()];
        let trace = server.synthesize(requests, seed + t as u64);
        stream_events.push(trace.requests().len());
        streams.push(monitored(
            &trace,
            server.paper_reference().replay_speedup,
            seed + t as u64,
        ));
    }
    let oracles: Vec<Vec<(ExtentPair, u32)>> = streams
        .iter()
        .map(|stream| {
            let mut oracle = OnlineAnalyzer::new(analyzer_config.clone());
            for txn in stream {
                oracle.process(txn);
            }
            canonical_pairs(oracle.frequent_pairs(1))
        })
        .collect();

    // Round-robin interleave: one batch per tenant per turn until all
    // streams drain, `push` receiving a per-tenant pipeline handle.
    let interleave = |count: usize, push: &mut dyn FnMut(usize, &[Transaction])| {
        let mut offset = 0;
        loop {
            let mut any = false;
            for (t, stream) in streams[..count].iter().enumerate() {
                if offset >= stream.len() {
                    continue;
                }
                any = true;
                let end = (offset + BATCH_SIZE).min(stream.len());
                push(t, &stream[offset..end]);
            }
            if !any {
                break;
            }
            offset += BATCH_SIZE;
        }
    };

    let mut rows = Vec::new();
    for &count in tenant_counts {
        let events: usize = stream_events[..count].iter().sum();
        let mut baseline_samples = Vec::with_capacity(repeat.max(1));
        let mut service_samples = Vec::with_capacity(repeat.max(1));
        let mut exact = true;
        for _rep in 0..repeat.max(1) {
            // (a) Bare pipelines — construction outside the window in
            // both contenders (spawning workers is setup, not ingest).
            let mut pipelines: Vec<IngestPipeline> = (0..count)
                .map(|_| {
                    IngestPipeline::new(
                        runtime_config.monitor.clone(),
                        analyzer_config.clone(),
                        runtime_config.pipeline.clone(),
                    )
                })
                .collect();
            let start = Instant::now();
            interleave(count, &mut |t, chunk| {
                let pipeline = &mut pipelines[t];
                for txn in chunk {
                    pipeline.push_transaction(txn.clone());
                }
            });
            for mut pipeline in pipelines {
                pipeline.flush_batch();
                std::hint::black_box(pipeline.finish().stats());
            }
            baseline_samples.push(start.elapsed().as_secs_f64());

            // (b) The tenant runtime, same interleave through handles;
            // the lock is held per batch, as a connection thread holds
            // it per ingest frame.
            let runtime = TenantRuntime::new(runtime_config.clone());
            let tenants: Vec<_> = (0..count)
                .map(|t| runtime.open(&format!("tenant{t}")).expect("under the cap"))
                .collect();
            let start = Instant::now();
            interleave(count, &mut |t, chunk| {
                let mut tenant = tenants[t].lock().expect("tenant");
                let pipeline = tenant.pipeline().expect("not evicted");
                for txn in chunk {
                    pipeline.push_transaction(txn.clone());
                }
            });
            let finished = runtime.shutdown();
            service_samples.push(start.elapsed().as_secs_f64());

            assert_eq!(finished.len(), count, "service sweep lost tenants");
            for (id, shards) in finished {
                let t: usize = id
                    .strip_prefix("tenant")
                    .and_then(|n| n.parse().ok())
                    .expect("tenant id");
                exact &= canonical_pairs(shards.frequent_pairs(1)) == oracles[t];
            }
        }
        rows.push(ServiceCell {
            tenants: count,
            events,
            baseline_secs: median(&baseline_samples),
            service_secs: median(&service_samples),
            exact,
        });
    }

    let rate = |secs: f64, events: usize| events as f64 / secs;
    let retention = |r: &ServiceCell| r.baseline_secs / r.service_secs;
    println!(
        "\n  [service] tenant-runtime capacity grid: {requests} requests/tenant, {} KB/tenant \
         budget, round-robin batch interleave, drain included in the timed window",
        SERVICE_BUDGET / 1024,
    );
    println!(
        "  {:>7} {:>9} {:>16} {:>16} {:>10} {:>6}",
        "tenants", "events", "baseline ev/s", "service ev/s", "retention", "exact"
    );
    for r in &rows {
        println!(
            "  {:>7} {:>9} {:>16.0} {:>16.0} {:>10.3} {:>6}",
            r.tenants,
            r.events,
            rate(r.baseline_secs, r.events),
            rate(r.service_secs, r.events),
            retention(r),
            r.exact,
        );
    }

    let oracle_exact = rows.iter().all(|r| r.exact);
    let min_retention = rows.iter().map(retention).fold(f64::INFINITY, f64::min);
    let criteria = vec![
        Criterion::holds(
            "service every tenant of every grid cell equals its own offline oracle",
            oracle_exact,
        ),
        Criterion::at_least(
            "service min aggregate events/s retention vs bare pipelines",
            min_retention,
            SERVICE_RETENTION_FLOOR,
        )
        .full_only(smoke),
    ];

    let json = Obj::new()
        .field(
            "notes",
            "the tenants x events/s capacity grid of the multi-tenant TenantRuntime: at \
             each tenant count N, N distinct MSR-like transaction streams are interleaved \
             round-robin (one batch per tenant per turn) into N bare IngestPipelines \
             (baseline) and into N tenants of one runtime (service), both sized \
             identically from the per-tenant budget; the timed window covers pushes \
             through drain; retention is service/baseline aggregate events/s; every \
             tenant's final report must equal an OnlineAnalyzer oracle fed its own stream \
             (gates in smoke too), retention only in full mode",
        )
        .field("requests_per_tenant", requests)
        .field("tenant_budget_bytes", SERVICE_BUDGET)
        .num("retention_floor", SERVICE_RETENTION_FLOOR, 2)
        .field(
            "cells",
            rows.iter()
                .map(|r| {
                    Obj::new()
                        .field("tenants", r.tenants)
                        .field("events", r.events)
                        .num("baseline_secs", r.baseline_secs, 6)
                        .num("service_secs", r.service_secs, 6)
                        .num(
                            "baseline_events_per_sec",
                            rate(r.baseline_secs, r.events),
                            0,
                        )
                        .num("service_events_per_sec", rate(r.service_secs, r.events), 0)
                        .num("retention", retention(r), 4)
                        .field("oracle_exact", r.exact)
                })
                .collect::<Vec<_>>(),
        )
        .num("min_retention", min_retention, 4)
        .field("oracle_exact", oracle_exact)
        .field("met", sweep::met(&criteria));
    (json, criteria)
}
