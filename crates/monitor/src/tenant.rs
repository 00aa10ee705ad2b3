//! Multi-tenant pipeline runtime: a registry of independent
//! [`IngestPipeline`]s keyed by tenant id, with admission control and
//! an idle-tenant lifecycle.
//!
//! The paper's monitor watches one device; a production monitor host
//! serves many (one pipeline per device/VM/volume). The
//! [`TenantRuntime`] owns that fleet: it sizes every tenant's analyzer
//! from one byte budget (via [`analyzer_config_for`], the same sizing
//! the benchmarks use), refuses admission past a tenant cap, parks
//! pipelines that go idle (worker threads joined, tables drained into
//! the resize protocol's partition-invariant snapshot — the live view
//! keeps answering queries while parked) and transparently resumes
//! them on the next push.
//!
//! Locking is two-level and coarse only at the registry: the registry
//! map is held just long enough to clone a tenant's `Arc`, and each
//! tenant has its own mutex, so one tenant's ingest never contends
//! with another's queries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtdac_synopsis::{analyzer_config_for, AnalyzerConfig, ShardedAnalyzer};

use crate::monitor::MonitorConfig;
use crate::pipeline::{IngestPipeline, PipelineConfig};

/// Sizing and lifecycle policy shared by every tenant of a runtime.
#[derive(Clone, Debug)]
pub struct TenantRuntimeConfig {
    /// Admission cap: `open` refuses new tenants past this count.
    pub max_tenants: usize,
    /// Per-tenant memory budget in bytes; each tenant's
    /// [`AnalyzerConfig`] is derived from it with
    /// [`analyzer_config_for`].
    pub tenant_budget_bytes: usize,
    /// Slice of the budget spent on a doorkeeper admission sketch
    /// (0 = admission off).
    pub doorkeeper_bytes: usize,
    /// Monitor (windowing) configuration applied to every tenant.
    pub monitor: MonitorConfig,
    /// Pipeline topology template applied to every tenant. Live
    /// queries need a non-zero `publish_interval_batches`.
    pub pipeline: PipelineConfig,
    /// Tenants idle at least this long are parked by
    /// [`TenantRuntime::park_idle`].
    pub idle_park_after: Duration,
}

impl Default for TenantRuntimeConfig {
    fn default() -> Self {
        TenantRuntimeConfig {
            max_tenants: 64,
            tenant_budget_bytes: 512 * 1024,
            doorkeeper_bytes: 0,
            monitor: MonitorConfig::default(),
            pipeline: PipelineConfig::with_shards(1).publish_interval(4),
            idle_park_after: Duration::from_secs(30),
        }
    }
}

/// Why a tenant could not be admitted or used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantError {
    /// The runtime is at its tenant cap.
    Limit {
        /// The configured cap.
        max: usize,
    },
    /// The tenant was evicted while a handle to it was still held.
    Evicted,
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Limit { max } => write!(f, "tenant limit reached ({max})"),
            TenantError::Evicted => write!(f, "tenant was evicted"),
        }
    }
}

impl std::error::Error for TenantError {}

/// One tenant: an [`IngestPipeline`] plus lifecycle bookkeeping.
///
/// The pipeline is reached through [`pipeline`](Tenant::pipeline),
/// which also stamps the tenant's activity clock; queries that should
/// not defer parking can use [`peek`](Tenant::peek).
pub struct Tenant {
    id: String,
    pipeline: Option<IngestPipeline>,
    last_active: Instant,
}

impl Tenant {
    fn new(id: &str, pipeline: IngestPipeline) -> Self {
        Tenant {
            id: id.to_string(),
            pipeline: Some(pipeline),
            last_active: Instant::now(),
        }
    }

    /// The tenant id this entry was registered under.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Mutable pipeline access; marks the tenant active (resetting the
    /// idle-park clock). `Err(Evicted)` after eviction.
    pub fn pipeline(&mut self) -> Result<&mut IngestPipeline, TenantError> {
        self.last_active = Instant::now();
        self.pipeline.as_mut().ok_or(TenantError::Evicted)
    }

    /// Read-only pipeline access that does **not** reset the idle
    /// clock (monitoring/introspection path).
    pub fn peek(&self) -> Result<&IngestPipeline, TenantError> {
        self.pipeline.as_ref().ok_or(TenantError::Evicted)
    }

    /// Like [`peek`](Tenant::peek) but mutable — live-view polling
    /// needs `&mut` — still without resetting the idle clock.
    pub fn peek_mut(&mut self) -> Result<&mut IngestPipeline, TenantError> {
        self.pipeline.as_mut().ok_or(TenantError::Evicted)
    }

    /// How long the tenant has been idle as of `now`.
    pub fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_active)
    }

    fn finish(&mut self) -> Option<ShardedAnalyzer> {
        self.pipeline.take().map(IngestPipeline::finish)
    }
}

/// The tenant registry: admission, lookup, idle lifecycle, shutdown.
pub struct TenantRuntime {
    config: TenantRuntimeConfig,
    analyzer_config: AnalyzerConfig,
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
}

impl TenantRuntime {
    /// Builds a runtime; every tenant admitted later gets an analyzer
    /// sized once here from the per-tenant byte budget.
    pub fn new(config: TenantRuntimeConfig) -> Self {
        let analyzer_config = analyzer_config_for(
            config.tenant_budget_bytes,
            config.doorkeeper_bytes,
            // With publishing enabled the live view mirrors the tables
            // on the reader side; reserve a matching slice so the
            // *total* per-tenant footprint stays within budget.
            if config.pipeline.publish_interval_batches > 0 {
                config.tenant_budget_bytes / 4
            } else {
                0
            },
        );
        TenantRuntime {
            config,
            analyzer_config,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The per-tenant analyzer sizing this runtime admits with —
    /// exactly what an offline oracle must use to reproduce a tenant's
    /// tables.
    pub fn analyzer_config(&self) -> &AnalyzerConfig {
        &self.analyzer_config
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &TenantRuntimeConfig {
        &self.config
    }

    /// Returns the tenant registered under `id`, admitting (and
    /// spawning a pipeline for) it first if absent. Admission fails
    /// only at the tenant cap.
    pub fn open(&self, id: &str) -> Result<Arc<Mutex<Tenant>>, TenantError> {
        let mut tenants = self.tenants.lock().expect("tenant registry poisoned");
        if let Some(tenant) = tenants.get(id) {
            return Ok(Arc::clone(tenant));
        }
        if tenants.len() >= self.config.max_tenants {
            return Err(TenantError::Limit {
                max: self.config.max_tenants,
            });
        }
        let pipeline = IngestPipeline::new(
            self.config.monitor.clone(),
            self.analyzer_config.clone(),
            self.config.pipeline.clone(),
        );
        let tenant = Arc::new(Mutex::new(Tenant::new(id, pipeline)));
        tenants.insert(id.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Looks up a tenant without admitting.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.tenants
            .lock()
            .expect("tenant registry poisoned")
            .get(id)
            .map(Arc::clone)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.lock().expect("tenant registry poisoned").len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Evicts `id`: removes it from the registry, joins its worker
    /// threads and returns the final analyzer (`None` if the id was
    /// unknown). A connection still holding the tenant's `Arc` sees
    /// [`TenantError::Evicted`] on its next access.
    pub fn evict(&self, id: &str) -> Option<ShardedAnalyzer> {
        let tenant = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .remove(id)?;
        let mut tenant = tenant.lock().expect("tenant poisoned");
        tenant.finish()
    }

    /// Parks every running tenant idle for at least the configured
    /// threshold: worker threads join, tables drain to a snapshot, and
    /// the live view keeps answering queries at the park boundary.
    /// Tenants whose mutex is currently held are busy by definition
    /// and skipped. Returns how many tenants were parked.
    pub fn park_idle(&self) -> usize {
        let now = Instant::now();
        let tenants: Vec<Arc<Mutex<Tenant>>> = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .values()
            .map(Arc::clone)
            .collect();
        let mut parked = 0;
        for tenant in tenants {
            let Ok(mut tenant) = tenant.try_lock() else {
                continue;
            };
            if tenant.idle_for(now) < self.config.idle_park_after {
                continue;
            }
            let Ok(pipeline) = tenant.peek_mut() else {
                continue;
            };
            if !pipeline.is_parked() {
                pipeline.park();
                parked += 1;
            }
        }
        parked
    }

    /// Drives the publish cadence of every running (non-parked)
    /// tenant with an empty batch, so paused streams still reach their
    /// next epoch boundary and live views stay fresh. Does not reset
    /// idle clocks. Busy tenants are skipped.
    pub fn heartbeat_all(&self) {
        let tenants: Vec<Arc<Mutex<Tenant>>> = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .values()
            .map(Arc::clone)
            .collect();
        for tenant in tenants {
            let Ok(mut tenant) = tenant.try_lock() else {
                continue;
            };
            let Ok(pipeline) = tenant.peek_mut() else {
                continue;
            };
            if !pipeline.is_parked() {
                pipeline.heartbeat();
            }
        }
    }

    /// Finishes every tenant, returning `(id, final analyzer)` pairs
    /// sorted by id. The runtime is left empty.
    pub fn shutdown(&self) -> Vec<(String, ShardedAnalyzer)> {
        let tenants: Vec<(String, Arc<Mutex<Tenant>>)> = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .drain()
            .collect();
        let mut finished: Vec<(String, ShardedAnalyzer)> = tenants
            .into_iter()
            .filter_map(|(id, tenant)| {
                let mut tenant = tenant.lock().expect("tenant poisoned");
                tenant.finish().map(|shards| (id, shards))
            })
            .collect();
        finished.sort_by(|a, b| a.0.cmp(&b.0));
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdac_synopsis::OnlineAnalyzer;
    use rtdac_types::{Extent, Timestamp, Transaction};

    fn config() -> TenantRuntimeConfig {
        TenantRuntimeConfig {
            max_tenants: 2,
            tenant_budget_bytes: 64 * 1024,
            idle_park_after: Duration::ZERO,
            pipeline: PipelineConfig::with_shards(1)
                .batch_size(4)
                .publish_interval(2),
            ..TenantRuntimeConfig::default()
        }
    }

    /// Frequent-pairs reports leave ties in table order, which differs
    /// between a sharded merge and a single oracle; a total order
    /// (tally desc, pair asc) makes them comparable.
    fn canonical(
        mut pairs: Vec<(rtdac_types::ExtentPair, u32)>,
    ) -> Vec<(rtdac_types::ExtentPair, u32)> {
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs
    }

    fn txn(i: u64, salt: u64) -> Transaction {
        Transaction::from_extents(
            Timestamp::from_millis(i),
            [
                Extent::new(i % 7 + salt * 1000, 8).unwrap(),
                Extent::new(500 + i % 7 + salt * 1000, 8).unwrap(),
            ],
        )
    }

    #[test]
    fn admission_cap_is_enforced_and_open_is_get_or_create() {
        let runtime = TenantRuntime::new(config());
        let a = runtime.open("a").unwrap();
        let _b = runtime.open("b").unwrap();
        assert!(matches!(
            runtime.open("c"),
            Err(TenantError::Limit { max: 2 })
        ));
        // Re-opening an admitted tenant is a lookup, not an admission.
        let a2 = runtime.open("a").unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(runtime.tenant_ids(), ["a", "b"]);
    }

    #[test]
    fn tenants_are_isolated_and_match_their_oracles() {
        let runtime = TenantRuntime::new(config());
        for salt in 0..2u64 {
            let id = salt.to_string();
            let tenant = runtime.open(&id).unwrap();
            let mut tenant = tenant.lock().unwrap();
            let pipeline = tenant.pipeline().unwrap();
            for i in 0..40 {
                pipeline.push_transaction(txn(i, salt));
            }
        }
        for (id, shards) in runtime.shutdown() {
            let salt: u64 = id.parse().unwrap();
            let mut oracle = OnlineAnalyzer::new(runtime.analyzer_config().clone());
            for i in 0..40 {
                oracle.process(&txn(i, salt));
            }
            assert_eq!(
                canonical(shards.frequent_pairs(1)),
                canonical(oracle.frequent_pairs(1))
            );
        }
        assert!(runtime.is_empty());
    }

    #[test]
    fn idle_tenants_park_and_resume_transparently() {
        let runtime = TenantRuntime::new(config());
        let tenant = runtime.open("t").unwrap();
        {
            let mut tenant = tenant.lock().unwrap();
            let pipeline = tenant.pipeline().unwrap();
            for i in 0..20 {
                pipeline.push_transaction(txn(i, 0));
            }
        }
        // Zero idle threshold: the sweep parks it immediately.
        assert_eq!(runtime.park_idle(), 1);
        assert!(tenant.lock().unwrap().peek().unwrap().is_parked());
        // Parked tenants still answer live queries.
        {
            let mut tenant = tenant.lock().unwrap();
            let view = tenant.peek_mut().unwrap().live_view_mut().unwrap();
            assert!(!view.frequent_pairs(1).is_empty());
        }
        // The next push resumes it; results stay oracle-exact.
        {
            let mut tenant = tenant.lock().unwrap();
            let pipeline = tenant.pipeline().unwrap();
            for i in 20..40 {
                pipeline.push_transaction(txn(i, 0));
            }
            assert!(!pipeline.is_parked());
        }
        let mut oracle = OnlineAnalyzer::new(runtime.analyzer_config().clone());
        for i in 0..40 {
            oracle.process(&txn(i, 0));
        }
        let (_, shards) = runtime.shutdown().pop().unwrap();
        assert_eq!(
            canonical(shards.frequent_pairs(1)),
            canonical(oracle.frequent_pairs(1))
        );
    }

    #[test]
    fn multi_shard_tenants_park_and_keep_live_queries_exact() {
        let runtime = TenantRuntime::new(TenantRuntimeConfig {
            pipeline: PipelineConfig::with_shards(2).publish_interval(2),
            ..config()
        });
        let mut oracle = OnlineAnalyzer::new(runtime.analyzer_config().clone());
        let oracle_top = |oracle: &OnlineAnalyzer| {
            let mut pairs = canonical(oracle.frequent_pairs(1));
            pairs.truncate(5);
            pairs
        };
        let live_top = |pipeline: &mut IngestPipeline| {
            let mut pairs = Vec::new();
            pipeline
                .live_view_mut()
                .expect("publishing enabled")
                .top_pairs_into(5, &mut pairs);
            pairs
        };
        let tenant = runtime.open("t").unwrap();
        {
            let mut tenant = tenant.lock().unwrap();
            let pipeline = tenant.pipeline().unwrap();
            for i in 0..30 {
                pipeline.push_transaction(txn(i, 0));
                oracle.process(&txn(i, 0));
            }
        }
        assert_eq!(runtime.park_idle(), 1);
        {
            // Parking folds every pending delta: the parked view is
            // exact at the park boundary.
            let mut tenant = tenant.lock().unwrap();
            let pipeline = tenant.peek_mut().unwrap();
            assert!(pipeline.is_parked());
            assert_eq!(live_top(pipeline), oracle_top(&oracle));
        }
        let mut tenant = tenant.lock().unwrap();
        let pipeline = tenant.pipeline().unwrap();
        for i in 30..70 {
            pipeline.push_transaction(txn(i, 0));
            oracle.process(&txn(i, 0));
        }
        // With the default 64-transaction batches nothing has shipped
        // yet; the flush dispatches the open batch, resuming the pool.
        pipeline.flush_batch();
        assert!(!pipeline.is_parked());
        // Heartbeats give idle shard workers publish opportunities
        // until the view covers everything pushed.
        let frontier = pipeline.frontier_epoch();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pipeline.poll_live().expect("publishing enabled") < frontier {
            assert!(Instant::now() < deadline, "live view never caught up");
            pipeline.heartbeat();
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(live_top(pipeline), oracle_top(&oracle));
    }

    #[test]
    fn evicted_tenant_handles_report_eviction() {
        let runtime = TenantRuntime::new(config());
        let tenant = runtime.open("t").unwrap();
        {
            let mut guard = tenant.lock().unwrap();
            let pipeline = guard.pipeline().unwrap();
            for i in 0..10 {
                pipeline.push_transaction(txn(i, 0));
            }
        }
        let shards = runtime.evict("t").expect("tenant registered");
        assert!(!shards.frequent_pairs(1).is_empty());
        assert!(runtime.is_empty());
        assert!(runtime.evict("t").is_none());
        // The stale handle sees the eviction instead of panicking.
        let mut guard = tenant.lock().unwrap();
        assert!(matches!(guard.pipeline(), Err(TenantError::Evicted)));
    }

    #[test]
    fn heartbeats_reach_running_tenants_only() {
        let runtime = TenantRuntime::new(config());
        let running = runtime.open("running").unwrap();
        let parked = runtime.open("parked").unwrap();
        parked.lock().unwrap().peek_mut().unwrap().park();
        let before = running.lock().unwrap().peek().unwrap().stats().batches;
        runtime.heartbeat_all();
        assert!(running.lock().unwrap().peek().unwrap().stats().batches > before);
        assert!(parked.lock().unwrap().peek().unwrap().is_parked());
    }
}
