//! The `TpchSystem` façade: a TPC-H database, a storage configuration and a
//! query executor wired together.

use crate::config::SystemConfig;
use hstorage_cache::{CacheStats, StorageSystem};
use hstorage_engine::{
    run_concurrent, run_streams_service, CompletedQuery, ConcurrencyRegistry, QueryExecutor,
    QueryStats, ServiceConfig, ServiceReport, StreamSpec,
};
use hstorage_tpch::{build_plan, QueryId, TpchDatabase};
use std::sync::Arc;
use std::time::Duration;

/// A complete system instance: database + storage + executor.
///
/// The storage system is held behind an `Arc` so it can be shared with the
/// worker threads of [`TpchSystem::run_streams_service`]; every storage method
/// takes `&self`, so the façade never needs an exclusive borrow of it.
pub struct TpchSystem {
    config: SystemConfig,
    db: TpchDatabase,
    storage: Arc<dyn StorageSystem>,
    executor: QueryExecutor,
}

impl TpchSystem {
    /// Builds the system described by `config`.
    pub fn new(config: SystemConfig) -> Self {
        let db = TpchDatabase::build(config.scale);
        let storage = config.storage_config().build_shared();
        let executor = QueryExecutor::with_registry(
            config.executor,
            config.policy,
            ConcurrencyRegistry::new(),
        );
        TpchSystem {
            config,
            db,
            storage,
            executor,
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The TPC-H database (catalog + scale).
    pub fn database(&self) -> &TpchDatabase {
        &self.db
    }

    /// The storage configuration's display name ("HDD-only", "LRU", …).
    pub fn storage_name(&self) -> String {
        self.storage.name().to_string()
    }

    /// Runs one query to completion and returns its statistics.
    pub fn run(&mut self, query: QueryId) -> QueryStats {
        let plan = build_plan(query, &self.db);
        self.executor
            .run_query(&plan, &mut self.db.catalog, self.storage.as_ref())
    }

    /// Runs a sequence of queries back to back (cache contents carry over,
    /// as in the paper's power test).
    pub fn run_sequence(&mut self, queries: &[QueryId]) -> Vec<QueryStats> {
        queries.iter().map(|q| self.run(*q)).collect()
    }

    /// Runs several query streams concurrently with the deterministic
    /// cooperative slicer (the throughput test). `ops_per_slice` controls
    /// the interleaving granularity.
    pub fn run_streams(
        &mut self,
        streams: &[(String, Vec<QueryId>)],
        ops_per_slice: usize,
    ) -> Vec<CompletedQuery> {
        let specs = self.stream_specs(streams);
        run_concurrent(
            &mut self.executor,
            &specs,
            &mut self.db.catalog,
            self.storage.as_ref(),
            ops_per_slice,
        )
    }

    /// Runs query streams through the bounded-worker query service (the
    /// multi-threaded counterpart of [`TpchSystem::run_streams`]): a fixed pool of
    /// [`ServiceConfig::workers`] OS threads consumes the streams' queries
    /// from a bounded submission queue in a closed loop, no matter how
    /// many logical streams there are. Returns the completed queries
    /// (grouped by stream, in stream order) plus a per-request
    /// simulated-latency histogram. With `service.workers == 1` the run is
    /// fully deterministic. See [`run_streams_service`].
    pub fn run_streams_service(
        &mut self,
        streams: &[(String, Vec<QueryId>)],
        service: ServiceConfig,
    ) -> ServiceReport {
        let specs = self.stream_specs(streams);
        run_streams_service(
            self.config.executor,
            service,
            self.config.policy,
            self.executor.registry(),
            &specs,
            &self.db.catalog,
            &self.storage,
        )
    }

    fn stream_specs(&self, streams: &[(String, Vec<QueryId>)]) -> Vec<StreamSpec> {
        streams
            .iter()
            .map(|(name, queries)| StreamSpec {
                name: name.clone(),
                queries: queries.iter().map(|q| build_plan(*q, &self.db)).collect(),
            })
            .collect()
    }

    /// Snapshot of the storage system's statistics.
    pub fn storage_stats(&self) -> CacheStats {
        self.storage.stats()
    }

    /// Clears the storage statistics counters (cache contents are kept).
    pub fn reset_storage_stats(&mut self) {
        self.storage.reset_stats();
    }

    /// Clears the DBMS buffer pool.
    pub fn clear_buffer_pool(&mut self) {
        self.executor.clear_buffer_pool();
    }

    /// The storage system's simulated clock.
    pub fn storage_time(&self) -> Duration {
        self.storage.now()
    }

    /// Number of blocks currently resident in the SSD cache.
    pub fn cached_blocks(&self) -> u64 {
        self.storage.resident_blocks()
    }

    /// Offers the storage system one background tier-migration window
    /// (a no-op unless [`SystemConfig::migration`] enables migration) and
    /// returns its cumulative migration counters. The executor already
    /// pulses at every query boundary; this is for drivers that want
    /// extra windows between queries.
    pub fn migrate_idle(&self) -> hstorage_cache::MigrationStats {
        self.storage.migrate_idle()
    }

    /// The storage system's cumulative tier-migration counters.
    pub fn migration_stats(&self) -> hstorage_cache::MigrationStats {
        self.storage.migration_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstorage_cache::StorageConfigKind;
    use hstorage_storage::RequestClass;
    use hstorage_tpch::TpchScale;

    fn tiny(kind: StorageConfigKind) -> TpchSystem {
        TpchSystem::new(SystemConfig::single_query(TpchScale::new(0.01), kind))
    }

    #[test]
    fn q1_runs_on_every_configuration() {
        for kind in StorageConfigKind::all() {
            let mut sys = tiny(kind);
            let stats = sys.run(QueryId::Q(1));
            assert!(stats.elapsed > Duration::ZERO, "{kind}");
            assert!(stats.blocks(RequestClass::Sequential) > 0);
            assert_eq!(sys.storage_name(), kind.label());
        }
    }

    #[test]
    fn sequence_accumulates_cache_state() {
        let mut sys = tiny(StorageConfigKind::HStorageDb);
        let results = sys.run_sequence(&[QueryId::Q(9), QueryId::Q(9)]);
        assert_eq!(results.len(), 2);
        // The second run reuses the SSD cache populated by the first.
        assert!(results[1].io_time < results[0].io_time);
        assert!(sys.cached_blocks() > 0);
    }

    #[test]
    fn streams_complete_all_queries() {
        let mut sys = tiny(StorageConfigKind::HStorageDb);
        let completed = sys.run_streams(
            &[
                ("s1".to_string(), vec![QueryId::Q(1), QueryId::Q(6)]),
                ("s2".to_string(), vec![QueryId::Q(19)]),
            ],
            32,
        );
        assert_eq!(completed.len(), 3);
    }

    #[test]
    fn threaded_streams_complete_all_queries() {
        // The default service: one worker per unit of hardware parallelism.
        let mut sys = tiny(StorageConfigKind::HStorageDb);
        let report = sys.run_streams_service(
            &[
                ("s1".to_string(), vec![QueryId::Q(1), QueryId::Q(6)]),
                ("s2".to_string(), vec![QueryId::Q(19)]),
                ("s3".to_string(), vec![QueryId::Q(6)]),
            ],
            ServiceConfig::default(),
        );
        assert_eq!(report.completed.len(), 4);
        assert_eq!(sys.executor.registry().active_queries(), 0);
        assert!(report
            .completed
            .iter()
            .all(|q| q.stats.elapsed > Duration::ZERO));
    }

    #[test]
    fn service_streams_complete_all_queries_with_latency_samples() {
        let mut sys = tiny(StorageConfigKind::HStorageDb);
        let report = sys.run_streams_service(
            &[
                ("s1".to_string(), vec![QueryId::Q(1), QueryId::Q(6)]),
                ("s2".to_string(), vec![QueryId::Q(19)]),
                ("s3".to_string(), vec![QueryId::Q(6)]),
            ],
            ServiceConfig {
                workers: 2,
                queue_depth: 4,
            },
        );
        assert_eq!(report.completed.len(), 4);
        assert_eq!(report.latency.len(), 4);
        assert_eq!(sys.executor.registry().active_queries(), 0);
        assert!(report.latency.p99().expect("non-empty") > Duration::ZERO);
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut sys = tiny(StorageConfigKind::HStorageDb);
        sys.run(QueryId::Q(9));
        let cached = sys.cached_blocks();
        assert!(cached > 0);
        sys.reset_storage_stats();
        assert_eq!(sys.storage_stats().totals().accessed_blocks, 0);
        assert_eq!(sys.cached_blocks(), cached);
    }
}
