//! Differential test of the executor's probe groups at the scale of a
//! TPC-H power run: the power-test sequence runs over two copies of the
//! SF-`HSTORAGE_PROGRAM_SF` database (default 0.05; CI's release step runs
//! 1.0) on 1, 3 and 8 shards. One side runs each query through
//! `run_query`, which serves runs of index probes in groups and sends
//! their misses to storage through `submit_each`. The reference drives
//! each compiled program op by op through the public `execute_op` and
//! `flush_pending`, with the same registry calls. A recording wrapper
//! logs what reaches each engine, a `submit_each` as one entry per
//! request. The ordered request logs, every query's statistics, and the
//! engines' statistics and simulated time must agree after every query.

use hstorage::SystemConfig;
use hstorage_cache::{
    CacheEngine, CacheStats, JournalOp, MigrationStats, StorageConfigKind, StorageSystem,
};
use hstorage_engine::{QueryExecutor, QueryStats, PROBE_GROUP};
use hstorage_storage::{ClassifiedRequest, TrimCommand};
use hstorage_tpch::power::power_test_sequence;
use hstorage_tpch::{build_plan, TpchDatabase, TpchScale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A storage system that logs every operation before passing it on: a
/// `submit_each` is logged as the `Submit` of each of its requests, so a
/// grouped run and a per-request run produce comparable logs.
struct Recording<'a> {
    inner: &'a CacheEngine,
    log: Mutex<Vec<JournalOp>>,
    /// The longest `submit_each` slice seen.
    longest_each: AtomicUsize,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a CacheEngine) -> Self {
        Recording {
            inner,
            log: Mutex::new(Vec::new()),
            longest_each: AtomicUsize::new(0),
        }
    }

    fn push(&self, op: JournalOp) {
        self.log.lock().unwrap().push(op);
    }

    /// The log since the last call.
    fn take(&self) -> Vec<JournalOp> {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

impl StorageSystem for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn submit(&self, req: ClassifiedRequest) {
        self.push(JournalOp::Submit(req));
        self.inner.submit(req);
    }
    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        self.push(JournalOp::SubmitBatch(reqs.clone()));
        self.inner.submit_batch(reqs);
    }
    fn submit_each(&self, reqs: &[ClassifiedRequest]) {
        self.log
            .lock()
            .unwrap()
            .extend(reqs.iter().map(|req| JournalOp::Submit(*req)));
        self.longest_each.fetch_max(reqs.len(), Ordering::Relaxed);
        self.inner.submit_each(reqs);
    }
    fn trim(&self, cmd: &TrimCommand) {
        self.push(JournalOp::Trim(cmd.clone()));
        self.inner.trim(cmd);
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn now(&self) -> Duration {
        self.inner.now()
    }
    fn reset_stats(&self) {
        self.push(JournalOp::StatsReset);
        self.inner.reset_stats();
    }
    fn resident_blocks(&self) -> u64 {
        self.inner.resident_blocks()
    }
    fn migrate_idle(&self) -> MigrationStats {
        self.push(JournalOp::MigrationPulse);
        self.inner.migrate_idle()
    }
    fn migration_stats(&self) -> MigrationStats {
        self.inner.migration_stats()
    }
}

/// `run_query` of `plan`, rebuilt from the public op-at-a-time API.
fn run_op_by_op(
    executor: &mut QueryExecutor,
    plan: &hstorage_engine::PlanTree,
    catalog: &mut hstorage_engine::Catalog,
    storage: &dyn StorageSystem,
) -> QueryStats {
    let profile = plan.profile();
    let program = executor.compile(plan, &profile, catalog);
    let ticket = executor.registry().register(&profile);
    let mut stats = QueryStats::new(&program.name);
    let io_start = storage.now();
    for op in program.cursor() {
        executor.execute_op(&op, program.level_bounds, catalog, storage, &mut stats);
    }
    executor.flush_pending(storage);
    executor.registry().unregister(&profile, ticket);
    stats.io_time = storage.now().saturating_sub(io_start);
    stats.elapsed = stats.io_time + stats.cpu_time;
    storage.migrate_idle();
    stats
}

#[test]
fn power_sequence_matches_op_by_op_execution() {
    let scale = std::env::var("HSTORAGE_PROGRAM_SF")
        .map(|v| v.parse().expect("HSTORAGE_PROGRAM_SF is a scale factor"))
        .unwrap_or(0.05);
    let config = SystemConfig::single_query(TpchScale::new(scale), StorageConfigKind::HStorageDb);
    for shards in [1, 3, 8] {
        let storage = config.storage_config().with_shards(shards);
        let (grouped_engine, reference_engine) =
            (CacheEngine::new(&storage), CacheEngine::new(&storage));
        let (grouped, reference) = (
            Recording::new(&grouped_engine),
            Recording::new(&reference_engine),
        );
        let mut sides = [(); 2].map(|()| {
            (
                TpchDatabase::build(config.scale),
                QueryExecutor::new(config.executor, config.policy),
            )
        });
        for query in power_test_sequence() {
            let [(db, executor), (ref_db, ref_executor)] = &mut sides;
            let plan = build_plan(query, db);
            let stats = executor.run_query(&plan, &mut db.catalog, &grouped);
            let ref_plan = build_plan(query, ref_db);
            let ref_stats = run_op_by_op(ref_executor, &ref_plan, &mut ref_db.catalog, &reference);
            let at = format!("{shards} shards, after {query:?}");
            let (log, ref_log) = (grouped.take(), reference.take());
            let first_difference =
                (0..log.len().max(ref_log.len())).find(|&i| log.get(i) != ref_log.get(i));
            if let Some(i) = first_difference {
                panic!(
                    "request logs of {} and {} entries differ at {i}, {at}: {:?} vs {:?}",
                    log.len(),
                    ref_log.len(),
                    log.get(i),
                    ref_log.get(i)
                );
            }
            assert_eq!(stats, ref_stats, "{at}");
            assert_eq!(grouped.stats(), reference.stats(), "{at}");
            assert_eq!(grouped.now(), reference.now(), "{at}");
        }
        let longest = grouped.longest_each.load(Ordering::Relaxed);
        // Two requests a probe at most: a slice longer than a group's
        // worth of probes shows groups of dozens of probes were formed.
        assert!(
            (PROBE_GROUP + 1..=2 * PROBE_GROUP).contains(&longest),
            "{shards} shards: the longest probe group sent {longest} misses"
        );
    }
}
