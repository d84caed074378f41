//! The query executor.
//!
//! The executor reads a compiled [`RequestProgram`] through its cursor and
//! turns each operation into classified I/O against a [`StorageSystem`],
//! going through the DBMS buffer pool first and assigning a QoS policy to
//! every request at issue time.
//!
//! A query's setup walks its plan once: [`PlanTree::profile`] yields the
//! [`PlanProfile`] — every operator's effective level, each random
//! object's Rule 2 level and the plan's `(llow, lhigh)` — and compilation,
//! the Rule 5 registration and the unregistration at the end all read that
//! one profile ([`run_concurrent`] keeps it with the running query). A
//! short request so pays for its I/O, not for re-deriving its plan's
//! levels. Only a random request's policy depends on
//! what else is running (Rule 5), and only through registrations: the
//! executor keeps the priorities it has resolved until the registry's
//! generation moves, so a request costs the registry one atomic load, and
//! its lock only after a query has started or ended somewhere.
//!
//! Storage is accessed through `&dyn StorageSystem`: the storage service is
//! shared, and all its mutation is interior. On top of the single-query
//! path, [`run_concurrent`] is the deterministic cooperative slicer the
//! paper-figure experiments use: one executor, one buffer pool, streams
//! interleaved a fixed number of operations at a time. Fully reproducible,
//! single-threaded. Real OS-thread concurrency is the query service's job
//! ([`crate::run_streams_service`]).
//!
//! Sequential streams (table scans, temporary-data generation and
//! consumption) are issued in *vectored batches* of up to
//! [`ExecutorConfig::io_batch_size`] requests through
//! [`StorageSystem::submit_batch`], so the storage system sees a scan as the
//! semantic batch it is — one classification, one shard-lock acquisition per
//! shard, mergeable device transfers — instead of a stream of independent
//! submits. Batches are flushed before any random submit, TRIM or query
//! completion, so the request order reaching storage is identical to
//! unbatched execution.
//!
//! Index probes are served in *probe groups*. A probe's cost is memory
//! latency — its buffer-pool entry, then the cache's table slot, list
//! node and neighbours, each load waiting on the one before — so one op
//! loop, shared by [`QueryExecutor::run_query`] and [`run_concurrent`]'s
//! slices, draws a run of up to [`PROBE_GROUP`] consecutive probes from
//! the cursor (holding the op that ends the run, to execute next) and
//! serves them in two passes. The first draws each probe's picks, index
//! block then table block, and starts loading both pool entries; the
//! second accesses the pool in the same order and collects the misses.
//! They reach storage, after any pending scan batch, through one
//! [`StorageSystem::submit_each`], which serves them exactly as
//! per-request submits while it loads the cache's metadata of the
//! requests ahead. The pool never reads storage and storage never reads
//! the pool, so each sees exactly the sequence that executing the probes
//! one at a time ([`QueryExecutor::execute_op`]) produces.

use crate::buffer_pool::BufferPool;
use crate::catalog::Catalog;
use crate::concurrency::{ConcurrencyRegistry, QueryTicket};
use crate::plan::{PlanProfile, PlanTree};
use crate::policy_table::PolicyAssignmentTable;
use crate::program::{compile_with_profile, CompileOptions, IoOp, ProgramCursor, RequestProgram};
use crate::semantic::SemanticInfo;
use crate::stats::QueryStats;
use hstorage_cache::StorageSystem;
use hstorage_storage::{
    BlockAddr, BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    TrimCommand,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Executor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// DBMS buffer-pool capacity in blocks.
    pub buffer_pool_blocks: u64,
    /// CPU cost charged per block processed.
    pub cpu_time_per_block: Duration,
    /// Blocks per sequential read request.
    pub seq_blocks_per_request: u64,
    /// Blocks per temporary-data request.
    pub temp_blocks_per_request: u64,
    /// Seed for the deterministic random-access generator.
    pub seed: u64,
    /// Maximum number of sequential-stream requests the executor collects
    /// into one vectored [`StorageSystem::submit_batch`] call. Sequential
    /// scans and temporary-data streams vector their run of requests up to
    /// this size; index probes reach storage through
    /// [`StorageSystem::submit_each`] and updates through per-request
    /// submits, neither of which merges transfers. `1` disables batching.
    /// Because a batch is flushed before any non-batchable request (and
    /// before TRIM), the request order seen by storage is identical to
    /// unbatched execution.
    pub io_batch_size: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            buffer_pool_blocks: 4096,
            cpu_time_per_block: Duration::from_micros(12),
            seq_blocks_per_request: 64,
            temp_blocks_per_request: 32,
            seed: 0x5707ACEDB,
            io_batch_size: 16,
        }
    }
}

impl ExecutorConfig {
    /// The compile options implied by this configuration.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            seq_blocks_per_request: self.seq_blocks_per_request,
            temp_blocks_per_request: self.temp_blocks_per_request,
        }
    }
}

/// The most consecutive index probes the executor serves as one group
/// (see the module docs).
pub const PROBE_GROUP: usize = 64;

/// How many resolved priorities an executor keeps before it starts over: a
/// probe alternates between two objects and a pipelined plan between a few
/// probes (four objects in the widest TPC-H plan).
const MEMO_ENTRIES: usize = 8;

/// The random-request policies resolved against one registry generation.
/// Any registration changes the generation and so empties the memo: Rule 5
/// never sees a state older than the last query start or end.
#[derive(Default)]
struct PolicyMemo {
    generation: u64,
    entries: Vec<(SemanticInfo, (u32, u32), QosPolicy)>,
}

/// Executes query plans against a storage system.
pub struct QueryExecutor {
    policy_table: PolicyAssignmentTable,
    registry: ConcurrencyRegistry,
    memo: PolicyMemo,
    buffer_pool: BufferPool,
    config: ExecutorConfig,
    rng: SmallRng,
    /// Sequential-stream requests collected for the next vectored submit.
    pending: Vec<ClassifiedRequest>,
    /// The buffer-pool accesses of the probe group being served, as
    /// `(info, block)` in issue order. Empty between groups.
    probes: Vec<(SemanticInfo, BlockAddr)>,
    /// The probe group's pool misses, for one
    /// [`StorageSystem::submit_each`]. Empty between groups.
    misses: Vec<ClassifiedRequest>,
}

impl QueryExecutor {
    /// Creates an executor with its own (single-query) registry.
    pub fn new(config: ExecutorConfig, policy: PolicyConfig) -> Self {
        Self::with_registry(config, policy, ConcurrencyRegistry::new())
    }

    /// Creates an executor that shares `registry` with other executors
    /// (Rule 5: concurrent queries must agree on priorities).
    pub fn with_registry(
        config: ExecutorConfig,
        policy: PolicyConfig,
        registry: ConcurrencyRegistry,
    ) -> Self {
        QueryExecutor {
            policy_table: PolicyAssignmentTable::new(policy),
            registry,
            memo: PolicyMemo::default(),
            buffer_pool: BufferPool::new(config.buffer_pool_blocks),
            rng: SmallRng::seed_from_u64(config.seed),
            pending: Vec::with_capacity(config.io_batch_size),
            probes: Vec::with_capacity(2 * PROBE_GROUP),
            misses: Vec::with_capacity(2 * PROBE_GROUP),
            config,
        }
    }

    /// The shared concurrency registry.
    pub fn registry(&self) -> &ConcurrencyRegistry {
        &self.registry
    }

    /// The policy assignment table.
    pub fn policy_table(&self) -> &PolicyAssignmentTable {
        &self.policy_table
    }

    /// The DBMS buffer pool.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.buffer_pool
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Clears the buffer pool (used between independent experiment runs).
    pub fn clear_buffer_pool(&mut self) {
        self.buffer_pool.clear();
    }

    /// Compiles a plan, whose [`PlanTree::profile`] is `profile`, against
    /// the catalog.
    pub fn compile(
        &self,
        plan: &PlanTree,
        profile: &PlanProfile,
        catalog: &mut Catalog,
    ) -> RequestProgram {
        compile_with_profile(plan, profile, catalog, self.config.compile_options())
    }

    /// Compiles and runs one query to completion, registering it with the
    /// concurrency registry for its duration. The plan is walked once, for
    /// its [`PlanProfile`], which compilation and both registry updates
    /// read.
    pub fn run_query(
        &mut self,
        plan: &PlanTree,
        catalog: &mut Catalog,
        storage: &dyn StorageSystem,
    ) -> QueryStats {
        let profile = plan.profile();
        let program = self.compile(plan, &profile, catalog);
        let ticket = self.registry.register(&profile);
        let cursor = program.cursor();
        let mut stats = QueryStats::new(program.name);
        let io_start = storage.now();
        self.run_ops(cursor, program.level_bounds, catalog, storage, &mut stats);
        self.flush_pending(storage);
        self.registry.unregister(&profile, ticket);
        finalize(&mut stats, io_start, storage);
        // Query boundaries are the executor's natural idle points: offer
        // the storage system a tier-migration window (a no-op unless a
        // migration engine is configured). Placed after `finalize` so
        // background device traffic is never charged to this query's I/O
        // time.
        storage.migrate_idle();
        stats
    }

    /// Executes `ops` in order: the one op loop of [`Self::run_query`] and
    /// of [`run_concurrent`]'s slices. A run of consecutive index probes
    /// is served as groups of up to [`PROBE_GROUP`]; every other op goes
    /// to [`Self::execute_op`].
    fn run_ops(
        &mut self,
        mut ops: impl Iterator<Item = IoOp>,
        level_bounds: (u32, u32),
        catalog: &mut Catalog,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
    ) {
        let mut next = ops.next();
        while let Some(op) = next {
            next = if matches!(op, IoOp::IndexProbe { .. }) {
                self.serve_probes(op, &mut ops, level_bounds, storage, stats)
            } else {
                self.execute_op(&op, level_bounds, catalog, storage, stats);
                ops.next()
            };
        }
    }

    /// Serves the probe `first` and the probes that follow it in `ops`, up
    /// to [`PROBE_GROUP`] in all, as one group (see the module docs), and
    /// returns the op that ended the run.
    fn serve_probes(
        &mut self,
        first: IoOp,
        ops: &mut impl Iterator<Item = IoOp>,
        level_bounds: (u32, u32),
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
    ) -> Option<IoOp> {
        let mut probes = std::mem::take(&mut self.probes);
        let mut misses = std::mem::take(&mut self.misses);
        // Pass 1: the picks, index then table as `execute_op` draws them,
        // and the loads of both pool entries.
        let mut group = 0;
        let mut op = Some(first);
        let next = loop {
            match op {
                Some(IoOp::IndexProbe {
                    index_info,
                    index_hot,
                    table_info,
                    table_hot,
                }) if group < PROBE_GROUP => {
                    let index_block = self.pick(&index_hot);
                    let table_block = self.pick(&table_hot);
                    self.buffer_pool.prefetch(index_block);
                    self.buffer_pool.prefetch(table_block);
                    probes.push((index_info, index_block));
                    probes.push((table_info, table_block));
                    group += 1;
                    op = ops.next();
                }
                other => break other,
            }
        };
        // Pass 2: the pool accesses in the same order; each miss is
        // classified and counted as `random_block_access` would.
        for (info, block) in probes.drain(..) {
            if self.buffer_pool.access(block, true) {
                stats.buffer_pool_hits += 1;
                continue;
            }
            stats.buffer_pool_misses += 1;
            let policy = self.assign(&info, level_bounds);
            let class = info.request_class();
            stats.record_request(class, 1);
            let io = IoRequest::read(BlockRange::new(block, 1), false);
            misses.push(ClassifiedRequest::new(io, class, policy));
        }
        self.charge_cpu(stats, 2 * group as u64);
        if !misses.is_empty() {
            self.flush_pending(storage);
            storage.submit_each(&misses);
            misses.clear();
        }
        self.probes = probes;
        self.misses = misses;
        next
    }

    /// Executes one operation of a compiled program, an index probe alone.
    /// [`Self::run_query`] serves runs of probes in groups instead, which
    /// reach the buffer pool and storage in the same order; this is the
    /// op-at-a-time form for callers that drive a cursor themselves, who
    /// must [`Self::flush_pending`] before reading storage state or time.
    pub fn execute_op(
        &mut self,
        op: &IoOp,
        level_bounds: (u32, u32),
        catalog: &mut Catalog,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
    ) {
        match op {
            IoOp::SequentialRead { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, false, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::IndexProbe {
                index_info,
                index_hot,
                table_info,
                table_hot,
            } => {
                let index_block = self.pick(index_hot);
                let table_block = self.pick(table_hot);
                self.random_block_access(storage, stats, index_info, level_bounds, index_block);
                self.random_block_access(storage, stats, table_info, level_bounds, table_block);
                self.charge_cpu(stats, 2);
            }
            IoOp::TempWrite { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, true, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::TempRead { info, range } => {
                self.issue(storage, stats, info, level_bounds, *range, false, true);
                self.charge_cpu(stats, range.len);
            }
            IoOp::TempDelete { info, range, oid } => {
                // The deletion itself is a metadata operation: the DBMS
                // notifies the storage system that the blocks are dead. In
                // hStorage-DB this becomes a TRIM (or the "non-caching and
                // eviction" scan workaround); legacy systems ignore it.
                stats.record_request(info.request_class(), range.len);
                // Pending batched reads/writes must reach storage before
                // the blocks are invalidated.
                self.flush_pending(storage);
                storage.trim(&TrimCommand::single(*range));
                self.buffer_pool.invalidate_range(*range);
                catalog.drop_temp(*oid);
            }
            IoOp::UpdateWrite { info, table_range } => {
                let block = self.pick(table_range);
                let policy = self.assign(info, level_bounds);
                let io = IoRequest::write(BlockRange::new(block, 1), false);
                stats.record_request(info.request_class(), 1);
                self.flush_pending(storage);
                storage.submit(ClassifiedRequest::new(io, info.request_class(), policy));
                self.buffer_pool.invalidate(block);
                self.charge_cpu(stats, 1);
            }
        }
    }

    /// One random single-block read that goes through the buffer pool.
    fn random_block_access(
        &mut self,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
        info: &SemanticInfo,
        level_bounds: (u32, u32),
        block: BlockAddr,
    ) {
        if self.buffer_pool.access(block, true) {
            stats.buffer_pool_hits += 1;
            return;
        }
        stats.buffer_pool_misses += 1;
        self.issue(
            storage,
            stats,
            info,
            level_bounds,
            BlockRange::new(block, 1),
            false,
            false,
        );
    }

    /// The policy assignment table's answer for `info`, from the memo when
    /// the request is random and the registry has not changed since the
    /// same question was last asked.
    fn assign(&mut self, info: &SemanticInfo, level_bounds: (u32, u32)) -> QosPolicy {
        if info.request_class() != RequestClass::Random {
            return self.policy_table.assign(info, &self.registry, level_bounds);
        }
        let memo = &mut self.memo;
        let generation = self.registry.generation();
        if memo.generation != generation {
            memo.generation = generation;
            memo.entries.clear();
        }
        let known = memo
            .entries
            .iter()
            .find(|(i, bounds, _)| i == info && *bounds == level_bounds);
        if let Some(&(_, _, policy)) = known {
            return policy;
        }
        let (resolved_at, policy) =
            self.policy_table
                .assign_random(info, &self.registry, level_bounds);
        // A registration between the load above and the locked read makes
        // the answer newer than the memo: use it, and let the next request
        // find the new generation.
        if resolved_at == generation {
            if memo.entries.len() == MEMO_ENTRIES {
                memo.entries.clear();
            }
            memo.entries.push((*info, level_bounds, policy));
        }
        policy
    }

    /// Issues one classified storage request.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        storage: &dyn StorageSystem,
        stats: &mut QueryStats,
        info: &SemanticInfo,
        level_bounds: (u32, u32),
        range: BlockRange,
        is_write: bool,
        sequential: bool,
    ) {
        let policy = self.assign(info, level_bounds);
        let io = if is_write {
            IoRequest::write(range, sequential)
        } else {
            IoRequest::read(range, sequential)
        };
        let class = info.request_class();
        stats.record_request(class, range.len);
        let req = ClassifiedRequest::new(io, class, policy);
        if sequential && self.config.io_batch_size > 1 {
            // Sequential streams vector their run of requests; the batch is
            // flushed as soon as it is full or a non-batchable request
            // needs to preserve ordering.
            self.pending.push(req);
            if self.pending.len() >= self.config.io_batch_size {
                self.flush_pending(storage);
            }
        } else {
            self.flush_pending(storage);
            storage.submit(req);
        }
    }

    /// Submits any batched sequential requests still pending, as one
    /// vectored [`StorageSystem::submit_batch`] call.
    ///
    /// [`Self::run_query`] and the stream drivers flush at every point that
    /// needs ordering (before random submits, TRIMs, and query completion);
    /// callers driving [`Self::execute_op`] directly must flush before
    /// reading storage state or time.
    pub fn flush_pending(&mut self, storage: &dyn StorageSystem) {
        if self.pending.is_empty() {
            return;
        }
        // The next batch starts at full capacity: a taken `Vec` would
        // regrow 0→4→8→16 on every scan batch.
        let next = Vec::with_capacity(self.config.io_batch_size);
        storage.submit_batch(std::mem::replace(&mut self.pending, next));
    }

    fn pick(&mut self, range: &BlockRange) -> BlockAddr {
        if range.len <= 1 {
            return range.start;
        }
        BlockAddr(range.start.0 + self.rng.gen_range(0..range.len))
    }

    fn charge_cpu(&self, stats: &mut QueryStats, blocks: u64) {
        stats.cpu_time += self.config.cpu_time_per_block * blocks as u32;
    }
}

fn finalize(stats: &mut QueryStats, io_start: Duration, storage: &dyn StorageSystem) {
    stats.io_time = storage.now().saturating_sub(io_start);
    stats.elapsed = stats.io_time + stats.cpu_time;
}

/// Internal state of one query inside the concurrent driver.
struct ActiveQuery {
    /// What the registration recorded, for the unregistration.
    profile: PlanProfile,
    ticket: QueryTicket,
    level_bounds: (u32, u32),
    cursor: ProgramCursor,
    stats: QueryStats,
    io_start: Duration,
}

/// One stream of queries for the concurrent driver.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name ("stream-1", "update-stream", …).
    pub name: String,
    /// Queries to run, in order.
    pub queries: Vec<PlanTree>,
}

/// The result of one query completed by the concurrent driver.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// The stream the query belonged to.
    pub stream: String,
    /// Execution statistics. `elapsed` is the wall-clock (simulated) time
    /// between the query's first and last operation, so it includes the
    /// interference of the other streams — the quantity Figure 12b reports.
    pub stats: QueryStats,
}

/// Runs several query streams concurrently against one storage system.
///
/// The driver interleaves the streams' compiled programs `ops_per_slice`
/// operations at a time, which models concurrent query execution over a
/// shared storage system with a shared DBMS buffer pool. All queries are
/// registered with the executor's concurrency registry for their duration,
/// so Rule 5 governs priority assignment.
///
/// This is the *deterministic* driver: a single thread, a fixed
/// interleaving, bit-identical results run to run — the tool for
/// reproducing the paper's throughput figures. For real parallelism over OS
/// threads use [`crate::run_streams_service`].
pub fn run_concurrent(
    executor: &mut QueryExecutor,
    streams: &[StreamSpec],
    catalog: &mut Catalog,
    storage: &dyn StorageSystem,
    ops_per_slice: usize,
) -> Vec<CompletedQuery> {
    assert!(ops_per_slice > 0, "ops_per_slice must be positive");
    let mut pending: Vec<std::slice::Iter<'_, PlanTree>> =
        streams.iter().map(|s| s.queries.iter()).collect();
    let mut active: Vec<Option<ActiveQuery>> = streams.iter().map(|_| None).collect();
    let mut completed = Vec::new();

    loop {
        let mut any_work = false;
        for (idx, stream) in streams.iter().enumerate() {
            // Start the next query of this stream if none is active.
            if active[idx].is_none() {
                if let Some(plan) = pending[idx].next() {
                    let profile = plan.profile();
                    let program = executor.compile(plan, &profile, catalog);
                    let ticket = executor.registry.register(&profile);
                    active[idx] = Some(ActiveQuery {
                        profile,
                        ticket,
                        level_bounds: program.level_bounds,
                        cursor: program.cursor(),
                        stats: QueryStats::new(program.name),
                        io_start: storage.now(),
                    });
                }
            }
            let Some(query) = active[idx].as_mut() else {
                continue;
            };
            any_work = true;

            executor.run_ops(
                query.cursor.by_ref().take(ops_per_slice),
                query.level_bounds,
                catalog,
                storage,
                &mut query.stats,
            );
            // The slice boundary is also the batch boundary: flushing here
            // keeps the interleaving deterministic (a stream's batched scan
            // I/O never drifts into another stream's slice) and lets the
            // completion check below observe a fully up-to-date clock.
            executor.flush_pending(storage);

            if query.cursor.len() == 0 {
                let mut done = active[idx].take().expect("query was active");
                executor.registry.unregister(&done.profile, done.ticket);
                finalize(&mut done.stats, done.io_start, storage);
                completed.push(CompletedQuery {
                    stream: stream.name.clone(),
                    stats: done.stats,
                });
            }
        }
        if !any_work {
            break;
        }
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectKind;
    use crate::plan::{Access, OperatorKind, PlanNode};
    use hstorage_cache::{CacheEngine, StorageConfig, StorageConfigKind};

    fn small_catalog() -> (Catalog, crate::catalog::ObjectId, crate::catalog::ObjectId) {
        let mut cat = Catalog::new();
        let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 2_000));
        let index = cat.register(
            "idx_orders",
            ObjectKind::Index,
            BlockRange::new(2_000u64, 200),
        );
        cat.set_temp_region(BlockRange::new(50_000u64, 20_000));
        (cat, table, index)
    }

    fn seq_plan(table: crate::catalog::ObjectId) -> PlanTree {
        PlanTree::new(
            "seq",
            PlanNode::node(
                OperatorKind::Aggregate,
                Access::None,
                vec![PlanNode::leaf(
                    OperatorKind::SeqScan,
                    Access::SeqScan { table, passes: 1 },
                )],
            ),
        )
    }

    fn random_plan(
        table: crate::catalog::ObjectId,
        index: crate::catalog::ObjectId,
        lookups: u64,
    ) -> PlanTree {
        PlanTree::new(
            "rand",
            PlanNode::leaf(
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index,
                    table,
                    lookups,
                    index_hot_fraction: 0.5,
                    table_hot_fraction: 0.2,
                },
            ),
        )
    }

    fn executor() -> QueryExecutor {
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 128,
            ..ExecutorConfig::default()
        };
        QueryExecutor::new(cfg, PolicyConfig::paper_default())
    }

    #[test]
    fn sequential_query_issues_only_sequential_requests() {
        let (mut cat, table, _) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 1_000).build();
        let stats = exec.run_query(&seq_plan(table), &mut cat, storage.as_ref());
        assert_eq!(stats.blocks(RequestClass::Sequential), 2_000);
        assert_eq!(stats.requests(RequestClass::Random), 0);
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.io_time > Duration::ZERO);
        // hStorage-DB does not cache sequentially scanned blocks.
        assert_eq!(storage.resident_blocks(), 0);
    }

    #[test]
    fn random_query_populates_cache_and_buffer_pool() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let stats = exec.run_query(
            &random_plan(table, index, 3_000),
            &mut cat,
            storage.as_ref(),
        );
        assert_eq!(stats.requests(RequestClass::Sequential), 0);
        assert!(stats.blocks(RequestClass::Random) > 0);
        assert!(storage.resident_blocks() > 0);
        assert!(stats.buffer_pool_hits + stats.buffer_pool_misses == 6_000);
    }

    #[test]
    fn repeated_random_query_benefits_from_the_ssd_cache() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let cold = exec.run_query(
            &random_plan(table, index, 2_000),
            &mut cat,
            storage.as_ref(),
        );
        let warm = exec.run_query(
            &random_plan(table, index, 2_000),
            &mut cat,
            storage.as_ref(),
        );
        assert!(
            warm.io_time < cold.io_time / 2,
            "warm {:?} vs cold {:?}",
            warm.io_time,
            cold.io_time
        );
    }

    #[test]
    fn temp_spill_lifecycle_reaches_storage_and_is_trimmed() {
        let (mut cat, _, _) = small_catalog();
        let plan = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 256,
                    read_passes: 1,
                },
            ),
        );
        let mut exec = executor();
        let hybrid = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 10_000));
        let stats = exec.run_query(&plan, &mut cat, &hybrid);
        assert_eq!(stats.blocks(RequestClass::TemporaryData), 512); // write + read
        assert_eq!(stats.blocks(RequestClass::TemporaryDataTrim), 256);
        // After the TRIM at end of lifetime nothing remains cached.
        assert_eq!(hybrid.resident_blocks(), 0);
        // Temporary reads were all served from cache.
        let s = hybrid.stats();
        assert_eq!(s.class(RequestClass::TemporaryData).cache_hits, 256);
    }

    #[test]
    fn updates_go_to_the_write_buffer() {
        let (mut cat, table, _) = small_catalog();
        let plan = PlanTree::new(
            "rf1",
            PlanNode::leaf(OperatorKind::Update, Access::Update { table, blocks: 50 }),
        );
        let mut exec = executor();
        let hybrid = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 10_000));
        let stats = exec.run_query(&plan, &mut cat, &hybrid);
        assert_eq!(stats.requests(RequestClass::Update), 50);
        let s = hybrid.stats();
        assert_eq!(s.class(RequestClass::Update).accessed_blocks, 50);
        assert!(s.action(hstorage_cache::CacheAction::WriteAllocation) > 0);
    }

    #[test]
    fn policy_assignment_reaches_storage_with_expected_priorities() {
        // A plan with index scans at two levels must produce requests at two
        // different priorities (Rule 2), which the hybrid cache tracks in
        // its per-priority statistics.
        let (mut cat, table, index) = small_catalog();
        let other_table = cat.register(
            "supplier",
            ObjectKind::Table,
            BlockRange::new(10_000u64, 200),
        );
        let other_index = cat.register(
            "idx_supplier",
            ObjectKind::Index,
            BlockRange::new(10_200u64, 20),
        );
        let low = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index: other_index,
                table: other_table,
                lookups: 100,
                index_hot_fraction: 1.0,
                table_hot_fraction: 1.0,
            },
        );
        let join = PlanNode::node(OperatorKind::HashJoin, Access::None, vec![low]);
        let high = PlanNode::leaf(
            OperatorKind::IndexScan,
            Access::IndexScan {
                index,
                table,
                lookups: 100,
                index_hot_fraction: 0.5,
                table_hot_fraction: 0.2,
            },
        );
        let root = PlanNode::node(OperatorKind::NestedLoop, Access::None, vec![join, high]);
        let plan = PlanTree::new("two-level", root);

        let mut exec = executor();
        let hybrid = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 10_000));
        exec.run_query(&plan, &mut cat, &hybrid);
        let s = hybrid.stats();
        assert!(s.priority(2).accessed_blocks > 0, "priority 2 traffic");
        assert!(s.priority(3).accessed_blocks > 0, "priority 3 traffic");
        let _ = QosPolicy::priority(2);
    }

    #[test]
    fn scan_batching_is_equivalent_to_unbatched_execution() {
        // With the default queue depth (1) the vectored path is not just
        // statistically but *timing*-identical to per-request submission,
        // for every op kind including spills (whose TRIM forces a flush).
        let (cat, table, index) = small_catalog();
        let spill = PlanTree::new(
            "spill",
            PlanNode::leaf(
                OperatorKind::Hash,
                Access::TempSpill {
                    blocks: 256,
                    read_passes: 1,
                },
            ),
        );
        let plans = [seq_plan(table), random_plan(table, index, 300), spill];

        let run = |io_batch_size: usize| {
            let cfg = ExecutorConfig {
                buffer_pool_blocks: 128,
                io_batch_size,
                ..ExecutorConfig::default()
            };
            let mut exec = QueryExecutor::new(cfg, PolicyConfig::paper_default());
            let mut cat = cat.clone();
            let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
            let stats: Vec<QueryStats> = plans
                .iter()
                .map(|p| exec.run_query(p, &mut cat, storage.as_ref()))
                .collect();
            (stats, storage.stats(), storage.now())
        };

        let (batched, batched_storage, batched_now) = run(16);
        let (unbatched, unbatched_storage, unbatched_now) = run(1);
        assert_eq!(batched, unbatched);
        assert_eq!(batched_storage, unbatched_storage);
        assert_eq!(batched_now, unbatched_now);
    }

    #[test]
    fn concurrent_driver_completes_all_queries() {
        let (mut cat, table, index) = small_catalog();
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let streams = vec![
            StreamSpec {
                name: "s1".into(),
                queries: vec![random_plan(table, index, 500), seq_plan(table)],
            },
            StreamSpec {
                name: "s2".into(),
                queries: vec![seq_plan(table)],
            },
        ];
        let done = run_concurrent(&mut exec, &streams, &mut cat, storage.as_ref(), 16);
        assert_eq!(done.len(), 3);
        assert_eq!(exec.registry().active_queries(), 0);
        assert!(done.iter().all(|q| q.stats.elapsed > Duration::ZERO));
        let s1_count = done.iter().filter(|q| q.stream == "s1").count();
        assert_eq!(s1_count, 2);
    }

    #[test]
    fn concurrent_queries_take_longer_than_standalone() {
        let (mut cat, table, index) = small_catalog();

        // Standalone execution.
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HddOnly, 0).build();
        let solo = exec.run_query(&random_plan(table, index, 500), &mut cat, storage.as_ref());

        // The same query with two competing sequential streams.
        let mut exec = executor();
        let storage = StorageConfig::new(StorageConfigKind::HddOnly, 0).build();
        let streams = vec![
            StreamSpec {
                name: "q".into(),
                queries: vec![random_plan(table, index, 500)],
            },
            StreamSpec {
                name: "noise1".into(),
                queries: vec![seq_plan(table)],
            },
            StreamSpec {
                name: "noise2".into(),
                queries: vec![seq_plan(table)],
            },
        ];
        let done = run_concurrent(&mut exec, &streams, &mut cat, storage.as_ref(), 8);
        let contended = &done.iter().find(|q| q.stream == "q").unwrap().stats;
        assert!(contended.elapsed > solo.elapsed);
    }

    /// Keeps the policy of every request submitted, and nothing else.
    #[derive(Default)]
    struct PolicyRecorder {
        policies: std::sync::Mutex<Vec<QosPolicy>>,
    }

    impl StorageSystem for PolicyRecorder {
        fn name(&self) -> &str {
            "policy recorder"
        }
        fn submit(&self, req: ClassifiedRequest) {
            self.policies.lock().unwrap().push(req.policy);
        }
        fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
            reqs.into_iter().for_each(|req| self.submit(req));
        }
        fn trim(&self, _cmd: &TrimCommand) {}
        fn stats(&self) -> hstorage_cache::CacheStats {
            hstorage_cache::CacheStats::new()
        }
        fn now(&self) -> Duration {
            Duration::ZERO
        }
        fn reset_stats(&self) {}
        fn resident_blocks(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_registration_reprices_the_next_request_and_the_memo_dies_with_it() {
        let (mut cat, orders, idx_orders) = small_catalog();
        let supplier = cat.register(
            "supplier",
            ObjectKind::Table,
            BlockRange::new(10_000u64, 200),
        );
        let idx_supplier = cat.register(
            "idx_supplier",
            ObjectKind::Index,
            BlockRange::new(10_200u64, 20),
        );
        // A reaches `orders` at level 1, beside a deeper probe of
        // `supplier` at level 0; B reaches `orders` at level 0.
        let deep = PlanNode::node(
            OperatorKind::HashJoin,
            Access::None,
            vec![random_plan(supplier, idx_supplier, 6).root],
        );
        let plan_a = PlanTree::new(
            "A",
            PlanNode::node(
                OperatorKind::NestedLoop,
                Access::None,
                vec![deep, random_plan(orders, idx_orders, 6).root],
            ),
        );
        let plan_b = random_plan(orders, idx_orders, 6);

        let registry = ConcurrencyRegistry::new();
        let cfg = ExecutorConfig {
            buffer_pool_blocks: 0,
            ..ExecutorConfig::default()
        };
        let policy = PolicyConfig::paper_default();
        let mut a = QueryExecutor::with_registry(cfg, policy, registry.clone());
        let mut b = QueryExecutor::with_registry(cfg, policy, registry.clone());
        let storage = PolicyRecorder::default();
        let mut stats = QueryStats::new("unused");
        let probes_orders = |op: &IoOp| matches!(op, IoOp::IndexProbe { table_info, .. } if table_info.oid == orders);
        let (profile_a, profile_b) = (plan_a.profile(), plan_b.profile());
        let program_a = a.compile(&plan_a, &profile_a, &mut cat);
        let program_b = b.compile(&plan_b, &profile_b, &mut cat);
        let mut ops_a = program_a.cursor().filter(probes_orders);
        let mut ops_b = program_b.cursor();
        // The policy of the table request of the executor's next probe of
        // `orders`.
        let mut next =
            |exec: &mut QueryExecutor, ops: &mut dyn Iterator<Item = IoOp>, bounds: (u32, u32)| {
                let op = ops.next().expect("six probes");
                exec.execute_op(&op, bounds, &mut cat, &storage, &mut stats);
                *storage.policies.lock().unwrap().last().expect("submitted")
            };
        let (bounds_a, bounds_b) = (program_a.level_bounds, program_b.level_bounds);
        assert_eq!((bounds_a, bounds_b), ((0, 1), (0, 0)));

        let ticket_a = registry.register(&profile_a);
        assert_eq!(next(&mut a, &mut ops_a, bounds_a), QosPolicy::priority(3));
        assert_eq!(next(&mut a, &mut ops_a, bounds_a), QosPolicy::priority(3));
        // B starts between two of A's probes: Rule 5 prices `orders` by
        // B's lower level from A's very next request on, and for both.
        let ticket_b = registry.register(&profile_b);
        assert_eq!(next(&mut a, &mut ops_a, bounds_a), QosPolicy::priority(2));
        assert_eq!(next(&mut b, &mut ops_b, bounds_b), QosPolicy::priority(2));
        // A's registration ends but it keeps issuing, as an executor whose
        // registration was skipped would: B's entry still prices `orders`.
        registry.unregister(&profile_a, ticket_a);
        assert_eq!(next(&mut a, &mut ops_a, bounds_a), QosPolicy::priority(2));
        // With B gone too the registry knows nothing, and A falls back to
        // its own level and bounds instead of a remembered answer.
        registry.unregister(&profile_b, ticket_b);
        assert_eq!(next(&mut a, &mut ops_a, bounds_a), QosPolicy::priority(3));
        assert_eq!(next(&mut b, &mut ops_b, bounds_b), QosPolicy::priority(2));
    }
}
