//! The query-service front end: a bounded worker pool over a bounded
//! submission queue.
//!
//! The deterministic slicer ([`crate::run_concurrent`]) binds concurrency to
//! *streams*: one cooperative slice per stream, all on one thread. That
//! shape cannot express a server sustaining tens of thousands of logical
//! query streams, and the obvious extension — a thread per stream — is a
//! thread explosion. The service decouples the two axes:
//!
//! * **logical concurrency** — any number of in-flight [`QueryRequest`]s,
//!   each tagged with the logical stream it belongs to;
//! * **physical concurrency** — a fixed pool of
//!   [`ServiceConfig::workers`] OS threads (default: available
//!   parallelism), each owning one [`QueryExecutor`] (its own DBMS buffer
//!   pool and RNG), all sharing one storage system and one
//!   [`ConcurrencyRegistry`] so Rule 5 priority assignment sees every
//!   concurrently running query.
//!
//! Requests flow through a bounded queue of [`ServiceConfig::queue_depth`]
//! entries. [`QueryService::submit`] blocks when the queue is full
//! (**backpressure** — a closed-loop client is paced by the service), while
//! [`QueryService::try_submit`] fails fast with [`SubmitError::QueueFull`]
//! (**admission control** — an open-loop client sheds load instead of
//! queueing without bound). Each completed request is answered on the reply
//! channel the submitter attached to it, so completion notification is
//! per-stream: every logical stream (or any grouping the caller chooses)
//! can wait on its own channel.
//!
//! [`run_streams_service`] is the closed-loop workload driver built on
//! top: it keeps every logical stream exactly one request deep, records one
//! simulated-time latency sample per query into a
//! [`LatencyHistogram`], and returns results grouped by stream. With one
//! worker the execution order is fully deterministic, which is what the
//! `bench_gate` latency rows pin.
//!
//! Statistics are **sharded per worker**: each worker accumulates its own
//! completion count and latency samples ([`WorkerStats`]) thread-locally
//! and hands them over only at join time, so reply-path accounting never
//! takes a lock the submit path (or another worker) contends on. The
//! driver merges the shards in worker-index order into the aggregate
//! histogram, which keeps the single-worker report bit-identical to the
//! old driver-side accounting. The report also carries the storage
//! system's [`ContentionCounters`], so a run exposes how often the cache
//! hot path went lock-free.

use crate::catalog::Catalog;
use crate::concurrency::ConcurrencyRegistry;
use crate::executor::{CompletedQuery, ExecutorConfig, QueryExecutor, StreamSpec};
use crate::plan::PlanTree;
use crate::stats::QueryStats;
use hstorage_cache::{ContentionCounters, LatencyHistogram, StorageSystem};
use hstorage_storage::{BlockRange, PolicyConfig};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long [`run_streams_service`] waits for a completion before it
/// checks whether a worker has died.
const WORKER_CHECK_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning knobs of the query service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads. `0` means one per unit of available
    /// hardware parallelism.
    pub workers: usize,
    /// Capacity of the bounded submission queue. [`QueryService::submit`]
    /// blocks and [`QueryService::try_submit`] fails once this many
    /// requests are queued (requests being executed no longer count).
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 64,
        }
    }
}

impl ServiceConfig {
    /// The effective worker count: `workers`, or the hardware parallelism
    /// when `workers` is zero.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// One unit of work for the service: a query plan tagged with the logical
/// stream it belongs to and the channel its [`QueryResponse`] goes to.
pub struct QueryRequest {
    /// Index of the logical stream this query belongs to (echoed in the
    /// response; the service itself only passes it through).
    pub stream: usize,
    /// The query to compile and run.
    pub plan: PlanTree,
    /// Where the completion notification is delivered. Submitters that
    /// want per-stream notification attach one channel per stream; a
    /// central dispatcher can share one channel across all streams.
    pub reply: mpsc::Sender<QueryResponse>,
}

/// The completion notification for one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The logical stream the request carried.
    pub stream: usize,
    /// Execution statistics of the query.
    pub stats: QueryStats,
    /// Simulated time between the worker picking the request up and the
    /// query completing — the service-side request latency, excluding
    /// queueing delay (which simulated time does not observe: the sim
    /// clock only advances while requests execute).
    pub sim_latency: Duration,
}

/// Why a submission was rejected.
pub enum SubmitError {
    /// The queue is at [`ServiceConfig::queue_depth`]: the request is
    /// handed back so an open-loop caller can shed or retry it.
    QueueFull(QueryRequest),
    /// The service has been shut down; the request is handed back.
    Closed(QueryRequest),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "submission queue is full"),
            SubmitError::Closed(_) => write!(f, "query service is shut down"),
        }
    }
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The rejected request (a plan plus a channel) is not `Debug`;
        // the variant name is the informative part.
        match self {
            SubmitError::QueueFull(_) => f.write_str("QueueFull(..)"),
            SubmitError::Closed(_) => f.write_str("Closed(..)"),
        }
    }
}

/// Bounded MPMC queue: `Mutex<VecDeque>` plus two condition variables
/// (producers wait on `not_full`, workers on `not_empty`).
///
/// A notification is a `futex_wake` system call even when nobody waits,
/// so the queue counts its waiters under the mutex and notifies only
/// when one is waiting. A waiter registers before it releases the mutex
/// in `wait` and deregisters after it reacquires it, so a push or pop
/// that finds the count at zero has no sleeper to miss.
struct SubmissionQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState {
    items: VecDeque<QueryRequest>,
    capacity: usize,
    closed: bool,
    /// Workers blocked in `pop` on `not_empty`.
    waiting_workers: usize,
    /// Producers blocked in `push` on `not_full`.
    waiting_producers: usize,
}

impl SubmissionQueue {
    fn new(capacity: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
                waiting_workers: 0,
                waiting_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocking push: waits while the queue is full (backpressure).
    fn push(&self, req: QueryRequest) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if state.closed {
                return Err(SubmitError::Closed(req));
            }
            if state.items.len() < state.capacity {
                self.enqueue(&mut state, req);
                return Ok(());
            }
            state.waiting_producers += 1;
            state = self.not_full.wait(state).expect("queue lock poisoned");
            state.waiting_producers -= 1;
        }
    }

    /// Non-blocking push: fails when the queue is full (admission control).
    fn try_push(&self, req: QueryRequest) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(SubmitError::Closed(req));
        }
        if state.items.len() >= state.capacity {
            return Err(SubmitError::QueueFull(req));
        }
        self.enqueue(&mut state, req);
        Ok(())
    }

    /// Appends `req` under the held lock, waking one worker if any waits.
    fn enqueue(&self, state: &mut QueueState, req: QueryRequest) {
        state.items.push_back(req);
        if state.waiting_workers > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Blocking pop: `None` once the queue is closed and drained.
    fn pop(&self) -> Option<QueryRequest> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(req) = state.items.pop_front() {
                if state.waiting_producers > 0 {
                    self.not_full.notify_one();
                }
                return Some(req);
            }
            if state.closed {
                return None;
            }
            state.waiting_workers += 1;
            state = self.not_empty.wait(state).expect("queue lock poisoned");
            state.waiting_workers -= 1;
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn queued(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }
}

/// Per-worker statistics shard: everything one service worker accounted
/// for entirely thread-locally (no shared counter is touched on the reply
/// path). Collected at join time and reported through
/// [`ServiceReport::per_worker`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Index of the worker (its spawn order, `0..worker_count`).
    pub worker: usize,
    /// Number of requests this worker completed.
    pub completed: u64,
    /// One simulated-latency sample per completed request, in the order
    /// this worker executed them.
    pub latency: LatencyHistogram,
}

impl WorkerStats {
    fn new(worker: usize) -> Self {
        WorkerStats {
            worker,
            completed: 0,
            latency: LatencyHistogram::new(),
        }
    }
}

/// The request/response query service: a fixed worker pool consuming
/// [`QueryRequest`]s from a bounded submission queue.
///
/// Each worker owns a [`QueryExecutor`] (its own DBMS buffer pool; RNG
/// seeded `config.seed + worker index`) and a clone of the catalog whose
/// temporary region is relocated to a disjoint per-worker copy (worker 0
/// keeps the original placement), so concurrent spills never alias. All
/// workers share the storage system and the concurrency registry.
///
/// Dropping the service (or calling [`QueryService::shutdown`]) closes the
/// queue, lets the workers drain it, and joins them.
pub struct QueryService {
    queue: Arc<SubmissionQueue>,
    workers: Vec<std::thread::JoinHandle<WorkerStats>>,
}

impl QueryService {
    /// Starts the worker pool.
    pub fn start(
        config: ExecutorConfig,
        service: ServiceConfig,
        policy: PolicyConfig,
        registry: &ConcurrencyRegistry,
        catalog: &Catalog,
        storage: &Arc<dyn StorageSystem>,
    ) -> Self {
        assert!(service.queue_depth > 0, "queue_depth must be positive");
        let worker_count = service.effective_workers();
        let queue = Arc::new(SubmissionQueue::new(service.queue_depth));
        let workers = (0..worker_count)
            .map(|idx| {
                let queue = Arc::clone(&queue);
                let registry = registry.clone();
                let storage = Arc::clone(storage);
                let mut catalog = catalog.clone();
                // Relocate each worker's temp region to a disjoint,
                // full-size copy of the original past it (the block
                // address space is simulated, so the copies are free). A
                // worker runs one query at a time, and a spill's lifetime
                // is contained in one query, so disjoint per-worker temp
                // regions suffice no matter how many logical streams are
                // in flight. A single worker keeps the original placement,
                // matching plain `run_query`.
                if worker_count > 1 {
                    let region = catalog.temp_region();
                    let start = region.start.0 + idx as u64 * region.len;
                    catalog.set_temp_region(BlockRange::new(start, region.len));
                }
                let worker_config = ExecutorConfig {
                    seed: config.seed.wrapping_add(idx as u64),
                    ..config
                };
                std::thread::spawn(move || {
                    let mut executor =
                        QueryExecutor::with_registry(worker_config, policy, registry);
                    // Accounting is sharded: this worker's completion
                    // count and latency samples live on its own stack and
                    // are handed over only at join time.
                    let mut worker_stats = WorkerStats::new(idx);
                    while let Some(req) = queue.pop() {
                        let started = storage.now();
                        let stats = executor.run_query(&req.plan, &mut catalog, storage.as_ref());
                        let sim_latency = storage.now().saturating_sub(started);
                        worker_stats.completed += 1;
                        worker_stats.latency.record(sim_latency);
                        // A dropped receiver means the submitter stopped
                        // listening; the query still ran, drop the reply.
                        let _ = req.reply.send(QueryResponse {
                            stream: req.stream,
                            stats,
                            sim_latency,
                        });
                    }
                    worker_stats
                })
            })
            .collect();
        QueryService { queue, workers }
    }

    /// Submits a request, blocking while the queue is full
    /// (backpressure). Fails only when the service is shut down, handing
    /// the request back.
    pub fn submit(&self, req: QueryRequest) -> Result<(), SubmitError> {
        self.queue.push(req)
    }

    /// Submits a request without blocking: fails with
    /// [`SubmitError::QueueFull`] when the queue is at capacity
    /// (admission control for open-loop clients) and hands the request
    /// back.
    pub fn try_submit(&self, req: QueryRequest) -> Result<(), SubmitError> {
        self.queue.try_push(req)
    }

    /// Number of requests currently waiting in the submission queue (not
    /// counting those being executed).
    pub fn queued_requests(&self) -> usize {
        self.queue.queued()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether some worker has exited. Workers only exit once the queue
    /// is closed, so while the service runs an exited worker panicked.
    fn worker_exited(&self) -> bool {
        self.workers.iter().any(|w| w.is_finished())
    }

    /// Closes the queue, lets the workers drain the remaining requests,
    /// joins them, and returns each worker's statistics shard in worker
    /// order. Panics if a worker panicked.
    pub fn shutdown(mut self) -> Vec<WorkerStats> {
        self.close_and_join()
            .into_iter()
            .map(|joined| joined.expect("service worker panicked"))
            .collect()
    }

    /// Closes the queue and joins every worker, each join's outcome in
    /// worker order (spawn order == worker index, so the shards arrive
    /// already sorted by `WorkerStats::worker`).
    fn close_and_join(&mut self) -> Vec<std::thread::Result<WorkerStats>> {
        self.queue.close();
        self.workers.drain(..).map(|handle| handle.join()).collect()
    }
}

impl Drop for QueryService {
    /// Joins the workers and ignores how they ended: a worker's panic is
    /// reported by [`QueryService::shutdown`], never re-raised inside
    /// `drop` (which would abort a thread that is already unwinding).
    fn drop(&mut self) {
        let _ = self.close_and_join();
    }
}

/// The result of a [`run_streams_service`] run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Completed queries grouped by stream, in stream order.
    pub completed: Vec<CompletedQuery>,
    /// One simulated-latency sample per completed query: the per-worker
    /// shards merged in worker-index order.
    pub latency: LatencyHistogram,
    /// Each worker's thread-local statistics shard, in worker order.
    pub per_worker: Vec<WorkerStats>,
    /// The storage system's lock-contention counters over the whole run
    /// (lock acquisitions vs optimistic fast-path hits on the cache hot
    /// path) — the signal future regression gates key on.
    pub contention: ContentionCounters,
}

/// Runs query streams through a [`QueryService`] in a closed loop: every
/// logical stream keeps exactly one request in flight, submitting its next
/// query only when the previous one completes.
///
/// This is the entry point that sustains 10⁴–10⁵ logical streams over a
/// bounded worker pool: driver-side state is one cursor per stream, and
/// the service never sees more threads than
/// [`ServiceConfig::effective_workers`] plus the driver. Backpressure from
/// the bounded queue paces the driver's submissions.
///
/// With `service.workers == 1` the execution order — and therefore the
/// simulated clock, all statistics and every latency sample — is fully
/// deterministic: requests are executed in submission order by a single
/// worker whose executor matches plain [`QueryExecutor::run_query`].
///
/// Results are grouped by stream, in stream order. A worker that panics
/// fails the run: the closed loop notices within one 50 ms poll and
/// panics in turn rather than wait for a reply that cannot come.
pub fn run_streams_service(
    config: ExecutorConfig,
    service: ServiceConfig,
    policy: PolicyConfig,
    registry: &ConcurrencyRegistry,
    streams: &[StreamSpec],
    catalog: &Catalog,
    storage: &Arc<dyn StorageSystem>,
) -> ServiceReport {
    let svc = QueryService::start(config, service, policy, registry, catalog, storage);
    let (reply, responses) = mpsc::channel();
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    let mut results: Vec<Vec<QueryStats>> = streams.iter().map(|_| Vec::new()).collect();
    let mut in_flight = 0usize;

    let submit = |svc: &QueryService, idx: usize, query: usize| {
        svc.submit(QueryRequest {
            stream: idx,
            plan: streams[idx].queries[query].clone(),
            reply: reply.clone(),
        })
        .unwrap_or_else(|e| panic!("service rejected a closed-loop submit: {e}"));
    };

    // Open every stream: one request in flight per non-empty stream.
    for (idx, stream) in streams.iter().enumerate() {
        if !stream.queries.is_empty() {
            submit(&svc, idx, 0);
            cursors[idx] = 1;
            in_flight += 1;
        }
    }
    // Closed loop: each completion triggers the stream's next submission.
    // This loop holds a reply sender itself, so a worker that dies with a
    // request never disconnects the channel: the wait is bounded, and a
    // dead worker's panic is re-raised instead of waited on forever.
    while in_flight > 0 {
        let resp = match responses.recv_timeout(WORKER_CHECK_INTERVAL) {
            Ok(resp) => resp,
            Err(mpsc::RecvTimeoutError::Timeout) if svc.worker_exited() => {
                svc.shutdown();
                unreachable!("shutdown re-raises the dead worker's panic");
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("this loop holds a reply sender")
            }
        };
        in_flight -= 1;
        results[resp.stream].push(resp.stats);
        let next = cursors[resp.stream];
        if next < streams[resp.stream].queries.len() {
            submit(&svc, resp.stream, next);
            cursors[resp.stream] = next + 1;
            in_flight += 1;
        }
    }
    let per_worker = svc.shutdown();
    // Merge the worker shards in worker-index order: with one worker this
    // reproduces the old driver-side recording order exactly, so the
    // deterministic latency rows are unchanged.
    let mut latency = LatencyHistogram::new();
    for shard in &per_worker {
        latency.merge(&shard.latency);
    }
    let contention = storage.stats().contention;

    let completed = streams
        .iter()
        .zip(results)
        .flat_map(|(stream, stats)| {
            stats.into_iter().map(|stats| CompletedQuery {
                stream: stream.name.clone(),
                stats,
            })
        })
        .collect();
    ServiceReport {
        completed,
        latency,
        per_worker,
        contention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ObjectId, ObjectKind};
    use crate::plan::{Access, OperatorKind, PlanNode};
    use hstorage_cache::{CacheStats, StorageConfig, StorageConfigKind};
    use hstorage_storage::{ClassifiedRequest, RequestClass, TrimCommand};
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn small_catalog() -> (Catalog, ObjectId) {
        let mut cat = Catalog::new();
        let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 400));
        cat.set_temp_region(BlockRange::new(50_000u64, 1_000));
        (cat, table)
    }

    fn seq_plan(table: ObjectId) -> PlanTree {
        PlanTree::new(
            "seq",
            PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes: 1 }),
        )
    }

    /// [`small_catalog`] plus an index over its table.
    fn indexed_catalog() -> (Catalog, ObjectId, ObjectId) {
        let (mut cat, table) = small_catalog();
        let index = cat.register("idx_orders", ObjectKind::Index, BlockRange::new(400u64, 40));
        (cat, table, index)
    }

    fn random_plan(table: ObjectId, index: ObjectId, lookups: u64) -> PlanTree {
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

    fn cfg() -> ExecutorConfig {
        ExecutorConfig {
            buffer_pool_blocks: 128,
            ..ExecutorConfig::default()
        }
    }

    fn shared_storage() -> Arc<dyn StorageSystem> {
        StorageConfig::new(StorageConfigKind::HStorageDb, 2_000).build_shared()
    }

    #[test]
    fn closed_loop_driver_completes_every_stream() {
        let (cat, table) = small_catalog();
        let storage = shared_storage();
        let registry = ConcurrencyRegistry::new();
        let streams: Vec<StreamSpec> = (0..100)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: vec![seq_plan(table), seq_plan(table)],
            })
            .collect();
        let report = run_streams_service(
            cfg(),
            ServiceConfig {
                workers: 3,
                queue_depth: 8,
            },
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        assert_eq!(report.completed.len(), 200);
        assert_eq!(report.latency.len(), 200);
        assert_eq!(registry.active_queries(), 0);
        assert!(report.latency.p50().expect("non-empty") > Duration::ZERO);
        // The statistics shards cover every completion exactly once and
        // arrive in worker order.
        assert_eq!(report.per_worker.len(), 3);
        let sharded: u64 = report.per_worker.iter().map(|w| w.completed).sum();
        assert_eq!(sharded, 200);
        for (i, shard) in report.per_worker.iter().enumerate() {
            assert_eq!(shard.worker, i);
            assert_eq!(shard.latency.len() as u64, shard.completed);
        }
        // The storage hot path was exercised, so the contention counters
        // are live.
        assert!(report.contention.lock_acquisitions > 0);
        // Grouped by stream, in stream order, two entries each.
        for (i, pair) in report.completed.chunks(2).enumerate() {
            assert!(pair.iter().all(|q| q.stream == format!("s{i}")));
        }
    }

    #[test]
    fn empty_streams_produce_no_results() {
        let (cat, table) = small_catalog();
        let storage = shared_storage();
        let registry = ConcurrencyRegistry::new();
        let streams = vec![
            StreamSpec {
                name: "empty".into(),
                queries: vec![],
            },
            StreamSpec {
                name: "one".into(),
                queries: vec![seq_plan(table)],
            },
        ];
        let report = run_streams_service(
            cfg(),
            ServiceConfig::default(),
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].stream, "one");
    }

    #[test]
    fn try_submit_sheds_load_when_the_queue_is_full() {
        let (cat, table) = small_catalog();
        let storage = shared_storage();
        let registry = ConcurrencyRegistry::new();
        // No worker ever pops: the queue must fill to exactly its depth.
        let svc = QueryService::start(
            cfg(),
            ServiceConfig {
                workers: 1,
                queue_depth: 2,
            },
            PolicyConfig::paper_default(),
            &registry,
            &cat,
            &storage,
        );
        // Flood far faster than one worker can drain (a try_submit is a
        // mutex push; a query is thousands of times more work): the first
        // rejection must be QueueFull with the request handed back intact.
        let (reply, responses) = mpsc::channel();
        let mut accepted = 0usize;
        let mut rejected = None;
        for i in 0..10_000 {
            match svc.try_submit(QueryRequest {
                stream: i,
                plan: seq_plan(table),
                reply: reply.clone(),
            }) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert!(accepted >= 2, "the queue admits up to its depth");
        match rejected.expect("overfill must be rejected") {
            // We broke at the first failure, so the handed-back request is
            // attempt number `accepted`.
            SubmitError::QueueFull(req) => assert_eq!(req.stream, accepted),
            other => panic!("expected QueueFull, got {other}"),
        }
        drop(reply);
        // The accepted requests still complete, and nothing else does.
        let done = responses.iter().count();
        assert_eq!(done, accepted);
        svc.shutdown();
    }

    #[test]
    fn submission_queue_bounds_fills_and_closes() {
        // Deterministic check of the queue mechanism itself, with no
        // worker racing the assertions.
        let (_cat, table) = small_catalog();
        let (reply, _responses) = mpsc::channel();
        let mk = |i: usize| QueryRequest {
            stream: i,
            plan: seq_plan(table),
            reply: reply.clone(),
        };
        let q = SubmissionQueue::new(2);
        assert!(q.try_push(mk(0)).is_ok());
        assert!(q.try_push(mk(1)).is_ok());
        assert_eq!(q.queued(), 2);
        match q.try_push(mk(2)) {
            Err(SubmitError::QueueFull(req)) => assert_eq!(req.stream, 2),
            other => panic!(
                "expected QueueFull, got {other:?}",
                other = other.map(|_| ())
            ),
        }
        // Draining one slot re-opens admission; FIFO order is preserved.
        assert_eq!(q.pop().expect("non-empty").stream, 0);
        assert!(q.try_push(mk(3)).is_ok());
        // After close, producers are refused but the queue drains.
        q.close();
        assert!(matches!(q.push(mk(4)), Err(SubmitError::Closed(_))));
        assert_eq!(q.pop().expect("drains after close").stream, 1);
        assert_eq!(q.pop().expect("drains after close").stream, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocked_producers_and_workers_are_woken() {
        let (_cat, table) = small_catalog();
        let (reply, _responses) = mpsc::channel();
        let mk = |i: usize| QueryRequest {
            stream: i,
            plan: seq_plan(table),
            reply: reply.clone(),
        };
        let patience = Duration::from_secs(10);
        let q = Arc::new(SubmissionQueue::new(1));
        // Waits until `count` reports one thread blocked in the queue.
        let blocked = |count: fn(&QueueState) -> usize| {
            let deadline = std::time::Instant::now() + patience;
            while count(&q.state.lock().expect("queue lock poisoned")) != 1 {
                assert!(std::time::Instant::now() < deadline, "nobody blocked");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // A producer blocked on the full depth-1 queue finishes after a pop.
        q.try_push(mk(0)).expect("the queue has room");
        let (pushed_tx, pushed) = mpsc::channel();
        let producer = {
            let (q, req) = (Arc::clone(&q), mk(1));
            std::thread::spawn(move || pushed_tx.send(q.push(req).is_ok()))
        };
        blocked(|s| s.waiting_producers);
        assert_eq!(q.pop().expect("non-empty").stream, 0);
        let pushed = pushed.recv_timeout(patience);
        assert_eq!(pushed, Ok(true), "a pop must wake the blocked producer");
        producer.join().expect("the producer ran").expect("sent");
        assert_eq!(q.pop().expect("the producer's request").stream, 1);

        // A worker blocked on the empty queue receives a pushed request.
        let (popped_tx, popped) = mpsc::channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || popped_tx.send(q.pop().map(|r| r.stream)))
        };
        blocked(|s| s.waiting_workers);
        q.push(mk(2)).expect("the queue is open");
        let popped = popped.recv_timeout(patience);
        assert_eq!(popped, Ok(Some(2)), "a push must wake the blocked worker");
        worker.join().expect("the worker ran").expect("sent");
    }

    #[test]
    fn submit_after_shutdown_reports_closed() {
        let (cat, table) = small_catalog();
        let storage = shared_storage();
        let registry = ConcurrencyRegistry::new();
        let svc = QueryService::start(
            cfg(),
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
            },
            PolicyConfig::paper_default(),
            &registry,
            &cat,
            &storage,
        );
        svc.queue.close();
        let (reply, _responses) = mpsc::channel();
        let req = QueryRequest {
            stream: 0,
            plan: seq_plan(table),
            reply,
        };
        match svc.submit(req) {
            Err(SubmitError::Closed(req)) => assert_eq!(req.stream, 0),
            other => panic!("expected Closed, got {:?}", other.map(|_| ())),
        }
        svc.shutdown();
    }

    #[test]
    fn dropping_a_service_whose_worker_panicked_does_not_panic() {
        let (cat, table) = small_catalog();
        let storage = shared_storage();
        let registry = ConcurrencyRegistry::new();
        // A zero scan chunk makes `compile` panic inside the worker.
        let broken = ExecutorConfig {
            seq_blocks_per_request: 0,
            ..cfg()
        };
        let svc = QueryService::start(
            broken,
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
            },
            PolicyConfig::paper_default(),
            &registry,
            &cat,
            &storage,
        );
        let (reply, responses) = mpsc::channel();
        svc.submit(QueryRequest {
            stream: 0,
            plan: seq_plan(table),
            reply,
        })
        .expect("the queue is open");
        // The worker dies with the request: its reply sender is dropped
        // unanswered.
        assert!(responses.recv().is_err(), "the worker cannot answer");
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(svc)));
        assert!(dropped.is_ok(), "drop must not re-raise the worker's panic");
    }

    #[test]
    fn closed_loop_run_raises_a_worker_panic_instead_of_hanging() {
        // A zero scan chunk makes `compile` panic inside the worker, which
        // dies holding the only request in flight.
        let (cat, table) = small_catalog();
        let (done_tx, done) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let broken = ExecutorConfig {
                seq_blocks_per_request: 0,
                ..cfg()
            };
            let streams = vec![StreamSpec {
                name: "scan".into(),
                queries: vec![seq_plan(table)],
            }];
            let outcome = std::panic::catch_unwind(|| {
                run_streams_service(
                    broken,
                    ServiceConfig {
                        workers: 1,
                        queue_depth: 1,
                    },
                    PolicyConfig::paper_default(),
                    &ConcurrencyRegistry::new(),
                    &streams,
                    &cat,
                    &shared_storage(),
                )
            });
            let _ = done_tx.send(outcome.is_err());
        });
        let raised = done
            .recv_timeout(Duration::from_secs(10))
            .expect("run_streams_service still blocked after 10 s");
        assert!(raised, "the worker's panic must surface as a panic");
        helper.join().expect("the helper caught the panic");
    }

    #[test]
    fn single_worker_run_is_deterministic() {
        let (cat, table) = small_catalog();
        let registry = ConcurrencyRegistry::new();
        let streams: Vec<StreamSpec> = (0..20)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: vec![seq_plan(table)],
            })
            .collect();
        let run = || {
            let storage = shared_storage();
            run_streams_service(
                cfg(),
                ServiceConfig {
                    workers: 1,
                    queue_depth: 4,
                },
                PolicyConfig::paper_default(),
                &registry,
                &streams,
                &cat,
                &storage,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.stats, y.stats);
        }
        // With one worker the single statistics shard IS the report: the
        // merge preserves sample order bit-exactly.
        assert_eq!(a.per_worker.len(), 1);
        assert_eq!(a.per_worker[0].latency, a.latency);
        assert_eq!(a.per_worker, b.per_worker);
        assert_eq!(a.contention, b.contention);
    }

    #[test]
    fn threaded_driver_completes_all_queries_on_shared_storage() {
        let (cat, table, index) = indexed_catalog();
        let storage: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, 5_000)
                .with_shards(8)
                .build_shared();
        let registry = ConcurrencyRegistry::new();
        let streams = vec![
            StreamSpec {
                name: "s1".into(),
                queries: vec![random_plan(table, index, 500), seq_plan(table)],
            },
            StreamSpec {
                name: "s2".into(),
                queries: vec![seq_plan(table)],
            },
            StreamSpec {
                name: "s3".into(),
                queries: vec![random_plan(table, index, 200)],
            },
        ];
        let report = run_streams_service(
            cfg(),
            ServiceConfig {
                workers: 3,
                queue_depth: 4,
            },
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        let done = report.completed;
        assert_eq!(done.len(), 4);
        assert_eq!(registry.active_queries(), 0);
        assert!(done.iter().all(|q| q.stats.elapsed > Duration::ZERO));
        // Results are grouped by stream, in stream order.
        let order: Vec<&str> = done.iter().map(|q| q.stream.as_str()).collect();
        assert_eq!(order, ["s1", "s1", "s2", "s3"]);
    }

    /// Forwards to an inner storage system while recording every OS
    /// thread that ever touches it — ground truth for the pool bound.
    struct ThreadRecordingStorage {
        inner: Box<dyn StorageSystem>,
        threads: Mutex<HashSet<ThreadId>>,
    }

    impl ThreadRecordingStorage {
        fn record(&self) {
            let mut threads = self.threads.lock().unwrap();
            threads.insert(std::thread::current().id());
        }
    }

    impl StorageSystem for ThreadRecordingStorage {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn submit(&self, req: ClassifiedRequest) {
            self.record();
            self.inner.submit(req);
        }
        fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
            self.record();
            self.inner.submit_batch(reqs);
        }
        fn trim(&self, cmd: &TrimCommand) {
            self.record();
            self.inner.trim(cmd);
        }
        fn stats(&self) -> CacheStats {
            self.inner.stats()
        }
        fn now(&self) -> Duration {
            self.inner.now()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
        fn resident_blocks(&self) -> u64 {
            self.inner.resident_blocks()
        }
    }

    #[test]
    fn threaded_driver_bounds_its_thread_fan_out() {
        // Regression test for the thread-explosion bug: 10,000 single-query
        // streams must not mean 10,000 OS threads. The closed loop completes
        // them all over at most `effective_workers()` workers.
        let mut cat = Catalog::new();
        let tiny = cat.register("tiny", ObjectKind::Table, BlockRange::new(0u64, 1));
        cat.set_temp_region(BlockRange::new(50_000u64, 64));
        let recorder = Arc::new(ThreadRecordingStorage {
            inner: StorageConfig::new(StorageConfigKind::HStorageDb, 1_000)
                .with_shards(8)
                .build(),
            threads: Mutex::new(HashSet::new()),
        });
        let storage: Arc<dyn StorageSystem> = recorder.clone();
        let streams: Vec<StreamSpec> = (0..10_000)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: vec![seq_plan(tiny)],
            })
            .collect();
        let service = ServiceConfig::default();
        let registry = ConcurrencyRegistry::new();
        let report = run_streams_service(
            ExecutorConfig {
                buffer_pool_blocks: 16,
                ..ExecutorConfig::default()
            },
            service,
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &storage,
        );
        let done = report.completed;
        assert_eq!(done.len(), 10_000);
        assert_eq!(registry.active_queries(), 0);
        // Results stay grouped by stream, in stream order.
        assert_eq!(done[0].stream, "s0");
        assert_eq!(done[9_999].stream, "s9999");
        let bound = service.effective_workers();
        let threads = recorder.threads.lock().unwrap().len();
        assert!(
            threads <= bound,
            "{threads} distinct submitter threads exceed the pool bound {bound}"
        );
        assert!(
            threads < 10_000,
            "thread fan-out must not scale with streams"
        );
    }

    #[test]
    fn threaded_driver_with_one_stream_matches_run_query() {
        let (cat, table, index) = indexed_catalog();
        let plans = vec![random_plan(table, index, 400), seq_plan(table)];

        let mut solo_cat = cat.clone();
        let mut exec = QueryExecutor::new(cfg(), PolicyConfig::paper_default());
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
        let solo: Vec<QueryStats> = plans
            .iter()
            .map(|p| exec.run_query(p, &mut solo_cat, storage.as_ref()))
            .collect();

        let shared: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build_shared();
        let streams = vec![StreamSpec {
            name: "only".into(),
            queries: plans,
        }];
        let report = run_streams_service(
            cfg(),
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
            },
            PolicyConfig::paper_default(),
            &ConcurrencyRegistry::new(),
            &streams,
            &cat,
            &shared,
        );
        assert_eq!(report.completed.len(), solo.len());
        for (t, s) in report.completed.iter().zip(&solo) {
            assert_eq!(t.stats.total_blocks(), s.total_blocks());
            assert_eq!(t.stats.total_requests(), s.total_requests());
            for class in RequestClass::all() {
                assert_eq!(t.stats.blocks(class), s.blocks(class), "{class:?}");
            }
        }
    }
}
