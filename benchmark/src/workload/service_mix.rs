//! `service_mix`: short requests through `QueryService`, host timestamps
//! taken by the driver.
//!
//! The only workload where the service layer — bounded queue, condvars,
//! a per-request `mpsc` reply, per-worker executors, the shared
//! `ConcurrencyRegistry` — is a visible share of a request (tens of
//! microseconds of work per request instead of milliseconds), and the only
//! one with enough samples for a p99 that is not the maximum. One driver
//! thread keeps four requests in flight (closed loop) on one worker; a
//! lookup is the median request and a table scan is the tail.

use super::{calibrated, fingerprint, timed_setup, Checks, Measured, Plan, Segment};
use crate::rng::XorShift;
use crate::trace::{Kind, Recorder};
use hstorage_cache::{StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_engine::{
    Access, Catalog, ConcurrencyRegistry, ExecutorConfig, ObjectId, ObjectKind, OperatorKind,
    PlanNode, PlanTree, QueryRequest, QueryResponse, QueryService, ServiceConfig,
};
use hstorage_storage::{BlockRange, PolicyConfig, RequestClass};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CACHE_BLOCKS: u64 = 32_768;
pub const SHARDS: usize = 8;
const IN_FLIGHT: usize = 4;
const QUEUE_DEPTH: usize = 64;
const BUFFER_POOL_BLOCKS: u64 = 2_048;

/// Requests per segment at `--seconds 10` (16 segments: 4·10⁵ in all).
const REQUESTS_PER_SEGMENT_10S: u64 = 25_000;
const REQUESTS_PER_SEGMENT_QUICK: u64 = 256;

/// How long the driver waits for a reply before it counts the request as
/// lost (a healthy reply takes microseconds to milliseconds).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The database the requests run on: a lookup table with its index (the
/// working set, far larger than the cache), a small table that gets
/// scanned, and a temp region.
pub struct Database {
    pub catalog: Catalog,
    lookup_table: ObjectId,
    lookup_index: ObjectId,
    scan_table: ObjectId,
}

const LOOKUP_TABLE_BLOCKS: u64 = 200_000;
const LOOKUP_INDEX_BLOCKS: u64 = 20_000;
const SCAN_TABLE_BLOCKS: u64 = 4_096;
/// Per worker: the service gives each worker its own copy of the region.
const TEMP_REGION_BLOCKS: u64 = 4_096;

impl Database {
    pub fn build() -> Self {
        let mut catalog = Catalog::new();
        let mut cursor = 0;
        let mut place = |name: &str, kind: ObjectKind, blocks: u64| {
            let oid = catalog.register(name, kind, BlockRange::new(cursor, blocks));
            cursor += blocks;
            oid
        };
        let lookup_table = place("accounts", ObjectKind::Table, LOOKUP_TABLE_BLOCKS);
        let lookup_index = place("accounts_pkey", ObjectKind::Index, LOOKUP_INDEX_BLOCKS);
        let scan_table = place("branches", ObjectKind::Table, SCAN_TABLE_BLOCKS);
        // Last in the address space: worker `i` spills at `start + i·len`.
        catalog.set_temp_region(BlockRange::new(cursor, TEMP_REGION_BLOCKS));
        Database {
            catalog,
            lookup_table,
            lookup_index,
            scan_table,
        }
    }
}

/// One request of the mix, as generated from the seed.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// 85 %: an index scan of 4–16 probes.
    Lookup { probes: u64 },
    /// 6 %: an update of 8 blocks.
    Update,
    /// 6 %: a 64-block spill, read back once and trimmed.
    Spill,
    /// 3 %: a scan of the small table.
    Scan,
}

impl Request {
    pub fn draw(rng: &mut XorShift) -> Self {
        match rng.below(100) {
            0..=84 => Request::Lookup {
                probes: 4 + rng.below(13),
            },
            85..=90 => Request::Update,
            91..=96 => Request::Spill,
            _ => Request::Scan,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Request::Lookup { probes } => probes,
            Request::Update => 101,
            Request::Spill => 102,
            Request::Scan => 103,
        }
    }

    /// The plan a front end hands the service for this request. Built per
    /// request inside the timed region, as `TpchSystem::run` builds one
    /// per query.
    pub fn plan(self, db: &Database) -> PlanTree {
        let (name, kind, access) = match self {
            Request::Lookup { probes } => (
                "lookup",
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index: db.lookup_index,
                    table: db.lookup_table,
                    lookups: probes,
                    index_hot_fraction: 0.25,
                    table_hot_fraction: 1.0,
                },
            ),
            Request::Update => (
                "update",
                OperatorKind::Update,
                Access::Update {
                    table: db.lookup_table,
                    blocks: 8,
                },
            ),
            Request::Spill => (
                "spill",
                OperatorKind::Sort,
                Access::TempSpill {
                    blocks: 64,
                    read_passes: 1,
                },
            ),
            Request::Scan => (
                "scan",
                OperatorKind::SeqScan,
                Access::SeqScan {
                    table: db.scan_table,
                    passes: 1,
                },
            ),
        };
        PlanTree::new(name, PlanNode::leaf(kind, access))
    }
}

pub fn executor_config(seed: u64) -> ExecutorConfig {
    ExecutorConfig {
        buffer_pool_blocks: BUFFER_POOL_BLOCKS,
        seed,
        ..ExecutorConfig::default()
    }
}

/// One worker: the process runs on one CPU (see `machine::pin`), where
/// more workers only add context switches — and with one worker requests
/// execute in submission order, so simulated results are exact.
const WORKERS: usize = 1;

/// A running service with the channel its replies arrive on.
struct Rig {
    db: Database,
    storage: Arc<dyn StorageSystem>,
    service: QueryService,
    reply: mpsc::Sender<QueryResponse>,
    replies: mpsc::Receiver<QueryResponse>,
}

impl Rig {
    fn start(plan: &Plan, storage: Arc<dyn StorageSystem>) -> Self {
        let db = Database::build();
        let service = QueryService::start(
            executor_config(plan.size.seed),
            ServiceConfig {
                workers: WORKERS,
                queue_depth: QUEUE_DEPTH,
            },
            PolicyConfig::paper_default(),
            &ConcurrencyRegistry::new(),
            &db.catalog,
            &storage,
        );
        let (reply, replies) = mpsc::channel();
        Rig {
            db,
            storage,
            service,
            reply,
            replies,
        }
    }
}

/// Per-segment tallies beside the [`Segment`] itself.
#[derive(Default)]
struct Tally {
    submitted_blocks: u64,
    buffer_pool: (u64, u64),
}

/// Runs one segment: a closed loop with [`IN_FLIGHT`] requests outstanding
/// until every request of `requests` has been answered (or given up on).
/// `first_id` makes request ids unique across segments.
fn run_segment(
    rig: &Rig,
    plan: &Plan,
    requests: &[Request],
    first_id: usize,
    answered: &mut [u8],
    checks: &mut Checks,
    tally: &mut Tally,
) -> Segment {
    let recorder = plan.recorder.as_deref();
    let mut segment = Segment::new(requests.len());
    let mut submitted_at = vec![Instant::now(); requests.len()];
    let mut next = 0;
    let mut in_flight = 0;
    let _counting = Recorder::count_allocations(recorder);
    let start = Instant::now();
    loop {
        while in_flight < IN_FLIGHT && next < requests.len() {
            submitted_at[next] = Instant::now();
            let tree = match recorder {
                Some(r) => r.time(Kind::PlanBuild, || requests[next].plan(&rig.db)),
                None => requests[next].plan(&rig.db),
            };
            let request = QueryRequest {
                stream: first_id + next,
                plan: tree,
                reply: rig.reply.clone(),
            };
            let submit_start = recorder.map(|_| Instant::now());
            let outcome = rig.service.submit(request);
            if let (Some(r), Some(start)) = (recorder, submit_start) {
                r.record(Kind::ServiceSubmit, start.elapsed(), 0);
            }
            checks.attempted(1);
            match outcome {
                Ok(()) => in_flight += 1,
                Err(e) => checks.fail(format!("request {} rejected: {e}", first_id + next)),
            }
            next += 1;
        }
        if in_flight == 0 {
            break;
        }
        let Ok(response) = rig.replies.recv_timeout(REPLY_TIMEOUT) else {
            checks.fail(format!(
                "{in_flight} requests got no reply in {REPLY_TIMEOUT:?}"
            ));
            break;
        };
        let now = Instant::now();
        in_flight -= 1;
        let local = response.stream.wrapping_sub(first_id);
        if local >= requests.len() || answered[response.stream] > 0 {
            checks.fail(format!(
                "unexpected or duplicate reply for request {}",
                response.stream
            ));
            continue;
        }
        answered[response.stream] += 1;
        let latency = now - submitted_at[local];
        segment.latencies_ns.push(latency.as_nanos() as u64);
        if let Some(r) = recorder {
            r.record(Kind::ServiceRoundtrip, latency, 0);
        }
        segment.queries += 1;
        segment.requests += response.stats.total_requests();
        tally.submitted_blocks +=
            response.stats.total_blocks() - response.stats.blocks(RequestClass::TemporaryDataTrim);
        tally.buffer_pool.0 += response.stats.buffer_pool_hits;
        tally.buffer_pool.1 += response.stats.buffer_pool_misses;
    }
    segment.wall = start.elapsed();
    segment
}

pub fn measure(plan: &Plan) -> Measured {
    let per_segment = plan
        .size
        .count(REQUESTS_PER_SEGMENT_10S, REQUESTS_PER_SEGMENT_QUICK) as usize;
    let mut requests: Vec<Request> = Vec::with_capacity(per_segment);
    let mut print = 0;
    let mut generate = |rng: &mut XorShift, requests: &mut Vec<Request>| {
        requests.clear();
        for _ in 0..per_segment {
            let request = Request::draw(rng);
            print = fingerprint(print, request.tag());
            requests.push(request);
        }
    };

    // Set-up: catalog, storage, worker pool, and one untimed warm-up
    // segment that fills the cache and the workers' buffer pools. The
    // tracing wrapper goes on before the service starts, because workers
    // keep the storage handle they are given; it records nothing until
    // the timed work begins.
    let ((rig, mut rng), setup_s) = timed_setup(plan.setup_rounds, || {
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, CACHE_BLOCKS)
            .with_shards(SHARDS)
            .build_shared();
        let rig = Rig::start(plan, plan.traced(storage));
        let mut rng = XorShift::new(plan.size.seed);
        generate(&mut rng, &mut requests);
        let mut scratch = vec![0u8; per_segment];
        run_segment(
            &rig,
            plan,
            &requests,
            0,
            &mut scratch,
            &mut Checks::default(),
            &mut Tally::default(),
        );
        (rig, rng)
    });
    plan.spans_on();
    rig.storage.reset_stats();
    let sim_start = rig.storage.now();

    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut answered = vec![0u8; per_segment * plan.segments];
    let mut segments = Vec::with_capacity(plan.segments);
    for index in 0..plan.segments {
        generate(&mut rng, &mut requests);
        segments.push(calibrated(|| {
            run_segment(
                &rig,
                plan,
                &requests,
                index * per_segment,
                &mut answered,
                &mut checks,
                &mut tally,
            )
        }));
    }
    let sim_s = (rig.storage.now() - sim_start).as_secs_f64();
    let stats = rig.storage.stats();

    // Every request answered exactly once, and no worker died.
    let unanswered = answered.iter().filter(|a| **a != 1).count();
    checks.check(unanswered == 0, || {
        format!("{unanswered} requests were not answered exactly once")
    });
    let Rig { service, .. } = rig;
    let threads = 1 + service.worker_count();
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.shutdown()));
    checks.check(joined.is_ok(), || "a service worker panicked".to_string());

    Measured {
        setup_s,
        segments,
        sim_s,
        stats,
        submitted_blocks: tally.submitted_blocks,
        threads,
        input_fingerprint: print,
        buffer_pool: tally.buffer_pool,
        checks,
    }
}
