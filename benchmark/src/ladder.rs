//! The layer ladder: one public function per layer, called in a standalone
//! single-thread loop of at least 200 ms, reported as nanoseconds per call.
//!
//! A rung is measured in chunks of a fixed number of calls and reported as
//! the median chunk in calibrated nanoseconds, the same estimator the
//! workloads use. Rungs depend on
//! no workload: they say what a layer costs alone, the spans of a traced
//! run say what it costs in context, and the ledger sets one against the
//! other.

use crate::calibrate;
use crate::estimate::summarize;
use crate::machine::{nproc, with_all_cpus};
use crate::rng::XorShift;
use crate::workload::cache_hits::{hit, prefill, RESIDENT};
use crate::workload::cache_mixed::{build_cache, CACHE_BLOCKS};
use crate::workload::service_mix::{self, Database, Request};
use hstorage_engine::{
    compile, BufferPool, ConcurrencyRegistry, ContentType, OperatorKind, PlanNode, PlanTree,
    PolicyAssignmentTable, QueryRequest, QueryService, SemanticInfo, ServiceConfig,
};
use hstorage_storage::{
    BlockAddr, BlockRange, HddDevice, IoRequest, PolicyConfig, SimClock, SsdDevice, StorageDevice,
};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a rung runs and how finely it is cut.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub min: Duration,
    pub min_chunks: usize,
}

impl Effort {
    pub fn full() -> Self {
        Effort {
            min: Duration::from_millis(200),
            min_chunks: 8,
        }
    }

    pub fn quick() -> Self {
        Effort {
            min: Duration::from_millis(5),
            min_chunks: 3,
        }
    }

    /// Runs chunks of `chunk` calls of `body(i)` until both minimums are
    /// met; returns the median chunk's calibrated nanoseconds per call.
    fn rung(&self, chunk: u64, mut body: impl FnMut(u64)) -> f64 {
        let (per_call, _, speed) = calibrate::timed(|| {
            let mut per_call = Vec::new();
            let mut i = 0;
            let begin = Instant::now();
            while per_call.len() < self.min_chunks || begin.elapsed() < self.min {
                let start = Instant::now();
                for _ in 0..chunk {
                    body(i);
                    i += 1;
                }
                per_call.push(start.elapsed().as_nanos() as f64 / chunk as f64);
            }
            per_call
        });
        summarize(&per_call).median * speed
    }
}

/// Every rung, by the per-layer metric name it is reported under.
pub fn run(effort: Effort, seed: u64) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    let mut rng = XorShift::new(seed);

    // engine.compile: the service_mix request mix on its own catalog. A
    // spill leaves a temp file in the catalog it is compiled on, so each
    // 1024-call chunk starts from a fresh clone (three objects: noise
    // beside the chunk it is timed with).
    let mix_db = Database::build();
    let plans: Vec<PlanTree> = (0..1024)
        .map(|_| Request::draw(&mut rng).plan(&mix_db))
        .collect();
    let options = service_mix::executor_config(seed).compile_options();
    let mut catalog = mix_db.catalog.clone();
    rows.push((
        "engine.compile_ns",
        effort.rung(1024, |i| {
            if i % 1024 == 0 {
                catalog = mix_db.catalog.clone();
            }
            black_box(compile(
                &plans[i as usize % plans.len()],
                &mut catalog,
                options,
            ));
        }),
    ));

    // engine.policy_table: one rung per request class (Rules 1–4).
    let table = PolicyAssignmentTable::new(PolicyConfig::paper_default());
    let registry = ConcurrencyRegistry::new();
    let oid = mix_db.catalog.by_name("accounts").expect("registered").oid;
    let running = plans
        .iter()
        .find(|p| p.name == "lookup")
        .expect("the mix is 85 % lookups");
    let _ticket = registry.register_query(running);
    for (name, info) in [
        (
            "engine.policy_table.assign_ns.random",
            SemanticInfo::random_access(oid, ContentType::RegularTable, 0),
        ),
        (
            "engine.policy_table.assign_ns.sequential",
            SemanticInfo::sequential_scan(oid, 0),
        ),
        (
            "engine.policy_table.assign_ns.temp",
            SemanticInfo::temporary(oid, true),
        ),
        (
            "engine.policy_table.assign_ns.update",
            SemanticInfo::update(oid),
        ),
    ] {
        rows.push((
            name,
            effort.rung(100_000, |_| {
                black_box(table.assign(black_box(&info), &registry, (0, 0)));
            }),
        ));
    }

    // engine.buffer_pool: uniform accesses over four times its capacity.
    let mut pool = BufferPool::new(2_048);
    let addrs: Vec<BlockAddr> = (0..65_536).map(|_| BlockAddr(rng.below(8_192))).collect();
    rows.push((
        "engine.buffer_pool.access_ns",
        effort.rung(65_536, |i| {
            black_box(pool.access(addrs[i as usize % addrs.len()], true));
        }),
    ));

    // engine.service: an empty plan through one worker, one in flight.
    let storage = build_cache();
    let service = QueryService::start(
        service_mix::executor_config(seed),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
        },
        PolicyConfig::paper_default(),
        &ConcurrencyRegistry::new(),
        &mix_db.catalog,
        &storage,
    );
    let (reply, replies) = mpsc::channel();
    let empty = PlanTree::new(
        "empty",
        PlanNode::leaf(OperatorKind::Result, hstorage_engine::Access::None),
    );
    rows.push((
        "engine.service.roundtrip_ns",
        effort.rung(2_000, |i| {
            let request = QueryRequest {
                stream: i as usize,
                plan: empty.clone(),
                reply: reply.clone(),
            };
            service.submit(request).expect("the service is running");
            black_box(replies.recv().expect("the worker replies"));
        }),
    ));
    service.shutdown();

    // cache.submit: slow-path hits (a different resident block each
    // time), repeat hits (the same block again), and misses on a full
    // cache (allocate + evict).
    prefill(storage.as_ref());
    rows.push((
        "cache.submit.hit_ns",
        effort.rung(RESIDENT, |i| storage.submit(hit(i % RESIDENT))),
    ));
    rows.push((
        "cache.submit.repeat_hit_ns",
        effort.rung(RESIDENT, |_| storage.submit(hit(0))),
    ));
    // The same hits from `nproc` threads at once, on all CPUs: what a
    // submit costs each thread when all of them contend for the shards,
    // the device mutex and the clock. Unbounded, and noisy on a shared box
    // (see cache_hits.rs).
    let threads = nproc();
    rows.push(("cache.submit.contended_threads", threads as f64));
    let contended = with_all_cpus(|| {
        effort.rung(RESIDENT, |chunk_start| {
            // One call of the body is one submit per thread; a chunk is
            // spawned once, at its first call.
            if chunk_start % RESIDENT == 0 {
                std::thread::scope(|scope| {
                    for lane in 0..threads as u64 {
                        let storage = storage.as_ref();
                        scope.spawn(move || {
                            let mut rng = XorShift::lane(seed, lane);
                            for _ in 0..RESIDENT {
                                storage.submit(hit(rng.below(RESIDENT)));
                            }
                        });
                    }
                });
            }
        })
    });
    rows.push(("cache.submit.contended_hit_ns", contended));
    rows.push((
        "cache.stats.snapshot_ns",
        effort.rung(1_000, |_| {
            black_box(storage.stats());
        }),
    ));
    let cold: Vec<u64> = (0..65_536)
        .map(|_| (1 << 20) + rng.below(64 * CACHE_BLOCKS))
        .collect();
    for addr in &cold {
        storage.submit(hit(*addr));
    }
    rows.push((
        "cache.submit.miss_ns",
        effort.rung(65_536, |i| {
            // Shifting by the chunk number keeps every address new.
            storage.submit(hit(cold[i as usize % cold.len()] + (i >> 16) * (1 << 23)))
        }),
    ));

    // storage: the device models and the clock, alone.
    let ssd = SsdDevice::intel_320(SimClock::new());
    let hdd = HddDevice::cheetah(SimClock::new());
    let random_read = |i: u64| IoRequest::read(BlockRange::new(i % RESIDENT, 1), false);
    rows.push((
        "storage.ssd.serve_ns",
        effort.rung(100_000, |i| {
            black_box(ssd.serve(&random_read(i)));
        }),
    ));
    rows.push((
        "storage.hdd.serve_ns",
        effort.rung(100_000, |i| {
            black_box(hdd.serve(&random_read(i)));
        }),
    ));
    let queue: Vec<IoRequest> = (0..16)
        .map(|i| IoRequest::read(BlockRange::new(i * 32, 32), true))
        .collect();
    rows.push((
        "storage.ssd.serve_batch_ns_per_req",
        effort.rung(10_000, |_| {
            black_box(ssd.serve_batch(black_box(&queue)));
        }) / queue.len() as f64,
    ));
    let clock = SimClock::new();
    rows.push((
        "storage.clock.advance_ns",
        effort.rung(1_000_000, |_| {
            black_box(clock.advance(black_box(Duration::from_nanos(25_316))));
        }),
    ));
    rows
}
