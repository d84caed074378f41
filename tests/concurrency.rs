//! Concurrency tests for the shared storage service: sharded/unsharded
//! equivalence of the hybrid cache, and agreement between the threaded
//! query-service driver, the deterministic slicer and plain single-query
//! execution.

use hstorage_cache::{CacheEngine, CacheStats, StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_engine::{
    run_concurrent, run_streams_service, Access, Catalog, CompletedQuery, ConcurrencyRegistry,
    ExecutorConfig, ObjectKind, OperatorKind, PlanNode, PlanTree, QueryExecutor, ServiceConfig,
    StreamSpec,
};
use hstorage_storage::{
    BlockAddr, BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    TrimCommand,
};
use proptest::prelude::*;
use std::sync::Arc;

mod common;

// ---------------------------------------------------------------------------
// Sharded vs unsharded hybrid cache equivalence
// ---------------------------------------------------------------------------

enum Event {
    Req(ClassifiedRequest),
    Trim(TrimCommand),
}

/// A deterministic trace covering every request class the cache handles.
/// The working set stays far below the cache capacity (and below every
/// shard's slice of it), so allocation, hits, reallocation, trims and
/// write-buffer behaviour are identical whether eviction decisions are
/// global (1 shard) or shard-local (8 shards).
fn deterministic_trace() -> Vec<Event> {
    let mut events = Vec::new();
    let read = |start: u64, len: u64, class: RequestClass, policy: QosPolicy| {
        Event::Req(ClassifiedRequest::new(
            IoRequest::read(
                BlockRange::new(start, len),
                matches!(class, RequestClass::Sequential),
            ),
            class,
            policy,
        ))
    };
    let write = |start: u64, len: u64, class: RequestClass, policy: QosPolicy| {
        Event::Req(ClassifiedRequest::new(
            IoRequest::write(BlockRange::new(start, len), false),
            class,
            policy,
        ))
    };

    // Random reads at mixed priorities, twice (second pass hits).
    for round in 0..2 {
        for i in 0..400u64 {
            let prio = 2 + ((i + round) % 5) as u8;
            events.push(read(i, 1, RequestClass::Random, QosPolicy::priority(prio)));
        }
    }
    // Multi-block random reads spanning shards.
    for i in 0..50u64 {
        events.push(read(
            1_000 + i * 16,
            16,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
    }
    // A sequential scan over cached and uncached blocks (bypass + hits).
    events.push(read(
        0,
        600,
        RequestClass::Sequential,
        QosPolicy::NonCachingNonEviction,
    ));
    // Temporary data lifecycle: write, read back, demote, trim.
    events.push(write(
        5_000,
        200,
        RequestClass::TemporaryData,
        QosPolicy::priority(1),
    ));
    events.push(read(
        5_000,
        200,
        RequestClass::TemporaryData,
        QosPolicy::priority(1),
    ));
    events.push(read(
        5_000,
        100,
        RequestClass::TemporaryDataTrim,
        QosPolicy::NonCachingEviction,
    ));
    events.push(Event::Trim(TrimCommand::single(BlockRange::new(
        5_000u64, 200,
    ))));
    // Buffered updates: 40 blocks spread evenly over the 8 shard residues,
    // staying below both the global and every per-shard flush threshold.
    for i in 0..40u64 {
        events.push(write(
            8_000 + i,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
    }
    events
}

fn replay_on(cache: &CacheEngine, events: &[Event]) -> CacheStats {
    for event in events {
        match event {
            Event::Req(req) => cache.submit(*req),
            Event::Trim(cmd) => cache.trim(cmd),
        }
    }
    cache.stats()
}

#[test]
fn sharded_and_unsharded_caches_agree_on_a_deterministic_trace() {
    let events = deterministic_trace();
    let unsharded = CacheEngine::new(&common::hstorage(4_096, 1));
    let sharded = CacheEngine::new(&common::hstorage(4_096, 8));
    assert_eq!(unsharded.shard_count(), 1);
    assert_eq!(sharded.shard_count(), 8);

    let s1 = replay_on(&unsharded, &events);
    let s8 = replay_on(&sharded, &events);

    // Aggregate statistics — class and priority counters, all cache
    // actions, resident blocks and even device traffic — are identical.
    assert_eq!(s1, s8);
    assert_eq!(unsharded.resident_blocks(), sharded.resident_blocks());
    assert_eq!(
        unsharded.write_buffer_resident(),
        sharded.write_buffer_resident()
    );
    // And the traces actually exercised the interesting paths.
    assert!(s1.totals().cache_hits > 0);
    assert!(s1.action(hstorage_cache::CacheAction::Trim) > 0);
    assert!(s1.action(hstorage_cache::CacheAction::ReAllocation) > 0);
    assert!(s1.action(hstorage_cache::CacheAction::WriteAllocation) > 0);
}

#[test]
fn sharded_and_unsharded_engines_agree_under_every_policy() {
    // The same contract as the semantic default: as long as the working
    // set fits every shard's capacity slice, lock striping is
    // observationally invisible no matter which replacement policy drives
    // the engine.
    let events = deterministic_trace();
    let migration = common::matrix_migration();
    for kind in common::matrix_kinds() {
        let unsharded = CacheEngine::new(
            &common::hstorage(4_096, 1)
                .with_cache_policy(kind)
                .with_migration(migration),
        );
        let sharded = CacheEngine::new(
            &common::hstorage(4_096, 8)
                .with_cache_policy(kind)
                .with_migration(migration),
        );
        let s1 = replay_on(&unsharded, &events);
        let s8 = replay_on(&sharded, &events);
        assert_eq!(s1, s8, "{kind}");
        assert_eq!(
            unsharded.resident_blocks(),
            sharded.resident_blocks(),
            "{kind}"
        );
        assert!(s1.totals().cache_hits > 0, "{kind}");
    }
}

#[test]
fn concurrent_threads_are_fully_accounted_under_every_policy() {
    // Four threads on disjoint address ranges: every policy must account
    // every access exactly once through the lock-striped engine.
    for kind in common::matrix_kinds() {
        let cache = CacheEngine::new(
            &common::hstorage(8_192, 8)
                .with_cache_policy(kind)
                .with_migration(common::matrix_migration()),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        cache.submit(ClassifiedRequest::new(
                            IoRequest::read(BlockRange::new(t * 100_000 + i, 1), false),
                            RequestClass::Random,
                            QosPolicy::priority(2 + (i % 5) as u8),
                        ));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.class(RequestClass::Random).accessed_blocks,
            4_000,
            "{kind}"
        );
        // Disjoint addresses, ample capacity: every block was admitted
        // (the semantic policy bypasses nothing at these priorities).
        assert_eq!(cache.resident_blocks(), 4_000, "{kind}");
    }
}

/// An arbitrary request whose address space stays far below the per-shard
/// capacity slice, so sharded and unsharded runs never diverge through
/// shard-local eviction. Write-buffer requests are exercised by the
/// deterministic test above (their flush threshold is intentionally
/// shard-local, so adversarial address clustering may flush one shard
/// early).
fn arb_bounded_request() -> impl Strategy<Value = ClassifiedRequest> {
    (0u64..400, 1u64..16, 0usize..4, any::<bool>()).prop_map(|(start, len, class, is_write)| {
        let (class, policy, sequential) = match class {
            0 => (
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
                true,
            ),
            1 => (RequestClass::Random, QosPolicy::priority(2), false),
            2 => (RequestClass::Random, QosPolicy::priority(5), false),
            _ => (RequestClass::TemporaryData, QosPolicy::priority(1), false),
        };
        let io = if is_write {
            IoRequest::write(BlockRange::new(start, len), sequential)
        } else {
            IoRequest::read(BlockRange::new(start, len), sequential)
        };
        ClassifiedRequest::new(io, class, policy)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any trace whose working set fits every shard, the sharded cache
    /// is observationally identical to the unsharded one.
    #[test]
    fn sharded_cache_equivalence_holds_for_arbitrary_bounded_traces(
        requests in prop::collection::vec(arb_bounded_request(), 1..150),
        trim_start in 0u64..400,
        do_trim in any::<bool>(),
    ) {
        let unsharded = CacheEngine::new(&common::hstorage(4_096, 1));
        let sharded = CacheEngine::new(&common::hstorage(4_096, 8));
        for req in &requests {
            unsharded.submit(*req);
            sharded.submit(*req);
        }
        if do_trim {
            let cmd = TrimCommand::single(BlockRange::new(trim_start, 32));
            unsharded.trim(&cmd);
            sharded.trim(&cmd);
        }
        prop_assert_eq!(unsharded.stats(), sharded.stats());
        prop_assert_eq!(unsharded.resident_blocks(), sharded.resident_blocks());
    }

    /// The same striping-invisibility property holds for the engine under
    /// every non-default replacement policy.
    #[test]
    fn sharded_engine_equivalence_holds_for_every_policy(
        requests in prop::collection::vec(arb_bounded_request(), 1..100),
    ) {
        for kind in common::matrix_kinds() {
            let engine = |shards| {
                CacheEngine::new(
                    &common::hstorage(4_096, shards)
                        .with_cache_policy(kind)
                        .with_migration(common::matrix_migration()),
                )
            };
            let (unsharded, sharded) = (engine(1), engine(8));
            for req in &requests {
                unsharded.submit(*req);
                sharded.submit(*req);
            }
            prop_assert_eq!(unsharded.stats(), sharded.stats(), "{}", kind);
            prop_assert_eq!(unsharded.resident_blocks(), sharded.resident_blocks());
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded driver vs deterministic slicer vs plain execution
// ---------------------------------------------------------------------------

fn catalog() -> (
    Catalog,
    hstorage_engine::ObjectId,
    hstorage_engine::ObjectId,
) {
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

fn seq_plan(table: hstorage_engine::ObjectId) -> PlanTree {
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
    table: hstorage_engine::ObjectId,
    index: hstorage_engine::ObjectId,
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

fn spill_plan() -> PlanTree {
    PlanTree::new(
        "spill",
        PlanNode::leaf(
            OperatorKind::Hash,
            Access::TempSpill {
                blocks: 128,
                read_passes: 1,
            },
        ),
    )
}

/// With the DBMS buffer pool disabled, every random access reaches storage
/// no matter how streams interleave, so the block counts of the threaded
/// driver must equal those of the deterministic slicer exactly.
fn no_pool_config() -> ExecutorConfig {
    ExecutorConfig {
        buffer_pool_blocks: 0,
        ..ExecutorConfig::default()
    }
}

/// Runs `streams` through the query service at `workers` OS threads, in a
/// closed loop under the paper's policy, against the shared `storage`.
fn run_on_service(
    config: ExecutorConfig,
    workers: usize,
    streams: &[StreamSpec],
    catalog: &Catalog,
    storage: &Arc<dyn StorageSystem>,
) -> Vec<CompletedQuery> {
    let registry = ConcurrencyRegistry::new();
    let service = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let policy = PolicyConfig::paper_default();
    let report = run_streams_service(
        config, service, policy, &registry, streams, catalog, storage,
    );
    assert_eq!(registry.active_queries(), 0);
    report.completed
}

fn three_streams(
    table: hstorage_engine::ObjectId,
    index: hstorage_engine::ObjectId,
) -> Vec<StreamSpec> {
    vec![
        StreamSpec {
            name: "s1".into(),
            queries: vec![random_plan(table, index, 600), seq_plan(table)],
        },
        StreamSpec {
            name: "s2".into(),
            queries: vec![seq_plan(table), spill_plan()],
        },
        StreamSpec {
            name: "s3".into(),
            queries: vec![random_plan(table, index, 300)],
        },
    ]
}

#[test]
fn threaded_driver_serves_the_same_blocks_as_the_deterministic_slicer() {
    let (cat, table, index) = catalog();
    let streams = three_streams(table, index);
    let policy = PolicyConfig::paper_default();

    // Deterministic slicer on its own storage instance.
    let mut slicer_cat = cat.clone();
    let mut exec = QueryExecutor::new(no_pool_config(), policy);
    let slicer_storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
    let sliced = run_concurrent(
        &mut exec,
        &streams,
        &mut slicer_cat,
        slicer_storage.as_ref(),
        16,
    );

    // Three service workers against one shared Arc<CacheEngine>.
    let shared: Arc<dyn StorageSystem> = Arc::new(CacheEngine::new(
        &common::hstorage(5_000, 8).with_policy(policy),
    ));
    let threaded = run_on_service(no_pool_config(), 3, &streams, &cat, &shared);

    assert_eq!(sliced.len(), 5);
    assert_eq!(threaded.len(), 5);
    let total = |qs: &[CompletedQuery]| -> u64 { qs.iter().map(|q| q.stats.total_blocks()).sum() };
    assert_eq!(total(&threaded), total(&sliced));
    // Per-class totals agree too.
    for class in RequestClass::all() {
        let sliced_blocks: u64 = sliced.iter().map(|q| q.stats.blocks(class)).sum();
        let threaded_blocks: u64 = threaded.iter().map(|q| q.stats.blocks(class)).sum();
        assert_eq!(sliced_blocks, threaded_blocks, "{class:?}");
    }
    // The shared cache saw exactly the threaded drivers' block total, minus
    // the TempDelete blocks, which reach storage as TRIM commands rather
    // than classified requests.
    let trim_blocks: u64 = threaded
        .iter()
        .map(|q| q.stats.blocks(RequestClass::TemporaryDataTrim))
        .sum();
    assert_eq!(
        shared.stats().totals().accessed_blocks,
        total(&threaded) - trim_blocks
    );
}

#[test]
fn threaded_driver_with_one_stream_matches_run_query_exactly() {
    let (cat, table, index) = catalog();
    let policy = PolicyConfig::paper_default();
    let plans = vec![
        random_plan(table, index, 500),
        spill_plan(),
        seq_plan(table),
    ];
    let config = ExecutorConfig {
        buffer_pool_blocks: 256,
        ..ExecutorConfig::default()
    };

    let mut solo_cat = cat.clone();
    let mut exec = QueryExecutor::new(config, policy);
    let solo_storage = StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build();
    let solo: Vec<_> = plans
        .iter()
        .map(|p| exec.run_query(p, &mut solo_cat, solo_storage.as_ref()))
        .collect();

    let shared: Arc<dyn StorageSystem> =
        StorageConfig::new(StorageConfigKind::HStorageDb, 5_000).build_shared();
    let streams = vec![StreamSpec {
        name: "only".into(),
        queries: plans,
    }];
    let threaded = run_on_service(config, 1, &streams, &cat, &shared);

    assert_eq!(threaded.len(), solo.len());
    for (t, s) in threaded.iter().zip(&solo) {
        assert_eq!(t.stats.total_blocks(), s.total_blocks());
        assert_eq!(t.stats.total_requests(), s.total_requests());
        assert_eq!(t.stats.buffer_pool_hits, s.buffer_pool_hits);
        for class in RequestClass::all() {
            assert_eq!(t.stats.blocks(class), s.blocks(class), "{class:?}");
        }
    }
    // Identical request streams produce identical storage-side state.
    assert_eq!(shared.resident_blocks(), solo_storage.resident_blocks());
    assert_eq!(shared.stats(), solo_storage.stats());
}

#[test]
fn concurrent_spilling_streams_use_disjoint_temp_blocks() {
    // Each service worker gets a disjoint copy of the temp region, so two
    // streams spilling at the same time never alias each other's temporary
    // blocks: every temp read hits the block its own stream wrote, and every
    // stream's end-of-lifetime TRIM removes exactly its own 128 blocks.
    let (cat, _, _) = catalog();
    let policy = PolicyConfig::paper_default();
    let streams = vec![
        StreamSpec {
            name: "spill-a".into(),
            queries: vec![spill_plan()],
        },
        StreamSpec {
            name: "spill-b".into(),
            queries: vec![spill_plan()],
        },
    ];
    let shared: Arc<dyn StorageSystem> = Arc::new(CacheEngine::new(
        &common::hstorage(5_000, 8).with_policy(policy),
    ));
    let completed = run_on_service(no_pool_config(), 2, &streams, &cat, &shared);
    assert_eq!(completed.len(), 2);

    let stats = shared.stats();
    // 128 written + 128 read back per stream; all reads served from cache.
    assert_eq!(
        stats.class(RequestClass::TemporaryData).accessed_blocks,
        512
    );
    assert_eq!(stats.class(RequestClass::TemporaryData).cache_hits, 256);
    // Both lifetimes ended in a TRIM of exactly their own blocks, and no
    // temporary data survives.
    assert_eq!(stats.action(hstorage_cache::CacheAction::Trim), 256);
    assert_eq!(shared.resident_blocks(), 0);
}

#[test]
fn concurrent_threads_never_lose_blocks_on_a_shared_cache() {
    // Raw storage-level stress: four threads hammer one sharded cache with
    // disjoint block ranges; every access must be accounted exactly once.
    let cache = Arc::new(CacheEngine::new(&common::hstorage(8_192, 8)));
    let per_thread = 2_000u64;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..per_thread {
                    let addr = t * 100_000 + i;
                    cache.submit(ClassifiedRequest::new(
                        IoRequest::read(BlockRange::new(addr, 1), false),
                        RequestClass::Random,
                        QosPolicy::priority(2 + (i % 5) as u8),
                    ));
                }
                cache.trim(&TrimCommand::single(BlockRange::new(
                    t * 100_000,
                    per_thread / 2,
                )));
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.class(RequestClass::Random).accessed_blocks,
        4 * per_thread
    );
    assert_eq!(
        stats.action(hstorage_cache::CacheAction::Trim),
        4 * per_thread / 2
    );
    assert_eq!(cache.resident_blocks(), 4 * per_thread / 2);
    // BlockAddr sanity for the clippy-clean import.
    assert!(cache.contains_block(BlockAddr(per_thread - 1)));
}
