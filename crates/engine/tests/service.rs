//! Equivalence of the query service at one worker with plain sequential
//! execution.
//!
//! With a single worker the service executes requests in a fully
//! deterministic global order: the head query of every stream in stream
//! order, then — because the closed-loop driver submits a stream's next
//! query only when its previous one completes — the remaining queries
//! generation by generation (every stream's second query in stream order,
//! then every third, …). A single [`QueryExecutor`] running the same
//! queries in that order through [`QueryExecutor::run_query`] must produce
//! identical per-query statistics and identical simulated storage timing:
//! the service adds scheduling, not semantics.

use hstorage_cache::{CacheEngine, StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_engine::{
    run_streams_service, Access, Catalog, ConcurrencyRegistry, ExecutorConfig, ObjectKind,
    OperatorKind, PlanNode, PlanTree, QueryExecutor, ServiceConfig, StreamSpec,
};
use hstorage_storage::{BlockRange, PolicyConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> (
    Catalog,
    hstorage_engine::ObjectId,
    hstorage_engine::ObjectId,
) {
    let mut cat = Catalog::new();
    let table = cat.register("orders", ObjectKind::Table, BlockRange::new(0u64, 800));
    let index = cat.register("idx", ObjectKind::Index, BlockRange::new(2_000u64, 100));
    cat.set_temp_region(BlockRange::new(50_000u64, 4_000));
    (cat, table, index)
}

/// One randomly chosen small query shape.
#[derive(Debug, Clone)]
enum QueryShape {
    Seq { passes: u32 },
    Index { lookups: u64 },
    Spill { blocks: u64 },
}

impl QueryShape {
    fn plan(&self, table: hstorage_engine::ObjectId, index: hstorage_engine::ObjectId) -> PlanTree {
        match *self {
            QueryShape::Seq { passes } => PlanTree::new(
                "seq",
                PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes }),
            ),
            QueryShape::Index { lookups } => PlanTree::new(
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
            ),
            QueryShape::Spill { blocks } => PlanTree::new(
                "spill",
                PlanNode::leaf(
                    OperatorKind::Hash,
                    Access::TempSpill {
                        blocks,
                        read_passes: 1,
                    },
                ),
            ),
        }
    }
}

fn query_shape() -> impl Strategy<Value = QueryShape> {
    // The offline proptest stand-in has no `prop_oneof!`; a discriminant
    // drawn alongside the parameters selects the variant.
    (0u8..3, 1u32..=2, 10u64..=120, 16u64..=64).prop_map(|(kind, passes, lookups, blocks)| {
        match kind {
            0 => QueryShape::Seq { passes },
            1 => QueryShape::Index { lookups },
            _ => QueryShape::Spill { blocks },
        }
    })
}

fn workload() -> impl Strategy<Value = Vec<Vec<QueryShape>>> {
    prop::collection::vec(prop::collection::vec(query_shape(), 0..4), 1..5)
}

fn config() -> ExecutorConfig {
    ExecutorConfig {
        buffer_pool_blocks: 128,
        ..ExecutorConfig::default()
    }
}

/// The single-worker service's deterministic execution order: generation
/// by generation, streams in order.
fn round_robin_order(streams: &[StreamSpec]) -> Vec<(usize, usize)> {
    let mut order = Vec::new();
    let mut generation = 0;
    loop {
        let before = order.len();
        for (idx, stream) in streams.iter().enumerate() {
            if generation < stream.queries.len() {
                order.push((idx, generation));
            }
        }
        if order.len() == before {
            return order;
        }
        generation += 1;
    }
}

/// Service soak: 10⁴ logical streams sustained over a bounded worker pool.
///
/// Run explicitly (`cargo test --release -- --ignored soak`); the CI
/// `service-soak` step runs it in release mode with a capped test-thread
/// count. Debug-mode `cargo test` skips it to keep the default suite fast.
#[test]
#[ignore = "release-mode soak; exercised by the CI service-soak step"]
fn soak_ten_thousand_streams_over_bounded_workers() {
    let mut cat = Catalog::new();
    let tiny = cat.register("tiny", ObjectKind::Table, BlockRange::new(0u64, 4));
    cat.set_temp_region(BlockRange::new(50_000u64, 64));
    // The engine itself beside the service's handle, to audit it at the end.
    let engine = Arc::new(CacheEngine::new(
        &StorageConfig::new(StorageConfigKind::HStorageDb, 1_000).with_shards(8),
    ));
    let storage: Arc<dyn StorageSystem> = engine.clone();
    let registry = ConcurrencyRegistry::new();
    let streams: Vec<StreamSpec> = (0..10_000)
        .map(|i| StreamSpec {
            name: format!("s{i}"),
            queries: vec![PlanTree::new(
                "seq",
                PlanNode::leaf(
                    OperatorKind::SeqScan,
                    Access::SeqScan {
                        table: tiny,
                        passes: 1,
                    },
                ),
            )],
        })
        .collect();
    let service = ServiceConfig::default(); // workers = available parallelism
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
    assert_eq!(report.completed.len(), 10_000);
    assert_eq!(report.latency.len(), 10_000);
    assert_eq!(registry.active_queries(), 0);
    let (p50, p99, p999) = (
        report.latency.p50().expect("non-empty"),
        report.latency.p99().expect("non-empty"),
        report.latency.p999().expect("non-empty"),
    );
    assert!(p50 <= p99 && p99 <= p999, "{p50:?} <= {p99:?} <= {p999:?}");
    assert_eq!(engine.audit(), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_worker_service_matches_sequential_run_query(shapes in workload()) {
        let (cat, table, index) = catalog();
        let streams: Vec<StreamSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, queries)| StreamSpec {
                name: format!("s{i}"),
                queries: queries.iter().map(|q| q.plan(table, index)).collect(),
            })
            .collect();

        // Service side: one worker, closed loop.
        let service_storage: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, 2_000).build_shared();
        let registry = ConcurrencyRegistry::new();
        let report = run_streams_service(
            config(),
            ServiceConfig { workers: 1, queue_depth: 4 },
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &cat,
            &service_storage,
        );

        // Reference side: one executor, same queries, the service's
        // deterministic execution order.
        let reference_storage =
            StorageConfig::new(StorageConfigKind::HStorageDb, 2_000).build();
        let mut reference_cat = cat.clone();
        let mut exec = QueryExecutor::new(config(), PolicyConfig::paper_default());
        let mut reference: Vec<Vec<hstorage_engine::QueryStats>> =
            streams.iter().map(|_| Vec::new()).collect();
        for (stream_idx, query_idx) in round_robin_order(&streams) {
            let stats = exec.run_query(
                &streams[stream_idx].queries[query_idx],
                &mut reference_cat,
                reference_storage.as_ref(),
            );
            reference[stream_idx].push(stats);
        }

        // Per-query statistics agree, grouped by stream in stream order.
        let flat_reference: Vec<_> = streams
            .iter()
            .zip(&reference)
            .flat_map(|(stream, stats)| stats.iter().map(move |s| (stream.name.clone(), s)))
            .collect();
        prop_assert_eq!(report.completed.len(), flat_reference.len());
        for (got, (name, want)) in report.completed.iter().zip(&flat_reference) {
            prop_assert_eq!(&got.stream, name);
            prop_assert_eq!(&got.stats, *want);
        }
        // Simulated storage timing and statistics agree exactly.
        prop_assert_eq!(service_storage.now(), reference_storage.now());
        prop_assert_eq!(service_storage.stats(), reference_storage.stats());
        // One latency sample per completed query.
        prop_assert_eq!(report.latency.len(), flat_reference.len());
    }
}
