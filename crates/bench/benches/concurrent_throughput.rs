//! Thread-scaling throughput of the shared storage service (not a paper
//! figure): submits/second against one shared `HybridCache` at 1, 2 and 4
//! OS threads.
//!
//! Two configurations are measured:
//!
//! * `sharded8` — the lock-striped cache (8 shards), where submits to
//!   different shards proceed in parallel;
//! * `unsharded` at 1 thread — the single-shard configuration, directly
//!   comparable to the pre-refactor `cache_microbench` numbers (same
//!   request stream, one lock acquisition per request).
//!
//! Note the simulated device clock is shared and atomic, so the *virtual*
//! service time is identical in all configurations — what scales with
//! threads is the real (wall-clock) cost of cache management.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hstorage_cache::{HybridCache, StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
use std::hint::black_box;
use std::sync::Arc;

const BLOCKS: u64 = 4_096;
const TOTAL_SUBMITS: u64 = 10_000;

fn random_read(i: u64, prio: u8) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(i % (BLOCKS * 2), 1), false),
        RequestClass::Random,
        QosPolicy::priority(prio),
    )
}

/// Drives `TOTAL_SUBMITS` random reads through `cache` from `threads`
/// threads, each thread walking a disjoint address slice.
fn drive(cache: &Arc<HybridCache>, threads: u64) -> u64 {
    let per_thread = TOTAL_SUBMITS / threads;
    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(cache);
            s.spawn(move || {
                for i in 0..per_thread {
                    let addr = t * per_thread + i;
                    cache.submit(black_box(random_read(addr, 2 + (addr % 5) as u8)));
                }
            });
        }
    });
    cache.resident_blocks()
}

fn bench_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_throughput");
    group.throughput(Throughput::Elements(TOTAL_SUBMITS));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Single-shard, single-thread: the pre-refactor baseline shape.
    group.bench_function("unsharded/1-thread", |b| {
        b.iter(|| {
            let cache = Arc::new(HybridCache::new(&StorageConfig::new(
                StorageConfigKind::HStorageDb,
                BLOCKS,
            )));
            drive(&cache, 1)
        });
    });

    for threads in [1u64, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded8", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let cache = Arc::new(HybridCache::new(
                        &StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS).with_shards(8),
                    ));
                    drive(&cache, threads)
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_concurrent);
criterion_main!(benches);
