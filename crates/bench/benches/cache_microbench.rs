//! Microbenchmarks of the hybrid cache itself (not a paper figure): the
//! per-block cost of the selective allocation / eviction path and of the
//! classification-blind LRU baseline, plus TRIM throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hstorage_cache::{HybridCache, LruCache, StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use std::hint::black_box;

const BLOCKS: u64 = 4_096;

fn random_read(i: u64, prio: u8) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(i % (BLOCKS * 2), 1), false),
        RequestClass::Random,
        QosPolicy::priority(prio),
    )
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_microbench");
    group.throughput(Throughput::Elements(10_000));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("hybrid_random_mixed_priorities", |b| {
        b.iter(|| {
            let cache =
                HybridCache::new(&StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS));
            for i in 0..10_000u64 {
                cache.submit(black_box(random_read(i, 2 + (i % 5) as u8)));
            }
            black_box(cache.resident_blocks())
        });
    });

    group.bench_function("lru_random", |b| {
        b.iter(|| {
            let cache = LruCache::new(BLOCKS);
            for i in 0..10_000u64 {
                cache.submit(black_box(random_read(i, 2)));
            }
            black_box(cache.resident_blocks())
        });
    });

    group.bench_function("hybrid_sequential_bypass", |b| {
        b.iter(|| {
            let cache =
                HybridCache::new(&StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS));
            for i in 0..100u64 {
                cache.submit(ClassifiedRequest::new(
                    IoRequest::read(BlockRange::new(i * 100, 100), true),
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
            }
            black_box(cache.resident_blocks())
        });
    });

    group.bench_function("hybrid_trim", |b| {
        b.iter(|| {
            let cache =
                HybridCache::new(&StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS));
            for i in 0..(BLOCKS / 32) {
                cache.submit(ClassifiedRequest::new(
                    IoRequest::write(BlockRange::new(i * 32, 32), true),
                    RequestClass::TemporaryData,
                    QosPolicy::priority(1),
                ));
            }
            cache.trim(&TrimCommand::single(BlockRange::new(0u64, BLOCKS)));
            black_box(cache.resident_blocks())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
