//! Vectored-submission throughput (not a paper figure): submits/second
//! through one `HybridCache` as a function of the batch size handed to
//! `StorageSystem::submit_batch`, swept over batch sizes 1, 8, 64 and 256.
//!
//! Two request shapes are measured (shared with the `bench_gate` CI binary
//! via `hstorage_bench::workload`, so the gate guards exactly this
//! workload):
//!
//! * `scan` — adjacent single-block sequential reads (the shape a table
//!   scan produces). Batching wins twice here: each shard lock is taken
//!   once per batch, and the device merges adjacent transfers up to the
//!   queue depth, so the per-request seek/command setup is paid once per
//!   merged transfer.
//! * `random` — scattered single-block random reads. No transfers merge,
//!   so the measured gain isolates the shard-grouped locking.
//!
//! Batch size 1 degenerates to the per-request `submit` path and is the
//! PR 2 baseline shape (~2.3–2.8 ms per 10k submits on the reference
//! machine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hstorage_bench::workload::{
    bench_storage, drive, random_read, scan_read, QUEUE_DEPTH, TOTAL_SUBMITS,
};
use hstorage_cache::HybridCache;
use std::hint::black_box;

fn bench_batches(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.throughput(Throughput::Elements(TOTAL_SUBMITS));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for batch in [1usize, 8, 64, 256] {
        group.bench_with_input(BenchmarkId::new("scan", batch), &batch, |b, &batch| {
            b.iter(|| {
                black_box(drive(
                    &HybridCache::new(&bench_storage(QUEUE_DEPTH)),
                    batch,
                    scan_read,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("random", batch), &batch, |b, &batch| {
            b.iter(|| {
                black_box(drive(
                    &HybridCache::new(&bench_storage(QUEUE_DEPTH)),
                    batch,
                    random_read,
                ))
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_batches);
criterion_main!(benches);
