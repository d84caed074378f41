//! Contended submit throughput of the cache hot path (not a paper
//! figure): wall-clock hot-read submits/second against one shared,
//! pre-warmed `HybridCache` at 1–32 OS threads.
//!
//! Every request is a repeat read of a shard's single hot block (the
//! "index root page" shape — see `hstorage_bench::workload::hot_read`),
//! and all threads share one schedule so they pile onto the same shard at
//! once. Two engine configurations are compared:
//!
//! * `optimistic` — the lock-light hot path: repeat hits are served under
//!   the shard's read lock, sharing it;
//! * `locked` — `with_optimistic_reads(false)`, the hot path that takes
//!   the shard's write lock on every submission.
//!
//! Both serve the identical workload with identical simulated timing and
//! statistics; what diverges is wall-clock scalability under contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hstorage_bench::workload::{
    contended_hot_reads, warmed_backend_cache, warmed_cache, HOT_READS_PER_THREAD,
};
use hstorage_cache::ListBackend;

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("contended_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for threads in [1usize, 2, 4, 8, 16, 32] {
        group.throughput(Throughput::Elements(threads as u64 * HOT_READS_PER_THREAD));
        for (label, optimistic) in [("optimistic", true), ("locked", false)] {
            // The cache is warmed once and shared across iterations: the
            // workload is pure repeat hits, so no iteration changes what
            // the next one measures.
            let cache = warmed_cache(optimistic);
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| contended_hot_reads(&cache, threads, HOT_READS_PER_THREAD));
            });
        }
    }

    // Shard-interior backends at full contention: 32 threads on the
    // lock-light engine, flat (open-addressing + arena) vs the legacy map
    // interior. The repeat-hit workload is served by the optimistic fast
    // path, so the pair doubles as a control: a flat-vs-map gap here
    // would mean the interior leaked onto the fast path.
    let threads = 32usize;
    group.throughput(Throughput::Elements(threads as u64 * HOT_READS_PER_THREAD));
    for backend in [ListBackend::Flat, ListBackend::Map] {
        let cache = warmed_backend_cache(true, backend);
        group.bench_with_input(
            BenchmarkId::new(format!("interior_{}", backend.label()), threads),
            &threads,
            |b, &threads| {
                b.iter(|| contended_hot_reads(&cache, threads, HOT_READS_PER_THREAD));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_contended);
criterion_main!(benches);
