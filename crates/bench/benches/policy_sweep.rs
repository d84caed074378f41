//! Cache-policy sweep (not a paper figure): submits/second through one
//! cache engine as a function of the replacement policy driving it, on the
//! mixed workload shared with the `bench_gate` CI binary
//! (`hstorage_bench::workload::mixed_request` — random reuse, scan
//! pollution, buffered updates and temporary data, so admission, eviction
//! and promotion all fire).
//!
//! Two things are visible here:
//!
//! * the *wall-clock* cost of each policy's bookkeeping (the semantic
//!   policy pays per-priority groups, CFLRU pays the clean-first window
//!   scan, 2Q pays ghost-list maintenance) on the identical engine;
//! * via the `sim:` rows the gate derives from the same workload, the
//!   *simulated device time* each policy produces — the figure of merit
//!   the policy-comparison experiment reports at the query level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hstorage_bench::workload::{bench_storage, drive, mixed_request, QUEUE_DEPTH, TOTAL_SUBMITS};
use hstorage_cache::{CachePolicyKind, HybridCache};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_sweep");
    group.throughput(Throughput::Elements(TOTAL_SUBMITS));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for kind in CachePolicyKind::all() {
        for batch in [1usize, 64] {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), batch),
                &batch,
                |b, &batch| {
                    b.iter(|| {
                        black_box(drive(
                            &HybridCache::new(&bench_storage(QUEUE_DEPTH).with_cache_policy(kind)),
                            batch,
                            mixed_request,
                        ))
                    });
                },
            );
        }
    }

    group.finish();
}

/// Knob sweep over the tunable policies: the same mixed workload under
/// off-default CFLRU windows and 2Q `Kin`/`Kout` fractions, so the
/// wall-clock cost of a knob (a wider clean-first scan, a larger ghost
/// directory) is visible next to the defaults above. The *simulated*
/// effect of the same knobs at the query level is what the
/// `policy_ablation` experiment reports.
fn bench_policy_knobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_knob_sweep");
    group.throughput(Throughput::Elements(TOTAL_SUBMITS));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let variants = [
        ("cflru-window5", CachePolicyKind::Cflru { window_pct: 5 }),
        ("cflru-window75", CachePolicyKind::Cflru { window_pct: 75 }),
        (
            "2q-kin10",
            CachePolicyKind::TwoQ {
                kin_pct: 10,
                kout_pct: 50,
            },
        ),
        (
            "2q-kin50",
            CachePolicyKind::TwoQ {
                kin_pct: 50,
                kout_pct: 50,
            },
        ),
        (
            "2q-kout150",
            CachePolicyKind::TwoQ {
                kin_pct: 25,
                kout_pct: 150,
            },
        ),
    ];
    for (label, kind) in variants {
        group.bench_function(BenchmarkId::new(label, 64), |b| {
            b.iter(|| {
                black_box(drive(
                    &HybridCache::new(&bench_storage(QUEUE_DEPTH).with_cache_policy(kind)),
                    64,
                    mixed_request,
                ))
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_policies, bench_policy_knobs);
criterion_main!(benches);
