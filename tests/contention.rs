//! Contention suite for the lock-light cache hot path: the optimistic
//! repeat-hit engine must be observably identical to the fully locked
//! one. (`tests/accounting.rs` checks the accounting behind it.)
//!
//! The stress test reads `HSTORAGE_STRESS_THREADS` (default 8) so the CI
//! contention job can re-run it at 16 and 32 threads.

use hstorage_cache::{HybridCache, StorageSystem};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
};
use proptest::prelude::*;

mod common;

// ---------------------------------------------------------------------------
// Optimistic engine vs fully locked engine
// ---------------------------------------------------------------------------

/// An arbitrary classified request over a bounded address space, biased
/// toward single-block reads (the shape the fast path serves).
fn arb_request() -> impl Strategy<Value = ClassifiedRequest> {
    (0u64..600, 1u64..4, 0usize..5, any::<bool>()).prop_map(|(start, len, class, write)| {
        let (class, policy, sequential) = match class {
            0 => (
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
                true,
            ),
            1 => (RequestClass::Random, QosPolicy::priority(2), false),
            2 => (RequestClass::Random, QosPolicy::priority(5), false),
            3 => (RequestClass::TemporaryData, QosPolicy::priority(1), true),
            _ => (RequestClass::Update, QosPolicy::WriteBuffer, false),
        };
        let io = if write {
            IoRequest::write(BlockRange::new(start, len), sequential)
        } else {
            IoRequest::read(BlockRange::new(start, len), sequential)
        };
        ClassifiedRequest::new(io, class, policy)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The optimistic engine is observably identical to the fully locked
    /// one on arbitrary traces (each request submitted 1–3 times in a row
    /// so repeat hits actually occur), for every cache policy in the CI
    /// matrix.
    #[test]
    fn optimistic_engine_matches_locked_engine(
        trace in prop::collection::vec((arb_request(), 1usize..4), 1..120),
    ) {
        for kind in common::matrix_kinds() {
            let build = || {
                HybridCache::with_shard_count(PolicyConfig::paper_default(), 256, 8)
                    .with_cache_policy(kind)
                    .with_migration(common::matrix_migration())
            };
            let optimistic = build();
            let locked = build().with_optimistic_reads(false);
            for &(req, repeats) in &trace {
                for _ in 0..repeats {
                    optimistic.submit(req);
                    locked.submit(req);
                }
            }
            prop_assert_eq!(optimistic.stats(), locked.stats(), "{}", kind);
            prop_assert_eq!(optimistic.now(), locked.now(), "{}", kind);
            prop_assert_eq!(
                optimistic.resident_blocks(),
                locked.resident_blocks(),
                "{}",
                kind
            );
            prop_assert_eq!(locked.stats().contention.fast_path_hits, 0, "{}", kind);
        }
    }
}

/// N threads repeat-read disjoint resident block slices of one shared
/// engine. Every access is a cache hit, so the logical statistics and the
/// simulated clock are interleaving-independent — they must equal a
/// single-threaded replay on a twin engine (run with the fast path off,
/// proving the concurrent lock-free accounting against the fully locked
/// ground truth).
#[test]
fn contended_hot_reads_lose_no_counter() {
    const BLOCKS_PER_THREAD: u64 = 16;
    const REPEATS: u64 = 64;
    let threads = common::stress_threads();
    let capacity = 2 * threads * BLOCKS_PER_THREAD;
    let read = |lbn: u64| {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(lbn, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    };
    let build = || HybridCache::with_shard_count(PolicyConfig::paper_default(), capacity, 8);
    let concurrent = build();
    let twin = build().with_optimistic_reads(false);
    // Warm every thread's slice into residency on both engines.
    for t in 0..threads {
        for b in 0..BLOCKS_PER_THREAD {
            concurrent.submit(read(t * BLOCKS_PER_THREAD + b));
            twin.submit(read(t * BLOCKS_PER_THREAD + b));
        }
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let concurrent = &concurrent;
            s.spawn(move || {
                for b in 0..BLOCKS_PER_THREAD {
                    for _ in 0..REPEATS {
                        concurrent.submit(read(t * BLOCKS_PER_THREAD + b));
                    }
                }
            });
        }
    });
    for t in 0..threads {
        for b in 0..BLOCKS_PER_THREAD {
            for _ in 0..REPEATS {
                twin.submit(read(t * BLOCKS_PER_THREAD + b));
            }
        }
    }
    assert_eq!(concurrent.stats(), twin.stats());
    assert_eq!(concurrent.now(), twin.now());
    assert_eq!(concurrent.resident_blocks(), twin.resident_blocks());
    // The diagnostic counters prove which path ran: the concurrent engine
    // served repeats lock-free, the locked twin never did.
    assert!(concurrent.stats().contention.fast_path_hits > 0);
    assert_eq!(twin.stats().contention.fast_path_hits, 0);
    assert!(twin.stats().contention.lock_acquisitions > 0);
}
