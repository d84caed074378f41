//! Contention suite for the cache hot path: the engine whose repeat hits
//! take the hot-descriptor shortcut must be observably identical to the
//! one that sends every submission down the full path.
//! (`tests/accounting.rs` checks the accounting behind it.)
//!
//! The stress test reads `HSTORAGE_STRESS_THREADS` (default 8) so the CI
//! contention job can re-run it at 16 and 32 threads.

use hstorage_cache::{CacheEngine, CachePolicyKind, StorageSystem};
use hstorage_storage::{
    BlockAddr, BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    TrimCommand,
};
use proptest::prelude::*;

mod common;

// ---------------------------------------------------------------------------
// Optimistic engine vs fully locked engine
// ---------------------------------------------------------------------------

/// `optimistic` with `kind`'s policies behind [`common::locked`], so every
/// submission takes the full path.
fn locked_twin(optimistic: CacheEngine, kind: CachePolicyKind) -> CacheEngine {
    let config = PolicyConfig::paper_default();
    optimistic.with_policy_factory(kind.system_name(), common::locked(kind, &config))
}

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
                CacheEngine::new(
                    &common::hstorage(256, 8)
                        .with_cache_policy(kind)
                        .with_migration(common::matrix_migration()),
                )
            };
            let optimistic = build();
            let locked = locked_twin(build(), kind);
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
            // The twin really is the full path: it never served a repeat
            // from the hot descriptor, and each one the optimistic engine
            // did replaces exactly one of the twin's slow-path visits.
            let (fast, slow) = (optimistic.stats().contention, locked.stats().contention);
            prop_assert_eq!(slow.fast_path_hits, 0, "{}", kind);
            prop_assert_eq!(
                fast.lock_acquisitions + fast.fast_path_hits,
                slow.lock_acquisitions,
                "{}",
                kind
            );
        }
    }
}

fn read_req(start: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(start, 1), false),
        class,
        policy,
    )
}

fn write_req(start: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::write(BlockRange::new(start, 1), false),
        class,
        policy,
    )
}

/// A repeat-heavy single-block trace (every policy admits at least the
/// priority-2 random reads, and the back-to-back repeats are what the
/// fast path serves).
fn repeat_heavy_trace() -> Vec<ClassifiedRequest> {
    let mut reqs = Vec::new();
    for round in 0..40u64 {
        for i in 0..6u64 {
            let r = read_req(i, RequestClass::Random, QosPolicy::priority(2));
            // Three consecutive identical reads: the second and third
            // are bit-identical repeats of the first's hit.
            reqs.push(r);
            reqs.push(r);
            reqs.push(r);
        }
        // Perturbations between repeat bursts: a miss-and-allocate, a
        // write hit and a buffered update.
        reqs.push(read_req(
            100 + round,
            RequestClass::Random,
            QosPolicy::priority(2),
        ));
        reqs.push(write_req(
            round % 6,
            RequestClass::Update,
            QosPolicy::priority(3),
        ));
        reqs.push(write_req(
            200 + round % 5,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
    }
    reqs
}

#[test]
fn optimistic_reads_match_the_locked_path_for_every_policy() {
    // The fast path must change nothing observable: logical statistics,
    // simulated time, residency and per-block state all agree with the
    // engine that sends every submission down the full path.
    for kind in CachePolicyKind::all() {
        let build = || CacheEngine::new(&common::hstorage(64, 1).with_cache_policy(kind));
        let optimistic = build();
        let locked = locked_twin(build(), kind);
        for req in repeat_heavy_trace() {
            optimistic.submit(req);
            locked.submit(req);
        }
        optimistic.trim(&TrimCommand::single(BlockRange::new(0u64, 3)));
        locked.trim(&TrimCommand::single(BlockRange::new(0u64, 3)));
        assert_eq!(optimistic.stats(), locked.stats(), "{kind}");
        assert_eq!(optimistic.now(), locked.now(), "{kind}");
        assert_eq!(optimistic.resident_blocks(), locked.resident_blocks());
        for lbn in 0..250u64 {
            assert_eq!(
                optimistic.cached_priority(BlockAddr(lbn)),
                locked.cached_priority(BlockAddr(lbn)),
                "{kind} block {lbn}"
            );
        }
        // And the diagnostic counters prove the paths diverged where
        // they should: repeats were served from the hot descriptor on one
        // engine and through the full path on the other.
        assert!(
            optimistic.stats().contention.fast_path_hits > 0,
            "{kind}: the repeat-heavy trace must exercise the fast path"
        );
        assert_eq!(locked.stats().contention.fast_path_hits, 0, "{kind}");
        assert!(
            optimistic.stats().contention.lock_acquisitions
                < locked.stats().contention.lock_acquisitions,
            "{kind}: the fast path must replace slow-path visits"
        );
    }
}

/// N threads repeat-read disjoint resident block slices of one shared
/// engine. Every access is a cache hit, so the logical statistics and the
/// simulated clock are interleaving-independent — they must equal a
/// single-threaded replay on a [`common::locked`] twin, proving the
/// concurrent tallied accounting against the full-path ground truth.
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
    let build = || CacheEngine::new(&common::hstorage(capacity, 8));
    let concurrent = build();
    let twin = locked_twin(build(), CachePolicyKind::default());
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
    // served repeats from the hot descriptor, the locked twin never did.
    assert!(concurrent.stats().contention.fast_path_hits > 0);
    assert_eq!(twin.stats().contention.fast_path_hits, 0);
    assert!(twin.stats().contention.lock_acquisitions > 0);
}
