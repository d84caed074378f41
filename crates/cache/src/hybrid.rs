//! The behavioural specification of the hStorage-DB hybrid cache
//! (Section 5): the [`CacheEngine`](crate::CacheEngine) running its
//! default [`SemanticPriorityPolicy`](crate::policy::SemanticPriorityPolicy),
//! an SSD working as a cache for an HDD, with admission and eviction
//! driven by the caching priority each request carries:
//!
//! * **Selective allocation** — only blocks whose priority is below the
//!   non-caching threshold `t` are considered for caching; when the cache is
//!   full a new block is admitted only if some resident block has an equal
//!   or lower priority (which is then evicted first).
//! * **Selective eviction** — the victim is the least-recently-used block of
//!   the lowest-priority non-empty group.
//!
//! The tests encode the exact statistics and device traffic of the
//! pre-framework implementation and must keep passing unchanged for any
//! change to the engine or the semantic policy.

mod tests {
    use crate::config::{StorageConfig, StorageConfigKind};
    use crate::engine::tests::{read_req, write_req};
    use crate::engine::CacheEngine;
    use crate::stats::CacheAction;
    use crate::system::StorageSystem;
    use hstorage_storage::{
        BlockAddr, BlockRange, CachePriority, ClassifiedRequest, QosPolicy, RequestClass,
        TrimCommand,
    };

    fn config(capacity: u64) -> StorageConfig {
        StorageConfig::new(StorageConfigKind::HStorageDb, capacity)
    }

    fn cache(capacity: u64) -> CacheEngine {
        CacheEngine::new(&config(capacity))
    }

    #[test]
    fn sequential_requests_bypass_the_cache() {
        let c = cache(1000);
        c.submit(read_req(
            0,
            500,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(c.resident_blocks(), 0);
        let s = c.stats();
        assert_eq!(s.action(CacheAction::Bypassing), 500);
        assert_eq!(s.class(RequestClass::Sequential).cache_hits, 0);
        // All traffic went to the HDD, none to the SSD.
        assert_eq!(s.ssd.unwrap().total_blocks(), 0);
        assert_eq!(s.hdd.unwrap().blocks_read, 500);
    }

    #[test]
    fn random_reads_are_cached_and_hit_on_reuse() {
        let c = cache(1000);
        for _ in 0..2 {
            for i in 0..100u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
        }
        let s = c.stats();
        let counters = s.class(RequestClass::Random);
        assert_eq!(counters.accessed_blocks, 200);
        assert_eq!(counters.cache_hits, 100);
        assert_eq!(s.action(CacheAction::ReadAllocation), 100);
        assert_eq!(c.resident_blocks(), 100);
        assert_eq!(s.priority(2).cache_hits, 100);
    }

    #[test]
    fn selective_allocation_refuses_lower_priority_when_full_of_higher() {
        let c = cache(10);
        // Fill the cache with priority-2 blocks.
        for i in 0..10u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        assert_eq!(c.resident_blocks(), 10);
        // A priority-4 block (lower priority) must not displace them.
        c.submit(read_req(
            100,
            1,
            RequestClass::Random,
            QosPolicy::priority(4),
        ));
        assert_eq!(c.resident_blocks(), 10);
        assert_eq!(c.stats().class(RequestClass::Random).accessed_blocks, 11);
        assert_eq!(c.stats().action(CacheAction::Bypassing), 1);
        // Every original block is still cached.
        for i in 0..10u64 {
            assert!(c.contains_block(BlockAddr(i)));
        }
    }

    #[test]
    fn higher_priority_evicts_lower_priority_when_full() {
        let c = cache(10);
        for i in 0..10u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(4)));
        }
        // Priority-2 blocks displace the priority-4 residents.
        for i in 100..105u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        assert_eq!(c.resident_blocks(), 10);
        let s = c.stats();
        assert_eq!(s.action(CacheAction::Eviction), 5);
        for i in 100..105u64 {
            assert!(c.contains_block(BlockAddr(i)));
        }
    }

    #[test]
    fn non_caching_eviction_demotes_cached_blocks() {
        let c = cache(100);
        c.submit(read_req(
            0,
            10,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        assert_eq!(c.resident_blocks(), 10);
        // Re-read with the eviction policy: blocks stay cached but move to
        // the lowest group, so the next allocation displaces them first.
        c.submit(read_req(
            0,
            10,
            RequestClass::TemporaryDataTrim,
            QosPolicy::NonCachingEviction,
        ));
        let s = c.stats();
        assert_eq!(s.action(CacheAction::ReAllocation), 10);
        // Fill the cache; the demoted blocks are evicted before others.
        for i in 1000..1090u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(3)));
        }
        assert_eq!(c.resident_blocks(), 100);
        for i in 1000..1090u64 {
            assert!(c.contains_block(BlockAddr(i)));
        }
        // One more allocation evicts a demoted block, not a random one.
        c.submit(read_req(
            5000,
            1,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
        let demoted_still_cached = (0..10u64)
            .filter(|i| c.contains_block(BlockAddr(*i)))
            .count();
        assert_eq!(demoted_still_cached, 9);
    }

    #[test]
    fn trim_invalidates_cached_blocks_without_device_io() {
        let c = cache(100);
        c.submit(read_req(
            0,
            50,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        assert_eq!(c.resident_blocks(), 50);
        let hdd_before = c.stats().hdd.unwrap().total_requests();
        c.trim(&TrimCommand::single(BlockRange::new(0u64, 50)));
        assert_eq!(c.resident_blocks(), 0);
        assert_eq!(c.stats().action(CacheAction::Trim), 50);
        assert_eq!(c.stats().hdd.unwrap().total_requests(), hdd_before);
        // Space is reusable.
        c.submit(read_req(
            200,
            60,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        assert_eq!(c.resident_blocks(), 60);
    }

    #[test]
    fn write_buffer_flushes_when_threshold_exceeded() {
        let c = cache(100); // write buffer limit = 10 blocks
        assert_eq!(c.write_buffer_limit(), 10);
        for i in 0..10u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        assert_eq!(c.write_buffer_resident(), 10);
        // The 11th buffered write exceeds the limit and triggers a flush.
        c.submit(write_req(
            10,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
        assert_eq!(c.write_buffer_resident(), 0);
        let s = c.stats();
        assert_eq!(s.action(CacheAction::WriteBufferFlush), 11);
        assert_eq!(s.action(CacheAction::WriteAllocation), 11);
        assert!(s.hdd.unwrap().blocks_written >= 11);
    }

    #[test]
    fn write_buffer_wins_space_over_other_priorities() {
        let c = cache(10);
        // Fill with the *highest* regular priority.
        for i in 0..10u64 {
            c.submit(read_req(
                i,
                1,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ));
        }
        // An update still gets buffered, displacing a priority-1 block.
        c.submit(write_req(
            100,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
        assert!(c.contains_block(BlockAddr(100)));
        assert_eq!(c.stats().action(CacheAction::Eviction), 1);
    }

    #[test]
    fn dirty_eviction_writes_back_to_hdd() {
        let c = cache(10);
        for i in 0..10u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ));
        }
        let written_before = c.stats().hdd.unwrap().blocks_written;
        // Force evictions with more priority-1 data.
        for i in 100..105u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ));
        }
        let s = c.stats();
        assert_eq!(s.action(CacheAction::Eviction), 5);
        assert_eq!(s.hdd.unwrap().blocks_written, written_before + 5);
    }

    #[test]
    fn hit_on_cached_block_is_served_from_ssd() {
        let c = cache(100);
        c.submit(read_req(
            42,
            1,
            RequestClass::Random,
            QosPolicy::priority(2),
        ));
        let ssd_before = c.stats().ssd.unwrap().blocks_read;
        let hdd_before = c.stats().hdd.unwrap().blocks_read;
        c.submit(read_req(
            42,
            1,
            RequestClass::Random,
            QosPolicy::priority(2),
        ));
        let s = c.stats();
        assert_eq!(s.ssd.unwrap().blocks_read, ssd_before + 1);
        assert_eq!(s.hdd.unwrap().blocks_read, hdd_before);
    }

    #[test]
    fn sequential_hit_does_not_disturb_layout() {
        let c = cache(100);
        c.submit(read_req(0, 2, RequestClass::Random, QosPolicy::priority(3)));
        // Sequential scan over the same blocks: hits, but priorities stay 3.
        c.submit(read_req(
            0,
            2,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(c.cached_priority(BlockAddr(0)), Some(CachePriority(3)));
        assert_eq!(c.stats().class(RequestClass::Sequential).cache_hits, 2);
        assert_eq!(c.stats().action(CacheAction::ReAllocation), 0);
    }

    #[test]
    fn selective_allocation_displaces_the_lowest_priority_victim() {
        let c = cache(10);
        // Mixed residents: five priority-2 blocks, then five priority-5.
        for i in 0..5u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        for i in 10..15u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(5)));
        }
        assert_eq!(c.resident_blocks(), 10);
        // A priority-3 block outranks the priority-5 group, so it is
        // admitted and the victim comes from that group — specifically its
        // least recently used block (10), never a priority-2 block.
        c.submit(read_req(
            100,
            1,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
        assert_eq!(c.resident_blocks(), 10);
        assert!(
            c.contains_block(BlockAddr(100)),
            "new block must be admitted"
        );
        assert!(
            !c.contains_block(BlockAddr(10)),
            "LRU of lowest group evicted"
        );
        for i in (0..5u64).chain(11..15) {
            assert!(c.contains_block(BlockAddr(i)), "block {i} must survive");
        }
        assert_eq!(c.stats().action(CacheAction::Eviction), 1);
    }

    #[test]
    fn non_allocatable_priority_bypasses_the_ssd() {
        // Priority >= t (paper: t = N - 1 = 7) is never admitted, even into
        // a completely empty cache.
        let c = cache(100);
        c.submit(read_req(
            0,
            20,
            RequestClass::Random,
            QosPolicy::priority(7),
        ));
        assert_eq!(c.resident_blocks(), 0);
        let s = c.stats();
        assert_eq!(s.action(CacheAction::Bypassing), 20);
        assert_eq!(s.ssd.unwrap().total_blocks(), 0, "no SSD traffic at all");
        assert_eq!(s.hdd.unwrap().blocks_read, 20);
    }

    #[test]
    fn non_caching_eviction_misses_bypass_the_ssd() {
        // A TRIM-class access to blocks that are *not* cached must go
        // straight to the HDD without allocating.
        let c = cache(100);
        c.submit(read_req(
            0,
            10,
            RequestClass::TemporaryDataTrim,
            QosPolicy::NonCachingEviction,
        ));
        assert_eq!(c.resident_blocks(), 0);
        let s = c.stats();
        assert_eq!(s.action(CacheAction::Bypassing), 10);
        assert_eq!(s.ssd.unwrap().total_blocks(), 0);
        assert_eq!(s.hdd.unwrap().blocks_read, 10);
    }

    #[test]
    fn resident_blocks_never_exceed_capacity() {
        let c = cache(64);
        for i in 0..1000u64 {
            let prio = 2 + (i % 5) as u8;
            c.submit(read_req(
                i,
                1,
                RequestClass::Random,
                QosPolicy::priority(prio),
            ));
            assert!(c.resident_blocks() <= 64);
        }
    }

    #[test]
    fn sharded_cache_respects_per_shard_capacity_split() {
        let c = CacheEngine::new(&config(10).with_shards(4));
        assert_eq!(c.shard_count(), 4);
        // Capacity 10 over 4 shards: 3 + 3 + 2 + 2 slots.
        for i in 0..100u64 {
            c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        assert_eq!(c.resident_blocks(), 10);
    }

    #[test]
    fn concurrent_multi_block_submits_do_not_deadlock_across_shards() {
        // Regression canary: multi-block requests, batch runs and TRIMs
        // walk the shards in cyclic order, so holding one shard's lock
        // while acquiring the next deadlocks once every shard has a
        // waiter. Each thread mixes all three kinds of walk.
        let c = CacheEngine::new(&config(4_096).with_shards(8));
        let req =
            |t: u64, i: u64| read_req(t + i * 16, 16, RequestClass::Random, QosPolicy::priority(2));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in (0..200u64).step_by(4) {
                        c.submit(req(t, i));
                        c.submit_batch(vec![req(t, i + 1), req(t, i + 2), req(t, i + 3)]);
                        c.trim(&TrimCommand::new(vec![
                            BlockRange::new(t + i * 16, 24),
                            BlockRange::new(t + i * 16 + 40, 24),
                        ]));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.class(RequestClass::Random).accessed_blocks, 8 * 200 * 16);
    }

    #[test]
    fn submit_batch_matches_sequential_submits_exactly_at_queue_depth_one() {
        let batched = cache(1_000);
        let sequential = cache(1_000);
        let reqs: Vec<ClassifiedRequest> = (0..100u64)
            .map(|i| {
                read_req(
                    i % 60,
                    2,
                    RequestClass::Random,
                    QosPolicy::priority(2 + (i % 5) as u8),
                )
            })
            .collect();
        for req in &reqs {
            sequential.submit(*req);
        }
        batched.submit_batch(reqs);
        // Queue depth 1: identical cache state *and* identical device
        // timing/traffic.
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.now(), sequential.now());
    }

    #[test]
    fn submit_batch_merges_adjacent_device_transfers() {
        // 64 adjacent sequential single-block reads bypass the cache
        // (NonCachingNonEviction misses) and reach the HDD. With queue
        // depth 8 the batched path issues 8 merged transfers instead of 64.
        let merged = CacheEngine::new(&config(1_000).with_queue_depth(8));
        let unmerged = cache(1_000);
        let reqs: Vec<ClassifiedRequest> = (0..64u64)
            .map(|i| {
                read_req(
                    i,
                    1,
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                )
            })
            .collect();
        merged.submit_batch(reqs.clone());
        for req in reqs {
            unmerged.submit(req);
        }
        let mut sm = merged.stats();
        let mut su = unmerged.stats();
        assert_eq!(sm.hdd.as_ref().unwrap().blocks_read, 64);
        assert_eq!(sm.hdd.as_ref().unwrap().read_requests, 8);
        assert_eq!(su.hdd.as_ref().unwrap().read_requests, 64);
        // Same logical traffic, strictly less simulated device time.
        assert!(merged.now() < unmerged.now());
        // Cache-level statistics are unaffected by the merge.
        (sm.ssd, sm.hdd, su.ssd, su.hdd) = (None, None, None, None);
        assert_eq!(sm, su);
    }

    #[test]
    fn submit_batch_splits_runs_at_write_buffer_requests() {
        // Capacity 100 → write-buffer limit 10. A batch holding 11 buffered
        // updates must flush exactly as sequential submits do.
        let batched = cache(100);
        let sequential = cache(100);
        let mut reqs: Vec<ClassifiedRequest> = Vec::new();
        for i in 0..5u64 {
            reqs.push(read_req(
                500 + i,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        for i in 0..11u64 {
            reqs.push(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        for i in 0..5u64 {
            reqs.push(read_req(
                600 + i,
                1,
                RequestClass::Random,
                QosPolicy::priority(3),
            ));
        }
        for req in &reqs {
            sequential.submit(*req);
        }
        batched.submit_batch(reqs);
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.write_buffer_resident(), 0);
        assert_eq!(batched.stats().action(CacheAction::WriteBufferFlush), 11);
    }

    #[test]
    fn concurrent_submits_from_many_threads_are_fully_accounted() {
        let c = CacheEngine::new(&config(4_096).with_shards(8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        c.submit(read_req(
                            t * 10_000 + i,
                            1,
                            RequestClass::Random,
                            QosPolicy::priority(2),
                        ));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.class(RequestClass::Random).accessed_blocks, 2_000);
        // Disjoint addresses, ample capacity: every block was allocated.
        assert_eq!(s.action(CacheAction::ReadAllocation), 2_000);
        assert_eq!(c.resident_blocks(), 2_000);
    }
}
