//! The classification-blind LRU baseline.
//!
//! This emulates "the classical approach when cache is managed by the LRU
//! algorithm" used throughout the paper's evaluation: every miss allocates
//! cache space regardless of request type, all cached blocks live in a
//! single LRU stack, and the LRU block is evicted when space is needed.
//!
//! Statistics are still broken down by request class and by the priority
//! the request *would* have carried, to reproduce the lower halves of
//! Tables 4, 6 and 7 (the paper notes that "although we record statistics
//! separately for requests of different priorities, all requests are
//! managed through a single LRU stack").
//!
//! This is the paper's *legacy* storage system, not the engine running
//! [`CachePolicyKind::Lru`](crate::CachePolicyKind::Lru), and it stays a
//! separate implementation because it differs from that engine in two
//! observable ways:
//!
//! * it ignores TRIM, so dead temporary data stays resident until LRU
//!   ages it out (the engine invalidates trimmed blocks under every
//!   policy);
//! * it charges the dirty write-backs a request causes as one
//!   **non-sequential** HDD write, whatever the request was; the engine
//!   issues them with the request's own sequential flag, so behind a scan
//!   they count as a sequential HDD request there and as a random one
//!   here.
//!
//! The baseline shares the `&self` [`StorageSystem`] interface; since a
//! single LRU stack is one global structure by definition, it serializes
//! behind one mutex rather than lock-striping (it is a comparison point,
//! not a scale target).

use crate::arena::{ListArena, ListHandle};
use crate::stats::{CacheAction, CacheStats};
use crate::system::StorageSystem;
use crate::table::{BlockState, BlockTable, CacheEntry, TableSlot};
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, Direction, HddDevice, IoRequest,
    PolicyConfig, SimClock, SsdDevice, StorageDevice, TrimCommand,
};
use parking_lot::Mutex;
use std::time::Duration;

/// The mutable cache-management state, all behind one lock. Each
/// [`BlockTable`] slot colocates the block's [`CacheEntry`] with the index
/// of its LRU arena node, as in the engine, so a hit resolves membership,
/// metadata and stack position in one probe chain.
struct LruInner {
    table: BlockTable,
    arena: ListArena,
    lru: ListHandle,
    stats: CacheStats,
}

impl LruInner {
    fn evict_one(&mut self) -> u64 {
        let victim = self
            .lru
            .pop_back(&mut self.arena)
            .expect("evicting from an empty cache");
        let entry = self
            .table
            .remove(victim)
            .expect("LRU/metadata mismatch")
            .entry;
        self.stats.record_action(CacheAction::Eviction, 1);
        if entry.is_dirty() {
            1
        } else {
            0
        }
    }

    /// Evicts until the table holds fewer than `capacity` blocks, and
    /// returns how many of the evicted blocks were dirty.
    fn allocate_slot(&mut self, capacity: u64) -> u64 {
        let mut dirty_writebacks = 0;
        while self.table.len() as u64 >= capacity {
            dirty_writebacks += self.evict_one();
        }
        dirty_writebacks
    }
}

/// SSD cache over HDD managed by plain LRU.
pub struct LruCache {
    policy: PolicyConfig,
    cache_capacity: u64,
    clock: SimClock,
    ssd: SsdDevice,
    hdd: HddDevice,
    inner: Mutex<LruInner>,
}

impl LruCache {
    /// Creates an LRU-managed cache of `cache_capacity_blocks` blocks with
    /// the paper's device models.
    pub fn new(cache_capacity_blocks: u64) -> Self {
        let clock = SimClock::new();
        Self::with_devices(
            cache_capacity_blocks,
            SsdDevice::intel_320(clock.clone()),
            HddDevice::cheetah(clock.clone()),
            clock,
        )
    }

    /// Creates an LRU cache over explicitly constructed devices.
    pub fn with_devices(
        cache_capacity_blocks: u64,
        ssd: SsdDevice,
        hdd: HddDevice,
        clock: SimClock,
    ) -> Self {
        LruCache {
            policy: PolicyConfig::paper_default(),
            cache_capacity: cache_capacity_blocks,
            clock,
            ssd,
            hdd,
            inner: Mutex::new(LruInner {
                table: BlockTable::with_capacity(cache_capacity_blocks as usize, 1),
                arena: ListArena::new(),
                lru: ListHandle::new(),
                stats: CacheStats::new(),
            }),
        }
    }

    /// Cache capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.cache_capacity
    }

    /// Whether `lbn` is currently resident in the cache.
    pub fn contains_block(&self, lbn: BlockAddr) -> bool {
        self.inner.lock().table.contains(lbn)
    }
}

impl StorageSystem for LruCache {
    fn name(&self) -> &str {
        "LRU"
    }

    fn submit(&self, req: ClassifiedRequest) {
        let prio = self.policy.resolve(req.policy);
        let mut hits = 0u64;
        let mut ssd_read = 0u64;
        let mut ssd_write = 0u64;
        let mut hdd_read = 0u64;
        let mut hdd_write = 0u64;

        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        for lbn in req.io.range.iter() {
            if let Some(slot) = inner.table.get_mut(lbn) {
                hits += 1;
                inner.lru.move_front(&mut inner.arena, slot.node);
                inner.stats.record_action(CacheAction::CacheHit, 1);
                match req.io.direction {
                    Direction::Read => ssd_read += 1,
                    Direction::Write => {
                        ssd_write += 1;
                        slot.entry.state = BlockState::Dirty;
                    }
                }
            } else {
                // LRU admits everything.
                hdd_write += inner.allocate_slot(self.cache_capacity);
                let state = match req.io.direction {
                    Direction::Read => {
                        inner.stats.record_action(CacheAction::ReadAllocation, 1);
                        hdd_read += 1;
                        ssd_write += 1;
                        BlockState::Clean
                    }
                    Direction::Write => {
                        inner.stats.record_action(CacheAction::WriteAllocation, 1);
                        ssd_write += 1;
                        BlockState::Dirty
                    }
                };
                let node = inner.lru.push_front(&mut inner.arena, lbn);
                inner.table.insert(
                    lbn,
                    TableSlot {
                        entry: CacheEntry {
                            // The LRU cache has a single stack; the
                            // recorded priority is informational only.
                            priority: CachePriority(prio.0),
                            state,
                        },
                        node,
                    },
                );
            }
        }

        let blocks = req.blocks();
        inner.stats.record_class(req.class, blocks, hits);
        inner.stats.record_priority(prio.0, blocks, hits);
        drop(guard);

        let seq = req.io.sequential;
        let start = req.io.range.start;
        if hdd_read > 0 {
            self.hdd
                .serve(&IoRequest::read(BlockRange::new(start, hdd_read), seq));
        }
        if hdd_write > 0 {
            self.hdd
                .serve(&IoRequest::write(BlockRange::new(start, hdd_write), false));
        }
        if ssd_read > 0 {
            self.ssd
                .serve(&IoRequest::read(BlockRange::new(start, ssd_read), seq));
        }
        if ssd_write > 0 {
            self.ssd
                .serve(&IoRequest::write(BlockRange::new(start, ssd_write), seq));
        }
    }

    fn trim(&self, _cmd: &TrimCommand) {
        // A legacy (non-DSS) storage system ignores TRIM semantics for cache
        // management: stale temporary data stays cached until LRU ages it
        // out. This is precisely the behaviour the paper contrasts against.
    }

    fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let mut s = inner.stats.clone();
        s.resident_blocks = inner.table.len() as u64;
        drop(inner);
        s.ssd = Some(self.ssd.stats());
        s.hdd = Some(self.hdd.stats());
        s
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn reset_stats(&self) {
        self.inner.lock().stats = CacheStats::new();
        self.ssd.reset_stats();
        self.hdd.reset_stats();
    }

    fn resident_blocks(&self) -> u64 {
        self.inner.lock().table.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstorage_storage::{DeviceStats, QosPolicy, RequestClass};

    fn read_req(start: u64, len: u64, class: RequestClass) -> ClassifiedRequest {
        let sequential = matches!(class, RequestClass::Sequential);
        let policy = match class {
            RequestClass::Sequential => QosPolicy::NonCachingNonEviction,
            RequestClass::TemporaryData => QosPolicy::priority(1),
            _ => QosPolicy::priority(2),
        };
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, len), sequential),
            class,
            policy,
        )
    }

    #[test]
    fn lru_admits_sequential_data() {
        let c = LruCache::new(100);
        c.submit(read_req(0, 100, RequestClass::Sequential));
        // Unlike hStorage-DB, the scan fills the cache.
        assert_eq!(c.resident_blocks(), 100);
        // And pays SSD write traffic for the allocation.
        assert_eq!(c.stats().ssd.unwrap().blocks_written, 100);
    }

    #[test]
    fn lru_evicts_oldest_regardless_of_type() {
        let c = LruCache::new(10);
        // Hot random blocks...
        for i in 0..10u64 {
            c.submit(read_req(i, 1, RequestClass::Random));
        }
        // ...are wiped out by a big sequential scan (cache pollution).
        c.submit(read_req(1000, 10, RequestClass::Sequential));
        for i in 0..10u64 {
            assert!(!c.contains_block(BlockAddr(i)));
        }
    }

    #[test]
    fn lru_hits_on_reuse() {
        let c = LruCache::new(50);
        for _ in 0..3 {
            for i in 0..20u64 {
                c.submit(read_req(i, 1, RequestClass::Random));
            }
        }
        let counters = c.stats().class(RequestClass::Random);
        assert_eq!(counters.accessed_blocks, 60);
        assert_eq!(counters.cache_hits, 40);
    }

    #[test]
    fn trim_is_ignored() {
        let c = LruCache::new(50);
        c.submit(read_req(0, 20, RequestClass::TemporaryData));
        c.trim(&TrimCommand::single(BlockRange::new(0u64, 20)));
        // Stale temporary data stays resident.
        assert_eq!(c.resident_blocks(), 20);
    }

    #[test]
    fn write_backs_are_charged_as_random_hdd_writes() {
        use crate::{CacheEngine, CachePolicyKind, StorageConfig, StorageConfigKind};
        let engine = CacheEngine::new(
            &StorageConfig::new(StorageConfigKind::HStorageDb, 8)
                .with_cache_policy(CachePolicyKind::Lru),
        );
        let legacy = LruCache::new(8);
        // Fill both caches with dirty blocks, then scan past them twice:
        // each scan request evicts four dirty victims.
        let fill = ClassifiedRequest::new(
            IoRequest::write(BlockRange::new(0u64, 8), true),
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        );
        let scans = [100, 104].map(|start| read_req(start, 4, RequestClass::Sequential));
        for req in std::iter::once(fill).chain(scans) {
            engine.submit(req);
            legacy.submit(req);
        }
        let on_engine = engine.stats().hdd.expect("the engine has an HDD");
        let on_legacy = legacy.stats().hdd.expect("the LRU cache has an HDD");
        assert_eq!(on_legacy.blocks_written, 8, "two write-backs of four");
        // Same transfers, same blocks, same time — only the two write-back
        // requests sit on the other side of the sequential flag.
        let expected = DeviceStats {
            sequential_requests: on_legacy.sequential_requests + 2,
            random_requests: on_legacy.random_requests - 2,
            ..on_legacy
        };
        assert_eq!(on_engine, expected);
    }

    #[test]
    fn capacity_is_respected() {
        let c = LruCache::new(32);
        for i in 0..500u64 {
            c.submit(read_req(i, 1, RequestClass::Random));
            assert!(c.resident_blocks() <= 32);
        }
    }

    #[test]
    fn concurrent_submits_are_serialized_but_complete() {
        let c = LruCache::new(256);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u64 {
                        c.submit(read_req(t * 1_000 + i, 1, RequestClass::Random));
                    }
                });
            }
        });
        assert_eq!(c.stats().class(RequestClass::Random).accessed_blocks, 400);
        assert_eq!(c.resident_blocks(), 256);
    }
}
