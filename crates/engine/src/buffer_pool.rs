//! The DBMS buffer pool.
//!
//! The buffer pool absorbs re-accesses to very hot pages (index roots,
//! small dimension tables) before they ever become storage I/O, exactly as
//! PostgreSQL's shared buffers do in the paper's setup. It is a plain LRU
//! over block addresses — the interesting placement logic lives *below* it,
//! in the storage system.
//!
//! Sequential scans use a small ring of buffers in PostgreSQL so they do
//! not flood the pool; we reproduce that by making sequential accesses
//! non-caching in the pool.

use hstorage_cache::lru::LruList;
use hstorage_storage::BlockAddr;

/// A fixed-capacity LRU buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: u64,
    lru: LruList,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` blocks. A capacity of 0
    /// disables the pool (every access misses).
    pub fn new(capacity: u64) -> Self {
        BufferPool {
            capacity,
            lru: LruList::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of blocks currently buffered.
    pub fn resident(&self) -> u64 {
        self.lru.len() as u64
    }

    /// Buffer-pool hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffer-pool misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses one block through the pool. Returns `true` on a pool hit
    /// (no storage I/O needed). On a miss the block is admitted unless
    /// `cacheable` is false (used for sequential scans).
    ///
    /// A cacheable access is one table walk: the insert finds the block
    /// or places it at the MRU end, and only a pool that went over
    /// capacity pays a second walk to drop its LRU block — the block a
    /// pop before the insert would have dropped, since the new one is
    /// the MRU and capacity is at least 1.
    pub fn access(&mut self, block: BlockAddr, cacheable: bool) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        let hit = if cacheable {
            !self.lru.insert_mru(block)
        } else {
            self.lru.touch(&block)
        };
        if hit {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.lru.len() as u64 > self.capacity {
            self.lru.pop_lru();
        }
        false
    }

    /// Drops a block from the pool (e.g. when its temporary file is
    /// deleted). Returns whether it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        self.lru.remove(&block)
    }

    /// Drops everything and clears the counters.
    pub fn clear(&mut self) {
        self.lru = LruList::new();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_admission() {
        let mut p = BufferPool::new(10);
        assert!(!p.access(BlockAddr(1), true));
        assert!(p.access(BlockAddr(1), true));
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn sequential_accesses_are_not_admitted() {
        let mut p = BufferPool::new(10);
        assert!(!p.access(BlockAddr(1), false));
        assert!(!p.access(BlockAddr(1), false));
        assert_eq!(p.resident(), 0);
    }

    #[test]
    fn capacity_enforced_with_lru_eviction() {
        let mut p = BufferPool::new(3);
        for i in 0..3u64 {
            p.access(BlockAddr(i), true);
        }
        p.access(BlockAddr(0), true); // 0 becomes MRU
        p.access(BlockAddr(3), true); // evicts 1
        assert!(p.access(BlockAddr(0), true));
        assert!(!p.access(BlockAddr(1), true));
        assert!(p.resident() <= 3);
    }

    #[test]
    fn zero_capacity_disables_the_pool() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(BlockAddr(5), true));
        assert!(!p.access(BlockAddr(5), true));
        assert_eq!(p.resident(), 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut p = BufferPool::new(10);
        p.access(BlockAddr(1), true);
        p.access(BlockAddr(2), true);
        assert!(p.invalidate(BlockAddr(1)));
        assert!(!p.invalidate(BlockAddr(1)));
        assert!(!p.access(BlockAddr(1), true));
        p.clear();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.hits(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The pool agrees with a `VecDeque` LRU model (front = MRU) of
        /// the same capacity on any trace of cacheable and non-cacheable
        /// accesses, invalidations and clears: same answers, hit and miss
        /// counts, and resident blocks in the same recency order after
        /// every operation.
        #[test]
        fn pool_matches_a_vecdeque_lru_model(
            capacity in 0u64..7,
            ops in proptest::collection::vec((0u8..8, 0u64..10), 1..200),
        ) {
            use proptest::prelude::prop_assert_eq;
            use std::collections::VecDeque;
            let mut pool = BufferPool::new(capacity);
            let mut model: VecDeque<u64> = VecDeque::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (op, key) in ops {
                let block = BlockAddr(key);
                let at = model.iter().position(|&k| k == key);
                match op {
                    // Accesses, three of them cacheable in four.
                    0..=5 => {
                        let cacheable = op % 4 != 3;
                        if let Some(i) = at {
                            model.remove(i);
                            model.push_front(key);
                            hits += 1;
                        } else {
                            misses += 1;
                            if cacheable && capacity > 0 {
                                if model.len() as u64 == capacity {
                                    model.pop_back();
                                }
                                model.push_front(key);
                            }
                        }
                        prop_assert_eq!(pool.access(block, cacheable), at.is_some());
                    }
                    6 => {
                        if let Some(i) = at {
                            model.remove(i);
                        }
                        prop_assert_eq!(pool.invalidate(block), at.is_some());
                    }
                    _ => {
                        model.clear();
                        (hits, misses) = (0, 0);
                        pool.clear();
                    }
                }
                prop_assert_eq!((pool.hits(), pool.misses()), (hits, misses));
                let order: Vec<u64> = pool.lru.iter_mru().map(|b| b.0).collect();
                prop_assert_eq!(order, Vec::from(model.clone()));
                prop_assert_eq!(pool.resident(), model.len() as u64);
            }
        }
    }
}
