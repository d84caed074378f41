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
    pub fn access(&mut self, block: BlockAddr, cacheable: bool) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if self.lru.touch(&block) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if cacheable {
            if self.lru.len() as u64 >= self.capacity {
                self.lru.pop_lru();
            }
            self.lru.insert_mru(block);
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
}
