//! The DBMS buffer pool.
//!
//! The buffer pool absorbs re-accesses to very hot pages (index roots,
//! small dimension tables) before they ever become storage I/O, exactly as
//! PostgreSQL's shared buffers do in the paper's setup. It is a plain LRU
//! over block addresses — the interesting placement logic lives *below* it,
//! in the storage system.
//!
//! Sequential scans use a small ring of buffers in PostgreSQL so they do
//! not flood the pool. The executor goes further: scans and temporary-data
//! streams skip the pool entirely and reach storage as vectored batches,
//! so a scanned block neither hits in the pool nor refreshes it. Only
//! random (index) reads come through here, all of them cacheable.
//!
//! The pool is small next to the data (the paper's is ≈ 2 %), so nearly
//! every random probe misses and pays for finding the block, admitting it
//! and evicting the LRU block. The recency order is one intrusive list in
//! a [`ListArena`]; the address index over it is a [`PagedArray`] of the
//! blocks' list nodes, not a hash table: 4 KiB pages of 1,024 nodes
//! behind a radix-tree page directory. One SF-1 TPC-H pass touches 117
//! pages, all with page numbers below 256, so the directory is one
//! 1 KiB node and finding a page is one slot load, with no hashing.
//!
//! A miss reads the directory three times — the executor's prefetch and
//! the admission on the accessed block's page, the eviction on the
//! evicted block's — plus plain array reads. A page exists while it
//! holds a buffered block: the eviction or invalidation that empties it
//! puts it on the array's free list, and the next new page is taken from
//! there. So the index takes 4 KiB for each 1,024-address page holding a
//! buffered block, wherever in the `u64` address space the page lies.

use hstorage_cache::arena::{ListArena, ListHandle, NIL};
use hstorage_cache::PagedArray;
use hstorage_storage::{BlockAddr, BlockRange};

/// A block's list node in the index, or [`NIL`] (the default, so an empty
/// entry) for a block that is not buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node(u32);

impl Default for Node {
    fn default() -> Self {
        Node(NIL)
    }
}

/// A fixed-capacity LRU buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: u64,
    arena: ListArena,
    /// Resident blocks, most recently used at the front.
    list: ListHandle,
    /// Each resident block's list node, indexed by its address.
    index: PagedArray<Node>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` blocks. A capacity of 0
    /// disables the pool (every access misses).
    pub fn new(capacity: u64) -> Self {
        BufferPool {
            capacity,
            arena: ListArena::new(),
            list: ListHandle::new(),
            index: PagedArray::new(),
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
        self.list.len() as u64
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
    /// `cacheable` is false, which only looks the block up. The executor
    /// always passes `true`: sequential scans do not come through the
    /// pool (see the module docs).
    ///
    /// A miss that overfills the pool admits the block first and then
    /// drops the LRU block — the block an admission past capacity drops,
    /// since the new block is the MRU and capacity is at least 1. In that
    /// order the eviction can never empty, and so free, the index page
    /// the admitted block's entry lies on.
    pub fn access(&mut self, block: BlockAddr, cacheable: bool) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        let node = if cacheable {
            let (list, arena) = (&mut self.list, &mut self.arena);
            self.index.update(block.0, |node| {
                let found = *node;
                if found == Node(NIL) {
                    *node = Node(list.push_front(arena, block));
                }
                found
            })
        } else {
            self.index.get(block.0)
        };
        if node != Node(NIL) {
            self.list.move_front(&mut self.arena, node.0);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.list.len() as u64 > self.capacity {
            self.evict_lru();
        }
        false
    }

    /// Starts loading `block`'s index entry, if its page exists, without
    /// waiting for it: the executor calls this for a group of probes
    /// before it accesses any of them. A pure hint — no hit, miss, page
    /// or recency changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.index.prefetch(block.0);
    }

    /// Drops the least recently used block and clears its index entry.
    fn evict_lru(&mut self) {
        let victim = self
            .list
            .pop_back(&mut self.arena)
            .expect("an overfull pool has an LRU block");
        let node = self.index.update(victim.0, std::mem::take);
        debug_assert_ne!(node, Node(NIL), "a resident block is indexed");
    }

    /// Drops a block from the pool (e.g. when an update overwrites it).
    /// Returns whether it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let node = self.index.update(block.0, std::mem::take);
        if node == Node(NIL) {
            return false;
        }
        self.list.remove(&mut self.arena, node.0);
        true
    }

    /// Drops every resident block of `range` (e.g. a temporary file's,
    /// when the file is deleted) and returns how many there were, by the
    /// index's range walk ([`PagedArray::update_range`]): only the pages
    /// holding a buffered block of the range are visited, and the walk
    /// skips the directory's empty subtrees, however long the range. A
    /// range running past the top of the address space stops at
    /// `u64::MAX`.
    pub fn invalidate_range(&mut self, range: BlockRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let first = range.start.0;
        let last = first.saturating_add(range.len - 1);
        let (list, arena) = (&mut self.list, &mut self.arena);
        let mut dropped = 0;
        self.index.update_range(first, last, |node| {
            if *node != Node(NIL) {
                list.remove(arena, std::mem::take(node).0);
                dropped += 1;
            }
        });
        dropped
    }

    /// Drops everything, index pages included, and clears the counters.
    pub fn clear(&mut self) {
        *self = BufferPool::new(self.capacity);
    }

    /// Checks that the index and the list agree: the index passes
    /// [`PagedArray::audit`], every resident block's entry names its node,
    /// every non-empty entry names a resident node holding that entry's
    /// address, and the pool is within capacity.
    #[cfg(test)]
    fn audit(&self) -> Result<(), String> {
        if self.resident() > self.capacity {
            return Err(format!(
                "{} resident blocks exceed the capacity {}",
                self.resident(),
                self.capacity
            ));
        }
        self.index.audit()?;
        for node in self.list.nodes_back(&self.arena) {
            let block = self.arena.key(node);
            let indexed = self.index.get(block.0);
            if indexed != Node(node) {
                return Err(format!(
                    "resident block {} (node {node}) is indexed as {indexed:?}",
                    block.0
                ));
            }
        }
        // With every resident node indexed at its own address, as many
        // non-empty entries as resident blocks leaves none for a dead node.
        // The walk reads entries by position, not through `get`, so a
        // wrong offset there shows as an entry holding another address's
        // node.
        let mut entries = 0;
        for (block, Node(node)) in self.index.range(0, u64::MAX) {
            if node == NIL {
                continue;
            }
            entries += 1;
            if self.arena.key(node).0 != block {
                return Err(format!(
                    "entry of block {block} names node {node}, which holds block {}",
                    self.arena.key(node).0
                ));
            }
        }
        if entries != self.list.len() {
            return Err(format!(
                "{entries} index entries for {} resident blocks",
                self.list.len()
            ));
        }
        Ok(())
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

    /// An eviction that empties the page the admitted block's entry lies
    /// on: the admission comes first, so the page stays in use; a page
    /// the eviction does empty is freed, and its range comes back on the
    /// next admission there.
    #[test]
    fn an_eviction_that_empties_the_admitted_blocks_page_keeps_it() {
        let mut p = BufferPool::new(1);
        p.access(BlockAddr(0), true);
        assert!(!p.access(BlockAddr(1), true), "evicts 0 from the same page");
        assert_eq!(p.audit(), Ok(()));
        assert_eq!(p.index.pages_in_use(), 1);
        assert!(p.access(BlockAddr(1), true));
        assert!(!p.access(BlockAddr(1 << 20), true), "empties page 0");
        assert_eq!(p.index.pages_in_use(), 1);
        assert!(!p.access(BlockAddr(0), true), "page 0 again");
        assert_eq!(p.audit(), Ok(()));
        assert_eq!(p.index.pages_in_use(), 1);
        assert_eq!(mru_order(&p), [0]);
        assert_eq!((p.hits(), p.misses()), (1, 4));
        assert!(p.invalidate(BlockAddr(0)));
        assert_eq!(p.index.pages_in_use(), 0);
        assert_eq!(p.audit(), Ok(()));
    }

    /// The resident blocks, most recently used first.
    fn mru_order(pool: &BufferPool) -> Vec<u64> {
        pool.list.iter_front(&pool.arena).map(|b| b.0).collect()
    }

    /// Addresses on both sides of the first page boundaries, in a far page
    /// and at the top of the address space.
    const KEYS: [u64; 12] = [
        0,
        1,
        1023,
        1024,
        1025,
        2047,
        2048,
        7 << 40,
        (7 << 40) + 1023,
        u64::MAX - 1024,
        u64::MAX - 1,
        u64::MAX,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The pool agrees with a `VecDeque` LRU model (front = MRU) of
        /// the same capacity on any trace of cacheable and non-cacheable
        /// accesses, invalidations of one block and of ranges, and clears
        /// over addresses around page boundaries and at the ends of the
        /// address space: same answers, hit and miss counts, and resident
        /// blocks in the same recency order after every operation, and
        /// the index passes its audit. Prefetches, of touched pages and
        /// of pages never touched, change none of it and allocate no page.
        #[test]
        fn pool_matches_a_vecdeque_lru_model(
            capacity in 0u64..7,
            ops in proptest::collection::vec(
                (0u8..10, 0usize..KEYS.len(), 0usize..KEYS.len()),
                1..200,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            use std::collections::VecDeque;
            let mut pool = BufferPool::new(capacity);
            pool.prefetch(BlockAddr(KEYS[0]));
            prop_assert_eq!(pool.index.pages_in_use(), 0);
            let mut model: VecDeque<u64> = VecDeque::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (op, a, b) in ops {
                let key = KEYS[a];
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
                    // `[KEYS[a], KEYS[b]]`, or an empty range if `b < a`;
                    // the whole address space stops one short of the top.
                    7 => {
                        let len = KEYS[b].saturating_sub(key).saturating_add(1);
                        let len = if b < a { 0 } else { len };
                        let before = model.len();
                        model.retain(|&k| !(k >= key && k - key < len));
                        let dropped = (before - model.len()) as u64;
                        prop_assert_eq!(pool.invalidate_range(BlockRange::new(key, len)), dropped);
                    }
                    8 => {
                        model.clear();
                        (hits, misses) = (0, 0);
                        pool.clear();
                    }
                    _ => {
                        let pages = pool.index.pages_in_use();
                        pool.prefetch(block);
                        prop_assert_eq!(pool.index.pages_in_use(), pages);
                    }
                }
                prop_assert_eq!((pool.hits(), pool.misses()), (hits, misses));
                prop_assert_eq!(mru_order(&pool), Vec::from(model.clone()));
                prop_assert_eq!(pool.resident(), model.len() as u64);
                prop_assert_eq!(pool.audit(), Ok(()));
            }
        }

        /// Invalidating a range drops exactly what invalidating each of its
        /// blocks drops, over ranges inside one page, across page
        /// boundaries and past every touched page, and leaves the rest of
        /// the pool in the same recency order.
        #[test]
        fn invalidate_range_matches_per_block_invalidate(
            capacity in 1u64..600,
            accesses in proptest::collection::vec(0u64..5_000, 1..800),
            ranges in proptest::collection::vec((0u64..6_000, 0u64..8_000), 1..8),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut by_range = BufferPool::new(capacity);
            for &key in &accesses {
                by_range.access(BlockAddr(key), true);
            }
            let mut by_block = by_range.clone();
            for (start, len) in ranges {
                let range = BlockRange::new(start, len);
                let dropped = range.iter().filter(|&b| by_block.invalidate(b)).count() as u64;
                prop_assert_eq!(by_range.invalidate_range(range), dropped);
                prop_assert_eq!(mru_order(&by_range), mru_order(&by_block));
                prop_assert_eq!(by_range.audit(), Ok(()));
            }
        }
    }
}
