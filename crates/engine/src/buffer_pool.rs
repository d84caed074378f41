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
//!
//! The pool is small next to the data (the paper's is ≈ 2 %), so nearly
//! every random probe misses and pays for finding the block, admitting it
//! and evicting the LRU block. The recency order is one intrusive list in
//! a [`ListArena`]; the address index over it is a two-level radix index,
//! not a hash table:
//!
//! * a **page directory** — an [`OpenMap`] from `block >> 10` to a page
//!   number. It holds one entry per page ever touched, a few hundred on a
//!   TPC-H run, so its probe stays in L1;
//! * **pages** of 1,024 `u32` node indices, one per address of the page
//!   ([`NIL`] = not resident), each its own 4 KiB allocation, so adding a
//!   page never copies the others.
//!
//! A miss costs two directory probes — the accessed block's page and the
//! evicted block's page — plus plain array reads. A page is allocated the
//! first time a cacheable access touches it and kept until
//! [`BufferPool::clear`], so the index takes 4 B for every address of every
//! page a cacheable access has touched (4 KiB a page), wherever in the
//! `u64` address space the page lies.

use hstorage_cache::arena::{ListArena, ListHandle, NIL};
use hstorage_cache::{prefetch_line, OpenMap};
use hstorage_storage::{BlockAddr, BlockRange};

/// `log2` of the number of addresses one index page covers.
const PAGE_BITS: u32 = 10;

/// Node indices per index page.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// A block's offset within its page.
#[inline]
fn offset(block: u64) -> usize {
    block as usize & (PAGE_SLOTS - 1)
}

/// A fixed-capacity LRU buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: u64,
    arena: ListArena,
    /// Resident blocks, most recently used at the front.
    list: ListHandle,
    /// `block >> PAGE_BITS` → the number of the block's page in `pages`.
    directory: OpenMap<u32>,
    /// The index pages: each entry is the list node of the block at that
    /// page offset, or `NIL`.
    pages: Vec<Box<[u32; PAGE_SLOTS]>>,
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
            directory: OpenMap::new(),
            pages: Vec::new(),
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

    /// Where `block`'s entry lies — its page's number in `pages` and its
    /// offset there — if its page exists.
    #[inline]
    fn entry(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let page = *self.directory.get(block.0 >> PAGE_BITS)?;
        Some((page as usize, offset(block.0)))
    }

    /// Where `block`'s entry lies, allocating its page (all `NIL`) on
    /// first touch.
    #[inline]
    fn entry_or_alloc(&mut self, block: BlockAddr) -> (usize, usize) {
        if let Some(at) = self.entry(block) {
            return at;
        }
        let page = u32::try_from(self.pages.len()).expect("fewer than 2^32 index pages");
        self.pages.push(Box::new([NIL; PAGE_SLOTS]));
        self.directory.insert(block.0 >> PAGE_BITS, page);
        (page as usize, offset(block.0))
    }

    /// Accesses one block through the pool. Returns `true` on a pool hit
    /// (no storage I/O needed). On a miss the block is admitted unless
    /// `cacheable` is false (used for sequential scans).
    ///
    /// A full pool drops its LRU block before admitting the new one — the
    /// block an admission past capacity would drop, since the new block is
    /// the MRU and capacity is at least 1 — so the freed list node is the
    /// one the new block takes.
    pub fn access(&mut self, block: BlockAddr, cacheable: bool) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        let (page, at) = if cacheable {
            self.entry_or_alloc(block)
        } else {
            match self.entry(block) {
                Some(at) => at,
                None => {
                    self.misses += 1;
                    return false;
                }
            }
        };
        let node = self.pages[page][at];
        if node != NIL {
            self.list.move_front(&mut self.arena, node);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if cacheable {
            if self.list.len() as u64 == self.capacity {
                self.evict_lru();
            }
            self.pages[page][at] = self.list.push_front(&mut self.arena, block);
        }
        false
    }

    /// Starts loading `block`'s index entry, if its page exists, without
    /// waiting for it: the executor calls this for a group of probes
    /// before it accesses any of them. A pure hint — no hit, miss, page
    /// or recency changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        if let Some((page, at)) = self.entry(block) {
            prefetch_line(&self.pages[page][at]);
        }
    }

    /// Drops the least recently used block and clears its index entry.
    fn evict_lru(&mut self) {
        let victim = self
            .list
            .pop_back(&mut self.arena)
            .expect("a full pool of capacity ≥ 1 has an LRU block");
        let (page, at) = self
            .entry(victim)
            .expect("a resident block's page is in the directory");
        self.pages[page][at] = NIL;
    }

    /// Drops a block from the pool (e.g. when an update overwrites it).
    /// Returns whether it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let Some((page, at)) = self.entry(block) else {
            return false;
        };
        let node = std::mem::replace(&mut self.pages[page][at], NIL);
        if node == NIL {
            return false;
        }
        self.list.remove(&mut self.arena, node);
        true
    }

    /// Drops every resident block of `range` (e.g. a temporary file's,
    /// when the file is deleted) and returns how many there were. Only the
    /// pages the range overlaps are visited — and never more pages than
    /// the directory holds, however long the range — so a range with no
    /// touched page costs one directory probe per page, not one per block.
    /// A range running past the top of the address space stops at
    /// `u64::MAX`.
    pub fn invalidate_range(&mut self, range: BlockRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let first = range.start.0;
        let last = first.saturating_add(range.len - 1);
        let (first_page, last_page) = (first >> PAGE_BITS, last >> PAGE_BITS);
        let BufferPool {
            arena,
            list,
            directory,
            pages,
            ..
        } = self;
        let mut dropped = 0;
        let mut drop_page = |page_no: u64, page: u32| {
            let lo = if page_no == first_page { first } else { 0 };
            let hi = if page_no == last_page { last } else { u64::MAX };
            for entry in &mut pages[page as usize][offset(lo)..=offset(hi)] {
                if *entry != NIL {
                    list.remove(arena, *entry);
                    *entry = NIL;
                    dropped += 1;
                }
            }
        };
        if last_page - first_page < directory.len() as u64 {
            for page_no in first_page..=last_page {
                if let Some(&page) = directory.get(page_no) {
                    drop_page(page_no, page);
                }
            }
        } else {
            for (page_no, &page) in directory.iter() {
                if (first_page..=last_page).contains(&page_no) {
                    drop_page(page_no, page);
                }
            }
        }
        dropped
    }

    /// Drops everything, index pages included, and clears the counters.
    pub fn clear(&mut self) {
        *self = BufferPool::new(self.capacity);
    }

    /// Checks that the index and the list agree: every resident block's
    /// entry names its node, every non-`NIL` entry names a resident node
    /// holding that entry's address, each directory page is one allocated
    /// page, and the pool is within capacity.
    #[cfg(test)]
    fn audit(&self) -> Result<(), String> {
        if self.resident() > self.capacity {
            return Err(format!(
                "{} resident blocks exceed the capacity {}",
                self.resident(),
                self.capacity
            ));
        }
        if self.pages.len() != self.directory.len() {
            return Err(format!(
                "{} directory entries for {} allocated pages",
                self.directory.len(),
                self.pages.len()
            ));
        }
        for node in self.list.nodes_back(&self.arena) {
            let block = self.arena.key(node);
            let indexed = self.entry(block).map(|(page, at)| self.pages[page][at]);
            if indexed != Some(node) {
                return Err(format!(
                    "resident block {} (node {node}) is indexed as {indexed:?}",
                    block.0
                ));
            }
        }
        // With every resident node indexed at its own address, as many
        // non-`NIL` entries as resident blocks leaves none for a dead node.
        // Entries are read by position, not through `offset`, so a wrong
        // offset there shows as an entry holding another address's node.
        let mut entries = 0;
        for (page_no, &page) in self.directory.iter() {
            for (slot, &node) in (0u64..).zip(self.pages[page as usize].iter()) {
                if node == NIL {
                    continue;
                }
                entries += 1;
                let block = page_no << PAGE_BITS | slot;
                if self.arena.key(node).0 != block {
                    return Err(format!(
                        "entry of block {block} names node {node}, which holds block {}",
                        self.arena.key(node).0
                    ));
                }
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
            prop_assert_eq!(pool.pages.len(), 0);
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
                        let pages = pool.pages.len();
                        pool.prefetch(block);
                        prop_assert_eq!(pool.pages.len(), pages);
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
