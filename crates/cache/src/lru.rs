//! An order-preserving LRU list with O(1) touch/insert/remove.
//!
//! Each priority group (Section 5.1), the ghost directories and the
//! baseline LRU cache are built on this structure. Two interchangeable
//! interiors sit behind one API, selected by [`ListBackend`]:
//!
//! * **Flat** (default) — an arena-backed intrusive list
//!   ([`crate::arena`]) indexed by an open-addressing map
//!   ([`crate::table::OpenMap`]): dense `u32` links, no per-node heap
//!   allocation, no SipHash.
//! * **Map** — the pre-flat slab + `std::HashMap` layout, kept as the
//!   measured legacy comparator for the `submit_latency` and
//!   `contended_throughput` flat-vs-map bench pairs.
//!
//! Both interiors implement identical list semantics, so which one a
//! policy runs on changes no cache decision — the per-policy equivalence
//! suites and the deterministic bench rows pin that.

use crate::arena::{ListArena, ListHandle, ListIter};
use crate::table::OpenMap;
use hstorage_storage::BlockAddr;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

/// Which interior data-structure layout the cache's list and metadata
/// structures use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ListBackend {
    /// Arena-backed intrusive lists + open-addressing index (the default).
    #[default]
    Flat,
    /// The legacy slab + `std::HashMap` layout, kept for flat-vs-map
    /// benchmark comparisons.
    Map,
}

impl ListBackend {
    /// Short lower-case label for bench IDs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ListBackend::Flat => "flat",
            ListBackend::Map => "map",
        }
    }
}

#[derive(Debug, Clone)]
struct MapNode {
    key: BlockAddr,
    prev: usize,
    next: usize,
}

/// The legacy interior: slab nodes linked by `usize`, indexed by a
/// `std::HashMap`.
#[derive(Debug, Clone, Default)]
struct MapList {
    nodes: Vec<MapNode>,
    free: Vec<usize>,
    index: HashMap<BlockAddr, usize>,
    head: usize,
    tail: usize,
}

impl MapList {
    fn new() -> Self {
        MapList {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn insert_mru(&mut self, key: BlockAddr) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.link_front(slot);
            return false;
        }
        let node = MapNode {
            key,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = node;
                s
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.link_front(slot);
        true
    }

    fn touch(&mut self, key: &BlockAddr) -> bool {
        match self.index.get(key) {
            Some(&slot) => {
                self.unlink(slot);
                self.link_front(slot);
                true
            }
            None => false,
        }
    }

    fn pop_lru(&mut self) -> Option<BlockAddr> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let key = self.nodes[slot].key;
        self.unlink(slot);
        self.free.push(slot);
        self.index.remove(&key);
        Some(key)
    }

    fn peek_lru(&self) -> Option<&BlockAddr> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.nodes[self.tail].key)
        }
    }

    fn remove(&mut self, key: &BlockAddr) -> bool {
        match self.index.remove(key) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }
}

/// The flat interior: one intrusive list in a private arena, indexed by an
/// open-addressing `lbn → node` map.
#[derive(Debug, Clone)]
struct FlatList {
    arena: ListArena,
    list: ListHandle,
    index: OpenMap<u32>,
}

impl FlatList {
    fn new() -> Self {
        FlatList {
            arena: ListArena::new(),
            list: ListHandle::new(),
            index: OpenMap::new(),
        }
    }

    fn insert_mru(&mut self, key: BlockAddr) -> bool {
        let FlatList { arena, list, index } = self;
        let (&mut slot, fresh) = index.get_or_insert_with(key.0, || list.push_front(arena, key));
        if !fresh {
            list.move_front(arena, slot);
        }
        fresh
    }

    fn touch(&mut self, key: &BlockAddr) -> bool {
        match self.index.get(key.0) {
            Some(&slot) => {
                self.list.move_front(&mut self.arena, slot);
                true
            }
            None => false,
        }
    }

    fn pop_lru(&mut self) -> Option<BlockAddr> {
        let key = self.list.pop_back(&mut self.arena)?;
        self.index.remove(key.0);
        Some(key)
    }

    fn remove(&mut self, key: &BlockAddr) -> bool {
        match self.index.remove(key.0) {
            Some(slot) => {
                self.list.remove(&mut self.arena, slot);
                true
            }
            None => false,
        }
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Flat(FlatList),
    Map(MapList),
}

/// A least-recently-used ordering over a set of block addresses.
///
/// The *front* of the list is the most recently used key; the *back* is the
/// least recently used and is the eviction candidate.
#[derive(Debug, Clone)]
pub struct LruList {
    repr: Repr,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// Creates an empty list on the default (flat) backend.
    pub fn new() -> Self {
        Self::with_backend(ListBackend::Flat)
    }

    /// Creates an empty list on an explicit backend.
    pub fn with_backend(backend: ListBackend) -> Self {
        LruList {
            repr: match backend {
                ListBackend::Flat => Repr::Flat(FlatList::new()),
                ListBackend::Map => Repr::Map(MapList::new()),
            },
        }
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Flat(f) => f.list.len(),
            Repr::Map(m) => m.index.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &BlockAddr) -> bool {
        match &self.repr {
            Repr::Flat(f) => f.index.contains(key.0),
            Repr::Map(m) => m.index.contains_key(key),
        }
    }

    /// Inserts `key` at the most-recently-used position. If the key is
    /// already present it is moved to the front. Returns `true` if the key
    /// was newly inserted.
    pub fn insert_mru(&mut self, key: BlockAddr) -> bool {
        match &mut self.repr {
            Repr::Flat(f) => f.insert_mru(key),
            Repr::Map(m) => m.insert_mru(key),
        }
    }

    /// Marks `key` as most recently used. Returns `false` if the key is not
    /// present.
    pub fn touch(&mut self, key: &BlockAddr) -> bool {
        match &mut self.repr {
            Repr::Flat(f) => f.touch(key),
            Repr::Map(m) => m.touch(key),
        }
    }

    /// Removes and returns the least recently used key.
    pub fn pop_lru(&mut self) -> Option<BlockAddr> {
        match &mut self.repr {
            Repr::Flat(f) => f.pop_lru(),
            Repr::Map(m) => m.pop_lru(),
        }
    }

    /// Returns (without removing) the least recently used key.
    pub fn peek_lru(&self) -> Option<&BlockAddr> {
        match &self.repr {
            Repr::Flat(f) => f.list.back(&f.arena),
            Repr::Map(m) => m.peek_lru(),
        }
    }

    /// Removes a specific key. Returns `true` if it was present.
    pub fn remove(&mut self, key: &BlockAddr) -> bool {
        match &mut self.repr {
            Repr::Flat(f) => f.remove(key),
            Repr::Map(m) => m.remove(key),
        }
    }

    /// Iterates keys from most to least recently used.
    pub fn iter_mru(&self) -> LruIter<'_> {
        LruIter {
            inner: match &self.repr {
                Repr::Flat(f) => IterRepr::Flat(f.list.iter_front(&f.arena)),
                Repr::Map(m) => IterRepr::Map {
                    list: m,
                    cur: m.head,
                    forward: true,
                },
            },
        }
    }

    /// Iterates keys from least to most recently used (eviction order) —
    /// what a policy scans when it searches near the LRU end, e.g. CFLRU's
    /// clean-first window.
    pub fn iter_lru(&self) -> LruIter<'_> {
        LruIter {
            inner: match &self.repr {
                Repr::Flat(f) => IterRepr::Flat(f.list.iter_back(&f.arena)),
                Repr::Map(m) => IterRepr::Map {
                    list: m,
                    cur: m.tail,
                    forward: false,
                },
            },
        }
    }
}

enum IterRepr<'a> {
    Flat(ListIter<'a>),
    Map {
        list: &'a MapList,
        cur: usize,
        forward: bool,
    },
}

/// Iterator over an [`LruList`]'s keys in recency order.
pub struct LruIter<'a> {
    inner: IterRepr<'a>,
}

impl<'a> Iterator for LruIter<'a> {
    type Item = &'a BlockAddr;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IterRepr::Flat(it) => it.next(),
            IterRepr::Map { list, cur, forward } => {
                if *cur == NIL {
                    return None;
                }
                let node = &list.nodes[*cur];
                *cur = if *forward { node.next } else { node.prev };
                Some(&node.key)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> [ListBackend; 2] {
        [ListBackend::Flat, ListBackend::Map]
    }

    #[test]
    fn insert_and_pop_order() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            l.insert_mru(BlockAddr(1));
            l.insert_mru(BlockAddr(2));
            l.insert_mru(BlockAddr(3));
            assert_eq!(l.len(), 3);
            assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
            assert_eq!(l.pop_lru(), None);
            assert!(l.is_empty());
        }
    }

    #[test]
    fn touch_moves_to_front() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            l.insert_mru(BlockAddr(1));
            l.insert_mru(BlockAddr(2));
            l.insert_mru(BlockAddr(3));
            assert!(l.touch(&BlockAddr(1)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
        }
    }

    #[test]
    fn touch_missing_returns_false() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            assert!(!l.touch(&BlockAddr(42)));
        }
    }

    #[test]
    fn reinsert_moves_to_front_without_duplicating() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            assert!(l.insert_mru(BlockAddr(1)));
            assert!(l.insert_mru(BlockAddr(2)));
            assert!(!l.insert_mru(BlockAddr(1)));
            assert_eq!(l.len(), 2);
            assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
        }
    }

    #[test]
    fn remove_specific_key() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            l.insert_mru(BlockAddr(1));
            l.insert_mru(BlockAddr(2));
            l.insert_mru(BlockAddr(3));
            assert!(l.remove(&BlockAddr(2)));
            assert!(!l.remove(&BlockAddr(2)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
            assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            l.insert_mru(BlockAddr(7));
            assert_eq!(l.peek_lru(), Some(&BlockAddr(7)));
            assert_eq!(l.len(), 1);
        }
    }

    #[test]
    fn iter_mru_order() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            for i in 0..5u64 {
                l.insert_mru(BlockAddr(i));
            }
            l.touch(&BlockAddr(0));
            let order: Vec<u64> = l.iter_mru().map(|b| b.0).collect();
            assert_eq!(order, vec![0, 4, 3, 2, 1]);
        }
    }

    #[test]
    fn iter_lru_is_the_reverse_of_iter_mru() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            for i in 0..5u64 {
                l.insert_mru(BlockAddr(i));
            }
            l.touch(&BlockAddr(2));
            let mru: Vec<u64> = l.iter_mru().map(|b| b.0).collect();
            let mut lru: Vec<u64> = l.iter_lru().map(|b| b.0).collect();
            lru.reverse();
            assert_eq!(mru, lru);
            assert_eq!(l.iter_lru().next(), l.peek_lru());
            let empty = LruList::with_backend(backend);
            assert_eq!(empty.iter_lru().count(), 0);
        }
    }

    #[test]
    fn slots_are_reused_after_removal() {
        for backend in backends() {
            let mut l = LruList::with_backend(backend);
            for i in 0..100u64 {
                l.insert_mru(BlockAddr(i));
            }
            for i in 0..100u64 {
                assert!(l.remove(&BlockAddr(i)));
            }
            for i in 100..200u64 {
                l.insert_mru(BlockAddr(i));
            }
            // The slab should not have grown beyond the peak live population.
            let slab = match &l.repr {
                Repr::Flat(f) => f.arena.slots(),
                Repr::Map(m) => m.nodes.len(),
            };
            assert!(slab <= 100, "{backend:?} slab grew past the peak");
            assert_eq!(l.len(), 100);
        }
    }

    #[test]
    fn default_backend_is_flat() {
        assert_eq!(ListBackend::default(), ListBackend::Flat);
        assert!(matches!(LruList::new().repr, Repr::Flat(_)));
        assert_eq!(ListBackend::Flat.label(), "flat");
        assert_eq!(ListBackend::Map.label(), "map");
    }

    // The two interiors implement identical list semantics on any
    // operation trace — the heart of the "flat structures change no cache
    // decision" argument.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn flat_and_map_backends_are_equivalent(
            ops in proptest::collection::vec((0u8..5, 0u64..24), 1..300),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut flat = LruList::with_backend(ListBackend::Flat);
            let mut map = LruList::with_backend(ListBackend::Map);
            for (op, key) in ops {
                let key = BlockAddr(key);
                match op {
                    0 => {
                        prop_assert_eq!(flat.insert_mru(key), map.insert_mru(key));
                    }
                    1 => prop_assert_eq!(flat.touch(&key), map.touch(&key)),
                    2 => prop_assert_eq!(flat.pop_lru(), map.pop_lru()),
                    3 => prop_assert_eq!(flat.remove(&key), map.remove(&key)),
                    _ => prop_assert_eq!(flat.contains(&key), map.contains(&key)),
                }
                prop_assert_eq!(flat.len(), map.len());
                prop_assert_eq!(flat.peek_lru(), map.peek_lru());
                let f: Vec<u64> = flat.iter_mru().map(|b| b.0).collect();
                let m: Vec<u64> = map.iter_mru().map(|b| b.0).collect();
                prop_assert_eq!(f, m);
            }
        }
    }
}
