//! An order-preserving LRU list with O(1) touch/insert/remove by address.
//!
//! One intrusive list in a private arena ([`crate::arena`]) indexed by an
//! open-addressing `lbn → node` map ([`crate::table::OpenMap`]) — dense
//! `u32` links, no per-node heap allocation, no SipHash. It is for lists
//! whose keys have no other index: the ghost directories, which remember
//! *absent* addresses, and the DBMS buffer pool. Lists of resident cache
//! blocks need no index of their own — the engine's block table carries
//! each block's node handle (see [`crate::priority_group`]).

use crate::arena::{ListArena, ListHandle, ListIter};
use crate::table::OpenMap;
use hstorage_storage::BlockAddr;

/// A least-recently-used ordering over a set of block addresses.
///
/// The *front* of the list is the most recently used key; the *back* is the
/// least recently used and is the eviction candidate.
#[derive(Debug, Clone)]
pub struct LruList {
    arena: ListArena,
    list: ListHandle,
    index: OpenMap<u32>,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList {
            arena: ListArena::new(),
            list: ListHandle::new(),
            index: OpenMap::new(),
        }
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &BlockAddr) -> bool {
        self.index.contains(key.0)
    }

    /// Inserts `key` at the most-recently-used position. If the key is
    /// already present it is moved to the front. Returns `true` if the key
    /// was newly inserted.
    pub fn insert_mru(&mut self, key: BlockAddr) -> bool {
        let LruList { arena, list, index } = self;
        let (&mut slot, fresh) = index.get_or_insert_with(key.0, || list.push_front(arena, key));
        if !fresh {
            list.move_front(arena, slot);
        }
        fresh
    }

    /// Marks `key` as most recently used. Returns `false` if the key is not
    /// present.
    pub fn touch(&mut self, key: &BlockAddr) -> bool {
        match self.index.get(key.0) {
            Some(&slot) => {
                self.list.move_front(&mut self.arena, slot);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the least recently used key.
    pub fn pop_lru(&mut self) -> Option<BlockAddr> {
        let key = self.list.pop_back(&mut self.arena)?;
        self.index.remove(key.0);
        Some(key)
    }

    /// Returns (without removing) the least recently used key.
    pub fn peek_lru(&self) -> Option<&BlockAddr> {
        self.list.back(&self.arena)
    }

    /// Removes a specific key. Returns `true` if it was present.
    pub fn remove(&mut self, key: &BlockAddr) -> bool {
        match self.index.remove(key.0) {
            Some(slot) => {
                self.list.remove(&mut self.arena, slot);
                true
            }
            None => false,
        }
    }

    /// Iterates keys from most to least recently used.
    pub fn iter_mru(&self) -> ListIter<'_> {
        self.list.iter_front(&self.arena)
    }

    /// Iterates keys from least to most recently used (eviction order) —
    /// what a policy scans when it searches near the LRU end, e.g. CFLRU's
    /// clean-first window.
    pub fn iter_lru(&self) -> ListIter<'_> {
        self.list.iter_back(&self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn insert_and_pop_order() {
        let mut l = LruList::new();
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

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(1));
        l.insert_mru(BlockAddr(2));
        l.insert_mru(BlockAddr(3));
        assert!(l.touch(&BlockAddr(1)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut l = LruList::new();
        assert!(!l.touch(&BlockAddr(42)));
    }

    #[test]
    fn reinsert_moves_to_front_without_duplicating() {
        let mut l = LruList::new();
        assert!(l.insert_mru(BlockAddr(1)));
        assert!(l.insert_mru(BlockAddr(2)));
        assert!(!l.insert_mru(BlockAddr(1)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
    }

    #[test]
    fn remove_specific_key() {
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(1));
        l.insert_mru(BlockAddr(2));
        l.insert_mru(BlockAddr(3));
        assert!(l.remove(&BlockAddr(2)));
        assert!(!l.remove(&BlockAddr(2)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(7));
        assert_eq!(l.peek_lru(), Some(&BlockAddr(7)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn iter_mru_order() {
        let mut l = LruList::new();
        for i in 0..5u64 {
            l.insert_mru(BlockAddr(i));
        }
        l.touch(&BlockAddr(0));
        let order: Vec<u64> = l.iter_mru().map(|b| b.0).collect();
        assert_eq!(order, vec![0, 4, 3, 2, 1]);
    }

    #[test]
    fn iter_lru_is_the_reverse_of_iter_mru() {
        let mut l = LruList::new();
        for i in 0..5u64 {
            l.insert_mru(BlockAddr(i));
        }
        l.touch(&BlockAddr(2));
        let mru: Vec<u64> = l.iter_mru().map(|b| b.0).collect();
        let mut lru: Vec<u64> = l.iter_lru().map(|b| b.0).collect();
        lru.reverse();
        assert_eq!(mru, lru);
        assert_eq!(l.iter_lru().next(), l.peek_lru());
        assert_eq!(LruList::new().iter_lru().count(), 0);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut l = LruList::new();
        for i in 0..100u64 {
            l.insert_mru(BlockAddr(i));
        }
        for i in 0..100u64 {
            assert!(l.remove(&BlockAddr(i)));
        }
        for i in 100..200u64 {
            l.insert_mru(BlockAddr(i));
        }
        // The arena should not have grown beyond the peak live population.
        assert!(l.arena.slots() <= 100, "arena grew past the peak");
        assert_eq!(l.len(), 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The list agrees with a `VecDeque` model (front = MRU) on any
        /// operation trace: same answers, same length, same recency order
        /// in both iteration directions after every operation.
        #[test]
        fn lru_list_matches_a_vecdeque_model(
            ops in proptest::collection::vec((0u8..5, 0u64..24), 1..300),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut list = LruList::new();
            let mut model: VecDeque<u64> = VecDeque::new();
            // Takes `key` out of the model, reporting whether it was there.
            let take = |model: &mut VecDeque<u64>, key: u64| {
                let at = model.iter().position(|&k| k == key);
                at.map(|i| model.remove(i)).is_some()
            };
            for (op, key) in ops {
                let addr = BlockAddr(key);
                match op {
                    0 => {
                        let fresh = !take(&mut model, key);
                        model.push_front(key);
                        prop_assert_eq!(list.insert_mru(addr), fresh);
                    }
                    1 => {
                        let present = take(&mut model, key);
                        if present {
                            model.push_front(key);
                        }
                        prop_assert_eq!(list.touch(&addr), present);
                    }
                    2 => prop_assert_eq!(list.pop_lru().map(|b| b.0), model.pop_back()),
                    3 => prop_assert_eq!(list.remove(&addr), take(&mut model, key)),
                    _ => prop_assert_eq!(list.contains(&addr), model.contains(&key)),
                }
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(list.peek_lru().map(|b| b.0), model.back().copied());
                let mru: Vec<u64> = list.iter_mru().map(|b| b.0).collect();
                prop_assert_eq!(&mru, &Vec::from(model.clone()));
                let mut lru: Vec<u64> = list.iter_lru().map(|b| b.0).collect();
                lru.reverse();
                prop_assert_eq!(lru, mru);
            }
        }
    }
}
