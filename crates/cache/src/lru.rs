//! An order-preserving LRU list with O(1) insert/remove by address.
//!
//! One intrusive list in a private arena ([`crate::arena`]) indexed by an
//! open-addressing `lbn → node` map ([`crate::table::OpenMap`]) — dense
//! `u32` links, no per-node heap allocation, no SipHash. It is for lists
//! whose keys have no other index: the ghost directories, which remember
//! *absent* addresses. Lists of resident cache blocks need no index of
//! their own — the engine's block table carries each block's node handle
//! (see [`crate::priority_group`]).

use crate::arena::{ListArena, ListHandle};
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

    /// Removes and returns the least recently used key.
    pub fn pop_lru(&mut self) -> Option<BlockAddr> {
        let key = self.list.pop_back(&mut self.arena)?;
        self.index.remove(key.0);
        Some(key)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The keys from least to most recently used, read by draining a clone
    /// with `pop_lru`.
    fn lru_order(l: &LruList) -> Vec<u64> {
        let mut l = l.clone();
        std::iter::from_fn(|| l.pop_lru()).map(|b| b.0).collect()
    }

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
        // Re-inserting is how a key is touched: the LRU key becomes MRU.
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(1));
        l.insert_mru(BlockAddr(2));
        l.insert_mru(BlockAddr(3));
        assert!(!l.insert_mru(BlockAddr(1)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(2)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(3)));
        assert_eq!(l.pop_lru(), Some(BlockAddr(1)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(1));
        assert!(!l.contains(&BlockAddr(42)));
        assert!(!l.remove(&BlockAddr(42)));
        assert_eq!(lru_order(&l), vec![1], "a miss leaves the list as it was");
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
        // Reading the order from a clone leaves the list itself whole.
        let mut l = LruList::new();
        l.insert_mru(BlockAddr(7));
        assert_eq!(lru_order(&l), vec![7]);
        assert_eq!(l.len(), 1);
        assert!(l.contains(&BlockAddr(7)));
    }

    #[test]
    fn iter_mru_order() {
        let mut l = LruList::new();
        for i in 0..5u64 {
            l.insert_mru(BlockAddr(i));
        }
        l.insert_mru(BlockAddr(0));
        let mut order = lru_order(&l);
        order.reverse();
        assert_eq!(order, vec![0, 4, 3, 2, 1]);
    }

    #[test]
    fn iter_lru_is_the_reverse_of_iter_mru() {
        let mut l = LruList::new();
        for i in 0..5u64 {
            l.insert_mru(BlockAddr(i));
        }
        l.insert_mru(BlockAddr(2));
        let lru = lru_order(&l);
        assert_eq!(lru, vec![0, 1, 3, 4, 2]);
        // The clone's drain is the order the list itself evicts in.
        let evicted: Vec<u64> = std::iter::from_fn(|| l.pop_lru()).map(|b| b.0).collect();
        assert_eq!(evicted, lru);
        assert!(lru_order(&LruList::new()).is_empty());
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
        /// operation trace: same answers, same length, and the same
        /// recency order — read by draining a clone — after every
        /// operation.
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
                    // Inserts, new keys and touches of present ones alike.
                    0 | 1 => {
                        let fresh = !take(&mut model, key);
                        model.push_front(key);
                        prop_assert_eq!(list.insert_mru(addr), fresh);
                    }
                    2 => prop_assert_eq!(list.pop_lru().map(|b| b.0), model.pop_back()),
                    3 => prop_assert_eq!(list.remove(&addr), take(&mut model, key)),
                    _ => prop_assert_eq!(list.contains(&addr), model.contains(&key)),
                }
                prop_assert_eq!(list.len(), model.len());
                let expect: Vec<u64> = model.iter().rev().copied().collect();
                prop_assert_eq!(lru_order(&list), expect);
            }
        }
    }
}
