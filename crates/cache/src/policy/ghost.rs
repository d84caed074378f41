//! A bounded ghost list: recency-ordered history of *non-resident* block
//! addresses.
//!
//! Ghost-keeping policies remember addresses they recently evicted so a
//! re-reference can be told apart from a first touch: 2Q promotes a block
//! to its main queue only when the address is found on `A1out`, and ARC
//! steers its self-tuning target `p` by which of its two ghost lists (`B1`
//! for recency victims, `B2` for frequency victims) a miss lands on. The
//! plumbing is identical in both — insert at the MRU end, age out at the
//! LRU end when over capacity, forget on TRIM — so it lives here once.
//!
//! A ghost entry holds **no cache space**; only the address is remembered.

use crate::arena::{check_lists, ListArena, ListHandle};
use crate::table::OpenMap;
use hstorage_storage::BlockAddr;

/// A capacity-bounded FIFO/LRU of remembered block addresses: one
/// intrusive list in a private arena ([`crate::arena`]), front = most
/// recent, indexed by an open-addressing `lbn → node` map — dense `u32`
/// links, no per-node heap allocation. The addresses are absent from the
/// cache, so the block table cannot carry their nodes the way it does for
/// resident blocks (see [`crate::priority_group`]).
#[derive(Debug, Clone)]
pub struct GhostList {
    arena: ListArena,
    list: ListHandle,
    index: OpenMap<u32>,
    capacity: usize,
}

impl GhostList {
    /// Creates an empty ghost list remembering at most `capacity`
    /// addresses. A capacity of 0 remembers nothing (every
    /// [`GhostList::remember`] is immediately aged out).
    pub fn new(capacity: usize) -> Self {
        GhostList {
            arena: ListArena::new(),
            list: ListHandle::new(),
            index: OpenMap::new(),
            capacity,
        }
    }

    /// Maximum number of addresses remembered.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of addresses currently remembered.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no address is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `lbn` is remembered.
    pub fn contains(&self, lbn: BlockAddr) -> bool {
        self.index.contains(lbn.0)
    }

    /// Remembers `lbn` at the most-recent end, aging out the oldest
    /// remembered address while the list is over capacity. Re-remembering
    /// an address moves it to the most-recent end without duplicating it.
    pub fn remember(&mut self, lbn: BlockAddr) {
        let GhostList {
            arena, list, index, ..
        } = self;
        let (&mut slot, fresh) = index.get_or_insert_with(lbn.0, || list.push_front(arena, lbn));
        if !fresh {
            list.move_front(arena, slot);
        }
        while self.len() > self.capacity {
            self.pop_oldest();
        }
    }

    /// Forgets `lbn` (ghost hit consumed, or the block's lifetime ended in
    /// a TRIM). Returns `true` if the address was remembered.
    pub fn forget(&mut self, lbn: BlockAddr) -> bool {
        match self.index.remove(lbn.0) {
            Some(slot) => {
                self.list.remove(&mut self.arena, slot);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the oldest remembered address (directory
    /// trimming, e.g. ARC's bound on `|T1| + |B1|`).
    pub fn pop_oldest(&mut self) -> Option<BlockAddr> {
        let lbn = self.list.pop_back(&mut self.arena)?;
        self.index.remove(lbn.0);
        Some(lbn)
    }

    /// Checks the list against its invariants and returns the first one
    /// broken, for a policy's [`CachePolicy::check`]: the list's links
    /// hold and it holds every live node, it remembers at most
    /// [`Self::capacity`] addresses, and the index maps exactly its
    /// addresses to their nodes.
    ///
    /// [`CachePolicy::check`]: crate::policy::CachePolicy::check
    pub fn check(&self) -> Result<(), String> {
        check_lists(&self.arena, &[("ghost list", &self.list)], |_, node| {
            let lbn = self.arena.key(node);
            match self.index.get(lbn.0) {
                Some(&indexed) if indexed == node => Ok(()),
                other => Err(format!("the index maps {} to {other:?}", lbn.0)),
            }
        })?;
        if self.len() > self.capacity {
            return Err(format!(
                "{} addresses remembered, capacity {}",
                self.len(),
                self.capacity
            ));
        }
        if self.index.len() != self.len() {
            return Err(format!(
                "the index holds {} addresses, the list {}",
                self.index.len(),
                self.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A ghost list whose capacity covers every key the tests use, so
    /// nothing ages out and it orders its keys like a plain LRU list.
    fn unbounded() -> GhostList {
        GhostList::new(1 << 10)
    }

    /// The remembered keys from oldest to most recent, read by draining a
    /// clone with `pop_oldest`.
    fn lru_order(g: &GhostList) -> Vec<u64> {
        let mut g = g.clone();
        std::iter::from_fn(|| g.pop_oldest()).map(|b| b.0).collect()
    }

    #[test]
    fn remember_trims_to_capacity_in_fifo_order() {
        let mut g = GhostList::new(3);
        for i in 0..5u64 {
            g.remember(BlockAddr(i));
        }
        assert_eq!(g.len(), 3);
        assert_eq!(g.capacity(), 3);
        assert_eq!(g.check(), Ok(()));
        // The two oldest were aged out.
        assert!(!g.contains(BlockAddr(0)));
        assert!(!g.contains(BlockAddr(1)));
        for i in 2..5u64 {
            assert!(g.contains(BlockAddr(i)), "ghost {i} must survive");
        }
        assert_eq!(g.pop_oldest(), Some(BlockAddr(2)));
    }

    #[test]
    fn duplicate_remember_refreshes_without_duplicating() {
        let mut g = GhostList::new(2);
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        // Re-remembering 1 moves it to the MRU end; the list must not
        // grow, and 2 is now the oldest.
        g.remember(BlockAddr(1));
        assert_eq!(g.len(), 2);
        g.remember(BlockAddr(3));
        assert!(!g.contains(BlockAddr(2)), "2 aged out, not the refreshed 1");
        assert!(g.contains(BlockAddr(1)));
        assert!(g.contains(BlockAddr(3)));
    }

    #[test]
    fn hit_forgets_exactly_the_hit_address() {
        let mut g = GhostList::new(4);
        for i in 0..3u64 {
            g.remember(BlockAddr(i));
        }
        // A ghost hit consumes the entry: the promoted address leaves the
        // list, everything else stays.
        assert!(g.forget(BlockAddr(1)));
        assert!(!g.contains(BlockAddr(1)));
        assert!(!g.forget(BlockAddr(1)), "second forget finds nothing");
        assert_eq!(g.len(), 2);
        assert!(g.contains(BlockAddr(0)));
        assert!(g.contains(BlockAddr(2)));
    }

    #[test]
    fn zero_capacity_remembers_nothing() {
        let mut g = GhostList::new(0);
        g.remember(BlockAddr(7));
        assert!(g.is_empty());
        assert!(!g.contains(BlockAddr(7)));
        assert_eq!(g.pop_oldest(), None);
    }

    #[test]
    fn insert_and_pop_order() {
        let mut g = unbounded();
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        g.remember(BlockAddr(3));
        assert_eq!(g.len(), 3);
        assert_eq!(g.pop_oldest(), Some(BlockAddr(1)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(2)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(3)));
        assert_eq!(g.pop_oldest(), None);
        assert!(g.is_empty());
    }

    #[test]
    fn touch_moves_to_front() {
        // Re-remembering is how a key is touched: the oldest key becomes
        // the most recent.
        let mut g = unbounded();
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        g.remember(BlockAddr(3));
        g.remember(BlockAddr(1));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(2)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(3)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(1)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut g = unbounded();
        g.remember(BlockAddr(1));
        assert!(!g.contains(BlockAddr(42)));
        assert!(!g.forget(BlockAddr(42)));
        assert_eq!(lru_order(&g), vec![1], "a miss leaves the list as it was");
    }

    #[test]
    fn reinsert_moves_to_front_without_duplicating() {
        let mut g = unbounded();
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        g.remember(BlockAddr(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.pop_oldest(), Some(BlockAddr(2)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(1)));
    }

    #[test]
    fn remove_specific_key() {
        let mut g = unbounded();
        g.remember(BlockAddr(1));
        g.remember(BlockAddr(2));
        g.remember(BlockAddr(3));
        assert!(g.forget(BlockAddr(2)));
        assert!(!g.forget(BlockAddr(2)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(1)));
        assert_eq!(g.pop_oldest(), Some(BlockAddr(3)));
    }

    #[test]
    fn peek_does_not_remove() {
        // Reading the order from a clone leaves the list itself whole.
        let mut g = unbounded();
        g.remember(BlockAddr(7));
        assert_eq!(lru_order(&g), vec![7]);
        assert_eq!(g.len(), 1);
        assert!(g.contains(BlockAddr(7)));
    }

    #[test]
    fn iter_mru_order() {
        let mut g = unbounded();
        for i in 0..5u64 {
            g.remember(BlockAddr(i));
        }
        g.remember(BlockAddr(0));
        let mut order = lru_order(&g);
        order.reverse();
        assert_eq!(order, vec![0, 4, 3, 2, 1]);
    }

    #[test]
    fn iter_lru_is_the_reverse_of_iter_mru() {
        let mut g = unbounded();
        for i in 0..5u64 {
            g.remember(BlockAddr(i));
        }
        g.remember(BlockAddr(2));
        let lru = lru_order(&g);
        assert_eq!(lru, vec![0, 1, 3, 4, 2]);
        // The clone's drain is the order the list itself ages out in.
        let aged: Vec<u64> = std::iter::from_fn(|| g.pop_oldest()).map(|b| b.0).collect();
        assert_eq!(aged, lru);
        assert!(lru_order(&unbounded()).is_empty());
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut g = unbounded();
        for i in 0..100u64 {
            g.remember(BlockAddr(i));
        }
        for i in 0..100u64 {
            assert!(g.forget(BlockAddr(i)));
        }
        for i in 100..200u64 {
            g.remember(BlockAddr(i));
        }
        // The arena should not have grown beyond the peak live population.
        assert!(g.arena.slots() <= 100, "arena grew past the peak");
        assert_eq!(g.len(), 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A ghost list that never ages out agrees with a `VecDeque` LRU
        /// model (front = most recent) on any operation trace: same
        /// answers, same length, and the same recency order — read by
        /// draining a clone — after every operation.
        #[test]
        fn lru_list_matches_a_vecdeque_model(
            ops in proptest::collection::vec((0u8..5, 0u64..24), 1..300),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut list = unbounded();
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
                        take(&mut model, key);
                        model.push_front(key);
                        list.remember(addr);
                    }
                    2 => prop_assert_eq!(list.pop_oldest().map(|b| b.0), model.pop_back()),
                    3 => prop_assert_eq!(list.forget(addr), take(&mut model, key)),
                    _ => prop_assert_eq!(list.contains(addr), model.contains(&key)),
                }
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(list.check(), Ok(()));
                let expect: Vec<u64> = model.iter().rev().copied().collect();
                prop_assert_eq!(lru_order(&list), expect);
            }
        }
    }
}
