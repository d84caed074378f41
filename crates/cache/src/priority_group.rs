//! Priority groups (Section 5.1).
//!
//! Cached blocks are organised into `N` priority groups; group `k` only
//! contains blocks of priority `k`, and each group is managed by LRU.
//! Selective eviction first identifies the *lowest-priority* (largest `k`)
//! non-empty group and then evicts its least-recently-used block.
//!
//! We keep one extra group at index 0 for the write buffer, which the
//! paper describes as a special priority that "wins" cache space over any
//! other priority — i.e. it is evicted last.
//!
//! All groups are lists over one [`ListArena`], and the structure keeps no
//! address index: a block is reached through the node handle
//! [`PriorityGroups::insert`] returned, which the engine stores in the
//! block's table slot — the paper's one hash table of cached blocks
//! (Section 5.2) over the groups. Re-allocation moves the node between groups, so the
//! handle stays valid for as long as the block is resident.

use crate::arena::{check_lists, ListArena, ListHandle};
use hstorage_storage::{BlockAddr, CachePriority};

/// The set of per-priority LRU groups.
#[derive(Debug, Clone)]
pub struct PriorityGroups {
    /// The nodes of every group.
    arena: ListArena,
    /// `groups[k]` holds blocks of priority `k`; index 0 is the write buffer.
    groups: Vec<ListHandle>,
}

impl PriorityGroups {
    /// Creates groups for priorities `0..=total_priorities`.
    pub fn new(total_priorities: u8) -> Self {
        PriorityGroups {
            arena: ListArena::new(),
            groups: vec![ListHandle::new(); total_priorities as usize + 1],
        }
    }

    /// Number of priority levels (including the write-buffer group 0 and the
    /// two non-caching groups, which normally stay empty).
    pub fn levels(&self) -> usize {
        self.groups.len()
    }

    /// Total number of blocks across all groups.
    pub fn len(&self) -> usize {
        self.arena.live()
    }

    /// Whether all groups are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks in the group for `prio`.
    pub fn group_len(&self, prio: CachePriority) -> usize {
        self.groups
            .get(prio.0 as usize)
            .map(|g| g.len())
            .unwrap_or(0)
    }

    /// Inserts `lbn` into the group for `prio` at the MRU position and
    /// returns its node handle.
    #[inline]
    pub fn insert(&mut self, lbn: BlockAddr, prio: CachePriority) -> u32 {
        self.groups[prio.0 as usize].push_front(&mut self.arena, lbn)
    }

    /// Marks the block at `node` (which lives in group `prio`) as most
    /// recently used.
    #[inline]
    pub fn touch(&mut self, node: u32, prio: CachePriority) {
        self.groups[prio.0 as usize].move_front(&mut self.arena, node);
    }

    /// Starts loading the node at `node`, or its list neighbours (see
    /// [`ListArena::prefetch`]). Changes nothing.
    #[inline]
    pub fn prefetch(&self, node: u32, neighbours: bool) {
        self.arena.prefetch(node, neighbours);
    }

    /// Removes the block at `node` from the group for `prio`.
    #[inline]
    pub fn remove(&mut self, node: u32, prio: CachePriority) {
        self.groups[prio.0 as usize].remove(&mut self.arena, node);
    }

    /// Re-allocation (action 5 of Section 5.1): moves the block at `node`
    /// from its old group to the MRU position of a new one, keeping its
    /// node handle.
    #[inline]
    pub fn reallocate(&mut self, node: u32, old: CachePriority, new: CachePriority) {
        self.groups[old.0 as usize].detach(&mut self.arena, node);
        self.groups[new.0 as usize].attach_front(&mut self.arena, node);
    }

    /// The eviction victim according to selective eviction: the LRU block of
    /// the lowest-priority (largest priority number) non-empty group.
    ///
    /// Returns the block and the priority of the group it came from, without
    /// removing it.
    #[inline]
    pub fn peek_victim(&self) -> Option<(BlockAddr, CachePriority)> {
        for (k, group) in self.groups.iter().enumerate().rev() {
            if let Some(&lbn) = group.back(&self.arena) {
                return Some((lbn, CachePriority(k as u8)));
            }
        }
        None
    }

    /// Removes and returns the selective-eviction victim.
    pub fn pop_victim(&mut self) -> Option<(BlockAddr, CachePriority)> {
        for (k, group) in self.groups.iter_mut().enumerate().rev() {
            if let Some(lbn) = group.pop_back(&mut self.arena) {
                return Some((lbn, CachePriority(k as u8)));
            }
        }
        None
    }

    /// The lowest priority (largest number) of any cached block, i.e. the
    /// priority the next victim would come from.
    pub fn lowest_occupied_priority(&self) -> Option<CachePriority> {
        self.peek_victim().map(|(_, p)| p)
    }

    /// Checks every group's links ([`ListHandle::check`]) and that the
    /// group lengths sum to the arena's live nodes, so no node is lost or
    /// shared between groups. Returns what is broken first.
    pub(crate) fn check(&self) -> Result<(), String> {
        let names: Vec<String> = (0..self.groups.len())
            .map(|k| format!("priority group {k}"))
            .collect();
        let lists: Vec<(&str, &ListHandle)> =
            names.iter().map(String::as_str).zip(&self.groups).collect();
        check_lists(&self.arena, &lists, |_, _| Ok(()))
    }

    /// Iterates all blocks in the group for `prio`, MRU first.
    pub fn iter_group(&self, prio: CachePriority) -> impl Iterator<Item = &BlockAddr> {
        self.groups[prio.0 as usize].iter_front(&self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    fn b(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn victim_comes_from_lowest_priority_group() {
        let mut g = PriorityGroups::new(8);
        g.insert(b(1), CachePriority(1));
        g.insert(b(2), CachePriority(3));
        g.insert(b(3), CachePriority(3));
        g.insert(b(4), CachePriority(2));
        // Group 3 is the lowest-priority occupied group; block 2 is its LRU.
        assert_eq!(g.peek_victim(), Some((b(2), CachePriority(3))));
        assert_eq!(g.pop_victim(), Some((b(2), CachePriority(3))));
        assert_eq!(g.pop_victim(), Some((b(3), CachePriority(3))));
        assert_eq!(g.pop_victim(), Some((b(4), CachePriority(2))));
        assert_eq!(g.pop_victim(), Some((b(1), CachePriority(1))));
        assert_eq!(g.pop_victim(), None);
    }

    #[test]
    fn write_buffer_group_is_evicted_last() {
        let mut g = PriorityGroups::new(8);
        g.insert(b(10), CachePriority(0)); // write buffer
        g.insert(b(11), CachePriority(1));
        assert_eq!(g.pop_victim(), Some((b(11), CachePriority(1))));
        assert_eq!(g.pop_victim(), Some((b(10), CachePriority(0))));
    }

    #[test]
    fn reallocate_moves_between_groups() {
        let mut g = PriorityGroups::new(8);
        let node = g.insert(b(1), CachePriority(2));
        assert_eq!(g.group_len(CachePriority(2)), 1);
        g.reallocate(node, CachePriority(2), CachePriority(5));
        assert_eq!(g.group_len(CachePriority(2)), 0);
        assert_eq!(g.group_len(CachePriority(5)), 1);
        assert_eq!(g.peek_victim(), Some((b(1), CachePriority(5))));
        // The handle survives the move.
        g.touch(node, CachePriority(5));
        g.remove(node, CachePriority(5));
        assert!(g.is_empty());
    }

    #[test]
    fn lru_within_a_group() {
        let mut g = PriorityGroups::new(4);
        let one = g.insert(b(1), CachePriority(2));
        g.insert(b(2), CachePriority(2));
        g.insert(b(3), CachePriority(2));
        g.touch(one, CachePriority(2));
        assert_eq!(g.pop_victim(), Some((b(2), CachePriority(2))));
        assert_eq!(g.pop_victim(), Some((b(3), CachePriority(2))));
        assert_eq!(g.pop_victim(), Some((b(1), CachePriority(2))));
    }

    #[test]
    fn len_and_lowest_priority() {
        let mut g = PriorityGroups::new(8);
        assert!(g.is_empty());
        assert_eq!(g.lowest_occupied_priority(), None);
        g.insert(b(1), CachePriority(1));
        let two = g.insert(b(2), CachePriority(6));
        assert_eq!(g.len(), 2);
        assert_eq!(g.lowest_occupied_priority(), Some(CachePriority(6)));
        g.remove(two, CachePriority(6));
        assert_eq!(g.lowest_occupied_priority(), Some(CachePriority(1)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The groups agree with one `VecDeque` per priority (front = MRU)
        /// on any insert / touch / remove / reallocate / pop trace: same
        /// victim, same lengths, same order inside every group after every
        /// operation, with each block reached only through the node handle
        /// its insert returned.
        #[test]
        fn priority_groups_match_a_vecdeque_per_group_model(
            ops in proptest::collection::vec((0u8..5, 0u64..24, 0u8..6), 1..300),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut groups = PriorityGroups::new(5);
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); 6];
            // lbn → (node, group): the engine's table slot.
            let mut slots: HashMap<u64, (u32, u8)> = HashMap::new();
            let take = |model: &mut Vec<VecDeque<u64>>, group: u8, key: u64| {
                let g = &mut model[group as usize];
                let at = g.iter().position(|&k| k == key).expect("modelled");
                g.remove(at);
            };
            for (op, key, prio) in ops {
                match (op, slots.get(&key).copied()) {
                    (0, None) => {
                        let node = groups.insert(BlockAddr(key), CachePriority(prio));
                        slots.insert(key, (node, prio));
                        model[prio as usize].push_front(key);
                    }
                    (1, Some((node, group))) => {
                        groups.touch(node, CachePriority(group));
                        take(&mut model, group, key);
                        model[group as usize].push_front(key);
                    }
                    (2, Some((node, group))) => {
                        groups.remove(node, CachePriority(group));
                        slots.remove(&key);
                        take(&mut model, group, key);
                    }
                    (3, Some((node, group))) => {
                        groups.reallocate(node, CachePriority(group), CachePriority(prio));
                        slots.insert(key, (node, prio));
                        take(&mut model, group, key);
                        model[prio as usize].push_front(key);
                    }
                    (4, _) => {
                        let want = model
                            .iter_mut()
                            .enumerate()
                            .rev()
                            .find_map(|(k, g)| g.pop_back().map(|lbn| (BlockAddr(lbn), CachePriority(k as u8))));
                        let got = groups.pop_victim();
                        prop_assert_eq!(got, want);
                        if let Some((lbn, _)) = got {
                            slots.remove(&lbn.0);
                        }
                    }
                    _ => {}
                }
                let total: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(groups.len(), total);
                prop_assert_eq!(groups.check(), Ok(()));
                let victim = model
                    .iter()
                    .enumerate()
                    .rev()
                    .find_map(|(k, g)| g.back().map(|&lbn| (BlockAddr(lbn), CachePriority(k as u8))));
                prop_assert_eq!(groups.peek_victim(), victim);
                for (k, g) in model.iter().enumerate() {
                    let prio = CachePriority(k as u8);
                    prop_assert_eq!(groups.group_len(prio), g.len());
                    let order: Vec<u64> = groups.iter_group(prio).map(|b| b.0).collect();
                    prop_assert_eq!(order, Vec::from(g.clone()));
                }
            }
        }
    }
}
