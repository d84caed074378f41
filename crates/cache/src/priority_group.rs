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

use crate::lru::LruList;
use hstorage_storage::{BlockAddr, CachePriority};

/// The set of per-priority LRU groups.
#[derive(Debug, Clone)]
pub struct PriorityGroups {
    /// `groups[k]` holds blocks of priority `k`; index 0 is the write buffer.
    groups: Vec<LruList>,
}

impl PriorityGroups {
    /// Creates groups for priorities `0..=total_priorities`.
    pub fn new(total_priorities: u8) -> Self {
        let groups = (0..=total_priorities as usize)
            .map(|_| LruList::new())
            .collect();
        PriorityGroups { groups }
    }

    /// Number of priority levels (including the write-buffer group 0 and the
    /// two non-caching groups, which normally stay empty).
    pub fn levels(&self) -> usize {
        self.groups.len()
    }

    /// Total number of blocks across all groups.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Whether all groups are empty.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|g| g.is_empty())
    }

    /// Number of blocks in the group for `prio`.
    pub fn group_len(&self, prio: CachePriority) -> usize {
        self.groups
            .get(prio.0 as usize)
            .map(|g| g.len())
            .unwrap_or(0)
    }

    /// Inserts `lbn` into the group for `prio` at the MRU position.
    pub fn insert(&mut self, lbn: BlockAddr, prio: CachePriority) {
        self.groups[prio.0 as usize].insert_mru(lbn);
    }

    /// Marks `lbn` (known to live in group `prio`) as most recently used.
    pub fn touch(&mut self, lbn: BlockAddr, prio: CachePriority) -> bool {
        self.groups[prio.0 as usize].touch(&lbn)
    }

    /// Removes `lbn` from the group for `prio`. Returns whether it was there.
    pub fn remove(&mut self, lbn: BlockAddr, prio: CachePriority) -> bool {
        self.groups[prio.0 as usize].remove(&lbn)
    }

    /// Re-allocation (action 5 of Section 5.1): moves a block from its old
    /// group to a new one, placing it at the MRU position of the new group.
    pub fn reallocate(&mut self, lbn: BlockAddr, old: CachePriority, new: CachePriority) {
        self.groups[old.0 as usize].remove(&lbn);
        self.groups[new.0 as usize].insert_mru(lbn);
    }

    /// The eviction victim according to selective eviction: the LRU block of
    /// the lowest-priority (largest priority number) non-empty group.
    ///
    /// Returns the block and the priority of the group it came from, without
    /// removing it.
    pub fn peek_victim(&self) -> Option<(BlockAddr, CachePriority)> {
        for (k, group) in self.groups.iter().enumerate().rev() {
            if let Some(&lbn) = group.peek_lru() {
                return Some((lbn, CachePriority(k as u8)));
            }
        }
        None
    }

    /// Removes and returns the selective-eviction victim.
    pub fn pop_victim(&mut self) -> Option<(BlockAddr, CachePriority)> {
        for (k, group) in self.groups.iter_mut().enumerate().rev() {
            if let Some(lbn) = group.pop_lru() {
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

    /// Iterates all blocks in the group for `prio`, MRU first.
    pub fn iter_group(&self, prio: CachePriority) -> impl Iterator<Item = &BlockAddr> {
        self.groups[prio.0 as usize].iter_mru()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        g.insert(b(1), CachePriority(2));
        assert_eq!(g.group_len(CachePriority(2)), 1);
        g.reallocate(b(1), CachePriority(2), CachePriority(5));
        assert_eq!(g.group_len(CachePriority(2)), 0);
        assert_eq!(g.group_len(CachePriority(5)), 1);
        assert_eq!(g.peek_victim(), Some((b(1), CachePriority(5))));
    }

    #[test]
    fn lru_within_a_group() {
        let mut g = PriorityGroups::new(4);
        g.insert(b(1), CachePriority(2));
        g.insert(b(2), CachePriority(2));
        g.insert(b(3), CachePriority(2));
        g.touch(b(1), CachePriority(2));
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
        g.insert(b(2), CachePriority(6));
        assert_eq!(g.len(), 2);
        assert_eq!(g.lowest_occupied_priority(), Some(CachePriority(6)));
        g.remove(b(2), CachePriority(6));
        assert_eq!(g.lowest_occupied_priority(), Some(CachePriority(1)));
    }
}
