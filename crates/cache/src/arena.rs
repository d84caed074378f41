//! Slab arena for intrusive doubly-linked lists over `u32` indices.
//!
//! Every recency structure in the cache — the LRU stacks, the per-priority
//! groups, the ghost directories — is an ordered list of block addresses
//! with O(1) touch/insert/remove. The classic implementation allocates one
//! heap node per element and chases pointers; this arena keeps all nodes
//! of a list in one dense `Vec` and links them with `u32` indices, so a
//! list walk touches consecutive cache lines and a freed node's slot is
//! recycled from an explicit free list instead of round-tripping through
//! the allocator.
//!
//! [`ListArena`] owns the node storage; [`ListHandle`] is the head/tail
//! cursor of one list threaded through it. Handles borrow the arena per
//! call, so several lists share one arena: a policy keeps all of its
//! resident lists (priority groups, 2Q's `A1in`/`Am`, ARC's `T1`/`T2`)
//! in one slab and moves a node between them with
//! [`ListHandle::detach`] / [`ListHandle::attach_front`], so a node's
//! index stays valid for as long as its block is resident — the handle
//! the engine's block table stores for it. [`NodeFlags`] is the one bit
//! of per-node state such a policy needs beside the links.

use crate::table::prefetch_line;
use hstorage_storage::BlockAddr;

/// Null link: no node.
pub const NIL: u32 = u32::MAX;

/// One intrusive list node: the key plus its neighbour links.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: BlockAddr,
    prev: u32,
    next: u32,
}

/// The slab that stores list nodes: a dense `Vec` plus a free list of
/// recycled slots. Nodes are addressed by `u32` index; [`NIL`] is the null
/// link.
#[derive(Debug, Clone, Default)]
pub struct ListArena {
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl ListArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots ever allocated (live + free) — the slab's
    /// high-water mark.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (linked) nodes.
    pub fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocates a node for `key`, recycling a freed slot if one exists.
    #[inline]
    fn alloc(&mut self, key: BlockAddr) -> u32 {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "list arena full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Returns a node's slot to the free list.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// The key stored in a live node.
    #[inline]
    pub fn key(&self, slot: u32) -> BlockAddr {
        self.nodes[slot as usize].key
    }

    /// A reference to the key stored in a live node (for `peek` APIs that
    /// hand out references).
    #[inline]
    pub fn key_ref(&self, slot: u32) -> &BlockAddr {
        &self.nodes[slot as usize].key
    }

    /// Starts loading the line of node `slot` — or, with `neighbours`,
    /// the lines of the nodes linked before and after it, which a move to
    /// the front writes — without waiting for them. A pure hint that
    /// changes nothing: a slot past the slab, [`NIL`] included, is
    /// ignored, and a freed slot's stale links name nodes of the slab.
    #[inline]
    pub fn prefetch(&self, slot: u32, neighbours: bool) {
        let Some(node) = self.nodes.get(slot as usize) else {
            return;
        };
        if !neighbours {
            return prefetch_line(node);
        }
        for link in [node.prev, node.next] {
            if let Some(near) = self.nodes.get(link as usize) {
                prefetch_line(near);
            }
        }
    }
}

/// One doubly-linked list threaded through a [`ListArena`]: front = most
/// recently used, back = eviction candidate. All methods take the arena
/// the handle's nodes live in.
#[derive(Debug, Clone, Copy)]
pub struct ListHandle {
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for ListHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl ListHandle {
    /// Creates an empty list.
    pub fn new() -> Self {
        ListHandle {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of nodes in this list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates a node for `key` and links it at the front. Returns the
    /// node index, which stays the node's address until it is freed.
    #[inline]
    pub fn push_front(&mut self, arena: &mut ListArena, key: BlockAddr) -> u32 {
        let slot = arena.alloc(key);
        self.attach_front(arena, slot);
        slot
    }

    /// Unlinks and frees the back node, returning its key.
    #[inline]
    pub fn pop_back(&mut self, arena: &mut ListArena) -> Option<BlockAddr> {
        let slot = self.tail;
        if slot == NIL {
            return None;
        }
        let key = arena.key(slot);
        self.unlink(arena, slot);
        arena.release(slot);
        self.len -= 1;
        Some(key)
    }

    /// The back (least-recently-used) key, if any.
    #[inline]
    pub fn back<'a>(&self, arena: &'a ListArena) -> Option<&'a BlockAddr> {
        if self.tail == NIL {
            None
        } else {
            Some(arena.key_ref(self.tail))
        }
    }

    /// Unlinks and frees a specific node (which must belong to this list).
    #[inline]
    pub fn remove(&mut self, arena: &mut ListArena, slot: u32) {
        self.detach(arena, slot);
        arena.release(slot);
    }

    /// Unlinks a node (which must belong to this list) *without* freeing
    /// it, so it can be re-linked into another list over the same arena
    /// under the same index.
    #[inline]
    pub fn detach(&mut self, arena: &mut ListArena, slot: u32) {
        self.unlink(arena, slot);
        self.len -= 1;
    }

    /// Links a detached node at the front of this list.
    #[inline]
    pub fn attach_front(&mut self, arena: &mut ListArena, slot: u32) {
        self.link_front(arena, slot);
        self.len += 1;
    }

    /// Moves a node (which must belong to this list) to the front.
    #[inline]
    pub fn move_front(&mut self, arena: &mut ListArena, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(arena, slot);
        self.link_front(arena, slot);
    }

    /// Checks this list's links: the walk from the head visits exactly
    /// `len` nodes, each naming the one before it as `prev` (the head
    /// [`NIL`]), and ends at the tail. Returns what is broken first.
    pub(crate) fn check(&self, arena: &ListArena) -> Result<(), String> {
        let (mut prev, mut cur, mut seen) = (NIL, self.head, 0usize);
        while cur != NIL {
            let Some(node) = arena.nodes.get(cur as usize) else {
                return Err(format!("node {cur} after {seen} nodes is past the slab"));
            };
            if node.prev != prev {
                return Err(format!(
                    "node {cur} links back to {} instead of {prev}",
                    node.prev
                ));
            }
            seen += 1;
            if seen > self.len {
                return Err(format!("the walk passes len {}", self.len));
            }
            (prev, cur) = (cur, node.next);
        }
        if seen != self.len {
            return Err(format!("the walk visits {seen} nodes, len is {}", self.len));
        }
        if prev != self.tail {
            return Err(format!(
                "the walk ends at {prev}, the tail is {}",
                self.tail
            ));
        }
        Ok(())
    }

    /// Iterates keys front → back (most → least recently used).
    pub fn iter_front<'a>(&self, arena: &'a ListArena) -> ListIter<'a> {
        ListIter(NodeIter {
            arena,
            cur: self.head,
            forward: true,
        })
    }

    /// Iterates node indices back → front — for a scan that consults
    /// per-node state ([`NodeFlags`]) on its way from the LRU end.
    pub fn nodes_back<'a>(&self, arena: &'a ListArena) -> NodeIter<'a> {
        NodeIter {
            arena,
            cur: self.tail,
            forward: false,
        }
    }

    #[inline]
    fn link_front(&mut self, arena: &mut ListArena, slot: u32) {
        let head = self.head;
        {
            let node = &mut arena.nodes[slot as usize];
            node.prev = NIL;
            node.next = head;
        }
        if head != NIL {
            arena.nodes[head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    #[inline]
    fn unlink(&mut self, arena: &mut ListArena, slot: u32) {
        let (prev, next) = {
            let node = &arena.nodes[slot as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            arena.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            arena.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let node = &mut arena.nodes[slot as usize];
        node.prev = NIL;
        node.next = NIL;
    }
}

/// Checks the lists of one policy that share `arena`: each list's links
/// ([`ListHandle::check`]), `node_ok(list, node)` for every node of each,
/// by the list's position in `lists`, and that together they hold every
/// live node of the arena, so none is lost. Errors name the list.
pub(crate) fn check_lists(
    arena: &ListArena,
    lists: &[(&str, &ListHandle)],
    mut node_ok: impl FnMut(usize, u32) -> Result<(), String>,
) -> Result<(), String> {
    let mut linked = 0;
    for (i, &(name, list)) in lists.iter().enumerate() {
        list.check(arena).map_err(|e| format!("{name}: {e}"))?;
        for node in list.nodes_back(arena) {
            node_ok(i, node).map_err(|e| format!("{name}: node {node}: {e}"))?;
        }
        linked += list.len();
    }
    if linked != arena.live() {
        return Err(format!(
            "the lists hold {linked} nodes, the arena {} live ones",
            arena.live()
        ));
    }
    Ok(())
}

/// Iterator over the node indices of one [`ListHandle`]'s list.
pub struct NodeIter<'a> {
    arena: &'a ListArena,
    cur: u32,
    forward: bool,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = u32;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur;
        let node = &self.arena.nodes[slot as usize];
        self.cur = if self.forward { node.next } else { node.prev };
        Some(slot)
    }
}

/// Iterator over the keys of one [`ListHandle`]'s list.
pub struct ListIter<'a>(NodeIter<'a>);

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a BlockAddr;

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.0.next()?;
        Some(self.0.arena.key_ref(slot))
    }
}

/// One flag per arena node, indexed like the arena: which of a policy's
/// two lists a node is on, or whether its block is dirty. Reading it is
/// one load beside the node; setting it grows the vector with the slab.
#[derive(Debug, Clone, Default)]
pub struct NodeFlags(Vec<bool>);

impl NodeFlags {
    /// The flag of `node` (which must have been [`NodeFlags::set`]).
    #[inline]
    pub fn get(&self, node: u32) -> bool {
        self.0[node as usize]
    }

    /// Sets the flag of `node`.
    #[inline]
    pub fn set(&mut self, node: u32, value: bool) {
        let i = node as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, false);
        }
        self.0[i] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn push_pop_order_is_fifo_from_the_back() {
        let mut arena = ListArena::new();
        let mut list = ListHandle::new();
        for i in 1..=3u64 {
            list.push_front(&mut arena, BlockAddr(i));
        }
        assert_eq!(list.len(), 3);
        assert_eq!(list.pop_back(&mut arena), Some(BlockAddr(1)));
        assert_eq!(list.pop_back(&mut arena), Some(BlockAddr(2)));
        assert_eq!(list.pop_back(&mut arena), Some(BlockAddr(3)));
        assert_eq!(list.pop_back(&mut arena), None);
        assert!(list.is_empty());
    }

    #[test]
    fn move_front_reorders_and_back_peeks() {
        let mut arena = ListArena::new();
        let mut list = ListHandle::new();
        let a = list.push_front(&mut arena, BlockAddr(1));
        let _b = list.push_front(&mut arena, BlockAddr(2));
        assert_eq!(list.back(&arena), Some(&BlockAddr(1)));
        list.move_front(&mut arena, a);
        assert_eq!(list.back(&arena), Some(&BlockAddr(2)));
        // Moving the head is a no-op.
        list.move_front(&mut arena, a);
        assert_eq!(list.back(&arena), Some(&BlockAddr(2)));
        let order: Vec<BlockAddr> = list.iter_front(&arena).copied().collect();
        assert_eq!(order, vec![BlockAddr(1), BlockAddr(2)]);
    }

    #[test]
    fn remove_unlinks_interior_nodes() {
        let mut arena = ListArena::new();
        let mut list = ListHandle::new();
        let _a = list.push_front(&mut arena, BlockAddr(1));
        let b = list.push_front(&mut arena, BlockAddr(2));
        let _c = list.push_front(&mut arena, BlockAddr(3));
        list.remove(&mut arena, b);
        let order: Vec<BlockAddr> = list.nodes_back(&arena).map(|n| arena.key(n)).collect();
        assert_eq!(order, vec![BlockAddr(1), BlockAddr(3)]);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn detach_and_attach_move_a_node_between_lists_under_its_index() {
        let mut arena = ListArena::new();
        let (mut a, mut b) = (ListHandle::new(), ListHandle::new());
        let n1 = a.push_front(&mut arena, BlockAddr(1));
        let n2 = a.push_front(&mut arena, BlockAddr(2));
        let n3 = a.push_front(&mut arena, BlockAddr(3));
        let n4 = b.push_front(&mut arena, BlockAddr(4));
        let (slots, live) = (arena.slots(), arena.live());
        a.detach(&mut arena, n2);
        assert_eq!(a.len(), 2);
        let order: Vec<u64> = a.iter_front(&arena).map(|k| k.0).collect();
        assert_eq!(order, vec![3, 1]);
        b.attach_front(&mut arena, n2);
        assert_eq!(b.len(), 2);
        let order: Vec<u64> = b.iter_front(&arena).map(|k| k.0).collect();
        assert_eq!(order, vec![2, 4]);
        let nodes: Vec<u32> = b.nodes_back(&arena).collect();
        assert_eq!(nodes, vec![n4, n2], "the node kept its index");
        // The free list is untouched: nothing was freed or allocated.
        assert_eq!((arena.slots(), arena.live()), (slots, live));
        // A detached head and tail leave consistent ends behind.
        a.detach(&mut arena, n3);
        a.detach(&mut arena, n1);
        assert!(a.is_empty());
        assert_eq!(a.back(&arena), None);
        a.attach_front(&mut arena, n1);
        assert_eq!(a.back(&arena), Some(&BlockAddr(1)));
        assert_eq!(arena.live(), live);
    }

    #[test]
    fn check_finds_stale_links_and_a_wrong_length() {
        let mut arena = ListArena::new();
        let mut list = ListHandle::new();
        let nodes: Vec<u32> = (1..=3u64)
            .map(|i| list.push_front(&mut arena, BlockAddr(i)))
            .collect();
        assert_eq!(list.check(&arena), Ok(()));
        // The tail loses the link back to the node before it.
        let broken = arena.nodes[nodes[0] as usize].prev;
        arena.nodes[nodes[0] as usize].prev = NIL;
        assert!(list.check(&arena).is_err());
        arena.nodes[nodes[0] as usize].prev = broken;
        // A length the walk does not reach, and a tail it does not end at.
        list.len += 1;
        assert!(list.check(&arena).is_err());
        list.len -= 1;
        list.tail = nodes[1];
        assert!(list.check(&arena).is_err());
    }

    #[test]
    fn node_flags_grow_with_the_slab() {
        let mut flags = NodeFlags::default();
        flags.set(5, true);
        flags.set(2, false);
        assert!(flags.get(5));
        assert!(!flags.get(2));
        assert!(!flags.get(0), "never-set nodes below a set one read false");
        flags.set(5, false);
        assert!(!flags.get(5));
    }

    #[test]
    fn freed_slots_are_recycled_before_the_slab_grows() {
        let mut arena = ListArena::new();
        let mut list = ListHandle::new();
        for i in 0..100u64 {
            list.push_front(&mut arena, BlockAddr(i));
        }
        for _ in 0..100 {
            list.pop_back(&mut arena);
        }
        for i in 100..200u64 {
            list.push_front(&mut arena, BlockAddr(i));
        }
        assert!(arena.slots() <= 100, "slab grew past the live peak");
        assert_eq!(arena.live(), 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The arena list agrees with a `VecDeque` model (front = index 0)
        /// on any trace of push-front / pop-back / move-front / remove
        /// operations, and free-list recycling never hands out a slot that
        /// is still linked into the list.
        #[test]
        fn arena_list_matches_a_vec_deque_model(
            ops in proptest::collection::vec((0u8..4, 0u64..24), 1..300),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            use std::collections::HashMap;
            let mut arena = ListArena::new();
            let mut list = ListHandle::new();
            // key → live node slot; mirrors what an index map colocates.
            let mut slots: HashMap<u64, u32> = HashMap::new();
            let mut model: VecDeque<u64> = VecDeque::new();
            for (op, key) in ops {
                match op {
                    0 => {
                        // Push a key not currently present.
                        if !slots.contains_key(&key) {
                            let slot = list.push_front(&mut arena, BlockAddr(key));
                            prop_assert!(
                                slots.values().all(|&s| s != slot),
                                "free-list reuse aliased a live node"
                            );
                            slots.insert(key, slot);
                            model.push_front(key);
                        }
                    }
                    1 => {
                        let popped = list.pop_back(&mut arena).map(|b| b.0);
                        prop_assert_eq!(popped, model.pop_back());
                        if let Some(k) = popped {
                            slots.remove(&k);
                        }
                    }
                    2 => {
                        if let Some(&slot) = slots.get(&key) {
                            list.move_front(&mut arena, slot);
                            let pos = model.iter().position(|&k| k == key).unwrap();
                            model.remove(pos);
                            model.push_front(key);
                        }
                    }
                    _ => {
                        if let Some(slot) = slots.remove(&key) {
                            list.remove(&mut arena, slot);
                            let pos = model.iter().position(|&k| k == key).unwrap();
                            model.remove(pos);
                        }
                    }
                }
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(arena.live(), model.len());
                prop_assert_eq!(list.check(&arena), Ok(()));
                let front: Vec<u64> = list.iter_front(&arena).map(|b| b.0).collect();
                let expect: Vec<u64> = model.iter().copied().collect();
                prop_assert_eq!(front, expect);
                let mut back: Vec<u64> = list.nodes_back(&arena).map(|n| arena.key(n).0).collect();
                back.reverse();
                let expect: Vec<u64> = model.iter().copied().collect();
                prop_assert_eq!(back, expect);
            }
        }
    }
}
