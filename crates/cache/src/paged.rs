//! A sparse array over the whole `u64` index space, in 4 KiB pages: the
//! one layout behind a [`BlockTable`](crate::BlockTable)'s residency
//! bitmap (512 `u64` words a page, one bit per local address) and the
//! query engine's buffer-pool index (1,024 `u32` list nodes a page).
//!
//! Entry `i` lies at offset `i % PAGE_LEN` of page `i / PAGE_LEN`. Each
//! page is its own allocation, so adding one never copies the others. An
//! entry equal to `T::default()` is empty; a page exists exactly while it
//! holds a non-empty entry, so a read of an index with no page answers
//! empty. Each page counts its non-empty entries: the write that empties
//! a page moves it to a free list, and the next new page is taken from
//! there, so the steady state neither allocates nor frees. The array thus
//! takes at most one page per non-empty entry at its high-water mark —
//! reached only by entries scattered a page apart — and a few pages when
//! entries cluster, as a shard's resident blocks and a pool's buffered
//! blocks do.
//!
//! # The page directory
//!
//! A radix tree over page numbers finds a page. Its nodes are arrays of
//! 256 `u32` slots (1 KiB) in one vector. A tree of height `h` covers the
//! page numbers below `256^(h + 1)`: the root is at level `h`, the leaves
//! at level 0, and byte `l` of a page number picks the slot at level `l`.
//! A slot above level 0 names a child node, a slot at level 0 names the
//! page's place, and `NIL` marks an empty slot. A page number beyond the
//! cover raises a new root over the old one, in its slot 0; the tree never
//! lowers.
//!
//! A point read or update costs one slot load per level and no hashing:
//! one at height 0, which covers page numbers below 256 — 8,388,608 local
//! addresses of residency bits, 262,144 buffer-pool addresses — and at
//! most seven, for indexes up to `u64::MAX`. A node that empties is
//! freed to a free list of its own and reused first, except the root, so
//! each live node other than the root lies on the path to a page in use,
//! and the directory holds at most `1 + h × p` nodes, where `p` is the
//! pages held at the high-water mark.
//!
//! A range walk visits the range's pages in ascending order: each step
//! descends from the root to the lowest page in use at or after its
//! position, reads only the slots inside the range and skips `NIL`
//! subtrees. It allocates nothing, and yields nothing for a range with no
//! page.

use crate::arena::NIL;
use crate::table::prefetch_line;

/// Slots per directory node: one byte of a page number per level.
const FANOUT: usize = 256;
const DIGIT_BITS: u32 = FANOUT.trailing_zeros();
/// The most levels a page number can need: 56 bits (see `PAGE_LEN`).
const MAX_LEVELS: usize = 7;

/// A sparse array of `T` indexed by `u64`; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PagedArray<T> {
    /// The page directory's nodes, in the tree or free.
    nodes: Vec<[u32; FANOUT]>,
    /// The root's place in `nodes`, once there is one.
    root: u32,
    /// Levels below the root: the tree covers page numbers below
    /// `FANOUT^(height + 1)`.
    height: u32,
    /// The places of the free nodes, all `NIL`, reused before allocating.
    free_nodes: Vec<u32>,
    /// Every page ever allocated, in use or free.
    pages: Vec<Page<T>>,
    /// The places of the free pages, all empty, reused before allocating.
    free: Vec<u32>,
}

#[derive(Debug, Clone)]
struct Page<T> {
    /// `PAGE_LEN` entries.
    entries: Box<[T]>,
    /// Non-empty entries: zero exactly while the page is free.
    count: u32,
}

impl<T: Copy + Default + PartialEq> PagedArray<T> {
    /// Entries per page: 4 KiB of `T`. At least 256, so a page number has
    /// at most 56 bits: seven directory levels.
    pub(crate) const PAGE_LEN: usize = {
        let size = std::mem::size_of::<T>();
        assert!(size.is_power_of_two() && size <= 16);
        4096 / size
    };

    const PAGE_BITS: u32 = Self::PAGE_LEN.trailing_zeros();

    /// An array with every entry empty and no page.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn offset(index: u64) -> usize {
        index as usize & (Self::PAGE_LEN - 1)
    }

    #[inline]
    fn is_empty(entry: &T) -> bool {
        *entry == T::default()
    }

    /// The slot of page `number` in a node at `level`.
    #[inline]
    fn digit(number: u64, level: u32) -> usize {
        (number >> (DIGIT_BITS * level)) as usize & (FANOUT - 1)
    }

    /// Whether page `number` lies beyond the tree's cover.
    #[inline]
    fn beyond(&self, number: u64) -> bool {
        number >> (DIGIT_BITS * (self.height + 1)) != 0
    }

    /// The place in `pages` of page `number`, or `NIL` if it is not in
    /// use: one load per level.
    #[inline]
    fn place(&self, number: u64) -> u32 {
        if self.beyond(number) {
            return NIL;
        }
        let (mut at, mut level) = (self.root, self.height);
        loop {
            // No node sits at `NIL`, so an empty slot ends the walk here,
            // as does the missing root of an array with no page.
            let Some(node) = self.nodes.get(at as usize) else {
                return NIL;
            };
            at = node[Self::digit(number, level)];
            if level == 0 {
                return at;
            }
            level -= 1;
        }
    }

    #[inline]
    fn entry(&self, index: u64) -> Option<&T> {
        let page = self
            .pages
            .get(self.place(index >> Self::PAGE_BITS) as usize)?;
        Some(&page.entries[Self::offset(index)])
    }

    /// The entry at `index`: empty if its page is absent.
    #[inline]
    pub fn get(&self, index: u64) -> T {
        self.entry(index).copied().unwrap_or_default()
    }

    /// Starts loading the entry at `index`, if its page exists, without
    /// waiting for it. Changes nothing.
    #[inline]
    pub fn prefetch(&self, index: u64) {
        if let Some(entry) = self.entry(index) {
            prefetch_line(entry);
        }
    }

    /// Applies `f` to the entry at `index` in place and returns its
    /// result: one directory lookup. A page is set up only if `f` fills an
    /// entry of an absent page, and a page whose last non-empty entry `f`
    /// empties goes on the free list.
    #[inline]
    pub fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut T) -> R) -> R {
        let number = index >> Self::PAGE_BITS;
        let at = self.place(number);
        // `f` has one call site, on the entry or — with no page — on a
        // spare, so it is inlined once.
        let (mut spare, mut spare_count) = (T::default(), 0);
        let (entry, count) = match self.pages.get_mut(at as usize) {
            Some(Page { entries, count }) => (&mut entries[Self::offset(index)], count),
            None => (&mut spare, &mut spare_count),
        };
        let was_full = !Self::is_empty(entry);
        let result = f(entry);
        // Whether an entry fills or empties is data, not control flow (in
        // a sparse bitmap page it is a coin toss), so the count moves
        // without a branch.
        *count = *count + u32::from(!Self::is_empty(entry)) - u32::from(was_full);
        let emptied = *count == 0;
        match at {
            NIL if !emptied => self.set_up(index, spare),
            NIL => {}
            at if emptied => self.release(number, at),
            _ => {}
        }
        result
    }

    /// Sets up the page of `index`, absent until now, holding `entry` at
    /// `index`: takes a free page or a new one, raises the root until the
    /// tree covers the page's number, and sets up the nodes missing on
    /// its path.
    #[cold]
    fn set_up(&mut self, index: u64, entry: T) {
        let at = self.free.pop().unwrap_or_else(|| {
            let entries = vec![T::default(); Self::PAGE_LEN].into_boxed_slice();
            self.pages.push(Page { entries, count: 0 });
            u32::try_from(self.pages.len() - 1).expect("fewer than 2^32 pages")
        });
        let page = &mut self.pages[at as usize];
        page.entries[Self::offset(index)] = entry;
        page.count = 1;
        let number = index >> Self::PAGE_BITS;
        if self.nodes.is_empty() {
            self.root = self.take_node();
        }
        while self.beyond(number) {
            // An empty root covers any height as it is.
            if self.nodes[self.root as usize]
                .iter()
                .any(|&slot| slot != NIL)
            {
                let root = self.take_node();
                self.nodes[root as usize][0] = self.root;
                self.root = root;
            }
            self.height += 1;
        }
        let mut node = self.root as usize;
        for level in (1..=self.height).rev() {
            let digit = Self::digit(number, level);
            if self.nodes[node][digit] == NIL {
                let child = self.take_node();
                self.nodes[node][digit] = child;
            }
            node = self.nodes[node][digit] as usize;
        }
        self.nodes[node][Self::digit(number, 0)] = at;
    }

    /// A node for the directory: a free one, or a new one.
    fn take_node(&mut self) -> u32 {
        self.free_nodes.pop().unwrap_or_else(|| {
            self.nodes.push([NIL; FANOUT]);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 nodes")
        })
    }

    /// Moves the emptied page `number`, at `at`, to the free list, and
    /// frees the nodes its removal empties, all but the root.
    #[cold]
    fn release(&mut self, number: u64, at: u32) {
        self.free.push(at);
        let mut path = [NIL; MAX_LEVELS];
        let mut node = self.root;
        for level in (0..=self.height).rev() {
            path[level as usize] = node;
            node = self.nodes[node as usize][Self::digit(number, level)];
        }
        debug_assert_eq!(node, at, "page {number} is linked at its place");
        for level in 0..=self.height {
            let node = &mut self.nodes[path[level as usize] as usize];
            node[Self::digit(number, level)] = NIL;
            if level == self.height || node.iter().any(|&slot| slot != NIL) {
                break;
            }
            self.free_nodes.push(path[level as usize]);
        }
    }

    /// The page numbers `first..=last` over indexes `lo..=hi`: none if
    /// `hi < lo`.
    fn pages_over(lo: u64, hi: u64) -> (u64, u64) {
        if hi < lo {
            return (1, 0);
        }
        (lo >> Self::PAGE_BITS, hi >> Self::PAGE_BITS)
    }

    /// The walk's next page: the lowest-numbered page in `*from..=last`
    /// that is in use, with its place; moves `*from` past it. Each step
    /// down reads the node's slots from `*from`'s digit up to `last`'s, or
    /// to the node's end where the two differ above it; a node with
    /// nothing there sends the walk back to the root, from the first page
    /// number past that node's subtree (past the cover, for the root).
    #[inline]
    fn next_page(&self, from: &mut u64, last: u64) -> Option<(u64, u32)> {
        'descent: loop {
            if *from > last || self.beyond(*from) {
                return None;
            }
            let (mut number, mut at) = (*from, self.root);
            for level in (0..=self.height).rev() {
                let node = self.nodes.get(at as usize)?;
                let shift = DIGIT_BITS * level;
                let low = Self::digit(number, level);
                let high = if (number ^ last) >> shift >> DIGIT_BITS == 0 {
                    Self::digit(last, level)
                } else {
                    FANOUT - 1
                };
                match node[low..=high].iter().position(|&slot| slot != NIL) {
                    Some(skip) => {
                        if skip != 0 {
                            number = ((number >> shift) + skip as u64) << shift;
                        }
                        at = node[low + skip];
                    }
                    None => {
                        *from = ((number >> shift >> DIGIT_BITS) + 1) << DIGIT_BITS << shift;
                        continue 'descent;
                    }
                }
            }
            *from = number + 1;
            return Some((number, at));
        }
    }

    /// The offsets within page `number` of the indexes in `lo..=hi`.
    fn span(number: u64, lo: u64, hi: u64) -> std::ops::RangeInclusive<usize> {
        let start = number << Self::PAGE_BITS;
        Self::offset(lo.max(start))..=Self::offset(hi.min(start + (Self::PAGE_LEN as u64 - 1)))
    }

    /// Every `(index, entry)` with `index` in `lo..=hi` whose page exists,
    /// in ascending index order: the range walk of the [module docs](self).
    #[inline]
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, T)> + '_ {
        let (mut from, last) = Self::pages_over(lo, hi);
        let pages = std::iter::from_fn(move || self.next_page(&mut from, last));
        pages.flat_map(move |(number, at)| {
            let span = Self::span(number, lo, hi);
            let first = (number << Self::PAGE_BITS) + *span.start() as u64;
            let entries = self.pages[at as usize].entries[span].iter();
            entries
                .enumerate()
                .map(move |(i, &entry)| (first + i as u64, entry))
        })
    }

    /// Applies `f` in place to every entry with index in `lo..=hi` whose
    /// page exists, by the walk of [`Self::range`]; the pages `f` empties
    /// go on the free list.
    pub fn update_range(&mut self, lo: u64, hi: u64, mut f: impl FnMut(&mut T)) {
        let (mut from, last) = Self::pages_over(lo, hi);
        while let Some((number, at)) = self.next_page(&mut from, last) {
            let page = &mut self.pages[at as usize];
            for entry in &mut page.entries[Self::span(number, lo, hi)] {
                let was_full = !Self::is_empty(entry);
                f(entry);
                page.count = page.count + u32::from(!Self::is_empty(entry)) - u32::from(was_full);
            }
            if page.count == 0 {
                self.release(number, at);
            }
        }
    }

    /// Number of pages in use: those holding a non-empty entry.
    pub fn pages_in_use(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Checks the array against its invariants and returns the first
    /// broken one. The directory: every non-`NIL` slot names a node or a
    /// page in bounds; every node is reached from the root once or is on
    /// the node free list once, all `NIL` there; a reached node other than
    /// the root has a non-`NIL` slot; the nodes number at most
    /// `1 + height × pages`. The pages: every page is named by one leaf or
    /// is on the free list once, so the leaves name distinct pages, as
    /// many as are in use; an in-use page's count equals its non-empty
    /// entries and is not zero; a free page is all empty. Reads every node
    /// and page: for tests, not for a hot path.
    pub fn audit(&self) -> Result<(), String> {
        let mut seen = vec![false; self.pages.len()];
        let mut claim = |at: u32, what: &str| match seen.get_mut(at as usize) {
            None => Err(format!("{what} names page {at} of {}", self.pages.len())),
            Some(true) => Err(format!("page {at} is listed twice (last as {what})")),
            Some(unseen) => {
                *unseen = true;
                Ok(&self.pages[at as usize])
            }
        };
        let mut reached = vec![false; self.nodes.len()];
        let mut claim_node = |at: u32, what: &str| match reached.get_mut(at as usize) {
            None => Err(format!("{what} names node {at} of {}", self.nodes.len())),
            Some(true) => Err(format!("node {at} is listed twice (last as {what})")),
            Some(unseen) => {
                *unseen = true;
                Ok(&self.nodes[at as usize])
            }
        };
        // (node, its level, the page-number prefix above its slots)
        let mut below = Vec::new();
        if !self.nodes.is_empty() {
            below.push((self.root, self.height, 0u64));
        }
        while let Some((at, level, prefix)) = below.pop() {
            let node = claim_node(at, &format!("a level-{} slot or the root", level + 1))?;
            if at != self.root && node.iter().all(|&slot| slot == NIL) {
                return Err(format!(
                    "node {at} at level {level} is empty but in the tree"
                ));
            }
            for (digit, &slot) in node.iter().enumerate().filter(|&(_, &s)| s != NIL) {
                let number = prefix << DIGIT_BITS | digit as u64;
                if level > 0 {
                    below.push((slot, level - 1, number));
                    continue;
                }
                let page = claim(slot, &format!("the leaf of page number {number}"))?;
                let full = page.entries.iter().filter(|e| !Self::is_empty(e)).count();
                if page.count as usize != full || full == 0 {
                    let count = page.count;
                    return Err(format!(
                        "page {slot} (number {number}) counts {count} of {full} entries"
                    ));
                }
            }
        }
        for &at in &self.free_nodes {
            if claim_node(at, "the node free list")?
                .iter()
                .any(|&slot| slot != NIL)
            {
                return Err(format!("free node {at} has a non-NIL slot"));
            }
        }
        if let Some(at) = reached.iter().position(|&r| !r) {
            return Err(format!("node {at} is neither in the tree nor free"));
        }
        let bound = 1 + self.height as usize * self.pages.len();
        if self.nodes.len() > bound {
            return Err(format!(
                "{} nodes exceed 1 + height {} × {} pages",
                self.nodes.len(),
                self.height,
                self.pages.len()
            ));
        }
        for &at in &self.free {
            let page = claim(at, "the free list")?;
            if !page.entries.iter().all(Self::is_empty) {
                return Err(format!("free page {at} has a non-empty entry"));
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(at) => Err(format!("page {at} is neither in use nor free")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Words = PagedArray<u64>;
    const LEN: u64 = Words::PAGE_LEN as u64;

    /// The indexes of the non-empty entries in `lo..=hi`.
    fn full(a: &Words, lo: u64, hi: u64) -> Vec<u64> {
        a.range(lo, hi)
            .filter(|&(_, w)| w != 0)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn a_page_is_freed_when_its_last_entry_empties_and_reused_first() {
        assert_eq!((LEN, PagedArray::<u32>::PAGE_LEN), (512, 1024));
        let mut a = Words::new();
        assert!(!a.update(5, |w| std::mem::take(w) != 0), "no page set up");
        a.prefetch(5);
        assert_eq!((a.get(5), a.pages.len()), (0, 0));
        for (index, value) in [(5, 1), (7, 2), (LEN + 1, 3), (5, 9), (5, 0)] {
            a.update(index, |w| *w = value);
        }
        assert_eq!((a.pages_in_use(), a.pages.len()), (2, 2), "7 holds page 0");
        a.update(7, |w| *w = 0);
        assert_eq!((a.pages_in_use(), a.free.len()), (1, 1), "page 0 freed");
        a.audit().unwrap();
        a.update(9 * LEN, |w| *w = 4);
        assert_eq!((a.pages.len(), a.free.len()), (2, 0), "page 0 reused");
        assert_eq!((a.get(9 * LEN), a.get(7), a.get(LEN + 1)), (4, 0, 3));
        a.audit().unwrap();
        a.update_range(0, 10 * LEN, |w| *w = 0);
        assert_eq!((a.pages_in_use(), a.free.len()), (0, 2), "freed by range");
        a.audit().unwrap();
        a.pages[0].entries[3] = 1;
        assert!(a.audit().unwrap_err().contains("free page 0"));
        a.free.pop();
        assert!(a.audit().unwrap_err().contains("neither in use nor free"));
    }

    #[test]
    fn indexes_at_the_top_of_the_address_space() {
        let mut a = Words::new();
        for index in [u64::MAX, u64::MAX - 1, u64::MAX - LEN, 0] {
            a.update(index, |w| *w = index | 1);
        }
        assert_eq!(
            (a.pages_in_use(), a.get(u64::MAX), a.get(u64::MAX - 2)),
            (3, u64::MAX, 0)
        );
        let ends = [0, u64::MAX - LEN, u64::MAX - 1, u64::MAX];
        assert_eq!(full(&a, 0, u64::MAX), ends);
        assert_eq!(full(&a, u64::MAX - 1, u64::MAX), ends[2..]);
        a.update_range(u64::MAX - LEN, u64::MAX, |w| *w = 0);
        assert_eq!(full(&a, 0, u64::MAX), [0]);
        a.audit().unwrap();
    }

    /// The page numbers a walk over `lo..=hi` visits, in order.
    fn visited(a: &Words, lo: u64, hi: u64) -> Vec<u64> {
        let (mut from, last) = Words::pages_over(lo, hi);
        std::iter::from_fn(|| a.next_page(&mut from, last))
            .map(|(number, _)| number)
            .collect()
    }

    #[test]
    fn the_range_walk_visits_only_the_pages_in_its_range() {
        let mut a = Words::new();
        let pages = [3u64, 40, 41, 1 << 40];
        for p in pages {
            a.update(p * LEN + 2, |w| *w = p + 1);
        }
        // Each walk visits exactly the pages in use inside its range, in
        // ascending order, and never one outside it.
        for (lo, hi, inside) in [
            (40 * LEN, 42 * LEN, &[40, 41][..]),
            (39 * LEN, 43 * LEN, &[40, 41]),
            (0, u64::MAX, &pages),
            (5 * LEN, 39 * LEN, &[]),
            (41 * LEN, 41 * LEN, &[41]),
            (4 * LEN, (1 << 40) * LEN - 1, &[40, 41]),
            ((1 << 40) * LEN + 3, u64::MAX, &[1 << 40]),
            (40 * LEN + 3, 40 * LEN + 1, &[]),
        ] {
            assert_eq!(visited(&a, lo, hi), inside, "pages over {lo}..={hi}");
        }
        let on = |pages: &[u64]| pages.iter().map(|p| p * LEN + 2).collect::<Vec<_>>();
        assert_eq!(full(&a, 40 * LEN, 42 * LEN), on(&[40, 41]));
        assert_eq!(full(&a, 39 * LEN, 43 * LEN), on(&[40, 41]));
        assert_eq!(full(&a, 0, u64::MAX), on(&pages));
        assert_eq!(full(&a, 5 * LEN, 39 * LEN), on(&[]));
        assert_eq!(full(&a, 40 * LEN + 3, 40 * LEN + 1), on(&[]), "hi < lo");
        // Entries outside the range stay, in both walks.
        a.update_range(0, 40 * LEN + 2, |w| *w = 0);
        a.update_range(41 * LEN + 3, u64::MAX, |w| *w = 0);
        assert_eq!(full(&a, 0, u64::MAX), on(&[41]));
        a.audit().unwrap();
    }

    #[test]
    fn the_directory_grows_a_root_per_byte_and_frees_emptied_nodes() {
        let mut a = Words::new();
        a.update(255 * LEN, |w| *w = 1);
        assert_eq!((a.height, a.nodes.len()), (0, 1), "page 255: one node");
        a.update(256 * LEN, |w| *w = 1);
        // A new root over the old one, and a leaf node for page 256.
        assert_eq!((a.height, a.nodes.len()), (1, 3));
        a.update(u64::MAX, |w| *w = 1);
        assert_eq!(a.height, 6, "page numbers of 55 bits: seven levels");
        a.audit().unwrap();
        let nodes = a.nodes.len();
        // The six nodes below the root on page 2^55 - 1's path empty and go
        // to the node free list; the next new path reuses them.
        a.update(u64::MAX, |w| *w = 0);
        assert_eq!(a.free_nodes.len(), 6);
        a.audit().unwrap();
        a.update((1 << 40) * LEN, |w| *w = 1);
        assert_eq!(a.nodes.len(), nodes, "freed nodes are reused");
        a.update_range(0, u64::MAX, |w| *w = 0);
        assert_eq!(
            (a.pages_in_use(), a.free_nodes.len(), a.height),
            (0, nodes - 1, 6)
        );
        a.audit().unwrap();
        // An empty root covers any height: no node is added to raise it.
        let mut b = Words::new();
        b.update(u64::MAX, |w| *w = 1);
        assert_eq!((b.height, b.nodes.len()), (6, 7));
        b.audit().unwrap();
    }

    #[test]
    fn the_audit_names_a_broken_directory() {
        let build = || {
            let mut a = Words::new();
            for p in [1, 2, 256 + 1] {
                a.update(p * LEN, |w| *w = 1);
            }
            a.update(2 * LEN, |w| *w = 0);
            a.audit().unwrap();
            a
        };
        // Root 1 over leaf nodes 0 (pages 1, 2) and 2 (page 257); the page
        // of number 2 is free.
        let (root, leaf) = (build().root as usize, build().nodes[1][1] as usize);
        assert_eq!((root, leaf), (1, 2));
        let free_page = build().free[0];
        let mut a = build();
        a.nodes[0][3] = free_page;
        let err = a.audit().unwrap_err();
        assert!(
            err.contains("counts 0 of 0"),
            "a leaf names a free page: {err}"
        );
        let mut a = build();
        a.nodes[0][3] = a.nodes[0][1];
        let err = a.audit().unwrap_err();
        assert!(
            err.contains("listed twice"),
            "two leaves name one page: {err}"
        );
        let mut a = build();
        a.nodes[1][2] = a.nodes[1][1];
        let err = a.audit().unwrap_err();
        assert!(
            err.contains("node 2 is listed twice"),
            "a node reached twice: {err}"
        );
        let mut a = build();
        a.nodes[0][9] = 7;
        assert!(a.audit().unwrap_err().contains("names page 7 of 3"));
        let mut a = build();
        a.nodes[1][9] = 7;
        assert!(a.audit().unwrap_err().contains("names node 7 of 3"));
        let mut a = build();
        a.update(257 * LEN, |w| *w = 0);
        assert_eq!(a.free_nodes.pop(), Some(2), "page 257's leaf node freed");
        let err = a.audit().unwrap_err();
        assert!(err.contains("node 2 is neither"), "a lost node: {err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The array agrees with a `BTreeMap` model of its non-empty
        /// entries on every step of a random trace of point updates and
        /// reads, range walks and range updates, over indexes on both
        /// sides of every tree height's boundary — page numbers 0, 255,
        /// 256, 65,535, 65,536 and 2^40, and the last page, up to
        /// `u64::MAX` — and passes its audit after every step. A range
        /// update rewrites, empties or fills entries of the range's pages
        /// in use, and frees the pages it empties.
        #[test]
        fn the_array_matches_a_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..9, 0u8..4, 0usize..9, 0u8..4, 0u64..3),
                1..120,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            use std::collections::BTreeMap;
            const TOP: u64 = u64::MAX >> 9;
            const NUMBERS: [u64; 9] = [0, 1, 255, 256, 65_535, 65_536, 1 << 40, TOP - 1, TOP];
            let index = |n: usize, o: u8| NUMBERS[n] * LEN + [0, 1, 77, LEN - 1][o as usize];
            let mut a = Words::new();
            let mut model = BTreeMap::<u64, u64>::new();
            for (step, (op, n, o, m, q, value)) in ops.into_iter().enumerate() {
                let (i, j) = (index(n, o), index(m, q));
                let (lo, hi) = (i.min(j), i.max(j));
                match op {
                    0 | 1 => {
                        let old = a.update(i, |w| std::mem::replace(w, value));
                        let modelled = if value == 0 { model.remove(&i) } else { model.insert(i, value) };
                        prop_assert_eq!(old, modelled.unwrap_or(0), "step {}: update {}", step, i);
                    }
                    2 => {
                        // Rewrites every non-empty entry to `value`, so 0
                        // empties them, and with `value` 2 also fills the
                        // first empty entry it visits.
                        let mut fill = value == 2;
                        a.update_range(lo, hi, |w| {
                            if *w != 0 || std::mem::take(&mut fill) {
                                *w = value;
                            }
                        });
                        // The model visits the same entries: those of the
                        // pages in use that the range crosses, even where
                        // the page's entries lie outside it.
                        let crossed = lo / LEN * LEN..=hi / LEN * LEN + (LEN - 1);
                        let mut pages: Vec<u64> = model.range(crossed).map(|(&k, _)| k / LEN).collect();
                        pages.dedup();
                        let mut fill = value == 2;
                        for page in pages {
                            for k in (page * LEN).max(lo)..=(page * LEN + (LEN - 1)).min(hi) {
                                match model.get_mut(&k) {
                                    Some(_) if value == 0 => drop(model.remove(&k)),
                                    Some(v) => *v = value,
                                    None if std::mem::take(&mut fill) => drop(model.insert(k, value)),
                                    None => {}
                                }
                            }
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(a.audit(), Ok(()), "step {}", step);
                prop_assert_eq!(a.get(i), model.get(&i).copied().unwrap_or(0), "step {}: get {}", step, i);
                let walked: Vec<(u64, u64)> = a.range(lo, hi).filter(|&(_, w)| w != 0).collect();
                let expected: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(walked, expected, "step {}: range {}..={}", step, lo, hi);
                let mut pages: Vec<u64> = model.keys().map(|k| k / LEN).collect();
                pages.dedup();
                prop_assert_eq!(a.pages_in_use(), pages.len(), "step {}", step);
                pages.retain(|p| (lo / LEN..=hi / LEN).contains(p));
                prop_assert_eq!(visited(&a, lo, hi), pages, "step {}: pages over {}..={}", step, lo, hi);
            }
        }
    }
}
