//! A sparse array over the whole `u64` index space, in 4 KiB pages: the
//! one layout behind a [`BlockTable`](crate::BlockTable)'s residency
//! bitmap (512 `u64` words a page, one bit per local address) and the
//! query engine's buffer-pool index (1,024 `u32` list nodes a page).
//!
//! Entry `i` lies at offset `i % PAGE_LEN` of page `i / PAGE_LEN`. Each
//! page is its own allocation, so adding one never copies the others, and
//! a small page directory (a plain [`OpenMap`]) finds it. An entry equal to
//! `T::default()` is empty; a page exists exactly while it holds a
//! non-empty entry, so a read of an index with no page answers empty. Each
//! page counts its non-empty entries: the write that empties a page moves
//! it from the directory to a free list, and the next new page is taken
//! from there, so the steady state neither allocates nor frees. The array
//! thus takes at most one page per non-empty entry at its high-water mark
//! — reached only by entries scattered a page apart — and a few pages
//! when entries cluster, as a shard's resident blocks and a pool's buffered
//! blocks do.
//!
//! A point read or update costs one directory probe. A range walk visits
//! the range's pages in ascending order and yields nothing for a range with
//! no page. It probes the directory once per page the range crosses or,
//! when the range crosses more pages than the directory holds, reads the
//! directory instead, so it never probes more often than the directory has
//! entries.

use crate::table::{prefetch_line, OpenMap};

/// A sparse array of `T` indexed by `u64`; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PagedArray<T> {
    /// Page number → the page's place in `pages`, for the pages in use.
    directory: OpenMap<u32>,
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
    /// Entries per page: 4 KiB of `T`.
    pub(crate) const PAGE_LEN: usize = {
        let size = std::mem::size_of::<T>();
        assert!(size.is_power_of_two() && size <= 4096);
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

    #[inline]
    fn entry(&self, index: u64) -> Option<&T> {
        let at = *self.directory.get(index >> Self::PAGE_BITS)?;
        Some(&self.pages[at as usize].entries[Self::offset(index)])
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
    /// result: one directory probe. A page is set up only if `f` fills an
    /// entry of an absent page, and a page whose last non-empty entry `f`
    /// empties goes on the free list.
    #[inline]
    pub fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut T) -> R) -> R {
        let number = index >> Self::PAGE_BITS;
        let at = self.directory.get(number).copied();
        // `f` has one call site, on the entry or — with no page — on a
        // spare, so it is inlined once.
        let (mut spare, mut spare_count) = (T::default(), 0);
        let (entry, count) = match at {
            Some(at) => {
                let Page { entries, count } = &mut self.pages[at as usize];
                (&mut entries[Self::offset(index)], count)
            }
            None => (&mut spare, &mut spare_count),
        };
        let was_full = !Self::is_empty(entry);
        let result = f(entry);
        // Whether an entry fills or empties is data, not control flow (in
        // a sparse bitmap page it is a coin toss), so the count moves
        // without a branch.
        *count = *count + u32::from(!Self::is_empty(entry)) - u32::from(was_full);
        match at {
            Some(at) if *count == 0 => self.release(number, at),
            None if spare_count != 0 => {
                let at = self.free.pop().unwrap_or_else(|| {
                    let entries = vec![T::default(); Self::PAGE_LEN].into_boxed_slice();
                    self.pages.push(Page { entries, count: 0 });
                    u32::try_from(self.pages.len() - 1).expect("fewer than 2^32 pages")
                });
                self.directory.insert(number, at);
                let page = &mut self.pages[at as usize];
                page.entries[Self::offset(index)] = spare;
                page.count = 1;
            }
            _ => {}
        }
        result
    }

    /// Moves the emptied page `number`, at `at`, to the free list.
    #[cold]
    fn release(&mut self, number: u64, at: u32) {
        self.directory.remove(number);
        self.free.push(at);
    }

    /// The page numbers `first..=last` over indexes `lo..=hi` (none if
    /// `hi < lo`), and whether a walk over them reads the directory, as
    /// it does when the range crosses more pages than the directory holds.
    fn pages_over(&self, lo: u64, hi: u64) -> (u64, u64, bool) {
        if hi < lo {
            return (1, 0, false);
        }
        let (first, last) = (lo >> Self::PAGE_BITS, hi >> Self::PAGE_BITS);
        (first, last, last - first >= self.directory.len() as u64)
    }

    /// The walk's next page: the lowest-numbered page in `*from..=last`
    /// that is in use, with its place; moves `*from` past it.
    #[inline]
    fn next_page(&self, from: &mut u64, last: u64, read_directory: bool) -> Option<(u64, u32)> {
        let (number, at) = if read_directory {
            let in_range = |&(number, _): &(u64, &u32)| (*from..=last).contains(&number);
            let (number, &at) = self.directory.iter().filter(in_range).min()?;
            (number, at)
        } else {
            (*from..=last).find_map(|number| Some((number, *self.directory.get(number)?)))?
        };
        *from = number + 1;
        Some((number, at))
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
        let (mut from, last, read_directory) = self.pages_over(lo, hi);
        let pages = std::iter::from_fn(move || self.next_page(&mut from, last, read_directory));
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
        let (mut from, last, read_directory) = self.pages_over(lo, hi);
        while let Some((number, at)) = self.next_page(&mut from, last, read_directory) {
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
        self.directory.len()
    }

    /// Checks the array against its invariants and returns the first
    /// broken one: the directory passes [`OpenMap`]'s audit; every page is
    /// in the directory once or on the free list once; an in-use page's
    /// count equals its non-empty entries and is not zero; a free page is
    /// all empty. Reads every page: for tests, not for a hot path.
    pub fn audit(&self) -> Result<(), String> {
        self.directory.audit()?;
        let mut seen = vec![false; self.pages.len()];
        let mut claim = |at: u32, what: &str| match seen.get_mut(at as usize) {
            None => Err(format!("{what} names page {at} of {}", self.pages.len())),
            Some(true) => Err(format!("page {at} is listed twice (last as {what})")),
            Some(unseen) => {
                *unseen = true;
                Ok(&self.pages[at as usize])
            }
        };
        for (number, &at) in self.directory.iter() {
            let page = claim(at, "the directory")?;
            let full = page.entries.iter().filter(|e| !Self::is_empty(e)).count();
            if page.count as usize != full || full == 0 {
                let count = page.count;
                return Err(format!(
                    "page {at} (number {number}) counts {count} of {full} entries"
                ));
            }
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

    #[test]
    fn the_range_walk_reads_the_directory_when_the_range_crosses_more_pages() {
        let mut a = Words::new();
        let pages = [3u64, 40, 41, 1 << 40];
        for p in pages {
            a.update(p * LEN + 2, |w| *w = p + 1);
        }
        // Pages 40..=42: three probes for four pages held. 39..=43 and the
        // whole space cross more pages than that, so they read the
        // directory — and still walk in ascending order.
        assert!(!a.pages_over(40 * LEN, 42 * LEN).2);
        assert!(a.pages_over(39 * LEN, 43 * LEN).2 && a.pages_over(0, u64::MAX).2);
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
}
