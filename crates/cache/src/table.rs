//! Cache metadata (Section 5.2) on open-addressing hash tables.
//!
//! The storage system tracks cached blocks with a hash table keyed by the
//! logical block number. The paper's entry is `< lbn, (pbn, prio) >`; the
//! physical block number is not modelled, because no simulated cost
//! depends on where a block sits on the SSD, and a shard is full exactly
//! when its table holds its capacity. [`CacheEntry`] keeps the priority and
//! the clean/dirty state that Section 5.1 describes for valid blocks. The
//! lookup sits on the submit path of every shard, so the table is flat,
//! and a shard walk reads it in address order and ahead of use:
//!
//! * two arrays over a power-of-two slot count: the slots, each a key
//!   beside its value, so a probe reads one slot line rather than a key
//!   line and a value line; and an occupancy bitset (one bit per slot, so
//!   a shard's whole occupancy map stays in L1/L2);
//! * Fibonacci hashing (one multiply and shift) and, in a [`BlockTable`],
//!   **extent groups**: a block's aligned run of 4 consecutive *local*
//!   addresses hashes to a group of 4 adjacent slots, and its offset in
//!   the run is its offset in the group. A local address is the address
//!   with the table's stride shifted out — an engine shard holds every
//!   `N`-th block, so its table is built with stride `N` and a scan's
//!   consecutive blocks on that shard land in adjacent slots (a
//!   non-power-of-two `N` shifts out only its factor of two and gets
//!   partial locality). A plain [`OpenMap`], probed at random, hashes each
//!   key alone;
//! * linear probing, so a probe touches consecutive slots of one dense
//!   array instead of chasing bucket pointers;
//! * backward-shift deletion instead of tombstones, so probe chains never
//!   grow from churn and the table needs no rehash-on-delete heuristics;
//! * [`BlockTable::prefetch`], which starts loading a key's home slot, so a
//!   shard walk can ask for the table lines it will need a few blocks
//!   from now (the engine prefetches 8 strides ahead), and
//!   [`BlockTable::prefetch_bit`], which starts loading a block's
//!   residency word, so a miss that will allocate overlaps that load
//!   with its victim's eviction;
//! * a **residency bitmap** in a [`BlockTable`]: one bit per local
//!   address, in direct-indexed **pages** of 512 `u64` words (4 KiB, so
//!   32,768 local addresses a page) found through a small page directory
//!   (a plain [`OpenMap`] keyed `local >> 15`). A page exists while its
//!   range holds a resident block: it keeps a count of its set bits, and
//!   the removal that zeroes the count moves it from the directory to a
//!   free list the next new page is taken from, so the steady state
//!   neither allocates nor frees. The bitmap thus takes at most one 4 KiB
//!   page per block resident at the high-water mark — that bound is
//!   reached only by blocks scattered 32,768 local addresses apart — and
//!   a few pages a shard on a workload whose blocks cluster. It answers a
//!   run of a shard's blocks a word at a time, one directory lookup per
//!   page the run crosses — how many are resident and which is last
//!   ([`BlockTable::resident_in`]), how many absent ones lead
//!   ([`BlockTable::absent_prefix`]) — with no probe of the slots. An
//!   insertion of a fresh block and a removal update one word; a removal
//!   reads the word first, so removing an absent block probes no slot.
//!
//! [`OpenMap`] is the generic engine (`u64` keys, `Copy` values), and
//! [`BlockTable`] the shard-metadata wrapper whose slot value pairs the
//! [`CacheEntry`] with the policy's `u32` node handle, so a single probe
//! reaches both the metadata and the block's place in its policy's lists
//! — the table is the only address index of resident blocks.

use hstorage_storage::{BlockAddr, CachePriority};

/// State of a valid cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// An identical copy exists on the second-level device.
    Clean,
    /// The cached copy is newer than the second-level copy.
    Dirty,
}

/// Metadata for one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Current caching priority (which priority group the block lives in).
    pub priority: CachePriority,
    /// Clean or dirty.
    pub state: BlockState,
}

impl CacheEntry {
    /// Whether the entry is dirty.
    pub fn is_dirty(&self) -> bool {
        self.state == BlockState::Dirty
    }
}

/// Fibonacci-hashing multiplier: `2^64 / φ`, the canonical odd constant.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// `log2` of a [`BlockTable`]'s extent-group size: runs of 4 consecutive
/// local addresses share one hash and 4 adjacent slots. Larger groups
/// lengthen the probe chains of clustered keys faster than they add
/// locality.
const BLOCK_GROUP_BITS: u32 = 2;

/// `log2` of the local addresses one [`BlockTable`] residency word covers.
const EXTENT_BITS: u32 = 6;

/// `log2` of the local addresses one residency page covers.
const PAGE_BITS: u32 = 15;

/// Residency words per page: 512, so a page is 4 KiB.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - EXTENT_BITS);

/// One residency page: bit `l % 64` of word `(l >> 6) % 512` stands for
/// local address `l` of the page's range.
type ResidencyPage = [u64; PAGE_WORDS];

/// Smallest table capacity ever allocated (slots, power of two; at least
/// two of a [`BlockTable`]'s extent groups).
const MIN_CAPACITY: usize = 8;

/// The node handle of a block whose policy keeps its own index (see the
/// [`CachePolicy`](crate::policy::CachePolicy#node-handles) docs).
pub const NO_NODE: u32 = u32::MAX;

/// Hints the CPU to start loading the cache line holding `*p` into L1
/// without waiting for it. A pure hint: it changes nothing the program can
/// observe. The cache crate's one prefetch, public so that crates which
/// forbid `unsafe` code (the query engine's buffer pool) can use it too.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
pub fn prefetch_line<T>(p: &T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint with no architectural effect — it never
    // faults and changes no memory the program can observe — and the
    // address comes from a live reference anyway. It needs only SSE,
    // which every x86_64 target has.
    unsafe { _mm_prefetch::<_MM_HINT_T0>((p as *const T).cast()) }
}

/// Off x86_64 a prefetch is a no-op.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn prefetch_line<T>(_: &T) {}

/// A flat open-addressing hash map from `u64` keys to `Copy` values.
///
/// Linear probing over a power-of-two slot array, grown at 7/8 load;
/// deletions backward-shift the following probe chain, so the table never
/// holds tombstones and every lookup terminates at the first empty slot.
/// Iteration order is unspecified (slot order) — callers that need a
/// deterministic order must sort, exactly as with `std::HashMap`.
///
/// With the default `GROUP_BITS = 0` each key is Fibonacci-hashed alone.
/// A positive `GROUP_BITS` hashes runs of `2^GROUP_BITS` consecutive local
/// addresses to that many adjacent slots (the extent groups of the module
/// docs) — worth it only where walks read the table in address order and
/// prefetch ahead, as they do the [`BlockTable`]; in a map probed at
/// random, grouping only lengthens probe chains.
#[derive(Debug, Clone)]
pub struct OpenMap<V, const GROUP_BITS: u32 = 0> {
    /// `(key, value)` per slot; meaningful only where `used` is set.
    slots: Vec<(u64, V)>,
    /// Occupancy, one bit per slot (slot `i` is bit `i % 64` of word
    /// `i / 64`).
    used: Vec<u64>,
    len: usize,
    /// `64 - log2(capacity >> GROUP_BITS)`: maps the 64-bit hash onto an
    /// extent-group index (a slot index in a plain map).
    shift: u32,
    /// Low key bits shifted out before grouping: the factor of two in the
    /// key stride, which every key of a strided table shares.
    stride_shift: u32,
}

impl<V: Copy + Default, const GROUP_BITS: u32> Default for OpenMap<V, GROUP_BITS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default, const GROUP_BITS: u32> OpenMap<V, GROUP_BITS> {
    /// Creates an empty map with the minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty map pre-sized so `items` entries fit without
    /// growing (capacity is the next power of two above `items / (7/8)`),
    /// for keys with no common stride.
    pub fn with_capacity(items: usize) -> Self {
        Self::strided(items, 1)
    }

    /// [`Self::with_capacity`] for keys that are all congruent modulo
    /// `stride` (the blocks of one of `stride` engine shards), so runs of
    /// consecutive such keys share extent groups. Only a grouped map uses
    /// the stride.
    fn strided(items: usize, stride: usize) -> Self {
        assert!(stride > 0, "key stride must be positive");
        let cap = items
            .saturating_mul(8)
            .div_ceil(7)
            .max(MIN_CAPACITY)
            .next_power_of_two();
        OpenMap {
            slots: vec![(0, V::default()); cap],
            used: vec![0; cap.div_ceil(64)],
            len: 0,
            shift: 64 - (cap >> GROUP_BITS).trailing_zeros(),
            stride_shift: stride.trailing_zeros(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The key's home slot: its extent group's first slot plus its offset
    /// in its run of local addresses.
    #[inline]
    fn home(&self, key: u64) -> usize {
        if GROUP_BITS == 0 {
            // A plain map hashes the whole key: only grouping has a use
            // for the stride.
            return (key.wrapping_mul(FIB) >> self.shift) as usize;
        }
        let local = key >> self.stride_shift;
        let group = (local >> GROUP_BITS).wrapping_mul(FIB) >> self.shift;
        ((group << GROUP_BITS) | (local & ((1 << GROUP_BITS) - 1))) as usize
    }

    #[inline]
    fn is_used(&self, i: usize) -> bool {
        self.used[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn set_used(&mut self, i: usize) {
        self.used[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn set_unused(&mut self, i: usize) {
        self.used[i / 64] &= !(1 << (i % 64));
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.is_used(i) {
            if self.slots[i].0 == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Starts loading the lines a lookup of `key` reads first — its home
    /// slot's occupancy word and the slot itself — without waiting for
    /// them. Changes nothing; a no-op off x86_64.
    #[inline]
    fn prefetch(&self, key: u64) {
        let i = self.home(key);
        prefetch_line(&self.used[i / 64]);
        prefetch_line(&self.slots[i]);
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.slots[i].1)
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.slots[i].1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let (slot, fresh) = self.get_or_insert_with(key, || value);
        (!fresh).then(|| std::mem::replace(slot, value))
    }

    /// The one probe behind every insertion: walks `key`'s chain once,
    /// stopping at the key or at the first vacant slot, where `make()`'s
    /// value is placed. Returns the key's value and whether it was just
    /// inserted.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: u64,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            // At the load bound only a *new* key grows the table, so the
            // key is looked up first — and the growth happens before
            // placing, so the chain is walked against the final capacity.
            // Below the bound (the common case) the one walk serves both.
            if let Some(i) = self.find(key) {
                return (&mut self.slots[i].1, false);
            }
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.is_used(i) {
            if self.slots[i].0 == key {
                return (&mut self.slots[i].1, false);
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, make());
        self.set_used(i);
        self.len += 1;
        (&mut self.slots[i].1, true)
    }

    /// Removes `key`, returning its value if it was present. The probe
    /// chain behind the vacated slot is backward-shifted, so no tombstone
    /// is left behind.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let removed = self.slots[i].1;
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.is_used(j) {
                break;
            }
            // Slot j's entry may backfill the hole at i only if its home
            // slot does not lie in the circular range (i, j] — i.e. the
            // entry's displacement from home spans the hole.
            let home = self.home(self.slots[j].0);
            if (j.wrapping_sub(home)) & mask >= (j.wrapping_sub(i)) & mask {
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.set_unused(i);
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.used.fill(0);
        self.len = 0;
    }

    /// Iterates all `(key, value)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> OpenMapIter<'_, V, GROUP_BITS> {
        OpenMapIter {
            map: self,
            word: 0,
            bits: self.used.first().copied().unwrap_or(0),
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old_slots = std::mem::replace(&mut self.slots, vec![(0, V::default()); new_cap]);
        let old_used = std::mem::replace(&mut self.used, vec![0; new_cap.div_ceil(64)]);
        self.shift -= 1;
        let mask = new_cap - 1;
        for (slot, &(key, value)) in old_slots.iter().enumerate() {
            if old_used[slot / 64] & (1 << (slot % 64)) == 0 {
                continue;
            }
            let mut i = self.home(key);
            while self.is_used(i) {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, value);
            self.set_used(i);
        }
    }

    /// Checks the open-addressing invariant the backward-shift deletion
    /// must preserve: walking from any entry's home slot to the slot it
    /// occupies crosses no empty slot (otherwise a lookup would terminate
    /// early and miss the entry). Also checks that the occupancy popcount
    /// is `len`.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let mask = self.slots.len() - 1;
        let mut occupied = 0;
        for (slot, &(key, _)) in self.slots.iter().enumerate() {
            if !self.is_used(slot) {
                continue;
            }
            occupied += 1;
            let mut i = self.home(key);
            while i != slot {
                if !self.is_used(i) {
                    return Err(format!(
                        "probe chain for key {key} crosses empty slot {i} before {slot}"
                    ));
                }
                i = (i + 1) & mask;
            }
        }
        if occupied != self.len {
            return Err(format!(
                "{occupied} occupancy bits set, but len is {}",
                self.len
            ));
        }
        Ok(())
    }
}

/// Iterator over an [`OpenMap`]'s `(key, value)` pairs in slot order.
pub struct OpenMapIter<'a, V, const GROUP_BITS: u32 = 0> {
    map: &'a OpenMap<V, GROUP_BITS>,
    /// Index of the occupancy word being scanned.
    word: usize,
    /// Its occupied slots not yet yielded.
    bits: u64,
}

impl<'a, V, const GROUP_BITS: u32> Iterator for OpenMapIter<'a, V, GROUP_BITS> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.map.used.get(self.word)?;
        }
        let i = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let (key, value) = &self.map.slots[i];
        Some((*key, value))
    }
}

/// One [`BlockTable`] slot: the block's metadata entry plus the node
/// handle its policy returned from `on_insert`, colocated so a single
/// probe reaches both.
#[derive(Debug, Clone, Copy)]
pub struct TableSlot {
    /// The resident block's metadata.
    pub entry: CacheEntry,
    /// The policy's node handle for this block, or [`NO_NODE`].
    pub node: u32,
}

impl Default for TableSlot {
    fn default() -> Self {
        TableSlot {
            entry: CacheEntry {
                priority: CachePriority(0),
                state: BlockState::Clean,
            },
            node: NO_NODE,
        }
    }
}

/// The shard-metadata table `lbn → (CacheEntry, node)` on the flat
/// [`OpenMap`] engine, grouped by the shard's stride, with a residency
/// bitmap over the shard's local addresses (`lbn / stride`) in
/// direct-indexed pages, which answers range queries 64 blocks a word.
/// Every key of one table must be congruent modulo the stride, as one
/// engine shard's blocks are. Iteration order is unspecified (every
/// engine consumer sorts or counts).
#[derive(Debug, Clone)]
pub struct BlockTable {
    map: OpenMap<TableSlot, BLOCK_GROUP_BITS>,
    /// `local >> PAGE_BITS` → the number of that range's page in `pages`,
    /// for exactly the ranges that hold a resident block.
    directory: OpenMap<u32>,
    /// Every residency page ever allocated, in use or free. The bit of
    /// local address `l` is set exactly while the block at `l` is
    /// resident. Updated by [`Self::insert`] of a fresh key and
    /// [`Self::remove`] of a present one, and by nothing else.
    pages: Vec<Page>,
    /// The pages out of the directory, all zero, handed out again before
    /// a new one is allocated.
    free: Vec<u32>,
    /// The key stride: a block's local address is `lbn / stride`.
    stride: u64,
}

/// A residency page and the number of bits set in it.
#[derive(Debug, Clone)]
struct Page {
    /// Each its own 4 KiB allocation, so adding a page never copies the
    /// others.
    words: Box<ResidencyPage>,
    /// Set bits in `words`: zero exactly while the page is free.
    count: u32,
}

/// Where local address `l`'s residency bit lies in its page: the word's
/// index and the bit's mask.
#[inline]
fn bit_of(local: u64) -> (usize, u64) {
    (
        (local >> EXTENT_BITS) as usize % PAGE_WORDS,
        1 << (local % 64),
    )
}

impl Default for BlockTable {
    fn default() -> Self {
        Self::with_capacity(0, 1)
    }
}

impl BlockTable {
    /// Creates an empty table with the minimum capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table pre-sized for `items` resident blocks, all
    /// congruent modulo `stride` — an engine shard's blocks, with `stride`
    /// the shard count (1 for an unsharded table).
    pub fn with_capacity(items: usize, stride: usize) -> Self {
        BlockTable {
            map: OpenMap::strided(items, stride),
            directory: OpenMap::new(),
            pages: Vec::new(),
            free: Vec::new(),
            stride: stride as u64,
        }
    }

    /// `lbn`'s local address: a shift when the stride is a power of two.
    #[inline]
    fn local(&self, lbn: u64) -> u64 {
        if self.stride.is_power_of_two() {
            lbn >> self.stride.trailing_zeros()
        } else {
            lbn / self.stride
        }
    }

    /// The page of the range `local` lies in, set up if the range has
    /// none.
    #[inline]
    fn page_or_alloc(&mut self, local: u64) -> &mut Page {
        let range = local >> PAGE_BITS;
        let at = match self.directory.get(range) {
            Some(&at) => at,
            None => self.new_page(range),
        };
        &mut self.pages[at as usize]
    }

    /// Enters a zero page for `range` into the directory — one from the
    /// free list, or a new allocation if the list is empty — and returns
    /// its number.
    #[cold]
    fn new_page(&mut self, range: u64) -> u32 {
        let at = self.free.pop().unwrap_or_else(|| {
            self.pages.push(Page {
                words: Box::new([0; PAGE_WORDS]),
                count: 0,
            });
            u32::try_from(self.pages.len() - 1).expect("fewer than 2^32 residency pages")
        });
        self.directory.insert(range, at);
        at
    }

    /// The residency words over local addresses `lo..=hi`, in ascending
    /// order, each masked to the range and paired with the local address
    /// of its bit 0: one directory lookup per page the range crosses. A
    /// range with no page yields no words, so callers see only the words
    /// that can hold a resident block.
    #[inline]
    fn words(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        const SPAN: u64 = (1 << PAGE_BITS) - 1;
        (lo >> PAGE_BITS..=hi >> PAGE_BITS)
            .filter_map(move |range| {
                let at = *self.directory.get(range)?;
                Some((range << PAGE_BITS, &self.pages[at as usize].words))
            })
            .flat_map(move |(start, words)| {
                let first = lo.max(start) - start;
                let last = hi.min(start + SPAN) - start;
                (first >> EXTENT_BITS..=last >> EXTENT_BITS).map(move |i| {
                    let base = start + (i << EXTENT_BITS);
                    let below = u64::MAX << (lo.max(base) - base);
                    let above = u64::MAX >> (base + 63 - hi.min(base + 63));
                    (base, words[i as usize] & below & above)
                })
            })
    }

    /// Of the `k` blocks `first, first + stride, …` — a run of the
    /// table's keys, all addressable — how many are resident, and the
    /// last resident one. One residency word per 64-address extent.
    #[inline]
    pub fn resident_in(&self, first: BlockAddr, k: u64) -> (u64, Option<BlockAddr>) {
        if k == 0 {
            return (0, None);
        }
        let lo = self.local(first.0);
        let (mut count, mut last) = (0, None);
        for (base, word) in self.words(lo, lo + (k - 1)) {
            if word != 0 {
                count += u64::from(word.count_ones());
                last = Some(base + 63 - u64::from(word.leading_zeros()));
            }
        }
        let last = last.map(|l| BlockAddr(first.0 + (l - lo) * self.stride));
        (count, last)
    }

    /// Of the `k` blocks `first, first + stride, …` (as in
    /// [`Self::resident_in`]), how many absent ones precede the first
    /// resident one: `k` if none is resident.
    #[inline]
    pub fn absent_prefix(&self, first: BlockAddr, k: u64) -> u64 {
        if k == 0 {
            return 0;
        }
        let lo = self.local(first.0);
        self.words(lo, lo + (k - 1))
            .find(|&(_, word)| word != 0)
            .map_or(k, |(base, word)| {
                base + u64::from(word.trailing_zeros()) - lo
            })
    }

    /// Starts loading the table lines a lookup of `lbn` reads first,
    /// without waiting for them: a walk calls this a few blocks ahead of
    /// the block it handles. Changes nothing.
    #[inline]
    pub fn prefetch(&self, lbn: BlockAddr) {
        self.map.prefetch(lbn.0);
    }

    /// Starts loading the residency word of `lbn`, if its page exists,
    /// without waiting for it: a miss calls this once it knows it will
    /// allocate, so the word's load overlaps the victim's eviction.
    /// Changes nothing.
    #[inline]
    pub fn prefetch_bit(&self, lbn: BlockAddr) {
        let local = self.local(lbn.0);
        if let Some(&at) = self.directory.get(local >> PAGE_BITS) {
            prefetch_line(&self.pages[at as usize].words[bit_of(local).0]);
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a block's slot.
    #[inline]
    pub fn get(&self, lbn: BlockAddr) -> Option<&TableSlot> {
        self.map.get(lbn.0)
    }

    /// Mutable slot lookup.
    #[inline]
    pub fn get_mut(&mut self, lbn: BlockAddr) -> Option<&mut TableSlot> {
        self.map.get_mut(lbn.0)
    }

    /// Whether a block is resident.
    #[inline]
    pub fn contains(&self, lbn: BlockAddr) -> bool {
        self.map.contains(lbn.0)
    }

    /// Inserts (or replaces) a block's slot, returning the previous one if
    /// it existed; a fresh block also sets its residency bit. The probe
    /// only claims the slot; the caller's inlined copy then writes `slot`
    /// into it from registers. Handing `slot` to the out-of-line probe
    /// instead would spill it to the stack and reload it with one wide
    /// load the narrower stores cannot forward to.
    #[inline]
    pub fn insert(&mut self, lbn: BlockAddr, slot: TableSlot) -> Option<TableSlot> {
        let (at, fresh) = self.map.get_or_insert_with(lbn.0, TableSlot::default);
        let old = std::mem::replace(at, slot);
        if !fresh {
            return Some(old);
        }
        let local = self.local(lbn.0);
        let (word, bit) = bit_of(local);
        let page = self.page_or_alloc(local);
        page.words[word] |= bit;
        page.count += 1;
        None
    }

    /// Removes a block, returning its slot. The block's residency bit is
    /// read first: a clear bit, or no page at all, answers `None` without
    /// probing the slots. A page whose last bit this clears goes back on
    /// the free list.
    #[inline]
    pub fn remove(&mut self, lbn: BlockAddr) -> Option<TableSlot> {
        let local = self.local(lbn.0);
        let at = *self.directory.get(local >> PAGE_BITS)?;
        let page = &mut self.pages[at as usize];
        let (word, bit) = bit_of(local);
        if page.words[word] & bit == 0 {
            return None;
        }
        page.words[word] &= !bit;
        page.count -= 1;
        if page.count == 0 {
            self.directory.remove(local >> PAGE_BITS);
            self.free.push(at);
        }
        let slot = self.map.remove(lbn.0);
        Some(slot.expect("a block whose residency bit is set has a slot"))
    }

    /// Iterates all `(lbn, slot)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &TableSlot)> {
        self.map.iter().map(|(key, slot)| (BlockAddr(key), slot))
    }

    /// Number of residency pages in the directory.
    #[cfg(test)]
    fn pages_in_use(&self) -> usize {
        self.directory.len()
    }

    /// Checks the table against its own invariants and returns the first
    /// broken one:
    ///
    /// * no probe chain of the slots or of the page directory crosses an
    ///   empty slot, and each occupancy popcount equals its length;
    /// * every page is either in the directory once or on the free list
    ///   once; an in-use page's count equals its popcount and is not
    ///   zero, and a free page is all zero;
    /// * the residency popcount equals `len()`, and every resident
    ///   block's bit is set.
    ///
    /// Reads every slot and every page: for tests and audits, not for a
    /// hot path.
    pub fn audit(&self) -> Result<(), String> {
        self.map.audit()?;
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
        let mut bits = 0;
        for (range, &at) in self.directory.iter() {
            let page = claim(at, "in use")?;
            let set: u32 = page.words.iter().map(|w| w.count_ones()).sum();
            if page.count != set || set == 0 {
                return Err(format!(
                    "page {at} (range {range}) counts {} set bits and holds {set}",
                    page.count
                ));
            }
            bits += set as usize;
        }
        for &at in &self.free {
            let page = claim(at, "free")?;
            if page.count != 0 || page.words.iter().any(|&w| w != 0) {
                return Err(format!("free page {at} has bits set"));
            }
        }
        if let Some(at) = seen.iter().position(|&s| !s) {
            return Err(format!("page {at} is neither in use nor free"));
        }
        if bits != self.len() {
            return Err(format!(
                "residency popcount {bits} disagrees with len {}",
                self.len()
            ));
        }
        match self
            .iter()
            .find(|&(lbn, _)| self.resident_in(lbn, 1).0 != 1)
        {
            Some((lbn, _)) => Err(format!("resident block {} has no residency bit", lbn.0)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    fn entry(node: u32) -> TableSlot {
        entry_in(node, 2, false)
    }

    fn entry_in(node: u32, prio: u8, dirty: bool) -> TableSlot {
        TableSlot {
            entry: CacheEntry {
                priority: CachePriority(prio),
                state: if dirty {
                    BlockState::Dirty
                } else {
                    BlockState::Clean
                },
            },
            node,
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut m = BlockTable::with_capacity(8, 1);
        assert!(m.is_empty());
        m.insert(BlockAddr(5), entry_in(0, 2, false));
        assert!(m.contains(BlockAddr(5)));
        assert_eq!(m.get(BlockAddr(5)).unwrap().node, 0);
        assert_eq!(m.len(), 1);
        let removed = m.remove(BlockAddr(5)).unwrap();
        assert_eq!(removed.entry.priority, CachePriority(2));
        assert!(m.is_empty());
    }

    #[test]
    fn a_key_and_its_table_slot_fill_16_bytes() {
        // Priority, state and node fill 8 B, so a slot with its key is 16:
        // four slots a line.
        assert_eq!(std::mem::size_of::<TableSlot>(), 8);
        assert_eq!(std::mem::size_of::<(u64, TableSlot)>(), 16);
    }

    #[test]
    fn dirty_count_tracks_state() {
        let dirty = |m: &BlockTable| m.iter().filter(|(_, s)| s.entry.is_dirty()).count();
        let mut m = BlockTable::with_capacity(8, 1);
        m.insert(BlockAddr(1), entry_in(0, 1, true));
        m.insert(BlockAddr(2), entry_in(1, 1, false));
        m.insert(BlockAddr(3), entry_in(2, 3, true));
        assert_eq!(dirty(&m), 2);
        m.get_mut(BlockAddr(1)).unwrap().entry.state = BlockState::Clean;
        assert_eq!(dirty(&m), 1);
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let mut m = BlockTable::with_capacity(8, 1);
        m.insert(BlockAddr(9), entry_in(10, 4, false));
        m.insert(BlockAddr(9), entry_in(11, 2, true));
        let slot = m.get(BlockAddr(9)).unwrap();
        assert_eq!(slot.node, 11);
        let e = slot.entry;
        assert_eq!(e.priority, CachePriority(2));
        assert!(e.is_dirty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_yields_every_entry_once() {
        // Pre-sized for 4, so the walk also crosses three growths.
        let mut m = BlockTable::with_capacity(4, 1);
        for i in 0..50u64 {
            m.insert(BlockAddr(i), entry_in(i as u32, 1, i % 2 == 0));
        }
        let mut pairs: Vec<(u64, u32)> = m.iter().map(|(lbn, s)| (lbn.0, s.node)).collect();
        pairs.sort_unstable();
        let model: Vec<(u64, u32)> = (0..50u32).map(|i| (u64::from(i), i)).collect();
        assert_eq!(pairs, model);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = BlockTable::new();
        assert!(t.is_empty());
        assert!(t.insert(BlockAddr(5), entry(50)).is_none());
        assert!(t.contains(BlockAddr(5)));
        assert_eq!(t.get(BlockAddr(5)).unwrap().node, 50);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(BlockAddr(5)).unwrap().node, 50);
        assert!(t.is_empty());
        assert!(t.remove(BlockAddr(5)).is_none());
    }

    #[test]
    fn replace_keeps_the_node_hint() {
        let mut t = BlockTable::new();
        t.insert(BlockAddr(9), entry_in(NO_NODE, 1, false));
        assert_eq!(t.get(BlockAddr(9)).unwrap().node, NO_NODE);
        t.get_mut(BlockAddr(9)).unwrap().node = 7;
        let old = t.insert(
            BlockAddr(9),
            TableSlot {
                node: 7,
                ..entry_in(NO_NODE, 2, false)
            },
        );
        assert_eq!(old.unwrap().entry.priority, CachePriority(1));
        let slot = t.get(BlockAddr(9)).unwrap();
        assert_eq!(
            (slot.entry.priority, slot.node),
            (CachePriority(2), 7),
            "the slot is replaced whole"
        );
        assert!(t.get(BlockAddr(42)).is_none(), "absent block has no slot");
    }

    #[test]
    fn grows_past_the_load_factor_and_keeps_every_entry() {
        let mut t = BlockTable::new();
        for i in 0..1000u32 {
            t.insert(BlockAddr(u64::from(i)), entry(i * 10));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            let slot = t.get(BlockAddr(u64::from(i))).unwrap();
            assert_eq!(slot.node, i * 10, "lbn {i}");
        }
        t.map.audit().unwrap();
        // Growth rescales the hash onto the doubled group count: whole
        // runs of consecutive keys keep their home slots.
        let displaced = (0..1000u64)
            .filter(|&i| t.map.find(i) != Some(t.map.home(i)))
            .count();
        assert!(
            displaced < 100,
            "{displaced} of 1000 keys off their home slot"
        );
    }

    #[test]
    fn a_block_is_resident_from_insert_to_remove() {
        for stride in STRIDES {
            let mut t = BlockTable::with_capacity(64, stride);
            let lbn = BlockAddr(40 * stride as u64 + 1);
            assert_eq!(t.resident_in(lbn, 1), (0, None), "stride {stride}: empty");
            assert_eq!(t.absent_prefix(lbn, 1), 1, "stride {stride}: empty");
            t.insert(lbn, entry(1));
            assert_eq!(t.resident_in(lbn, 1), (1, Some(lbn)), "stride {stride}");
            assert_eq!(t.absent_prefix(lbn, 1), 0, "stride {stride}: resident");
            t.insert(lbn, entry(2));
            assert_eq!(t.resident_in(lbn, 1).0, 1, "stride {stride}: replaced");
            t.remove(lbn);
            assert_eq!(t.resident_in(lbn, 1), (0, None), "stride {stride}");
            assert_eq!(t.absent_prefix(lbn, 1), 1, "stride {stride}: removed");
            t.audit().unwrap();
            assert_eq!(t.pages_in_use(), 0, "stride {stride}: an empty page stays");
        }
    }

    #[test]
    fn residency_queries_skip_an_extent_with_no_resident_block() {
        // Residents in extents 0 and 2 of shard 1 of 3, none in extent 1:
        // a run across all three counts both sides and ends on the last.
        let stride = 3u64;
        let lbn = |local: u64| BlockAddr(local * stride + 1);
        let mut t = BlockTable::with_capacity(0, stride as usize);
        for local in [5, 63, 130, 191] {
            t.insert(lbn(local), entry(0));
        }
        t.audit().unwrap();
        assert_eq!(t.resident_in(lbn(0), 192), (4, Some(lbn(191))));
        assert_eq!(t.resident_in(lbn(64), 66), (0, None), "extent 1 only");
        assert_eq!(t.resident_in(lbn(64), 67), (1, Some(lbn(130))));
        assert_eq!(t.resident_in(lbn(6), 57), (0, None), "bit 63 excluded");
        assert_eq!(t.resident_in(lbn(6), 58), (1, Some(lbn(63))), "bit 63");
        assert_eq!(t.absent_prefix(lbn(64), 128), 66);
        assert_eq!(t.absent_prefix(lbn(64), 66), 66);
        assert_eq!(t.absent_prefix(lbn(6), 100), 57);
        assert_eq!(t.absent_prefix(lbn(192), 0), 0);
        assert_eq!(t.resident_in(lbn(5), 0), (0, None));
    }

    #[test]
    fn residency_queries_reach_the_top_of_the_address_space() {
        for stride in STRIDES {
            let stride = stride as u64;
            let top = u64::MAX / stride;
            let lbn = |local: u64| BlockAddr(local * stride);
            let mut t = BlockTable::with_capacity(0, stride as usize);
            t.insert(lbn(top), entry(0));
            t.insert(lbn(top - 64), entry(1));
            t.audit().unwrap();
            assert_eq!(t.resident_in(lbn(top - 100), 101), (2, Some(lbn(top))));
            assert_eq!(t.resident_in(lbn(top), 1), (1, Some(lbn(top))));
            assert_eq!(t.absent_prefix(lbn(top - 63), 64), 63);
            t.remove(lbn(top));
            assert_eq!(t.resident_in(lbn(top - 63), 64), (0, None));
            t.audit().unwrap();
        }
    }

    #[test]
    fn extreme_keys_are_legal() {
        // BlockAddr legitimately spans the full u64 range — the table has
        // no sentinel key, only occupancy flags.
        let mut t = BlockTable::new();
        t.insert(BlockAddr(0), entry(1));
        t.insert(BlockAddr(u64::MAX), entry(2));
        assert_eq!(t.get(BlockAddr(0)).unwrap().node, 1);
        assert_eq!(t.get(BlockAddr(u64::MAX)).unwrap().node, 2);
    }

    #[test]
    fn with_capacity_presizes_above_the_load_factor() {
        let t = OpenMap::<u32>::with_capacity(1000);
        // 1000 entries at 7/8 load need ≥ 1143 slots → 2048.
        assert_eq!(t.capacity(), 2048);
        let small = OpenMap::<u32>::with_capacity(0);
        assert_eq!(small.capacity(), MIN_CAPACITY);
    }

    #[test]
    fn backward_shift_closes_probe_chains() {
        // Force a dense cluster, then delete from its middle: lookups for
        // every survivor must still succeed and the invariant must hold.
        let mut m = OpenMap::<u64>::new();
        for i in 0..7u64 {
            m.insert(i, i);
        }
        m.remove(3);
        m.map_invariant_and_all_present(&[0, 1, 2, 4, 5, 6]);
        m.remove(0);
        m.map_invariant_and_all_present(&[1, 2, 4, 5, 6]);
    }

    impl<const G: u32> OpenMap<u64, G> {
        fn map_invariant_and_all_present(&self, keys: &[u64]) {
            self.audit().unwrap();
            for &k in keys {
                assert_eq!(self.get(k), Some(&k), "key {k} lost");
            }
            assert_eq!(self.len(), keys.len());
        }
    }

    #[test]
    fn clear_empties_without_shrinking() {
        let mut m = OpenMap::<u32>::new();
        for i in 0..100 {
            m.insert(i, i as u32);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(5), None);
        m.insert(5, 1);
        assert_eq!(m.get(5), Some(&1));
    }

    /// The key strides the model tests cover: unsharded, two shards, a
    /// non-power-of-two shard count and eight shards.
    const STRIDES: [usize; 4] = [1, 2, 3, 8];

    /// A test key of one of four shapes, all reproducible from `small` so
    /// removals and lookups hit keys inserted earlier: a dense run of
    /// consecutive addresses, a run of one shard's blocks (stride-aligned,
    /// residue `base % stride`), scattered addresses, and addresses at the
    /// top of the `u64` range.
    fn shaped_key(shape: u8, small: u64, base: u64, stride: usize) -> u64 {
        let stride = stride as u64;
        let anchor = base >> 16;
        match shape % 4 {
            0 => anchor + small,
            1 => (anchor + small) * stride + base % stride,
            2 => (small ^ base).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            _ => u64::MAX - small * stride,
        }
    }

    #[test]
    fn consecutive_local_addresses_fill_whole_groups() {
        // 16 consecutive local addresses, starting on a run boundary, of
        // an unsharded table and of shard 5 of 8: every key lands on its
        // home slot, and the keys fill 4 extent groups exactly, each with
        // one aligned run of 4 in offset order.
        for (stride, residue) in [(1u64, 0u64), (8, 5)] {
            let mut t = BlockTable::with_capacity(1024, stride as usize);
            let keys: Vec<u64> = (0..16u64).map(|j| (4_000 + j) * stride + residue).collect();
            for (node, &k) in (0u32..).zip(&keys) {
                t.insert(BlockAddr(k), entry(node));
            }
            t.map.audit().unwrap();
            let mut groups: HashMap<usize, Vec<u64>> = HashMap::new();
            for (j, &k) in (0u64..).zip(&keys) {
                let slot = t.map.find(k).expect("inserted key is present");
                assert_eq!(slot, t.map.home(k), "stride {stride}: key {k} displaced");
                assert_eq!(slot % 4, (j % 4) as usize, "stride {stride}: offset");
                groups.entry(slot / 4).or_default().push(j / 4);
            }
            assert_eq!(groups.len(), 4, "stride {stride}: {groups:?}");
            for runs in groups.values() {
                assert_eq!(runs.len(), 4, "stride {stride}: a group is not full");
                assert!(
                    runs.iter().all(|&r| r == runs[0]),
                    "stride {stride}: runs mix"
                );
            }
        }
    }

    /// Replays `(shape, small, is_remove, value)` operations on `map` and
    /// on a `HashMap` model. Each operation is preceded by a prefetch of
    /// its key, as a shard walk issues them; after each, the answers, the
    /// length, every model entry and the absence of the key's neighbours
    /// must agree, and the backward-shift invariant — no probe chain
    /// crosses an empty slot — must hold, across growth from the minimum
    /// capacity. At the end the iterator must visit exactly the model's
    /// pairs.
    fn replay_against_a_model<const G: u32>(
        mut map: OpenMap<u64, G>,
        ops: &[(u8, u64, bool, u64)],
        base: u64,
        stride: usize,
    ) {
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(shape, small, is_remove, value) in ops {
            let key = shaped_key(shape, small, base, stride);
            map.prefetch(key);
            if is_remove {
                assert_eq!(map.remove(key), model.remove(&key));
            } else {
                assert_eq!(map.insert(key, value), model.insert(key, value));
            }
            map.audit().unwrap();
            assert_eq!(map.len(), model.len());
            for (&k, v) in &model {
                assert_eq!(map.get(k), Some(v), "stride {stride}, groups {G}: key {k}");
            }
            // Absence is exact too: the op's key and its neighbours on
            // the same shard.
            let step = stride as u64;
            for k in [key, key.wrapping_add(step), key.wrapping_sub(step)] {
                assert_eq!(
                    map.contains(k),
                    model.contains_key(&k),
                    "stride {stride}, groups {G}: key {k}"
                );
            }
        }
        let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        seen.sort_unstable();
        let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The open-addressing table agrees with a `HashMap` model on any
        /// insert/remove/lookup trace, plain and grouped with every stride,
        /// for every key shape (see `replay_against_a_model`).
        #[test]
        fn open_map_matches_a_hash_map_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..64, proptest::prelude::any::<bool>(), 0u64..1000),
                1..300,
            ),
            base in proptest::prelude::any::<u64>(),
        ) {
            for stride in STRIDES {
                let grouped = OpenMap::<u64, BLOCK_GROUP_BITS>::strided(0, stride);
                replay_against_a_model(grouped, &ops, base, stride);
                replay_against_a_model(OpenMap::<u64>::new(), &ops, base, stride);
            }
        }

        /// The table agrees with a `BTreeSet` model of one shard's blocks
        /// (residue `residue % stride`) on every step of a random trace of
        /// inserts, replacements, removals and removals of absent blocks,
        /// at strides 1, 3 and 8. Keys sit on both sides of an extent
        /// boundary, of two page boundaries and of both ends of the
        /// shard's local addresses. After each step:
        ///
        /// * `audit()` passes;
        /// * a removal of an absent block answered `None` and changed
        ///   neither the contents nor the pages in use;
        /// * the pages in use are exactly the distinct 32,768-address
        ///   ranges that hold a resident block — never more, and none
        ///   once the table is empty;
        /// * `resident_in` and `absent_prefix` over random windows (`k`
        ///   from 0, crossing extents) and over one window across three
        ///   pages answer as a block-by-block count would.
        #[test]
        fn residency_queries_match_a_set_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u8..5, 0u64..80, proptest::prelude::any::<u64>()),
                1..150,
            ),
            queries in proptest::collection::vec((0u8..5, 0u64..80, 0u64..300), 4..5),
            residue in proptest::prelude::any::<u64>(),
            anchor in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            const PAGE: u64 = 1 << PAGE_BITS;
            for stride in [1u64, 3, 8] {
                let residue = residue % stride;
                // The largest local address of the shard's blocks.
                let top = (u64::MAX - residue) / stride;
                // A page boundary in the lower half of the shard's range.
                let page = (anchor % (top / 2)) / PAGE * PAGE + PAGE;
                let local = |shape: u8, small: u64| match shape {
                    0 => small,
                    1 => page + 7 * 64 - 40 + small,
                    2 => page - 40 + small,
                    3 => page + PAGE - 40 + small,
                    _ => top - small,
                };
                let lbn = |local: u64| BlockAddr(local * stride + residue);
                let mut t = BlockTable::with_capacity(0, stride as usize);
                let mut model = BTreeSet::new();
                let contents = |t: &BlockTable| {
                    let mut keys: Vec<u64> = t.iter().map(|(b, _)| b.0).collect();
                    keys.sort_unstable();
                    (keys, t.pages_in_use())
                };
                for &(kind, shape, small, pick) in &ops {
                    // Replacements and plain removals take a resident
                    // block when there is one.
                    let resident = (!model.is_empty() && matches!(kind, 1 | 2))
                        .then(|| *model.iter().nth(pick as usize % model.len()).unwrap());
                    let l = resident.unwrap_or_else(|| local(shape, small));
                    match kind {
                        0 | 1 => prop_assert_eq!(
                            t.insert(lbn(l), entry(small as u32)).is_none(),
                            model.insert(l)
                        ),
                        _ if model.contains(&l) => {
                            prop_assert!(t.remove(lbn(l)).is_some());
                            model.remove(&l);
                        }
                        _ => {
                            let before = contents(&t);
                            prop_assert!(t.remove(lbn(l)).is_none(), "absent local {}", l);
                            prop_assert_eq!(contents(&t), before, "absent local {}", l);
                        }
                    }
                    prop_assert_eq!(t.audit(), Ok(()));
                    let ranges: BTreeSet<u64> = model.iter().map(|l| l >> PAGE_BITS).collect();
                    prop_assert_eq!(t.pages_in_use(), ranges.len(), "stride {}", stride);
                    let windows = queries
                        .iter()
                        .map(|&(shape, small, k)| (local(shape, small), k))
                        .chain([(page - 100, 2 * PAGE + 200)]);
                    for (start, k) in windows {
                        let k = k.min((top - start).saturating_add(1));
                        let window: Vec<u64> = match k {
                            0 => Vec::new(),
                            _ => model.range(start..=start + (k - 1)).copied().collect(),
                        };
                        let resident = (window.len() as u64, window.last().map(|&l| lbn(l)));
                        let absent = window.first().map_or(k, |&l| l - start);
                        let what = format!("stride {stride}: {k} from local {start}");
                        prop_assert_eq!(t.resident_in(lbn(start), k), resident, "{}", what);
                        prop_assert_eq!(t.absent_prefix(lbn(start), k), absent, "{}", what);
                    }
                }
                for l in std::mem::take(&mut model) {
                    prop_assert!(t.remove(lbn(l)).is_some());
                }
                prop_assert!(t.is_empty());
                prop_assert_eq!(t.pages_in_use(), 0, "stride {}: pages of an empty table", stride);
                prop_assert_eq!(t.audit(), Ok(()));
            }
        }

        /// Prefetching any block — resident, absent, at either end of the
        /// address space — leaves a table's contents, length and capacity
        /// exactly as they were.
        #[test]
        fn prefetch_leaves_the_table_unchanged(
            inserts in proptest::collection::vec((0u8..4, 0u64..64), 1..200),
            probes in proptest::collection::vec((0u8..4, 0u64..128), 1..64),
            base in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prelude::prop_assert_eq;
            let snapshot = |t: &BlockTable| {
                let mut pairs: Vec<(u64, u32)> =
                    t.iter().map(|(lbn, s)| (lbn.0, s.node)).collect();
                pairs.sort_unstable();
                (pairs, t.len(), t.map.capacity())
            };
            for stride in STRIDES {
                let mut t = BlockTable::with_capacity(0, stride);
                for &(shape, small) in &inserts {
                    t.insert(BlockAddr(shaped_key(shape, small, base, stride)), entry(small as u32));
                }
                let before = snapshot(&t);
                let keys = probes
                    .iter()
                    .map(|&(shape, small)| shaped_key(shape, small, base, stride))
                    .chain([0, 1, u64::MAX, u64::MAX - 1]);
                for key in keys {
                    t.prefetch(BlockAddr(key));
                }
                t.map.audit().unwrap();
                prop_assert_eq!(snapshot(&t), before);
            }
        }
    }
}
