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
//!   line and a value line; and one **control byte** per slot — `EMPTY`,
//!   `DELETED`, or a 7-bit tag from a second hash of the key — with the
//!   first 16 mirrored after the last, so 16 bytes read at any slot stay
//!   in bounds;
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
//! * **a key compare at home, then group probing**: a free slot holds a
//!   key whose home is elsewhere, so a key at its home slot — most hits —
//!   is found by one key compare, with no control byte read and no wait
//!   on one. Any other lookup matches the 16 control bytes from the home
//!   slot against the key's tag at once (one SSE2 compare on x86_64, a
//!   byte loop elsewhere), compares keys only where a tag matches, and
//!   stops at the first group holding an `EMPTY` byte, so an absent key
//!   costs one group. Further groups follow at triangular steps;
//! * removal without shifting: a slot becomes `EMPTY` if every 16-slot
//!   window over it already holds an `EMPTY`, and a `DELETED` tombstone
//!   otherwise. Once the growth budget runs out, or tombstones fill 1/16
//!   of the slots, the table rehashes in place, clearing the tombstones,
//!   or doubles if its live entries would pass 13/16 of the slots. Below
//!   that line a rehash leaves room for 1/16 of the slots' worth of
//!   removals before the next, and a table is pre-sized to stay below it,
//!   so it never reallocates;
//! * [`BlockTable::prefetch`], which starts loading a key's home control
//!   group and home slot, so a shard walk can ask for the table lines it
//!   will need a few blocks from now (the engine prefetches 8 strides
//!   ahead), and
//!   [`BlockTable::prefetch_bit`], which starts loading a block's
//!   residency word, so a miss that will allocate overlaps that load
//!   with its victim's eviction;
//! * a **residency bitmap** in a [`BlockTable`]: one bit per local
//!   address, one `u64` word per 64, kept in a [`PagedArray`] — 4 KiB
//!   pages of 512 words (32,768 local addresses), each existing while its
//!   range holds a resident block, behind a radix-tree page directory. It
//!   answers a run of a shard's blocks a word at a time, by the array's
//!   range walk — how many are resident and which is last
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

use crate::paged::PagedArray;
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

/// Multiplier of the second hash, whose top 7 bits are a key's control
/// tag. It is unrelated to [`FIB`], so the keys of one extent group, which
/// share a home group, still get independent tags.
const TAG_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;

/// `log2` of a [`BlockTable`]'s extent-group size: runs of 4 consecutive
/// local addresses share one hash and 4 adjacent slots. Larger groups
/// lengthen the probe chains of clustered keys faster than they add
/// locality.
const BLOCK_GROUP_BITS: u32 = 2;

/// `log2` of the local addresses one [`BlockTable`] residency word covers.
const EXTENT_BITS: u32 = 6;

/// Control bytes one probe step matches at once. The first this many
/// control bytes are mirrored after the last slot's, so a group read at
/// any slot stays in bounds and wraps around the table.
const GROUP_WIDTH: usize = 16;

/// Smallest table capacity ever allocated (slots, power of two): one
/// control group, so a group never covers a slot twice.
const MIN_CAPACITY: usize = GROUP_WIDTH;

/// The node handle of a block whose policy keeps its own index (see the
/// [`CachePolicy`](crate::policy::CachePolicy#node-handles) docs).
pub const NO_NODE: u32 = u32::MAX;

/// Control byte of a slot that held no entry since the table was last
/// rebuilt. A probe stops at the first group holding one.
const EMPTY: u8 = 0x80;

/// Control byte of a slot whose entry was removed while a full group
/// spanned it: free for an insertion, but a probe walks past it. A full
/// slot's control byte is its key's 7-bit tag, so the top bit tells free
/// from full.
const DELETED: u8 = 0xFE;

/// The share of its slots — one in this many — a table lets `DELETED`
/// tombstones take before it rehashes in place. Tombstones block the
/// `EMPTY` a probe stops at, and each makes the next removal near it more
/// likely to leave one too; letting them grow to the whole 7/8 budget
/// made `cache_mixed`'s half-full shard tables leave a tombstone on 43 %
/// of removals and send 1 in 11 lookups past their home group.
const TOMBSTONE_SHARE: usize = 16;

/// Whether a control byte marks a full slot (a tag, not [`EMPTY`] or
/// [`DELETED`]).
#[inline]
fn is_full(ctrl: u8) -> bool {
    ctrl & 0x80 == 0
}

/// The bytes of one control group that answer a question: bit `i` for
/// byte `i`. Iterates the matching offsets in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitMask(u16);

impl BitMask {
    #[inline]
    fn any(self) -> bool {
        self.0 != 0
    }

    #[inline]
    fn lowest(self) -> Option<usize> {
        self.any().then(|| self.0.trailing_zeros() as usize)
    }

    /// The complement: the bytes that do not match.
    #[inline]
    fn invert(self) -> Self {
        BitMask(!self.0)
    }
}

impl Iterator for BitMask {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let bit = self.lowest()?;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// The SSE2 group matcher: each question is one byte compare and one
/// move-mask over all 16 control bytes. SSE2 is in every x86_64 target's
/// baseline, so no runtime check guards it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, unused_unsafe)]
mod sse2 {
    use super::{BitMask, EMPTY, GROUP_WIDTH};
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
    };

    /// 16 control bytes in one SSE register.
    #[derive(Clone, Copy)]
    pub(super) struct Group(__m128i);

    impl Group {
        #[inline(always)]
        pub(super) fn load(bytes: &[u8; GROUP_WIDTH]) -> Self {
            // SAFETY: `bytes` is a live reference to 16 readable bytes, and
            // `_mm_loadu_si128` has no alignment requirement. SSE2 is in
            // every x86_64 target's baseline.
            Group(unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) })
        }

        /// The bytes equal to `byte`.
        #[inline(always)]
        pub(super) fn match_byte(self, byte: u8) -> BitMask {
            // SAFETY: register arithmetic with no memory access, on SSE2,
            // which every x86_64 target has. The move-mask sets only the
            // low 16 bits, so the cast keeps every one.
            let bits =
                unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(self.0, _mm_set1_epi8(byte as i8))) };
            BitMask(bits as u16)
        }

        /// The [`EMPTY`] bytes.
        #[inline(always)]
        pub(super) fn match_empty(self) -> BitMask {
            self.match_byte(EMPTY)
        }

        /// The free bytes, [`EMPTY`] or [`super::DELETED`]: those with the
        /// top bit set, which is what the move-mask collects.
        #[inline(always)]
        pub(super) fn match_free(self) -> BitMask {
            // SAFETY: as in `match_byte`.
            let bits = unsafe { _mm_movemask_epi8(self.0) };
            BitMask(bits as u16)
        }
    }
}

/// The portable group matcher: a loop over the 16 bytes. Targets without
/// SSE2 use it, and x86_64 compiles it for the test that holds the two
/// matchers equal.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod bytes {
    use super::{BitMask, EMPTY, GROUP_WIDTH};

    /// 16 control bytes, copied.
    #[derive(Clone, Copy)]
    pub(super) struct Group([u8; GROUP_WIDTH]);

    impl Group {
        #[inline]
        pub(super) fn load(bytes: &[u8; GROUP_WIDTH]) -> Self {
            Group(*bytes)
        }

        /// The bytes equal to `byte`.
        #[inline]
        pub(super) fn match_byte(self, byte: u8) -> BitMask {
            self.matching(|c| c == byte)
        }

        /// The [`EMPTY`] bytes.
        #[inline]
        pub(super) fn match_empty(self) -> BitMask {
            self.match_byte(EMPTY)
        }

        /// The free bytes, [`EMPTY`] or [`super::DELETED`].
        #[inline]
        pub(super) fn match_free(self) -> BitMask {
            self.matching(|c| !super::is_full(c))
        }

        #[inline]
        fn matching(self, pred: impl Fn(u8) -> bool) -> BitMask {
            let mut bits = 0;
            for (i, &c) in self.0.iter().enumerate() {
                bits |= u16::from(pred(c)) << i;
            }
            BitMask(bits)
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
use bytes::Group;
#[cfg(target_arch = "x86_64")]
use sse2::Group;

/// Entries a table of `cap` slots may hold: 7/8 of its slots.
#[inline]
fn max_load(cap: usize) -> usize {
    cap - cap / 8
}

/// Entries a table of `cap` slots may hold and still rehash in place:
/// 13/16 of its slots, one [`TOMBSTONE_SHARE`] below [`max_load`]. A
/// rehash at or under this load leaves at least `cap / TOMBSTONE_SHARE`
/// removals before the next, so rebuilding costs O(1) slots per removal;
/// with less slack a full table would rerun its O(`cap`) rehash after
/// every few removals.
#[inline]
fn in_place_load(cap: usize) -> usize {
    max_load(cap) - cap / TOMBSTONE_SHARE
}

/// A probe sequence: the group at a key's home slot, then the groups 16,
/// 48, 96, … slots on. The triangular steps reach every group of a
/// power-of-two table before they repeat one.
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// First slot of the group to read next.
    pos: usize,
    step: usize,
    mask: usize,
}

impl Probe {
    #[inline]
    fn advance(&mut self) {
        self.step += GROUP_WIDTH;
        self.pos = (self.pos + self.step) & self.mask;
    }

    /// The slot `bit` places into the current group.
    #[inline]
    fn slot(&self, bit: usize) -> usize {
        (self.pos + bit) & self.mask
    }
}

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
/// A power-of-two slot array with one control byte per slot: `EMPTY`,
/// `DELETED`, or the 7-bit tag of the key it holds. A free slot holds a
/// key whose home is another slot, so a key at its home slot is found by
/// one key compare. Any other lookup reads the 16 control bytes from the
/// key's home slot at once, compares the key only where the tag matches,
/// and stops at the first group holding an `EMPTY`. A removal shifts
/// nothing: it writes `EMPTY` if no full group of 16 spans the slot, and
/// `DELETED` otherwise. Once the growth budget (7/8 of the slots, less
/// the full and `DELETED` ones) runs out, or the `DELETED` slots pass
/// 1/16 of the slots, the map doubles if its live entries would pass 13/16
/// of the slots, and otherwise rehashes in place, which clears every
/// `DELETED` slot without allocating; a map pre-sized for its entries
/// never passes 13/16. Iteration order is unspecified
/// (slot order) — callers that need a deterministic order must sort,
/// exactly as with `std::HashMap`.
///
/// With the default `GROUP_BITS = 0` each key is Fibonacci-hashed alone.
/// A positive `GROUP_BITS` hashes runs of `2^GROUP_BITS` consecutive local
/// addresses to that many adjacent slots (the extent groups of the module
/// docs) — worth it only where walks read the table in address order and
/// prefetch ahead, as they do the [`BlockTable`]; in a map probed at
/// random, grouping only lengthens probe chains.
#[derive(Debug, Clone)]
pub struct OpenMap<V, const GROUP_BITS: u32 = 0> {
    /// `(key, value)` per slot. A full slot's pair is an entry; a free
    /// slot's key is [`Self::foreign`] to it, and its value is stale.
    slots: Vec<(u64, V)>,
    /// One control byte per slot, then the first [`GROUP_WIDTH`] again.
    ctrl: Vec<u8>,
    len: usize,
    /// Insertions into an `EMPTY` slot left before the table must be
    /// rebuilt: 7/8 of the slots, less the full and `DELETED` ones.
    growth_left: usize,
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
    /// growing, however they churn (capacity is the next power of two at
    /// or above `items / (13/16)`, the highest load a table rehashes in
    /// place at), for keys with no common stride.
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
            .saturating_mul(16)
            .div_ceil(13)
            .max(MIN_CAPACITY)
            .next_power_of_two();
        let mut map = OpenMap {
            slots: vec![(0, V::default()); cap],
            ctrl: vec![EMPTY; cap + GROUP_WIDTH],
            len: 0,
            growth_left: max_load(cap),
            shift: 64 - (cap >> GROUP_BITS).trailing_zeros(),
            stride_shift: stride.trailing_zeros(),
        };
        map.slots[0].0 = map.foreign(0);
        map
    }

    /// A key whose home is not slot `i`, which a free slot `i` holds so
    /// that [`Self::find`] can trust a key compare at the home slot alone:
    /// key 0's home is slot 0, and local address 1's home is slot 1 of a
    /// grouped map and slot `FIB >> shift ≥ 1` of a plain one.
    #[inline]
    fn foreign(&self, i: usize) -> u64 {
        u64::from(i == 0) << self.stride_shift
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

    /// The key's control tag: the top 7 bits of a second hash of its
    /// local address.
    #[inline]
    fn tag(&self, key: u64) -> u8 {
        ((key >> self.stride_shift).wrapping_mul(TAG_MUL) >> 57) as u8
    }

    /// The probe sequence of `key`, at its home slot.
    #[inline]
    fn probe(&self, key: u64) -> Probe {
        Probe {
            pos: self.home(key),
            step: 0,
            mask: self.slots.len() - 1,
        }
    }

    /// The 16 control bytes from slot `pos` on, wrapping through the
    /// mirror.
    #[inline]
    fn group(&self, pos: usize) -> Group {
        let bytes = &self.ctrl[pos..pos + GROUP_WIDTH];
        Group::load(bytes.try_into().expect("a group is 16 control bytes"))
    }

    /// Sets slot `i`'s control byte and, for one of the first 16 slots,
    /// its mirror. Any other slot's "mirror" index is the slot itself, so
    /// the second store needs no branch.
    #[inline]
    fn set_ctrl(&mut self, i: usize, byte: u8) {
        let mask = self.slots.len() - 1;
        self.ctrl[i] = byte;
        self.ctrl[(i.wrapping_sub(GROUP_WIDTH) & mask) + GROUP_WIDTH] = byte;
    }

    /// The slot holding `key`, if present. A key at its home slot costs
    /// one key compare and no control byte: a free slot holds a key whose
    /// home is elsewhere ([`Self::foreign`]), so a match at the home slot
    /// is the key's entry. Otherwise the home group is matched against
    /// the key's tag, which settles every key in that group and every
    /// absent key whose home group holds an `EMPTY` slot; only the rest
    /// take [`Self::find_in_groups`].
    #[inline(always)]
    fn find(&self, key: u64) -> Option<usize> {
        let probe = self.probe(key);
        if self.slots[probe.pos].0 == key {
            return Some(probe.pos);
        }
        let tag = self.tag(key);
        let group = self.group(probe.pos);
        for bit in group.match_byte(tag) {
            let i = probe.slot(bit);
            if self.slots[i].0 == key {
                return Some(i);
            }
        }
        if group.match_empty().any() {
            return None;
        }
        self.find_in_groups(key, tag)
    }

    /// [`Self::find`] past the home group: each later group's slots whose
    /// control byte is `tag` are compared with `key`, up to the first
    /// group holding an `EMPTY` slot.
    #[inline(never)]
    fn find_in_groups(&self, key: u64, tag: u8) -> Option<usize> {
        let mut probe = self.probe(key);
        loop {
            probe.advance();
            let group = self.group(probe.pos);
            for bit in group.match_byte(tag) {
                let i = probe.slot(bit);
                if self.slots[i].0 == key {
                    return Some(i);
                }
            }
            if group.match_empty().any() {
                return None;
            }
        }
    }

    /// One walk of `key`'s probe sequence: `Ok` with the key's slot if it
    /// is present, else `Err` with the first free slot on the way, where an
    /// insertion places it.
    #[inline]
    fn find_or_free(&self, key: u64, tag: u8) -> Result<usize, usize> {
        let mut probe = self.probe(key);
        let mut free = None;
        loop {
            let group = self.group(probe.pos);
            for bit in group.match_byte(tag) {
                let i = probe.slot(bit);
                if self.slots[i].0 == key {
                    return Ok(i);
                }
            }
            free = free.or_else(|| group.match_free().lowest().map(|bit| probe.slot(bit)));
            if group.match_empty().any() {
                return Err(free.expect("a group holding an EMPTY slot has a free slot"));
            }
            probe.advance();
        }
    }

    /// The first free slot of `key`'s probe sequence, for a key known to
    /// be absent.
    #[inline]
    fn find_free(&self, key: u64) -> usize {
        let mut probe = self.probe(key);
        loop {
            if let Some(bit) = self.group(probe.pos).match_free().lowest() {
                return probe.slot(bit);
            }
            probe.advance();
        }
    }

    /// Starts loading the lines a lookup of `key` reads first — its home
    /// control group and its home slot — without waiting for them. Changes
    /// nothing; a no-op off x86_64.
    #[inline]
    fn prefetch(&self, key: u64) {
        let i = self.home(key);
        prefetch_line(&self.ctrl[i]);
        prefetch_line(&self.slots[i]);
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.slots[i].1)
    }

    /// `key`'s value if `key` sits at its home slot: one key compare and
    /// no control byte. `None` means absent or away from home.
    #[inline]
    fn peek_home(&self, key: u64) -> Option<&V> {
        let i = self.home(key);
        (self.slots[i].0 == key).then(|| &self.slots[i].1)
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

    /// The one probe behind every insertion: walks `key`'s probe sequence
    /// once, stopping at the key or at the first group holding an `EMPTY`
    /// slot, and places `make()`'s value in the first free slot it passed.
    /// Only a placement into an `EMPTY` slot with the growth budget used up
    /// or too many tombstones about rebuilds the table first. Returns the
    /// key's value and whether it was just inserted.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: u64,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let tag = self.tag(key);
        let i = match self.find_or_free(key, tag) {
            Ok(i) => return (&mut self.slots[i].1, false),
            Err(i) if self.ctrl[i] == EMPTY && self.must_rebuild() => {
                self.rebuild();
                self.find_free(key)
            }
            Err(i) => i,
        };
        self.growth_left -= usize::from(self.ctrl[i] == EMPTY);
        self.set_ctrl(i, tag);
        self.slots[i] = (key, make());
        self.len += 1;
        (&mut self.slots[i].1, true)
    }

    /// Removes `key`, returning its value if it was present. Nothing is
    /// shifted: the slot becomes `EMPTY` if every 16-slot window that
    /// contains it also holds an `EMPTY` slot — then no probe ever walked
    /// past it — and `DELETED` otherwise.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        let mask = self.slots.len() - 1;
        // The nearest EMPTY slots before and after `i`, as distances; a
        // mask with none counts 16.
        let before = self.group(i.wrapping_sub(GROUP_WIDTH) & mask).match_empty();
        let after = self.group(i).match_empty();
        let gap = before.0.leading_zeros() + after.0.trailing_zeros();
        if gap < GROUP_WIDTH as u32 {
            self.set_ctrl(i, EMPTY);
            self.growth_left += 1;
        } else {
            self.set_ctrl(i, DELETED);
        }
        self.len -= 1;
        let value = self.slots[i].1;
        self.slots[i].0 = self.foreign(i);
        Some(value)
    }

    /// Whether the next placement into an `EMPTY` slot must rebuild the
    /// table first: the growth budget is used up, or the `DELETED` slots
    /// pass one in [`TOMBSTONE_SHARE`].
    #[inline]
    fn must_rebuild(&self) -> bool {
        let deleted = max_load(self.slots.len()) - self.len - self.growth_left;
        self.growth_left == 0 || deleted > self.slots.len() / TOMBSTONE_SHARE
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.ctrl.fill(EMPTY);
        for i in 0..self.slots.len() {
            self.slots[i].0 = self.foreign(i);
        }
        self.len = 0;
        self.growth_left = max_load(self.slots.len());
    }

    /// Iterates all `(key, value)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> OpenMapIter<'_, V, GROUP_BITS> {
        OpenMapIter {
            map: self,
            base: 0,
            full: self.group(0).match_free().invert(),
        }
    }

    /// Makes room once [`Self::must_rebuild`]: doubles the table if one
    /// more entry would pass [`in_place_load`], and otherwise rehashes it
    /// in place, which turns every `DELETED` slot back into `EMPTY`.
    #[cold]
    #[inline(never)]
    fn rebuild(&mut self) {
        if self.len + 1 > in_place_load(self.slots.len()) {
            self.grow();
        } else {
            self.rehash_in_place();
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old_slots = std::mem::replace(&mut self.slots, vec![(0, V::default()); cap]);
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; cap + GROUP_WIDTH]);
        self.shift -= 1;
        self.slots[0].0 = self.foreign(0);
        for (&(key, value), &c) in old_slots.iter().zip(&old_ctrl) {
            if is_full(c) {
                let i = self.find_free(key);
                // A tag does not depend on the capacity.
                self.set_ctrl(i, c);
                self.slots[i] = (key, value);
            }
        }
        self.growth_left = max_load(cap) - self.len;
    }

    /// Rebuilds the table in its own allocation. Every full slot is first
    /// marked `DELETED` (an entry still to place) and every free one
    /// `EMPTY`; then each marked entry goes to the first free slot of its
    /// probe sequence. It stays put if that slot lies in the same probe
    /// group as its own; it moves if that slot is `EMPTY`; and it swaps
    /// with the marked entry there otherwise, which is placed next.
    fn rehash_in_place(&mut self) {
        let cap = self.slots.len();
        let mask = cap - 1;
        for c in &mut self.ctrl[..cap] {
            *c = if is_full(*c) { DELETED } else { EMPTY };
        }
        self.ctrl.copy_within(..GROUP_WIDTH, cap);
        let mut i = 0;
        while i < cap {
            if self.ctrl[i] != DELETED {
                i += 1;
                continue;
            }
            let key = self.slots[i].0;
            let home = self.home(key);
            let target = self.find_free(key);
            let group_of = |slot: usize| (slot.wrapping_sub(home) & mask) / GROUP_WIDTH;
            if group_of(i) == group_of(target) {
                self.set_ctrl(i, self.tag(key));
                i += 1;
            } else if self.ctrl[target] == EMPTY {
                self.slots[target] = self.slots[i];
                self.slots[i].0 = self.foreign(i);
                self.set_ctrl(target, self.tag(key));
                self.set_ctrl(i, EMPTY);
                i += 1;
            } else {
                self.slots.swap(i, target);
                self.set_ctrl(target, self.tag(key));
            }
        }
        self.growth_left = max_load(cap) - self.len;
    }

    /// Checks the control bytes against the slots and returns the first
    /// broken invariant:
    ///
    /// * the mirror equals the first 16 control bytes;
    /// * every control byte is `EMPTY`, `DELETED` or a tag, and a full
    ///   slot's tag is its key's;
    /// * a free slot holds a key whose home is another slot;
    /// * every key is reached from its home slot before a group holding an
    ///   `EMPTY` (otherwise a lookup would stop early and miss it);
    /// * the full slots number `len`, and the growth budget is 7/8 of the
    ///   slots less the full and `DELETED` ones.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let cap = self.slots.len();
        if self.ctrl[cap..] != self.ctrl[..GROUP_WIDTH] {
            return Err("the control mirror differs from the first 16 control bytes".into());
        }
        let (mut full, mut deleted) = (0, 0);
        for (slot, (&(key, _), &c)) in self.slots.iter().zip(&self.ctrl).enumerate() {
            if !is_full(c) && self.home(key) == slot {
                return Err(format!(
                    "free slot {slot} holds key {key}, whose home it is"
                ));
            }
            match c {
                EMPTY => continue,
                DELETED => {
                    deleted += 1;
                    continue;
                }
                c if !is_full(c) => return Err(format!("slot {slot} has control byte {c:#x}")),
                c if c != self.tag(key) => {
                    return Err(format!(
                        "slot {slot} holds key {key} under tag {c:#x}, not {:#x}",
                        self.tag(key)
                    ))
                }
                _ => full += 1,
            }
            let mut probe = self.probe(key);
            while slot.wrapping_sub(probe.pos) & probe.mask >= GROUP_WIDTH {
                if self.group(probe.pos).match_empty().any() {
                    return Err(format!(
                        "key {key} in slot {slot} lies past the group at {}, which holds an EMPTY slot",
                        probe.pos
                    ));
                }
                probe.advance();
            }
        }
        if full != self.len {
            return Err(format!("{full} full slots, but len is {}", self.len));
        }
        if full + deleted + self.growth_left != max_load(cap) {
            return Err(format!(
                "{full} full and {deleted} deleted slots with a growth budget of {} in {cap} slots",
                self.growth_left
            ));
        }
        Ok(())
    }
}

/// Iterator over an [`OpenMap`]'s `(key, value)` pairs in slot order.
pub struct OpenMapIter<'a, V, const GROUP_BITS: u32 = 0> {
    map: &'a OpenMap<V, GROUP_BITS>,
    /// First slot of the control group being scanned.
    base: usize,
    /// Its full slots not yet yielded.
    full: BitMask,
}

impl<'a, V: Copy + Default, const GROUP_BITS: u32> Iterator for OpenMapIter<'a, V, GROUP_BITS> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(bit) = self.full.next() {
                let (key, value) = &self.map.slots[self.base + bit];
                return Some((*key, value));
            }
            if self.base + GROUP_WIDTH >= self.map.slots.len() {
                return None;
            }
            self.base += GROUP_WIDTH;
            self.full = self.map.group(self.base).match_free().invert();
        }
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
/// a [`PagedArray`], which answers range queries 64 blocks a word.
/// Every key of one table must be congruent modulo the stride, as one
/// engine shard's blocks are. Iteration order is unspecified (every
/// engine consumer sorts or counts).
#[derive(Debug, Clone)]
pub struct BlockTable {
    map: OpenMap<TableSlot, BLOCK_GROUP_BITS>,
    /// Bit `l % 64` of word `l >> 6` is set exactly while the block at
    /// local address `l` is resident. Updated by [`Self::insert`] of a
    /// fresh key and [`Self::remove`] of a present one, and by nothing
    /// else.
    residency: PagedArray<u64>,
    /// The key stride: a block's local address is `lbn / stride`.
    stride: u64,
}

/// Where local address `l`'s residency bit lies: the word's index and
/// the bit's mask.
#[inline]
fn bit_of(local: u64) -> (u64, u64) {
    (local >> EXTENT_BITS, 1 << (local % 64))
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
            residency: PagedArray::new(),
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

    /// The residency words over local addresses `lo..=hi`, in ascending
    /// order, each masked to the range and paired with the local address
    /// of its bit 0, by [`PagedArray::range`]: a range with no page yields
    /// no words, so callers see only the words that can hold a resident
    /// block.
    #[inline]
    fn words(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.residency
            .range(lo >> EXTENT_BITS, hi >> EXTENT_BITS)
            .map(move |(i, word)| {
                let base = i << EXTENT_BITS;
                let below = u64::MAX << (lo.max(base) - base);
                let above = u64::MAX >> (base + 63 - hi.min(base + 63));
                (base, word & below & above)
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
        self.residency.prefetch(bit_of(self.local(lbn.0)).0);
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

    /// The block's slot if the block sits at its home slot, for a
    /// lookahead that must stay cheap: one key compare on the line
    /// [`Self::prefetch`] loads, no control byte. `None` for an absent
    /// block and for one away from home.
    #[inline]
    pub fn peek_home(&self, lbn: BlockAddr) -> Option<&TableSlot> {
        self.map.peek_home(lbn.0)
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
        let (word, bit) = bit_of(self.local(lbn.0));
        self.residency.update(word, |w| *w |= bit);
        None
    }

    /// Removes a block, returning its slot. The block's residency bit is
    /// read first: a clear bit, or no page at all, answers `None` without
    /// probing the slots.
    #[inline]
    pub fn remove(&mut self, lbn: BlockAddr) -> Option<TableSlot> {
        let (word, bit) = bit_of(self.local(lbn.0));
        let resident = self.residency.update(word, |w| {
            let set = *w & bit != 0;
            *w &= !bit;
            set
        });
        if !resident {
            return None;
        }
        let slot = self.map.remove(lbn.0);
        Some(slot.expect("a block whose residency bit is set has a slot"))
    }

    /// Iterates all `(lbn, slot)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &TableSlot)> {
        self.map.iter().map(|(key, slot)| (BlockAddr(key), slot))
    }

    /// Checks the table against its own invariants and returns the first
    /// broken one:
    ///
    /// * the slots pass [`OpenMap`]'s audit: every control byte is
    ///   `EMPTY`, `DELETED` or its key's tag, the mirror equals the first
    ///   16 bytes, a free slot holds a key whose home is elsewhere, every
    ///   key is reached from its home before a group holding an `EMPTY`,
    ///   and `len` and the growth budget match the control bytes;
    /// * the residency pages pass [`PagedArray`]'s audit;
    /// * the residency popcount equals `len()`, and every resident
    ///   block's bit is set (one word read each).
    ///
    /// Reads every slot and every page: for tests and audits, not for a
    /// hot path.
    pub fn audit(&self) -> Result<(), String> {
        self.map.audit()?;
        self.residency.audit()?;
        let bits: usize = self
            .residency
            .range(0, u64::MAX)
            .map(|(_, word)| word.count_ones() as usize)
            .sum();
        if bits != self.len() {
            return Err(format!(
                "residency popcount {bits} disagrees with len {}",
                self.len()
            ));
        }
        let unmarked = self.iter().find(|&(lbn, _)| {
            let (word, bit) = bit_of(self.local(lbn.0));
            self.residency.get(word) & bit == 0
        });
        match unmarked {
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
        // Pre-sized for 4, so the walk also crosses two growths.
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
            assert_eq!(
                t.residency.pages_in_use(),
                0,
                "stride {stride}: an empty page stays"
            );
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

    /// A resident block whose bit moved to an absent neighbour keeps the
    /// popcount right, and the audit still names it.
    #[test]
    fn the_audit_names_a_resident_block_without_its_bit() {
        let stride = 3u64;
        let mut t = BlockTable::with_capacity(0, stride as usize);
        t.insert(BlockAddr(5 * stride), entry(0));
        t.audit().unwrap();
        t.residency.update(0, |w| *w = w.rotate_left(1));
        let err = t.audit().expect_err("the bit moved");
        assert!(err.contains("block 15 has no residency bit"), "{err}");
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
        // no sentinel key: control bytes tell full slots from free ones.
        let mut t = BlockTable::new();
        t.insert(BlockAddr(0), entry(1));
        t.insert(BlockAddr(u64::MAX), entry(2));
        assert_eq!(t.get(BlockAddr(0)).unwrap().node, 1);
        assert_eq!(t.get(BlockAddr(u64::MAX)).unwrap().node, 2);
    }

    #[test]
    fn with_capacity_presizes_above_the_load_factor() {
        let t = OpenMap::<u32>::with_capacity(1000);
        // 1000 entries at 13/16 load need ≥ 1231 slots → 2048.
        assert_eq!(t.capacity(), 2048);
        // 13/16 of 4,096 slots fit exactly; one entry more doubles.
        assert_eq!(OpenMap::<u32>::with_capacity(3_328).capacity(), 4_096);
        assert_eq!(OpenMap::<u32>::with_capacity(3_329).capacity(), 8_192);
        let small = OpenMap::<u32>::with_capacity(0);
        assert_eq!(small.capacity(), MIN_CAPACITY);
    }

    #[test]
    fn a_removal_in_a_full_window_leaves_a_tombstone() {
        // 20 keys share home slot 0 of a 64-slot map: 16 fill the first
        // probe group, 4 spill into the second. Removing one from the
        // full first group must leave DELETED, or a lookup of a spilled
        // key would stop at the EMPTY. A lone key's removal, with EMPTY
        // slots on both sides, leaves EMPTY.
        let mut m = OpenMap::<u64>::with_capacity(52);
        assert_eq!(m.capacity(), 64);
        let homed =
            |at: usize| (0..).filter(move |&k| OpenMap::<u64>::with_capacity(52).home(k) == at);
        let keys: Vec<u64> = homed(0).take(21).collect();
        let lone = homed(40).next().unwrap();
        for &k in keys[..20].iter().chain([&lone]) {
            m.insert(k, k);
        }
        let at = |m: &OpenMap<u64>, k| m.find(k).expect("inserted key is present");
        assert!(keys[..16].iter().all(|&k| at(&m, k) < 16));
        assert!(keys[16..20].iter().all(|&k| (16..20).contains(&at(&m, k))));
        let inner = at(&m, keys[5]);
        m.remove(keys[5]);
        assert_eq!(m.ctrl[inner], DELETED);
        let mut rest: Vec<u64> = keys[..20]
            .iter()
            .copied()
            .filter(|&k| k != keys[5])
            .collect();
        m.map_invariant_and_all_present(&[&rest[..], &[lone]].concat());
        m.remove(lone);
        assert_eq!(m.ctrl[40], EMPTY);
        m.map_invariant_and_all_present(&rest);
        // The next key on the same probe reuses the tombstone.
        m.insert(keys[20], keys[20]);
        assert_eq!(at(&m, keys[20]), inner);
        rest.push(keys[20]);
        m.map_invariant_and_all_present(&rest);
    }

    #[test]
    fn the_sse2_and_byte_loop_matchers_agree() {
        // Every question on every tag, EMPTY and DELETED, against edge
        // groups (uniform, alternating, one odd byte at each end) and
        // random ones drawn mostly from bytes the table writes.
        let mut groups: Vec<[u8; GROUP_WIDTH]> = Vec::new();
        for b in [0, 1, 0x3F, 0x7F, EMPTY, DELETED, 0xFF] {
            groups.push([b; GROUP_WIDTH]);
            let mut alternating = [b; GROUP_WIDTH];
            let mut first = [b; GROUP_WIDTH];
            let mut last = [b; GROUP_WIDTH];
            for i in (0..GROUP_WIDTH).step_by(2) {
                alternating[i] = EMPTY;
            }
            first[0] = DELETED;
            last[GROUP_WIDTH - 1] = 0;
            groups.extend([alternating, first, last]);
        }
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2_000 {
            let mut g = [0u8; GROUP_WIDTH];
            for b in &mut g {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                *b = match rng % 8 {
                    0 => EMPTY,
                    1 => DELETED,
                    2 => (rng >> 8) as u8,
                    _ => (rng >> 8) as u8 & 0x7F,
                };
            }
            groups.push(g);
        }
        #[cfg(target_arch = "x86_64")]
        for g in &groups {
            let (fast, slow) = (sse2::Group::load(g), bytes::Group::load(g));
            for tag in (0..=0x7F).chain([EMPTY, DELETED]) {
                assert_eq!(
                    fast.match_byte(tag),
                    slow.match_byte(tag),
                    "{g:x?}, {tag:#x}"
                );
            }
            assert_eq!(fast.match_empty(), slow.match_empty(), "{g:x?}");
            assert_eq!(fast.match_free(), slow.match_free(), "{g:x?}");
        }
        // The byte loop against the definition, on every target.
        for g in &groups {
            let slow = bytes::Group::load(g);
            let expect = |p: &dyn Fn(u8) -> bool| {
                BitMask((0..GROUP_WIDTH).fold(0, |m, i| m | u16::from(p(g[i])) << i))
            };
            for tag in 0..=0x7F {
                assert_eq!(slow.match_byte(tag), expect(&|c| c == tag));
            }
            assert_eq!(slow.match_empty(), expect(&|c| c == EMPTY));
            assert_eq!(
                slow.match_free(),
                expect(&|c| c == EMPTY || c == DELETED || c > 0x7F)
            );
        }
    }

    /// Fills `t`, a table of shard 3 of 8, to `items` blocks, then churns
    /// it for `pairs` remove/insert pairs as an LRU cache would: the
    /// oldest block leaves, a new one — half from a dense scan, half
    /// scattered — arrives. Removals leave tombstones, so the table must
    /// rebuild over and over. Every in-place rehash must come at least
    /// `capacity / TOMBSTONE_SHARE` removals after the previous rebuild —
    /// a rebuild costs O(1) slots per removal, never O(capacity) per miss.
    /// Audits every 250,000 pairs and at the end. Returns the in-place
    /// rehashes and the doublings the churn made.
    fn churn_a_full_table(t: &mut BlockTable, items: usize, pairs: usize) -> (usize, usize) {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut scan = 0u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let local = if rng & 1 == 0 {
                scan += 1;
                scan
            } else {
                (1 << 40) + (rng >> 24)
            };
            BlockAddr(local * 8 + 3)
        };
        let mut resident = std::collections::VecDeque::with_capacity(items);
        while resident.len() < items {
            let lbn = next();
            if t.insert(lbn, entry(0)).is_none() {
                resident.push_back(lbn);
            }
        }
        let (mut rehashes, mut doublings, mut since) = (0, 0, 0);
        for pair in 1..=pairs {
            let lbn = loop {
                let lbn = next();
                if !t.contains(lbn) {
                    break lbn;
                }
            };
            let old = resident.pop_front().unwrap();
            assert!(t.remove(old).is_some());
            since += 1;
            let (cap, budget) = (t.map.capacity(), t.map.growth_left);
            t.insert(lbn, entry(0));
            resident.push_back(lbn);
            if t.map.capacity() != cap {
                doublings += 1;
                since = 0;
            } else if t.map.growth_left > budget {
                assert!(
                    since >= cap / TOMBSTONE_SHARE,
                    "pair {pair}: a rehash of {cap} slots {since} removals after the last"
                );
                rehashes += 1;
                since = 0;
            }
            if pair % 250_000 == 0 {
                t.audit().unwrap();
            }
        }
        t.audit().unwrap();
        assert_eq!(t.len(), items);
        assert!(resident.iter().all(|&lbn| t.contains(lbn)));
        (rehashes, doublings)
    }

    #[test]
    #[ignore = "1M remove/insert pairs: run in release"]
    fn a_full_block_table_keeps_its_slots_over_a_million_pairs() {
        // 3,328 blocks: 13/16 of 4,096 slots, the fullest a pre-sized
        // table gets and the least slack a rehash in place has. Every
        // rebuild must be in place, and rare.
        const ITEMS: usize = 3_328;
        const PAIRS: usize = 1_000_000;
        let mut t = BlockTable::with_capacity(ITEMS, 8);
        let (cap, slots) = (t.map.capacity(), t.map.slots.as_ptr());
        assert_eq!(cap, 4_096);
        let (rehashes, doublings) = churn_a_full_table(&mut t, ITEMS, PAIRS);
        assert_eq!(doublings, 0, "a full table doubled");
        assert_eq!(t.map.slots.as_ptr(), slots, "a full table reallocated");
        assert!(rehashes > 0, "the churn never rebuilt the table");
        assert!(rehashes <= PAIRS / (cap / TOMBSTONE_SHARE));
    }

    #[test]
    fn a_table_filled_past_13_16_grows_once_instead_of_rehashing_every_miss() {
        // 3,584 blocks are 7/8 of 4,096 slots. Pre-sized, the table takes
        // 8,192 slots and never grows. Grown from empty, it reaches 4,096
        // slots with no growth budget left: a rehash in place there would
        // free no slot and rerun on the next miss, so the first rebuild
        // doubles it instead, and the rest are in place and rare.
        const ITEMS: usize = 3_584;
        const PAIRS: usize = 20_000;
        let mut sized = BlockTable::with_capacity(ITEMS, 8);
        assert_eq!(sized.map.capacity(), 8_192);
        assert_eq!(churn_a_full_table(&mut sized, ITEMS, PAIRS).1, 0);
        assert_eq!(sized.map.capacity(), 8_192);
        let mut grown = BlockTable::with_capacity(0, 8);
        let (_, doublings) = churn_a_full_table(&mut grown, ITEMS, PAIRS);
        assert_eq!(doublings, 1);
        assert_eq!(grown.map.capacity(), 8_192);
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

    /// Checks `map` against `model` after an operation on `key`:
    /// `audit()` passes, and the length, every model entry and the
    /// absence of the key's neighbours on the same shard agree; for the
    /// key and its neighbours, `peek_home` answers exactly when the entry
    /// sits at its home slot.
    fn assert_agrees<const G: u32>(
        map: &OpenMap<u64, G>,
        model: &HashMap<u64, u64>,
        key: u64,
        stride: usize,
    ) {
        map.audit().unwrap();
        assert_eq!(map.len(), model.len());
        for (&k, v) in model {
            assert_eq!(map.get(k), Some(v), "stride {stride}, groups {G}: key {k}");
        }
        let step = stride as u64;
        for k in [key, key.wrapping_add(step), key.wrapping_sub(step)] {
            assert_eq!(
                map.contains(k),
                model.contains_key(&k),
                "stride {stride}, groups {G}: key {k}"
            );
            let at_home = map.find(k) == Some(map.home(k));
            assert_eq!(
                map.peek_home(k),
                model.get(&k).filter(|_| at_home),
                "stride {stride}, groups {G}: key {k}"
            );
        }
    }

    /// Replays `(shape, small, is_remove, value)` operations on `map` and
    /// on a `HashMap` model. Each operation is preceded by a prefetch of
    /// its key, as a shard walk issues them; after each, the map must
    /// agree with the model ([`assert_agrees`]), across growth from the
    /// minimum capacity. At the end the iterator must visit exactly the
    /// model's pairs.
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
            assert_agrees(&map, &model, key, stride);
        }
        let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        seen.sort_unstable();
        let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    /// What a churn did: see [`churn_against_a_model`].
    #[derive(Default)]
    struct Churn {
        rehashes: usize,
        doublings: usize,
        /// Removals that left a tombstone since the last rebuild.
        tombstones: usize,
    }

    /// Fills `map` to `full` entries with keys of every shape, then
    /// churns it with `(kind, shape, pick)` operations that keep it
    /// there: a removal of a present key followed by an insertion of a
    /// new one, a replacement, a removal of an absent key, or a step
    /// between `full` and one entry less. After each map operation it
    /// must agree with a `HashMap` model ([`assert_agrees`]). Every
    /// in-place rehash must come at least `capacity / TOMBSTONE_SHARE`
    /// tombstone-leaving removals after the previous rebuild, so a
    /// rebuild costs O(1) slots per removal. Returns how many churn
    /// insertions rehashed in place and how many doubled the map.
    fn churn_against_a_model<const G: u32>(
        mut map: OpenMap<u64, G>,
        full: usize,
        ops: &[(u8, u8, u64)],
        base: u64,
        stride: usize,
    ) -> (usize, usize) {
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut counter = 0u64;
        let mut churn = Churn::default();
        let mut fresh = |shape: u8, model: &HashMap<u64, u64>| loop {
            counter += 1;
            let key = shaped_key(shape, counter, base, stride);
            if !model.contains_key(&key) {
                return key;
            }
        };
        let insert_fresh = |map: &mut OpenMap<u64, G>,
                            model: &mut HashMap<u64, u64>,
                            keys: &mut Vec<u64>,
                            churn: &mut Churn,
                            key| {
            let (cap, budget) = (map.capacity(), map.growth_left);
            assert_eq!(map.insert(key, key), model.insert(key, key));
            if map.capacity() != cap {
                churn.doublings += 1;
                churn.tombstones = 0;
            } else if map.growth_left > budget {
                assert!(
                    churn.tombstones >= cap / TOMBSTONE_SHARE,
                    "stride {stride}, groups {G}: a rehash of {cap} slots {} tombstones after the last",
                    churn.tombstones
                );
                churn.rehashes += 1;
                churn.tombstones = 0;
            }
            keys.push(key);
            assert_agrees(map, model, key, stride);
        };
        let remove_at = |map: &mut OpenMap<u64, G>,
                         model: &mut HashMap<u64, u64>,
                         keys: &mut Vec<u64>,
                         churn: &mut Churn,
                         pick: u64| {
            let key = keys.swap_remove(pick as usize % keys.len());
            let budget = map.growth_left;
            assert_eq!(map.remove(key), model.remove(&key));
            // An EMPTY gives its slot back to the budget; a tombstone
            // does not.
            churn.tombstones += usize::from(map.growth_left == budget);
            assert_agrees(map, model, key, stride);
        };
        for shape in (0..4).cycle().take(full) {
            let key = fresh(shape, &model);
            insert_fresh(&mut map, &mut model, &mut keys, &mut churn, key);
        }
        churn = Churn::default();
        for &(kind, shape, pick) in ops {
            let t = &mut churn;
            match kind % 4 {
                0 => {
                    remove_at(&mut map, &mut model, &mut keys, t, pick);
                    let key = fresh(shape, &model);
                    insert_fresh(&mut map, &mut model, &mut keys, t, key);
                }
                1 => {
                    let key = keys[pick as usize % keys.len()];
                    assert_eq!(map.insert(key, pick), model.insert(key, pick));
                    assert_agrees(&map, &model, key, stride);
                }
                2 => {
                    let key = fresh(shape, &model);
                    assert_eq!(map.remove(key), None);
                    assert_agrees(&map, &model, key, stride);
                }
                _ if keys.len() == full => remove_at(&mut map, &mut model, &mut keys, t, pick),
                _ => {
                    let key = fresh(shape, &model);
                    insert_fresh(&mut map, &mut model, &mut keys, t, key);
                }
            }
        }
        (churn.rehashes, churn.doublings)
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

        /// At 13/16 load — the fullest a map rehashes in place, and the
        /// fullest a pre-sized one gets — removals leave tombstones and
        /// insertions use up the growth budget, so the map rehashes in
        /// place again and again, never more often than one rehash per
        /// 1/16 of its slots in removals; it agrees with a `HashMap` model
        /// after every operation and never grows, plain and grouped with
        /// every stride (see `churn_against_a_model`).
        #[test]
        fn open_map_at_full_load_churns_in_place(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..1 << 20), 200..400),
            base in proptest::prelude::any::<u64>(),
        ) {
            for stride in STRIDES {
                let full = in_place_load(64);
                let grouped = OpenMap::<u64, BLOCK_GROUP_BITS>::strided(full, stride);
                let plain = OpenMap::<u64>::with_capacity(full);
                proptest::prelude::prop_assert_eq!((grouped.capacity(), plain.capacity()), (64, 64));
                let (a, grew_a) = churn_against_a_model(grouped, full, &ops, base, stride);
                let (b, grew_b) = churn_against_a_model(plain, full, &ops, base, stride);
                proptest::prelude::prop_assert_eq!((grew_a, grew_b), (0, 0), "stride {}", stride);
                proptest::prelude::prop_assert!(a + b > 0, "stride {}: no rehash", stride);
            }
        }

        /// A map grown from empty to 7/8 of its slots has no growth budget
        /// left, so the first churn insertion that needs an `EMPTY` slot
        /// doubles it rather than rehash in place; after that it churns
        /// as above. It agrees with a `HashMap` model after every
        /// operation, plain and grouped with every stride.
        #[test]
        fn open_map_at_seven_eighths_grows_once_then_churns(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..1 << 20), 200..400),
            base in proptest::prelude::any::<u64>(),
        ) {
            for stride in STRIDES {
                let full = max_load(64);
                let grouped = OpenMap::<u64, BLOCK_GROUP_BITS>::strided(0, stride);
                let plain = OpenMap::<u64>::new();
                let (_, grew_a) = churn_against_a_model(grouped, full, &ops, base, stride);
                let (_, grew_b) = churn_against_a_model(plain, full, &ops, base, stride);
                proptest::prelude::prop_assert!(grew_a <= 1 && grew_b <= 1, "stride {}", stride);
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
            const PAGE: u64 = 64 * PagedArray::<u64>::PAGE_LEN as u64;
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
                    (keys, t.residency.pages_in_use())
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
                    let ranges: BTreeSet<u64> = model.iter().map(|l| l / PAGE).collect();
                    prop_assert_eq!(t.residency.pages_in_use(), ranges.len(), "stride {}", stride);
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
                prop_assert_eq!(t.residency.pages_in_use(), 0, "stride {}: pages of an empty table", stride);
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
