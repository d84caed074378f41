//! Cache metadata (Section 5.2) on open-addressing hash tables.
//!
//! The storage system tracks cached blocks with a hash table keyed by the
//! logical block number. Each entry is `< lbn, (pbn, prio) >` in the paper;
//! [`CacheEntry`] additionally records the clean/dirty state that Section
//! 5.1 describes for valid blocks. The lookup sits on the submit path of
//! every shard, so the table is flat and cache-line-friendly:
//!
//! * power-of-two capacity with Fibonacci hashing (a single multiply and
//!   shift — no SipHash state, no per-lookup hasher construction);
//! * linear probing, so a probe touches consecutive slots of one dense
//!   array instead of chasing bucket pointers;
//! * backward-shift deletion instead of tombstones, so probe chains never
//!   grow from churn and the table needs no rehash-on-delete heuristics.
//!
//! [`OpenMap`] is the generic engine (`u64` keys, `Copy` values), and
//! [`BlockTable`] the shard-metadata wrapper whose slots colocate the
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
    /// Physical block number inside the SSD cache.
    pub pbn: u64,
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

/// Smallest table capacity ever allocated (slots, power of two).
const MIN_CAPACITY: usize = 8;

/// The node handle of a block whose policy keeps its own index (see the
/// [`CachePolicy`](crate::policy::CachePolicy#node-handles) docs).
pub const NO_NODE: u32 = u32::MAX;

/// A flat open-addressing hash map from `u64` keys to `Copy` values.
///
/// Linear probing over a power-of-two slot array, grown at 7/8 load;
/// deletions backward-shift the following probe chain, so the table never
/// holds tombstones and every lookup terminates at the first empty slot.
/// Iteration order is unspecified (slot order) — callers that need a
/// deterministic order must sort, exactly as with `std::HashMap`.
#[derive(Debug, Clone)]
pub struct OpenMap<V> {
    keys: Vec<u64>,
    values: Vec<V>,
    used: Vec<bool>,
    len: usize,
    /// `64 - log2(capacity)`: maps the 64-bit hash onto a slot index.
    shift: u32,
}

impl<V: Copy + Default> Default for OpenMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> OpenMap<V> {
    /// Creates an empty map with the minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty map pre-sized so `items` entries fit without
    /// growing (capacity is the next power of two above `items / (7/8)`).
    pub fn with_capacity(items: usize) -> Self {
        let cap = items
            .saturating_mul(8)
            .div_ceil(7)
            .max(MIN_CAPACITY)
            .next_power_of_two();
        OpenMap {
            keys: vec![0; cap],
            values: vec![V::default(); cap],
            used: vec![false; cap],
            len: 0,
            shift: 64 - cap.trailing_zeros(),
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
        self.keys.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.used[i] {
            if self.keys[i] == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.values[i])
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.values[i])
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
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            // At the load bound only a *new* key grows the table, so the
            // key is looked up first — and the growth happens before
            // placing, so the chain is walked against the final capacity.
            // Below the bound (the common case) the one walk serves both.
            if let Some(i) = self.find(key) {
                return (&mut self.values[i], false);
            }
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.used[i] {
            if self.keys[i] == key {
                return (&mut self.values[i], false);
            }
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.values[i] = make();
        self.used[i] = true;
        self.len += 1;
        (&mut self.values[i], true)
    }

    /// Removes `key`, returning its value if it was present. The probe
    /// chain behind the vacated slot is backward-shifted, so no tombstone
    /// is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let removed = self.values[i];
        let mask = self.keys.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.used[j] {
                break;
            }
            // Slot j's entry may backfill the hole at i only if its home
            // slot does not lie in the circular range (i, j] — i.e. the
            // entry's displacement from home spans the hole.
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home)) & mask >= (j.wrapping_sub(i)) & mask {
                self.keys[i] = self.keys[j];
                self.values[i] = self.values[j];
                i = j;
            }
        }
        self.used[i] = false;
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.used.iter_mut().for_each(|u| *u = false);
        self.len = 0;
    }

    /// Iterates all `(key, value)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> OpenMapIter<'_, V> {
        OpenMapIter { map: self, pos: 0 }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_values = std::mem::replace(&mut self.values, vec![V::default(); new_cap]);
        let old_used = std::mem::replace(&mut self.used, vec![false; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for (slot, was_used) in old_used.into_iter().enumerate() {
            if !was_used {
                continue;
            }
            let key = old_keys[slot];
            let mut i = self.home(key);
            while self.used[i] {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.values[i] = old_values[slot];
            self.used[i] = true;
        }
    }

    /// Asserts the open-addressing invariant the backward-shift deletion
    /// must preserve: walking from any entry's home slot to the slot it
    /// occupies crosses no empty slot (otherwise a lookup would terminate
    /// early and miss the entry).
    #[cfg(test)]
    fn assert_probe_invariant(&self) {
        let mask = self.keys.len() - 1;
        for slot in 0..self.keys.len() {
            if !self.used[slot] {
                continue;
            }
            let mut i = self.home(self.keys[slot]);
            while i != slot {
                assert!(
                    self.used[i],
                    "probe chain for key {} crosses empty slot {} before {}",
                    self.keys[slot], i, slot
                );
                i = (i + 1) & mask;
            }
        }
    }
}

/// Iterator over an [`OpenMap`]'s `(key, value)` pairs in slot order.
pub struct OpenMapIter<'a, V> {
    map: &'a OpenMap<V>,
    pos: usize,
}

impl<'a, V> Iterator for OpenMapIter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.map.keys.len() {
            let i = self.pos;
            self.pos += 1;
            if self.map.used[i] {
                return Some((self.map.keys[i], &self.map.values[i]));
            }
        }
        None
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
                pbn: 0,
                priority: CachePriority(0),
                state: BlockState::Clean,
            },
            node: NO_NODE,
        }
    }
}

/// The shard-metadata table `lbn → (CacheEntry, node)` on the flat
/// [`OpenMap`] engine. Iteration order is unspecified (every engine
/// consumer sorts or counts).
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    map: OpenMap<TableSlot>,
}

impl BlockTable {
    /// Creates an empty table with the minimum capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table pre-sized for `items` resident blocks.
    pub fn with_capacity(items: usize) -> Self {
        BlockTable {
            map: OpenMap::with_capacity(items),
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
    /// it existed. The probe only claims the slot; the caller's inlined
    /// copy then writes `slot` into it from registers. Handing `slot` to
    /// the out-of-line probe instead would spill it to the stack and
    /// reload it with one wide load the narrower stores cannot forward to.
    #[inline]
    pub fn insert(&mut self, lbn: BlockAddr, slot: TableSlot) -> Option<TableSlot> {
        let (at, fresh) = self.map.get_or_insert_with(lbn.0, TableSlot::default);
        let old = std::mem::replace(at, slot);
        (!fresh).then_some(old)
    }

    /// Removes a block, returning its slot.
    pub fn remove(&mut self, lbn: BlockAddr) -> Option<TableSlot> {
        self.map.remove(lbn.0)
    }

    /// Iterates all `(lbn, slot)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &TableSlot)> {
        self.map.iter().map(|(key, slot)| (BlockAddr(key), slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn entry(pbn: u64) -> TableSlot {
        entry_in(pbn, 2, false)
    }

    fn entry_in(pbn: u64, prio: u8, dirty: bool) -> TableSlot {
        TableSlot {
            entry: CacheEntry {
                pbn,
                priority: CachePriority(prio),
                state: if dirty {
                    BlockState::Dirty
                } else {
                    BlockState::Clean
                },
            },
            node: NO_NODE,
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut m = BlockTable::with_capacity(8);
        assert!(m.is_empty());
        m.insert(BlockAddr(5), entry_in(0, 2, false));
        assert!(m.contains(BlockAddr(5)));
        assert_eq!(m.get(BlockAddr(5)).unwrap().entry.pbn, 0);
        assert_eq!(m.len(), 1);
        let removed = m.remove(BlockAddr(5)).unwrap();
        assert_eq!(removed.entry.priority, CachePriority(2));
        assert!(m.is_empty());
    }

    #[test]
    fn dirty_count_tracks_state() {
        let dirty = |m: &BlockTable| m.iter().filter(|(_, s)| s.entry.is_dirty()).count();
        let mut m = BlockTable::with_capacity(8);
        m.insert(BlockAddr(1), entry_in(0, 1, true));
        m.insert(BlockAddr(2), entry_in(1, 1, false));
        m.insert(BlockAddr(3), entry_in(2, 3, true));
        assert_eq!(dirty(&m), 2);
        m.get_mut(BlockAddr(1)).unwrap().entry.state = BlockState::Clean;
        assert_eq!(dirty(&m), 1);
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let mut m = BlockTable::with_capacity(8);
        m.insert(BlockAddr(9), entry_in(10, 4, false));
        m.insert(BlockAddr(9), entry_in(11, 2, true));
        let e = m.get(BlockAddr(9)).unwrap().entry;
        assert_eq!(e.pbn, 11);
        assert_eq!(e.priority, CachePriority(2));
        assert!(e.is_dirty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_yields_every_entry_once() {
        // Pre-sized for 4, so the walk also crosses three growths.
        let mut m = BlockTable::with_capacity(4);
        for i in 0..50u64 {
            m.insert(BlockAddr(i), entry_in(i, 1, i % 2 == 0));
        }
        let mut pairs: Vec<(u64, u64)> = m.iter().map(|(lbn, s)| (lbn.0, s.entry.pbn)).collect();
        pairs.sort_unstable();
        let model: Vec<(u64, u64)> = (0..50u64).map(|i| (i, i)).collect();
        assert_eq!(pairs, model);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = BlockTable::new();
        assert!(t.is_empty());
        assert!(t.insert(BlockAddr(5), entry(50)).is_none());
        assert!(t.contains(BlockAddr(5)));
        assert_eq!(t.get(BlockAddr(5)).unwrap().entry.pbn, 50);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(BlockAddr(5)).unwrap().entry.pbn, 50);
        assert!(t.is_empty());
        assert!(t.remove(BlockAddr(5)).is_none());
    }

    #[test]
    fn replace_keeps_the_node_hint() {
        let mut t = BlockTable::new();
        t.insert(BlockAddr(9), entry(1));
        assert_eq!(t.get(BlockAddr(9)).unwrap().node, NO_NODE);
        t.get_mut(BlockAddr(9)).unwrap().node = 7;
        let old = t.insert(
            BlockAddr(9),
            TableSlot {
                node: 7,
                ..entry(2)
            },
        );
        assert_eq!(old.unwrap().entry.pbn, 1);
        let slot = t.get(BlockAddr(9)).unwrap();
        assert_eq!(
            (slot.entry.pbn, slot.node),
            (2, 7),
            "the slot is replaced whole"
        );
        assert!(t.get(BlockAddr(42)).is_none(), "absent block has no slot");
    }

    #[test]
    fn grows_past_the_load_factor_and_keeps_every_entry() {
        let mut t = BlockTable::new();
        for i in 0..1000u64 {
            t.insert(BlockAddr(i), entry(i * 10));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(BlockAddr(i)).unwrap().entry.pbn, i * 10, "lbn {i}");
        }
        t.map.assert_probe_invariant();
    }

    #[test]
    fn extreme_keys_are_legal() {
        // BlockAddr legitimately spans the full u64 range — the table has
        // no sentinel key, only occupancy flags.
        let mut t = BlockTable::new();
        t.insert(BlockAddr(0), entry(1));
        t.insert(BlockAddr(u64::MAX), entry(2));
        assert_eq!(t.get(BlockAddr(0)).unwrap().entry.pbn, 1);
        assert_eq!(t.get(BlockAddr(u64::MAX)).unwrap().entry.pbn, 2);
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

    impl OpenMap<u64> {
        fn map_invariant_and_all_present(&self, keys: &[u64]) {
            self.assert_probe_invariant();
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The open-addressing table agrees with a `HashMap` model on any
        /// insert/remove/lookup trace, and the backward-shift invariant —
        /// no probe chain ever crosses an empty slot — holds after every
        /// operation.
        #[test]
        fn open_map_matches_a_hash_map_model(
            ops in proptest::collection::vec(
                (0u64..48, proptest::prelude::any::<bool>(), 0u64..1000),
                1..400,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut map = OpenMap::<u64>::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (key, is_remove, value) in ops {
                if is_remove {
                    prop_assert_eq!(map.remove(key), model.remove(&key));
                } else {
                    prop_assert_eq!(map.insert(key, value), model.insert(key, value));
                }
                map.assert_probe_invariant();
                prop_assert_eq!(map.len(), model.len());
                for (&k, v) in &model {
                    prop_assert_eq!(map.get(k), Some(v));
                }
            }
            // The iterator visits exactly the model's pairs.
            let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
            seen.sort_unstable();
            let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
            expect.sort_unstable();
            prop_assert_eq!(seen, expect);
        }
    }
}
