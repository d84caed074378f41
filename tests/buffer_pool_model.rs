//! Differential test of the DBMS buffer pool against a reference LRU at
//! the scale of a TPC-H run: accesses drawn over the object ranges of the
//! SF-`HSTORAGE_PROGRAM_SF` catalog (default 0.05; CI's release step runs
//! 1.0), with temporary files allocated, accessed and deleted in between.
//! The pool and a `BTreeMap` stamp-LRU of the same capacity (the paper's
//! ≈ 2 % of the data) must give the same answer on every access and drop
//! the same number of blocks on every temp-file deletion.

use hstorage_engine::{BufferPool, ObjectId, ObjectKind};
use hstorage_storage::{BlockAddr, BlockRange};
use hstorage_tpch::{TpchDatabase, TpchScale};
use std::collections::{BTreeMap, VecDeque};

/// An exact LRU kept as two ordered maps: address → stamp of last use,
/// and stamp → address, whose first entry is the LRU block.
struct StampLru {
    capacity: usize,
    clock: u64,
    stamps: BTreeMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
}

impl StampLru {
    fn new(capacity: u64) -> Self {
        StampLru {
            capacity: capacity as usize,
            clock: 0,
            stamps: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    fn access(&mut self, block: u64, cacheable: bool) -> bool {
        let hit = match self.stamps.get(&block) {
            Some(stamp) => {
                self.by_stamp.remove(stamp);
                true
            }
            None => false,
        };
        if !hit {
            if !cacheable || self.capacity == 0 {
                return false;
            }
            if self.stamps.len() == self.capacity {
                let (_, victim) = self.by_stamp.pop_first().expect("a full LRU is not empty");
                self.stamps.remove(&victim);
            }
        }
        self.clock += 1;
        self.stamps.insert(block, self.clock);
        self.by_stamp.insert(self.clock, block);
        hit
    }

    fn invalidate_range(&mut self, range: BlockRange) -> u64 {
        let dead: Vec<(u64, u64)> = self
            .stamps
            .range(range.start.0..range.end().0)
            .map(|(&block, &stamp)| (block, stamp))
            .collect();
        for (block, stamp) in &dead {
            self.stamps.remove(block);
            self.by_stamp.remove(stamp);
        }
        dead.len() as u64
    }
}

/// splitmix64: a fixed, seedable stream of decisions.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One block of `range`: three draws in four from its first 5 % (the hot
/// subset an index probe keeps returning to), the rest from all of it.
fn block_in(range: BlockRange, dice: &mut Dice) -> u64 {
    let span = if dice.below(4) == 0 {
        range.len
    } else {
        (range.len / 20).max(1)
    };
    range.start.0 + dice.below(span)
}

#[test]
fn pool_matches_a_stamp_lru_over_a_tpch_catalog() {
    let scale = std::env::var("HSTORAGE_PROGRAM_SF")
        .map(|v| v.parse().expect("HSTORAGE_PROGRAM_SF is a scale factor"))
        .unwrap_or(0.05);
    let mut catalog = TpchDatabase::build(TpchScale::new(scale)).catalog;
    let mut objects: Vec<BlockRange> = catalog
        .iter()
        .filter(|o| o.kind != ObjectKind::Temporary && !o.range.is_empty())
        .map(|o| o.range)
        .collect();
    objects.sort_by_key(|r| r.start);
    let capacity = (catalog.data_blocks() / 50).max(64);
    let largest_temp = (catalog.temp_region().len / 4).max(1);

    let mut pool = BufferPool::new(capacity);
    let mut model = StampLru::new(capacity);
    let mut dice = Dice(0x5EED_0B0F);
    let mut temps: VecDeque<ObjectId> = VecDeque::new();
    let (mut hits, mut dropped) = (0u64, 0u64);
    let accesses = 50_000 + (2_000_000.0 * scale) as u64;
    for i in 0..accesses {
        match dice.below(100) {
            // A temporary file is created, or the oldest one deleted.
            0 => temps.push_back(catalog.allocate_temp(1 + dice.below(largest_temp))),
            1 => {
                let Some(oid) = temps.pop_front() else {
                    continue;
                };
                let range = catalog.drop_temp(oid).expect("a live temp file").range;
                let gone = model.invalidate_range(range);
                assert_eq!(pool.invalidate_range(range), gone, "access {i}: {range}");
                dropped += gone;
            }
            roll => {
                // One access in eight goes to a live temp file, one in ten
                // is a non-caching (sequential) read.
                let range = match temps.len() {
                    n if n > 0 && roll % 8 == 0 => {
                        let oid = temps[dice.below(n as u64) as usize];
                        catalog.get(oid).expect("a live temp file").range
                    }
                    _ => objects[dice.below(objects.len() as u64) as usize],
                };
                let block = block_in(range, &mut dice);
                let cacheable = roll % 10 != 1;
                let hit = model.access(block, cacheable);
                assert_eq!(
                    pool.access(BlockAddr(block), cacheable),
                    hit,
                    "access {i}: block {block}"
                );
                hits += u64::from(hit);
            }
        }
    }
    assert_eq!(pool.hits(), hits);
    assert_eq!(pool.resident(), model.stamps.len() as u64);
    assert!(pool.resident() <= capacity);
    // The trace exercised what it is for: hits, misses, evictions and
    // deletions of resident temp blocks.
    assert!(hits > 0 && pool.misses() > capacity, "{hits} hits");
    assert!(dropped > 0, "no deletion dropped a resident block");
}
