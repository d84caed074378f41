//! Decision fingerprint of every shipped policy: a seeded mix of
//! multi-block submits, batches, multi-range TRIMs, buffered writes,
//! repeat hits and migration pulses, with everything the engine decides
//! — `stats()` without its contention counters, `now()`,
//! `resident_set()`, `migration_stats()` — folded into an FNV-64 hash
//! after every operation. The hash must equal the constant recorded for
//! the cell, so any refactor of the policies' or the engine's data
//! structures that moves a single decision, counter or simulated
//! nanosecond fails here, naming the cell. What the decisions cost — the
//! contention counters `lock_acquisitions` and `fast_path_hits` — is
//! folded into a second hash per cell, pinned beside the first, so a
//! change to the locking re-records only that one. After every operation
//! the engine's `audit()` must also pass.
//!
//! Cells: every `CachePolicyKind` × {1, 8} shards × migration {off,
//! eager on}, plus, for the two policies that buffer writes, 1-shard
//! cells whose trace adds bursts of buffered writes that overfill the
//! shard's write buffer and drain it. `HSTORAGE_POLICY` narrows the
//! policies and `HSTORAGE_MIGRATION` (`on` / `off`) the migration leg,
//! like the other suites; unset, every cell runs.

use hstorage_cache::{
    CacheAction, CacheEngine, CachePolicyKind, CacheStats, MigrationConfig, StorageSystem,
};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, DeviceStats, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use std::time::Duration;

mod common;
use common::{request, Rng};

/// The recorded fingerprints: `(policy label, shards, migration on, write
/// bursts, decision hash, cost hash)`. One row a line, so it is kept out
/// of rustfmt's vertical layout.
#[rustfmt::skip]
const EXPECTED: [(&str, usize, bool, bool, u64, u64); 28] = [
    ("semantic-priority", 1, false, false, 0x5a68_a2f4_88ec_d136, 0x632e_3fe5_80dd_dcab),
    ("semantic-priority", 1, true,  false, 0x8965_c23b_ab7a_1203, 0x13e6_d38e_a2f8_2971),
    ("semantic-priority", 1, false, true,  0x1b66_3558_80a6_59c3, 0x0fb2_939e_2a3c_f5df),
    ("semantic-priority", 1, true,  true,  0x203d_d1a6_c7a0_9684, 0x65b0_9221_e1cd_0e5b),
    ("semantic-priority", 8, false, false, 0xae7b_344e_5294_2521, 0x6db2_8b44_7bc4_3bdd),
    ("semantic-priority", 8, true,  false, 0xeb7e_969f_d691_6ed8, 0xdcb2_1f2b_3cf6_3a5c),
    ("lru",               1, false, false, 0x0a37_884f_3573_8e28, 0x10f6_3acc_6ef5_9b90),
    ("lru",               1, true,  false, 0xaf7d_f32a_e051_793c, 0xc949_5950_2178_c80f),
    ("lru",               8, false, false, 0xcc49_ceeb_692d_e7c8, 0x811a_ae5d_867b_accb),
    ("lru",               8, true,  false, 0x0bdc_cdde_3647_3d34, 0xc2fa_8ac2_effd_c6e2),
    ("cflru",             1, false, false, 0x9969_91a2_8ad2_ece4, 0x568a_64e7_48d6_f406),
    ("cflru",             1, true,  false, 0xa613_522c_9cb6_ca17, 0x2e4e_fe12_14bc_afcf),
    ("cflru",             8, false, false, 0x5de3_dc56_a45a_7824, 0x41bd_0fb9_887b_ddbf),
    ("cflru",             8, true,  false, 0xed85_2e95_9c82_14fc, 0xeac5_0da8_344c_1bf3),
    ("2q",                1, false, false, 0xa225_8e77_a2f9_87ac, 0xcc51_9012_ba3d_2c2b),
    ("2q",                1, true,  false, 0xb7c0_6493_f3b7_5805, 0x9bdc_f390_34af_9a16),
    ("2q",                8, false, false, 0xa0e5_7197_50ed_91c5, 0x1432_5a62_2a3b_2698),
    ("2q",                8, true,  false, 0xa320_dffd_0c5b_9e41, 0x26df_e84e_505f_459f),
    ("arc",               1, false, false, 0x1324_dea2_4272_4326, 0xf5ee_8c8e_1c08_7653),
    ("arc",               1, true,  false, 0xf0a0_e1e0_2c5b_4118, 0x87e3_5772_59ea_fb7c),
    ("arc",               8, false, false, 0x9eda_eb99_37a7_caed, 0x9b22_9e90_51ee_dc61),
    ("arc",               8, true,  false, 0xdfcc_069f_0476_d7ce, 0x3751_9503_e894_c174),
    ("per-stream",        1, false, false, 0xb4be_abd8_6b11_b63c, 0xc7d4_f241_c0b6_bc93),
    ("per-stream",        1, true,  false, 0xcc65_c02d_1be1_9e4f, 0xda44_fdda_43af_3701),
    ("per-stream",        1, false, true,  0x1c7b_b0ce_b7ca_58ea, 0x784e_3f1c_884f_7ed1),
    ("per-stream",        1, true,  true,  0xa8d3_6a96_3de5_3f07, 0x706b_d04e_f85a_c4cb),
    ("per-stream",        8, false, false, 0x3767_4d07_6d7f_c817, 0xf46c_43c0_3110_3c13),
    ("per-stream",        8, true,  false, 0xba3d_3f06_7c54_9f68, 0x77f2_0fed_7f3d_71d3),
];

/// Operations per cell, before any write bursts.
const OPS: usize = 2_000;

/// A write-burst cell's trace adds a burst before every `BURST_EVERY`th
/// operation.
const BURST_EVERY: usize = 100;

/// Distinct single-block buffered writes per burst: more than the write
/// buffer of a 96-slot shard holds (a limit of 9), so every burst drains.
const BURST: u64 = 12;

/// FNV-1a over the little-endian bytes of every folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn duration(&mut self, d: Duration) {
        self.word(u64::try_from(d.as_nanos()).expect("simulated time fits in u64 ns"));
    }

    fn device(&mut self, d: &Option<DeviceStats>) {
        let d = d.as_ref().expect("the engine reports both devices");
        for w in [
            d.read_requests,
            d.write_requests,
            d.blocks_read,
            d.blocks_written,
            d.sequential_requests,
            d.random_requests,
        ] {
            self.word(w);
        }
        self.duration(d.busy_time);
    }

    /// Folds the decision counters in the order the recorded hashes
    /// expect: classes by label, priorities ascending, actions by variant
    /// name, each skipped while zero.
    fn stats(&mut self, s: &CacheStats) {
        let mut classes = RequestClass::all();
        classes.sort_by_key(|class| class.label());
        for class in classes {
            let c = s.class(class);
            if c.accessed_blocks > 0 {
                self.bytes(class.label().as_bytes());
                self.word(c.accessed_blocks);
                self.word(c.cache_hits);
            }
        }
        for prio in 0..=u8::MAX {
            let c = s.priority(prio);
            if c.accessed_blocks > 0 {
                self.word(u64::from(prio));
                self.word(c.accessed_blocks);
                self.word(c.cache_hits);
            }
        }
        let mut actions = CacheAction::ALL;
        actions.sort_by_key(|action| format!("{action:?}"));
        for action in actions {
            let n = s.action(action);
            if n > 0 {
                self.bytes(format!("{action:?}").as_bytes());
                self.word(n);
            }
        }
        self.word(s.resident_blocks);
        self.device(&s.ssd);
        self.device(&s.hdd);
    }

    /// Folds the engine's decisions; `s` is its `stats()`.
    fn engine(&mut self, c: &CacheEngine, s: &CacheStats) {
        self.stats(s);
        self.duration(c.now());
        for (lbn, prio, dirty) in c.resident_set() {
            self.word(lbn.0);
            self.word(u64::from(prio.0));
            self.word(u64::from(dirty));
        }
        let m = c.migration_stats();
        for w in [
            m.rounds,
            m.skipped_rounds,
            m.promoted,
            m.demoted,
            m.lazy_promotions,
            m.cancelled_demotions,
            m.trim_cancellations,
        ] {
            self.word(w);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Submit(ClassifiedRequest),
    Batch(Vec<ClassifiedRequest>),
    Trim(Vec<BlockRange>),
    /// The same single-block read three times: an allocation or hit, then
    /// repeats the optimistic path may serve.
    Repeat(ClassifiedRequest),
    Pulse,
}

/// The cell's operations: `OPS` drawn from `seed`, and with
/// `write_bursts` a burst of buffered writes, drawn from a stream of its
/// own, before every `BURST_EVERY`th of them.
fn trace(seed: u64, write_bursts: bool) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut burst_rng = Rng(!seed);
    let mut ops = Vec::new();
    for i in 0..OPS {
        if write_bursts && i % BURST_EVERY == 0 {
            let start = burst_rng.below(256 - BURST);
            ops.extend((start..start + BURST).map(|lbn| {
                Op::Submit(ClassifiedRequest::new(
                    IoRequest::write(BlockRange::new(lbn, 1), false),
                    RequestClass::Update,
                    QosPolicy::WriteBuffer,
                ))
            }));
        }
        ops.push(match rng.below(8) {
            0 => Op::Batch((0..1 + rng.below(12)).map(|_| request(&mut rng)).collect()),
            1 => Op::Trim(
                (0..rng.below(4))
                    .map(|_| BlockRange::new(rng.below(256), rng.below(48)))
                    .collect(),
            ),
            2 => Op::Repeat(ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(rng.below(256), 1), false),
                RequestClass::Random,
                QosPolicy::priority(2 + rng.below(3) as u8),
            )),
            3 => Op::Pulse,
            _ => Op::Submit(request(&mut rng)),
        });
    }
    ops
}

/// The migration legs to run: the one `HSTORAGE_MIGRATION` names, or both.
fn migration_legs() -> Vec<bool> {
    if std::env::var_os(common::MIGRATION_ENV).is_some() {
        vec![common::matrix_migration().enabled]
    } else {
        vec![false, true]
    }
}

/// Runs the trace of the cell named `cell`, checking on the way out that
/// it exercised what the fingerprint is meant to pin; returns the decision
/// and cost hashes.
fn fingerprint(
    cell: &str,
    kind: CachePolicyKind,
    shards: usize,
    migration: bool,
    write_bursts: bool,
) -> (u64, u64) {
    let config = if migration {
        MigrationConfig::on().with_idle_threshold(Duration::ZERO)
    } else {
        MigrationConfig::off()
    };
    let c = CacheEngine::new(
        &common::hstorage(96, shards)
            .with_cache_policy(kind)
            .with_migration(config),
    );
    let (mut decisions, mut costs) = (Fnv::new(), Fnv::new());
    let ops = trace(0xF1_4E_59_2A + shards as u64, write_bursts);
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Submit(req) => c.submit(req),
            Op::Batch(reqs) => c.submit_batch(reqs),
            Op::Trim(ranges) => c.trim(&TrimCommand::new(ranges)),
            Op::Repeat(req) => (0..3).for_each(|_| c.submit(req)),
            Op::Pulse => {
                c.migrate_idle();
            }
        }
        let stats = c.stats();
        decisions.engine(&c, &stats);
        costs.word(stats.contention.lock_acquisitions);
        costs.word(stats.contention.fast_path_hits);
        assert_eq!(c.audit(), Ok(()), "{cell}: after op {i}");
    }
    let (stats, moves) = (c.stats(), c.migration_stats());
    assert!(
        stats.action(CacheAction::Eviction) > 0,
        "{cell}: no eviction"
    );
    assert!(stats.action(CacheAction::Trim) > 0, "{cell}: no TRIM");
    assert!(stats.contention.fast_path_hits > 0, "{cell}: no repeat hit");
    assert_eq!(moves.migrated() > 0, migration, "{cell}: migration");
    if write_bursts {
        assert!(
            stats.action(CacheAction::WriteBufferFlush) > 0,
            "{cell}: no write-buffer drain"
        );
    }
    (decisions.0, costs.0)
}

#[test]
fn every_policy_decides_exactly_as_recorded() {
    let legs = migration_legs();
    let mut mismatches = Vec::new();
    for kind in common::matrix_kinds() {
        let cells: Vec<_> = EXPECTED
            .iter()
            .filter(|(label, _, migration, ..)| *label == kind.label() && legs.contains(migration))
            .collect();
        assert!(!cells.is_empty(), "{kind} has no recorded cell");
        for &(_, shards, migration, write_bursts, want_decisions, want_costs) in cells {
            let cell = format!(
                "{kind}, {shards} shards, migration {migration}, write bursts {write_bursts}"
            );
            let (decisions, costs) = fingerprint(&cell, kind, shards, migration, write_bursts);
            if decisions != want_decisions {
                mismatches.push(format!(
                    "{cell}: decisions {decisions:#018x} != {want_decisions:#018x}"
                ));
            }
            if costs != want_costs {
                mismatches.push(format!("{cell}: costs {costs:#018x} != {want_costs:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
