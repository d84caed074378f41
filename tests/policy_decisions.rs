//! Decision fingerprint of every shipped policy: a seeded mix of
//! multi-block submits, batches, multi-range TRIMs, buffered writes,
//! repeat hits and migration pulses, with everything the engine reports
//! — `stats()`, `now()`, `resident_set()`, `migration_stats()` — folded
//! into an FNV-64 hash after every operation. The hash must equal the
//! constant recorded for the cell, so any refactor of the policies' or
//! the engine's data structures that moves a single decision, counter or
//! simulated nanosecond fails here, naming the cell. After every
//! operation the engine's `audit()` must also pass.
//!
//! Cells: every `CachePolicyKind` × {1, 8} shards × migration {off,
//! eager on}. `HSTORAGE_POLICY` narrows the policies and
//! `HSTORAGE_MIGRATION` (`on` / `off`) the migration leg, like the other
//! suites; unset, every cell runs.

use hstorage_cache::{
    CacheAction, CacheEngine, CachePolicyKind, CacheStats, MigrationConfig, StorageSystem,
};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, DeviceStats, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use std::time::Duration;

mod common;
use common::{request, Rng};

/// The recorded fingerprints: `(policy label, shards, migration on)`.
const EXPECTED: [(&str, usize, bool, u64); 24] = [
    ("semantic-priority", 1, false, 0xa588_5942_7b94_575c),
    ("semantic-priority", 1, true, 0x61ef_1410_5fc6_f5f3),
    ("semantic-priority", 8, false, 0x52b0_fe0a_9529_cdb1),
    ("semantic-priority", 8, true, 0xa613_1aa8_f1b7_7455),
    ("lru", 1, false, 0x51f0_72db_d24e_8659),
    ("lru", 1, true, 0xffc6_e1b6_6a2b_dd30),
    ("lru", 8, false, 0x03ef_e2d5_56aa_f410),
    ("lru", 8, true, 0x0169_85a6_0ffa_6ff5),
    ("cflru", 1, false, 0x40f1_03e0_90cb_cbaf),
    ("cflru", 1, true, 0xd547_199c_f486_e44f),
    ("cflru", 8, false, 0x8bfd_1aa0_06ff_ed9a),
    ("cflru", 8, true, 0xd5f8_ca07_6775_7288),
    ("2q", 1, false, 0x46d0_74bb_7497_1542),
    ("2q", 1, true, 0x1fdd_8e5f_6046_9a84),
    ("2q", 8, false, 0x8f11_846f_f701_f544),
    ("2q", 8, true, 0xbd2d_20cb_4517_a491),
    ("arc", 1, false, 0x60f7_9ad4_b9e6_6180),
    ("arc", 1, true, 0x01e8_bb9a_9b2b_9339),
    ("arc", 8, false, 0x89a3_fcd3_fc0f_b301),
    ("arc", 8, true, 0xca62_5abf_5083_defb),
    ("per-stream", 1, false, 0xe56a_9171_ba62_fafa),
    ("per-stream", 1, true, 0x146d_a12a_6009_6f0b),
    ("per-stream", 8, false, 0xa9b0_3986_25fb_1e41),
    ("per-stream", 8, true, 0x36ea_bbef_d7cd_dc4e),
];

/// Operations per cell.
const OPS: usize = 2_000;

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

    /// Folds the counters in the order the recorded hashes expect:
    /// classes by label, priorities ascending, actions by variant name,
    /// each skipped while zero.
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
        self.word(s.contention.lock_acquisitions);
        self.word(s.contention.fast_path_hits);
        self.device(&s.ssd);
        self.device(&s.hdd);
    }

    fn engine(&mut self, c: &CacheEngine) {
        self.stats(&c.stats());
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

fn trace(seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    (0..OPS)
        .map(|_| match rng.below(8) {
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
        })
        .collect()
}

/// The migration legs to run: the one `HSTORAGE_MIGRATION` names, or both.
fn migration_legs() -> Vec<bool> {
    if std::env::var_os(common::MIGRATION_ENV).is_some() {
        vec![common::matrix_migration().enabled]
    } else {
        vec![false, true]
    }
}

/// Runs the cell's trace, checking on the way out that it exercised what
/// the fingerprint is meant to pin.
fn fingerprint(kind: CachePolicyKind, shards: usize, migration: bool) -> u64 {
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
    let cell = format!("{kind}, {shards} shards, migration {migration}");
    let mut hash = Fnv::new();
    for (i, op) in trace(0xF1_4E_59_2A + shards as u64).into_iter().enumerate() {
        match op {
            Op::Submit(req) => c.submit(req),
            Op::Batch(reqs) => c.submit_batch(reqs),
            Op::Trim(ranges) => c.trim(&TrimCommand::new(ranges)),
            Op::Repeat(req) => (0..3).for_each(|_| c.submit(req)),
            Op::Pulse => {
                c.migrate_idle();
            }
        }
        hash.engine(&c);
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
    hash.0
}

#[test]
fn every_policy_decides_exactly_as_recorded() {
    let mut mismatches = Vec::new();
    for kind in common::matrix_kinds() {
        for shards in [1, 8] {
            for migration in migration_legs() {
                let got = fingerprint(kind, shards, migration);
                let want = EXPECTED
                    .iter()
                    .find(|(label, s, m, _)| {
                        *label == kind.label() && *s == shards && *m == migration
                    })
                    .map(|(.., h)| *h)
                    .expect("every cell has a recorded fingerprint");
                if got != want {
                    mismatches.push(format!(
                        "{kind}, {shards} shards, migration {migration}: {got:#018x} != {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
