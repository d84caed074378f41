//! Fault-injection suite for the write-ahead journal and crash recovery:
//! torn write-buffer drains, observer purity of journaling, and
//! proptests that recovery converges at every crash offset and is
//! idempotent — across the CI policy matrix (`HSTORAGE_POLICY`) and the
//! migration legs (`HSTORAGE_MIGRATION`).

use hstorage_cache::{
    apply_op, crash_offset, recover, replay_plan, verify_convergence, CacheAction, CacheEngine,
    CachePolicyKind, JournalConfig, JournalRecord, MigrationConfig, StorageSystem,
};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use proptest::prelude::*;

mod common;

fn build(kind: CachePolicyKind, migration: MigrationConfig, journal: JournalConfig) -> CacheEngine {
    CacheEngine::new(
        &common::hstorage(128, 1)
            .with_cache_policy(kind)
            .with_migration(migration)
            .with_journal(journal),
    )
}

/// An arbitrary classified request over a bounded address space.
fn arb_request() -> impl Strategy<Value = ClassifiedRequest> {
    (0u64..2_000, 1u64..32, 0usize..5, any::<bool>()).prop_map(|(start, len, class, write)| {
        let (class, policy, sequential) = match class {
            0 => (
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
                true,
            ),
            1 => (RequestClass::Random, QosPolicy::priority(2), false),
            2 => (RequestClass::Random, QosPolicy::priority(5), false),
            3 => (RequestClass::TemporaryData, QosPolicy::priority(1), true),
            _ => (RequestClass::Update, QosPolicy::WriteBuffer, false),
        };
        let io = if write {
            IoRequest::write(BlockRange::new(start, len), sequential)
        } else {
            IoRequest::read(BlockRange::new(start, len), sequential)
        };
        ClassifiedRequest::new(io, class, policy)
    })
}

/// Drives `requests` through every journaled entry point with a
/// deterministic mix: some requests go through `submit_batch`, TRIMs and
/// migration pulses are interleaved, and the counters reset once
/// mid-stream.
fn drive(sys: &CacheEngine, requests: &[ClassifiedRequest]) {
    let mut i = 0;
    let mut step = 0u64;
    while i < requests.len() {
        if step % 7 == 3 && i + 2 <= requests.len() {
            sys.submit_batch(requests[i..i + 2].to_vec());
            i += 2;
        } else {
            sys.submit(requests[i]);
            i += 1;
        }
        if step % 16 == 9 {
            sys.trim(&TrimCommand::single(BlockRange::new(
                (step * 13) % 512,
                8u64,
            )));
        }
        if step % 24 == 17 {
            sys.migrate_idle();
        }
        if step == 25 {
            sys.reset_stats();
        }
        step += 1;
    }
}

fn wb_write(lbn: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::write(BlockRange::new(lbn, 1), false),
        RequestClass::Update,
        QosPolicy::WriteBuffer,
    )
}

/// The torn-drain scenario of the crash model, deterministically: a
/// crash lands between the batch-begin of the drain-triggering write and
/// its commit. The whole batch is discarded, so the recovered engine
/// holds the pre-drain buffer intact — no half-applied debit in the
/// write-buffer accounting, no phantom flush.
#[test]
fn a_crash_inside_a_drain_batch_never_tears_the_write_buffer() {
    let fresh = || CacheEngine::new(&common::hstorage(100, 1).with_journal(JournalConfig::on()));
    let original = fresh();
    // Capacity 100 gives a 10-block write-buffer share: ten buffered
    // writes fill it, the eleventh overflows and drains.
    for lbn in 0..10u64 {
        original.submit(wb_write(lbn));
    }
    assert_eq!(original.write_buffer_resident(), 10);
    original.submit(wb_write(10));
    assert_eq!(original.write_buffer_resident(), 0);

    let snapshot = original.journal_snapshot().expect("journal attached");
    // The drain ran inside the eleventh write's batch, so its note is
    // the penultimate record — right before that batch's commit.
    assert!(
        matches!(
            snapshot.records()[snapshot.len() - 2],
            JournalRecord::DrainNote {
                dirty_blocks: 11,
                ..
            }
        ),
        "expected the drain note before the final commit"
    );

    // Crash after the drain note but before the commit: the batch is a
    // torn tail, discarded wholesale on recovery.
    let torn = snapshot.crash_at(snapshot.len() - 1);
    let (recovered, outcome) = recover(&torn, fresh()).expect("well-formed prefix");
    assert!(outcome.torn_tail);
    assert_eq!(recovered.audit(), Ok(()));
    assert_eq!(recovered.write_buffer_resident(), 10, "buffer torn");
    assert_eq!(recovered.stats().action(CacheAction::WriteBufferFlush), 0);
    let clean = CacheEngine::new(&common::hstorage(100, 1).with_journal(JournalConfig::off()));
    for lbn in 0..10u64 {
        clean.submit(wb_write(lbn));
    }
    verify_convergence(&recovered, &clean).expect("ten committed writes, drain cleanly lost");

    // The same crash anywhere else inside the open batch discards the
    // same tail.
    for offset in (snapshot.len() - 3)..snapshot.len() {
        let (r, _) = recover(&snapshot.crash_at(offset), fresh()).expect("well-formed prefix");
        assert_eq!(r.audit(), Ok(()), "offset {offset}");
        assert_eq!(r.write_buffer_resident(), 10, "offset {offset} tore");
    }

    // With the commit present, recovery replays the drain completely.
    let (full, _) = recover(&snapshot, fresh()).expect("well-formed log");
    assert_eq!(full.audit(), Ok(()));
    assert_eq!(full.write_buffer_resident(), 0);
    assert_eq!(full.stats().action(CacheAction::WriteBufferFlush), 11);
}

/// Journaling must be a pure observer: with the journal on, every
/// statistic, the simulated clock and the resident set are bit-identical
/// to the journal-off engine (the PR 9 baseline) under the same stream.
#[test]
fn journaling_never_perturbs_the_engine() {
    // A fixed deterministic stream mixing every request shape.
    let requests: Vec<ClassifiedRequest> = (0..300u64)
        .map(|i| match i % 5 {
            0 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new((i * 17) % 400, 4), true),
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
            ),
            1 | 2 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new((i * 31) % 200, 1), false),
                RequestClass::Random,
                QosPolicy::priority(2),
            ),
            3 => wb_write((i * 7) % 300),
            _ => ClassifiedRequest::new(
                IoRequest::write(BlockRange::new((i * 11) % 250, 2), false),
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ),
        })
        .collect();
    for kind in common::matrix_kinds() {
        let migration = common::matrix_migration();
        let journaled = build(kind, migration, JournalConfig::on().with_commit_interval(3));
        let bare = build(kind, migration, JournalConfig::off());
        drive(&journaled, &requests);
        drive(&bare, &requests);
        assert_eq!(journaled.now(), bare.now(), "{kind:?}: clock diverged");
        assert_eq!(journaled.stats(), bare.stats(), "{kind:?}: stats diverged");
        assert_eq!(
            journaled.resident_set(),
            bare.resident_set(),
            "{kind:?}: resident set diverged"
        );
        assert_eq!(
            journaled.write_buffer_resident(),
            bare.write_buffer_resident()
        );
        assert!(journaled.journal_len() > 0, "journal recorded nothing");
        assert_eq!(bare.journal_len(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for an arbitrary request stream and an
    /// arbitrary crash offset, recovery converges with a clean twin that
    /// executed exactly the committed operation prefix — across every
    /// policy in the matrix and both migration legs.
    #[test]
    fn recovery_converges_at_every_crash_offset(
        requests in prop::collection::vec(arb_request(), 1..60),
        seed in any::<u64>(),
        interval in 1u32..5,
    ) {
        let migration = common::matrix_migration();
        for kind in common::matrix_kinds() {
            let journal = JournalConfig::on().with_commit_interval(interval);
            let original = build(kind, migration, journal);
            drive(&original, &requests);
            let snapshot = original.journal_snapshot().expect("journal attached");
            let torn = snapshot.crash_at(crash_offset(seed, snapshot.len()));
            let (recovered, outcome) =
                recover(&torn, build(kind, migration, journal)).expect("well-formed prefix");
            prop_assert_eq!(recovered.audit(), Ok(()));
            prop_assert_eq!(outcome.records_scanned, torn.len());
            prop_assert_eq!(
                outcome.records_replayed + outcome.records_discarded,
                torn.len()
            );
            let clean = build(kind, migration, JournalConfig::off());
            let plan = replay_plan(&torn).expect("well-formed prefix");
            for op in &plan.ops {
                apply_op(&clean, op);
            }
            if let Err(divergences) = verify_convergence(&recovered, &clean) {
                prop_assert!(
                    false,
                    "recovery diverged for {:?} at offset {}: {:?}",
                    kind,
                    torn.len(),
                    divergences
                );
            }
        }
    }

    /// Recovery is idempotent: recovering the journal a recovered engine
    /// wrote reproduces the same engine and the same journal —
    /// `recover(recover(log)) == recover(log)`.
    #[test]
    fn recovery_is_idempotent(
        requests in prop::collection::vec(arb_request(), 1..60),
        seed in any::<u64>(),
        interval in 1u32..5,
    ) {
        let migration = common::matrix_migration();
        for kind in common::matrix_kinds() {
            let original = build(
                kind,
                migration,
                JournalConfig::on().with_commit_interval(interval),
            );
            drive(&original, &requests);
            let snapshot = original.journal_snapshot().expect("journal attached");
            let torn = snapshot.crash_at(crash_offset(seed, snapshot.len()));
            // Recover at per-op commit so the recovered journal's framing
            // is canonical regardless of the crashed engine's interval.
            let fresh = || build(kind, migration, JournalConfig::on());
            let (first, first_outcome) = recover(&torn, fresh()).expect("well-formed prefix");
            prop_assert_eq!(first.audit(), Ok(()));
            first.journal_seal();
            let replayed = first.journal_snapshot().expect("journal attached");
            let (second, second_outcome) =
                recover(&replayed, fresh()).expect("recovered journal is well-formed");
            prop_assert_eq!(second.audit(), Ok(()));
            prop_assert_eq!(second_outcome.ops_applied, first_outcome.ops_applied);
            if let Err(divergences) = verify_convergence(&second, &first) {
                prop_assert!(false, "double recovery diverged: {:?}", divergences);
            }
            second.journal_seal();
            prop_assert_eq!(
                second.journal_snapshot().expect("journal attached"),
                replayed
            );
        }
    }
}
