//! Batch-vs-sequential equivalence of the vectored submission path.
//!
//! `StorageSystem::submit_batch` is contractually equivalent to submitting
//! the same requests one at a time: identical cache state (resident blocks,
//! per-class/per-priority counters, cache actions) for every storage
//! configuration. At device queue depth 1 the equivalence extends to the
//! *devices* — identical transfer counts and simulated service time; at
//! queue depth > 1 adjacent transfers merge, so only the per-device block
//! totals (the logical traffic) are preserved while request counts shrink
//! and service time drops.
//!
//! `StorageSystem::submit_each` promises more: it is exactly `submit` of
//! each request in order, so on the cache engine under every policy the
//! full statistics, the simulated time, the resident set and — with
//! journaling on — the journal records equal per-request submission's.

use hstorage_cache::{
    CacheEngine, CacheStats, JournalConfig, StorageConfig, StorageConfigKind, StorageSystem,
};
use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
use proptest::prelude::*;

mod common;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn read(start: u64, len: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(
            BlockRange::new(start, len),
            matches!(class, RequestClass::Sequential),
        ),
        class,
        policy,
    )
}

fn write(start: u64, len: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::write(BlockRange::new(start, len), false),
        class,
        policy,
    )
}

/// A deterministic trace covering every request class, multi-block requests
/// spanning shards, re-reads that hit, priority reallocation, bypasses and
/// buffered updates (which exercise the run-splitting of the batch path).
fn deterministic_trace() -> Vec<ClassifiedRequest> {
    let mut reqs = Vec::new();
    for round in 0..2u64 {
        for i in 0..200u64 {
            let prio = 2 + ((i + round) % 5) as u8;
            reqs.push(read(i, 1, RequestClass::Random, QosPolicy::priority(prio)));
        }
    }
    for i in 0..30u64 {
        reqs.push(read(
            1_000 + i * 16,
            16,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
    }
    reqs.push(read(
        0,
        400,
        RequestClass::Sequential,
        QosPolicy::NonCachingNonEviction,
    ));
    reqs.push(write(
        5_000,
        100,
        RequestClass::TemporaryData,
        QosPolicy::priority(1),
    ));
    reqs.push(read(
        5_000,
        100,
        RequestClass::TemporaryData,
        QosPolicy::priority(1),
    ));
    reqs.push(read(
        5_000,
        50,
        RequestClass::TemporaryDataTrim,
        QosPolicy::NonCachingEviction,
    ));
    for i in 0..30u64 {
        reqs.push(write(
            8_000 + i,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
    }
    reqs
}

/// The four storage configurations, the sharded hybrid variant, and the
/// cache engine under every matrix policy (unsharded *and* sharded) —
/// every policy must satisfy the same batch-vs-sequential contract as the
/// semantic default. The CI policy-matrix job focuses this list on one
/// policy via the `HSTORAGE_POLICY` env var (see `common::matrix_kinds`).
fn configurations() -> Vec<(String, StorageConfig)> {
    // Attached to every config: the non-engine kinds ignore it, and the
    // engine kinds must stay batch-vs-sequential equivalent with heat
    // tracking riding along (the CI migration leg sets it to `on`).
    let migration = common::matrix_migration();
    let base = move |kind| StorageConfig::new(kind, 4_096).with_migration(migration);
    let engine = |policy| base(StorageConfigKind::HStorageDb).with_cache_policy(policy);
    let mut configs = vec![
        ("hdd-only".to_string(), base(StorageConfigKind::HddOnly)),
        ("ssd-only".to_string(), base(StorageConfigKind::SsdOnly)),
        ("lru".to_string(), base(StorageConfigKind::Lru)),
        (
            "hybrid-unsharded".to_string(),
            base(StorageConfigKind::HStorageDb),
        ),
        (
            "hybrid-sharded".to_string(),
            base(StorageConfigKind::HStorageDb).with_shards(8),
        ),
    ];
    for kind in common::matrix_kinds() {
        // The semantic default is already covered byte-for-byte by the
        // hybrid-unsharded / hybrid-sharded entries above.
        if kind == hstorage_cache::CachePolicyKind::SemanticPriority {
            continue;
        }
        configs.push((format!("engine-{kind}"), engine(kind)));
        configs.push((
            format!("engine-{kind}-sharded"),
            engine(kind).with_shards(8),
        ));
    }
    configs
}

/// Replays `reqs` one at a time on a fresh build of `config`.
fn run_sequential(config: &StorageConfig, reqs: &[ClassifiedRequest]) -> Box<dyn StorageSystem> {
    let sys = config.build();
    for req in reqs {
        sys.submit(*req);
    }
    sys
}

/// Replays `reqs` in `batch`-sized vectored submissions on a fresh build.
fn run_batched(
    config: &StorageConfig,
    reqs: &[ClassifiedRequest],
    batch: usize,
) -> Box<dyn StorageSystem> {
    let sys = config.build();
    for chunk in reqs.chunks(batch) {
        sys.submit_batch(chunk.to_vec());
    }
    sys
}

/// Strips the device sub-stats, leaving only cache-level state.
fn cache_level(mut stats: CacheStats) -> CacheStats {
    stats.ssd = None;
    stats.hdd = None;
    stats
}

// ---------------------------------------------------------------------------
// Deterministic equivalence
// ---------------------------------------------------------------------------

#[test]
fn batched_submission_is_fully_identical_at_queue_depth_one() {
    let trace = deterministic_trace();
    for (name, config) in configurations() {
        for batch in [2usize, 7, 64, trace.len()] {
            let sequential = run_sequential(&config, &trace);
            let batched = run_batched(&config, &trace, batch);
            // Queue depth 1 (the default): everything matches, including
            // device transfer counts and the simulated clock.
            assert_eq!(batched.stats(), sequential.stats(), "{name} batch={batch}");
            assert_eq!(
                batched.resident_blocks(),
                sequential.resident_blocks(),
                "{name} batch={batch}"
            );
            assert_eq!(batched.now(), sequential.now(), "{name} batch={batch}");
        }
    }
}

#[test]
fn batched_submission_preserves_cache_state_under_queue_merging() {
    let trace = deterministic_trace();
    for (name, config) in configurations() {
        let config = config.with_queue_depth(8);
        let sequential = run_sequential(&config, &trace);
        let batched = run_batched(&config, &trace, 64);
        let seq_stats = sequential.stats();
        let batch_stats = batched.stats();
        // Cache-level behaviour — hits, allocations, evictions, bypasses,
        // per-class and per-priority accounting — is untouched by merging.
        assert_eq!(
            cache_level(batch_stats.clone()),
            cache_level(seq_stats.clone()),
            "{name}"
        );
        assert_eq!(
            batched.resident_blocks(),
            sequential.resident_blocks(),
            "{name}"
        );
        // The logical device traffic (block totals per device/direction) is
        // identical; merging may only reduce transfer counts and time.
        for (get, label) in [(&batch_stats.ssd, "ssd"), (&batch_stats.hdd, "hdd")] {
            let seq_dev = match label {
                "ssd" => &seq_stats.ssd,
                _ => &seq_stats.hdd,
            };
            match (get, seq_dev) {
                (Some(b), Some(s)) => {
                    assert_eq!(b.blocks_read, s.blocks_read, "{name} {label}");
                    assert_eq!(b.blocks_written, s.blocks_written, "{name} {label}");
                    assert!(
                        b.read_requests + b.write_requests <= s.read_requests + s.write_requests,
                        "{name} {label}: merging must not add transfers"
                    );
                }
                (None, None) => {}
                _ => panic!("{name} {label}: device stats presence differs"),
            }
        }
        assert!(
            batched.now() <= sequential.now(),
            "{name}: merging must not slow the device down"
        );
    }
}

#[test]
fn hybrid_queue_merging_actually_merges_scan_transfers() {
    // Guard against the merged path silently degenerating to the loop: a
    // pure scan batch at queue depth 8 must produce fewer, larger HDD
    // transfers and strictly less simulated time.
    let config = StorageConfig::new(StorageConfigKind::HStorageDb, 1_024).with_queue_depth(8);
    let scan: Vec<ClassifiedRequest> = (0..64u64)
        .map(|i| {
            read(
                i,
                1,
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
            )
        })
        .collect();
    let sequential = run_sequential(&config, &scan);
    let batched = run_batched(&config, &scan, 64);
    let b = batched.stats().hdd.expect("hybrid has an HDD");
    let s = sequential.stats().hdd.expect("hybrid has an HDD");
    assert_eq!(b.blocks_read, 64);
    assert_eq!(b.read_requests, 8, "64 adjacent reads at depth 8");
    assert_eq!(s.read_requests, 64);
    assert!(batched.now() < sequential.now());
}

// ---------------------------------------------------------------------------
// Property-based equivalence
// ---------------------------------------------------------------------------

/// An arbitrary request over a bounded address space (so sharded and
/// unsharded hybrids stay within every shard's capacity slice), including
/// write-buffer updates to exercise the batch run-splitting.
fn arb_request() -> impl Strategy<Value = ClassifiedRequest> {
    (0u64..400, 1u64..16, 0usize..5, any::<bool>()).prop_map(|(start, len, class, is_write)| {
        let (class, policy, sequential) = match class {
            0 => (
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
                true,
            ),
            1 => (RequestClass::Random, QosPolicy::priority(2), false),
            2 => (RequestClass::Random, QosPolicy::priority(5), false),
            3 => (RequestClass::TemporaryData, QosPolicy::priority(1), false),
            _ => (RequestClass::Update, QosPolicy::WriteBuffer, false),
        };
        let io = if is_write {
            IoRequest::write(BlockRange::new(start, len), sequential)
        } else {
            IoRequest::read(BlockRange::new(start, len), sequential)
        };
        ClassifiedRequest::new(io, class, policy)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On any bounded trace and any batch size, vectored submission at the
    /// default queue depth is observationally identical to per-request
    /// submission for all four storage configurations (and the sharded
    /// hybrid).
    #[test]
    fn batch_equivalence_holds_for_arbitrary_traces(
        reqs in prop::collection::vec(arb_request(), 1..120),
        batch in 1usize..40,
    ) {
        for (name, config) in configurations() {
            let sequential = run_sequential(&config, &reqs);
            let batched = run_batched(&config, &reqs, batch);
            prop_assert_eq!(batched.stats(), sequential.stats(), "{}", name);
            prop_assert_eq!(
                batched.resident_blocks(),
                sequential.resident_blocks(),
                "{}", name
            );
            prop_assert_eq!(batched.now(), sequential.now(), "{}", name);
        }
    }

    /// Queue merging never changes cache-level state or logical block
    /// totals, on any trace.
    #[test]
    fn queue_merging_preserves_cache_state_for_arbitrary_traces(
        reqs in prop::collection::vec(arb_request(), 1..120),
        batch in 2usize..40,
    ) {
        let config = StorageConfig::new(StorageConfigKind::HStorageDb, 4_096)
            .with_shards(8)
            .with_queue_depth(16);
        let sequential = run_sequential(&config, &reqs);
        let batched = run_batched(&config, &reqs, batch);
        prop_assert_eq!(
            cache_level(batched.stats()),
            cache_level(sequential.stats())
        );
        prop_assert_eq!(batched.resident_blocks(), sequential.resident_blocks());
        let b = batched.stats().hdd.expect("hybrid has an HDD");
        let s = sequential.stats().hdd.expect("hybrid has an HDD");
        prop_assert_eq!(b.blocks_read, s.blocks_read);
        prop_assert_eq!(b.blocks_written, s.blocks_written);
    }
}

// ---------------------------------------------------------------------------
// submit_each ≡ submit
// ---------------------------------------------------------------------------

/// The cache engine under every matrix policy on 1, 3 and 8 shards, small
/// enough for the traces below to evict and to overflow the write buffer.
fn each_configurations() -> Vec<(String, StorageConfig)> {
    let mut configs = Vec::new();
    for kind in common::matrix_kinds() {
        for shards in [1, 3, 8] {
            let config = StorageConfig::new(StorageConfigKind::HStorageDb, 192)
                .with_cache_policy(kind)
                .with_shards(shards)
                .with_migration(common::matrix_migration());
            configs.push((format!("{kind}, {shards} shards"), config));
        }
    }
    configs
}

/// The deterministic trace, then lone reads and writes over more
/// addresses than the cache holds, each read hit repeated exactly (the
/// repeat-hit fast path), write-buffer writes (the drain check) and
/// multi-block reads.
fn each_trace() -> Vec<ClassifiedRequest> {
    let mut reqs = deterministic_trace();
    for i in 0..900u64 {
        let lbn = (i * 7_919) % 400;
        let prio = QosPolicy::priority(2 + (i % 4) as u8);
        match i % 6 {
            0 | 1 => {
                // A read, a hit on it, and an exact repeat of the hit.
                let req = read(lbn, 1, RequestClass::Random, prio);
                reqs.extend([req; 3]);
            }
            2 => reqs.push(write(lbn, 1, RequestClass::Random, prio)),
            3 => reqs.push(write(
                9_000 + i % 60,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            )),
            4 => reqs.push(read(lbn, 5, RequestClass::Random, prio)),
            _ => reqs.push(read(lbn, 1, RequestClass::Random, prio)),
        }
    }
    reqs
}

/// Whether `submit_each` of `reqs` in slices of `slice` requests leaves an
/// engine built from `config` exactly as per-request `submit` does: the
/// full statistics, the simulated time, the resident set and, if the
/// engine journals, the journal. The `submit_each` engine must pass its
/// audit after every slice; the per-request twin, which replays the same
/// trace for every slicing, at the end.
fn check_each(
    config: &StorageConfig,
    reqs: &[ClassifiedRequest],
    slice: usize,
) -> Result<(), String> {
    let (each, one) = (CacheEngine::new(config), CacheEngine::new(config));
    for chunk in reqs.chunks(slice) {
        each.submit_each(chunk);
        each.audit()?;
    }
    for req in reqs {
        one.submit(*req);
    }
    one.audit()?;
    let differs = |what: &str| Err(format!("{what} differ(s) at slice {slice}"));
    if each.stats() != one.stats() {
        return differs("statistics");
    }
    if each.now() != one.now() {
        return differs("simulated time");
    }
    if each.resident_set() != one.resident_set() {
        return differs("resident set");
    }
    if each.journal_snapshot() != one.journal_snapshot() {
        return differs("journal records");
    }
    Ok(())
}

#[test]
fn submit_each_equals_per_request_submit() {
    let trace = each_trace();
    for (name, config) in each_configurations() {
        // Beyond 128 requests the engine's lookahead restarts; a slice of
        // the whole trace crosses that boundary many times.
        for slice in [1, 2, 17, 64, 128, 200, trace.len()] {
            check_each(&config, &trace, slice).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let journaled = config.with_journal(JournalConfig::on().with_commit_interval(3));
        for slice in [5, trace.len()] {
            check_each(&journaled, &trace, slice)
                .unwrap_or_else(|e| panic!("{name}, journaled: {e}"));
        }
    }
}

/// An arbitrary request, lone in two cases of three, each repeated one to
/// three times in a row so that read hits repeat exactly.
fn arb_each_requests() -> impl Strategy<Value = Vec<ClassifiedRequest>> {
    (arb_request(), 0u8..3, 1usize..4).prop_map(|(req, lone, repeats)| {
        let range = BlockRange::new(
            req.io.range.start,
            if lone > 0 { 1 } else { req.io.range.len },
        );
        let io = IoRequest { range, ..req.io };
        vec![ClassifiedRequest::new(io, req.class, req.policy); repeats]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On any trace and any slicing, `submit_each` equals per-request
    /// `submit` on every policy and shard count, with journaling off and
    /// on.
    #[test]
    fn submit_each_equals_submit_for_arbitrary_traces(
        runs in prop::collection::vec(arb_each_requests(), 1..150),
        slice in 1usize..160,
        journal in any::<bool>(),
    ) {
        let reqs: Vec<ClassifiedRequest> = runs.concat();
        for (name, config) in each_configurations() {
            let config = if journal {
                config.with_journal(JournalConfig::on())
            } else {
                config
            };
            let checked = check_each(&config, &reqs, slice);
            prop_assert!(checked.is_ok(), "{}: {:?}", name, checked);
        }
    }
}
