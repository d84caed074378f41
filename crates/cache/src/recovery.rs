//! Crash recovery: replaying a [`JournalSnapshot`] into a fresh engine.
//!
//! The crash model is simple and brutal: at an arbitrary record offset
//! the machine dies, everything volatile (the whole [`CacheEngine`]) is
//! lost, and the journal prefix that reached the simulated persistent
//! device is all that survives ([`JournalSnapshot::crash_at`]).
//! [`recover`] rebuilds the pre-crash state by replaying the committed
//! batches of that prefix — in order, through the same [`StorageSystem`]
//! entry points that produced them — into a freshly built engine.
//!
//! # Convergence invariant
//!
//! Because the engine is deterministic end to end (simulated devices,
//! pure policy state, no wall-clock inputs), replaying the committed
//! operation prefix reproduces *exactly* the state a clean run of those
//! operations would have: resident set, clean/dirty bits, statistics,
//! simulated clock, write-buffer occupancy, migration counters and
//! learned heat. An uncommitted tail batch is discarded wholesale, so a
//! drain torn by the crash either never happened (commit missing) or
//! happened completely (commit present) — dirty write-buffer blocks are
//! durably on the HDD or cleanly lost, never half-debited.
//! [`verify_convergence`] checks the invariant between a recovered
//! engine and a clean twin.
//!
//! Recovery time is a first-class measurement: [`RecoveryOutcome`]
//! carries both the wall-clock replay time and the deterministic
//! simulated time the replayed traffic consumed.

use crate::engine::CacheEngine;
use crate::journal::{JournalOp, JournalRecord, JournalSnapshot};
use crate::system::StorageSystem;
use std::fmt;
use std::time::{Duration, Instant};

/// Why a journal image could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The engine handed to [`recover`] has already served traffic; a
    /// replay would layer the log on top of existing state.
    NotFresh(String),
    /// The record stream violates the framing grammar *before* its
    /// tail — e.g. an operation outside any batch, or a commit whose id
    /// does not match the open batch. (A well-formed prefix truncated
    /// anywhere is never corrupt: truncation only ever tears the tail.)
    Corrupt {
        /// Offset of the offending record.
        offset: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NotFresh(why) => write!(f, "recovery target is not fresh: {why}"),
            RecoveryError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at record {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The committed content of a journal image: what replay will apply,
/// and how much of the image it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// The committed operations, in log order.
    pub ops: Vec<JournalOp>,
    /// Number of committed batches.
    pub batches: u64,
    /// Records covered by committed batches (framing and notes
    /// included).
    pub records_committed: usize,
    /// Trailing records discarded as a torn (uncommitted) tail.
    pub records_discarded: usize,
}

impl ReplayPlan {
    /// Whether the image ended inside an uncommitted batch.
    pub fn torn_tail(&self) -> bool {
        self.records_discarded > 0
    }
}

/// What [`recover`] did, with recovery time as a measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Records in the recovered image.
    pub records_scanned: usize,
    /// Records covered by committed batches (the replayed span).
    pub records_replayed: usize,
    /// Records discarded as the torn tail.
    pub records_discarded: usize,
    /// Logical operations re-executed.
    pub ops_applied: usize,
    /// Committed batches replayed.
    pub batches_replayed: u64,
    /// Whether the image ended inside an uncommitted batch.
    pub torn_tail: bool,
    /// Wall-clock time the replay took (machine-dependent).
    pub replay_wall: Duration,
    /// Simulated device time the replayed traffic consumed
    /// (deterministic — the `sim: recovery` bench rows pin it).
    pub replay_sim: Duration,
    /// Blocks resident in the recovered cache.
    pub resident_blocks: u64,
    /// Write-buffer occupancy of the recovered cache.
    pub write_buffer_resident: u64,
}

/// Parses the framing of a journal image into the operations recovery
/// will apply. Strict everywhere except the tail: a trailing open batch
/// is the torn tail a crash legitimately leaves; any other grammar
/// violation is [`RecoveryError::Corrupt`].
pub fn replay_plan(snapshot: &JournalSnapshot) -> Result<ReplayPlan, RecoveryError> {
    let records = snapshot.records();
    let mut ops = Vec::new();
    let mut pending: Vec<JournalOp> = Vec::new();
    let mut open: Option<u64> = None;
    let mut batches = 0u64;
    let mut records_committed = 0usize;
    for (offset, record) in records.iter().enumerate() {
        match record {
            JournalRecord::BatchBegin { batch } => {
                if open.is_some() {
                    return Err(RecoveryError::Corrupt {
                        offset,
                        reason: format!("batch {batch} begins while another batch is open"),
                    });
                }
                open = Some(*batch);
                pending.clear();
            }
            JournalRecord::Op(op) => {
                if open.is_none() {
                    return Err(RecoveryError::Corrupt {
                        offset,
                        reason: "operation record outside any batch".to_string(),
                    });
                }
                pending.push(op.clone());
            }
            // Informational; legal anywhere, never replayed.
            JournalRecord::DrainNote { .. } => {}
            JournalRecord::BatchCommit { batch } => {
                if open != Some(*batch) {
                    return Err(RecoveryError::Corrupt {
                        offset,
                        reason: match open {
                            Some(id) => format!("commit of batch {batch} while batch {id} is open"),
                            None => format!("commit of batch {batch} with no batch open"),
                        },
                    });
                }
                ops.append(&mut pending);
                batches += 1;
                records_committed = offset + 1;
                open = None;
            }
        }
    }
    Ok(ReplayPlan {
        ops,
        batches,
        records_committed,
        records_discarded: records.len() - records_committed,
    })
}

/// Re-executes one journaled operation through the storage-system entry
/// point that originally produced it.
pub fn apply_op(system: &dyn StorageSystem, op: &JournalOp) {
    match op {
        JournalOp::Submit(req) => system.submit(*req),
        JournalOp::SubmitBatch(reqs) => system.submit_batch(reqs.clone()),
        JournalOp::Trim(cmd) => system.trim(cmd),
        JournalOp::MigrationPulse => {
            system.migrate_idle();
        }
        JournalOp::StatsReset => system.reset_stats(),
    }
}

/// Replays the committed prefix of `snapshot` into `fresh`, which must
/// be a just-built engine configured identically to the crashed one
/// (same policy, capacity, sharding, knobs — journaling included, so
/// that recovering a recovered engine's journal is the identity).
/// Returns the recovered engine and the measured outcome.
pub fn recover(
    snapshot: &JournalSnapshot,
    fresh: CacheEngine,
) -> Result<(CacheEngine, RecoveryOutcome), RecoveryError> {
    if fresh.now() != Duration::ZERO {
        return Err(RecoveryError::NotFresh(
            "its simulated clock has already advanced".to_string(),
        ));
    }
    if fresh.resident_blocks() != 0 {
        return Err(RecoveryError::NotFresh(
            "its cache already holds blocks".to_string(),
        ));
    }
    let plan = replay_plan(snapshot)?;
    let started = Instant::now();
    for op in &plan.ops {
        apply_op(&fresh, op);
    }
    let replay_wall = started.elapsed();
    let outcome = RecoveryOutcome {
        records_scanned: snapshot.len(),
        records_replayed: plan.records_committed,
        records_discarded: plan.records_discarded,
        ops_applied: plan.ops.len(),
        batches_replayed: plan.batches,
        torn_tail: plan.torn_tail(),
        replay_wall,
        replay_sim: fresh.now(),
        resident_blocks: fresh.resident_blocks(),
        write_buffer_resident: fresh.write_buffer_resident(),
    };
    Ok((fresh, outcome))
}

/// Deterministic seed → crash-point mapping (splitmix64), yielding an
/// offset in `0..=log_len`: 0 loses everything, `log_len` loses
/// nothing.
pub fn crash_offset(seed: u64, log_len: usize) -> usize {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % (log_len as u64 + 1)) as usize
}

/// Asserts the convergence invariant between a recovered engine and a
/// clean twin that executed the same committed operations: identical
/// simulated clock, statistics, resident set (priorities and dirty
/// bits included), write-buffer occupancy, migration counters and
/// learned heat. Returns every divergence found.
pub fn verify_convergence(recovered: &CacheEngine, clean: &CacheEngine) -> Result<(), Vec<String>> {
    let mut divergences = Vec::new();
    if recovered.now() != clean.now() {
        divergences.push(format!(
            "sim clock diverged: recovered {:?}, clean {:?}",
            recovered.now(),
            clean.now()
        ));
    }
    if recovered.stats() != clean.stats() {
        divergences.push("statistics diverged".to_string());
    }
    if recovered.resident_set() != clean.resident_set() {
        divergences.push(format!(
            "resident set diverged: recovered {} blocks, clean {} blocks",
            recovered.resident_set().len(),
            clean.resident_set().len()
        ));
    }
    if recovered.write_buffer_resident() != clean.write_buffer_resident() {
        divergences.push(format!(
            "write-buffer occupancy diverged: recovered {}, clean {}",
            recovered.write_buffer_resident(),
            clean.write_buffer_resident()
        ));
    }
    if recovered.migration_stats() != clean.migration_stats() {
        divergences.push("migration counters diverged".to_string());
    }
    if recovered.heat_snapshot() != clean.heat_snapshot() {
        divergences.push("learned heat diverged".to_string());
    }
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(divergences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StorageConfig, StorageConfigKind};
    use crate::journal::{JournalConfig, JournalRecord};
    use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};

    fn read(lbn: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(lbn, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    fn journaled_engine(capacity: u64) -> CacheEngine {
        CacheEngine::new(
            &StorageConfig::new(StorageConfigKind::HStorageDb, capacity)
                .with_journal(JournalConfig::on()),
        )
    }

    #[test]
    fn crash_offset_is_deterministic_and_in_range() {
        for seed in 0..100u64 {
            let a = crash_offset(seed, 37);
            let b = crash_offset(seed, 37);
            assert_eq!(a, b);
            assert!(a <= 37);
        }
        assert_eq!(crash_offset(7, 0), 0);
        // The mapping actually spreads over the range.
        let distinct: std::collections::HashSet<usize> =
            (0..100u64).map(|s| crash_offset(s, 1000)).collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    fn torn_tail_is_discarded_not_corrupt() {
        let snapshot = JournalSnapshot::from_records(vec![
            JournalRecord::BatchBegin { batch: 0 },
            JournalRecord::Op(crate::journal::JournalOp::Submit(read(1))),
            JournalRecord::BatchCommit { batch: 0 },
            JournalRecord::BatchBegin { batch: 1 },
            JournalRecord::Op(crate::journal::JournalOp::Submit(read(2))),
        ]);
        let plan = replay_plan(&snapshot).expect("well-formed prefix");
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.batches, 1);
        assert_eq!(plan.records_committed, 3);
        assert_eq!(plan.records_discarded, 2);
        assert!(plan.torn_tail());
    }

    #[test]
    fn framing_violations_are_corrupt() {
        let orphan_op = JournalSnapshot::from_records(vec![JournalRecord::Op(
            crate::journal::JournalOp::Submit(read(1)),
        )]);
        assert!(matches!(
            replay_plan(&orphan_op),
            Err(RecoveryError::Corrupt { offset: 0, .. })
        ));
        let mismatched_commit = JournalSnapshot::from_records(vec![
            JournalRecord::BatchBegin { batch: 0 },
            JournalRecord::BatchCommit { batch: 7 },
        ]);
        assert!(matches!(
            replay_plan(&mismatched_commit),
            Err(RecoveryError::Corrupt { offset: 1, .. })
        ));
        let nested_begin = JournalSnapshot::from_records(vec![
            JournalRecord::BatchBegin { batch: 0 },
            JournalRecord::BatchBegin { batch: 1 },
        ]);
        assert!(matches!(
            replay_plan(&nested_begin),
            Err(RecoveryError::Corrupt { offset: 1, .. })
        ));
    }

    #[test]
    fn recover_rejects_an_engine_that_served_traffic() {
        let used = journaled_engine(16);
        used.submit(read(1));
        let err = match recover(&JournalSnapshot::default(), used) {
            Err(err) => err,
            Ok(_) => panic!("recovery into a used engine must be rejected"),
        };
        assert!(matches!(err, RecoveryError::NotFresh(_)));
    }

    #[test]
    fn recover_replays_the_committed_prefix_exactly() {
        let original = journaled_engine(16);
        for lbn in 0..4 {
            original.submit(read(lbn));
        }
        let snapshot = original.journal_snapshot().expect("journal attached");
        // Tear the last batch: drop its commit record.
        let torn = snapshot.crash_at(snapshot.len() - 1);
        let (recovered, outcome) = recover(&torn, journaled_engine(16)).expect("recovers");
        assert_eq!(outcome.ops_applied, 3);
        assert_eq!(outcome.batches_replayed, 3);
        assert!(outcome.torn_tail);
        assert_eq!(outcome.resident_blocks, 3);
        // The clean twin: the same first three submits, never crashed.
        let clean = journaled_engine(16);
        for lbn in 0..3 {
            clean.submit(read(lbn));
        }
        verify_convergence(&recovered, &clean).expect("recovered state converges");
        assert_eq!(outcome.replay_sim, clean.now());
    }

    #[test]
    fn verify_convergence_reports_divergence() {
        let a = journaled_engine(16);
        a.submit(read(1));
        let b = journaled_engine(16);
        b.submit(read(2));
        let divergences = verify_convergence(&a, &b).unwrap_err();
        assert!(!divergences.is_empty());
    }
}
