//! A simulated persistent write-ahead journal for the cache engine.
//!
//! The engine is volatile: a crash mid-drain would tear cache metadata,
//! write-buffer accounting and migration state with no recovery story.
//! This module adds the durability half of that story as *command
//! logging* (logical WAL): instead of journaling every physical mutation,
//! the engine records the ordered stream of logical operations it was
//! asked to perform — submits, batch submits, TRIMs, migration pulses,
//! stats resets — framed into batches with explicit begin/commit records.
//! Because the engine is deterministic (simulated devices, pure policy
//! state), replaying the committed prefix of the log through a fresh
//! engine reproduces the exact pre-crash state: metadata, statistics,
//! device clocks and policy interior included. See [`crate::recovery`]
//! for the replay side and the convergence invariant.
//!
//! # Record format
//!
//! The log is an ordered sequence of [`JournalRecord`]s:
//!
//! ```text
//! BatchBegin { batch }        -- opens batch `batch`
//!   Op(Submit …)              -- one logical operation (WAL: appended
//!   Op(Trim …)                   *before* the engine executes it)
//!   DrainNote { shard, … }    -- informational: a write-buffer drain
//!                                happened inside this batch
//! BatchCommit { batch }       -- appended after every op in the batch
//!                                has fully executed
//! ```
//!
//! A crash is modelled as truncating the log at an arbitrary record
//! offset ([`JournalSnapshot::crash_at`]). Recovery replays only batches
//! whose commit record survived; a torn tail — an open batch whose
//! commit is missing — is discarded wholesale, which is exactly the
//! "dirty blocks durably on HDD or cleanly lost, never torn" invariant.
//!
//! # The knob
//!
//! [`JournalConfig`] follows the [`crate::migration::MigrationConfig`]
//! idiom: default **off**, in which case the engine carries no journal
//! at all and is bit-identical to an engine built without one. Enabled,
//! journaling is a pure observer of the submission stream — it appends
//! to an in-memory log under its own mutex and never touches the clock,
//! the devices or any cache decision.
//!
//! # Ordering under concurrency
//!
//! The journal mutex defines the authoritative serial order of logged
//! operations. Under concurrent submitters this order is *a* valid
//! linearisation but need not equal the interleaving the shards actually
//! executed, so byte-exact convergence of replayed statistics is
//! guaranteed for serially-driven engines (the crash suite and the
//! recovery experiment drive exactly that way).

use hstorage_storage::{ClassifiedRequest, TrimCommand};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Configuration of the write-ahead journal. Defaults to disabled, in
/// which case the engine behaves — bit for bit — as if the journal did
/// not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalConfig {
    /// Master switch. Disabled (the default), no journal is attached.
    pub enabled: bool,
    /// Group-commit width: how many logical operations a batch holds
    /// before its commit record is appended. `1` (the default) commits
    /// every operation individually; larger values model group commit,
    /// widening the window a crash can tear — everything in an
    /// uncommitted batch is discarded on recovery. Must be ≥ 1.
    pub commit_interval: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            enabled: false,
            commit_interval: 1,
        }
    }
}

impl JournalConfig {
    /// The default: journaling disabled.
    pub fn off() -> Self {
        JournalConfig::default()
    }

    /// Journaling enabled with per-operation commit.
    pub fn on() -> Self {
        JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        }
    }

    /// Sets the group-commit width (operations per batch).
    pub fn with_commit_interval(mut self, ops: u32) -> Self {
        self.commit_interval = ops;
        self
    }

    /// Validates the knob set.
    pub fn validate(&self) -> Result<(), String> {
        if self.commit_interval == 0 {
            return Err("journal commit_interval must be >= 1".to_string());
        }
        Ok(())
    }
}

/// One logical operation the engine performed, recorded verbatim so
/// replay can re-execute it through the same entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A single classified request ([`crate::StorageSystem::submit`]).
    Submit(ClassifiedRequest),
    /// A batched submission ([`crate::StorageSystem::submit_batch`]),
    /// kept as one record because the batched path merges adjacent
    /// device transfers — replaying it as individual submits would
    /// diverge from the original device timing.
    SubmitBatch(Vec<ClassifiedRequest>),
    /// A TRIM command ([`crate::StorageSystem::trim`]).
    Trim(TrimCommand),
    /// A tier-migration pulse ([`crate::StorageSystem::migrate_idle`]).
    /// Only logged while migration is enabled (disabled, the pulse is a
    /// no-op on both sides of a crash).
    MigrationPulse,
    /// A statistics reset ([`crate::StorageSystem::reset_stats`]).
    StatsReset,
}

/// One record of the simulated persistent log.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Opens batch `batch`. Batch ids are consecutive from 0.
    BatchBegin {
        /// The batch being opened.
        batch: u64,
    },
    /// A logical operation inside the currently open batch, appended
    /// *before* the engine executes it (write-ahead).
    Op(JournalOp),
    /// Informational marker: a write-buffer drain ran on `shard` while
    /// the enclosing batch was open. Never replayed (the operation that
    /// triggered the drain re-drains deterministically); it exists so
    /// fault-injection tests can position a crash inside the drain
    /// window — after the buffer was torn down but before the commit.
    DrainNote {
        /// Index of the shard whose buffer drained.
        shard: usize,
        /// Dirty blocks the drain wrote back to the HDD.
        dirty_blocks: u64,
    },
    /// Commits batch `batch`: every op it frames has fully executed.
    BatchCommit {
        /// The batch being committed.
        batch: u64,
    },
}

#[derive(Default)]
struct OpenBatch {
    id: u64,
    ops: u32,
}

#[derive(Default)]
struct JournalState {
    records: Vec<JournalRecord>,
    next_batch: u64,
    open: Option<OpenBatch>,
}

/// The in-memory stand-in for a persistent journal device. The engine
/// appends through the crate-internal `op_begin` / `op_end` pair;
/// everything else is observation.
pub struct Journal {
    config: JournalConfig,
    state: Mutex<JournalState>,
}

impl Journal {
    /// Creates an empty journal with the given (validated) knob set.
    pub fn new(config: JournalConfig) -> Self {
        config.validate().expect("invalid journal configuration");
        Journal {
            config,
            state: Mutex::new(JournalState::default()),
        }
    }

    /// The knob set in force.
    pub fn config(&self) -> JournalConfig {
        self.config
    }

    /// Appends `op` write-ahead: opens a batch if none is open, then
    /// records the operation. The engine calls this *before* executing
    /// the operation.
    pub(crate) fn op_begin(&self, op: JournalOp) {
        let mut state = self.state.lock();
        if state.open.is_none() {
            let id = state.next_batch;
            state.next_batch += 1;
            state.records.push(JournalRecord::BatchBegin { batch: id });
            state.open = Some(OpenBatch { id, ops: 0 });
        }
        state.records.push(JournalRecord::Op(op));
        state.open.as_mut().expect("batch opened above").ops += 1;
    }

    /// Marks the enclosing operation fully executed; commits the open
    /// batch once it holds `commit_interval` operations.
    pub(crate) fn op_end(&self) {
        let mut state = self.state.lock();
        let Some(open) = state.open.as_ref() else {
            return;
        };
        if open.ops >= self.config.commit_interval {
            let id = open.id;
            state.records.push(JournalRecord::BatchCommit { batch: id });
            state.open = None;
        }
    }

    /// Records a write-buffer drain that ran inside the open batch.
    pub(crate) fn note_drain(&self, shard: usize, dirty_blocks: u64) {
        self.state.lock().records.push(JournalRecord::DrainNote {
            shard,
            dirty_blocks,
        });
    }

    /// Commits any open batch regardless of the group-commit width (a
    /// clean shutdown).
    pub fn seal(&self) {
        let mut state = self.state.lock();
        if let Some(open) = state.open.take() {
            let id = open.id;
            state.records.push(JournalRecord::BatchCommit { batch: id });
        }
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the current log — the "persisted" image a crash would
    /// leave behind. An open batch appears exactly as far as it got.
    pub fn snapshot(&self) -> JournalSnapshot {
        JournalSnapshot {
            records: self.state.lock().records.clone(),
        }
    }
}

/// An immutable image of the journal, as recovered from the simulated
/// persistent device. [`JournalSnapshot::crash_at`] is the fault
/// injector: it truncates the image at an arbitrary record offset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalSnapshot {
    records: Vec<JournalRecord>,
}

impl JournalSnapshot {
    /// Wraps an explicit record sequence (tests).
    pub fn from_records(records: Vec<JournalRecord>) -> Self {
        JournalSnapshot { records }
    }

    /// The records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the image holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Simulates a crash after exactly `offset` records reached the
    /// persistent device: everything past the offset is lost. An
    /// `offset` at or beyond the current length keeps the whole image
    /// (the crash happened after the last append).
    pub fn crash_at(&self, offset: usize) -> JournalSnapshot {
        JournalSnapshot {
            records: self.records[..offset.min(self.records.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstorage_storage::{BlockRange, IoRequest, QosPolicy, RequestClass};

    fn op(lbn: u64) -> JournalOp {
        JournalOp::Submit(ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(lbn, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        ))
    }

    #[test]
    fn default_is_off_and_validates() {
        let config = JournalConfig::default();
        assert!(!config.enabled);
        assert_eq!(config.commit_interval, 1);
        assert!(config.validate().is_ok());
        assert!(JournalConfig::on().enabled);
        assert!(JournalConfig::on()
            .with_commit_interval(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn zero_commit_interval_is_rejected() {
        let config = JournalConfig {
            enabled: true,
            commit_interval: 0,
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn per_op_commit_frames_every_op_in_its_own_batch() {
        let journal = Journal::new(JournalConfig::on());
        journal.op_begin(op(1));
        journal.op_end();
        journal.op_begin(op(2));
        journal.op_end();
        let snap = journal.snapshot();
        assert_eq!(
            snap.records(),
            &[
                JournalRecord::BatchBegin { batch: 0 },
                JournalRecord::Op(op(1)),
                JournalRecord::BatchCommit { batch: 0 },
                JournalRecord::BatchBegin { batch: 1 },
                JournalRecord::Op(op(2)),
                JournalRecord::BatchCommit { batch: 1 },
            ]
        );
    }

    #[test]
    fn group_commit_holds_the_batch_open_until_the_interval() {
        let journal = Journal::new(JournalConfig::on().with_commit_interval(2));
        journal.op_begin(op(1));
        journal.op_end();
        // One op in a width-2 batch: still open.
        assert_eq!(journal.len(), 2);
        journal.op_begin(op(2));
        journal.op_end();
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.records().last(),
            Some(&JournalRecord::BatchCommit { batch: 0 })
        );
    }

    #[test]
    fn seal_commits_the_open_batch() {
        let journal = Journal::new(JournalConfig::on().with_commit_interval(10));
        journal.op_begin(op(1));
        journal.op_end();
        journal.seal();
        assert_eq!(
            journal.snapshot().records().last(),
            Some(&JournalRecord::BatchCommit { batch: 0 })
        );
        // Sealing with nothing open is a no-op.
        journal.seal();
        assert_eq!(journal.len(), 3);
    }

    #[test]
    fn drain_notes_land_inside_the_open_batch() {
        let journal = Journal::new(JournalConfig::on());
        journal.op_begin(op(1));
        journal.note_drain(0, 11);
        journal.op_end();
        assert_eq!(
            journal.snapshot().records(),
            &[
                JournalRecord::BatchBegin { batch: 0 },
                JournalRecord::Op(op(1)),
                JournalRecord::DrainNote {
                    shard: 0,
                    dirty_blocks: 11
                },
                JournalRecord::BatchCommit { batch: 0 },
            ]
        );
    }

    #[test]
    fn crash_at_truncates_and_clamps() {
        let journal = Journal::new(JournalConfig::on());
        journal.op_begin(op(1));
        journal.op_end();
        let snap = journal.snapshot();
        assert_eq!(snap.crash_at(0).len(), 0);
        assert_eq!(snap.crash_at(2).len(), 2);
        assert_eq!(snap.crash_at(999), snap);
    }
}
