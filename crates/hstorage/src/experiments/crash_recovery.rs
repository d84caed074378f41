//! Crash consistency of the cache engine: fault-injected recovery from
//! the write-ahead journal, with recovery time as a measured quantity.
//!
//! The scenario exercises every journaled operation kind on one engine:
//! priority reads warm the cache and the heat tracker, write-buffer
//! bursts overflow the buffer so drains run (the torn-drain window the
//! journal's `DrainNote` records mark), TRIMs retire block ranges,
//! migration pulses run rounds, and a mid-workload stats reset checks
//! that learned heat survives counter resets on both sides of a crash.
//!
//! Fault injection then crashes the "persisted" journal image at a
//! deterministic spread of record offsets
//! ([`hstorage_cache::recovery::crash_offset`]) and recovers each
//! truncation into a fresh engine. Two convergence checks run:
//!
//! * **full log** — the recovered engine must match a *journal-off*
//!   engine driven through the identical workload, which proves the
//!   journal is a pure observer (journaling changed nothing) and that
//!   the log captured the op stream completely;
//! * **every crash point** — the recovered engine must match a clean
//!   twin that executed exactly the committed operation prefix, which
//!   proves truncation only ever tears whole batches — dirty
//!   write-buffer blocks are durably drained or cleanly lost, never
//!   half-applied.
//!
//! Everything except the wall-clock replay time is deterministic
//! (simulated devices, fixed workload, fixed seeds); `bench_gate` pins
//! the replayed-record count, the simulated replay time and the
//! blocks-recovered ratio as `sim: recovery` rows.

use crate::report::format_table;
use hstorage_cache::{
    apply_op, crash_offset, recover, replay_plan, verify_convergence, CacheEngine, JournalConfig,
    MigrationConfig, StorageConfig, StorageConfigKind, StorageSystem,
};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use std::fmt;
use std::time::Duration;

/// Cache capacity in blocks (write-buffer share: one quarter).
pub const BLOCKS: u64 = 256;
/// Warm-up passes of priority reads over the cache-sized set.
pub const READ_PASSES: usize = 2;
/// Write-buffer burst rounds (each overflows the buffer, forcing drains).
pub const BURST_ROUNDS: u64 = 4;
/// Buffered writes per burst round.
pub const BURST_WRITES: u64 = 40;
/// Group-commit width of the journaled engine: wide enough that a crash
/// can tear several operations at once.
pub const COMMIT_INTERVAL: u32 = 4;
/// Crash points injected per run (seeds `0..CRASH_SEEDS`).
pub const CRASH_SEEDS: u64 = 48;
/// Seed of the torn gate row pinned by `bench_gate`.
pub const GATE_SEED: u64 = 42;

/// One recovered crash point.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// `"full log"` or `"seed-42 crash"`.
    pub label: String,
    /// Record offset the journal was truncated at.
    pub crash_offset: usize,
    /// Records covered by committed batches (the replayed span).
    pub records_replayed: usize,
    /// Trailing records discarded as the torn tail.
    pub records_discarded: usize,
    /// Logical operations re-executed.
    pub ops_applied: usize,
    /// Simulated device time the replay consumed, in seconds.
    pub replay_sim: f64,
    /// Blocks resident in the recovered cache.
    pub resident_blocks: u64,
    /// Whether the recovered engine converged with its clean twin.
    pub converged: bool,
}

/// Results of the crash-recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Records the full (sealed) journal holds.
    pub log_records: usize,
    /// Crash points injected.
    pub crash_points: u64,
    /// Crash points whose recovery converged with the clean twin.
    pub converged_points: u64,
    /// Recovery of the complete journal, verified against a journal-off
    /// clean run of the same workload.
    pub full: RecoveryRow,
    /// Recovery of the `GATE_SEED` truncation.
    pub torn: RecoveryRow,
    /// Resident blocks of the journal-off clean run.
    pub clean_resident: u64,
    /// Simulated seconds the journal-off clean run consumed.
    pub clean_seconds: f64,
    /// Wall-clock time the full-log replay took. Machine-dependent — the
    /// one non-deterministic measurement, excluded from equality.
    pub replay_wall: Duration,
}

/// Equality over the deterministic fields only: `replay_wall` is the one
/// machine-dependent measurement in the report.
impl PartialEq for RecoveryReport {
    fn eq(&self, other: &Self) -> bool {
        self.log_records == other.log_records
            && self.crash_points == other.crash_points
            && self.converged_points == other.converged_points
            && self.full == other.full
            && self.torn == other.torn
            && self.clean_resident == other.clean_resident
            && self.clean_seconds == other.clean_seconds
    }
}

impl RecoveryReport {
    /// Fraction of injected crash points that recovered into a
    /// convergent state (the gated invariant: must be 1.0).
    pub fn convergence_rate(&self) -> f64 {
        if self.crash_points == 0 {
            return 1.0;
        }
        self.converged_points as f64 / self.crash_points as f64
    }

    /// Resident blocks after full-log recovery over the clean run's
    /// (must be 1.0: nothing lost, nothing invented).
    pub fn blocks_recovered_ratio(&self) -> f64 {
        if self.clean_resident == 0 {
            return f64::INFINITY;
        }
        self.full.resident_blocks as f64 / self.clean_resident as f64
    }

    /// Simulated replay time of the full log over the clean run's
    /// simulated time (must be 1.0: replay re-executes the same
    /// traffic).
    pub fn sim_time_ratio(&self) -> f64 {
        if self.clean_seconds == 0.0 {
            return f64::INFINITY;
        }
        self.full.replay_sim / self.clean_seconds
    }
}

/// The migration knobs of the journaled engine: enabled with a small
/// idle gate so the workload's explicit pulses actually run rounds.
pub fn experiment_config() -> MigrationConfig {
    MigrationConfig::on().with_idle_threshold(Duration::from_micros(500))
}

fn build_engine(journal: JournalConfig) -> CacheEngine {
    CacheEngine::new(
        &StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS)
            .with_migration(experiment_config())
            .with_journal(journal),
    )
}

fn read(lbn: u64, prio: u8) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(lbn, 1), false),
        RequestClass::Random,
        QosPolicy::priority(prio),
    )
}

fn buffered_write(lbn: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::write(BlockRange::new(lbn, 1), false),
        RequestClass::Update,
        QosPolicy::WriteBuffer,
    )
}

/// Drives the fixed workload: warm reads, a stats reset, then
/// write-buffer bursts interleaved with TRIMs and migration pulses.
fn workload(engine: &CacheEngine) {
    for _ in 0..READ_PASSES {
        for lbn in 0..BLOCKS {
            engine.submit(read(lbn, 2));
        }
    }
    // Counters restart mid-run; learned heat must survive on both the
    // crashed and the clean side.
    engine.reset_stats();
    for round in 0..BURST_ROUNDS {
        let base = 10_000 + round * BURST_WRITES;
        for i in 0..BURST_WRITES {
            engine.submit(buffered_write(base + i));
        }
        engine.trim(&TrimCommand::new(vec![BlockRange::new(round * 8, 4u64)]));
        engine.migrate_idle();
    }
}

/// Crashes the journal image at `offset`, recovers it, and verifies the
/// result against a clean twin that executed the committed prefix.
fn inject(
    snapshot: &hstorage_cache::JournalSnapshot,
    offset: usize,
    label: &str,
) -> (RecoveryRow, Duration) {
    let torn = snapshot.crash_at(offset);
    let (recovered, outcome) =
        recover(&torn, build_engine(journal_config())).expect("truncated prefix is well-formed");
    let clean = build_engine(JournalConfig::off());
    let plan = replay_plan(&torn).expect("truncated prefix is well-formed");
    for op in &plan.ops {
        apply_op(&clean, op);
    }
    let converged = verify_convergence(&recovered, &clean).is_ok();
    (
        RecoveryRow {
            label: label.to_string(),
            crash_offset: offset,
            records_replayed: outcome.records_replayed,
            records_discarded: outcome.records_discarded,
            ops_applied: outcome.ops_applied,
            replay_sim: outcome.replay_sim.as_secs_f64(),
            resident_blocks: outcome.resident_blocks,
            converged,
        },
        outcome.replay_wall,
    )
}

/// The journal knobs of the crashed engine.
pub fn journal_config() -> JournalConfig {
    JournalConfig::on().with_commit_interval(COMMIT_INTERVAL)
}

/// Runs the workload on a journaled engine, injects `CRASH_SEEDS` crash
/// points plus the two gate points, and returns the report. Fully
/// deterministic apart from the wall-clock replay time.
pub fn run() -> RecoveryReport {
    let original = build_engine(journal_config());
    workload(&original);
    // Clean shutdown: the tail batch commits, so full-log recovery
    // replays every operation.
    original.journal_seal();
    let snapshot = original.journal_snapshot().expect("journal attached");
    let log_records = snapshot.len();

    let mut converged_points = 0u64;
    for seed in 0..CRASH_SEEDS {
        let (row, _) = inject(&snapshot, crash_offset(seed, log_records), "sweep");
        if row.converged {
            converged_points += 1;
        }
    }
    let (mut full, replay_wall) = inject(&snapshot, log_records, "full log");
    let (torn, _) = inject(
        &snapshot,
        crash_offset(GATE_SEED, log_records),
        "seed-42 crash",
    );

    // The full-log check is the strong one: the recovered engine must
    // match a *journal-off* engine driven through the workload itself,
    // proving journaling observed without interfering and the log
    // captured everything.
    let clean = build_engine(JournalConfig::off());
    workload(&clean);
    let (recovered, _) =
        recover(&snapshot, build_engine(journal_config())).expect("sealed log is well-formed");
    full.converged = verify_convergence(&recovered, &clean).is_ok();

    RecoveryReport {
        log_records,
        crash_points: CRASH_SEEDS,
        converged_points,
        full,
        torn,
        clean_resident: clean.resident_blocks(),
        clean_seconds: clean.now().as_secs_f64(),
        replay_wall,
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Crash recovery — {} journal records, {} injected crash points \
             ({} converged), clean run {:.3}s",
            self.log_records, self.crash_points, self.converged_points, self.clean_seconds,
        )?;
        let rows: Vec<Vec<String>> = [&self.full, &self.torn]
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.crash_offset.to_string(),
                    r.records_replayed.to_string(),
                    r.records_discarded.to_string(),
                    r.ops_applied.to_string(),
                    format!("{:.3}", r.replay_sim),
                    r.resident_blocks.to_string(),
                    if r.converged { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "crash point",
                    "offset",
                    "replayed",
                    "discarded",
                    "ops",
                    "replay sim s",
                    "resident",
                    "converged"
                ],
                &rows
            )
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "convergence rate: {:.2}   blocks recovered: {:.2}x   sim-time ratio: {:.2}x   \
             full replay wall: {:.3}ms",
            self.convergence_rate(),
            self.blocks_recovered_ratio(),
            self.sim_time_ratio(),
            self.replay_wall.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injected_crash_point_converges() {
        let report = run();
        assert_eq!(report.converged_points, report.crash_points);
        assert!(report.full.converged, "full-log recovery must converge");
        assert!(report.torn.converged, "gate-seed recovery must converge");
        assert_eq!(report.convergence_rate(), 1.0);
    }

    #[test]
    fn full_log_recovery_is_exact() {
        let report = run();
        assert_eq!(report.full.records_discarded, 0, "sealed log has no tail");
        assert_eq!(report.full.records_replayed, report.log_records);
        assert_eq!(report.blocks_recovered_ratio(), 1.0);
        assert_eq!(report.sim_time_ratio(), 1.0);
    }

    #[test]
    fn the_workload_exercises_drains_and_torn_tails() {
        let report = run();
        // The bursts overflow the write buffer, so the journal must
        // carry drain notes inside its batches.
        let original = build_engine(journal_config());
        workload(&original);
        let snapshot = original.journal_snapshot().expect("journal attached");
        let drains = snapshot
            .records()
            .iter()
            .filter(|r| matches!(r, hstorage_cache::JournalRecord::DrainNote { .. }))
            .count();
        assert!(drains > 0, "no write-buffer drain was journaled");
        // The gate-seed truncation lands mid-log.
        assert!(report.torn.crash_offset < report.log_records);
    }

    #[test]
    fn the_report_is_deterministic() {
        assert_eq!(run(), run());
    }
}
