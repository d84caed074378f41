//! Tier migration under a phase-shifting workload: hit ratio and
//! per-device busy time with and without the background migration engine.
//!
//! The scenario is the paper's own Achilles heel made concrete. Selective
//! allocation/eviction places blocks by the QoS priority attached at
//! admission and never revisits the decision, so when the working set
//! shifts to data carrying a (numerically) lower priority, the incoming
//! blocks cannot displace the now-cold residents — `pop_victim` admits
//! only over victims of equal or lower value — and every access bypasses
//! to the HDD forever:
//!
//! * **phase A** fills the cache with a priority-2 set (several passes of
//!   random reads, so the set is both resident and warm);
//! * **phase B** abandons it and hammers a disjoint priority-3 set of the
//!   same size.
//!
//! Without migration, phase B is a permanent bypass storm: the hit ratio
//! collapses and the HDD carries the whole phase. With migration enabled
//! ([`MigrationConfig`]), the heat tracker watches the bypassing
//! accesses, idle rounds demote the decayed phase-A residents and promote
//! the observed-hot phase-B blocks, and the cache converges on the new
//! working set. The comparison is deterministic end to end (simulated
//! devices, fixed workload, fixed pulse cadence) — `bench_gate` pins both
//! sides as `sim:` rows, and the migration-off side must stay
//! bit-identical to an engine built without a migration engine at all.

use crate::report::format_table;
use hstorage_cache::{MigrationConfig, StorageConfig, StorageConfigKind};
use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
use std::fmt;
use std::time::Duration;

/// Cache capacity and per-phase working-set size, in blocks.
pub const BLOCKS: u64 = 256;
/// Block-address offset of the phase-B working set (disjoint from A).
pub const PHASE_B_OFFSET: u64 = 10_000;
/// Passes over the phase-A set (fills and warms the cache).
pub const PHASE_A_PASSES: usize = 4;
/// Passes over the phase-B set (the shifted working set).
pub const PHASE_B_PASSES: usize = 16;
/// Submissions between two migration pulses.
pub const PULSE_EVERY: usize = 64;

/// One side of the comparison: the workload run with one migration
/// setting.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRow {
    /// `"migration off"` or `"migration on"`.
    pub config: String,
    /// Overall cache hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
    /// Simulated SSD busy time in seconds.
    pub ssd_busy: f64,
    /// Simulated HDD busy time in seconds.
    pub hdd_busy: f64,
    /// Total simulated time of the run in seconds.
    pub seconds: f64,
    /// Blocks promoted HDD → SSD by migration rounds.
    pub promoted: u64,
    /// Blocks demoted SSD → HDD by migration rounds.
    pub demoted: u64,
    /// Migration rounds that ran.
    pub rounds: u64,
}

/// Results of the tier-migration experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The phase-shift workload without migration (the PR 7 baseline).
    pub off: MigrationRow,
    /// The same workload with the migration engine enabled.
    pub on: MigrationRow,
}

impl MigrationReport {
    /// Hit-ratio gain of migration-on over migration-off (> 1 means
    /// migration wins — the gated direction).
    pub fn hit_gain(&self) -> f64 {
        if self.off.hit_ratio == 0.0 {
            return f64::INFINITY;
        }
        self.on.hit_ratio / self.off.hit_ratio
    }

    /// HDD busy-time saving: off over on (> 1 means migration moved
    /// traffic off the disk — the gated direction).
    pub fn hdd_saving(&self) -> f64 {
        if self.on.hdd_busy == 0.0 {
            return f64::INFINITY;
        }
        self.off.hdd_busy / self.on.hdd_busy
    }
}

fn read(lbn: u64, prio: u8) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(lbn, 1), false),
        RequestClass::Random,
        QosPolicy::priority(prio),
    )
}

fn run_side(migration: MigrationConfig, label: &str) -> MigrationRow {
    let storage = StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS)
        .with_migration(migration)
        .build_shared();
    let mut since_pulse = 0usize;
    let mut submit = |req: ClassifiedRequest| {
        storage.submit(req);
        since_pulse += 1;
        if since_pulse == PULSE_EVERY {
            since_pulse = 0;
            storage.migrate_idle();
        }
    };
    // Phase A: a priority-2 set fills and warms the cache.
    for _ in 0..PHASE_A_PASSES {
        for lbn in 0..BLOCKS {
            submit(read(lbn, 2));
        }
    }
    // Phase B: the working set shifts to a disjoint priority-3 set that
    // selective eviction refuses to admit over the phase-A residents.
    for _ in 0..PHASE_B_PASSES {
        for lbn in PHASE_B_OFFSET..PHASE_B_OFFSET + BLOCKS {
            submit(read(lbn, 3));
        }
    }
    let stats = storage.stats();
    let totals = stats.totals();
    let migration = storage.migration_stats();
    MigrationRow {
        config: label.to_string(),
        hit_ratio: if totals.accessed_blocks == 0 {
            0.0
        } else {
            totals.cache_hits as f64 / totals.accessed_blocks as f64
        },
        ssd_busy: stats
            .ssd
            .as_ref()
            .map_or(0.0, |d| d.busy_time.as_secs_f64()),
        hdd_busy: stats
            .hdd
            .as_ref()
            .map_or(0.0, |d| d.busy_time.as_secs_f64()),
        seconds: storage.now().as_secs_f64(),
        promoted: migration.promoted,
        demoted: migration.demoted,
        rounds: migration.rounds,
    }
}

/// The migration knobs the enabled side runs with. The half-life is
/// doubled relative to the default (8 rounds = two passes at this pulse
/// cadence) so the shifted working set's heat survives across passes and
/// accumulates past the old residents' decaying heat, instead of being
/// forgotten every pass.
pub fn experiment_config() -> MigrationConfig {
    MigrationConfig::on()
        .with_half_life_rounds(8)
        .with_idle_threshold(Duration::from_micros(500))
}

/// Runs the phase-shift workload twice — migration off, then on — and
/// returns both rows. Fully deterministic: fixed workload, simulated
/// devices, fixed pulse cadence.
pub fn run() -> MigrationReport {
    MigrationReport {
        off: run_side(MigrationConfig::off(), "migration off"),
        on: run_side(experiment_config(), "migration on"),
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tier migration — phase-shifting workload ({PHASE_A_PASSES} passes prio-2, \
             {PHASE_B_PASSES} passes prio-3, {BLOCKS}-block cache)",
        )?;
        let rows: Vec<Vec<String>> = [&self.off, &self.on]
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{:.1}%", r.hit_ratio * 100.0),
                    format!("{:.3}", r.ssd_busy),
                    format!("{:.3}", r.hdd_busy),
                    format!("{:.3}", r.seconds),
                    r.promoted.to_string(),
                    r.demoted.to_string(),
                    r.rounds.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "config",
                    "hit ratio",
                    "ssd busy s",
                    "hdd busy s",
                    "total s",
                    "promoted",
                    "demoted",
                    "rounds"
                ],
                &rows
            )
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "hit-ratio gain (on/off): {:.2}x   hdd busy saving (off/on): {:.2}x",
            self.hit_gain(),
            self.hdd_saving()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_off_runs_no_rounds_and_moves_nothing() {
        let report = run();
        assert_eq!(report.off.rounds, 0);
        assert_eq!(report.off.promoted, 0);
        assert_eq!(report.off.demoted, 0);
    }

    #[test]
    fn migration_wins_the_phase_shift_on_both_gated_directions() {
        let report = run();
        assert!(report.on.rounds > 0, "pulses must have run rounds");
        assert!(report.on.promoted > 0, "the phase-B set must be promoted");
        assert!(report.on.demoted > 0, "the phase-A set must make room");
        assert!(
            report.hit_gain() > 1.0,
            "migration-on must beat migration-off on hit ratio ({:.3} vs {:.3})",
            report.on.hit_ratio,
            report.off.hit_ratio
        );
        assert!(
            report.hdd_saving() > 1.0,
            "migration must move phase-B traffic off the HDD ({:.3}s vs {:.3}s)",
            report.off.hdd_busy,
            report.on.hdd_busy
        );
    }

    #[test]
    fn the_comparison_is_deterministic() {
        assert_eq!(run(), run());
    }
}
