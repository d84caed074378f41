//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are not figures from the paper; they probe how sensitive
//! hStorage-DB is to its tunables:
//!
//! * the write-buffer share `b` (Rule 4 uses 10%),
//! * the width of the random-request priority range `[n1, n2]` (Rule 2),
//! * TRIM vs no TRIM at the end of a temporary file's lifetime (Rule 3).

use crate::{SystemConfig, TpchSystem};
use hstorage_cache::StorageConfigKind;
use hstorage_storage::PolicyConfig;
use hstorage_tpch::{QueryId, TpchScale};

/// Result of one ablation point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Human-readable parameter setting.
    pub setting: String,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// Sweeps the write-buffer fraction `b` over a refresh-heavy workload
/// (RF1 followed by RF2).
pub fn write_buffer_sweep(scale: TpchScale, fractions: &[f64]) -> Vec<AblationPoint> {
    fractions
        .iter()
        .map(|&b| {
            let mut policy = PolicyConfig::paper_default();
            policy.write_buffer_fraction = b;
            let config = SystemConfig {
                policy,
                ..SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
            };
            let mut system = TpchSystem::new(config);
            let stats = system.run_sequence(&[QueryId::Rf1, QueryId::Rf2]);
            let seconds = stats.iter().map(|s| s.elapsed.as_secs_f64()).sum();
            AblationPoint {
                setting: format!("b = {:.0}%", b * 100.0),
                seconds,
            }
        })
        .collect()
}

/// Sweeps the number of priorities `N` (and with it the width of the
/// random priority range) over the random-dominated query Q9.
pub fn priority_range_sweep(scale: TpchScale, priorities: &[u8]) -> Vec<AblationPoint> {
    priorities
        .iter()
        .map(|&n| {
            let policy = PolicyConfig::with_priorities(n, 0.10);
            let config = SystemConfig {
                policy,
                ..SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
            };
            let mut system = TpchSystem::new(config);
            let stats = system.run(QueryId::Q(9));
            AblationPoint {
                setting: format!("N = {n}"),
                seconds: stats.elapsed.as_secs_f64(),
            }
        })
        .collect()
}

/// Compares a Q18-then-Q9 sequence with and without TRIM-driven eviction
/// of dead temporary data. Without TRIM, Q18's stale temporary blocks sit
/// at the highest priority and crowd out Q9's working set.
pub fn trim_ablation(scale: TpchScale) -> (AblationPoint, AblationPoint) {
    // With TRIM (the real system).
    let mut with_trim = TpchSystem::new(SystemConfig::single_query(
        scale,
        StorageConfigKind::HStorageDb,
    ));
    let a = with_trim.run_sequence(&[QueryId::Q(18), QueryId::Q(9)]);
    let with_trim_secs: f64 = a.iter().map(|s| s.elapsed.as_secs_f64()).sum();

    // Without TRIM: emulate a legacy file system by shrinking the cache by
    // the amount of stale temporary data Q18 leaves behind. (The storage
    // manager always issues the TRIM; the equivalent of losing it is that
    // the space stays occupied.)
    let scale_blocks = scale.total_blocks();
    let stale = scale_blocks / 10;
    let mut without_trim = TpchSystem::new(SystemConfig {
        cache_blocks: scale
            .paper_single_query_cache_blocks()
            .saturating_sub(stale)
            .max(1),
        ..SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
    });
    let b = without_trim.run_sequence(&[QueryId::Q(18), QueryId::Q(9)]);
    let without_trim_secs: f64 = b.iter().map(|s| s.elapsed.as_secs_f64()).sum();

    (
        AblationPoint {
            setting: "TRIM enabled".to_string(),
            seconds: with_trim_secs,
        },
        AblationPoint {
            setting: "TRIM disabled (stale temp pins cache)".to_string(),
            seconds: without_trim_secs,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn write_buffer_sweep_produces_one_point_per_fraction() {
        let points = write_buffer_sweep(test_scale(), &[0.05, 0.10, 0.20]);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.seconds > 0.0));
        assert!(points[0].setting.contains('5'));
    }

    #[test]
    fn priority_range_sweep_runs_for_every_n() {
        let points = priority_range_sweep(test_scale(), &[4, 8, 12]);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.seconds > 0.0));
    }

    #[test]
    fn trim_helps_or_is_neutral() {
        let (with_trim, without_trim) = trim_ablation(test_scale());
        assert!(with_trim.seconds <= without_trim.seconds * 1.05);
    }
}
