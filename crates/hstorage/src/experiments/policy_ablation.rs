//! Policy-knob ablation: how sensitive the tunable baselines are to their
//! knobs on the policy-comparison TPC-H mix.
//!
//! PR 4 hard-coded the 2Q fractions (`Kin` 25%, `Kout` 50%) and the CFLRU
//! clean-first window (25%); this experiment sweeps each knob over the
//! same query mix the policy comparison uses
//! ([`super::policy_comparison::QUERY_MIX`]) so the defaults stop being an
//! article of faith:
//!
//! * **CFLRU window** — a wider clean-first window finds more clean
//!   victims and so pays fewer dirty write-backs to the HDD (the gated
//!   direction), at some cost in hit ratio;
//! * **2Q `Kin`** — a larger probationary queue approaches plain FIFO
//!   behaviour and lets one-shot traffic crowd the hot queue; shrinking
//!   it must not lose hits on this mix (the gated direction);
//! * **2Q `Kout`** — a larger ghost directory remembers evictions longer,
//!   catching longer re-reference distances (reported, not gated: on this
//!   mix the re-reference distances are short enough that a small
//!   directory is already sufficient);
//! * **ARC** — reported alongside as the self-tuning reference point: the
//!   policy the sweeps motivate, because it needs none of these knobs.

use crate::experiments::policy_comparison::QUERY_MIX;
use crate::report::format_table;
use crate::{SystemConfig, TpchSystem};
use hstorage_cache::{CachePolicyKind, StorageConfigKind};
use hstorage_tpch::TpchScale;
use std::fmt;

/// One knob setting's result over the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobRow {
    /// The policy (with knobs) that produced the row, e.g.
    /// `2q(kin=10%,kout=50%)`.
    pub setting: String,
    /// Total simulated execution time of the mix in seconds.
    pub seconds: f64,
    /// Overall cache hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
    /// Blocks written to the second-level (HDD) device.
    pub hdd_blocks_written: u64,
}

/// Results of the policy-knob ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAblationReport {
    /// CFLRU clean-first window sweep, in ascending window order.
    pub cflru_window: Vec<KnobRow>,
    /// 2Q probationary-fraction sweep (`Kout` fixed at its default).
    pub two_q_kin: Vec<KnobRow>,
    /// 2Q ghost-fraction sweep (`Kin` fixed at its default).
    pub two_q_kout: Vec<KnobRow>,
    /// The self-tuning ARC reference row.
    pub arc: KnobRow,
}

fn run_mix(scale: TpchScale, kind: CachePolicyKind) -> KnobRow {
    let config = SystemConfig {
        cache_policy: kind,
        ..SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
    };
    let mut system = TpchSystem::new(config);
    let stats = system.run_sequence(&QUERY_MIX);
    let seconds = stats.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    let storage = system.storage_stats();
    let totals = storage.totals();
    KnobRow {
        setting: kind.describe(),
        seconds,
        hit_ratio: if totals.accessed_blocks == 0 {
            0.0
        } else {
            totals.cache_hits as f64 / totals.accessed_blocks as f64
        },
        hdd_blocks_written: storage.hdd.map(|d| d.blocks_written).unwrap_or(0),
    }
}

/// The swept CFLRU windows, in percent (first = narrowest, last = widest).
pub const CFLRU_WINDOWS: [u8; 3] = [5, 25, 75];
/// The swept 2Q `Kin` fractions, in percent.
pub const TWO_Q_KINS: [u8; 3] = [10, 25, 50];
/// The swept 2Q `Kout` fractions, in percent (first = smallest ghost
/// directory, last = largest).
pub const TWO_Q_KOUTS: [u8; 3] = [10, 50, 150];

/// Runs every sweep on the policy-comparison mix at `scale`. Both 2Q
/// sweeps pass through the default point (`kin` 25% / `kout` 50%), which
/// is simulated once and shared.
pub fn run(scale: TpchScale) -> PolicyAblationReport {
    let two_q_kin: Vec<KnobRow> = TWO_Q_KINS
        .iter()
        .map(|&kin_pct| {
            run_mix(
                scale,
                CachePolicyKind::TwoQ {
                    kin_pct,
                    kout_pct: 50,
                },
            )
        })
        .collect();
    let default_two_q = two_q_kin
        .iter()
        .find(|r| r.setting == CachePolicyKind::two_q().describe())
        .cloned();
    let two_q_kout = TWO_Q_KOUTS
        .iter()
        .map(|&kout_pct| match (kout_pct, &default_two_q) {
            (50, Some(row)) => row.clone(),
            _ => run_mix(
                scale,
                CachePolicyKind::TwoQ {
                    kin_pct: 25,
                    kout_pct,
                },
            ),
        })
        .collect();
    PolicyAblationReport {
        cflru_window: CFLRU_WINDOWS
            .iter()
            .map(|&window_pct| run_mix(scale, CachePolicyKind::Cflru { window_pct }))
            .collect(),
        two_q_kin,
        two_q_kout,
        arc: run_mix(scale, CachePolicyKind::Arc),
    }
}

impl PolicyAblationReport {
    /// Dirty write-backs saved by widening the CFLRU window: HDD blocks
    /// written at the narrowest window over the widest, add-one smoothed
    /// because a wide enough window routinely reaches **zero** dirty
    /// write-backs on this mix. The gated direction is ≥ 1 (a wider
    /// clean-first search must not *add* HDD write traffic).
    pub fn cflru_writeback_saving(&self) -> Option<f64> {
        let narrow = self.cflru_window.first()?.hdd_blocks_written;
        let wide = self.cflru_window.last()?.hdd_blocks_written;
        Some((narrow as f64 + 1.0) / (wide as f64 + 1.0))
    }

    /// Scan resistance of a small probationary queue: hit ratio at the
    /// smallest `Kin` over the largest. A large `A1in` approaches plain
    /// FIFO and lets the mix's scan and temp traffic crowd out `Am`, so
    /// the gated direction is ≥ 1 (shrinking probation must not lose
    /// hits).
    pub fn two_q_probation_payoff(&self) -> Option<f64> {
        let small = self.two_q_kin.first()?.hit_ratio;
        let large = self.two_q_kin.last()?.hit_ratio;
        if large == 0.0 {
            return None;
        }
        Some(small / large)
    }

    /// All rows in display order.
    fn all_rows(&self) -> Vec<&KnobRow> {
        self.cflru_window
            .iter()
            .chain(&self.two_q_kin)
            .chain(&self.two_q_kout)
            .chain(std::iter::once(&self.arc))
            .collect()
    }
}

impl fmt::Display for PolicyAblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mix: Vec<String> = QUERY_MIX.iter().map(|q| q.name()).collect();
        writeln!(
            f,
            "Policy knob ablation — CFLRU window / 2Q Kin / 2Q Kout sweeps on mix {}",
            mix.join("+")
        )?;
        let rows: Vec<Vec<String>> = self
            .all_rows()
            .iter()
            .map(|r| {
                vec![
                    r.setting.clone(),
                    format!("{:.3}", r.seconds),
                    format!("{:.1}%", r.hit_ratio * 100.0),
                    r.hdd_blocks_written.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &["setting", "seconds", "hit ratio", "hdd blks written"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn sweeps_cover_every_requested_setting() {
        let report = run(test_scale());
        assert_eq!(report.cflru_window.len(), CFLRU_WINDOWS.len());
        assert_eq!(report.two_q_kin.len(), TWO_Q_KINS.len());
        assert_eq!(report.two_q_kout.len(), TWO_Q_KOUTS.len());
        assert!(report.cflru_window[0].setting.contains("window=5%"));
        assert!(report.two_q_kin[0].setting.contains("kin=10%"));
        assert!(report.two_q_kout[2].setting.contains("kout=150%"));
        assert_eq!(report.arc.setting, "arc");
        // Every run served the same logical mix; the table text lists
        // every setting once.
        let text = report.to_string();
        for row in report.all_rows() {
            assert!(text.contains(&row.setting), "{}", row.setting);
        }
    }

    #[test]
    fn gated_directions_hold_at_test_scale() {
        let report = run(test_scale());
        let saving = report
            .cflru_writeback_saving()
            .expect("the window sweep ran");
        assert!(
            saving >= 0.95,
            "wider CFLRU window must not add write-backs (ratio {saving})"
        );
        let payoff = report.two_q_probation_payoff().expect("2Q hits exist");
        assert!(
            payoff >= 0.95,
            "a smaller 2Q probationary queue must not lose hits (ratio {payoff})"
        );
    }

    #[test]
    fn default_knob_rows_match_the_bare_policy_kinds() {
        // The middle points of the sweeps are the defaults, so a run under
        // the knob-free constructors must be identical — the proof that
        // the knob plumbing (unset) changed nothing.
        let scale = test_scale();
        let report = run(scale);
        let cflru_default = run_mix(scale, CachePolicyKind::cflru());
        let two_q_default = run_mix(scale, CachePolicyKind::two_q());
        assert_eq!(
            (
                report.cflru_window[1].seconds,
                report.cflru_window[1].hdd_blocks_written
            ),
            (cflru_default.seconds, cflru_default.hdd_blocks_written)
        );
        assert_eq!(
            (
                report.two_q_kin[1].seconds,
                report.two_q_kin[1].hdd_blocks_written
            ),
            (two_q_default.seconds, two_q_default.hdd_blocks_written)
        );
    }
}
