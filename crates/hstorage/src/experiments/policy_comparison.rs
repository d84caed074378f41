//! Policy-comparison experiment (not a figure of the paper, but its core
//! claim): the same cache engine — identical shards, devices, write-buffer
//! mechanism and submission pipeline — run under each selectable
//! replacement policy on a TPC-H mix, so the *only* variable is whether
//! the policy can use the semantic information requests carry.
//!
//! The mix interleaves the three access shapes the paper's single-query
//! experiments isolate — a sequential-dominated query (Q1), a
//! random-dominated query (Q9) and the temporary-data-dominated query
//! (Q18) — and then *re-runs* the random and temporary queries, all back
//! to back so cache contents carry over. The re-references are where
//! policies diverge: a caching-unaware baseline has let the Q1 scan and
//! the dead temporary blocks pollute the cache, while the semantic policy
//! kept the random working set resident and TRIMmed the temporary data at
//! end of lifetime. The paper's direction — semantic priority beats
//! caching-unaware LRU — is asserted by the fidelity gate via
//! [`PolicyComparisonReport::semantic_over_lru`].

use crate::report::format_table;
use crate::{SystemConfig, TpchSystem};
use hstorage_cache::{CachePolicyKind, StorageConfigKind};
use hstorage_tpch::{QueryId, TpchScale};
use std::fmt;

/// The query mix the policies compete on.
pub const QUERY_MIX: [QueryId; 5] = [
    QueryId::Q(1),
    QueryId::Q(9),
    QueryId::Q(18),
    QueryId::Q(9),
    QueryId::Q(18),
];

/// One policy's result over the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Which replacement policy drove the engine.
    pub policy: CachePolicyKind,
    /// Total simulated execution time of the mix in seconds.
    pub seconds: f64,
    /// Blocks accessed at the storage level.
    pub accessed_blocks: u64,
    /// Blocks served from the SSD cache.
    pub cache_hits: u64,
    /// Blocks written to the second-level (HDD) device — the write-back
    /// traffic CFLRU targets.
    pub hdd_blocks_written: u64,
}

impl PolicyRow {
    /// Overall cache hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.accessed_blocks == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.accessed_blocks as f64
        }
    }
}

/// Results of the policy-comparison experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparisonReport {
    /// One row per selectable policy, in [`CachePolicyKind::all`] order.
    pub rows: Vec<PolicyRow>,
}

/// Runs the query mix under every selectable cache policy.
pub fn run(scale: TpchScale) -> PolicyComparisonReport {
    let rows = CachePolicyKind::all()
        .into_iter()
        .map(|kind| {
            let config = SystemConfig {
                cache_policy: kind,
                ..SystemConfig::single_query(scale, StorageConfigKind::HStorageDb)
            };
            let mut system = TpchSystem::new(config);
            let stats = system.run_sequence(&QUERY_MIX);
            let seconds = stats.iter().map(|s| s.elapsed.as_secs_f64()).sum();
            let storage = system.storage_stats();
            let totals = storage.totals();
            PolicyRow {
                policy: kind,
                seconds,
                accessed_blocks: totals.accessed_blocks,
                cache_hits: totals.cache_hits,
                hdd_blocks_written: storage.hdd.map(|d| d.blocks_written).unwrap_or(0),
            }
        })
        .collect();
    PolicyComparisonReport { rows }
}

impl PolicyComparisonReport {
    /// The row for one policy.
    pub fn row(&self, policy: CachePolicyKind) -> Option<&PolicyRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Speedup of the semantic policy over `other` on the mix (> 1 means
    /// the semantic policy finished faster).
    pub fn semantic_over(&self, other: CachePolicyKind) -> Option<f64> {
        let semantic = self.row(CachePolicyKind::SemanticPriority)?.seconds;
        let other = self.row(other)?.seconds;
        Some(other / semantic)
    }

    /// The paper's headline direction: semantic priority vs plain LRU on
    /// the same engine.
    pub fn semantic_over_lru(&self) -> Option<f64> {
        self.semantic_over(CachePolicyKind::Lru)
    }
}

impl fmt::Display for PolicyComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mix: Vec<String> = QUERY_MIX.iter().map(|q| q.name()).collect();
        writeln!(
            f,
            "Policy comparison — one cache engine, four replacement policies, mix {}",
            mix.join("+")
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.label().to_string(),
                    format!("{:.3}", r.seconds),
                    r.accessed_blocks.to_string(),
                    r.cache_hits.to_string(),
                    format!("{:.1}%", r.hit_ratio() * 100.0),
                    r.hdd_blocks_written.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "policy",
                    "seconds",
                    "accessed blks",
                    "cache hits",
                    "hit ratio",
                    "hdd blks written"
                ],
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
    fn semantic_priority_beats_the_lru_baseline_on_the_mix() {
        let report = run(test_scale());
        assert_eq!(report.rows.len(), CachePolicyKind::all().len());
        // The paper's direction: semantic information wins on the same
        // engine, by a margin the fidelity gate's direction test sees.
        let speedup = report.semantic_over_lru().unwrap();
        assert!(speedup > 1.05, "semantic vs LRU speedup {speedup}");
        // And it wins against every caching-unaware baseline on this mix.
        for kind in [
            CachePolicyKind::cflru(),
            CachePolicyKind::two_q(),
            CachePolicyKind::Arc,
        ] {
            let s = report.semantic_over(kind).unwrap();
            assert!(s > 1.0, "semantic vs {kind} speedup {s}");
        }
        // All policies served the identical logical workload.
        let accessed = report.rows[0].accessed_blocks;
        assert!(accessed > 0);
        assert!(report.rows.iter().all(|r| r.accessed_blocks == accessed));
    }

    #[test]
    fn display_lists_every_policy() {
        let report = run(test_scale());
        let text = report.to_string();
        for kind in CachePolicyKind::all() {
            assert!(text.contains(kind.label()), "{kind}");
        }
    }
}
