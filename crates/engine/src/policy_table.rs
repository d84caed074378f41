//! The policy assignment table (Table 1, Rules 1–5).
//!
//! This is the storage-manager extension at the heart of hStorage-DB: given
//! the semantic information of a data request, it returns the QoS policy to
//! embed into the outgoing I/O request.
//!
//! | Request type | Priority | Rule |
//! |---|---|---|
//! | temporary data requests | 1 | Rule 3 |
//! | random requests | 2 … N−2 | Rules 2, 5 |
//! | sequential requests | N−1 (non-caching, non-eviction) | Rule 1 |
//! | TRIM to temporary data | N (non-caching, eviction) | Rule 3 |
//! | updates | write buffer | Rule 4 |

use crate::concurrency::ConcurrencyRegistry;
use crate::semantic::{AccessPattern, SemanticInfo};
use hstorage_storage::{PolicyConfig, QosPolicy, RequestClass};
use serde::{Deserialize, Serialize};

/// The policy assignment table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyAssignmentTable {
    config: PolicyConfig,
}

impl PolicyAssignmentTable {
    /// Creates a table for the given policy configuration.
    pub fn new(config: PolicyConfig) -> Self {
        config.validate().expect("invalid policy configuration");
        PolicyAssignmentTable { config }
    }

    /// The policy configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Assigns a QoS policy to a request with the given semantic
    /// information.
    ///
    /// * `registry` supplies the shared state used by Rule 5; pass the
    ///   executor's registry even for a single query — the registry falls
    ///   back to the query-local values when it has no entry.
    /// * `query_bounds` are the issuing query's own `(llow, lhigh)`.
    pub fn assign(
        &self,
        info: &SemanticInfo,
        registry: &ConcurrencyRegistry,
        query_bounds: (u32, u32),
    ) -> QosPolicy {
        match info.request_class() {
            // Rule 4: updates are absorbed by the write buffer.
            RequestClass::Update => QosPolicy::WriteBuffer,
            // Rule 3: temporary data lives at the highest priority during
            // its lifetime...
            RequestClass::TemporaryData => QosPolicy::priority(1),
            // ...and is demoted for immediate eviction at end of lifetime.
            RequestClass::TemporaryDataTrim => QosPolicy::NonCachingEviction,
            // Rule 1: sequential requests never pollute the cache.
            RequestClass::Sequential => QosPolicy::NonCachingNonEviction,
            // Rules 2 and 5: random requests get a priority derived from the
            // plan level of the lowest operator accessing the object, over
            // the global level bounds.
            RequestClass::Random => self.assign_random(info, registry, query_bounds).1,
        }
    }

    /// [`Self::assign`] for a random request, together with the registry
    /// generation the answer was read at: it holds for this `info` and
    /// `query_bounds` until [`ConcurrencyRegistry::generation`] moves on.
    pub fn assign_random(
        &self,
        info: &SemanticInfo,
        registry: &ConcurrencyRegistry,
        query_bounds: (u32, u32),
    ) -> (u64, QosPolicy) {
        debug_assert_eq!(info.pattern, AccessPattern::Random);
        let level = info.level.unwrap_or(query_bounds.0);
        let (generation, prio) =
            registry.random_priority_versioned(&self.config, info.oid, level, query_bounds);
        (generation, QosPolicy::Priority(prio))
    }
}

impl Default for PolicyAssignmentTable {
    fn default() -> Self {
        Self::new(PolicyConfig::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectId;
    use crate::semantic::ContentType;
    use hstorage_storage::CachePriority;

    fn table() -> PolicyAssignmentTable {
        PolicyAssignmentTable::default()
    }

    fn reg() -> ConcurrencyRegistry {
        ConcurrencyRegistry::new()
    }

    #[test]
    fn rule_1_sequential_requests() {
        let t = table();
        let info = SemanticInfo::sequential_scan(ObjectId(1), 0);
        assert_eq!(
            t.assign(&info, &reg(), (0, 0)),
            QosPolicy::NonCachingNonEviction
        );
    }

    #[test]
    fn rule_2_random_requests_by_level() {
        let t = table();
        let registry = reg();
        let low = SemanticInfo::random_access(ObjectId(1), ContentType::Index, 0);
        let high = SemanticInfo::random_access(ObjectId(2), ContentType::RegularTable, 2);
        assert_eq!(
            t.assign(&low, &registry, (0, 2)),
            QosPolicy::Priority(CachePriority(2))
        );
        assert_eq!(
            t.assign(&high, &registry, (0, 2)),
            QosPolicy::Priority(CachePriority(4))
        );
    }

    #[test]
    fn rule_3_temporary_data() {
        let t = table();
        let read = SemanticInfo::temporary(ObjectId(9), false);
        let write = SemanticInfo::temporary(ObjectId(9), true);
        let delete = SemanticInfo::temporary_delete(ObjectId(9));
        assert_eq!(t.assign(&read, &reg(), (0, 0)), QosPolicy::priority(1));
        assert_eq!(t.assign(&write, &reg(), (0, 0)), QosPolicy::priority(1));
        assert_eq!(
            t.assign(&delete, &reg(), (0, 0)),
            QosPolicy::NonCachingEviction
        );
    }

    #[test]
    fn rule_4_updates() {
        let t = table();
        let info = SemanticInfo::update(ObjectId(3));
        assert_eq!(t.assign(&info, &reg(), (0, 0)), QosPolicy::WriteBuffer);
    }

    #[test]
    fn rule_5_concurrent_queries_agree_on_shared_object() {
        use crate::plan::{Access, OperatorKind, PlanNode, PlanTree};

        let index_scan = |index: u32, table_oid: u32| {
            PlanNode::leaf(
                OperatorKind::IndexScan,
                Access::IndexScan {
                    index: ObjectId(index),
                    table: ObjectId(table_oid),
                    lookups: 10,
                    index_hot_fraction: 1.0,
                    table_hot_fraction: 1.0,
                },
            )
        };
        // Query A reaches table 1 at level 0; query B reaches the same
        // table from under a join, at level 1.
        let plan_a = PlanTree::new("A", index_scan(10, 1));
        let plan_b = PlanTree::new(
            "B",
            PlanNode::node(
                OperatorKind::HashJoin,
                Access::None,
                vec![index_scan(20, 3), index_scan(10, 1)],
            ),
        );

        let t = table();
        let registry = reg();
        let _ta = registry.register(&plan_a.profile());
        let _tb = registry.register(&plan_b.profile());

        // Rule 5: both queries' requests to table 1 carry the priority of
        // the *lowest* registered level (0), not each query's own level.
        let from_a = SemanticInfo::random_access(ObjectId(1), ContentType::RegularTable, 0);
        let from_b = SemanticInfo::random_access(ObjectId(1), ContentType::RegularTable, 1);
        let pa = t.assign(&from_a, &registry, (0, 0));
        let pb = t.assign(&from_b, &registry, (0, 1));
        assert_eq!(pa, pb);
        assert_eq!(pa, QosPolicy::Priority(CachePriority(2)));
    }

    #[test]
    fn function_1_assigns_one_priority_per_level() {
        // Paper default: range [n1, n2] = [2, 6], so with level bounds
        // (0, 4) we get Cprio = Lgap = 4 and p(i) = 2 + i exactly.
        let t = table();
        let registry = reg();
        for level in 0..=4u32 {
            let info =
                SemanticInfo::random_access(ObjectId(level + 1), ContentType::RegularTable, level);
            assert_eq!(
                t.assign(&info, &registry, (0, 4)),
                QosPolicy::Priority(CachePriority(2 + level as u8)),
                "level {level} must map to priority {}",
                2 + level
            );
        }
    }

    #[test]
    fn table_1_priority_layout() {
        // Reconstructs Table 1: temporary = 1, random ∈ [2, N−2],
        // sequential = N−1, TRIM = N, updates = write buffer.
        let t = table();
        let cfg = t.config();
        assert_eq!(cfg.random_range_high, 2);
        assert_eq!(cfg.random_range_low, cfg.total_priorities - 2);
        assert_eq!(
            cfg.resolve(QosPolicy::NonCachingNonEviction),
            CachePriority(cfg.total_priorities - 1)
        );
        assert_eq!(
            cfg.resolve(QosPolicy::NonCachingEviction),
            CachePriority(cfg.total_priorities)
        );
    }
}
