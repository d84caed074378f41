//! The paper's semantic, priority-driven policy (Section 5.1), expressed
//! behind the [`CachePolicy`] trait.

use crate::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason, WRITE_BUFFER_GROUP};
use crate::priority_group::PriorityGroups;
use hstorage_storage::{BlockAddr, CachePriority, PolicyConfig, QosPolicy};

/// Selective allocation and selective eviction over per-priority LRU
/// groups, driven by the caching priority each request carries:
///
/// * **admission** — only requests whose QoS policy admits and whose
///   resolved priority is below the non-caching threshold `t` may
///   allocate;
/// * **displacement** — when the shard is full, a new block is admitted
///   only if some resident block has an equal or lower priority, and the
///   victim is the least-recently-used block of the lowest-priority
///   non-empty group;
/// * **promotion** — a hit under a numbered priority (or the write buffer)
///   moves the block to that group; "non-caching and eviction" demotes it
///   to the evict-first group; "non-caching and non-eviction" leaves the
///   layout untouched.
///
/// This is the exact decision logic the pre-framework hybrid cache
/// hard-coded; the equivalence suites assert bit-identical statistics and
/// simulated device timing.
pub struct SemanticPriorityPolicy {
    config: PolicyConfig,
    groups: PriorityGroups,
}

impl SemanticPriorityPolicy {
    /// Creates the policy for one shard under the given `{N, t, b}`
    /// configuration.
    pub fn new(config: PolicyConfig) -> Self {
        SemanticPriorityPolicy {
            groups: PriorityGroups::new(config.total_priorities),
            config,
        }
    }
}

impl CachePolicy for SemanticPriorityPolicy {
    fn on_hit(
        &mut self,
        _lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        match req.qos {
            QosPolicy::NonCachingNonEviction => {
                // Does not affect the existing layout: no touch, no move.
                HitOutcome::Unchanged
            }
            QosPolicy::NonCachingEviction => {
                let target = self.config.non_caching_eviction();
                if current != target {
                    self.groups.reallocate(node, current, target);
                    HitOutcome::Moved(target)
                } else {
                    HitOutcome::Unchanged
                }
            }
            QosPolicy::Priority(_) | QosPolicy::WriteBuffer => {
                if current != req.prio {
                    self.groups.reallocate(node, current, req.prio);
                    HitOutcome::Moved(req.prio)
                } else {
                    self.groups.touch(node, req.prio);
                    HitOutcome::Unchanged
                }
            }
        }
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        req.qos.admits() && self.config.admissible(req.prio)
    }

    // "Non-caching and non-eviction" is refused by `admits` and takes the
    // `on_hit` branch that touches nothing.
    fn is_inert(&self, req: &PolicyRequest) -> bool {
        req.qos == QosPolicy::NonCachingNonEviction
    }

    // Every repeat outcome is a no-op: the non-caching QoS branches do
    // nothing at all, and the priority branches either re-allocate to the
    // group the first hit already moved the block into (so `current ==
    // req.prio` the second time, taking the touch branch) or re-touch the
    // group MRU the block already occupies.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        self.groups.prefetch(node, neighbours);
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        // Selective allocation: admit only if some resident block has an
        // equal or lower priority (a numerically >= priority value). The
        // victim stays in its group until the engine's Evict notification.
        let (victim, victim_prio) = self.groups.peek_victim()?;
        if victim_prio.0 >= req.prio.0 {
            Some(victim)
        } else {
            None
        }
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        (req.prio, self.groups.insert(lbn, req.prio))
    }

    fn on_remove(
        &mut self,
        _lbn: BlockAddr,
        node: u32,
        group: CachePriority,
        _reason: RemoveReason,
    ) {
        self.groups.remove(node, group);
    }

    fn buffers_writes(&self) -> bool {
        true
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        // Selection only: the engine untracks each block with an Evict
        // notification as it releases the slots.
        self.groups
            .iter_group(WRITE_BUFFER_GROUP)
            .copied()
            .collect()
    }

    fn check(&self) -> Result<(), String> {
        self.groups.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Tracked;
    use hstorage_storage::{Direction, RequestClass};

    fn req(qos: QosPolicy, config: &PolicyConfig) -> PolicyRequest {
        PolicyRequest {
            direction: Direction::Read,
            class: RequestClass::Random,
            qos,
            prio: config.resolve(qos),
        }
    }

    fn tracked(config: PolicyConfig) -> Tracked<SemanticPriorityPolicy> {
        Tracked::new(SemanticPriorityPolicy::new(config))
    }

    #[test]
    fn admission_follows_the_threshold() {
        let config = PolicyConfig::paper_default();
        let p = SemanticPriorityPolicy::new(config);
        assert!(p.admits(&req(QosPolicy::priority(2), &config)));
        assert!(p.admits(&req(QosPolicy::WriteBuffer, &config)));
        assert!(!p.admits(&req(QosPolicy::priority(7), &config)));
        assert!(!p.admits(&req(QosPolicy::NonCachingNonEviction, &config)));
        assert!(!p.admits(&req(QosPolicy::NonCachingEviction, &config)));
    }

    #[test]
    fn only_non_caching_non_eviction_is_inert() {
        let config = PolicyConfig::paper_default();
        let p = SemanticPriorityPolicy::new(config);
        for qos in [
            QosPolicy::priority(2),
            QosPolicy::priority(7),
            QosPolicy::WriteBuffer,
            QosPolicy::NonCachingEviction,
        ] {
            assert!(!p.is_inert(&req(qos, &config)), "{qos}");
        }
        let scan = req(QosPolicy::NonCachingNonEviction, &config);
        assert!(p.is_inert(&scan) && !p.admits(&scan));
    }

    #[test]
    fn displacement_requires_an_equal_or_lower_priority_resident() {
        let config = PolicyConfig::paper_default();
        let mut p = tracked(config);
        let r2 = req(QosPolicy::priority(2), &config);
        p.insert(BlockAddr(1), &r2);
        // A lower-priority (numerically higher) request must not displace.
        assert_eq!(p.pop(&req(QosPolicy::priority(4), &config)), None);
        // An equal-priority request displaces the LRU resident.
        assert_eq!(p.pop(&r2), Some(BlockAddr(1)));
        // Empty shard: nothing to displace.
        assert_eq!(p.pop(&r2), None);
    }

    #[test]
    fn hits_promote_demote_and_touch() {
        let config = PolicyConfig::paper_default();
        let mut p = tracked(config);
        let r3 = req(QosPolicy::priority(3), &config);
        p.insert(BlockAddr(1), &r3);
        // Same priority: touch, no move.
        assert_eq!(p.hit(BlockAddr(1), &r3), HitOutcome::Unchanged);
        // Different priority: re-allocation.
        let r2 = req(QosPolicy::priority(2), &config);
        assert_eq!(
            p.hit(BlockAddr(1), &r2),
            HitOutcome::Moved(CachePriority(2))
        );
        // Eviction policy demotes to the evict-first group.
        let evict = req(QosPolicy::NonCachingEviction, &config);
        assert_eq!(
            p.hit(BlockAddr(1), &evict),
            HitOutcome::Moved(config.non_caching_eviction())
        );
        // Non-eviction leaves the layout untouched.
        let scan = req(QosPolicy::NonCachingNonEviction, &config);
        assert_eq!(p.hit(BlockAddr(1), &scan), HitOutcome::Unchanged);
    }

    #[test]
    fn drain_returns_only_the_write_buffer_group() {
        let config = PolicyConfig::paper_default();
        let mut p = tracked(config);
        p.insert(BlockAddr(1), &req(QosPolicy::WriteBuffer, &config));
        p.insert(BlockAddr(2), &req(QosPolicy::priority(2), &config));
        p.insert(BlockAddr(3), &req(QosPolicy::WriteBuffer, &config));
        assert!(p.policy.buffers_writes());
        let mut drained = p.policy.drain_write_buffer();
        // The engine completes the drain with one Evict per block.
        for lbn in &drained {
            p.remove(*lbn, RemoveReason::Evict);
        }
        drained.sort();
        assert_eq!(drained, vec![BlockAddr(1), BlockAddr(3)]);
        assert!(p.policy.drain_write_buffer().is_empty());
        // The regular-priority block is still tracked.
        assert_eq!(
            p.pop(&req(QosPolicy::priority(2), &config)),
            Some(BlockAddr(2))
        );
    }
}
