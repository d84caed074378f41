//! Plain least-recently-used replacement behind the [`CachePolicy`] trait.

use crate::lru::LruList;
use crate::policy::{CachePolicy, HitOutcome, PolicyRequest};
use hstorage_storage::{BlockAddr, CachePriority};

/// Classification-blind LRU: every miss is admitted, all resident blocks
/// live in a single recency stack, and the least recently used block is
/// displaced when space is needed. Semantic information (request class,
/// QoS policy, priorities) is recorded by the engine for statistics but
/// never consulted — this is the "classical approach" the paper's
/// evaluation contrasts against, now selectable inside the same engine.
#[derive(Default)]
pub struct LruPolicy {
    stack: LruList,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for LruPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        _current: CachePriority,
        _req: &PolicyRequest,
    ) -> HitOutcome {
        self.stack.touch(&lbn);
        HitOutcome::Unchanged
    }

    fn admits(&self, _req: &PolicyRequest) -> bool {
        true
    }

    // Touching the block that is already most-recent leaves the stack
    // order unchanged, so a repeat hit is a no-op.
    fn repeat_hit_idempotent(&self) -> bool {
        true
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
        // Selection only: the block leaves the stack when the engine's
        // Evict notification reaches `on_remove`.
        self.stack.peek_lru().copied()
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        self.stack.insert_mru(lbn);
        // A single stack has no groups; the recorded priority is
        // informational, mirroring the paper's LRU baseline tables.
        req.prio
    }

    fn on_remove(&mut self, lbn: BlockAddr, _group: CachePriority) {
        self.stack.remove(&lbn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RemoveReason;
    use hstorage_storage::{Direction, PolicyConfig, QosPolicy, RequestClass};

    fn req(qos: QosPolicy) -> PolicyRequest {
        let config = PolicyConfig::paper_default();
        PolicyRequest {
            direction: Direction::Read,
            class: RequestClass::Random,
            qos,
            prio: config.resolve(qos),
        }
    }

    /// Emulates the engine: select a victim, then complete the eviction
    /// with the reasoned removal notification.
    fn pop(p: &mut LruPolicy, req: &PolicyRequest) -> Option<BlockAddr> {
        let victim = p.pop_victim(BlockAddr(u64::MAX), req)?;
        p.on_remove_reasoned(victim, req.prio, RemoveReason::Evict);
        Some(victim)
    }

    #[test]
    fn admits_everything_including_scans() {
        let p = LruPolicy::new();
        assert!(p.admits(&req(QosPolicy::NonCachingNonEviction)));
        assert!(p.admits(&req(QosPolicy::NonCachingEviction)));
        assert!(p.admits(&req(QosPolicy::priority(7))));
    }

    #[test]
    fn evicts_in_recency_order_regardless_of_priority() {
        let mut p = LruPolicy::new();
        let high = req(QosPolicy::priority(1));
        let low = req(QosPolicy::priority(5));
        p.on_insert(BlockAddr(1), &high);
        p.on_insert(BlockAddr(2), &low);
        p.on_insert(BlockAddr(3), &high);
        // Touch the oldest: it becomes MRU.
        p.on_hit(BlockAddr(1), CachePriority(1), &low);
        assert_eq!(pop(&mut p, &high), Some(BlockAddr(2)));
        assert_eq!(pop(&mut p, &high), Some(BlockAddr(3)));
        assert_eq!(pop(&mut p, &high), Some(BlockAddr(1)));
        assert_eq!(pop(&mut p, &high), None);
    }

    #[test]
    fn remove_untracks_a_block() {
        let mut p = LruPolicy::new();
        let r = req(QosPolicy::priority(2));
        p.on_insert(BlockAddr(9), &r);
        p.on_remove(BlockAddr(9), CachePriority(2));
        assert_eq!(pop(&mut p, &r), None);
    }
}
