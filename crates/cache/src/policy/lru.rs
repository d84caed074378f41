//! Plain least-recently-used replacement behind the [`CachePolicy`] trait.

use crate::arena::{check_lists, ListArena, ListHandle};
use crate::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_storage::{BlockAddr, CachePriority};

/// Classification-blind LRU: every miss is admitted, all resident blocks
/// live in a single recency stack, and the least recently used block is
/// displaced when space is needed. Semantic information (request class,
/// QoS policy, priorities) is recorded by the engine for statistics but
/// never consulted — this is the "classical approach" the paper's
/// evaluation contrasts against, now selectable inside the same engine.
#[derive(Default)]
pub struct LruPolicy {
    arena: ListArena,
    stack: ListHandle,
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
        _lbn: BlockAddr,
        node: u32,
        _current: CachePriority,
        _req: &PolicyRequest,
    ) -> HitOutcome {
        self.stack.move_front(&mut self.arena, node);
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

    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        self.arena.prefetch(node, neighbours);
    }

    fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
        // Selection only: the block leaves the stack when the engine's
        // Evict notification reaches `on_remove`.
        self.stack.back(&self.arena).copied()
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        // A single stack has no groups; the recorded priority is
        // informational, mirroring the paper's LRU baseline tables.
        (req.prio, self.stack.push_front(&mut self.arena, lbn))
    }

    fn on_remove(
        &mut self,
        _lbn: BlockAddr,
        node: u32,
        _group: CachePriority,
        _reason: RemoveReason,
    ) {
        self.stack.remove(&mut self.arena, node);
    }

    /// The stack's links hold, and it holds every live node.
    fn check(&self) -> Result<(), String> {
        check_lists(&self.arena, &[("stack", &self.stack)], |_, _| Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Tracked;
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

    #[test]
    fn admits_everything_including_scans() {
        let p = LruPolicy::new();
        assert!(p.admits(&req(QosPolicy::NonCachingNonEviction)));
        assert!(p.admits(&req(QosPolicy::NonCachingEviction)));
        assert!(p.admits(&req(QosPolicy::priority(7))));
    }

    #[test]
    fn evicts_in_recency_order_regardless_of_priority() {
        let mut p = Tracked::new(LruPolicy::new());
        let high = req(QosPolicy::priority(1));
        let low = req(QosPolicy::priority(5));
        p.insert(BlockAddr(1), &high);
        p.insert(BlockAddr(2), &low);
        p.insert(BlockAddr(3), &high);
        // Touch the oldest: it becomes MRU.
        p.hit(BlockAddr(1), &low);
        assert_eq!(p.pop(&high), Some(BlockAddr(2)));
        assert_eq!(p.pop(&high), Some(BlockAddr(3)));
        assert_eq!(p.pop(&high), Some(BlockAddr(1)));
        assert_eq!(p.pop(&high), None);
    }

    #[test]
    fn remove_untracks_a_block() {
        let mut p = Tracked::new(LruPolicy::new());
        let r = req(QosPolicy::priority(2));
        p.insert(BlockAddr(9), &r);
        p.remove(BlockAddr(9), RemoveReason::Trim);
        assert_eq!(p.pop(&r), None);
    }
}
