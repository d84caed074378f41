//! Per-stream policy mixing: the paper's semantic policy for the streams
//! whose QoS carries information, ARC for anonymous random point reads.
//!
//! Mixed workloads have no single best replacement algorithm — the
//! paper's semantic policy is unbeatable where QoS priorities carry real
//! information (scans, temporary data, buffered updates), while an
//! adaptive algorithm can do better on anonymous random point reads. The
//! [`PerStreamPolicy`] compositor serves the sequential, temporary-data
//! and update streams with one [`SemanticPriorityPolicy`] and the random
//! stream with one [`ArcPolicy`], behind the same [`CachePolicy`] trait, so
//! the engine (and therefore sharding, batching, statistics and the write
//! buffer) is unaware that two algorithms share a shard.
//!
//! Ownership: each resident block belongs to exactly one inner policy —
//! the one its *inserting* request went to — and the compositor records
//! the owner in the high bits of the block's node handle, so the engine's
//! block table carries it with the inner's own node. Hits are forwarded
//! to the owner (not re-routed by the hitting request's class, which may
//! differ), and engine-initiated removals fan out with their
//! [`RemoveReason`]: a TRIM also tells the *other* inner to drop any ghost
//! history for the dead address.
//!
//! The engine's write buffer is one more stream, identified by its QoS
//! rather than its class: any request that resolves to the write-buffer
//! priority (group 0) goes to the semantic inner whatever its class, so
//! every group-0 block is owned by the inner the buffer drain visits and
//! the engine's occupancy accounting can never strand.

use crate::policy::{
    ArcPolicy, CachePolicy, HitOutcome, PolicyRequest, RemoveReason, SemanticPriorityPolicy,
    WRITE_BUFFER_GROUP,
};
use hstorage_storage::{BlockAddr, CachePriority, PolicyConfig, RequestClass};

/// Bits of a compositor node handle below the owner index: the inner
/// policy's own node handle.
const INNER_BITS: u32 = 29;
/// Owner index of the semantic inner.
const SEMANTIC: usize = 0;
/// Owner index of the ARC inner.
const ARC: usize = 1;

/// The compositor: sends block events to its semantic or ARC inner and
/// records each block's owner in its node handle.
///
/// No request shape is inert — a scan hit on a block ARC owns reorders
/// ARC — so [`CachePolicy::is_inert`] keeps the trait's `false`.
pub struct PerStreamPolicy {
    /// Serves every request except random point reads outside the write
    /// buffer, and keeps the write buffer.
    semantic: SemanticPriorityPolicy,
    /// Serves random point reads. Boxed so the compositor is no larger
    /// than a bare ARC policy and does not size every shard's policy slot.
    arc: Box<ArcPolicy>,
    /// Resident block count per inner, by owner index (drives the
    /// victim-stealing fallback).
    owned: [usize; 2],
}

impl PerStreamPolicy {
    /// Builds the compositor for a shard of `shard_capacity` slots. ARC's
    /// ghost directories are sized against the full shard capacity: the
    /// two inners share the shard's slots, so ARC gets the sizing it
    /// would have standalone.
    pub fn new(config: PolicyConfig, shard_capacity: u64) -> Self {
        PerStreamPolicy {
            semantic: SemanticPriorityPolicy::new(config),
            arc: Box::new(ArcPolicy::new(shard_capacity)),
            owned: [0; 2],
        }
    }

    /// Splits a compositor node handle into the owning inner's index and
    /// that inner's node handle.
    fn unpack(node: u32) -> (usize, u32) {
        (
            (node >> INNER_BITS) as usize,
            node & ((1 << INNER_BITS) - 1),
        )
    }

    /// The inner serving `req`: write-buffer traffic (group 0) and every
    /// class but `Random` go to the semantic inner, random reads to ARC.
    fn owner_for(req: &PolicyRequest) -> usize {
        if req.prio == WRITE_BUFFER_GROUP || req.class != RequestClass::Random {
            SEMANTIC
        } else {
            ARC
        }
    }

    fn inner(&mut self, idx: usize) -> &mut dyn CachePolicy {
        if idx == SEMANTIC {
            &mut self.semantic
        } else {
            &mut *self.arc
        }
    }
}

impl CachePolicy for PerStreamPolicy {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        // Hits go to the block's owner: the class of the *hitting*
        // request may differ from the class that inserted the block (a
        // scan re-reading random-cached pages must not consult the wrong
        // inner).
        let (idx, inner) = Self::unpack(node);
        self.inner(idx).on_hit(lbn, inner, current, req)
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        if Self::owner_for(req) == SEMANTIC {
            self.semantic.admits(req)
        } else {
            self.arc.admits(req)
        }
    }

    // A hit only goes to the block's owning inner; the compositor keeps
    // no hit-order state of its own, so the repeat is idempotent exactly
    // when both inners' are.
    fn repeat_hit_idempotent(&self) -> bool {
        self.semantic.repeat_hit_idempotent() && self.arc.repeat_hit_idempotent()
    }

    // The owner bits name the inner whose node it is; a handle whose bits
    // name neither (a stale one, or `NO_NODE`) is ignored.
    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        match Self::unpack(node) {
            (SEMANTIC, inner) => self.semantic.prefetch_hit(inner, neighbours),
            (ARC, inner) => self.arc.prefetch_hit(inner, neighbours),
            _ => {}
        }
    }

    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        // The request's own inner chooses first. If it *has* residents and
        // still declines (the semantic policy refusing to displace
        // higher-priority data), the refusal stands — the request
        // bypasses. Only when it owns nothing is a victim stolen from the
        // other inner, so a new stream can carve space out of a cache the
        // other stream filled. Selection only: ownership bookkeeping (and
        // the robbed inner's untracking/ghosting) happens when the engine
        // completes the eviction via `on_remove`.
        let primary = Self::owner_for(req);
        if self.owned[primary] > 0 {
            return self.inner(primary).pop_victim(incoming, req);
        }
        if self.owned[1 - primary] == 0 {
            return None;
        }
        if primary == SEMANTIC {
            // Stolen space hosts a block ARC will never track, so ARC must
            // not tune `p` (or consume ghost state) for a foreign insert.
            self.arc.steal_victim()
        } else {
            // The semantic victim choice ignores the incoming block.
            self.semantic.pop_victim(incoming, req)
        }
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        let idx = Self::owner_for(req);
        self.owned[idx] += 1;
        let (group, inner) = self.inner(idx).on_insert(lbn, req);
        assert!(
            inner >> INNER_BITS == 0,
            "inner node handle {inner} does not fit below the owner bits"
        );
        (group, (idx as u32) << INNER_BITS | inner)
    }

    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        let (idx, inner) = Self::unpack(node);
        self.owned[idx] -= 1;
        self.inner(idx).on_remove(lbn, inner, group, reason);
        if reason == RemoveReason::Trim {
            // The address is dead for both streams: a ghost-keeping inner
            // that ever saw it must forget it too.
            self.inner(1 - idx).on_trim_absent(lbn);
        }
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        self.semantic.on_trim_absent(lbn);
        self.arc.on_trim_absent(lbn);
    }

    fn buffers_writes(&self) -> bool {
        true
    }

    // Selection only: the semantic inner merely names its buffered blocks
    // (ARC buffers none); ownership is released by the engine's per-block
    // Evict notifications.
    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        self.semantic.drain_write_buffer()
    }

    fn check(&self) -> Result<(), String> {
        self.semantic
            .check()
            .map_err(|e| format!("per-stream inner {SEMANTIC}: {e}"))?;
        self.arc
            .check()
            .map_err(|e| format!("per-stream inner {ARC}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Tracked;
    use hstorage_storage::{Direction, QosPolicy};

    fn preq(class: RequestClass, qos: QosPolicy, direction: Direction) -> PolicyRequest {
        let config = PolicyConfig::paper_default();
        PolicyRequest {
            direction,
            class,
            qos,
            prio: config.resolve(qos),
        }
    }

    fn policy() -> PerStreamPolicy {
        PerStreamPolicy::new(PolicyConfig::paper_default(), 64)
    }

    fn random_read() -> PolicyRequest {
        preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        )
    }

    #[test]
    fn admission_is_routed_by_class() {
        let p = policy();
        // A scan miss consults the semantic inner: bypass.
        assert!(!p.admits(&preq(
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
            Direction::Read
        )));
        // The same QoS on the random stream consults ARC: admitted (ARC
        // is classification-blind and admits everything).
        assert!(p.admits(&preq(
            RequestClass::Random,
            QosPolicy::NonCachingNonEviction,
            Direction::Read
        )));
    }

    #[test]
    fn a_shape_is_inert_only_when_every_inner_says_so() {
        let scan = preq(
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
            Direction::Read,
        );
        // The scan's own inner is semantic, but a scan hit on a block the
        // ARC inner owns goes to ARC, which reorders it.
        assert!(!policy().is_inert(&scan));
    }

    #[test]
    fn hits_are_forwarded_to_the_owner_not_the_hitting_class() {
        let mut p = Tracked::new(policy());
        p.insert(BlockAddr(7), &random_read());
        // A sequential re-read of the ARC-owned block must reach ARC (a
        // T1→T2 promotion), not the semantic inner (which would panic in
        // debug: it never tracked the block).
        let scan = preq(
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
            Direction::Read,
        );
        assert_eq!(p.hit(BlockAddr(7), &scan), HitOutcome::Unchanged);
    }

    #[test]
    fn empty_stream_steals_a_victim_from_other_streams() {
        let mut p = Tracked::new(policy());
        for i in 0..4u64 {
            p.insert(BlockAddr(i), &random_read());
        }
        // A temporary-data write arrives with the semantic inner empty:
        // the victim must come from ARC's stock.
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        p.evict_for(BlockAddr(100), &temp).expect("steal succeeds");
        assert_eq!(p.policy.owned[ARC], 3, "ARC gave up one block");
    }

    #[test]
    fn primary_refusal_is_respected_when_it_owns_blocks() {
        let mut p = Tracked::new(policy());
        // Fill the semantic inner with top-priority temporary data.
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        for i in 0..4u64 {
            p.insert(BlockAddr(i), &temp);
        }
        // A lower-priority update-stream read served by the same semantic
        // inner: it declines (prio 5 cannot displace prio 1), and the
        // compositor must not steal from ARC on its behalf.
        let weak = preq(
            RequestClass::Update,
            QosPolicy::priority(5),
            Direction::Read,
        );
        assert_eq!(p.policy.pop_victim(BlockAddr(200), &weak), None);
        assert_eq!(p.policy.owned[SEMANTIC], 4);
    }

    #[test]
    fn trim_fans_ghost_forgetting_out_to_every_inner() {
        let mut p = Tracked::new(PerStreamPolicy::new(PolicyConfig::paper_default(), 2));
        let random = random_read();
        // Insert two random blocks on ARC, evict the older one into B1,
        // then trim the absent address through the compositor: the ghost
        // must die, so a re-use is a cold start.
        p.insert(BlockAddr(3), &random);
        p.insert(BlockAddr(4), &random);
        let victim = p.evict_for(BlockAddr(5), &random).expect("ARC evicts");
        assert_eq!(victim, BlockAddr(3));
        assert_eq!(p.policy.arc.b1_len(), 1);
        p.policy.on_trim_absent(BlockAddr(3));
        assert_eq!(p.policy.arc.b1_len(), 0);
        // Were the ghost alive, the re-insert would be a ghost hit and
        // enter T2; after the trim it lands cold in T1.
        p.insert(BlockAddr(3), &random);
        assert_eq!((p.policy.arc.t1_len(), p.policy.arc.t2_len()), (2, 0));
    }

    #[test]
    fn resident_trim_fans_out_with_its_reason() {
        let mut p = Tracked::new(policy());
        p.insert(BlockAddr(9), &random_read());
        p.remove(BlockAddr(9), RemoveReason::Trim);
        assert_eq!(p.policy.owned[ARC], 0);
        // The engine never reports an absent block again (the harness
        // drops the second TRIM, as the block table would).
        p.remove(BlockAddr(9), RemoveReason::Trim);
        // A TRIM of a semantic-owned block reaches ARC too: evict random
        // block 3 into B1, re-insert its address as temporary data, trim
        // it, and the ghost is gone.
        p.insert(BlockAddr(3), &random_read());
        p.insert(BlockAddr(4), &random_read());
        p.evict_for(BlockAddr(5), &random_read())
            .expect("ARC evicts");
        assert_eq!(p.policy.arc.b1_len(), 1);
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        p.insert(BlockAddr(3), &temp);
        p.remove(BlockAddr(3), RemoveReason::Trim);
        assert_eq!(p.policy.arc.b1_len(), 0, "ARC forgot the dead address");
    }

    #[test]
    fn write_buffer_is_served_by_the_semantic_inner() {
        let mut p = Tracked::new(policy());
        let upd = preq(
            RequestClass::Update,
            QosPolicy::WriteBuffer,
            Direction::Write,
        );
        assert!(p.policy.buffers_writes());
        p.insert(BlockAddr(1), &upd);
        p.insert(BlockAddr(2), &random_read());
        let mut drained = p.policy.drain_write_buffer();
        drained.sort();
        assert_eq!(drained, vec![BlockAddr(1)]);
        // The engine completes the drain with one Evict per block.
        for lbn in &drained {
            p.remove(*lbn, RemoveReason::Evict);
        }
        assert_eq!(p.policy.owned[SEMANTIC], 0);
        assert_eq!(p.policy.owned[ARC], 1, "the ARC block stays");
    }

    #[test]
    fn write_buffer_qos_on_a_foreign_stream_routes_to_the_buffering_inner() {
        let mut p = Tracked::new(policy());
        // A WriteBuffer-QoS request arriving with Random class (a stream
        // served by ARC) resolves to group 0, so it must be owned by the
        // buffering semantic inner — otherwise the engine would count it
        // as buffered while the drain could never reach it, stranding the
        // occupancy accounting.
        let odd = preq(
            RequestClass::Random,
            QosPolicy::WriteBuffer,
            Direction::Write,
        );
        assert_eq!(p.insert(BlockAddr(5), &odd), CachePriority(0));
        assert_eq!(
            p.policy.owned[SEMANTIC], 1,
            "owned by the buffering semantic inner"
        );
        assert_eq!(p.policy.owned[ARC], 0);
        assert_eq!(p.policy.drain_write_buffer(), vec![BlockAddr(5)]);
        p.remove(BlockAddr(5), RemoveReason::Evict);
        assert_eq!(p.policy.owned[SEMANTIC], 0);
    }

    #[test]
    fn stealing_uses_the_adaptation_free_hook() {
        let mut p = Tracked::new(policy());
        let random = random_read();
        // Make address 100 a B1 ghost of the ARC inner.
        p.insert(BlockAddr(100), &random);
        p.insert(BlockAddr(101), &random);
        p.hit(BlockAddr(101), &random); // 101 → T2
        let ghosted = p.evict_for(BlockAddr(102), &random).expect("ARC evicts");
        assert_eq!(ghosted, BlockAddr(100));
        p.insert(BlockAddr(102), &random);
        // A temp-stream miss for the ghosted address steals from ARC (the
        // semantic inner owns nothing): ARC must neither consume the
        // ghost nor tune p for a block it will never track.
        let (p_before, ghosts_before) = (p.policy.arc.p(), p.policy.arc.b1_len());
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        p.evict_for(BlockAddr(100), &temp).expect("steal succeeds");
        assert_eq!(p.policy.arc.p(), p_before, "no adaptation for a steal");
        assert_eq!(
            p.policy.arc.b1_len(),
            ghosts_before + 1,
            "the ghost of 100 is kept beside the stolen block's"
        );
        p.insert(BlockAddr(100), &temp); // owned by semantic now
        assert_eq!(p.policy.owned[SEMANTIC], 1);
    }
}
