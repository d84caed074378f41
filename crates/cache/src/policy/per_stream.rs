//! Per-stream policy mixing: one inner [`CachePolicy`] per request class.
//!
//! Mixed workloads have no single best replacement algorithm — the
//! paper's semantic policy is unbeatable where QoS priorities carry real
//! information (scans, temporary data, buffered updates), while an
//! adaptive or scan-resistant algorithm can do better on anonymous random
//! point reads. The [`PerStreamPolicy`] compositor routes every request
//! to an inner policy chosen by its [`RequestClass`]
//! ([`StreamRouting`]), behind the same [`CachePolicy`] trait, so the
//! engine (and therefore sharding, batching, statistics and the write
//! buffer) is unaware that several algorithms share a shard.
//!
//! Ownership: each resident block belongs to exactly one inner policy —
//! the one its *inserting* request was routed to — and the compositor
//! records the owner in the high bits of the block's node handle, so the
//! engine's block table carries it with the inner's own node. Hits are
//! forwarded to the owner (not re-routed by the hitting request's class,
//! which may differ), and engine-initiated removals fan out with their
//! [`RemoveReason`]: a TRIM also tells every *other* inner to drop any
//! ghost history for the dead address.
//!
//! The engine's write buffer is one more stream, identified by its QoS
//! rather than its class: any request that resolves to the write-buffer
//! priority (group 0) is routed to the write-buffering inner (if the
//! routing has one) regardless of request class, so every group-0 block
//! is owned by the inner the buffer drain visits and the engine's
//! occupancy accounting can never strand.

use crate::policy::{
    ArcPolicy, CachePolicy, CflruPolicy, HitOutcome, LruPolicy, PolicyRequest, RemoveReason,
    SemanticPriorityPolicy, ShardPolicy, TwoQPolicy, WRITE_BUFFER_GROUP,
};
use hstorage_storage::{BlockAddr, CachePriority, PolicyConfig, RequestClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A leaf policy assignable to one stream of the compositor — every
/// shipped algorithm except the compositor itself (nesting would add
/// indirection without adding routing power).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamPolicyKind {
    /// The paper's semantic priority policy. The default for every stream
    /// whose requests carry meaningful QoS information.
    #[default]
    SemanticPriority,
    /// Plain LRU.
    Lru,
    /// Clean-first LRU; `window_pct` as in
    /// [`CachePolicyKind::Cflru`](crate::policy::CachePolicyKind::Cflru).
    Cflru {
        /// Clean-first window as a percentage of the shard capacity.
        window_pct: u8,
    },
    /// Scan-resistant 2Q; knobs as in
    /// [`CachePolicyKind::TwoQ`](crate::policy::CachePolicyKind::TwoQ).
    TwoQ {
        /// Probationary-queue target as a percentage of the shard capacity.
        kin_pct: u8,
        /// Ghost-list capacity as a percentage of the shard capacity.
        kout_pct: u8,
    },
    /// Self-tuning adaptive replacement.
    Arc,
}

impl StreamPolicyKind {
    /// 2Q with its default knobs.
    pub fn two_q() -> StreamPolicyKind {
        StreamPolicyKind::TwoQ {
            kin_pct: TwoQPolicy::DEFAULT_KIN_PCT,
            kout_pct: TwoQPolicy::DEFAULT_KOUT_PCT,
        }
    }

    /// CFLRU with its default window.
    pub fn cflru() -> StreamPolicyKind {
        StreamPolicyKind::Cflru {
            window_pct: CflruPolicy::DEFAULT_WINDOW_PCT,
        }
    }

    /// Short label for routing descriptions.
    pub fn label(&self) -> &'static str {
        match self {
            StreamPolicyKind::SemanticPriority => "semantic-priority",
            StreamPolicyKind::Lru => "lru",
            StreamPolicyKind::Cflru { .. } => "cflru",
            StreamPolicyKind::TwoQ { .. } => "2q",
            StreamPolicyKind::Arc => "arc",
        }
    }

    /// Validates the knob ranges — the single source of truth for the
    /// leaf bounds; the top-level [`CachePolicyKind::validate`] delegates
    /// here for its non-compositor variants.
    ///
    /// [`CachePolicyKind::validate`]: crate::policy::CachePolicyKind::validate
    pub fn validate(&self) -> Result<(), String> {
        match self {
            StreamPolicyKind::Cflru { window_pct } => {
                if !(1..=100).contains(window_pct) {
                    return Err(format!(
                        "CFLRU window_pct = {window_pct} must be in 1..=100"
                    ));
                }
                Ok(())
            }
            StreamPolicyKind::TwoQ { kin_pct, kout_pct } => {
                if !(1..=100).contains(kin_pct) {
                    return Err(format!("2Q kin_pct = {kin_pct} must be in 1..=100"));
                }
                if !(1..=200).contains(kout_pct) {
                    return Err(format!("2Q kout_pct = {kout_pct} must be in 1..=200"));
                }
                Ok(())
            }
            StreamPolicyKind::SemanticPriority | StreamPolicyKind::Lru | StreamPolicyKind::Arc => {
                Ok(())
            }
        }
    }

    /// Builds the policy instance for a shard of `shard_capacity` slots, as
    /// its leaf [`ShardPolicy`] variant — the single leaf-construction
    /// dispatch, also used by [`CachePolicyKind::build`] for its
    /// non-compositor variants.
    /// Windows and ghost capacities are sized against the full shard
    /// capacity — the compositor's streams share the shard's slots, so
    /// each inner is given the shard-level sizing it would have
    /// standalone.
    ///
    /// [`CachePolicyKind::build`]: crate::policy::CachePolicyKind::build
    pub fn build(&self, config: &PolicyConfig, shard_capacity: u64) -> ShardPolicy {
        match self {
            StreamPolicyKind::SemanticPriority => {
                ShardPolicy::Semantic(SemanticPriorityPolicy::new(*config))
            }
            StreamPolicyKind::Lru => ShardPolicy::Lru(LruPolicy::new()),
            StreamPolicyKind::Cflru { window_pct } => {
                ShardPolicy::Cflru(CflruPolicy::with_window(shard_capacity, *window_pct))
            }
            StreamPolicyKind::TwoQ { kin_pct, kout_pct } => {
                ShardPolicy::TwoQ(TwoQPolicy::with_knobs(shard_capacity, *kin_pct, *kout_pct))
            }
            StreamPolicyKind::Arc => ShardPolicy::Arc(ArcPolicy::new(shard_capacity)),
        }
    }
}

impl fmt::Display for StreamPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which inner policy serves each request stream. `TemporaryDataTrim`
/// requests (the end-of-lifetime accesses of temporary data) are routed
/// with the `temporary` stream — they address the same blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamRouting {
    /// Policy for `RequestClass::Sequential` (table scans).
    pub sequential: StreamPolicyKind,
    /// Policy for `RequestClass::Random` (index-driven point reads).
    pub random: StreamPolicyKind,
    /// Policy for `RequestClass::TemporaryData` and
    /// `RequestClass::TemporaryDataTrim`.
    pub temporary: StreamPolicyKind,
    /// Policy for `RequestClass::Update` (buffered writes).
    pub update: StreamPolicyKind,
}

impl Default for StreamRouting {
    /// The shipped mix: semantic wherever QoS priorities carry
    /// information (scan bypassing, temporary-data lifetimes, the write
    /// buffer), self-tuning ARC for anonymous random point reads.
    fn default() -> Self {
        StreamRouting {
            sequential: StreamPolicyKind::SemanticPriority,
            random: StreamPolicyKind::Arc,
            temporary: StreamPolicyKind::SemanticPriority,
            update: StreamPolicyKind::SemanticPriority,
        }
    }
}

impl StreamRouting {
    /// The four stream assignments in routing order (sequential, random,
    /// temporary, update).
    pub fn streams(&self) -> [StreamPolicyKind; 4] {
        [self.sequential, self.random, self.temporary, self.update]
    }

    /// The inner policy kind serving `class`.
    pub fn for_class(&self, class: RequestClass) -> StreamPolicyKind {
        match class {
            RequestClass::Sequential => self.sequential,
            RequestClass::Random => self.random,
            RequestClass::TemporaryData | RequestClass::TemporaryDataTrim => self.temporary,
            RequestClass::Update => self.update,
        }
    }

    /// Validates every leaf and the write-buffer contract: the engine's
    /// write buffer is fed by `WriteBuffer`-QoS requests, which the DBMS
    /// issues on the update stream — so when any stream runs the
    /// (write-buffering) semantic policy, the update stream must run it
    /// too, otherwise buffered blocks would be tracked by an inner the
    /// buffer drain never visits.
    pub fn validate(&self) -> Result<(), String> {
        for kind in self.streams() {
            kind.validate()?;
        }
        let uses_semantic = self.streams().contains(&StreamPolicyKind::SemanticPriority);
        if uses_semantic && self.update != StreamPolicyKind::SemanticPriority {
            return Err(format!(
                "per-stream routing assigns the semantic (write-buffering) policy to some \
                 stream but `{}` to the update stream; buffered updates would never be \
                 drained — route update to semantic-priority too, or use no semantic \
                 stream at all",
                self.update.label()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for StreamRouting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq={},rand={},temp={},upd={}",
            self.sequential, self.random, self.temporary, self.update
        )
    }
}

/// Bits of a compositor node handle below the owner index: the inner
/// policy's own node handle. The three bits above address up to eight
/// inners — a routing has at most five streams.
const INNER_BITS: u32 = 29;

/// The compositor: routes block events to per-stream inner policies and
/// records each block's owner in its node handle.
///
/// Inner policies are deduplicated by kind — with the default routing the
/// sequential, temporary and update streams share **one**
/// `SemanticPriorityPolicy` instance, so those streams compete in one
/// priority-group structure exactly as they would under the plain
/// semantic policy.
pub struct PerStreamPolicy {
    /// Distinct inner policies, in first-use order of the routing: leaf
    /// variants of [`ShardPolicy`], dispatched statically.
    inners: Vec<ShardPolicy>,
    /// Routing table: `RequestClass` slot → index into `inners`.
    route: [usize; 5],
    /// Index of the write-buffering inner, if the routing has one: every
    /// request resolving to group 0 routes here irrespective of class.
    buffering: Option<usize>,
    /// Resident block count per inner (drives victim-stealing fallback).
    owned: Vec<usize>,
}

impl PerStreamPolicy {
    /// Builds the compositor for one shard. Panics on an invalid
    /// `routing` (see [`StreamRouting::validate`]) — the configuration
    /// layers validate earlier, but direct construction is checked too.
    pub fn new(config: PolicyConfig, shard_capacity: u64, routing: StreamRouting) -> Self {
        routing
            .validate()
            .expect("invalid per-stream routing configuration");
        let picks = [
            routing.for_class(RequestClass::Sequential),
            routing.for_class(RequestClass::Random),
            routing.for_class(RequestClass::TemporaryData),
            routing.for_class(RequestClass::TemporaryDataTrim),
            routing.for_class(RequestClass::Update),
        ];
        let mut kinds: Vec<StreamPolicyKind> = Vec::new();
        let mut route = [0usize; 5];
        for (slot, kind) in picks.iter().enumerate() {
            let idx = match kinds.iter().position(|k| k == kind) {
                Some(i) => i,
                None => {
                    kinds.push(*kind);
                    kinds.len() - 1
                }
            };
            route[slot] = idx;
        }
        let inners: Vec<ShardPolicy> = kinds
            .iter()
            .map(|k| k.build(&config, shard_capacity))
            .collect();
        let buffering = inners.iter().position(|p| p.buffers_writes());
        let owned = vec![0; inners.len()];
        PerStreamPolicy {
            inners,
            route,
            buffering,
            owned,
        }
    }

    /// Number of distinct inner policies (after deduplication).
    pub fn inner_count(&self) -> usize {
        self.inners.len()
    }

    fn slot(class: RequestClass) -> usize {
        match class {
            RequestClass::Sequential => 0,
            RequestClass::Random => 1,
            RequestClass::TemporaryData => 2,
            RequestClass::TemporaryDataTrim => 3,
            RequestClass::Update => 4,
        }
    }

    fn route_of(&self, class: RequestClass) -> usize {
        self.route[Self::slot(class)]
    }

    /// Splits a compositor node handle into the owning inner's index and
    /// that inner's node handle.
    fn unpack(node: u32) -> (usize, u32) {
        (
            (node >> INNER_BITS) as usize,
            node & ((1 << INNER_BITS) - 1),
        )
    }

    /// The inner serving `req`: write-buffer traffic (group 0) goes to
    /// the buffering inner whatever its class, everything else routes by
    /// request class.
    fn route_for(&self, req: &PolicyRequest) -> usize {
        if req.prio == WRITE_BUFFER_GROUP {
            if let Some(idx) = self.buffering {
                return idx;
            }
        }
        self.route_of(req.class)
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
        self.inners[idx].on_hit(lbn, inner, current, req)
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        self.inners[self.route_for(req)].admits(req)
    }

    // Admission routes by the request's stream, but a hit goes to the
    // block's owner, which may be any inner: a shape is inert only when
    // every inner says so.
    fn is_inert(&self, req: &PolicyRequest) -> bool {
        self.inners.iter().all(|inner| inner.is_inert(req))
    }

    // A hit only routes to the block's owning inner; the compositor keeps
    // no hit-order state of its own, so the repeat is idempotent exactly
    // when every inner's is.
    fn repeat_hit_idempotent(&self) -> bool {
        self.inners
            .iter()
            .all(|inner| inner.repeat_hit_idempotent())
    }

    // The owner bits name the inner whose node it is; a handle whose bits
    // name no inner (a stale one, or `NO_NODE`) is ignored.
    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        let (idx, inner) = Self::unpack(node);
        if let Some(owner) = self.inners.get(idx) {
            owner.prefetch_hit(inner, neighbours);
        }
    }

    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        // The stream's own inner chooses first. If it *has* residents and
        // still declines (the semantic policy refusing to displace
        // higher-priority data), the refusal stands — the request
        // bypasses. Only when the inner owns nothing is a victim stolen
        // from the other streams, in deterministic inner order, so a new
        // stream can carve space out of a cache another stream filled.
        // Selection only: ownership bookkeeping (and the robbed inner's
        // untracking/ghosting) happens when the engine completes the
        // eviction via `on_remove`.
        let primary = self.route_for(req);
        if self.owned[primary] > 0 {
            return self.inners[primary].pop_victim(incoming, req);
        }
        for idx in (0..self.inners.len()).filter(|&i| i != primary) {
            if self.owned[idx] == 0 {
                continue;
            }
            // Stolen space hosts a block the robbed inner will never
            // track, so the adaptation-free steal hook is used — ARC must
            // not tune `p` (or consume ghost state) for a foreign insert.
            if let Some(victim) = self.inners[idx].steal_victim(req) {
                return Some(victim);
            }
        }
        None
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        let idx = self.route_for(req);
        self.owned[idx] += 1;
        let (group, inner) = self.inners[idx].on_insert(lbn, req);
        assert!(
            inner >> INNER_BITS == 0,
            "inner node handle {inner} does not fit below the owner bits"
        );
        (group, (idx as u32) << INNER_BITS | inner)
    }

    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        let (idx, inner) = Self::unpack(node);
        self.owned[idx] -= 1;
        self.inners[idx].on_remove(lbn, inner, group, reason);
        if reason == RemoveReason::Trim {
            // The address is dead for every stream: ghost-keeping inners
            // that ever saw it must forget it too.
            for (j, other) in self.inners.iter_mut().enumerate() {
                if j != idx {
                    other.on_trim_absent(lbn);
                }
            }
        }
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        for inner in &mut self.inners {
            inner.on_trim_absent(lbn);
        }
    }

    fn buffers_writes(&self) -> bool {
        self.buffering.is_some()
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        // Selection only: the inners merely name their buffered blocks;
        // ownership is released by the engine's per-block Evict
        // notifications.
        let mut drained = Vec::new();
        for inner in &mut self.inners {
            drained.extend(inner.drain_write_buffer());
        }
        drained
    }

    fn check(&self) -> Result<(), String> {
        self.inners.iter().enumerate().try_for_each(|(i, inner)| {
            inner
                .check()
                .map_err(|e| format!("per-stream inner {i}: {e}"))
        })
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
        PerStreamPolicy::new(PolicyConfig::paper_default(), 64, StreamRouting::default())
    }

    #[test]
    fn default_routing_dedups_to_two_inners() {
        let p = policy();
        // sequential/temporary/update share one semantic instance; random
        // gets ARC.
        assert_eq!(p.inner_count(), 2);
        assert_eq!(p.route_of(RequestClass::Sequential), 0);
        assert_eq!(p.route_of(RequestClass::TemporaryData), 0);
        assert_eq!(p.route_of(RequestClass::TemporaryDataTrim), 0);
        assert_eq!(p.route_of(RequestClass::Update), 0);
        assert_eq!(p.route_of(RequestClass::Random), 1);
    }

    /// Whatever the routing, the inners are the leaf variants of their
    /// kinds: none is boxed, none is a compositor.
    #[test]
    fn inners_are_leaf_variants() {
        let leaves = [
            StreamPolicyKind::SemanticPriority,
            StreamPolicyKind::Lru,
            StreamPolicyKind::cflru(),
            StreamPolicyKind::two_q(),
            StreamPolicyKind::Arc,
        ];
        for random in leaves {
            for temporary in leaves {
                let routing = StreamRouting {
                    random,
                    temporary,
                    ..StreamRouting::default()
                };
                let p = PerStreamPolicy::new(PolicyConfig::paper_default(), 64, routing);
                for inner in &p.inners {
                    assert!(
                        !matches!(inner, ShardPolicy::Custom(_) | ShardPolicy::PerStream(_)),
                        "{routing}"
                    );
                }
                assert!(p.check().is_ok(), "{routing}");
            }
        }
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
        let semantic = StreamPolicyKind::SemanticPriority;
        let all_semantic = StreamRouting {
            sequential: semantic,
            random: semantic,
            temporary: semantic,
            update: semantic,
        };
        let p = PerStreamPolicy::new(PolicyConfig::paper_default(), 64, all_semantic);
        assert!(p.is_inert(&scan));
    }

    #[test]
    fn hits_are_forwarded_to_the_owner_not_the_hitting_class() {
        let mut p = Tracked::new(policy());
        let random = preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        );
        p.insert(BlockAddr(7), &random);
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
        let random = preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        );
        for i in 0..4u64 {
            p.insert(BlockAddr(i), &random);
        }
        // A temporary-data write arrives with the (shared) semantic inner
        // empty: the victim must come from ARC's stock.
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        p.evict_for(BlockAddr(100), &temp).expect("steal succeeds");
        assert_eq!(p.policy.owned[1], 3, "ARC gave up one block");
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
        // A lower-priority update-stream read routed to the same semantic
        // inner: it declines (prio 5 cannot displace prio 1), and the
        // compositor must not steal from elsewhere on its behalf.
        let weak = preq(
            RequestClass::Update,
            QosPolicy::priority(5),
            Direction::Read,
        );
        assert_eq!(p.policy.pop_victim(BlockAddr(200), &weak), None);
        assert_eq!(p.policy.owned[0], 4);
    }

    #[test]
    fn trim_fans_ghost_forgetting_out_to_every_inner() {
        let routing = StreamRouting {
            random: StreamPolicyKind::two_q(),
            sequential: StreamPolicyKind::Lru,
            temporary: StreamPolicyKind::Lru,
            update: StreamPolicyKind::Lru,
        };
        assert!(routing.validate().is_ok());
        let mut p = Tracked::new(PerStreamPolicy::new(
            PolicyConfig::paper_default(),
            8,
            routing,
        ));
        let random = preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        );
        // Insert on the 2Q stream, evict it (ghosted), then trim the
        // absent address: the ghost must die so a re-use is a cold start.
        p.insert(BlockAddr(3), &random);
        let victim = p.evict_for(BlockAddr(4), &random).expect("2Q evicts");
        assert_eq!(victim, BlockAddr(3));
        p.policy.on_trim_absent(BlockAddr(3));
        p.insert(BlockAddr(3), &random);
        p.insert(BlockAddr(4), &random);
        p.insert(BlockAddr(5), &random);
        // Were the ghost alive, 3 would sit protected in Am and the
        // probationary FIFO would give up 4; after the trim, 3 is a
        // first-touch block again and evicts first.
        assert_eq!(
            p.policy.pop_victim(BlockAddr(6), &random),
            Some(BlockAddr(3))
        );
    }

    #[test]
    fn resident_trim_fans_out_with_its_reason() {
        let mut p = Tracked::new(policy());
        let random = preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        );
        p.insert(BlockAddr(9), &random);
        p.remove(BlockAddr(9), RemoveReason::Trim);
        assert_eq!(p.policy.owned[1], 0);
        // The engine never reports an absent block again (the harness
        // drops the second TRIM, as the block table would).
        p.remove(BlockAddr(9), RemoveReason::Trim);
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
        p.insert(
            BlockAddr(2),
            &preq(
                RequestClass::Random,
                QosPolicy::priority(2),
                Direction::Read,
            ),
        );
        let mut drained = p.policy.drain_write_buffer();
        drained.sort();
        assert_eq!(drained, vec![BlockAddr(1)]);
        // The engine completes the drain with one Evict per block.
        for lbn in &drained {
            p.remove(*lbn, RemoveReason::Evict);
        }
        assert_eq!(p.policy.owned[0], 0);
        assert_eq!(p.policy.owned[1], 1, "the ARC block stays");
    }

    #[test]
    fn write_buffer_qos_on_a_foreign_stream_routes_to_the_buffering_inner() {
        let mut p = Tracked::new(policy());
        // A WriteBuffer-QoS request arriving with Random class (a stream
        // routed to ARC) resolves to group 0, so it must be owned by the
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
            p.policy.owned[0], 1,
            "owned by the buffering semantic inner"
        );
        assert_eq!(p.policy.owned[1], 0);
        assert_eq!(p.policy.drain_write_buffer(), vec![BlockAddr(5)]);
        p.remove(BlockAddr(5), RemoveReason::Evict);
        assert_eq!(p.policy.owned[0], 0);
    }

    #[test]
    fn stealing_uses_the_adaptation_free_hook() {
        let mut p = Tracked::new(policy());
        let random = preq(
            RequestClass::Random,
            QosPolicy::priority(2),
            Direction::Read,
        );
        // Make address 100 a B1 ghost of the ARC inner.
        p.insert(BlockAddr(100), &random);
        p.insert(BlockAddr(101), &random);
        p.hit(BlockAddr(101), &random); // 101 → T2
        let ghosted = p.evict_for(BlockAddr(102), &random).expect("ARC evicts");
        assert_eq!(ghosted, BlockAddr(100));
        p.insert(BlockAddr(102), &random);
        // A temp-stream miss for the ghosted address steals from ARC (the
        // semantic inner owns nothing): ARC must neither consume the
        // ghost nor tune p for a block it will never track, so a later
        // genuine random-stream re-use of the address still reads as a
        // ghost hit (insert into T2, i.e. protected from the next steal).
        let temp = preq(
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
            Direction::Write,
        );
        p.evict_for(BlockAddr(100), &temp).expect("steal succeeds");
        p.insert(BlockAddr(100), &temp); // owned by semantic now
        assert_eq!(p.policy.owned[0], 1);
    }

    #[test]
    #[should_panic(expected = "invalid per-stream routing configuration")]
    fn direct_construction_validates_the_routing() {
        let bad = StreamRouting {
            random: StreamPolicyKind::Cflru { window_pct: 0 },
            ..StreamRouting::default()
        };
        let _ = PerStreamPolicy::new(PolicyConfig::paper_default(), 64, bad);
    }

    #[test]
    fn routing_validation_enforces_the_write_buffer_contract() {
        let bad = StreamRouting {
            sequential: StreamPolicyKind::SemanticPriority,
            random: StreamPolicyKind::Arc,
            temporary: StreamPolicyKind::SemanticPriority,
            update: StreamPolicyKind::Lru,
        };
        assert!(bad.validate().is_err());
        // All-baseline routings need no semantic update stream.
        let ok = StreamRouting {
            sequential: StreamPolicyKind::Lru,
            random: StreamPolicyKind::Arc,
            temporary: StreamPolicyKind::two_q(),
            update: StreamPolicyKind::cflru(),
        };
        assert!(ok.validate().is_ok());
        // Leaf knobs are validated too.
        let bad_knob = StreamRouting {
            random: StreamPolicyKind::Cflru { window_pct: 0 },
            ..StreamRouting::default()
        };
        assert!(bad_knob.validate().is_err());
    }
}
