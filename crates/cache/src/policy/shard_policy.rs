//! The policy a shard runs: a closed enum over the shipped algorithms plus
//! one boxed escape hatch for custom policies.
//!
//! A block the engine places makes several policy calls — `admits`,
//! `pop_victim`, `on_remove` and `on_insert` on a miss,
//! `on_hit` on a hit. Behind a `Box<dyn CachePolicy>` each is an indirect
//! call that nothing can inline. [`ShardPolicy`] names the shipped policies
//! as variants, so a call on a shipped kind is one `match` on the variant
//! followed by a direct, inlinable call; only
//! [`ShardPolicy::Custom`] — what
//! [`CacheEngine::with_policy_factory`](crate::engine::CacheEngine::with_policy_factory)
//! installs — still pays one indirect call per method.

use crate::policy::{
    ArcPolicy, CachePolicy, CflruPolicy, HitOutcome, LruPolicy, PerStreamPolicy, PolicyRequest,
    RemoveReason, SemanticPriorityPolicy, TwoQPolicy,
};
use hstorage_storage::{BlockAddr, CachePriority};

/// One shard's [`CachePolicy`], dispatched statically for every shipped
/// kind. [`CachePolicyKind::build`](crate::policy::CachePolicyKind::build)
/// never returns [`ShardPolicy::Custom`].
pub enum ShardPolicy {
    /// [`SemanticPriorityPolicy`], the paper's policy.
    Semantic(SemanticPriorityPolicy),
    /// [`LruPolicy`].
    Lru(LruPolicy),
    /// [`CflruPolicy`].
    Cflru(CflruPolicy),
    /// [`TwoQPolicy`].
    TwoQ(TwoQPolicy),
    /// [`ArcPolicy`].
    Arc(ArcPolicy),
    /// The [`PerStreamPolicy`] compositor of the semantic and ARC policies.
    PerStream(PerStreamPolicy),
    /// Any other policy, behind one indirect call per method.
    Custom(Box<dyn CachePolicy>),
}

/// Runs `$call` with `$p` bound to the policy inside `$policy`, whatever
/// its variant: the one place a method is forwarded.
macro_rules! dispatch {
    ($policy:expr, $p:ident => $call:expr) => {
        match $policy {
            ShardPolicy::Semantic($p) => $call,
            ShardPolicy::Lru($p) => $call,
            ShardPolicy::Cflru($p) => $call,
            ShardPolicy::TwoQ($p) => $call,
            ShardPolicy::Arc($p) => $call,
            ShardPolicy::PerStream($p) => $call,
            ShardPolicy::Custom($p) => $call,
        }
    };
}

// The compositor holds its ARC inner in a box: inline, the mix would be
// the largest variant and size the policy slot of every shard, whatever
// policy it runs.
const _: () = assert!(std::mem::size_of::<PerStreamPolicy>() <= std::mem::size_of::<ArcPolicy>());

// Every method is forwarded, the defaulted ones included: a default left
// to the trait would answer for the enum and hide the inner policy's
// override (a lost `is_inert` or `repeat_hit_idempotent` only costs
// speed, a lost `buffers_writes` changes the engine's decisions).
impl CachePolicy for ShardPolicy {
    #[inline]
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        dispatch!(self, p => p.on_hit(lbn, node, current, req))
    }

    #[inline]
    fn admits(&self, req: &PolicyRequest) -> bool {
        dispatch!(self, p => p.admits(req))
    }

    #[inline]
    fn repeat_hit_idempotent(&self) -> bool {
        dispatch!(self, p => p.repeat_hit_idempotent())
    }

    #[inline]
    fn is_inert(&self, req: &PolicyRequest) -> bool {
        dispatch!(self, p => p.is_inert(req))
    }

    #[inline]
    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        dispatch!(self, p => p.prefetch_hit(node, neighbours))
    }

    #[inline]
    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        dispatch!(self, p => p.pop_victim(incoming, req))
    }

    #[inline]
    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        dispatch!(self, p => p.on_insert(lbn, req))
    }

    #[inline]
    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        dispatch!(self, p => p.on_remove(lbn, node, group, reason))
    }

    #[inline]
    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        dispatch!(self, p => p.on_trim_absent(lbn))
    }

    #[inline]
    fn buffers_writes(&self) -> bool {
        dispatch!(self, p => p.buffers_writes())
    }

    #[inline]
    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        dispatch!(self, p => p.drain_write_buffer())
    }

    #[inline]
    fn check(&self) -> Result<(), String> {
        dispatch!(self, p => p.check())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CachePolicyKind;
    use hstorage_storage::{Direction, PolicyConfig, QosPolicy, RequestClass};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// A policy whose every method logs its name and answers what no
    /// default would: whether a call through [`ShardPolicy::Custom`]
    /// reached it shows in the log and in the answer.
    struct Probe(Arc<Mutex<Vec<&'static str>>>);

    impl Probe {
        fn log(&self, method: &'static str) {
            self.0.lock().unwrap().push(method);
        }
    }

    impl CachePolicy for Probe {
        fn on_hit(
            &mut self,
            _: BlockAddr,
            _: u32,
            _: CachePriority,
            _: &PolicyRequest,
        ) -> HitOutcome {
            self.log("on_hit");
            HitOutcome::Moved(CachePriority(3))
        }
        fn admits(&self, _: &PolicyRequest) -> bool {
            self.log("admits");
            true
        }
        fn repeat_hit_idempotent(&self) -> bool {
            self.log("repeat_hit_idempotent");
            true
        }
        fn is_inert(&self, _: &PolicyRequest) -> bool {
            self.log("is_inert");
            true
        }
        fn prefetch_hit(&self, _: u32, _: bool) {
            self.log("prefetch_hit");
        }
        fn pop_victim(&mut self, _: BlockAddr, _: &PolicyRequest) -> Option<BlockAddr> {
            self.log("pop_victim");
            Some(BlockAddr(1))
        }
        fn on_insert(&mut self, _: BlockAddr, _: &PolicyRequest) -> (CachePriority, u32) {
            self.log("on_insert");
            (CachePriority(4), 5)
        }
        fn on_remove(&mut self, _: BlockAddr, _: u32, _: CachePriority, _: RemoveReason) {
            self.log("on_remove");
        }
        fn on_trim_absent(&mut self, _: BlockAddr) {
            self.log("on_trim_absent");
        }
        fn buffers_writes(&self) -> bool {
            self.log("buffers_writes");
            true
        }
        fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
            self.log("drain_write_buffer");
            vec![BlockAddr(6)]
        }
        fn check(&self) -> Result<(), String> {
            self.log("check");
            Err("probe".into())
        }
    }

    fn request(
        config: &PolicyConfig,
        direction: Direction,
        class: RequestClass,
        qos: QosPolicy,
    ) -> PolicyRequest {
        PolicyRequest {
            direction,
            class,
            qos,
            prio: config.resolve(qos),
        }
    }

    /// Every call through `Custom` reaches the boxed policy exactly once
    /// and returns its answer — the defaulted methods included, which the
    /// trait would otherwise answer for the enum itself.
    #[test]
    fn custom_forwards_every_method_to_the_boxed_policy() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut shard = ShardPolicy::Custom(Box::new(Probe(Arc::clone(&log))));
        let req = request(
            &PolicyConfig::paper_default(),
            Direction::Read,
            RequestClass::Random,
            QosPolicy::priority(2),
        );
        let lbn = BlockAddr(9);
        let called = |method: &str| {
            let calls = std::mem::take(&mut *log.lock().unwrap());
            assert_eq!(calls, [method], "a call of `{method}`");
        };
        assert_eq!(
            shard.on_hit(lbn, 0, CachePriority(2), &req),
            HitOutcome::Moved(CachePriority(3))
        );
        called("on_hit");
        assert!(shard.admits(&req));
        called("admits");
        assert!(shard.repeat_hit_idempotent());
        called("repeat_hit_idempotent");
        assert!(shard.is_inert(&req));
        called("is_inert");
        shard.prefetch_hit(0, true);
        called("prefetch_hit");
        assert_eq!(shard.pop_victim(lbn, &req), Some(BlockAddr(1)));
        called("pop_victim");
        assert_eq!(shard.on_insert(lbn, &req), (CachePriority(4), 5));
        called("on_insert");
        shard.on_remove(lbn, 5, CachePriority(4), RemoveReason::Trim);
        called("on_remove");
        shard.on_trim_absent(lbn);
        called("on_trim_absent");
        assert!(shard.buffers_writes());
        called("buffers_writes");
        assert_eq!(shard.drain_write_buffer(), [BlockAddr(6)]);
        called("drain_write_buffer");
        assert_eq!(shard.check(), Err("probe".to_string()));
        called("check");
    }

    /// Every request shape the engine can hand a policy: each direction,
    /// class and QoS policy, numbered priorities from the write buffer's
    /// neighbour to the non-caching threshold.
    fn every_shape(config: &PolicyConfig) -> Vec<PolicyRequest> {
        let mut qos: Vec<QosPolicy> = (1..config.total_priorities - 1)
            .map(QosPolicy::priority)
            .collect();
        qos.extend([
            QosPolicy::WriteBuffer,
            QosPolicy::NonCachingNonEviction,
            QosPolicy::NonCachingEviction,
        ]);
        let mut shapes = Vec::new();
        for direction in [Direction::Read, Direction::Write] {
            for class in [
                RequestClass::Sequential,
                RequestClass::Random,
                RequestClass::TemporaryData,
                RequestClass::TemporaryDataTrim,
                RequestClass::Update,
            ] {
                for &qos in &qos {
                    shapes.push(request(config, direction, class, qos));
                }
            }
        }
        shapes
    }

    /// Drives `policy` as a 16-slot shard over 48 addresses and writes
    /// down every answer it gives: admission, inertness, the repeat-hit
    /// and write-buffer declarations, hit outcomes, victims, insert labels
    /// and handles, drained blocks and `check`.
    fn transcript<P: CachePolicy + ?Sized>(policy: &mut P, config: &PolicyConfig) -> Vec<String> {
        const SLOTS: usize = 16;
        let shapes = every_shape(config);
        let mut slots: HashMap<BlockAddr, (u32, CachePriority)> = HashMap::new();
        let mut out = Vec::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let lbn = BlockAddr(rng % 48);
            let req = &shapes[(rng >> 8) as usize % shapes.len()];
            out.push(format!(
                "admits {} inert {} repeat {} buffers {} check {:?}",
                policy.admits(req),
                policy.is_inert(req),
                policy.repeat_hit_idempotent(),
                policy.buffers_writes(),
                policy.check(),
            ));
            if let Some(&(node, _)) = slots.get(&lbn) {
                policy.prefetch_hit(node, rng & 1 == 0);
            }
            match ((rng >> 16) % 16, slots.get(&lbn).copied()) {
                (0, Some((node, group))) => {
                    slots.remove(&lbn);
                    policy.on_remove(lbn, node, group, RemoveReason::Trim);
                }
                (0, None) => policy.on_trim_absent(lbn),
                (1, _) => {
                    let drained = policy.drain_write_buffer();
                    out.push(format!("drain {drained:?}"));
                    for victim in drained {
                        let (node, group) =
                            slots.remove(&victim).expect("drained block is resident");
                        policy.on_remove(victim, node, group, RemoveReason::Evict);
                    }
                }
                (_, Some((node, group))) => {
                    let outcome = policy.on_hit(lbn, node, group, req);
                    out.push(format!("hit {outcome:?}"));
                    if let HitOutcome::Moved(new) = outcome {
                        slots.insert(lbn, (node, new));
                    }
                }
                (_, None) if policy.admits(req) => {
                    if slots.len() == SLOTS {
                        let victim = policy.pop_victim(lbn, req);
                        out.push(format!("victim {victim:?}"));
                        let Some(victim) = victim else { continue };
                        let (node, group) = slots.remove(&victim).expect("victim is resident");
                        policy.on_remove(victim, node, group, RemoveReason::Evict);
                    }
                    let (group, node) = policy.on_insert(lbn, req);
                    out.push(format!("insert {group:?} {node}"));
                    slots.insert(lbn, (node, group));
                }
                (_, None) => {}
            }
        }
        out
    }

    /// Every kind builds its own variant — never `Custom` — and that
    /// variant answers exactly as the bare policy over a mix of every
    /// request shape.
    #[test]
    fn each_shipped_variant_answers_as_its_bare_policy() {
        let config = PolicyConfig::paper_default();
        let cap = 16;
        for kind in CachePolicyKind::all() {
            let mut shard = kind.build(&config, cap);
            let mut bare: Box<dyn CachePolicy> = match (kind, &shard) {
                (CachePolicyKind::SemanticPriority, ShardPolicy::Semantic(_)) => {
                    Box::new(SemanticPriorityPolicy::new(config))
                }
                (CachePolicyKind::Lru, ShardPolicy::Lru(_)) => Box::new(LruPolicy::new()),
                (CachePolicyKind::Cflru { window_pct }, ShardPolicy::Cflru(_)) => {
                    Box::new(CflruPolicy::with_window(cap, window_pct))
                }
                (CachePolicyKind::TwoQ { kin_pct, kout_pct }, ShardPolicy::TwoQ(_)) => {
                    Box::new(TwoQPolicy::with_knobs(cap, kin_pct, kout_pct))
                }
                (CachePolicyKind::Arc, ShardPolicy::Arc(_)) => Box::new(ArcPolicy::new(cap)),
                (CachePolicyKind::PerStream, ShardPolicy::PerStream(_)) => {
                    Box::new(PerStreamPolicy::new(config, cap))
                }
                _ => panic!("{kind} built the wrong variant"),
            };
            let want = transcript(&mut *bare, &config);
            let got = transcript(&mut shard, &config);
            assert!(
                want.iter().any(|line| line.starts_with("victim Some")),
                "{kind}: the mix never evicts"
            );
            assert_eq!(got.len(), want.len(), "{kind}");
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "{kind}, answer {i}");
            }
        }
    }
}
