//! The pluggable cache-policy framework.
//!
//! The hybrid cache is split into a policy-agnostic *engine*
//! ([`crate::engine::CacheEngine`]) and a [`CachePolicy`] that owns every
//! *decision* the engine must make per block: whether a missing block may
//! be admitted, which resident block to displace when the cache is full,
//! and how a hit changes the block's standing. The engine keeps the
//! mechanism — shards, slot allocation, metadata, write-buffer accounting,
//! statistics and batched device submission — so one engine serves any
//! replacement algorithm.
//!
//! Shipped policies:
//!
//! * [`SemanticPriorityPolicy`] — the paper's selective allocation /
//!   selective eviction over per-priority LRU groups (the default),
//! * [`LruPolicy`] — a single classification-blind LRU stack,
//! * [`CflruPolicy`] — clean-first LRU: prefers evicting clean blocks to
//!   save write-backs (tunable clean-first window),
//! * [`TwoQPolicy`] — scan-resistant 2Q with a probationary FIFO and a
//!   ghost list (tunable `Kin`/`Kout`),
//! * [`ArcPolicy`] — adaptive replacement: two resident LRU lists backed
//!   by two [`GhostList`]s and a self-tuning recency/frequency target,
//! * [`PerStreamPolicy`] — a compositor that keeps the semantic policy
//!   for scans, temporary data and buffered updates and gives random
//!   point reads to ARC, so a mixed workload gets the better algorithm
//!   per stream.
//!
//! A policy instance is **per shard**: the engine builds one via
//! [`CachePolicyKind::build`] (or a custom factory) for each of its
//! shards and keeps it behind that shard's lock, so implementations need
//! no internal synchronisation — only to be `Send + Sync`, which plain
//! data is. It holds the instance as a [`ShardPolicy`]: the shipped
//! policies are variants of that enum and dispatch statically, and a
//! custom policy rides in [`ShardPolicy::Custom`] behind one indirect
//! call per method.

mod arc;
mod cflru;
mod ghost;
mod lru;
mod per_stream;
mod semantic;
mod shard_policy;
mod two_q;

pub use arc::ArcPolicy;
pub use cflru::CflruPolicy;
pub use ghost::GhostList;
pub use lru::LruPolicy;
pub use per_stream::PerStreamPolicy;
pub use semantic::SemanticPriorityPolicy;
pub use shard_policy::ShardPolicy;
pub use two_q::TwoQPolicy;

/// The write buffer's group: the priority `WriteBuffer` requests resolve
/// to, and the only group a policy that [`CachePolicy::buffers_writes`]
/// buffers.
pub(crate) const WRITE_BUFFER_GROUP: CachePriority = CachePriority(0);

use hstorage_storage::{
    BlockAddr, CachePriority, Direction, PolicyConfig, QosPolicy, RequestClass,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The per-block view of a request that a policy decides on: the I/O
/// direction, the request class the DBMS derived from semantic
/// information, the QoS policy the request carries, and the caching
/// priority it resolves to under the active [`PolicyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRequest {
    /// Read or write.
    pub direction: Direction,
    /// The request class (stream) the DBMS classified the request into —
    /// what [`PerStreamPolicy`] routes on.
    pub class: RequestClass,
    /// The QoS policy attached to the request by the DBMS storage manager.
    pub qos: QosPolicy,
    /// The priority the QoS policy resolves to (write buffer = 0).
    pub prio: CachePriority,
}

/// What a hit did to the block's residency bookkeeping, which the engine
/// must mirror in its metadata and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitOutcome {
    /// The block stayed in its group (possibly refreshed in recency).
    Unchanged,
    /// The block moved to a new priority group: the engine updates the
    /// metadata label, the write-buffer accounting and records a
    /// re-allocation.
    Moved(CachePriority),
}

/// Why a resident block left the engine — the lifetime hint
/// [`CachePolicy::on_remove`] receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoveReason {
    /// A TRIM invalidated the block: its lifetime has **ended** and the
    /// address may be re-used for unrelated data. History-keeping policies
    /// must forget everything about the address (like the semantic
    /// policy's end-of-lifetime handling of `NonCachingEviction` data).
    Trim,
    /// The engine displaced the block — it was selected by
    /// [`CachePolicy::pop_victim`] (its own policy's or, under the
    /// per-stream compositor, the other inner's), swept up by a
    /// write-buffer drain or demoted by a migration round — and
    /// its slot was released. The address is still live, so ghost-keeping
    /// policies may remember it exactly as they would one of their own
    /// evictions.
    Evict,
}

/// A cache-replacement algorithm: the decision half of the hybrid cache.
///
/// The trait is `Send + Sync`: each instance lives inside its shard's
/// reader-writer lock, mutated only under the write lock (`&mut self`) and
/// shared between readers of that lock (`&self`).
///
/// The engine calls exactly one method per block event and mirrors the
/// outcome in its own metadata; the policy keeps whatever ordering
/// structures it needs (LRU lists, FIFO queues, ghost lists) consistent
/// with the engine's resident set:
///
/// * every block passed to [`CachePolicy::on_insert`] is tracked until the
///   engine announces its removal via [`CachePolicy::on_remove`] — with
///   [`RemoveReason::Trim`] when a TRIM invalidates it, with
///   [`RemoveReason::Evict`] when the engine releases the slot itself;
/// * [`CachePolicy::pop_victim`] and [`CachePolicy::drain_write_buffer`]
///   are **selection-only**: they name tracked blocks without untracking
///   them — the follow-up `on_remove` call does that, exactly once per
///   block.
///
/// # Node handles
///
/// The engine's block table is the only address index of resident blocks
/// (the paper's one hash table of cached blocks, Section 5.2): the
/// `u32` that [`CachePolicy::on_insert`] returns beside the group label is
/// stored in the block's table slot and handed back, unchanged, to every
/// later [`CachePolicy::on_hit`] and to the [`CachePolicy::on_remove`]
/// that retires the block. The shipped policies return the index of the
/// block's list node and move that node between their own lists, so a hit
/// or a removal reaches the node without a lookup of their own. A policy
/// that would rather keep its own index returns
/// [`NO_NODE`](crate::table::NO_NODE) and ignores the argument.
///
/// The handle also lets the engine start loading a block's node before
/// the hit that needs it: [`CachePolicy::prefetch_hit`] takes the handle a
/// request a few places ahead will pass to `on_hit`. It is a pure hint,
/// and the handle may be stale by the time it arrives. The list-based
/// policies answer it with [`ListArena::prefetch`](crate::arena::ListArena::prefetch).
///
/// # Dispatch
///
/// The engine holds each shard's policy as a [`ShardPolicy`]. The shipped
/// kinds are its variants, so their calls are a `match` and a direct call
/// the compiler may inline; a custom policy is boxed in
/// [`ShardPolicy::Custom`] and pays one indirect call per method. The
/// enum forwards every method, the defaulted ones too, so a policy's
/// overrides hold however it is dispatched.
///
/// # Worked example: a custom FIFO policy
///
/// A policy that evicts in plain insertion order — no recency, no
/// semantics — plugs into the engine through
/// [`CacheEngine::with_policy_factory`](crate::engine::CacheEngine::with_policy_factory).
/// It keeps its own queue, so it needs no node handle:
///
/// ```
/// use hstorage_cache::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason};
/// use hstorage_cache::table::NO_NODE;
/// use hstorage_cache::{CacheEngine, StorageConfig, StorageConfigKind, StorageSystem};
/// use hstorage_storage::{
///     BlockAddr, BlockRange, CachePriority, ClassifiedRequest, IoRequest, QosPolicy,
///     RequestClass,
/// };
/// use std::collections::VecDeque;
///
/// #[derive(Default)]
/// struct FifoPolicy {
///     queue: VecDeque<BlockAddr>,
/// }
///
/// impl CachePolicy for FifoPolicy {
///     fn on_hit(
///         &mut self,
///         _lbn: BlockAddr,
///         _node: u32,
///         _current: CachePriority,
///         _req: &PolicyRequest,
///     ) -> HitOutcome {
///         HitOutcome::Unchanged // FIFO ignores recency entirely
///     }
///
///     fn admits(&self, _req: &PolicyRequest) -> bool {
///         true // admit everything, like the classical baselines
///     }
///
///     fn pop_victim(&mut self, _incoming: BlockAddr, _req: &PolicyRequest) -> Option<BlockAddr> {
///         // Selection only: the engine follows up with `on_remove`
///         // below, which dequeues the block.
///         self.queue.front().copied()
///     }
///
///     fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
///         self.queue.push_back(lbn);
///         // The label is informational for FIFO; the queue is its own
///         // index, so there is no node handle to store.
///         (req.prio, NO_NODE)
///     }
///
///     fn on_remove(
///         &mut self,
///         lbn: BlockAddr,
///         _node: u32,
///         _group: CachePriority,
///         _reason: RemoveReason,
///     ) {
///         self.queue.retain(|&b| b != lbn);
///     }
/// }
///
/// // A two-slot FIFO cache: the third insert evicts the *first* block,
/// // even though it was touched more recently than the second.
/// let engine = CacheEngine::new(&StorageConfig::new(StorageConfigKind::HStorageDb, 2))
///     .with_policy_factory("fifo", |_shard_capacity| Box::<FifoPolicy>::default());
/// let read = |lbn: u64| {
///     ClassifiedRequest::new(
///         IoRequest::read(BlockRange::new(lbn, 1), false),
///         RequestClass::Random,
///         QosPolicy::priority(2),
///     )
/// };
/// engine.submit(read(10));
/// engine.submit(read(11));
/// engine.submit(read(10)); // hit — FIFO order unchanged
/// engine.submit(read(12)); // full: evicts block 10, the oldest insert
/// assert_eq!(engine.name(), "fifo");
/// assert!(!engine.contains_block(BlockAddr(10)));
/// assert!(engine.contains_block(BlockAddr(11)));
/// assert!(engine.contains_block(BlockAddr(12)));
/// ```
pub trait CachePolicy: Send + Sync {
    /// Called when `lbn` (tracked at `node`, currently labelled `current`)
    /// is hit. The policy refreshes its internal ordering and reports
    /// whether the block moved to a different group; its node handle must
    /// stay the same.
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome;

    /// Whether a block missing from the cache may be admitted at all under
    /// this request. Returning `false` bypasses the cache (the transfer
    /// goes straight to the second-level device).
    ///
    /// A pure query of `&self` — no interior mutability — whose answer
    /// may change only through a `&mut self` call. The engine relies on
    /// it: once `admits` refuses a block of a request, it may settle that
    /// request's following absent blocks on the shard as refused without
    /// asking again, until the next `&mut self` call (a hit, an
    /// insertion). So it asks at most once per run of one request's
    /// absent blocks.
    fn admits(&self, req: &PolicyRequest) -> bool;

    /// Whether a *repeat* hit is a no-op: calling [`CachePolicy::on_hit`]
    /// twice in a row with identical arguments (same block, same label,
    /// same request shape, no other policy event in between) leaves the
    /// policy in exactly the state the first call produced, and returns
    /// [`HitOutcome::Unchanged`] the second time.
    ///
    /// Policies declaring `true` opt their blocks into the engine's
    /// repeat-hit shortcut: a single-block read that repeats the
    /// immediately preceding hit on its shard is served from the shard's
    /// hot descriptor — statistics and device timing recorded, policy
    /// untouched, no table probe. That is only sound when the skipped
    /// `on_hit` is provably a no-op, which is exactly this contract. Every shipped policy satisfies it (an LRU touch of
    /// the block that is already most-recent does not reorder anything);
    /// the conservative default is `false`, so custom policies keep the
    /// always-locked behaviour unless they opt in.
    fn repeat_hit_idempotent(&self) -> bool {
        false
    }

    /// Whether requests of `req`'s shape are *inert*: the policy promises
    /// that for them
    ///
    /// * [`CachePolicy::admits`] answers `false`, and
    /// * [`CachePolicy::on_hit`] returns [`HitOutcome::Unchanged`] and
    ///   mutates nothing, for any resident block.
    ///
    /// A pure query of the request shape alone: the answer may not depend
    /// on the policy's state, so the engine asks once per request and
    /// shard visit. A multi-block read of an inert shape then makes no
    /// policy call for its blocks at all — each is served from the block
    /// table alone, a resident block as a hit and an absent one as a
    /// bypass (the paper's "non-caching and non-eviction" scans, Table 1).
    /// The conservative default is `false`, which keeps every block on the
    /// full placement path.
    fn is_inert(&self, req: &PolicyRequest) -> bool {
        let _ = req;
        false
    }

    /// Starts loading what an [`CachePolicy::on_hit`] of the block at
    /// `node` reads first: the node itself, or with `neighbours` the
    /// nodes linked beside it, which a move within its list writes. The
    /// engine calls it for requests a few places ahead of the one it
    /// serves, so the loads overlap that request's work.
    ///
    /// A pure hint of `&self`: it changes nothing the policy or the engine
    /// can observe — no order, no victim, no counter — and it must accept
    /// any handle, including one whose block has since left and whose
    /// node was recycled, and [`NO_NODE`](crate::table::NO_NODE). The
    /// default does nothing.
    #[inline]
    fn prefetch_hit(&self, node: u32, neighbours: bool) {
        let _ = (node, neighbours);
    }

    /// The shard is full and `incoming` (the missing block of `req`) was
    /// admitted: name the tracked block to displace, or `None` if the
    /// incoming block is not worth a resident one (the request then
    /// bypasses the cache). This is **selection-only** — the policy keeps
    /// tracking the named block until the engine completes the eviction
    /// with [`CachePolicy::on_remove`] and [`RemoveReason::Evict`]. Most
    /// policies ignore `incoming`; ARC consults its ghost lists for it to
    /// bias the recency/frequency trade-off of its `REPLACE` step.
    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr>;

    /// `lbn` was just allocated a slot: start tracking it. Returns the
    /// group label the engine records for the block (and hands back via
    /// `current` on later hits) and the node handle it stores beside it
    /// (see [Node handles](CachePolicy#node-handles)).
    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32);

    /// `lbn` (tracked at `node`, labelled `group`) is gone from the
    /// engine's resident set: stop tracking it. `reason` says why, so
    /// policies can exploit lifetime hints — a [`RemoveReason::Trim`]
    /// means the address is dead and any ghost history for it must be
    /// dropped, while a [`RemoveReason::Evict`] completes a displacement
    /// the policy (or the per-stream compositor's steal) selected, which
    /// ghost-keeping policies may remember like one of their own
    /// evictions.
    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason);

    /// A TRIM invalidated `lbn` while it was **not** resident. The block's
    /// lifetime has ended and its address may be re-used for unrelated
    /// data, so policies that keep history about non-resident addresses
    /// (e.g. 2Q's ghost list) must forget it. Most policies keep no such
    /// history; the default does nothing.
    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        let _ = lbn;
    }

    /// Whether the policy keeps the engine's write buffer: when it does,
    /// exactly the blocks labelled group 0 — the priority `WriteBuffer`
    /// requests resolve to — occupy the buffer, count against its limit
    /// and leave through its drain. Only the semantic policy (and the
    /// per-stream compositor, through its semantic inner) buffers writes;
    /// the baselines treat buffered updates as ordinary cached writes.
    fn buffers_writes(&self) -> bool {
        false
    }

    /// Name every write-buffered block (called by the engine when the
    /// buffer exceeds its share of the cache). Selection-only, like
    /// [`CachePolicy::pop_victim`]: the engine completes each removal via
    /// [`CachePolicy::on_remove`] with [`RemoveReason::Evict`]. Policies
    /// without a write buffer return nothing.
    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        Vec::new()
    }

    /// Checks the policy's own structures against their invariants and
    /// returns the first one broken — for tests, not for a hot path (it
    /// may read every node). [`CacheEngine::audit`](crate::engine::CacheEngine::audit)
    /// calls it for every shard. The default checks nothing.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Which [`CachePolicy`] the cache engine runs — the configuration-level
/// selector threaded from `StorageConfig` / `SystemConfig` down to the
/// engine. The tunable policies carry their knobs as variant fields
/// (validated by [`CachePolicyKind::validate`]); the bare constructors
/// ([`CachePolicyKind::cflru`], [`CachePolicyKind::two_q`]) fill in the
/// paper-exact defaults, so a configuration that never touches a knob
/// behaves bit-identically to the pre-knob framework.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// The paper's semantic, priority-driven policy (selective allocation
    /// and eviction). The default.
    #[default]
    SemanticPriority,
    /// Classification-blind single-stack LRU.
    Lru,
    /// Clean-first LRU: prefers clean victims within a window of the LRU
    /// end to save dirty write-backs.
    Cflru {
        /// Clean-first window as an integer percentage of the shard
        /// capacity, in `1..=100`. Default
        /// ([`CflruPolicy::DEFAULT_WINDOW_PCT`]): 25.
        window_pct: u8,
    },
    /// Scan-resistant 2Q: probationary FIFO + ghost list + main LRU.
    TwoQ {
        /// Probationary-queue (`A1in`) target as an integer percentage of
        /// the shard capacity, in `1..=100`. Default
        /// ([`TwoQPolicy::DEFAULT_KIN_PCT`]): 25.
        kin_pct: u8,
        /// Ghost-list (`A1out`) capacity as an integer percentage of the
        /// shard capacity, in `1..=200` (the ghost directory may exceed
        /// the resident capacity — it holds addresses, not blocks).
        /// Default ([`TwoQPolicy::DEFAULT_KOUT_PCT`]): 50.
        kout_pct: u8,
    },
    /// Adaptive replacement (ARC): recency and frequency lists with ghost
    /// directories and a self-tuning balance — no knobs by design.
    Arc,
    /// The [`PerStreamPolicy`] compositor: the semantic policy for scans,
    /// temporary data and buffered updates, ARC for random point reads.
    PerStream,
}

impl CachePolicyKind {
    /// All selectable policies (with default knobs), semantic first.
    pub fn all() -> [CachePolicyKind; 6] {
        [
            CachePolicyKind::SemanticPriority,
            CachePolicyKind::Lru,
            CachePolicyKind::cflru(),
            CachePolicyKind::two_q(),
            CachePolicyKind::Arc,
            CachePolicyKind::PerStream,
        ]
    }

    /// CFLRU with the default clean-first window (25% — the PR-4-exact
    /// value).
    pub fn cflru() -> CachePolicyKind {
        CachePolicyKind::Cflru {
            window_pct: CflruPolicy::DEFAULT_WINDOW_PCT,
        }
    }

    /// 2Q with the 2Q paper's recommended fractions (`Kin` 25%, `Kout`
    /// 50% — the PR-4-exact values).
    pub fn two_q() -> CachePolicyKind {
        CachePolicyKind::TwoQ {
            kin_pct: TwoQPolicy::DEFAULT_KIN_PCT,
            kout_pct: TwoQPolicy::DEFAULT_KOUT_PCT,
        }
    }

    /// Short lower-case label for reports, bench IDs and the CI policy
    /// matrix. The label identifies the policy *family*; knob values are
    /// rendered by [`CachePolicyKind::describe`].
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicyKind::SemanticPriority => "semantic-priority",
            CachePolicyKind::Lru => "lru",
            CachePolicyKind::Cflru { .. } => "cflru",
            CachePolicyKind::TwoQ { .. } => "2q",
            CachePolicyKind::Arc => "arc",
            CachePolicyKind::PerStream => "per-stream",
        }
    }

    /// Parses a [`CachePolicyKind::label`] back into a kind with default
    /// knobs — how the CI policy-matrix env var selects a policy.
    pub fn from_label(label: &str) -> Option<CachePolicyKind> {
        Some(match label {
            "semantic-priority" => CachePolicyKind::SemanticPriority,
            "lru" => CachePolicyKind::Lru,
            "cflru" => CachePolicyKind::cflru(),
            "2q" => CachePolicyKind::two_q(),
            "arc" => CachePolicyKind::Arc,
            "per-stream" => CachePolicyKind::PerStream,
            _ => return None,
        })
    }

    /// The label plus the knob values in force, e.g. `2q(kin=25%,kout=50%)`
    /// — what the ablation reports print.
    pub fn describe(&self) -> String {
        match self {
            CachePolicyKind::Cflru { window_pct } => format!("cflru(window={window_pct}%)"),
            CachePolicyKind::TwoQ { kin_pct, kout_pct } => {
                format!("2q(kin={kin_pct}%,kout={kout_pct}%)")
            }
            other => other.label().to_string(),
        }
    }

    /// The storage-system display name of an engine running this policy.
    /// The semantic default keeps the paper's "hStorage-DB" label.
    pub fn system_name(&self) -> &'static str {
        match self {
            CachePolicyKind::SemanticPriority => "hStorage-DB",
            CachePolicyKind::Lru => "hybrid-lru",
            CachePolicyKind::Cflru { .. } => "hybrid-cflru",
            CachePolicyKind::TwoQ { .. } => "hybrid-2q",
            CachePolicyKind::Arc => "hybrid-arc",
            CachePolicyKind::PerStream => "hybrid-per-stream",
        }
    }

    /// Validates the knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            CachePolicyKind::Cflru { window_pct } if !(1..=100).contains(&window_pct) => Err(
                format!("CFLRU window_pct = {window_pct} must be in 1..=100"),
            ),
            CachePolicyKind::TwoQ { kin_pct, .. } if !(1..=100).contains(&kin_pct) => {
                Err(format!("2Q kin_pct = {kin_pct} must be in 1..=100"))
            }
            CachePolicyKind::TwoQ { kout_pct, .. } if !(1..=200).contains(&kout_pct) => {
                Err(format!("2Q kout_pct = {kout_pct} must be in 1..=200"))
            }
            _ => Ok(()),
        }
    }

    /// Builds one per-shard policy instance for a shard managing
    /// `shard_capacity` cache slots, as the [`ShardPolicy`] variant of
    /// its kind (never [`ShardPolicy::Custom`]). Windows and ghost
    /// capacities are sized against the shard capacity.
    pub fn build(&self, config: &PolicyConfig, shard_capacity: u64) -> ShardPolicy {
        match *self {
            CachePolicyKind::SemanticPriority => {
                ShardPolicy::Semantic(SemanticPriorityPolicy::new(*config))
            }
            CachePolicyKind::Lru => ShardPolicy::Lru(LruPolicy::new()),
            CachePolicyKind::Cflru { window_pct } => {
                ShardPolicy::Cflru(CflruPolicy::with_window(shard_capacity, window_pct))
            }
            CachePolicyKind::TwoQ { kin_pct, kout_pct } => {
                ShardPolicy::TwoQ(TwoQPolicy::with_knobs(shard_capacity, kin_pct, kout_pct))
            }
            CachePolicyKind::Arc => ShardPolicy::Arc(ArcPolicy::new(shard_capacity)),
            CachePolicyKind::PerStream => {
                ShardPolicy::PerStream(PerStreamPolicy::new(*config, shard_capacity))
            }
        }
    }
}

impl fmt::Display for CachePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The engine's side of the node-handle contract, for unit tests that
/// drive one policy directly: remembers each resident block's node handle
/// and group label by address and hands them back, the way the block
/// table does.
#[cfg(test)]
pub(crate) struct Tracked<P> {
    pub(crate) policy: P,
    slots: std::collections::HashMap<BlockAddr, (u32, CachePriority)>,
}

#[cfg(test)]
impl<P: CachePolicy> Tracked<P> {
    pub(crate) fn new(policy: P) -> Self {
        Tracked {
            policy,
            slots: std::collections::HashMap::new(),
        }
    }

    /// `on_insert`, remembering the node and label.
    pub(crate) fn insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> CachePriority {
        let (group, node) = self.policy.on_insert(lbn, req);
        assert!(
            self.slots.insert(lbn, (node, group)).is_none(),
            "{lbn:?} inserted twice"
        );
        group
    }

    /// `on_hit` with the remembered node and label, mirroring a move.
    pub(crate) fn hit(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> HitOutcome {
        let (node, group) = self.slots[&lbn];
        let outcome = self.policy.on_hit(lbn, node, group, req);
        if let HitOutcome::Moved(new) = outcome {
            self.slots.insert(lbn, (node, new));
        }
        outcome
    }

    /// `on_remove` of a resident block; absent blocks are ignored, as the
    /// engine never reports them.
    pub(crate) fn remove(&mut self, lbn: BlockAddr, reason: RemoveReason) {
        if let Some((node, group)) = self.slots.remove(&lbn) {
            self.policy.on_remove(lbn, node, group, reason);
        }
    }

    /// The engine's eviction: select a victim for `incoming`, then retire
    /// it with [`RemoveReason::Evict`].
    pub(crate) fn evict_for(
        &mut self,
        incoming: BlockAddr,
        req: &PolicyRequest,
    ) -> Option<BlockAddr> {
        let victim = self.policy.pop_victim(incoming, req)?;
        self.remove(victim, RemoveReason::Evict);
        Some(victim)
    }

    /// [`Tracked::evict_for`] on behalf of an address no test uses.
    pub(crate) fn pop(&mut self, req: &PolicyRequest) -> Option<BlockAddr> {
        self.evict_for(BlockAddr(u64::MAX), req)
    }

    /// Whether `lbn` is resident.
    pub(crate) fn contains(&self, lbn: BlockAddr) -> bool {
        self.slots.contains_key(&lbn)
    }

    /// Number of resident blocks.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_names_are_unique() {
        let labels: std::collections::HashSet<_> =
            CachePolicyKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
        let names: std::collections::HashSet<_> = CachePolicyKind::all()
            .iter()
            .map(|k| k.system_name())
            .collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(
            CachePolicyKind::default(),
            CachePolicyKind::SemanticPriority
        );
        assert_eq!(CachePolicyKind::default().system_name(), "hStorage-DB");
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in CachePolicyKind::all() {
            assert_eq!(CachePolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(CachePolicyKind::from_label("no-such-policy"), None);
    }

    #[test]
    fn default_knob_constructors_match_the_pr4_constants() {
        assert_eq!(
            CachePolicyKind::cflru(),
            CachePolicyKind::Cflru { window_pct: 25 }
        );
        assert_eq!(
            CachePolicyKind::two_q(),
            CachePolicyKind::TwoQ {
                kin_pct: 25,
                kout_pct: 50
            }
        );
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        for kind in CachePolicyKind::all() {
            assert!(kind.validate().is_ok(), "{kind}");
        }
        assert!(CachePolicyKind::Cflru { window_pct: 0 }.validate().is_err());
        assert!(CachePolicyKind::Cflru { window_pct: 101 }
            .validate()
            .is_err());
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 0,
            kout_pct: 50
        }
        .validate()
        .is_err());
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 25,
            kout_pct: 201
        }
        .validate()
        .is_err());
        // In-range custom knobs pass.
        assert!(CachePolicyKind::TwoQ {
            kin_pct: 10,
            kout_pct: 150
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn describe_renders_the_knobs() {
        assert_eq!(
            CachePolicyKind::Cflru { window_pct: 40 }.describe(),
            "cflru(window=40%)"
        );
        assert_eq!(
            CachePolicyKind::TwoQ {
                kin_pct: 10,
                kout_pct: 80
            }
            .describe(),
            "2q(kin=10%,kout=80%)"
        );
        assert_eq!(CachePolicyKind::Arc.describe(), "arc");
    }

    /// One side of the purity check below: a policy and the engine's view
    /// of it, each resident block's node handle and label.
    struct Side {
        policy: ShardPolicy,
        slots: std::collections::HashMap<BlockAddr, (u32, CachePriority)>,
    }

    impl Side {
        /// The victim for a write-buffer insert, which every policy may
        /// displace anything for, retired as the engine would.
        fn evict(&mut self) -> Option<BlockAddr> {
            let req = PolicyRequest {
                direction: Direction::Write,
                class: RequestClass::Update,
                qos: QosPolicy::WriteBuffer,
                prio: CachePriority(0),
            };
            let victim = self.policy.pop_victim(BlockAddr(u64::MAX), &req)?;
            let (node, group) = self.slots.remove(&victim).expect("victim is resident");
            self.policy
                .on_remove(victim, node, group, RemoveReason::Evict);
            Some(victim)
        }
    }

    /// `prefetch_hit` is a pure hint for every kind: one of two twins is
    /// handed every node handle either has ever issued — live ones,
    /// retired ones whose nodes were recycled since, and `NO_NODE` — at
    /// both stages after every event, and the twins still name the same
    /// victim after every event and evict in the same order at the end,
    /// which runs through every list from its LRU end to its MRU end. The
    /// hinted twin passes its own `check()` after every event.
    #[test]
    fn prefetch_hit_changes_no_victim_and_no_list_order() {
        let config = PolicyConfig::paper_default();
        let shapes = [
            (
                Direction::Read,
                RequestClass::Random,
                QosPolicy::priority(2),
            ),
            (
                Direction::Read,
                RequestClass::Random,
                QosPolicy::priority(4),
            ),
            (
                Direction::Write,
                RequestClass::Random,
                QosPolicy::priority(3),
            ),
            (
                Direction::Read,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ),
            (
                Direction::Write,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ),
        ]
        .map(|(direction, class, qos)| PolicyRequest {
            direction,
            class,
            qos,
            prio: config.resolve(qos),
        });
        for kind in CachePolicyKind::all() {
            let side = || Side {
                policy: kind.build(&config, 16),
                slots: Default::default(),
            };
            let (mut hinted, mut plain) = (side(), side());
            let mut handles = std::collections::BTreeSet::from([crate::table::NO_NODE]);
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            for step in 0..3_000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let lbn = BlockAddr(rng % 40);
                let req = &shapes[(rng >> 8) as usize % shapes.len()];
                for side in [&mut hinted, &mut plain] {
                    match side.slots.get(&lbn).copied() {
                        Some((node, group)) if (rng >> 16) % 6 == 0 => {
                            side.slots.remove(&lbn);
                            side.policy.on_remove(lbn, node, group, RemoveReason::Trim);
                        }
                        Some((node, group)) => {
                            if let HitOutcome::Moved(new) =
                                side.policy.on_hit(lbn, node, group, req)
                            {
                                side.slots.insert(lbn, (node, new));
                            }
                        }
                        None => {
                            if !side.policy.admits(req)
                                || side.slots.len() == 16 && side.evict().is_none()
                            {
                                continue;
                            }
                            let (group, node) = side.policy.on_insert(lbn, req);
                            side.slots.insert(lbn, (node, group));
                        }
                    }
                }
                handles.extend(hinted.slots.values().map(|&(node, _)| node));
                for &node in &handles {
                    hinted.policy.prefetch_hit(node, false);
                    hinted.policy.prefetch_hit(node, true);
                }
                let victim = |side: &mut Side| side.policy.pop_victim(BlockAddr(u64::MAX), req);
                assert_eq!(
                    victim(&mut hinted),
                    victim(&mut plain),
                    "{kind}, step {step}"
                );
                assert_eq!(hinted.policy.check(), Ok(()), "{kind}, step {step}");
            }
            let drain = |side: &mut Side| std::iter::from_fn(|| side.evict()).collect::<Vec<_>>();
            let order = drain(&mut plain);
            assert!(
                order.len() > 8,
                "{kind}: only {} blocks resident",
                order.len()
            );
            assert_eq!(drain(&mut hinted), order, "{kind}");
            assert!(hinted.slots.is_empty() && plain.slots.is_empty(), "{kind}");
        }
    }

    #[test]
    fn build_constructs_every_kind() {
        let config = PolicyConfig::paper_default();
        for kind in CachePolicyKind::all() {
            let policy = kind.build(&config, 64);
            // Every freshly built policy admits a plain random read.
            let req = PolicyRequest {
                direction: Direction::Read,
                class: RequestClass::Random,
                qos: QosPolicy::priority(2),
                prio: CachePriority(2),
            };
            assert!(policy.admits(&req), "{kind}");
        }
    }
}
