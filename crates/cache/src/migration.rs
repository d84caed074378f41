//! Online tier migration: heat tracking and background promote/demote.
//!
//! hStorage-DB assigns a block's tier once, at admission, from the QoS
//! policy the DBMS attached to the request — and only TRIM ever moves data
//! afterwards. The premise of the SSD/HDD cost asymmetry, however, is that
//! placement should track *observed* access value, not a one-shot guess.
//! This module adds the missing feedback loop:
//!
//! * a per-shard [`HeatTracker`] — decayed access counters fed from the
//!   engine's existing hit/miss events (repeat hits served by the
//!   shard's hot descriptor are tallied on it and credited in bulk),
//!   cheap enough to ride the hot path;
//! * a background **migration round**, run by
//!   [`StorageSystem::migrate_idle`](crate::StorageSystem::migrate_idle)
//!   when enough *idle* simulated device time has accrued since the last
//!   round: cold SSD-resident blocks are demoted to the HDD and hot
//!   HDD-resident blocks are promoted into the freed SSD slots;
//! * **lazy migration-on-access** for blocks already queued: a hit on a
//!   demotion candidate cancels the demotion (the block just proved it is
//!   still hot), and an admitted miss on a promotion candidate *is* the
//!   promotion (the normal allocation path already moved the block).
//!
//! Migration stays policy-correct by construction: demotions flow through
//! the policy layer as [`RemoveReason::Evict`] — so ghost-keeping policies
//! (2Q, ARC) learn from them exactly as from their own evictions — and
//! promotions re-enter via the normal admission path (`admits` →
//! `on_insert`) using the request shape last observed for the block, so
//! every [`CachePolicy`] keeps a consistent view of the resident set.
//!
//! The knob set lives in [`MigrationConfig`]. The default is **off**,
//! which is bit-identical to the engine without this module: no heat is
//! tracked, no rounds run, and the equivalence suites pin that nothing
//! else changed.
//!
//! # Worked example
//!
//! A phase-shifting workload: a high-priority set fills the cache, then
//! the workload moves to a lower-priority set that selective allocation
//! refuses to admit over the old residents. With migration enabled, idle
//! rounds demote the now-cold residents and promote the observed-hot
//! blocks, and the counters record the turnover:
//!
//! ```
//! use hstorage_cache::{
//!     CacheEngine, MigrationConfig, StorageConfig, StorageConfigKind, StorageSystem,
//! };
//! use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
//! use std::time::Duration;
//!
//! let cache = CacheEngine::new(
//!     &StorageConfig::new(StorageConfigKind::HStorageDb, 32).with_migration(
//!         MigrationConfig::on()
//!             .with_half_life_rounds(4)
//!             .with_idle_threshold(Duration::from_micros(100))
//!             .with_round_budget(16),
//!     ),
//! );
//! let read = |lbn: u64, prio: u8| {
//!     ClassifiedRequest::new(
//!         IoRequest::read(BlockRange::new(lbn, 1), false),
//!         RequestClass::Random,
//!         QosPolicy::priority(prio),
//!     )
//! };
//! // Phase 1: a priority-2 set fills the cache.
//! for pass in 0..4 {
//!     for lbn in 0..32u64 {
//!         cache.submit(read(lbn, 2));
//!     }
//! }
//! // Phase 2: the workload shifts to a priority-3 set. Selective
//! // allocation refuses to displace the higher-priority residents, so
//! // without migration these blocks would bypass forever; idle rounds
//! // between passes promote them by observed heat instead.
//! for pass in 0..12 {
//!     for lbn in 1_000..1_032u64 {
//!         cache.submit(read(lbn, 3));
//!     }
//!     cache.migrate_idle();
//! }
//! let stats = cache.migration_stats();
//! assert!(stats.rounds > 0, "idle rounds must have run");
//! assert!(stats.promoted > 0, "the hot phase-2 set must be promoted");
//! assert!(stats.demoted > 0, "the cold phase-1 set must make room");
//! assert!(cache.contains_block(hstorage_storage::BlockAddr(1_000)));
//! ```

use crate::policy::{CachePolicy, PolicyRequest, RemoveReason};
use crate::shard::{DeviceBatch, Shard, ShardState};
use crate::table::BlockState;
use hstorage_storage::{BlockAddr, CachePriority, Direction};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Knob set of the online tier-migration engine. The default is **off**:
/// a disabled configuration tracks no heat and runs no rounds, leaving the
/// engine bit-identical to one built without migration.
///
/// See the [module docs](self) for a worked end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Master switch. Off (the default) means no heat tracking, no
    /// rounds, and zero behavioural difference to the pre-migration
    /// engine.
    pub enabled: bool,
    /// Every how many migration rounds the heat counters are halved.
    /// Smaller values forget faster (placement chases the current phase);
    /// larger values favour long-lived heat. Must be at least 1.
    pub half_life_rounds: u32,
    /// How much *new* idle simulated device time (summed over both
    /// devices) must have accrued since the last executed round before
    /// the next round may run; until then
    /// [`migrate_idle`](crate::StorageSystem::migrate_idle) is counted as
    /// a skipped round. Zero runs a round on every call — useful in
    /// tests, too eager for production.
    pub idle_threshold: Duration,
    /// Maximum number of blocks one round may move (promotions plus
    /// demotions, over all shards of the engine combined the budget is
    /// per-shard). Candidates beyond the budget are queued for the lazy
    /// window until the next round. Must be at least 1.
    pub round_budget: usize,
}

impl MigrationConfig {
    /// The disabled configuration (same as `Default`).
    pub fn off() -> Self {
        MigrationConfig::default()
    }

    /// An enabled configuration with the default knob values
    /// (half-life 4 rounds, 500 µs idle threshold, 64-block budget).
    pub fn on() -> Self {
        MigrationConfig {
            enabled: true,
            ..MigrationConfig::default()
        }
    }

    /// Overrides the heat half-life.
    pub fn with_half_life_rounds(mut self, rounds: u32) -> Self {
        self.half_life_rounds = rounds;
        self
    }

    /// Overrides the idle-time threshold between rounds.
    pub fn with_idle_threshold(mut self, threshold: Duration) -> Self {
        self.idle_threshold = threshold;
        self
    }

    /// Overrides the per-round migration budget.
    pub fn with_round_budget(mut self, budget: usize) -> Self {
        self.round_budget = budget;
        self
    }

    /// Checks the knob ranges (`half_life_rounds >= 1`,
    /// `round_budget >= 1`).
    pub fn validate(&self) -> Result<(), String> {
        if self.half_life_rounds == 0 {
            return Err("migration half_life_rounds must be at least 1".into());
        }
        if self.round_budget == 0 {
            return Err("migration round_budget must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            enabled: false,
            half_life_rounds: 4,
            idle_threshold: Duration::from_micros(500),
            round_budget: 64,
        }
    }
}

/// Counters of the migration engine, separate from
/// [`CacheStats`](crate::CacheStats) on purpose: migration activity is
/// background work, and keeping it out of the per-action cache statistics
/// keeps those bit-comparable between migration-on and migration-off runs
/// of the same foreground traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Rounds that actually ran.
    pub rounds: u64,
    /// [`migrate_idle`](crate::StorageSystem::migrate_idle) calls that ran
    /// no round (not enough new idle time, or another caller claimed the
    /// idle window).
    pub skipped_rounds: u64,
    /// Blocks moved HDD → SSD by a round.
    pub promoted: u64,
    /// Blocks moved SSD → HDD by a round.
    pub demoted: u64,
    /// Queued promotion candidates that were admitted by a foreground
    /// access before the next round got to them.
    pub lazy_promotions: u64,
    /// Queued demotion candidates rescued by a foreground hit (the block
    /// proved it is still hot, so the demotion was dropped).
    pub cancelled_demotions: u64,
    /// Queued candidates (either direction) invalidated by a TRIM: the
    /// block's lifetime ended, so the queue entry — and all heat history —
    /// was discarded instead of resurrecting dead data.
    pub trim_cancellations: u64,
}

impl MigrationStats {
    /// Total blocks moved by background rounds (promotions + demotions).
    pub fn migrated(&self) -> u64 {
        self.promoted + self.demoted
    }

    /// Sums another counter set into this one.
    pub(crate) fn merge(&mut self, other: &MigrationStats) {
        self.rounds += other.rounds;
        self.skipped_rounds += other.skipped_rounds;
        self.promoted += other.promoted;
        self.demoted += other.demoted;
        self.lazy_promotions += other.lazy_promotions;
        self.cancelled_demotions += other.cancelled_demotions;
        self.trim_cancellations += other.trim_cancellations;
    }
}

/// Decayed per-block access counters: the "observed value" half of the
/// migration decision.
///
/// Every foreground access adds one unit of heat; every
/// [`MigrationConfig::half_life_rounds`] rounds the tracker decays,
/// halving all counters (dropping the ones that reach zero). A block's
/// heat never exceeds the raw number of accesses recorded for it, no
/// matter how record/decay interleave (decay only ever shrinks
/// counters); a property test pins it.
#[derive(Debug, Clone, Default)]
pub struct HeatTracker {
    counts: HashMap<BlockAddr, u64>,
    /// Reused sort scratch for [`HeatTracker::retain_hottest`], so the
    /// per-round cap does not reallocate a tracker-sized `Vec` every
    /// time. Excluded from equality: it is working memory, not state.
    scratch: Vec<(u64, BlockAddr)>,
}

/// Equality compares the tracked counters only — the reused sort scratch
/// is working memory and never observable.
impl PartialEq for HeatTracker {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
    }
}

impl Eq for HeatTracker {}

impl HeatTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        HeatTracker::default()
    }

    /// Records one access to `lbn`.
    pub fn record(&mut self, lbn: BlockAddr) {
        self.record_n(lbn, 1);
    }

    /// Records `n` accesses to `lbn` at once (how the repeat hits tallied
    /// on a hot descriptor are credited when it is replaced).
    pub fn record_n(&mut self, lbn: BlockAddr, n: u64) {
        if n == 0 {
            return;
        }
        let slot = self.counts.entry(lbn).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// The current heat of `lbn` (0 when untracked).
    pub fn heat(&self, lbn: BlockAddr) -> u64 {
        self.counts.get(&lbn).copied().unwrap_or(0)
    }

    /// Halves every counter, dropping blocks whose heat reaches zero.
    pub fn decay(&mut self) {
        self.counts.retain(|_, h| {
            *h >>= 1;
            *h > 0
        });
    }

    /// Forgets `lbn` entirely (its lifetime ended — TRIM).
    pub fn forget(&mut self, lbn: BlockAddr) {
        self.counts.remove(&lbn);
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates all `(lbn, heat)` pairs in unspecified order. Round logic
    /// sorts whatever it derives from this, so the map's iteration order
    /// never reaches an observable result.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockAddr, &u64)> {
        self.counts.iter()
    }

    /// Caps the tracker at the `cap` hottest blocks, breaking heat ties
    /// by lowest address (deterministic regardless of map order). A
    /// tracker already within the cap — the steady state between decay
    /// spikes — returns without touching the scratch buffer or sorting.
    pub fn retain_hottest(&mut self, cap: usize) {
        if self.counts.len() <= cap {
            return;
        }
        self.scratch.clear();
        self.scratch
            .extend(self.counts.iter().map(|(&l, &h)| (h, l)));
        // Hottest first; ties broken by the lower address surviving.
        self.scratch
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, lbn) in &self.scratch[cap..] {
            self.counts.remove(&lbn);
        }
        self.scratch.clear();
    }
}

/// Per-shard migration state, owned by the shard's lock alongside
/// the policy and the block table (it is decision state: every mutation
/// happens under the same lock as the policy calls it feeds).
pub(crate) struct ShardMigration {
    pub(crate) config: MigrationConfig,
    /// Decayed access counters over every block the shard has seen —
    /// resident or not — capped at [`Self::track_cap`] hottest entries.
    pub(crate) heat: HeatTracker,
    /// The request shape last observed per tracked block. Promotions
    /// synthesize their admission request from this (direction forced to
    /// `Read`: a promotion is a background fetch).
    pub(crate) shapes: HashMap<BlockAddr, PolicyRequest>,
    /// Absent blocks queued for promotion by the last round (candidates
    /// beyond the round budget). A foreground admitted miss resolves one
    /// lazily; a TRIM cancels it.
    ///
    /// Never names a resident block: a block enters only while absent,
    /// and both paths that make a block resident take it out right after
    /// [`Shard::admit`] — `Shard::place_block`, through
    /// [`Self::note_insert`], and a promotion of [`migration_round`].
    /// `CacheEngine::audit` checks this.
    pub(crate) pending_promote: HashSet<BlockAddr>,
    /// Resident blocks queued for demotion by the last round. A
    /// foreground hit cancels one (the block is still hot); a TRIM
    /// removes it together with the block.
    ///
    /// May name a block evicted since the last round — an eviction does
    /// not consult the queue — until the next round's `retain` prunes
    /// the blocks that are no longer resident.
    pub(crate) pending_demote: HashSet<BlockAddr>,
    /// Rounds run on this shard (drives the decay cadence).
    pub(crate) rounds: u64,
    /// Maximum heat entries kept (4× the shard's slot capacity, at least
    /// 64): enough to see beyond the resident set without letting a scan
    /// grow the tracker without bound.
    pub(crate) track_cap: usize,
    /// Reused scratch for the round's resident sweep, so a shard-sized
    /// `Vec` is not reallocated every migration round. Cleared before
    /// each use; contents between rounds are meaningless.
    pub(crate) resident_scratch: Vec<(u64, BlockAddr)>,
    /// Blocks this shard's rounds and foreground hooks moved or
    /// un-queued; `rounds` and `skipped_rounds` stay zero (the engine
    /// counts rounds once, not per shard).
    pub(crate) moves: MigrationStats,
}

impl ShardMigration {
    /// Creates the migration state for a shard with `capacity` slots.
    pub(crate) fn new(config: MigrationConfig, capacity: u64) -> Self {
        ShardMigration {
            config,
            heat: HeatTracker::new(),
            shapes: HashMap::new(),
            pending_promote: HashSet::new(),
            pending_demote: HashSet::new(),
            rounds: 0,
            track_cap: capacity.saturating_mul(4).clamp(64, 1 << 20) as usize,
            resident_scratch: Vec::new(),
            moves: MigrationStats::default(),
        }
    }

    /// Foreground access to `lbn`: one unit of heat, and the shape is
    /// remembered for a later promotion decision.
    pub(crate) fn note_access(&mut self, lbn: BlockAddr, req: &PolicyRequest) {
        self.heat.record(lbn);
        self.shapes.insert(lbn, *req);
    }

    /// A hit on `lbn`: if the block was queued for demotion, the queue
    /// entry is dropped — the hit just proved the block is still hot —
    /// and counted as a cancelled demotion.
    pub(crate) fn note_hit(&mut self, lbn: BlockAddr) {
        self.moves.cancelled_demotions += u64::from(self.pending_demote.remove(&lbn));
    }

    /// `lbn` was admitted and inserted by the foreground path: if it was
    /// queued for promotion, the normal allocation already performed the
    /// migration, counted as a lazy promotion.
    pub(crate) fn note_insert(&mut self, lbn: BlockAddr) {
        self.moves.lazy_promotions += u64::from(self.pending_promote.remove(&lbn));
    }

    /// A TRIM invalidated `lbn`: its lifetime ended, so heat, shape and
    /// any queued migration are discarded — an in-flight candidate must
    /// never resurrect dead data. Each cancelled queue entry (0, 1 or 2)
    /// is counted.
    pub(crate) fn note_trim(&mut self, lbn: BlockAddr) {
        self.heat.forget(lbn);
        self.shapes.remove(&lbn);
        self.moves.trim_cancellations += u64::from(self.pending_promote.remove(&lbn))
            + u64::from(self.pending_demote.remove(&lbn));
    }
}

/// Runs one tier-migration round on `shard` (no-op when migration is
/// disabled), adding the device traffic it generates to `batch`; the
/// engine issues that after the shard lock is released. Under the
/// caller's write lock the round:
///
/// 1. drops the hot descriptor — crediting the heat of the repeat hits
///    tallied against it, and sending the next hit through the queues
///    this round rebuilds — then advances the round counter, applies
///    decay on the half-life cadence and prunes the tracker;
/// 2. re-validates the pending promote/demote queues against current
///    residency;
/// 3. ranks residents coldest-first (write-buffered blocks excluded:
///    the buffer has its own drain lifecycle) and admissible absent
///    blocks hottest-first — both orders fully deterministic (heat,
///    then address), so the metadata map's iteration order never
///    reaches an observable decision;
/// 4. within the per-round budget, first promotes the hottest absents
///    into free slots, then demote/promote pairs — a cold resident
///    makes room for a strictly hotter absent block. Demotions leave
///    through [`Shard::retire`] with [`RemoveReason::Evict`] (ghost
///    directories learn); promotions pass `admits` and enter through
///    [`Shard::admit`] with the request shape last observed for the
///    block;
/// 5. queues the unconsumed candidates for the lazy window until the
///    next round.
///
/// The round deliberately records no
/// [`CacheAction`](crate::CacheAction): migration is background work,
/// and the per-action statistics stay bit-comparable between
/// migration-on and migration-off runs of identical foreground traffic.
pub(crate) fn migration_round(shard: &Shard, st: &mut ShardState, batch: &mut DeviceBatch) {
    shard.set_hot(st, None);
    // Out of the shard state for the round, so the shard's own insertion
    // and removal can take the rest of it; put back at the end.
    let Some(mut mig) = st.migration.take() else {
        return;
    };
    mig.rounds += 1;
    if mig.rounds % u64::from(mig.config.half_life_rounds) == 0 {
        mig.heat.decay();
    }
    mig.heat.retain_hottest(mig.track_cap);
    mig.shapes.retain(|lbn, _| mig.heat.heat(*lbn) > 0);
    mig.pending_demote.retain(|lbn| st.meta.contains(*lbn));
    mig.pending_promote
        .retain(|lbn| !st.meta.contains(*lbn) && mig.heat.heat(*lbn) > 0);

    let mut absents: Vec<(u64, BlockAddr, PolicyRequest)> = mig
        .heat
        .iter()
        .filter(|(lbn, heat)| **heat > 0 && !st.meta.contains(**lbn))
        .filter_map(|(lbn, h)| {
            let shape = mig.shapes.get(lbn)?;
            // A promotion is a background fetch, whatever direction the
            // remembered foreground access had.
            let preq = PolicyRequest {
                direction: Direction::Read,
                ..*shape
            };
            // Write-buffer shapes are excluded: promoting into the buffer
            // would grow occupancy in a visit that does not drain it.
            // Everything else must pass normal admission.
            if preq.prio == CachePriority(0) || !st.policy.admits(&preq) {
                return None;
            }
            Some((*h, *lbn, preq))
        })
        .collect();
    absents.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    // Residents are only consumed by the absents-gated pairing below, so a
    // round with no promotion candidate (the steady state of a stable
    // working set) skips the full metadata sweep and sort. The sweep
    // reuses the shard's scratch buffer instead of reallocating a
    // shard-sized Vec every round.
    let residents = &mut mig.resident_scratch;
    residents.clear();
    if !absents.is_empty() {
        residents.extend(
            st.meta
                .iter()
                .filter(|(_, slot)| !shard.buffered(slot.entry.priority))
                .map(|(lbn, _)| (mig.heat.heat(lbn), lbn)),
        );
        residents.sort_unstable();
    }

    // Free slots first: promotion without displacement. Once the shard is
    // full, demote/promote pairs: a cold resident makes room for a
    // strictly hotter absent block (ties never migrate — churn without
    // gain).
    let mut budget = mig.config.round_budget;
    let (mut next_absent, mut next_resident) = (0, 0);
    while let Some(&(absent_heat, lbn, preq)) = absents.get(next_absent) {
        if st.meta.len() < shard.capacity {
            if budget < 1 {
                break;
            }
            budget -= 1;
        } else {
            let Some(&(resident_heat, cold)) = residents.get(next_resident) else {
                break;
            };
            if budget < 2 || absent_heat <= resident_heat {
                break;
            }
            let entry = shard
                .retire(st, cold, RemoveReason::Evict)
                .expect("demotion candidate was checked resident");
            if entry.is_dirty() {
                batch.hdd_write += 1;
            }
            mig.pending_demote.remove(&cold);
            mig.moves.demoted += 1;
            next_resident += 1;
            budget -= 2;
        }
        // One promotion: fetch from HDD, place in SSD, clean, through the
        // policy's normal insertion path.
        shard.admit(st, lbn, &preq, BlockState::Clean);
        batch.hdd_read += 1;
        batch.ssd_write += 1;
        mig.pending_promote.remove(&lbn);
        mig.moves.promoted += 1;
        next_absent += 1;
    }

    // Queue what the budget did not cover for the lazy window: an admitted
    // miss resolves a queued promotion, a hit rescues a queued demotion, a
    // TRIM cancels either.
    let budget = mig.config.round_budget;
    for (_, lbn, _) in absents.iter().skip(next_absent).take(budget) {
        mig.pending_promote.insert(*lbn);
    }
    let pairs = absents[next_absent..]
        .iter()
        .zip(&residents[next_resident..]);
    for (_, &(_, cold)) in pairs.take(budget).take_while(|(a, r)| a.0 > r.0) {
        mig.pending_demote.insert(cold);
    }
    st.migration = Some(mig);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_off_and_valid() {
        let config = MigrationConfig::default();
        assert!(!config.enabled);
        assert!(config.validate().is_ok());
        assert_eq!(config, MigrationConfig::off());
        assert!(MigrationConfig::on().enabled);
    }

    #[test]
    fn zero_half_life_is_rejected() {
        let config = MigrationConfig::on().with_half_life_rounds(0);
        assert_eq!(
            config.validate(),
            Err("migration half_life_rounds must be at least 1".into())
        );
    }

    #[test]
    fn zero_budget_is_rejected() {
        let config = MigrationConfig::on().with_round_budget(0);
        assert_eq!(
            config.validate(),
            Err("migration round_budget must be at least 1".into())
        );
    }

    #[test]
    fn heat_records_decays_and_forgets() {
        let mut t = HeatTracker::new();
        t.record(BlockAddr(1));
        t.record(BlockAddr(1));
        t.record(BlockAddr(2));
        assert_eq!(t.heat(BlockAddr(1)), 2);
        assert_eq!(t.heat(BlockAddr(2)), 1);
        t.decay();
        assert_eq!(t.heat(BlockAddr(1)), 1);
        // Heat 1 halves to 0 and the entry is dropped.
        assert_eq!(t.heat(BlockAddr(2)), 0);
        assert_eq!(t.len(), 1);
        t.forget(BlockAddr(1));
        assert!(t.is_empty());
    }

    #[test]
    fn retain_hottest_is_deterministic_on_ties() {
        let mut t = HeatTracker::new();
        for lbn in 0..10u64 {
            t.record(BlockAddr(lbn));
        }
        t.record(BlockAddr(7));
        t.retain_hottest(3);
        assert_eq!(t.len(), 3);
        // Block 7 (heat 2) survives; the tie among heat-1 blocks is broken
        // by lowest address.
        assert_eq!(t.heat(BlockAddr(7)), 2);
        assert_eq!(t.heat(BlockAddr(0)), 1);
        assert_eq!(t.heat(BlockAddr(1)), 1);
        assert_eq!(t.heat(BlockAddr(2)), 0);
    }

    #[test]
    fn trim_cancels_queued_candidates() {
        let mut m = ShardMigration::new(MigrationConfig::on(), 16);
        let req = crate::policy::PolicyRequest {
            direction: hstorage_storage::Direction::Read,
            class: hstorage_storage::RequestClass::Random,
            qos: hstorage_storage::QosPolicy::priority(2),
            prio: hstorage_storage::CachePriority(2),
        };
        m.note_access(BlockAddr(9), &req);
        m.pending_promote.insert(BlockAddr(9));
        m.note_trim(BlockAddr(9));
        assert_eq!(m.moves.trim_cancellations, 1);
        assert_eq!(m.heat.heat(BlockAddr(9)), 0);
        assert!(!m.pending_promote.contains(&BlockAddr(9)));
        // A second trim of the same address cancels nothing further.
        m.note_trim(BlockAddr(9));
        assert_eq!(m.moves.trim_cancellations, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Decay can only shrink: however records and decays interleave, a
        /// block's heat never exceeds the raw count of accesses recorded
        /// for it.
        #[test]
        fn decayed_heat_never_exceeds_raw_count(
            ops in proptest::collection::vec((0u64..16, 0u8..8), 1..200),
        ) {
            let mut t = HeatTracker::new();
            let mut raw: HashMap<BlockAddr, u64> = HashMap::new();
            for (lbn, kind) in ops {
                if kind == 0 {
                    t.decay();
                } else {
                    let lbn = BlockAddr(lbn);
                    t.record(lbn);
                    *raw.entry(lbn).or_insert(0) += 1;
                }
            }
            for (lbn, &count) in &raw {
                prop_assert!(
                    t.heat(*lbn) <= count,
                    "heat {} exceeds raw count {count} for {lbn:?}",
                    t.heat(*lbn)
                );
            }
        }
    }
}
