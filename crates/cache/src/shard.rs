//! One lock-striped partition of the cache engine: everything that runs
//! under one shard's lock. The block table, the policy's lists and the
//! write-buffer occupancy change together, through one insertion
//! ([`Shard::admit`]: foreground allocation, a round's promotion) and one
//! removal ([`Shard::retire`]: eviction, drain, TRIM, a round's
//! demotion); the one other change of occupancy is a group move on a hit
//! ([`Shard::apply_move`]). Whether a block is write-buffered is asked of
//! one predicate, [`Shard::buffered`]. `CacheEngine::audit` checks that
//! they agree.
//!
//! Only a write-buffered request can fill the write buffer: group 0 is
//! entered by an insertion or a hit move for a request that resolves to
//! it, and a round never promotes such a shape. So the visit of such a
//! request that pushes the buffer over its limit drains it before the
//! lock is released ([`Shard::drain_write_buffer_if_full`]), and the
//! occupancy is a plain counter in [`ShardState`].

use crate::config::StorageConfig;
use crate::migration::ShardMigration;
use crate::policy::{
    CachePolicy, HitOutcome, PolicyRequest, RemoveReason, ShardPolicy, WRITE_BUFFER_GROUP,
};
use crate::shard_lock::{ShardLock, ShardWriteGuard};
use crate::stats::{CacheAction, CacheStats};
use crate::table::{BlockState, BlockTable, CacheEntry, TableSlot};
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, ClockLane, DeviceKind, DeviceStats,
    Direction, IoRequest,
};
use std::time::Duration;

/// Per-request batch of device traffic, flushed as one I/O per device and
/// direction so multi-block requests pay one command overhead, like the real
/// system.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DeviceBatch {
    pub(crate) ssd_read: u64,
    pub(crate) ssd_write: u64,
    pub(crate) hdd_read: u64,
    pub(crate) hdd_write: u64,
}

impl DeviceBatch {
    /// The batch's transfers as requests from `start`, each flagged
    /// `sequential`: the HDD's, then the SSD's, and on each device the
    /// read before the write. A direction with no blocks has none.
    #[inline(always)]
    pub(crate) fn transfers(
        &self,
        start: BlockAddr,
        sequential: bool,
    ) -> impl Iterator<Item = (DeviceKind, IoRequest)> {
        let (hdd, ssd) = (DeviceKind::Hdd, DeviceKind::Ssd);
        [
            (hdd, Direction::Read, self.hdd_read),
            (hdd, Direction::Write, self.hdd_write),
            (ssd, Direction::Read, self.ssd_read),
            (ssd, Direction::Write, self.ssd_write),
        ]
        .into_iter()
        .filter(|&(_, _, blocks)| blocks > 0)
        .map(move |(device, direction, blocks)| {
            let range = BlockRange::new(start, blocks);
            (
                device,
                IoRequest {
                    range,
                    direction,
                    sequential,
                },
            )
        })
    }
}

/// What the caching decision did with one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placed {
    /// Resident: served from the SSD.
    Hit,
    /// Absent and refused by `admits`: sent to the second-level device
    /// without any mutable policy call, so a bypass run may follow.
    Bypassed,
    /// Absent and admitted: allocated a slot, or bypassed after all for
    /// want of a victim — either way the policy was called mutably.
    Admitted,
}

/// The blocks of one run a shard walk settles without a policy call
/// (see `Shard::walk_blocks`): hits (inert reads only) and bypasses.
#[derive(Debug, Default)]
struct Run {
    hits: u64,
    bypassed: u64,
    /// The run's last hit, which the hot descriptor ends on.
    last_hit: Option<BlockAddr>,
}

/// `x % n` for an `x` below `2 * n`, without the division.
pub(crate) fn wrap(x: u64, n: u64) -> u64 {
    x - if x >= n { n } else { 0 }
}

/// The blocks of `ranges` that live on shard `shard` of `n`, as
/// `(range index, block)` pairs: ranges in order, and within a range
/// ascending with stride `n` — the order a block-by-block walk of the
/// ranges would reach this shard in. Beyond iteration it peeks, reports
/// the rest of the current range ([`Self::rest`]) and skips blocks of it
/// in O(1), so a walk can settle a run of blocks at once.
pub(crate) struct ShardBlocks<I> {
    ranges: std::iter::Enumerate<I>,
    n: u64,
    shard: u64,
    /// The range being strided through: its index, the next block of it
    /// on this shard, and its one-past-the-end address.
    index: usize,
    next: u64,
    end: u64,
}

impl<I: Iterator<Item = BlockRange>> ShardBlocks<I> {
    /// The blocks of `ranges` on shard `shard` of `n`.
    pub(crate) fn new(ranges: I, n: u64, shard: u64) -> Self {
        ShardBlocks {
            ranges: ranges.enumerate(),
            n,
            shard,
            index: 0,
            next: 0,
            end: 0,
        }
    }

    /// The next pair, without consuming it.
    pub(crate) fn peek(&mut self) -> Option<(usize, BlockAddr)> {
        while self.next >= self.end {
            let (index, range) = self.ranges.next()?;
            // Distance from the range's first block to its first block on
            // this shard.
            let skip = wrap(self.shard + self.n - range.start.0 % self.n, self.n);
            self.index = index;
            self.next = range.start.0.saturating_add(skip);
            self.end = range.end().0;
        }
        Some((self.index, BlockAddr(self.next)))
    }

    /// The current range's next block on this shard and how many of its
    /// blocks on this shard are left, that one included (0 once the range
    /// is done; the next [`Self::peek`] moves on to the next range).
    fn rest(&self) -> (BlockAddr, u64) {
        let left = if self.next < self.end {
            (self.end - self.next).div_ceil(self.n)
        } else {
            0
        };
        (BlockAddr(self.next), left)
    }

    /// Consumes the next `k` blocks of the current range, at most
    /// [`Self::rest`]'s count.
    fn skip(&mut self, k: u64) {
        debug_assert!(k <= self.rest().1, "skipped past the range");
        self.next = self.next.saturating_add(k.saturating_mul(self.n));
    }
}

impl<I: Iterator<Item = BlockRange>> Iterator for ShardBlocks<I> {
    type Item = (usize, BlockAddr);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.peek()?;
        self.skip(1);
        Some(item)
    }
}

/// The block whose repeat read hit the lone-block path may serve from the
/// descriptor alone: the last read hit on the shard, with everything that
/// hit was made of, so only a *bit-identical* repeat matches — the same
/// arguments `on_hit` would receive, and the same SSD transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HotHit {
    pub(crate) lbn: BlockAddr,
    pub(crate) shape: PolicyRequest,
    pub(crate) sequential: bool,
}

/// Everything one shard owns, behind its one lock: submissions and every
/// other mutating visit hold the write lock, read-only probes the read
/// lock.
pub(crate) struct ShardState {
    pub(crate) meta: BlockTable,
    /// `Some` exactly while the last completed shard visit was a read hit
    /// and nothing has perturbed policy order since; any such block is
    /// guaranteed resident. Replaced only through [`Shard::set_hot`].
    pub(crate) hot: Option<HotHit>,
    /// Repeat hits served against `hot` and not yet accounted for; zero
    /// while `hot` is `None`.
    pub(crate) fast_hits: u64,
    /// The shard's policy: a shipped kind dispatched statically, or a
    /// custom one in [`ShardPolicy::Custom`].
    pub(crate) policy: ShardPolicy,
    /// Tier-migration state ([`crate::MigrationConfig`]): heat tracker,
    /// request shapes and the pending promote/demote queues. `None` while
    /// migration is disabled — the foreground hooks then cost one branch.
    pub(crate) migration: Option<ShardMigration>,
    /// Class, priority, action and contention counters of the blocks this
    /// shard handled.
    pub(crate) stats: CacheStats,
    /// Blocks resident in the write-buffer group. Written only by
    /// [`Shard::admit`], [`Shard::retire`] and [`Shard::apply_move`].
    pub(crate) write_buffer_resident: u64,
    /// SSD traffic priced under this shard's lock: the device's own
    /// mutex-guarded ledger sees only what is served outside one. The
    /// two sum to the device statistics `StorageSystem::stats` reports.
    pub(crate) ssd: DeviceStats,
    /// This shard's lane of the engine clock: the device time of the
    /// requests whose last visit was to this shard, advanced under the
    /// write lock with no locked instruction.
    pub(crate) lane: ClockLane,
}

/// One lock-striped partition of the cache (see the module docs).
pub(crate) struct Shard {
    pub(crate) state: ShardLock<ShardState>,
    /// Time the SSD takes for the one transfer a repeat hit ever issues —
    /// a single-block read — indexed by its sequential flag. Immutable
    /// after construction.
    pub(crate) hit_service: [Duration; 2],
    /// Blocks this shard's slice of the cache holds: it has a free slot
    /// exactly while its table holds fewer. Immutable after construction.
    pub(crate) capacity: usize,
    /// Maximum blocks this shard's slice of the write buffer may hold.
    /// Immutable after construction.
    pub(crate) write_buffer_limit: u64,
    /// Whether the shard's policy keeps the write buffer
    /// ([`CachePolicy::buffers_writes`]). Set with the policy, before any
    /// traffic.
    buffers_writes: bool,
}

impl Shard {
    /// A shard of the engine `config` describes, with `capacity` slots, its
    /// own policy and migration state and its clock `lane`, one of
    /// `config.shards` shards (the address distance between its
    /// consecutive blocks).
    pub(crate) fn new(
        config: &StorageConfig,
        capacity: u64,
        hit_service: [Duration; 2],
        lane: ClockLane,
    ) -> Self {
        let migration = config.migration;
        let policy = config.cache_policy.build(&config.policy, capacity);
        Shard {
            buffers_writes: policy.buffers_writes(),
            state: ShardLock::new(ShardState {
                // Pre-sized to the shard's slot count: a full shard never
                // rehashes mid-run. Grouped by the shard stride, so a
                // scan's blocks on this shard land in adjacent slots.
                meta: BlockTable::with_capacity(capacity as usize, config.shards),
                hot: None,
                fast_hits: 0,
                policy,
                migration: migration
                    .enabled
                    .then(|| ShardMigration::new(migration, capacity)),
                stats: CacheStats::new(),
                write_buffer_resident: 0,
                ssd: DeviceStats::new(),
                lane,
            }),
            hit_service,
            capacity: capacity as usize,
            write_buffer_limit: (capacity as f64 * config.policy.write_buffer_fraction).floor()
                as u64,
        }
    }

    /// Installs `policy` in place of the shard's own. Panics once the
    /// shard holds a block: the policy must be installed before any
    /// traffic.
    pub(crate) fn install(&mut self, policy: ShardPolicy) {
        let st = self.state.get_mut();
        assert!(
            st.meta.is_empty(),
            "cache policy must be installed before submitting traffic"
        );
        self.buffers_writes = policy.buffers_writes();
        st.policy = policy;
    }

    /// Whether a block of `group` — or a request that resolves to it —
    /// is write-buffered: the shard's policy keeps the write buffer and
    /// `group` is the buffer's.
    #[inline]
    pub(crate) fn buffered(&self, group: CachePriority) -> bool {
        self.buffers_writes && group == WRITE_BUFFER_GROUP
    }

    /// Takes the write lock for a submission-path visit, counting it.
    pub(crate) fn lock_for_write(&self) -> ShardWriteGuard<'_, ShardState> {
        let mut st = self.state.write();
        st.stats.contention.lock_acquisitions += 1;
        st
    }

    /// Replaces the hot descriptor, first crediting the repeat hits tallied
    /// against the old one. Inline, so the caller's descriptor is stored
    /// straight into the shard state rather than passed through memory.
    #[inline]
    pub(crate) fn set_hot(&self, st: &mut ShardState, hot: Option<HotHit>) {
        if st.fast_hits > 0 {
            self.credit_fast_hits(st);
        }
        st.hot = hot;
    }

    /// Credits the repeat hits tallied against the hot descriptor exactly
    /// as the slow path would have recorded each of them: a cache hit of
    /// its class and priority, a single-block SSD read, and one unit of
    /// heat.
    #[cold]
    #[inline(never)]
    fn credit_fast_hits(&self, st: &mut ShardState) {
        let hits = std::mem::take(&mut st.fast_hits);
        let old = st.hot.expect("repeat hits tallied against no descriptor");
        st.stats.record_action(CacheAction::CacheHit, hits);
        st.stats.record_class(old.shape.class, hits, hits);
        st.stats.record_priority(old.shape.prio.0, hits, hits);
        st.stats.contention.fast_path_hits += hits;
        st.ssd.record(
            &IoRequest::read(BlockRange::new(old.lbn, 1), old.sequential),
            self.hit_service[usize::from(old.sequential)],
            hits,
        );
        if let Some(mig) = st.migration.as_mut() {
            mig.heat.record_n(old.lbn, hits);
        }
    }

    /// Makes `lbn` resident, in `state`, for `req` — the shard's one
    /// insertion: the policy files the block (`on_insert`) and names its
    /// group, the table records it with its node, and a write-buffered
    /// group counts it in the buffer. The caller has made room.
    #[inline]
    pub(crate) fn admit(
        &self,
        st: &mut ShardState,
        lbn: BlockAddr,
        req: &PolicyRequest,
        state: BlockState,
    ) {
        let (priority, node) = st.policy.on_insert(lbn, req);
        let entry = CacheEntry { priority, state };
        st.meta.insert(lbn, TableSlot { entry, node });
        if self.buffered(priority) {
            st.write_buffer_resident += 1;
        }
    }

    /// Takes `lbn` out of the shard if it is resident — the shard's one
    /// removal: the table drops it, the policy hears of it with `reason`
    /// (`on_remove`), and a write-buffered block leaves the buffer's
    /// count. Returns the block's entry; writing a dirty block back is the
    /// caller's part.
    #[inline]
    pub(crate) fn retire(
        &self,
        st: &mut ShardState,
        lbn: BlockAddr,
        reason: RemoveReason,
    ) -> Option<CacheEntry> {
        let TableSlot { entry, node } = st.meta.remove(lbn)?;
        st.policy.on_remove(lbn, node, entry.priority, reason);
        if self.buffered(entry.priority) {
            Self::debit_write_buffer(st);
        }
        Some(entry)
    }

    /// Tries to free a cache slot for `incoming` (the missing block of
    /// `req`), asking the policy to displace a resident if the shard is
    /// full. Returns `false` if the block must bypass the cache.
    ///
    /// The victim is one the policy selected (`pop_victim`) but still
    /// tracks; its removal reaches the policy as [`RemoveReason::Evict`],
    /// so ghost-keeping policies observe their own evictions.
    fn try_allocate(
        &self,
        st: &mut ShardState,
        incoming: BlockAddr,
        req: &PolicyRequest,
        batch: &mut DeviceBatch,
    ) -> bool {
        if st.meta.len() < self.capacity {
            return true;
        }
        let Some(victim) = st.policy.pop_victim(incoming, req) else {
            return false;
        };
        let entry = self
            .retire(st, victim, RemoveReason::Evict)
            .expect("victim tracked by policy but not in metadata");
        if entry.is_dirty() {
            batch.hdd_write += 1;
        }
        st.stats.record_action(CacheAction::Eviction, 1);
        true
    }

    /// Handles one shard visit's blocks of `reqs` — `(request index,
    /// block)` pairs, `work[i]` holding request `i`'s policy shape and
    /// device batch — settling runs of blocks without a policy call, each
    /// by one query of the residency bitmap over the rest of the request's
    /// blocks on the shard: a **bypass run**, the absent blocks after one
    /// `admits` refused (a pure query, so it would refuse them again), up
    /// to the next resident one; and an **inert run**, all of an inert
    /// read's blocks on the shard ([`CachePolicy::is_inert`]), its
    /// resident ones hits and the rest bypasses. The engine's module docs
    /// tell the whole story. A run is recorded at once, as the per-block
    /// walk would have recorded its blocks. Runs stay off while migration
    /// is attached, which records heat and request shape per block.
    ///
    /// Out of line, apart from the code of its callers' other paths.
    #[inline(never)]
    pub(crate) fn walk_blocks(
        &self,
        st: &mut ShardState,
        blocks: &mut ShardBlocks<impl Iterator<Item = BlockRange>>,
        ahead: u64,
        reqs: &[ClassifiedRequest],
        work: &mut [(PolicyRequest, DeviceBatch)],
    ) {
        let runs = st.migration.is_none();
        // The request last asked about and whether it is inert: a
        // request's blocks on the shard arrive together, so it is asked
        // once per visit.
        let mut asked: Option<(usize, bool)> = None;
        while let Some((i, lbn)) = blocks.peek() {
            let (preq, batch) = &mut work[i];
            let inert = match asked {
                Some((j, inert)) if j == i => inert,
                _ => {
                    let inert =
                        runs && preq.direction == Direction::Read && st.policy.is_inert(preq);
                    asked = Some((i, inert));
                    inert
                }
            };
            let sequential = reqs[i].io.sequential;
            let run = if inert {
                let (_, left) = blocks.rest();
                let (hits, last_hit) = st.meta.resident_in(lbn, left);
                Run {
                    hits,
                    bypassed: left - hits,
                    last_hit,
                }
            } else {
                blocks.skip(1);
                // Past a request's end the prefetch usually names the next
                // request's block; where it names none, it is harmless.
                st.meta.prefetch(BlockAddr(lbn.0.wrapping_add(ahead)));
                let placed = self.place_block(st, lbn, preq, sequential, batch);
                if !(runs && placed == Placed::Bypassed) {
                    continue;
                }
                let (next, left) = blocks.rest();
                Run {
                    bypassed: st.meta.absent_prefix(next, left),
                    ..Run::default()
                }
            };
            blocks.skip(run.hits + run.bypassed);
            self.settle_run(st, preq, sequential, &run, batch);
        }
    }

    /// Records the tallied blocks of a run of `req` exactly as that many
    /// placements would have: the same action, class and priority
    /// counters, the same device transfers, and the hot descriptor on the
    /// last hit (a bypass leaves the descriptor as it is).
    fn settle_run(
        &self,
        st: &mut ShardState,
        req: &PolicyRequest,
        sequential: bool,
        run: &Run,
        batch: &mut DeviceBatch,
    ) {
        let blocks = run.hits + run.bypassed;
        if blocks == 0 {
            return;
        }
        if run.bypassed > 0 {
            Self::bypass(st, req, run.bypassed, batch);
        }
        if let Some(lbn) = run.last_hit {
            st.stats.record_action(CacheAction::CacheHit, run.hits);
            batch.ssd_read += run.hits;
            let hot = HotHit {
                lbn,
                shape: *req,
                sequential,
            };
            self.set_hot(st, Some(hot));
        }
        st.stats.record_class(req.class, blocks, run.hits);
        st.stats.record_priority(req.prio.0, blocks, run.hits);
    }

    /// Sends `blocks` absent blocks of `req` straight to the second-level
    /// device, counting them as bypassed.
    fn bypass(st: &mut ShardState, req: &PolicyRequest, blocks: u64, batch: &mut DeviceBatch) {
        st.stats.record_action(CacheAction::Bypassing, blocks);
        match req.direction {
            Direction::Read => batch.hdd_read += blocks,
            Direction::Write => batch.hdd_write += blocks,
        }
    }

    /// The caching decision for one block of a request (`sequential` is
    /// the request's I/O flag), recorded against the request's class and
    /// priority.
    pub(crate) fn place_block(
        &self,
        st: &mut ShardState,
        lbn: BlockAddr,
        req: &PolicyRequest,
        sequential: bool,
        batch: &mut DeviceBatch,
    ) -> Placed {
        if let Some(mig) = st.migration.as_mut() {
            // Every foreground access — hit, miss or bypass — is one unit
            // of heat and refreshes the remembered request shape.
            mig.note_access(lbn, req);
        }
        let placed = match st.meta.get_mut(lbn) {
            Some(slot) => {
                // --- Cache hit ---
                // The slot carries the block's node handle, so the policy
                // reaches its list node without a lookup of its own; the
                // handle stays valid through a move, so nothing is written
                // back but the label.
                let current = slot.entry.priority;
                if req.direction == Direction::Write {
                    slot.entry.state = BlockState::Dirty;
                }
                let outcome = st.policy.on_hit(lbn, slot.node, current, req);
                if let HitOutcome::Moved(new) = outcome {
                    slot.entry.priority = new;
                    self.apply_move(st, current, new);
                }
                if let Some(mig) = st.migration.as_mut() {
                    // Lazy cancellation: a hit on a queued demotion
                    // candidate proves the block is still hot, so the
                    // demotion is dropped instead of executed at the next
                    // round.
                    mig.note_hit(lbn);
                }
                st.stats.record_action(CacheAction::CacheHit, 1);
                match req.direction {
                    Direction::Read => {
                        batch.ssd_read += 1;
                        // Publish the hot-hit descriptor: an immediate
                        // bit-identical repeat of this read may share the
                        // lock (consulted only when the policy declares
                        // repeats idempotent).
                        let hot = HotHit {
                            lbn,
                            shape: *req,
                            sequential,
                        };
                        self.set_hot(st, Some(hot));
                    }
                    Direction::Write => {
                        batch.ssd_write += 1;
                        // A write hit dirties state a repeat read would
                        // not reproduce; drop the descriptor.
                        self.set_hot(st, None);
                    }
                }
                Placed::Hit
            }
            // --- Cache miss ---
            None if !st.policy.admits(req) => {
                // Bypassing: straight to the second-level device. `admits`
                // is a pure query, so the hot descriptor stays valid.
                Self::bypass(st, req, 1, batch);
                Placed::Bypassed
            }
            None => {
                // The allocation path may perturb policy order even when
                // it ends in a bypass (ARC adapts its target on ghost hits
                // inside `pop_victim`), so the descriptor is cleared up
                // front.
                self.set_hot(st, None);
                st.meta.prefetch_bit(lbn);
                if self.try_allocate(st, lbn, req, batch) {
                    let state = match req.direction {
                        Direction::Read => {
                            // Read allocation: fetch from HDD, place in SSD.
                            st.stats.record_action(CacheAction::ReadAllocation, 1);
                            batch.hdd_read += 1;
                            batch.ssd_write += 1;
                            BlockState::Clean
                        }
                        Direction::Write => {
                            // Write allocation: place in SSD, mark dirty.
                            st.stats.record_action(CacheAction::WriteAllocation, 1);
                            batch.ssd_write += 1;
                            BlockState::Dirty
                        }
                    };
                    self.admit(st, lbn, req, state);
                    if let Some(mig) = st.migration.as_mut() {
                        // Lazy promotion: the foreground admission just
                        // performed the migration a round had queued.
                        mig.note_insert(lbn);
                    }
                } else {
                    // Not cache-worthy relative to current residents:
                    // bypass.
                    Self::bypass(st, req, 1, batch);
                }
                Placed::Admitted
            }
        };
        let hit = u64::from(placed == Placed::Hit);
        st.stats.record_class(req.class, 1, hit);
        st.stats.record_priority(req.prio.0, 1, hit);
        placed
    }

    /// Mirrors a policy-initiated group move (already relabelled in the
    /// block's slot) in the write-buffer accounting and statistics.
    fn apply_move(&self, st: &mut ShardState, old: CachePriority, new: CachePriority) {
        match (self.buffered(old), self.buffered(new)) {
            (false, true) => st.write_buffer_resident += 1,
            (true, false) => Self::debit_write_buffer(st),
            _ => {}
        }
        st.stats.record_action(CacheAction::ReAllocation, 1);
    }

    /// One block leaves the write buffer. An underflow would mean the
    /// accounting diverged from the policy's group labelling: a debug
    /// build fails.
    fn debit_write_buffer(st: &mut ShardState) {
        debug_assert!(
            st.write_buffer_resident > 0,
            "write-buffer occupancy underflow"
        );
        st.write_buffer_resident = st.write_buffer_resident.saturating_sub(1);
    }

    /// Ends the visit of a write-buffered request: if the buffer now holds
    /// more blocks than its limit, drains it and returns the number of
    /// *dirty* blocks dropped, which the caller writes to the HDD once the
    /// shard lock is released.
    #[inline]
    pub(crate) fn drain_write_buffer_if_full(&self, st: &mut ShardState) -> Option<u64> {
        let full =
            self.write_buffer_limit > 0 && st.write_buffer_resident > self.write_buffer_limit;
        full.then(|| self.drain_write_buffer(st))
    }

    /// Drops every buffered block from the cache; returns how many were
    /// dirty.
    #[cold]
    #[inline(never)]
    fn drain_write_buffer(&self, st: &mut ShardState) -> u64 {
        let mut dirty_blocks = 0u64;
        for lbn in st.policy.drain_write_buffer() {
            // The drain names buffered blocks without untracking them; the
            // engine completes each removal. A drain is an engine
            // displacement, so ghost-keeping policies see `Evict`, not
            // `Trim` (the block's data is still live on the HDD). Each
            // removal debits the occupancy, so a policy whose drain is
            // partial cannot desynchronize it.
            let entry = self.retire(st, lbn, RemoveReason::Evict);
            dirty_blocks += u64::from(entry.is_some_and(|e| e.is_dirty()));
        }
        self.set_hot(st, None);
        st.stats
            .record_action(CacheAction::WriteBufferFlush, dirty_blocks);
        dirty_blocks
    }

    /// Invalidates one block if resident; returns 1 if it was trimmed.
    /// Conservatively drops the hot descriptor either way (an absent trim
    /// may still touch ghost history).
    pub(crate) fn trim_block(&self, st: &mut ShardState, lbn: BlockAddr) -> u64 {
        self.set_hot(st, None);
        if let Some(mig) = st.migration.as_mut() {
            // The block's lifetime ended: discard its heat, shape and any
            // queued migration so an in-flight candidate cannot resurrect
            // dead data at the next round.
            mig.note_trim(lbn);
        }
        if self.retire(st, lbn, RemoveReason::Trim).is_some() {
            return 1;
        }
        // The block's lifetime ended while not resident: policies keeping
        // history about absent addresses (ghost lists) must still forget
        // it.
        st.policy.on_trim_absent(lbn);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageConfigKind;
    use hstorage_storage::{QosPolicy, RequestClass, SimClock};

    /// A write-buffered and a cached block go in through `admit` and out
    /// through `retire`: table, policy and write-buffer count move
    /// together, and a second removal finds nothing.
    #[test]
    fn admit_and_retire_keep_table_policy_and_write_buffer_in_step() {
        let config = StorageConfig::new(StorageConfigKind::HStorageDb, 8);
        let lane = SimClock::with_lanes(1).1.remove(0);
        let shard = Shard::new(&config, 8, [Duration::ZERO; 2], lane);
        let st = &mut shard.state.write();
        for (lbn, qos, prio) in [
            (1, QosPolicy::WriteBuffer, 0),
            (2, QosPolicy::priority(2), 2),
        ] {
            let req = PolicyRequest {
                direction: Direction::Write,
                class: RequestClass::Update,
                qos,
                prio: CachePriority(prio),
            };
            shard.admit(st, BlockAddr(lbn), &req, BlockState::Dirty);
        }
        assert_eq!((st.meta.len(), st.write_buffer_resident), (2, 1));
        let entry = shard.retire(st, BlockAddr(1), RemoveReason::Evict);
        assert!(entry.is_some_and(|e| e.is_dirty()));
        assert_eq!((st.meta.len(), st.write_buffer_resident), (1, 0));
        assert_eq!(shard.retire(st, BlockAddr(1), RemoveReason::Trim), None);
        assert_eq!(st.policy.check(), Ok(()));
    }

    /// A batch issues the HDD's transfers before the SSD's, each device's
    /// read before its write, and nothing for an empty direction.
    #[test]
    fn a_device_batch_issues_reads_before_writes_on_each_device() {
        use {DeviceKind::*, Direction::*};
        let (hdd_read, hdd_write, ssd_read) = (2, 3, 1);
        let batch = DeviceBatch {
            hdd_read,
            hdd_write,
            ssd_read,
            ..DeviceBatch::default()
        };
        let issued: Vec<_> = batch
            .transfers(BlockAddr(7), true)
            .map(|(device, io)| (device, io.direction, io.blocks(), io.range.start.0))
            .collect();
        assert_eq!(
            issued,
            [(Hdd, Read, 2, 7), (Hdd, Write, 3, 7), (Ssd, Read, 1, 7)]
        );
    }
}
