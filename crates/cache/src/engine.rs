//! The policy-agnostic cache engine (mechanism half of the hybrid cache).
//!
//! An SSD works as a cache for an HDD. The engine owns everything that is
//! *mechanism*: lock-striped shards and their slot capacity, block
//! metadata and clean/dirty state, write-buffer occupancy accounting,
//! statistics, and the per-request / vectored device submission paths.
//! Every *decision* — admission, victim selection, promotion on hit — is
//! delegated to a per-shard [`CachePolicy`] instance, so one engine serves
//! the paper's semantic priority policy, the classical baselines (LRU,
//! CFLRU, 2Q, ARC), the per-stream compositor and any custom policy
//! interchangeably.
//!
//! [`CacheEngine`] builds the shards, routes requests to them and prices
//! what they report. What runs under one shard's lock is `crate::shard`,
//! and a migration round `crate::migration`.
//!
//! The six actions of Section 5.1 (cache hit, read allocation, write
//! allocation, bypassing, re-allocation, eviction) are all implemented and
//! counted, as are TRIM-driven invalidations and write-buffer flushes.
//!
//! # Construction
//!
//! An engine is built in one step from its description:
//! [`CacheEngine::new`] takes a [`StorageConfig`], validates it, and
//! builds the devices, the shards, each shard's policy and migration
//! state, and the journal. Nothing is reconfigured afterwards; the one
//! post-construction hook, [`CacheEngine::with_policy_factory`], swaps in
//! a custom policy before any traffic.
//!
//! # Concurrency
//!
//! The engine is a shared service: [`StorageSystem::submit`] takes `&self`,
//! so one instance can serve many threads. Internally the block metadata,
//! per-shard policy state, write buffer and statistics are
//! partitioned into `N` *shards* keyed by logical block address
//! (`lbn % N`). Each shard manages an equal slice of the cache capacity,
//! so allocation and eviction are decided shard-locally. With a single
//! shard (the default, used by the paper-figure experiments) the behaviour
//! is block-for-block identical to the original exclusive implementation;
//! a [`StorageConfig`] with more `shards` enables real parallelism for the
//! query service and other multi-threaded callers.
//!
//! Each shard keeps all of its state behind **one** reader-writer
//! `ShardLock` (`crate::shard_lock`), whose waiters spin and yield rather
//! than park, so a writer releases it with a plain store:
//!
//! * every submission, TRIM, migration round and statistics fold holds
//!   the write lock for its whole visit, so counters — the write-buffer
//!   occupancy among them — are plain `u64`s written where the lock is
//!   already held and [`StorageSystem::stats`] takes each shard briefly
//!   and sums them;
//! * read-only probes ([`CacheEngine::contains_block`],
//!   [`CacheEngine::cached_priority`], residency and write-buffer
//!   counts, learned heat) take the read lock and never serialize with
//!   each other.
//!
//! A write-buffer drain has no visit of its own: the visit of the
//! write-buffered request that overfilled a shard's buffer drains it
//! before releasing the lock, and the drained dirty blocks are written
//! to the HDD once it is released (`crate::shard` says why no other
//! request can overfill it).
//!
//! A multi-block request, a [`StorageSystem::submit_batch`] run and a TRIM
//! walk their blocks **shard-major** (`CacheEngine::visit_shards`): each
//! shard they touch is locked once and its blocks (`first, first + N, …`)
//! handled under that acquisition, one shard at a time. Per-shard order
//! stays request order, ascending within a request — what a
//! block-by-block walk produces — so no decision or counter moves. A
//! lone-block request touches one shard and locks it directly.
//!
//! A slice of independent requests sent through
//! [`StorageSystem::submit_each`] (the executor's index probes) is served
//! request by request on `submit`'s path, one lock visit each. The slice
//! only lets the engine look ahead: under a lone-block request's shard
//! lock it starts loading, for requests further on the same shard, the
//! block-table control group and home slot, the list node the home slot
//! names and that node's neighbours, so those loads overlap the work in
//! between instead of following one another.
//!
//! A multi-block walk settles blocks in **runs** that make no policy
//! call, each answered by one query of the shard table's residency
//! bitmap, one word per 64 of the shard's blocks. A bypass run follows
//! one QoS decision per request, the way the paper classifies: once a
//! block of a request is refused by [`CachePolicy::admits`] (a pure
//! query), the request's following blocks on the shard up to its next
//! resident one are certainly absent and certainly refused again. An
//! **inert** read — a shape for which [`CachePolicy::is_inert`] promises
//! refusal and a hit that changes nothing, such as the paper's
//! "non-caching and non-eviction" scans — is a run from its first block
//! on the shard to its last: the bitmap counts its resident blocks (hits)
//! and names the last of them, the rest are bypasses, and the policy is
//! asked only whether the request is inert. A run is recorded as one
//! tally of the counters, device traffic and hot descriptor that many
//! single placements would have recorded. Another request's block, a
//! resident block inside a bypass run, a write, or attached migration
//! (which records heat per block) sends a block down the full placement
//! path. The price of the bitmap is paid off the scan path: every
//! allocation, eviction and TRIM removal also updates one residency word,
//! found through a page directory of a few entries a shard, and a TRIM
//! of an absent block reads that word instead of probing the table.
//!
//! The hottest possible case has a shortcut: a single-block read that
//! repeats the immediately preceding hit on its shard. When the installed
//! policy declares repeat hits idempotent
//! ([`CachePolicy::repeat_hit_idempotent`]) the repeat skips the table
//! probe, the policy call and the device pricing, because the skipped
//! `on_hit` call is provably a no-op: under the write lock the lone-block
//! path already holds, it bumps the hot descriptor's tally and advances
//! the shard's clock lane by the precomputed SSD read time, nothing else.
//! Whoever next replaces the descriptor — or reads the statistics —
//! credits the tally (hit, class and priority counters, SSD ledger,
//! migration heat) to the descriptor it was counted against. Anything
//! that could perturb policy order (a different block's hit, a write, an
//! allocation, an eviction, a trim, a drain) invalidates the descriptor.
//! The shortcut alters no simulated timing, no hit ratio and no policy
//! decision. Repeats of one block from several threads serialize on its
//! shard's lock for the shortcut's few instructions; in exchange none of
//! them writes the clock's shared base. A policy that answers
//! `false` sends every submission down the full path, and
//! [`crate::ContentionCounters`] reports how often each path was taken.

use crate::config::{StorageConfig, StorageConfigKind};
use crate::journal::{Journal, JournalOp, JournalSnapshot};
use crate::migration::{migration_round, MigrationStats};
use crate::policy::{CachePolicy, PolicyRequest, ShardPolicy};
use crate::shard::{wrap, DeviceBatch, HotHit, Shard, ShardBlocks, ShardState};
use crate::stats::{CacheAction, CacheStats};
use crate::system::StorageSystem;
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, DeviceKind, DeviceStats, HddDevice,
    IoRequest, SimClock, SsdDevice, StorageDevice, TrimCommand,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How far ahead of the block it handles a shard walk prefetches the
/// block table, in strides of the shard count: far enough for two extent
/// groups' lines to arrive, near enough to stay inside a scan's next
/// request.
const PREFETCH_STRIDES: u64 = 8;

/// How many requests ahead on the shard it holds
/// [`StorageSystem::submit_each`] starts loading each stage of a
/// lone-block request's visit, which waits on one load after another: the
/// block table's home control group and home slot, then the policy's list
/// node the slot names (the slot was loaded eight requests before), then
/// the node's list neighbours (the node was loaded six before). A stage's
/// loads are in flight while the requests in between are served. The node
/// and neighbour stages read only the home slot
/// ([`BlockTable::peek_home`](crate::BlockTable::peek_home)): a full
/// probe for the few blocks away from home, or absent, would cost more
/// than the loads it hides.
const SLOT_AHEAD: usize = 16;
/// See [`SLOT_AHEAD`].
const NODE_AHEAD: usize = 8;
/// See [`SLOT_AHEAD`].
const NEIGHBOURS_AHEAD: usize = 2;

/// Requests whose shard indices [`StorageSystem::submit_each`] computes at
/// once: at least the two requests of each of the executor's 64 probes of
/// a group, so a group's lookahead never stops short.
const EACH_CHUNK: usize = 128;

/// The hybrid SSD-over-HDD storage system: a policy-agnostic cache engine
/// whose admission/eviction/promotion decisions come from a pluggable
/// [`CachePolicy`], built from a [`StorageConfig`] by [`CacheEngine::new`].
/// With the default [`CachePolicyKind::SemanticPriority`] this **is** the
/// paper's hStorage-DB cache; with
/// [`CachePolicyKind::Lru`] / [`CachePolicyKind::Cflru`] /
/// [`CachePolicyKind::TwoQ`] / [`CachePolicyKind::Arc`] the same shards,
/// devices and submission pipeline serve the classical baselines, and
/// with [`CachePolicyKind::PerStream`] a compositor that keeps the
/// semantic policy for scans, temporary data and buffered updates and
/// gives random point reads to ARC.
///
/// [`CachePolicyKind::SemanticPriority`]: crate::CachePolicyKind::SemanticPriority
/// [`CachePolicyKind::Lru`]: crate::CachePolicyKind::Lru
/// [`CachePolicyKind::Cflru`]: crate::CachePolicyKind::Cflru
/// [`CachePolicyKind::TwoQ`]: crate::CachePolicyKind::TwoQ
/// [`CachePolicyKind::Arc`]: crate::CachePolicyKind::Arc
/// [`CachePolicyKind::PerStream`]: crate::CachePolicyKind::PerStream
pub struct CacheEngine {
    /// The description the engine was built from.
    config: StorageConfig,
    name: String,
    /// Whether the installed policy declares repeat hits idempotent —
    /// the precondition for consulting the hot-hit descriptor.
    hit_fast_path: bool,
    /// Engine-level migration round counters (per-shard move counters
    /// live on the shards).
    migration_rounds: AtomicU64,
    migration_skipped: AtomicU64,
    /// Summed device idle time (nanoseconds) consumed by the last executed
    /// migration round; the idle gate in
    /// [`StorageSystem::migrate_idle`] claims the next window with a
    /// compare-exchange on this mark, so concurrent callers never
    /// double-run a round.
    idle_mark: AtomicU64,
    /// `None` while journaling is off, so the disabled engine carries no
    /// journal state at all.
    journal: Option<Journal>,
    clock: SimClock,
    ssd: SsdDevice,
    hdd: HddDevice,
    shards: Vec<Shard>,
}

impl CacheEngine {
    /// Builds the engine `config` describes — the engine's only
    /// constructor. Every field but `kind` is read: the paper's device
    /// models at `queue_depth`, `shards` lock stripes over
    /// `cache_capacity_blocks` slots (shard `i` manages the blocks with
    /// `lbn % shards == i` and `capacity / shards` slots, the remainder
    /// spread over the first shards), each with its own `cache_policy`
    /// instance and, when enabled, `migration` state, and the `journal`.
    /// One shard reproduces the paper's global selective
    /// allocation/eviction exactly.
    ///
    /// Panics if `config.kind` is not [`StorageConfigKind::HStorageDb`]
    /// or [`StorageConfig::validate`] rejects the description.
    pub fn new(config: &StorageConfig) -> Self {
        assert_eq!(
            config.kind,
            StorageConfigKind::HStorageDb,
            "CacheEngine builds only the hStorage-DB kind"
        );
        let (clock, lanes) = SimClock::with_lanes(config.shards);
        let (ssd, hdd) = config.devices(&clock);
        let hit_service = [false, true].map(|sequential| {
            ssd.service_time(&IoRequest::read(BlockRange::new(0u64, 1), sequential))
        });
        let n = config.shards as u64;
        let total = config.cache_capacity_blocks;
        let shards = (0..n)
            .zip(lanes)
            .map(|(i, lane)| {
                let capacity = total / n + u64::from(i < total % n);
                Shard::new(config, capacity, hit_service, lane)
            })
            .collect();
        let mut engine = CacheEngine {
            config: *config,
            name: config.cache_policy.system_name().to_string(),
            hit_fast_path: false,
            migration_rounds: AtomicU64::new(0),
            migration_skipped: AtomicU64::new(0),
            idle_mark: AtomicU64::new(0),
            journal: config.journal.enabled.then(|| Journal::new(config.journal)),
            clock,
            ssd,
            hdd,
            shards,
        };
        engine.refresh_policy_traits();
        engine
    }

    /// Re-derives [`Self::hit_fast_path`] from the installed policy:
    /// repeat hits take the descriptor shortcut only when the policy
    /// declares them idempotent.
    fn refresh_policy_traits(&mut self) {
        let policy = &self.shards[0].state.get_mut().policy;
        self.hit_fast_path = policy.repeat_hit_idempotent();
    }

    /// Installs a custom [`CachePolicy`] built by `factory` (called once
    /// per shard with that shard's slot capacity) in place of the one
    /// [`Self::new`] built, and names the resulting storage system `name`.
    /// Must be called before any traffic is submitted. See the
    /// [`CachePolicy`] docs for a worked example. The engine holds the
    /// policy as [`ShardPolicy::Custom`], so each of its calls is one
    /// indirect call.
    pub fn with_policy_factory(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(u64) -> Box<dyn CachePolicy>,
    ) -> Self {
        self.name = name.into();
        for shard in &mut self.shards {
            shard.install(ShardPolicy::Custom(factory(shard.capacity as u64)));
        }
        self.refresh_policy_traits();
        self
    }

    /// Number of records in the attached journal (0 with journaling
    /// disabled).
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Journal::len)
    }

    /// The current image of the attached journal — what the simulated
    /// persistent device holds right now — or `None` with journaling
    /// disabled. Feed it (optionally through
    /// [`JournalSnapshot::crash_at`]) to [`crate::recovery::recover`].
    pub fn journal_snapshot(&self) -> Option<JournalSnapshot> {
        self.journal.as_ref().map(Journal::snapshot)
    }

    /// Commits any open journal batch (a clean shutdown of the group
    /// commit window). No-op with journaling disabled.
    pub fn journal_seal(&self) {
        if let Some(journal) = &self.journal {
            journal.seal();
        }
    }

    /// The resident set as `(lbn, priority, dirty)` triples, sorted by
    /// block address — the recovery suite's convergence fingerprint.
    /// Takes each shard's read lock in turn.
    pub fn resident_set(&self) -> Vec<(BlockAddr, CachePriority, bool)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.state.read();
            for (lbn, slot) in st.meta.iter() {
                out.push((lbn, slot.entry.priority, slot.entry.is_dirty()));
            }
        }
        out.sort_unstable_by_key(|(lbn, _, _)| lbn.0);
        out
    }

    /// The migration heat learned for `lbn` so far (0 with migration
    /// disabled). Repeat hits still tallied on the shard's hot descriptor
    /// are not included: they reach the tracker when the descriptor is
    /// next replaced, or at the next [`StorageSystem::stats`],
    /// [`StorageSystem::reset_stats`] or migration round.
    pub fn learned_heat(&self, lbn: BlockAddr) -> u64 {
        let st = self.shard(lbn).state.read();
        st.migration.as_ref().map_or(0, |mig| mig.heat.heat(lbn))
    }

    /// Every block with non-zero learned heat as `(lbn, heat)` pairs,
    /// sorted by block address (empty with migration disabled) — the
    /// recovery suite's heat fingerprint.
    pub fn heat_snapshot(&self) -> Vec<(BlockAddr, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.state.read();
            if let Some(mig) = st.migration.as_ref() {
                out.extend(
                    mig.heat
                        .iter()
                        .filter(|(_, heat)| **heat > 0)
                        .map(|(lbn, heat)| (*lbn, *heat)),
                );
            }
        }
        out.sort_unstable_by_key(|(lbn, _)| lbn.0);
        out
    }

    /// The description the engine was built from. Custom policies
    /// installed with [`Self::with_policy_factory`] leave its
    /// `cache_policy` at the kind they replaced; their
    /// [`StorageSystem::name`] identifies them.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Checks each shard against its invariants, taking its read lock in
    /// turn, and returns the first broken one:
    ///
    /// * the block table passes
    ///   [`BlockTable::audit`](crate::BlockTable::audit), and the policy
    ///   [`CachePolicy::check`];
    /// * the table holds no more blocks than the shard has slots;
    /// * a `Some` hot-hit descriptor names a resident block, and a `None`
    ///   has no repeat hits tallied against it;
    /// * the write-buffer occupancy equals the number of resident blocks
    ///   that are write-buffered;
    /// * no block queued for promotion is resident (the `pending_promote`
    ///   clause written down in [`crate::migration`]).
    ///
    /// Reads every slot, residency page and policy node: for tests, not
    /// for a hot path.
    pub fn audit(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let st = shard.state.read();
            st.meta.audit().map_err(|e| format!("shard {i}: {e}"))?;
            st.policy
                .check()
                .map_err(|e| format!("shard {i} policy: {e}"))?;
            if st.meta.len() > shard.capacity {
                return Err(format!(
                    "shard {i}: {} blocks resident in {} slots",
                    st.meta.len(),
                    shard.capacity
                ));
            }
            match st.hot {
                Some(hot) if !st.meta.contains(hot.lbn) => {
                    return Err(format!(
                        "shard {i}: the hot-hit descriptor names block {}, which is not resident",
                        hot.lbn.0
                    ))
                }
                None if st.fast_hits != 0 => {
                    return Err(format!(
                        "shard {i}: {} repeat hits tallied against no descriptor",
                        st.fast_hits
                    ))
                }
                _ => {}
            }
            let buffered = st
                .meta
                .iter()
                .filter(|(_, slot)| shard.buffered(slot.entry.priority))
                .count() as u64;
            let occupancy = st.write_buffer_resident;
            if occupancy != buffered {
                return Err(format!(
                    "shard {i}: write-buffer occupancy {occupancy}, but {buffered} resident blocks are write-buffered"
                ));
            }
            let queued = st.migration.as_ref().and_then(|mig| {
                mig.pending_promote
                    .iter()
                    .find(|&&lbn| st.meta.contains(lbn))
            });
            if let Some(lbn) = queued {
                return Err(format!(
                    "shard {i}: block {} is queued for promotion but resident",
                    lbn.0
                ));
            }
        }
        Ok(())
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of blocks the write buffer may hold before a flush
    /// (summed over all shards). Lock-free: the limits are fixed at
    /// construction.
    pub fn write_buffer_limit(&self) -> u64 {
        self.shards.iter().map(|s| s.write_buffer_limit).sum()
    }

    /// Number of blocks currently held in the write buffer. Takes each
    /// shard's read lock in turn: occupancy is kept in the shard state.
    pub fn write_buffer_resident(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.state.read().write_buffer_resident)
            .sum()
    }

    /// Whether `lbn` is currently resident in the cache. Served under
    /// the shard's read lock — never contends with other probes, only
    /// with a concurrent mutation of the same shard.
    pub fn contains_block(&self, lbn: BlockAddr) -> bool {
        self.shard(lbn).state.read().meta.contains(lbn)
    }

    /// The priority group `lbn` currently lives in, if resident (for the
    /// non-semantic policies this is the informational label recorded at
    /// insertion). Served under the shard's read lock, like
    /// [`Self::contains_block`].
    pub fn cached_priority(&self, lbn: BlockAddr) -> Option<CachePriority> {
        self.shard(lbn)
            .state
            .read()
            .meta
            .get(lbn)
            .map(|slot| slot.entry.priority)
    }

    fn shard(&self, lbn: BlockAddr) -> &Shard {
        &self.shards[self.shard_index(lbn)]
    }

    /// The index of `lbn`'s shard.
    fn shard_index(&self, lbn: BlockAddr) -> usize {
        (lbn.0 % self.shards.len() as u64) as usize
    }

    fn policy_request(&self, req: &ClassifiedRequest) -> PolicyRequest {
        PolicyRequest {
            direction: req.io.direction,
            class: req.class,
            qos: req.policy,
            prio: self.config.policy.resolve(req.policy),
        }
    }

    /// Prices the device traffic one request accumulated and advances
    /// `st`'s clock lane by the total, once — the same integer-nanosecond
    /// sum as advancing per device. SSD transfers go on `st`'s ledger; HDD
    /// transfers are recorded by the disk, which moves its head. Runs
    /// under the shard's write lock, on the request's last shard visit, so
    /// the disk's mutex is taken inside the shard lock: the one order in
    /// which the two ever nest.
    #[inline(always)]
    fn charge(&self, st: &mut ShardState, req: &ClassifiedRequest, batch: &DeviceBatch) {
        let mut t = Duration::ZERO;
        for (device, io) in batch.transfers(req.io.range.start, req.io.sequential) {
            t += match device {
                DeviceKind::Ssd => {
                    let service = self.ssd.service_time(&io);
                    st.ssd.record(&io, service, 1);
                    service
                }
                DeviceKind::Hdd => self.hdd.charge(&io),
            };
        }
        st.lane.advance(t);
    }

    /// The address distance of a shard walk's table prefetch: the block
    /// [`PREFETCH_STRIDES`] ahead on the same shard.
    fn prefetch_distance(&self) -> u64 {
        PREFETCH_STRIDES * self.shards.len() as u64
    }

    /// The shard-major traversal of a multi-block walk — one request, a
    /// run of requests, a TRIM's ranges. Each shard the
    /// `ranges` touch is visited exactly once: its write lock is taken
    /// (and counted), `visit` is handed the shard's index, the shard and
    /// its blocks as `(range index, block)` pairs and must consume them,
    /// and the lock is
    /// released before the next shard's is taken — never two at once, so
    /// concurrent walks cannot deadlock. Ranges without blocks touch no
    /// shard.
    fn visit_shards<I>(
        &self,
        ranges: I,
        mut visit: impl FnMut(usize, &Shard, &mut ShardState, &mut ShardBlocks<I>),
    ) where
        I: ExactSizeIterator<Item = BlockRange> + Clone,
    {
        let n = self.shards.len() as u64;
        let Some(first) = ranges.clone().next() else {
            return;
        };
        // A lone range touches the `min(len, n)` shards from its first
        // block's on; several ranges may touch any.
        let span = if ranges.len() == 1 { first.len } else { n };
        let base = first.start.0 % n;
        for k in 0..span.min(n) {
            let idx = wrap(base + k, n);
            let mut blocks = ShardBlocks::new(ranges.clone(), n, idx);
            if blocks.peek().is_none() {
                continue;
            }
            let shard = &self.shards[idx as usize];
            visit(
                idx as usize,
                shard,
                &mut shard.lock_for_write(),
                &mut blocks,
            );
            debug_assert!(blocks.peek().is_none(), "visit left blocks unhandled");
        }
    }

    /// Serves a run of non-write-buffer requests as one vectored submission:
    /// each touched shard is locked once for the whole run, and the
    /// accumulated device traffic is issued as one queue per device so
    /// adjacent transfers merge up to the device queue depth.
    ///
    /// Per-shard block order equals request order, so the cache state and
    /// cache-level statistics after a run are identical to submitting each
    /// request individually. Callers must ensure no request in the run is
    /// write-buffered ([`Shard::buffered`]): such a request drains the
    /// buffer it overfills, which a run does not.
    fn submit_run(&self, reqs: &[ClassifiedRequest]) {
        match reqs {
            [] => return,
            // Straight to the unbatched path, below the journal wrapper:
            // the run is always part of an already-journaled operation.
            [one] => return self.submit_inner(one),
            _ => {}
        }
        let mut work: Vec<(PolicyRequest, DeviceBatch)> = reqs
            .iter()
            .map(|r| (self.policy_request(r), DeviceBatch::default()))
            .collect();
        let ahead = self.prefetch_distance();
        self.visit_shards(reqs.iter().map(|r| r.io.range), |_, shard, st, blocks| {
            shard.walk_blocks(st, blocks, ahead, reqs, &mut work);
        });

        // Issue the device traffic as one queue per device, in request
        // order (the order `submit` would have served it in), letting the
        // device merge adjacent same-direction transfers.
        let mut hdd_q = Vec::with_capacity(reqs.len());
        let mut ssd_q = Vec::with_capacity(reqs.len());
        for (req, (_, batch)) in reqs.iter().zip(&work) {
            for (device, io) in batch.transfers(req.io.range.start, req.io.sequential) {
                match device {
                    DeviceKind::Hdd => hdd_q.push(io),
                    DeviceKind::Ssd => ssd_q.push(io),
                }
            }
        }
        if !hdd_q.is_empty() {
            self.hdd.serve_batch(&hdd_q);
        }
        if !ssd_q.is_empty() {
            self.ssd.serve_batch(&ssd_q);
        }
    }

    /// Completes the drain of shard `shard`'s write buffer, once its lock
    /// is released: the `dirty_blocks` it dropped are written to the HDD
    /// as one flush (the write buffer's threshold `b`).
    #[cold]
    #[inline(never)]
    fn flush_drained(&self, shard: usize, dirty_blocks: u64) {
        // The drain tore down the buffer inside the enclosing journal
        // batch; the note marks the torn-drain window the fault-injection
        // suite crashes into. Never replayed.
        if let Some(journal) = &self.journal {
            journal.note_drain(shard, dirty_blocks);
        }
        if dirty_blocks > 0 {
            // The flush is a large, mostly sequential transfer.
            self.hdd
                .serve(&IoRequest::write(BlockRange::new(0u64, dirty_blocks), true));
        }
    }

    /// Runs one journaled operation: appends `op` write-ahead (opening a
    /// batch if needed), executes `body`, then marks the operation done —
    /// committing the batch once it holds `commit_interval` operations.
    /// With journaling disabled this is exactly `body()`.
    fn journaled<T>(&self, op: impl FnOnce() -> JournalOp, body: impl FnOnce() -> T) -> T {
        match &self.journal {
            None => body(),
            Some(journal) => {
                journal.op_begin(op());
                let out = body();
                journal.op_end();
                out
            }
        }
    }

    /// [`StorageSystem::submit`] below the journal wrapper. By reference,
    /// so that `submit` hands its request straight on rather than copying
    /// it first, on the hottest path there is.
    fn submit_inner(&self, req: &ClassifiedRequest) {
        self.submit_one(req, self.shard_index(req.io.range.start), |_| {});
    }

    /// [`Self::submit_inner`] of `req`, whose first block lives on shard
    /// `shard`. A lone-block request runs `ahead` under that shard's lock
    /// before it handles the block (see [`Self::submit_each_inner`]).
    #[inline(always)]
    fn submit_one(&self, req: &ClassifiedRequest, shard: usize, ahead: impl FnOnce(&ShardState)) {
        let preq = self.policy_request(req);
        match req.blocks() {
            0 => {}
            1 => self.submit_block(req, &preq, shard, ahead),
            _ => self.walk_request(req, preq),
        }
    }

    /// [`StorageSystem::submit_each`] with journaling off: each request
    /// takes [`Self::submit_inner`]'s path, in order, so nothing it
    /// decides, counts or prices can differ. The slice serves only to look
    /// ahead. While it holds a lone-block request's shard lock, the engine
    /// starts loading what the visits of requests further on **that
    /// shard** will wait on: the table lines of the request [`SLOT_AHEAD`]
    /// places on, the list node of the one [`NODE_AHEAD`] on, and that
    /// node's neighbours for the one [`NEIGHBOURS_AHEAD`] on. It reads
    /// only the held shard's table and policy, through pure hints
    /// ([`BlockTable::prefetch`](crate::BlockTable::prefetch),
    /// [`CachePolicy::prefetch_hit`]), and a request on another shard is
    /// simply not looked ahead for. Shard indices are computed once per
    /// request.
    fn submit_each_inner(&self, reqs: &[ClassifiedRequest]) {
        let mut shard_of = [0usize; EACH_CHUNK];
        for chunk in reqs.chunks(EACH_CHUNK) {
            for (shard, req) in shard_of.iter_mut().zip(chunk) {
                *shard = self.shard_index(req.io.range.start);
            }
            for (j, req) in chunk.iter().enumerate() {
                let shard = shard_of[j];
                // The first block of the request `d` places ahead, if it
                // lives on this shard.
                let ahead = |d: usize| {
                    let lbn = chunk.get(j + d)?.io.range.start;
                    (shard_of[j + d] == shard).then_some(lbn)
                };
                self.submit_one(req, shard, |st| {
                    if let Some(lbn) = ahead(SLOT_AHEAD) {
                        st.meta.prefetch(lbn);
                    }
                    for (d, neighbours) in [(NODE_AHEAD, false), (NEIGHBOURS_AHEAD, true)] {
                        if let Some(slot) = ahead(d).and_then(|lbn| st.meta.peek_home(lbn)) {
                            st.policy.prefetch_hit(slot.node, neighbours);
                        }
                    }
                });
            }
        }
    }

    /// A lone-block [`Self::submit_inner`]: one shard visit under its
    /// write lock, which also prices the request and advances the shard's
    /// clock lane, so the request's only locked instructions are the
    /// shard lock's (and the disk mutex's, if it reaches the disk).
    ///
    /// A read repeating the shard's hot hit exactly takes the shortcut:
    /// the skipped `on_hit` is a no-op by the
    /// [`CachePolicy::repeat_hit_idempotent`] contract, so the hit is only
    /// tallied on the descriptor, for [`Shard::set_hot`] to account, and
    /// the lane advanced by the SSD transfer it would have been priced at.
    /// Write-buffered requests always take the full path, which ends by
    /// draining the buffer if the request overfilled it; the write-back of
    /// the drained blocks follows once the lock is released.
    ///
    /// `index` is the block's shard, and `ahead` runs first under its
    /// lock.
    #[inline(always)]
    fn submit_block(
        &self,
        req: &ClassifiedRequest,
        preq: &PolicyRequest,
        index: usize,
        ahead: impl FnOnce(&ShardState),
    ) {
        let lbn = req.io.range.start;
        let sequential = req.io.sequential;
        let shard = &self.shards[index];
        let buffered = shard.buffered(preq.prio);
        let mut st = shard.state.write();
        ahead(&st);
        // The descriptor only ever holds a read's shape, so matching it
        // also proves this request a read.
        let repeat = HotHit {
            lbn,
            shape: *preq,
            sequential,
        };
        if self.hit_fast_path && !buffered && st.hot == Some(repeat) {
            debug_assert!(st.meta.contains(lbn), "repeat hit on a non-resident block");
            st.fast_hits += 1;
            st.lane.advance(shard.hit_service[usize::from(sequential)]);
            return;
        }
        st.stats.contention.lock_acquisitions += 1;
        let mut batch = DeviceBatch::default();
        shard.place_block(&mut st, lbn, preq, sequential, &mut batch);
        self.charge(&mut st, req, &batch);
        if buffered {
            if let Some(dirty_blocks) = shard.drain_write_buffer_if_full(&mut st) {
                drop(st);
                self.flush_drained(index, dirty_blocks);
            }
        }
    }

    /// The shard visits of a multi-block [`Self::submit_inner`], which
    /// settle bypassed blocks in runs; the last visit prices the request
    /// and advances its shard's clock lane. A visit of a write-buffered
    /// request drains the buffer it overfilled, and the drained blocks are
    /// written back after the walk, in shard order. Out of line, so the
    /// lone-block path keeps the code it had without runs.
    #[inline(never)]
    fn walk_request(&self, req: &ClassifiedRequest, preq: PolicyRequest) {
        let mut work = [(preq, DeviceBatch::default())];
        // One range visits its first `min(len, n)` shards, each with
        // blocks.
        let mut visits_left = req.blocks().min(self.shards.len() as u64);
        let ahead = self.prefetch_distance();
        let mut drained = Vec::new();
        self.visit_shards(std::iter::once(req.io.range), |index, shard, st, blocks| {
            shard.walk_blocks(st, blocks, ahead, std::slice::from_ref(req), &mut work);
            visits_left -= 1;
            // Once the request's traffic is complete, its SSD traffic goes
            // on the ledger, and its device time on the clock lane, of the
            // last shard it visits; the aggregate view sums all ledgers and
            // `now()` all lanes, so placement is free.
            if visits_left == 0 {
                self.charge(st, req, &work[0].1);
            }
            if shard.buffered(preq.prio) {
                if let Some(dirty_blocks) = shard.drain_write_buffer_if_full(st) {
                    drained.push((index, dirty_blocks));
                }
            }
        });
        // The write-backs move the disk head, so they keep shard order,
        // whatever shard the walk started on.
        drained.sort_unstable();
        for (index, dirty_blocks) in drained {
            self.flush_drained(index, dirty_blocks);
        }
    }

    /// [`StorageSystem::submit_batch`] below the journal wrapper.
    fn submit_batch_inner(&self, reqs: &[ClassifiedRequest]) {
        // Write-buffered requests keep the per-request drain of `submit`,
        // so the batch is served as maximal runs of the other requests, in
        // place, with buffered requests submitted individually between
        // them. On the hot path (scan batches), and under a policy without
        // a write buffer, the whole batch is one run. Every shard runs the
        // same policy kind, so the first answers for all.
        let mut start = 0;
        for (i, req) in reqs.iter().enumerate() {
            if self.shards[0].buffered(self.config.policy.resolve(req.policy)) {
                self.submit_run(&reqs[start..i]);
                self.submit_inner(req);
                start = i + 1;
            }
        }
        self.submit_run(&reqs[start..]);
    }

    /// Takes each shard's write lock in turn (uncounted: this is a
    /// statistics read, not a submission), credits the repeat hits still
    /// tallied on its hot descriptor and hands the settled state to `f`.
    /// [`Self::audit`] checks the descriptor.
    fn for_each_settled(&self, mut f: impl FnMut(&mut ShardState)) {
        for shard in &self.shards {
            let mut st = shard.state.write();
            let hot = st.hot;
            shard.set_hot(&mut st, hot);
            f(&mut st);
        }
    }

    /// Busy time of the SSD across the device's own ledger and every
    /// shard's.
    fn ssd_busy_time(&self) -> Duration {
        let mut busy = self.ssd.stats().busy_time;
        self.for_each_settled(|st| busy += st.ssd.busy_time);
        busy
    }

    /// [`StorageSystem::reset_stats`] below the journal wrapper. Settling
    /// first means the heat of tallied repeat hits reaches the migration
    /// tracker before the counters clear: learned heat survives a reset.
    fn reset_stats_inner(&self) {
        self.for_each_settled(|st| {
            st.stats = CacheStats::new();
            st.ssd = DeviceStats::new();
        });
        self.ssd.reset_stats();
        self.hdd.reset_stats();
    }

    /// [`StorageSystem::trim`] below the journal wrapper.
    fn trim_inner(&self, cmd: &TrimCommand) {
        let ahead = self.prefetch_distance();
        self.visit_shards(cmd.ranges.iter().copied(), |_, shard, st, blocks| {
            let trimmed: u64 = blocks
                .map(|(_, lbn)| {
                    st.meta.prefetch(BlockAddr(lbn.0.wrapping_add(ahead)));
                    shard.trim_block(st, lbn)
                })
                .sum();
            if trimmed > 0 {
                st.stats.record_action(CacheAction::Trim, trimmed);
            }
        });
    }
}

impl StorageSystem for CacheEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&self, req: ClassifiedRequest) {
        self.journaled(|| JournalOp::Submit(req), || self.submit_inner(&req));
    }

    fn submit_each(&self, reqs: &[ClassifiedRequest]) {
        match &self.journal {
            None => self.submit_each_inner(reqs),
            // One `Submit` record per request, exactly as `submit` writes
            // them: the lookahead is not worth a record format of its own.
            Some(_) => reqs.iter().for_each(|req| self.submit(*req)),
        }
    }

    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        match &self.journal {
            // The clone of the request vector is paid only with
            // journaling on; disabled, the batch moves straight through.
            None => self.submit_batch_inner(&reqs),
            Some(journal) => {
                // One record for the whole batch: the batched path merges
                // adjacent device transfers, so replaying it as
                // individual submits would diverge from the original
                // device timing.
                journal.op_begin(JournalOp::SubmitBatch(reqs.clone()));
                self.submit_batch_inner(&reqs);
                journal.op_end();
            }
        }
    }

    fn trim(&self, cmd: &TrimCommand) {
        self.journaled(|| JournalOp::Trim(cmd.clone()), || self.trim_inner(cmd));
    }

    fn stats(&self) -> CacheStats {
        let mut aggregate = CacheStats::new();
        let mut ssd = self.ssd.stats();
        self.for_each_settled(|st| {
            aggregate.merge(&st.stats);
            aggregate.resident_blocks += st.meta.len() as u64;
            ssd.merge(&st.ssd);
        });
        aggregate.ssd = Some(ssd);
        aggregate.hdd = Some(self.hdd.stats());
        aggregate
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn reset_stats(&self) {
        self.journaled(|| JournalOp::StatsReset, || self.reset_stats_inner());
    }

    fn resident_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.state.read().meta.len() as u64)
            .sum()
    }

    fn migrate_idle(&self) -> MigrationStats {
        if !self.config.migration.enabled {
            // A pulse without a migration engine is a pure no-op on both
            // sides of a crash, so it is not worth a journal record.
            return self.migration_stats();
        }
        self.journaled(|| JournalOp::MigrationPulse, || self.migrate_idle_inner())
    }

    fn migration_stats(&self) -> MigrationStats {
        let mut stats = MigrationStats {
            rounds: self.migration_rounds.load(Ordering::Relaxed),
            skipped_rounds: self.migration_skipped.load(Ordering::Relaxed),
            ..MigrationStats::default()
        };
        // Only migration-on shards count moves: with migration off this
        // read, which every query's pulse ends in, takes no lock.
        if self.config.migration.enabled {
            for shard in &self.shards {
                if let Some(mig) = &shard.state.read().migration {
                    stats.merge(&mig.moves);
                }
            }
        }
        stats
    }
}

impl CacheEngine {
    /// [`StorageSystem::migrate_idle`] below the journal wrapper (only
    /// reached with migration enabled).
    fn migrate_idle_inner(&self) -> MigrationStats {
        // The gate is the *sum* of both devices' accrued idle time: it is
        // monotone and grows whenever either device sits idle while the
        // other serves, so rounds keep firing even when one device is
        // saturated (exactly the phase where migration matters). The
        // per-device minimum would stagnate there.
        let ssd_idle = self.clock.now().saturating_sub(self.ssd_busy_time());
        let idle_ns = (ssd_idle + self.hdd.idle_time()).as_nanos() as u64;
        let threshold_ns = self.config.migration.idle_threshold.as_nanos() as u64;
        let mark = self.idle_mark.load(Ordering::Acquire);
        if idle_ns.saturating_sub(mark) < threshold_ns {
            self.migration_skipped.fetch_add(1, Ordering::Relaxed);
            return self.migration_stats();
        }
        // Claim the idle window; a concurrent caller losing the race
        // counts a skip instead of double-running the round.
        if self
            .idle_mark
            .compare_exchange(mark, idle_ns, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            self.migration_skipped.fetch_add(1, Ordering::Relaxed);
            return self.migration_stats();
        }
        self.migration_rounds.fetch_add(1, Ordering::Relaxed);
        let mut total = DeviceBatch::default();
        for shard in &self.shards {
            migration_round(shard, &mut shard.lock_for_write(), &mut total);
        }
        // Issue the round's traffic outside every shard lock, one batched
        // command per device and direction (promotion fetches, demotion
        // writebacks of dirty blocks, SSD placements).
        for (device, io) in total.transfers(BlockAddr(0), false) {
            match device {
                DeviceKind::Hdd => self.hdd.serve(&io),
                DeviceKind::Ssd => self.ssd.serve(&io),
            };
        }
        self.migration_stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::lru_cache::LruCache;
    use crate::migration::MigrationConfig;
    use crate::policy::CachePolicyKind;
    use hstorage_storage::{QosPolicy, RequestClass};

    /// A single-shard engine of `capacity` blocks under `kind`.
    fn config(kind: CachePolicyKind, capacity: u64) -> StorageConfig {
        StorageConfig::new(StorageConfigKind::HStorageDb, capacity).with_cache_policy(kind)
    }

    fn engine(kind: CachePolicyKind, capacity: u64) -> CacheEngine {
        CacheEngine::new(&config(kind, capacity))
    }

    pub(crate) fn read_req(
        start: u64,
        len: u64,
        class: RequestClass,
        policy: QosPolicy,
    ) -> ClassifiedRequest {
        let sequential = matches!(class, RequestClass::Sequential);
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, len), sequential),
            class,
            policy,
        )
    }

    pub(crate) fn write_req(
        start: u64,
        len: u64,
        class: RequestClass,
        policy: QosPolicy,
    ) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::write(BlockRange::new(start, len), false),
            class,
            policy,
        )
    }

    /// `audit()` names a hot descriptor on a block that is not resident, a
    /// repeat-hit tally with no descriptor, a write-buffer occupancy that
    /// disagrees with the resident blocks, and a resident block queued for
    /// promotion. No sequence of public calls reaches these states, so
    /// each is set up under the shard lock.
    #[test]
    fn audit_names_a_stale_hot_descriptor_and_a_drifted_write_buffer() {
        for clause in [
            "not resident",
            "tallied against no descriptor",
            "write-buffer occupancy",
            "queued for promotion",
        ] {
            let c = CacheEngine::new(
                &config(CachePolicyKind::SemanticPriority, 16).with_migration(eager_migration(4)),
            );
            let hit = read_req(3, 1, RequestClass::Random, QosPolicy::priority(2));
            c.submit(hit);
            c.submit(hit);
            assert_eq!(c.audit(), Ok(()));
            let shard = &c.shards[0];
            let mut st = shard.state.write();
            match clause {
                "not resident" => {
                    let hot = st.hot.expect("the second read hit is hot");
                    st.hot = Some(HotHit {
                        lbn: BlockAddr(99),
                        ..hot
                    });
                }
                "tallied against no descriptor" => {
                    st.hot = None;
                    st.fast_hits = 2;
                }
                "queued for promotion" => {
                    let mig = st.migration.as_mut().expect("migration is on");
                    mig.pending_promote.insert(BlockAddr(3));
                }
                _ => st.write_buffer_resident += 1,
            }
            drop(st);
            let err = c.audit().expect_err(clause);
            assert!(err.contains(clause), "{clause}: {err}");
        }
    }

    #[test]
    fn policy_selection_renames_the_system() {
        assert_eq!(
            engine(CachePolicyKind::SemanticPriority, 10).name(),
            "hStorage-DB"
        );
        assert_eq!(engine(CachePolicyKind::Lru, 10).name(), "hybrid-lru");
        assert_eq!(engine(CachePolicyKind::cflru(), 10).name(), "hybrid-cflru");
        assert_eq!(engine(CachePolicyKind::two_q(), 10).name(), "hybrid-2q");
        assert_eq!(
            engine(CachePolicyKind::two_q(), 10).config().cache_policy,
            CachePolicyKind::two_q()
        );
    }

    #[test]
    fn lru_policy_engine_admits_sequential_data_unlike_the_semantic_policy() {
        let c = engine(CachePolicyKind::Lru, 100);
        c.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        // The scan fills the cache — the classic pollution the semantic
        // policy avoids.
        assert_eq!(c.resident_blocks(), 50);
        assert_eq!(c.stats().action(CacheAction::Bypassing), 0);

        let semantic = engine(CachePolicyKind::SemanticPriority, 100);
        semantic.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(semantic.resident_blocks(), 0);
    }

    #[test]
    fn lru_policy_engine_matches_the_standalone_lru_baseline_on_reuse() {
        // The engine running the Lru policy and the paper's standalone
        // LruCache baseline implement the same algorithm; on a
        // no-write-buffer trace their cache-level counters agree.
        let eng = engine(CachePolicyKind::Lru, 32);
        let base = LruCache::new(32);
        let mk = |i: u64| read_req(i % 48, 1, RequestClass::Random, QosPolicy::priority(2));
        for i in 0..500u64 {
            eng.submit(mk(i));
            base.submit(mk(i));
        }
        let (es, bs) = (eng.stats(), base.stats());
        for class in RequestClass::all() {
            assert_eq!(es.class(class), bs.class(class), "{class}");
        }
        assert_eq!(
            es.action(CacheAction::Eviction),
            bs.action(CacheAction::Eviction)
        );
        assert_eq!(eng.resident_blocks(), base.resident_blocks());
    }

    #[test]
    fn cflru_policy_engine_saves_dirty_writebacks_over_lru() {
        // Half the resident set is dirty; a stream of fresh reads then
        // forces evictions. CFLRU must write back fewer dirty blocks than
        // plain LRU for the same logical traffic.
        let run = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for i in 0..64u64 {
                if i % 2 == 0 {
                    c.submit(write_req(
                        i,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(3),
                    ));
                } else {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(3)));
                }
            }
            for i in 1_000..1_016u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(3)));
            }
            c.stats().hdd.expect("engine has an HDD").blocks_written
        };
        assert!(run(CachePolicyKind::cflru()) < run(CachePolicyKind::Lru));
    }

    #[test]
    fn two_q_policy_engine_resists_scan_pollution() {
        // Repeated rounds of a small hot set followed by a one-shot scan
        // larger than the cache. LRU loses the hot set to every scan; 2Q
        // evicts it to the ghost list once, promotes it to Am on the next
        // round's re-reference, and from then on the scans only churn the
        // probationary queue.
        let hot_hits = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for round in 0..30u64 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
                c.submit(read_req(
                    10_000 + round * 64,
                    64,
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
            }
            c.stats().class(RequestClass::Random).cache_hits
        };
        let two_q = hot_hits(CachePolicyKind::two_q());
        let lru = hot_hits(CachePolicyKind::Lru);
        assert!(
            two_q > 2 * lru.max(1),
            "2Q must out-hit LRU on the scan-polluted hot set (2Q {two_q}, LRU {lru})"
        );
    }

    #[test]
    fn arc_policy_engine_resists_scan_pollution() {
        // A hot set that proves reuse once while resident (back-to-back
        // warm-up touches), then rounds of one hot pass plus a one-shot
        // scan as large as the cache. ARC holds the promoted set in T2
        // while the scans churn T1; LRU loses it to every scan.
        let hot_hits = |kind: CachePolicyKind| {
            let c = engine(kind, 64);
            for _ in 0..2 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
            }
            for round in 0..30u64 {
                for i in 0..8u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
                c.submit(read_req(
                    10_000 + round * 64,
                    64,
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
            }
            c.stats().class(RequestClass::Random).cache_hits
        };
        let arc = hot_hits(CachePolicyKind::Arc);
        let lru = hot_hits(CachePolicyKind::Lru);
        assert!(
            arc > 2 * lru.max(1),
            "ARC must out-hit LRU on the scan-polluted hot set (ARC {arc}, LRU {lru})"
        );
    }

    #[test]
    fn per_stream_engine_routes_scans_to_semantic_and_reads_to_arc() {
        let c = engine(CachePolicyKind::PerStream, 100);
        // The sequential stream consults the semantic inner: scans bypass.
        c.submit(read_req(
            0,
            50,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        assert_eq!(c.resident_blocks(), 0);
        assert_eq!(c.stats().action(CacheAction::Bypassing), 50);
        // The random stream consults ARC: even a non-caching QoS is
        // admitted (ARC ignores classification, like any baseline).
        c.submit(read_req(
            1_000,
            10,
            RequestClass::Random,
            QosPolicy::priority(2),
        ));
        assert_eq!(c.resident_blocks(), 10);
        // Temporary-data lifecycle still works through the semantic
        // stream: write, trim, gone.
        c.submit(write_req(
            2_000,
            20,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        assert_eq!(c.resident_blocks(), 30);
        c.trim(&TrimCommand::single(BlockRange::new(2_000u64, 20)));
        assert_eq!(c.resident_blocks(), 10);
        assert_eq!(c.stats().action(CacheAction::Trim), 20);
    }

    #[test]
    fn per_stream_engine_keeps_the_semantic_write_buffer() {
        let c = engine(CachePolicyKind::PerStream, 100); // buffer limit 10
        assert_eq!(c.write_buffer_limit(), 10);
        for i in 0..11u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        // The 11th buffered write exceeds the limit and triggers a flush,
        // exactly like the plain semantic engine.
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 11);
    }

    #[test]
    #[should_panic(expected = "invalid cache-policy configuration")]
    fn engine_rejects_out_of_range_policy_knobs() {
        let _ = engine(
            CachePolicyKind::TwoQ {
                kin_pct: 25,
                kout_pct: 201,
            },
            64,
        );
    }

    #[test]
    fn non_semantic_policies_have_no_write_buffer() {
        let c = engine(CachePolicyKind::Lru, 100);
        for i in 0..30u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        // Buffered updates are ordinary cached writes: no flush, no
        // write-buffer residency.
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 0);
        assert_eq!(c.resident_blocks(), 30);
    }

    #[test]
    fn policies_keep_capacity_invariants_under_churn() {
        for kind in CachePolicyKind::all() {
            let c = engine(kind, 64);
            for i in 0..1_000u64 {
                let prio = 2 + (i % 5) as u8;
                if i % 7 == 0 {
                    c.submit(write_req(
                        i,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(prio),
                    ));
                } else {
                    c.submit(read_req(
                        i % 200,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(prio),
                    ));
                }
                assert!(c.resident_blocks() <= 64, "{kind}");
            }
            let s = c.stats();
            assert_eq!(
                s.class(RequestClass::Random).accessed_blocks,
                1_000,
                "{kind}"
            );
        }
    }

    #[test]
    fn a_shard_is_full_exactly_when_its_table_holds_its_capacity() {
        let random = |lbn| read_req(lbn, 1, RequestClass::Random, QosPolicy::priority(2));
        for kind in CachePolicyKind::all() {
            // Two shards of 3 slots: the even blocks live on shard 0.
            let c = CacheEngine::new(&config(kind, 6).with_shards(2));
            let evictions = || c.stats().action(CacheAction::Eviction);
            for lbn in [0u64, 2, 4] {
                c.submit(random(lbn));
            }
            assert_eq!(evictions(), 0, "{kind}: a free slot needs no victim");
            // Full: every admitted miss now displaces one resident.
            c.submit(random(6));
            assert_eq!((evictions(), c.resident_blocks()), (1, 3), "{kind}");
            // A TRIM frees a slot, which the next miss takes without a victim.
            c.trim(&TrimCommand::single(BlockRange::new(6u64, 1)));
            c.submit(random(8));
            assert_eq!((evictions(), c.resident_blocks()), (1, 3), "{kind}");
        }
    }

    #[test]
    fn a_zero_capacity_shard_bypasses_every_block() {
        for kind in CachePolicyKind::all() {
            // Three slots over four shards: shard 3 has none.
            let c = CacheEngine::new(&config(kind, 3).with_shards(4));
            for _ in 0..2 {
                c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
                c.submit(write_req(
                    7,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(2),
                ));
            }
            assert_eq!(c.resident_blocks(), 0, "{kind}");
            let s = c.stats();
            assert_eq!(s.action(CacheAction::Bypassing), 4, "{kind}");
            assert_eq!(s.action(CacheAction::Eviction), 0, "{kind}");
        }
    }

    #[test]
    fn trim_invalidates_under_every_policy() {
        for kind in CachePolicyKind::all() {
            let c = engine(kind, 100);
            c.submit(write_req(
                0,
                40,
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ));
            assert_eq!(c.resident_blocks(), 40, "{kind}");
            c.trim(&TrimCommand::single(BlockRange::new(0u64, 40)));
            assert_eq!(c.resident_blocks(), 0, "{kind}");
            assert_eq!(c.stats().action(CacheAction::Trim), 40, "{kind}");
            // Space is reusable afterwards.
            c.submit(read_req(
                200,
                60,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
            assert_eq!(c.resident_blocks(), 60, "{kind}");
        }
    }

    #[test]
    fn trim_of_an_evicted_block_clears_its_2q_ghost() {
        // Temporary-data lifecycle against the ghost list: a block that
        // was evicted (and ghosted) and then TRIMmed must be a first-touch
        // block again when its address is re-used — not falsely hot.
        let c = engine(CachePolicyKind::two_q(), 8); // kin = 2 per shard
        c.submit(write_req(
            3,
            1,
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ));
        // Churn enough same-shard blocks through probation to evict 3.
        for i in 0..20u64 {
            c.submit(read_req(
                10 + i,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
        // End of lifetime for the (absent) block.
        c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
        assert_eq!(c.stats().action(CacheAction::Trim), 0, "nothing resident");

        // Against a twin engine that never saw the block, the re-used
        // address must behave identically (i.e. not be ghost-promoted).
        let twin = engine(CachePolicyKind::two_q(), 8);
        for e in [&c, &twin] {
            e.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..140u64 {
                e.submit(read_req(
                    3 + i * 8,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(2),
                ));
            }
        }
        assert_eq!(
            c.contains_block(BlockAddr(3)),
            twin.contains_block(BlockAddr(3)),
            "stale ghost must not change the re-used address's fate"
        );
    }

    #[test]
    fn a_range_trim_forgets_every_ghost_with_or_without_a_residency_page() {
        // Per shard, in local addresses (`lbn = local · n + shard`): a
        // hot set twice read (it keeps ARC's ghost directory open), ghosts
        // G evicted by churn, then residents R. The TRIM ranges cover G,
        // R and never-seen blocks N in page 0, whose page R keeps, and G
        // and N in page 5, which has no page once its G are evicted.
        const PAGE: u64 = 1 << 15; // local addresses per residency page
        let (hot, churn, fresh) = (3 * PAGE, 2 * PAGE, 7 * PAGE);
        let ghosts = [0, 1, 5 * PAGE, 5 * PAGE + 1];
        let residents = [2, 3, 4];
        for kind in [CachePolicyKind::two_q(), CachePolicyKind::Arc] {
            for n in [3u64, 8] {
                let cell = format!("{kind}, {n} shards");
                let lbn = |local: u64, shard: u64| local * n + shard;
                let read = |c: &CacheEngine, local: u64, shard: u64| {
                    c.submit(read_req(
                        lbn(local, shard),
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(2),
                    ));
                };
                let each_shard = |c: &CacheEngine, locals: &[u64]| {
                    for &l in locals {
                        (0..n).for_each(|s| read(c, l, s));
                    }
                };
                let new = || CacheEngine::new(&config(kind, 32 * n).with_shards(n as usize));
                // `saw` sees G before the range TRIM; `control` sees G but
                // TRIMs only the rest; `twin` never sees G.
                let (saw, control, twin) = (new(), new(), new());
                let hot_set: Vec<u64> = (0..12).map(|j| hot + j).collect();
                for c in [&saw, &control, &twin] {
                    each_shard(c, &hot_set);
                    each_shard(c, &hot_set);
                }
                each_shard(&saw, &ghosts);
                each_shard(&control, &ghosts);
                for s in 0..n {
                    // Churn the shard until its G are evicted, and the
                    // same number of blocks through the other two.
                    let mut j = 0;
                    while ghosts
                        .iter()
                        .any(|&g| saw.contains_block(BlockAddr(lbn(g, s))))
                    {
                        for c in [&saw, &control, &twin] {
                            read(c, churn + j, s);
                        }
                        j += 1;
                    }
                }
                for c in [&saw, &control, &twin] {
                    each_shard(c, &residents);
                }
                let whole = vec![
                    BlockRange::new(0u64, 8 * n),
                    BlockRange::new(5 * PAGE * n, 4 * n),
                ];
                let but_ghosts = vec![
                    BlockRange::new(2 * n, 6 * n),
                    BlockRange::new((5 * PAGE + 2) * n, 2 * n),
                ];
                for (c, ranges) in [(&saw, &whole), (&control, &but_ghosts), (&twin, &whole)] {
                    c.trim(&TrimCommand::new(ranges.clone()));
                    let trimmed = c.stats().action(CacheAction::Trim);
                    assert_eq!(trimmed, 3 * n, "{cell}: the residents are trimmed");
                    for s in 0..n {
                        assert!(residents
                            .iter()
                            .all(|&r| !c.contains_block(BlockAddr(lbn(r, s)))));
                    }
                    assert_eq!(c.audit(), Ok(()), "{cell}");
                }
                // The ghosts' addresses are reused: read once, then a
                // churn that flushes blocks seen once.
                for c in [&saw, &control, &twin] {
                    each_shard(c, &ghosts);
                    let flush: Vec<u64> = (0..32).map(|j| fresh + j).collect();
                    each_shard(c, &flush);
                }
                for s in 0..n {
                    for g in ghosts.map(|g| BlockAddr(lbn(g, s))) {
                        assert_eq!(
                            saw.contains_block(g),
                            twin.contains_block(g),
                            "{cell}: a TRIMmed ghost changes {g:?}'s fate"
                        );
                        assert_ne!(
                            control.contains_block(g),
                            twin.contains_block(g),
                            "{cell}: {g:?} was no ghost at the TRIM"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eviction_ghosts_a_2q_block_but_trim_forgets_it() {
        // The engine now announces its own displacements with
        // `RemoveReason::Evict`, so 2Q's probationary ghost list diverges
        // between the two ways a block can leave: evicted → remembered in
        // a1out (re-use is ghost-promoted straight to Am), trimmed →
        // forgotten (re-use restarts probation).
        let build = |trim_after_evict: bool| {
            let c = engine(CachePolicyKind::two_q(), 8); // kin = 2
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            // Fill the cache and push one more block: the probationary LRU
            // (block 3) is evicted and lands on the ghost list.
            for i in 10..18u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
            if trim_after_evict {
                c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
            }
            // Re-use the address, then churn fresh probationary blocks.
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..110u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            c.contains_block(BlockAddr(3))
        };
        assert!(
            build(false),
            "an engine-evicted block must be ghost-promoted to Am on re-use"
        );
        assert!(
            !build(true),
            "a trimmed ghost must restart probation and churn out with a1in"
        );
    }

    #[test]
    fn eviction_ghosts_an_arc_block_but_trim_forgets_it() {
        // Same divergence for ARC's B1 ghost list: an evicted T1 block is
        // remembered (re-use is a ghost hit into T2 and survives T1 churn);
        // a trimmed one is forgotten (re-use restarts in T1 and churns out).
        let build = |trim_after_evict: bool| {
            let c = engine(CachePolicyKind::Arc, 8);
            // Warm a hot set into T2 first so T1 stays narrow — ARC bounds
            // |T1| + |B1| by the capacity, and a full-width T1 would push
            // the block-3 ghost out of B1 before its re-use.
            for _ in 0..2 {
                for i in 20..24u64 {
                    c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
                }
            }
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 10..14u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            assert!(!c.contains_block(BlockAddr(3)), "block 3 must be evicted");
            if trim_after_evict {
                c.trim(&TrimCommand::single(BlockRange::new(3u64, 1)));
            }
            c.submit(read_req(3, 1, RequestClass::Random, QosPolicy::priority(2)));
            for i in 100..110u64 {
                c.submit(read_req(i, 1, RequestClass::Random, QosPolicy::priority(2)));
            }
            c.contains_block(BlockAddr(3))
        };
        assert!(
            build(false),
            "an engine-evicted block must be a B1 ghost hit into T2 on re-use"
        );
        assert!(
            !build(true),
            "a trimmed ghost must restart in T1 and churn out"
        );
    }

    #[test]
    fn trimming_a_clean_write_buffered_block_debits_its_occupancy() {
        // A read admitted under the WriteBuffer QoS is a *clean* group-0
        // resident; trimming it must debit the occupancy counter exactly
        // once. An over-count (the bug the old silent saturation could
        // mask) would surface below as a premature flush.
        let c = engine(CachePolicyKind::SemanticPriority, 100); // limit 10
        assert_eq!(c.write_buffer_limit(), 10);
        c.submit(read_req(7, 1, RequestClass::Update, QosPolicy::WriteBuffer));
        assert_eq!(c.cached_priority(BlockAddr(7)), Some(CachePriority(0)));
        assert_eq!(c.write_buffer_resident(), 1);
        c.trim(&TrimCommand::single(BlockRange::new(7u64, 1)));
        assert_eq!(c.write_buffer_resident(), 0);
        // The counter is exact afterwards: exactly `limit` buffered writes
        // fit without a flush, and one more drains.
        for i in 100..110u64 {
            c.submit(write_req(
                i,
                1,
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ));
        }
        assert_eq!(c.write_buffer_resident(), 10);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 0);
        c.submit(write_req(
            110,
            1,
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ));
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.stats().action(CacheAction::WriteBufferFlush), 11);
    }

    #[test]
    fn write_buffer_occupancy_tracks_resident_group_zero_exactly() {
        // Differential check of the occupancy counter against ground truth
        // (the number of resident blocks whose metadata group is 0) under
        // randomized buffered/regular/trim traffic, for both policies that
        // maintain a write buffer.
        for kind in [
            CachePolicyKind::SemanticPriority,
            CachePolicyKind::PerStream,
        ] {
            let c = engine(kind, 64); // limit 6
            let mut state = 0x5707_ACEDu64;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            for _ in 0..600 {
                let addr = rng() % 80;
                match rng() % 5 {
                    0 => c.submit(write_req(
                        addr,
                        1,
                        RequestClass::Update,
                        QosPolicy::WriteBuffer,
                    )),
                    1 => c.submit(read_req(
                        addr,
                        1,
                        RequestClass::Update,
                        QosPolicy::WriteBuffer,
                    )),
                    2 => c.submit(read_req(
                        addr,
                        1,
                        RequestClass::Random,
                        QosPolicy::priority(2),
                    )),
                    3 => c.submit(write_req(
                        addr,
                        1,
                        RequestClass::TemporaryData,
                        QosPolicy::priority(1),
                    )),
                    _ => c.trim(&TrimCommand::single(BlockRange::new(addr, 2))),
                }
                let ground_truth = (0..80u64)
                    .filter(|&l| c.cached_priority(BlockAddr(l)) == Some(CachePriority(0)))
                    .count() as u64;
                assert_eq!(c.write_buffer_resident(), ground_truth, "{kind}");
            }
        }
    }

    #[test]
    fn non_buffering_policies_serve_mixed_batches_as_one_run() {
        // A batch containing WriteBuffer requests must not fragment under
        // a policy without a write buffer: at queue depth 8 the adjacent
        // scan reads around the update still merge into few transfers.
        let one_run = CacheEngine::new(&config(CachePolicyKind::Lru, 1_000).with_queue_depth(8));
        let reqs: Vec<ClassifiedRequest> = (0..64u64)
            .map(|i| {
                if i == 31 {
                    write_req(2_000, 1, RequestClass::Update, QosPolicy::WriteBuffer)
                } else {
                    read_req(
                        i,
                        1,
                        RequestClass::Sequential,
                        QosPolicy::NonCachingNonEviction,
                    )
                }
            })
            .collect();
        one_run.submit_batch(reqs);
        // 63 scan misses + 1 update: LRU admits everything, so the HDD
        // sees 63 read-allocation fetches. Unfragmented, they merge into
        // ceil(31/8) + ceil(32/8) = 8 transfers (split only at the
        // non-adjacent update address), not the ~10+ a per-request split
        // at the buffered write would produce.
        let hdd = one_run.stats().hdd.expect("engine has an HDD");
        assert_eq!(hdd.blocks_read, 63);
        assert_eq!(hdd.read_requests, 8);
    }

    #[test]
    fn batch_equals_sequential_for_every_policy() {
        for kind in CachePolicyKind::all() {
            let batched = engine(kind, 256);
            let sequential = engine(kind, 256);
            let reqs: Vec<ClassifiedRequest> = (0..300u64)
                .map(|i| match i % 4 {
                    0 => read_req(i % 80, 2, RequestClass::Random, QosPolicy::priority(2)),
                    1 => read_req(
                        1_000 + i,
                        1,
                        RequestClass::Sequential,
                        QosPolicy::NonCachingNonEviction,
                    ),
                    2 => write_req(i % 50, 1, RequestClass::Update, QosPolicy::WriteBuffer),
                    _ => write_req(
                        2_000 + i,
                        1,
                        RequestClass::TemporaryData,
                        QosPolicy::priority(1),
                    ),
                })
                .collect();
            for req in &reqs {
                sequential.submit(*req);
            }
            batched.submit_batch(reqs);
            assert_eq!(batched.stats(), sequential.stats(), "{kind}");
            assert_eq!(batched.now(), sequential.now(), "{kind}");
        }
    }

    #[test]
    fn fast_path_serves_only_bit_identical_repeats() {
        let c = engine(CachePolicyKind::Lru, 64);
        let r = |class, qos| read_req(5, 1, class, qos);
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 0, "miss: slow path");
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 0, "first hit arms");
        c.submit(r(RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 1, "repeat is served");
        // A different request shape on the same block is not a repeat —
        // the policy must see it — but it re-arms the descriptor.
        c.submit(r(RequestClass::Update, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 1);
        c.submit(r(RequestClass::Update, QosPolicy::priority(2)));
        assert_eq!(c.stats().contention.fast_path_hits, 2);
        // Multi-block reads never take the fast path.
        c.submit(read_req(5, 2, RequestClass::Random, QosPolicy::priority(2)));
        let after_multi = c.stats().contention.fast_path_hits;
        assert_eq!(after_multi, 2);
    }

    #[test]
    fn a_repeat_hit_is_tallied_and_advances_the_clock_by_one_ssd_read() {
        const N: u32 = 5;
        let mut reads = Vec::new();
        for class in [RequestClass::Random, RequestClass::Sequential] {
            let c = engine(CachePolicyKind::Lru, 64);
            let r = read_req(5, 1, class, QosPolicy::priority(2));
            c.submit(r); // miss
            c.submit(r); // hit: arms the descriptor
            let before = c.stats().contention;
            let t0 = c.now();
            for _ in 0..N {
                c.submit(r);
            }
            let read = c.ssd.service_time(&r.io);
            assert_eq!(c.now() - t0, read * N, "{class:?}: one SSD read each");
            let after = c.stats().contention;
            assert_eq!(
                after.lock_acquisitions, before.lock_acquisitions,
                "{class:?}"
            );
            assert_eq!(
                after.fast_path_hits,
                before.fast_path_hits + u64::from(N),
                "{class:?}"
            );
            reads.push(read);
        }
        assert_ne!(reads[0], reads[1], "the two shapes must be told apart");
        // A write-buffer read keeps the full path and its drain check,
        // repeat or not.
        let c = engine(CachePolicyKind::SemanticPriority, 64);
        let buffered = read_req(5, 1, RequestClass::Random, QosPolicy::WriteBuffer);
        for _ in 0..3 {
            c.submit(buffered);
        }
        let contention = c.stats().contention;
        assert_eq!(contention.lock_acquisitions, 3);
        assert_eq!(contention.fast_path_hits, 0);
    }

    #[test]
    fn probes_share_the_read_lock_and_a_repeat_hit_waits_for_it() {
        // Hold every shard's read lock and drive the read-only probes: if
        // any of them needed the write lock this test would deadlock. A
        // repeat hit takes the write lock like every submission, so it
        // must wait for the readers, and still counts as a fast-path hit.
        let c = CacheEngine::new(&config(CachePolicyKind::SemanticPriority, 64).with_shards(4));
        let hot = read_req(1, 1, RequestClass::Random, QosPolicy::priority(2));
        c.submit(hot); // miss
        c.submit(hot); // hit: arms the descriptor
        let guards: Vec<_> = c.shards.iter().map(|s| s.state.read()).collect();
        assert!(c.contains_block(BlockAddr(1)));
        assert_eq!(c.cached_priority(BlockAddr(1)), Some(CachePriority(2)));
        assert_eq!(c.resident_blocks(), 1);
        assert_eq!(c.resident_set().len(), 1);
        assert_eq!(c.learned_heat(BlockAddr(1)), 0);
        assert_eq!(c.write_buffer_resident(), 0);
        assert_eq!(c.write_buffer_limit(), 4);
        std::thread::scope(|s| {
            let (done, repeat) = std::sync::mpsc::channel();
            let c = &c;
            s.spawn(move || {
                c.submit(hot);
                done.send(()).expect("receiver outlives the scope");
            });
            assert!(
                repeat.recv_timeout(Duration::from_millis(100)).is_err(),
                "a repeat hit must wait for the readers"
            );
            drop(guards);
            repeat
                .recv()
                .expect("the repeat completes once the readers leave");
        });
        let contention = c.stats().contention;
        assert_eq!(contention.fast_path_hits, 1);
        assert_eq!(contention.lock_acquisitions, 2);
    }

    /// An eager migration config: every `migrate_idle` call runs a round.
    fn eager_migration(budget: usize) -> MigrationConfig {
        MigrationConfig::on()
            .with_idle_threshold(Duration::ZERO)
            .with_round_budget(budget)
    }

    #[test]
    fn migration_is_off_by_default_and_idle_pulses_are_free() {
        let c = engine(CachePolicyKind::SemanticPriority, 16);
        assert!(!c.config().migration.enabled);
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.migrate_idle(), MigrationStats::default());
        assert_eq!(c.migration_stats(), MigrationStats::default());
        // A storage system with no cache engine answers pulses the same.
        let hdd = StorageConfig::new(StorageConfigKind::HddOnly, 0).build_shared();
        assert_eq!(hdd.migrate_idle(), MigrationStats::default());
        assert_eq!(hdd.migrate_idle(), MigrationStats::default());
        assert_eq!(hdd.migration_stats(), MigrationStats::default());
    }

    #[test]
    fn idle_gate_spaces_rounds_by_accrued_idle_time() {
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 16).with_migration(
                MigrationConfig::on().with_idle_threshold(Duration::from_secs(3600)),
            ),
        );
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        // Far below an hour of accrued idle: the pulse is counted but no
        // round runs.
        let stats = c.migrate_idle();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.skipped_rounds, 1);
    }

    #[test]
    fn rounds_promote_hot_absent_blocks_over_cold_residents() {
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 4).with_migration(eager_migration(64)),
        );
        // Four cold residents at priority 2 (accessed once each).
        for lbn in 0..4u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        assert_eq!(c.resident_blocks(), 4);
        // A hot absent set at priority 3: selective eviction refuses to
        // displace the higher-priority residents (2 >= 3 fails), so the
        // foreground path bypasses forever.
        for _ in 0..3 {
            for lbn in 100..104u64 {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        assert_eq!(c.resident_blocks(), 4);
        assert!(!c.contains_block(BlockAddr(100)));
        let stats = c.migrate_idle();
        c.audit().unwrap();
        // One round: all four heat-3 absents displace all four heat-1
        // residents.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.promoted, 4);
        assert_eq!(stats.demoted, 4);
        for lbn in 100..104u64 {
            assert!(c.contains_block(BlockAddr(lbn)), "block {lbn} not promoted");
            // Promotions re-enter via the policy's normal insertion path.
            assert_eq!(c.cached_priority(BlockAddr(lbn)), Some(CachePriority(3)));
        }
        for lbn in 0..4u64 {
            assert!(!c.contains_block(BlockAddr(lbn)), "block {lbn} not demoted");
        }
        // Migration is background work: the foreground action counters
        // must not have recorded its moves as evictions.
        assert_eq!(c.stats().action(CacheAction::Eviction), 0);
    }

    #[test]
    fn a_round_fills_the_free_slots_before_any_demotion() {
        // Budget 3: the two free slots take the two hottest absents, and
        // the budget left is too small for a demote/promote pair.
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 4).with_migration(eager_migration(3)),
        );
        for lbn in 0..4u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        // Hot priority-3 absents, refused while the cache is full.
        for _ in 0..3 {
            for lbn in 100..104u64 {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        // Two of the four slots free up.
        c.trim(&TrimCommand::single(BlockRange::new(0u64, 2)));
        let stats = c.migrate_idle();
        c.audit().unwrap();
        assert_eq!((stats.promoted, stats.demoted), (2, 0));
        assert_eq!(c.resident_blocks(), 4);
        assert!(c.contains_block(BlockAddr(100)) && c.contains_block(BlockAddr(101)));
        assert!(c.contains_block(BlockAddr(2)) && c.contains_block(BlockAddr(3)));
    }

    #[test]
    fn equal_heat_never_migrates() {
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 1).with_migration(eager_migration(64)),
        );
        c.submit(read_req(0, 1, RequestClass::Random, QosPolicy::priority(2)));
        c.submit(read_req(
            100,
            1,
            RequestClass::Random,
            QosPolicy::priority(3),
        ));
        let stats = c.migrate_idle();
        c.audit().unwrap();
        // Equal heat (1 vs 1) is churn without gain: nothing moves.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.migrated(), 0);
        assert!(c.contains_block(BlockAddr(0)));
        assert!(!c.contains_block(BlockAddr(100)));
    }

    #[test]
    fn trim_of_a_queued_candidate_never_resurrects_the_block() {
        // Budget 2 = one demote/promote pair per round, so with two hot
        // absent blocks one is left queued for the lazy window.
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 4).with_migration(eager_migration(2)),
        );
        for lbn in 0..4u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        for _ in 0..3 {
            for lbn in [100u64, 101] {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        let stats = c.migrate_idle();
        c.audit().unwrap();
        assert_eq!(stats.promoted, 1);
        assert!(c.contains_block(BlockAddr(100)), "hotter tiebreak first");
        assert!(!c.contains_block(BlockAddr(101)), "queued, not promoted");
        // The queued candidate's lifetime ends before the next round.
        c.trim(&TrimCommand::new(vec![BlockRange::new(101u64, 1)]));
        let stats = c.migrate_idle();
        c.audit().unwrap();
        assert!(stats.trim_cancellations >= 1, "queue entry cancelled");
        assert!(
            !c.contains_block(BlockAddr(101)),
            "trimmed block resurrected by migration"
        );
        assert_eq!(stats.promoted, 1, "no further promotion of dead data");
    }

    #[test]
    fn a_hit_rescues_a_queued_demotion() {
        // Budget 2 and three hot absents: the round demotes one resident
        // and queues the next-coldest for demotion.
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 2).with_migration(eager_migration(2)),
        );
        for lbn in 0..2u64 {
            c.submit(read_req(
                lbn,
                1,
                RequestClass::Random,
                QosPolicy::priority(2),
            ));
        }
        for _ in 0..3 {
            for lbn in 100..103u64 {
                c.submit(read_req(
                    lbn,
                    1,
                    RequestClass::Random,
                    QosPolicy::priority(3),
                ));
            }
        }
        let stats = c.migrate_idle();
        c.audit().unwrap();
        assert_eq!(stats.demoted, 1);
        // Block 1 is now queued for demotion; a foreground hit proves it
        // hot again and cancels the queue entry.
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.migration_stats().cancelled_demotions, 1);
    }

    #[test]
    fn journaling_is_off_by_default() {
        let c = engine(CachePolicyKind::SemanticPriority, 16);
        assert!(!c.config().journal.enabled);
        assert_eq!(c.journal_len(), 0);
        assert!(c.journal_snapshot().is_none());
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        assert_eq!(c.journal_len(), 0, "no journal attached, nothing recorded");
    }

    #[test]
    fn the_journal_frames_each_engine_op_in_a_batch() {
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 16).with_journal(JournalConfig::on()),
        );
        c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        c.trim(&TrimCommand::new(vec![BlockRange::new(1u64, 1)]));
        // Two ops at commit interval 1: two begin/op/commit triples.
        assert_eq!(c.journal_len(), 6);
        let records = c.journal_snapshot().expect("journal attached");
        assert!(matches!(
            records.records()[1],
            crate::journal::JournalRecord::Op(JournalOp::Submit(_))
        ));
        assert!(matches!(
            records.records()[4],
            crate::journal::JournalRecord::Op(JournalOp::Trim(_))
        ));
    }

    #[test]
    fn reset_stats_preserves_learned_heat() {
        let c = CacheEngine::new(
            &config(CachePolicyKind::SemanticPriority, 16).with_migration(
                MigrationConfig::on().with_idle_threshold(Duration::from_secs(3600)),
            ),
        );
        // Two slow-path accesses record heat directly; the third rides the
        // hot fast path and is tallied on the descriptor, uncredited.
        for _ in 0..3 {
            c.submit(read_req(1, 1, RequestClass::Random, QosPolicy::priority(2)));
        }
        assert_eq!(c.learned_heat(BlockAddr(1)), 2);
        assert!(c.stats().action(CacheAction::CacheHit) > 0);
        c.reset_stats();
        // The counters are gone but the learned heat survived — including
        // the pending fast-path hit, folded in rather than dropped.
        assert_eq!(c.stats().action(CacheAction::CacheHit), 0);
        assert_eq!(c.learned_heat(BlockAddr(1)), 3);
        assert_eq!(c.heat_snapshot(), vec![(BlockAddr(1), 3)]);
    }
}
