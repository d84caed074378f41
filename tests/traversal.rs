//! Exactness suite for the shard-major traversal: a request, a
//! `submit_batch` run and a TRIM each visit every shard they touch once,
//! under one lock — and every policy still sees, shard by shard, exactly
//! the event sequence a block-by-block walk would have shown it. That
//! includes the walk's bypass runs (the absent blocks after a refused one,
//! settled by one query of the table's residency bitmap), over regions
//! resident at five densities, across extents of 64 local addresses with
//! no resident block, and under a policy whose admission answer changes
//! on a hit. Inert reads, served from the block table with no policy
//! call, are held to the same policy behind a twin that declares nothing
//! inert.
//!
//! Honours `HSTORAGE_POLICY` / `HSTORAGE_MIGRATION` like the other suites
//! (the bypass-run tests run both migration legs themselves).

use hstorage_cache::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_cache::{
    CacheAction, CacheEngine, CachePolicyKind, CacheStats, MigrationConfig, StorageSystem,
};
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy,
    RequestClass, TrimCommand,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{request, Rng};

/// What a policy is told about one block, in the order it is told.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Hit(BlockAddr, CachePriority, RequestClass),
    Victim(BlockAddr),
    Insert(BlockAddr, RequestClass),
    Remove(BlockAddr, RemoveReason),
    TrimAbsent(BlockAddr),
}

/// One event log per shard.
type Logs = Arc<Mutex<Vec<Vec<Event>>>>;

/// A shipped policy with every decision call recorded on its shard's log.
/// It leaves `repeat_hit_idempotent` at the default `false`: the recorder
/// has to observe every hit, so it does not opt into the optimistic path.
/// It forwards `is_inert`, so walks reach the inert path; an inert hit is
/// no policy event by that contract (a walk makes no call for it), so it
/// is checked to be `Unchanged` and not logged on either side.
struct Recording {
    inner: Box<dyn CachePolicy>,
    shard: usize,
    logs: Logs,
}

impl Recording {
    fn log(&self, event: Event) {
        self.logs.lock().expect("no recorder panicked")[self.shard].push(event);
    }
}

impl CachePolicy for Recording {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        let inert = self.inner.is_inert(req);
        if !inert {
            self.log(Event::Hit(lbn, current, req.class));
        }
        let outcome = self.inner.on_hit(lbn, node, current, req);
        assert!(
            !inert || outcome == HitOutcome::Unchanged,
            "an inert hit moved {lbn:?}"
        );
        outcome
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        self.inner.admits(req)
    }

    fn is_inert(&self, req: &PolicyRequest) -> bool {
        self.inner.is_inert(req)
    }

    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        self.log(Event::Victim(incoming));
        self.inner.pop_victim(incoming, req)
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        self.log(Event::Insert(lbn, req.class));
        self.inner.on_insert(lbn, req)
    }

    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        self.log(Event::Remove(lbn, reason));
        self.inner.on_remove(lbn, node, group, reason);
    }

    fn on_trim_absent(&mut self, lbn: BlockAddr) {
        self.log(Event::TrimAbsent(lbn));
        self.inner.on_trim_absent(lbn);
    }

    fn buffers_writes(&self) -> bool {
        self.inner.buffers_writes()
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        self.inner.drain_write_buffer()
    }
}

/// An engine of `shards` shards over 96 slots whose per-shard `kind`
/// policies record into the returned logs.
fn recording_engine(kind: CachePolicyKind, shards: usize) -> (CacheEngine, Logs) {
    let config = PolicyConfig::paper_default();
    recording_engine_of(shards, 96, common::matrix_migration(), move |capacity| {
        Box::new(kind.build(&config, capacity))
    })
}

/// An engine of `shards` shards over `slots` slots whose per-shard
/// policies, built by `inner`, record into the returned logs.
fn recording_engine_of(
    shards: usize,
    slots: u64,
    migration: MigrationConfig,
    inner: impl Fn(u64) -> Box<dyn CachePolicy>,
) -> (CacheEngine, Logs) {
    let logs: Logs = Arc::new(Mutex::new(vec![Vec::new(); shards]));
    let next_shard = AtomicUsize::new(0);
    let factory_logs = Arc::clone(&logs);
    let engine = CacheEngine::new(&common::hstorage(slots, shards).with_migration(migration))
        .with_policy_factory("recording", move |capacity| {
            Box::new(Recording {
                inner: inner(capacity),
                // The factory is called once per shard, in shard order.
                shard: next_shard.fetch_add(1, Ordering::Relaxed),
                logs: Arc::clone(&factory_logs),
            })
        });
    (engine, logs)
}

#[derive(Debug, Clone)]
enum Op {
    Submit(ClassifiedRequest),
    Batch(Vec<ClassifiedRequest>),
    Trim(Vec<BlockRange>),
    /// A `migrate_idle` pulse (a no-op while migration is off).
    Pulse,
}

/// Applies `op` to `engine` as issued: whole requests, whole batches,
/// whole TRIM commands.
fn apply(engine: &CacheEngine, op: &Op) {
    match op {
        Op::Submit(req) => engine.submit(*req),
        Op::Batch(reqs) => engine.submit_batch(reqs.clone()),
        Op::Trim(ranges) => engine.trim(&TrimCommand::new(ranges.clone())),
        Op::Pulse => {
            engine.migrate_idle();
        }
    }
}

fn trace(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    (0..ops)
        .map(|_| match rng.below(6) {
            0 => Op::Batch((0..1 + rng.below(12)).map(|_| request(&mut rng)).collect()),
            1 => Op::Trim(
                (0..rng.below(4))
                    .map(|_| BlockRange::new(rng.below(256), rng.below(48)))
                    .collect(),
            ),
            _ => Op::Submit(request(&mut rng)),
        })
        .collect()
}

/// The naive reference: every request and every TRIM range taken apart
/// into single-block operations, submitted one by one in address order.
fn apply_block_by_block(engine: &CacheEngine, op: &Op) {
    let submit_blocks = |req: &ClassifiedRequest| {
        for lbn in req.io.range.iter() {
            let mut one = *req;
            one.io.range = BlockRange::new(lbn, 1);
            engine.submit(one);
        }
    };
    match op {
        Op::Submit(req) => submit_blocks(req),
        Op::Batch(reqs) => reqs.iter().for_each(submit_blocks),
        Op::Trim(ranges) => {
            for lbn in ranges.iter().flat_map(|r| r.iter()) {
                engine.trim(&TrimCommand::single(BlockRange::new(lbn, 1)));
            }
        }
        Op::Pulse => {
            engine.migrate_idle();
        }
    }
}

/// Replays `ops` on the two engines — `engine` as issued, `reference`
/// block by block — and asserts that both pass their audit and every
/// shard's policy saw the same event sequence after every op, and that
/// statistics, block-level device traffic, residency and heat agree at
/// the end. Returns `engine`'s statistics.
fn assert_matches_block_by_block(
    (engine, logs): &(CacheEngine, Logs),
    (reference, expected): &(CacheEngine, Logs),
    ops: &[Op],
    what: &str,
) -> CacheStats {
    for (step, op) in ops.iter().enumerate() {
        apply(engine, op);
        apply_block_by_block(reference, op);
        assert_eq!(engine.audit(), Ok(()), "{what}: step {step}");
        assert_eq!(reference.audit(), Ok(()), "{what}: reference, step {step}");
        let (got, want) = (logs.lock().unwrap(), expected.lock().unwrap());
        for (shard, (got, want)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                got, want,
                "{what}: shard {shard} diverged at step {step} ({op:?})"
            );
        }
    }
    let (got, want) = (engine.stats(), reference.stats());
    // Counters and residency; device traffic is compared by blocks below.
    let counters = |s: &CacheStats| {
        let mut s = s.clone();
        (s.ssd, s.hdd) = (None, None);
        s
    };
    assert_eq!(counters(&got), counters(&want), "{what}");
    // Blocks, not requests: a walk merges a request's transfers, the
    // block-by-block twin issues one per block.
    let blocks = |s: &CacheStats| {
        [&s.ssd, &s.hdd].map(|d| d.as_ref().map(|d| (d.blocks_read, d.blocks_written)))
    };
    assert_eq!(blocks(&got), blocks(&want), "{what}: device blocks");
    assert_eq!(engine.resident_set(), reference.resident_set(), "{what}");
    assert_eq!(engine.heat_snapshot(), reference.heat_snapshot(), "{what}");
    got
}

#[test]
fn every_shard_sees_the_block_by_block_event_sequence() {
    // Three shards catch a stride bug that powers of two hide.
    for shards in [1, 2, 3, 8] {
        for kind in common::matrix_kinds() {
            let engine = recording_engine(kind, shards);
            let ops = trace(0x7EA5_E11E + shards as u64, 400);
            let what = format!("{kind}, {shards} shards");
            assert_matches_block_by_block(&engine, &recording_engine(kind, shards), &ops, &what);
            let events: usize = engine.1.lock().unwrap().iter().map(Vec::len).sum();
            assert!(events > 1_000, "{kind}: the trace must exercise the policy");
        }
    }
}

/// Every `step`-th block of a bypass-run region is made resident before
/// the trace (0: none): densities 0, 1/64, 1/8, 1/3 and 1.
const DENSITY_STEPS: [u64; 5] = [0, 64, 8, 3, 1];
/// Blocks per density region; regions start `REGION_GAP` blocks apart, so
/// a request running off a region's end crosses absent blocks.
const REGION: u64 = 192;
const REGION_GAP: u64 = 256;
/// Slots of the bypass-run engines: the 283 populated blocks fit, and the
/// admitted traffic of the trace then evicts.
const BYPASS_SLOTS: u64 = 384;

/// Single-block priority-2 reads that make every `step`-th block of each
/// density region resident.
fn populate_density_regions() -> Vec<Op> {
    DENSITY_STEPS
        .iter()
        .zip(0u64..)
        .filter(|(&step, _)| step > 0)
        .flat_map(|(&step, region)| {
            (0..REGION).step_by(step as usize).map(move |j| {
                Op::Submit(ClassifiedRequest::new(
                    IoRequest::read(BlockRange::new(region * REGION_GAP + j, 1), false),
                    RequestClass::Random,
                    QosPolicy::priority(2),
                ))
            })
        })
        .collect()
}

/// One request of the bypass-run trace, 1–64 blocks starting inside a
/// density region: mostly reads and writes the semantic policy refuses
/// (sequential scans, non-caching writes, non-caching-eviction reads),
/// interleaved with admitted reads and writes and single-block buffered
/// updates.
fn bypass_mix(rng: &mut Rng) -> ClassifiedRequest {
    let start = rng.below(DENSITY_STEPS.len() as u64) * REGION_GAP + rng.below(REGION);
    let range = BlockRange::new(start, 1 + rng.below(64));
    let (read, write) = (IoRequest::read, IoRequest::write);
    let (io, class, qos) = match rng.below(8) {
        0..=2 => (
            read(range, true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ),
        3 => (
            write(range, true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ),
        4 => (
            read(range, false),
            RequestClass::TemporaryDataTrim,
            QosPolicy::NonCachingEviction,
        ),
        5 => (
            write(range, false),
            RequestClass::Update,
            QosPolicy::priority(3),
        ),
        6 => (
            write(BlockRange::new(start, 1), false),
            RequestClass::Update,
            QosPolicy::WriteBuffer,
        ),
        _ => (
            read(range, false),
            RequestClass::Random,
            QosPolicy::priority(2 + rng.below(3) as u8),
        ),
    };
    ClassifiedRequest::new(io, class, qos)
}

/// The density regions populated, then `ops` multi-block submits,
/// `submit_batch` runs of 2–16 requests drawn by `draw`, and migration
/// pulses.
fn density_trace(seed: u64, ops: usize, draw: fn(&mut Rng) -> ClassifiedRequest) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut trace = populate_density_regions();
    trace.extend((0..ops).map(|_| match rng.below(8) {
        0..=3 => Op::Batch((0..2 + rng.below(15)).map(|_| draw(&mut rng)).collect()),
        4 => Op::Pulse,
        _ => Op::Submit(draw(&mut rng)),
    }));
    trace
}

/// Migration detached, and attached with rounds on every pulse.
fn migration_legs() -> [MigrationConfig; 2] {
    [
        MigrationConfig::off(),
        MigrationConfig::on().with_idle_threshold(Duration::ZERO),
    ]
}

#[test]
fn bypass_runs_match_the_block_by_block_walk() {
    for shards in [1, 2, 3, 8] {
        for migration in migration_legs() {
            for kind in common::matrix_kinds() {
                let config = PolicyConfig::paper_default();
                let build = || {
                    recording_engine_of(shards, BYPASS_SLOTS, migration, move |capacity| {
                        Box::new(kind.build(&config, capacity))
                    })
                };
                let ops = density_trace(0x00B1_FA55 + shards as u64, 300, bypass_mix);
                let what = format!("{kind}, {shards} shards, {migration:?}");
                let stats = assert_matches_block_by_block(&build(), &build(), &ops, &what);
                if kind == CachePolicyKind::SemanticPriority {
                    let bypassed = stats.action(CacheAction::Bypassing);
                    assert!(bypassed > 10_000, "{what}: only {bypassed} bypasses");
                }
            }
        }
    }
}

/// A sequential "non-caching and non-eviction" read: the shape the
/// semantic policy declares inert.
fn inert_read(range: BlockRange) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(range, true),
        RequestClass::Sequential,
        QosPolicy::NonCachingNonEviction,
    )
}

#[test]
fn inert_requests_match_the_block_by_block_walk() {
    let config = PolicyConfig::paper_default();
    let kind = CachePolicyKind::SemanticPriority;
    for shards in [1, 3, 8] {
        for migration in migration_legs() {
            let storage = common::hstorage(BYPASS_SLOTS, shards)
                .with_cache_policy(kind)
                .with_migration(migration);
            let engine = CacheEngine::new(&storage);
            let reference = CacheEngine::new(&storage)
                .with_policy_factory("per-block", common::per_block(kind, &config));
            let what = format!("{shards} shards, {migration:?}");
            let check = |step: &dyn std::fmt::Debug| {
                assert_eq!(engine.audit(), Ok(()), "{what}: {step:?}");
                assert_eq!(reference.audit(), Ok(()), "{what}: {step:?}");
                assert_eq!(engine.stats(), reference.stats(), "{what}: {step:?}");
                assert_eq!(engine.now(), reference.now(), "{what}: {step:?}");
                assert_eq!(
                    engine.resident_set(),
                    reference.resident_set(),
                    "{what}: {step:?}"
                );
                assert_eq!(
                    engine.write_buffer_resident(),
                    reference.write_buffer_resident(),
                    "{what}: {step:?}"
                );
            };
            for op in density_trace(0x1AE7_5CA0 + shards as u64, 300, bypass_mix) {
                apply(&engine, &op);
                apply(&reference, &op);
                check(&op);
            }
            let scanned = engine.stats().class(RequestClass::Sequential);
            assert!(
                scanned.cache_hits > 1_000 && scanned.misses() > 10_000,
                "{what}: the trace must scan resident and absent blocks ({scanned:?})"
            );

            // A scan over the densest region leaves each shard's hot
            // descriptor on its last hit, so a repeat of the last one
            // takes the repeat-hit shortcut on both engines.
            let region = BlockRange::new((DENSITY_STEPS.len() as u64 - 1) * REGION_GAP, REGION);
            let scan = inert_read(region);
            let last_hit = region
                .iter()
                .filter(|&lbn| engine.contains_block(lbn))
                .last()
                .expect("the densest region keeps a resident block");
            let fast = || engine.stats().contention.fast_path_hits;
            let before = fast();
            for op in [
                Op::Submit(scan),
                Op::Submit(inert_read(BlockRange::new(last_hit, 1))),
            ] {
                apply(&engine, &op);
                apply(&reference, &op);
                check(&op);
            }
            assert_eq!(fast(), before + 1, "{what}: the repeat of {last_hit:?}");
        }
    }
}

/// Start of a region beyond the density regions, every `FAR_STEP`-th
/// block of its `REGION` blocks made resident before the trace. The
/// addresses between the last density region and it are never made
/// resident, and they hold a whole extent of 64 local addresses of every
/// shard at up to 8 shards (512 addresses there), so a long request into
/// it crosses an extent with no resident block between two that have
/// some.
const FAR_START: u64 = 2_048;
const FAR_STEP: u64 = 5;
/// No request of the long-request trace makes a block resident in
/// `GAP_START..FAR_START`: the density trace's requests end below it.
const GAP_START: u64 = 1_280;

/// Single-block priority-1 reads that make every `FAR_STEP`-th block of
/// the far region resident: above the priorities of the trace's admitted
/// traffic, so they are never its victims.
fn populate_far_region() -> Vec<Op> {
    (FAR_START..FAR_START + REGION)
        .step_by(FAR_STEP as usize)
        .map(|lbn| {
            Op::Submit(ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(lbn, 1), false),
                RequestClass::Random,
                QosPolicy::priority(1),
            ))
        })
        .collect()
}

/// A request of the long-request trace: one in three is 1,025–2,324
/// blocks from inside a density region, often on into the far region —
/// an inert scan or a sequential non-caching write (a bypass run after
/// each hit), shapes the semantic policy refuses and evicts nothing for,
/// so the gap stays empty and the far region resident. The rest are
/// [`bypass_mix`] requests.
fn long_or_short(rng: &mut Rng) -> ClassifiedRequest {
    if rng.below(3) > 0 {
        return bypass_mix(rng);
    }
    let start = rng.below(DENSITY_STEPS.len() as u64) * REGION_GAP + rng.below(REGION);
    let range = BlockRange::new(start, 1_025 + rng.below(1_300));
    match rng.below(2) {
        0 => inert_read(range),
        _ => ClassifiedRequest::new(
            IoRequest::write(range, true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ),
    }
}

#[test]
fn long_requests_across_empty_extents_match_the_block_by_block_walk() {
    let config = PolicyConfig::paper_default();
    let kind = CachePolicyKind::SemanticPriority;
    // Three shards take the division path to local addresses.
    for shards in [1, 3, 8] {
        for migration in migration_legs() {
            let what = format!("{shards} shards, {migration:?}");
            let mut ops = populate_far_region();
            ops.extend(density_trace(
                0x10F6_E97E + shards as u64,
                120,
                long_or_short,
            ));
            let build = || {
                recording_engine_of(shards, BYPASS_SLOTS, migration, move |capacity| {
                    Box::new(kind.build(&config, capacity))
                })
            };
            let stats = assert_matches_block_by_block(&build(), &build(), &ops, &what);
            let scanned = stats.class(RequestClass::Sequential);
            assert!(
                scanned.cache_hits > 1_000 && stats.action(CacheAction::Bypassing) > 50_000,
                "{what}: the trace must scan resident and absent blocks ({scanned:?})"
            );

            // The same requests whole on a twin whose shapes are never
            // inert: statistics and simulated time agree after every op.
            let storage = common::hstorage(BYPASS_SLOTS, shards)
                .with_cache_policy(kind)
                .with_migration(migration);
            let engine = CacheEngine::new(&storage);
            let reference = CacheEngine::new(&storage)
                .with_policy_factory("per-block", common::per_block(kind, &config));
            for op in &ops {
                apply(&engine, op);
                apply(&reference, op);
                assert_eq!(engine.audit(), Ok(()), "{what}: {op:?}");
                assert_eq!(reference.audit(), Ok(()), "{what}: {op:?}");
                assert_eq!(engine.stats(), reference.stats(), "{what}: {op:?}");
                assert_eq!(engine.now(), reference.now(), "{what}: {op:?}");
            }
            assert!(
                (GAP_START..FAR_START).all(|lbn| !engine.contains_block(BlockAddr(lbn))),
                "{what}: a block of the gap is resident"
            );
            assert!(
                (FAR_START..FAR_START + REGION).any(|lbn| engine.contains_block(BlockAddr(lbn))),
                "{what}: the far region lost its residents"
            );
        }
    }
}

/// LRU whose `admits` answer for sequential requests is its own state:
/// it refuses them until its next hit and admits from then until its next
/// insertion. Within one request, a hit on a resident block changes the
/// answer for the absent blocks after it.
struct AdmitsAfterHit {
    inner: Box<dyn CachePolicy>,
    open: bool,
}

impl CachePolicy for AdmitsAfterHit {
    fn on_hit(
        &mut self,
        lbn: BlockAddr,
        node: u32,
        current: CachePriority,
        req: &PolicyRequest,
    ) -> HitOutcome {
        self.open = true;
        self.inner.on_hit(lbn, node, current, req)
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        (self.open || req.class != RequestClass::Sequential) && self.inner.admits(req)
    }

    // A hit changes the admission answer, so no shape is inert.
    fn is_inert(&self, _req: &PolicyRequest) -> bool {
        false
    }

    fn pop_victim(&mut self, incoming: BlockAddr, req: &PolicyRequest) -> Option<BlockAddr> {
        self.inner.pop_victim(incoming, req)
    }

    fn on_insert(&mut self, lbn: BlockAddr, req: &PolicyRequest) -> (CachePriority, u32) {
        self.open = false;
        self.inner.on_insert(lbn, req)
    }

    fn on_remove(&mut self, lbn: BlockAddr, node: u32, group: CachePriority, reason: RemoveReason) {
        self.inner.on_remove(lbn, node, group, reason);
    }
}

/// A multi-block request of the stateful-admission trace: a sequential
/// read (refused until a hit) or an admitted random read.
fn sequential_or_random(rng: &mut Rng) -> ClassifiedRequest {
    let start = rng.below(DENSITY_STEPS.len() as u64) * REGION_GAP + rng.below(REGION);
    let range = BlockRange::new(start, 1 + rng.below(64));
    let (sequential, class) = match rng.below(4) {
        0 => (false, RequestClass::Random),
        _ => (true, RequestClass::Sequential),
    };
    ClassifiedRequest::new(
        IoRequest::read(range, sequential),
        class,
        QosPolicy::priority(2),
    )
}

#[test]
fn a_hit_ends_a_bypass_run() {
    for shards in [1, 2, 3, 8] {
        let config = PolicyConfig::paper_default();
        let build = || {
            recording_engine_of(shards, BYPASS_SLOTS, MigrationConfig::off(), |capacity| {
                Box::new(AdmitsAfterHit {
                    inner: Box::new(CachePolicyKind::Lru.build(&config, capacity)),
                    open: false,
                })
            })
        };
        let ops = density_trace(0x00AD_0175 + shards as u64, 300, sequential_or_random);
        let what = format!("admits-after-hit, {shards} shards");
        let (engine, logs) = build();
        let stats = assert_matches_block_by_block(&(engine, logs.clone()), &build(), &ops, &what);
        // Both answers occur: sequential blocks refused (the only
        // bypasses: LRU always finds a victim), and sequential blocks
        // admitted after a hit.
        let refused = stats.action(CacheAction::Bypassing);
        let logs = logs.lock().unwrap();
        let admitted = logs
            .iter()
            .flatten()
            .filter(|e| matches!(e, Event::Insert(_, RequestClass::Sequential)))
            .count();
        assert!(refused > 1_000, "{what}: {refused} refusals");
        assert!(admitted > 100, "{what}: {admitted} admissions after a hit");
    }
}

fn scan(start: u64, len: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(start, len), false),
        RequestClass::Random,
        QosPolicy::priority(2),
    )
}

fn buffered_write(start: u64, len: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::write(BlockRange::new(start, len), false),
        RequestClass::Update,
        QosPolicy::WriteBuffer,
    )
}

fn engine(kind: CachePolicyKind, shards: usize) -> CacheEngine {
    CacheEngine::new(
        &common::hstorage(4_096, shards)
            .with_cache_policy(kind)
            .with_migration(common::matrix_migration()),
    )
}

#[test]
fn a_visit_costs_one_lock_per_touched_shard() {
    for kind in common::matrix_kinds() {
        let c = engine(kind, 8);
        // Read after every op; the audit's read locks are not counted.
        let locks = || {
            assert_eq!(c.audit(), Ok(()), "{kind}");
            c.stats().contention.lock_acquisitions
        };
        c.submit(scan(3, 32));
        assert_eq!(locks(), 8, "{kind}: a 32-block request visits 8 shards");
        c.submit(scan(1_006, 5));
        assert_eq!(locks(), 8 + 5, "{kind}: a 5-block request visits 5");
        c.submit_batch((0..16).map(|i| scan(2_000 + i * 32, 32)).collect());
        assert_eq!(locks(), 13 + 8, "{kind}: a 16×32-block run visits 8");
        c.trim(&TrimCommand::single(BlockRange::new(2_005u64, 32)));
        assert_eq!(locks(), 21 + 8, "{kind}: a 32-block TRIM visits 8");
        // Several ranges share their visits: shards 0, 1, 2 and 1, 2.
        c.trim(&TrimCommand::new(vec![
            BlockRange::new(8u64, 3),
            BlockRange::new(17u64, 2),
        ]));
        assert_eq!(locks(), 29 + 3, "{kind}: two ranges on 3 shards visit 3");
        // Buffered writes: the one that overfills its shard's write buffer
        // drains it in the same visit, lone block or walk.
        let buffers = kind
            .build(&PolicyConfig::paper_default(), 1)
            .buffers_writes();
        let flushed = || c.stats().action(CacheAction::WriteBufferFlush);
        let limit = c.write_buffer_limit() / 8;
        for i in 0..=limit {
            c.submit(buffered_write(10_000 + i * 8, 1));
        }
        assert_eq!(locks(), 32 + limit + 1, "{kind}: one visit per lone write");
        assert_eq!(c.write_buffer_resident(), 0, "{kind}: drained");
        assert_eq!(flushed(), if buffers { limit + 1 } else { 0 }, "{kind}");
        c.submit(buffered_write(20_000, 8 * (limit + 1)));
        assert_eq!(
            locks(),
            33 + limit + 8,
            "{kind}: a write overfilling 8 shards visits 8"
        );
        assert_eq!(c.write_buffer_resident(), 0, "{kind}: all 8 drained");
        assert_eq!(
            flushed(),
            if buffers { 9 * (limit + 1) } else { 0 },
            "{kind}"
        );
    }
}

/// N threads, each walking its own address slice with multi-block
/// submits, batch runs and TRIMs (`HSTORAGE_STRESS_THREADS`, default 8):
/// under contention too, every block is accounted once and every walk
/// costs exactly one acquisition per shard it touches.
#[test]
fn concurrent_walks_conserve_blocks_and_lock_counts() {
    const ROUNDS: u64 = 100;
    let threads = common::stress_threads();
    for kind in common::matrix_kinds() {
        let c = CacheEngine::new(
            &common::hstorage(threads * ROUNDS * 96, 8)
                .with_cache_policy(kind)
                .with_migration(common::matrix_migration()),
        );
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = &c;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        let at = (t * ROUNDS + i) * 96;
                        c.submit(scan(at, 32));
                        c.submit_batch(vec![scan(at + 32, 32), scan(at + 64, 32)]);
                        c.trim(&TrimCommand::single(BlockRange::new(at + 16, 32)));
                    }
                });
            }
        });
        // At the end: an audit after every op would read each table thousands of times.
        assert_eq!(c.audit(), Ok(()), "{kind}");
        let walks = threads * ROUNDS;
        let stats = c.stats();
        assert_eq!(stats.totals().accessed_blocks, walks * 96, "{kind}");
        assert_eq!(stats.action(CacheAction::Trim), walks * 32, "{kind}");
        assert_eq!(c.resident_blocks(), walks * 64, "{kind}");
        assert_eq!(stats.contention.lock_acquisitions, walks * 3 * 8, "{kind}");
    }
}

#[test]
fn empty_requests_and_trims_touch_no_shard() {
    for shards in [1, 8] {
        let c = engine(CachePolicyKind::default(), shards);
        let empty = scan(5, 0);
        c.submit(empty);
        c.trim(&TrimCommand::new(vec![
            BlockRange::new(5u64, 0),
            BlockRange::empty(),
        ]));
        c.trim(&TrimCommand::new(Vec::new()));
        c.submit_batch(vec![empty, empty]);
        assert_eq!(c.audit(), Ok(()), "{shards} shards");
        assert_eq!(c.stats().contention.lock_acquisitions, 0, "{shards} shards");
        assert_eq!(c.now(), std::time::Duration::ZERO, "{shards} shards");
        // Inside a run an empty request is skipped, not a shard visit.
        c.submit_batch(vec![empty, scan(9, 1), empty]);
        assert_eq!(c.audit(), Ok(()), "{shards} shards");
        let stats = c.stats();
        assert_eq!(stats.contention.lock_acquisitions, 1, "{shards} shards");
        assert_eq!(stats.totals().accessed_blocks, 1, "{shards} shards");
    }
}
