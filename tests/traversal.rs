//! Exactness suite for the shard-major traversal: a request, a
//! `submit_batch` run and a TRIM each visit every shard they touch once,
//! under one lock — and every policy still sees, shard by shard, exactly
//! the event sequence a block-by-block walk would have shown it.
//!
//! Honours `HSTORAGE_POLICY` / `HSTORAGE_MIGRATION` like the other suites.

use hstorage_cache::policy::{CachePolicy, HitOutcome, PolicyRequest, RemoveReason};
use hstorage_cache::{CacheAction, CachePolicyKind, HybridCache, StorageSystem};
use hstorage_storage::{
    BlockAddr, BlockRange, CachePriority, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy,
    RequestClass, TrimCommand,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
        self.log(Event::Hit(lbn, current, req.class));
        self.inner.on_hit(lbn, node, current, req)
    }

    fn admits(&self, req: &PolicyRequest) -> bool {
        self.inner.admits(req)
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

    fn write_buffered(&self, group: CachePriority) -> bool {
        self.inner.write_buffered(group)
    }

    fn drain_write_buffer(&mut self) -> Vec<BlockAddr> {
        self.inner.drain_write_buffer()
    }
}

/// An engine of `shards` shards over 96 slots whose per-shard `kind`
/// policies record into the returned logs.
fn recording_engine(kind: CachePolicyKind, shards: usize) -> (HybridCache, Logs) {
    let config = PolicyConfig::paper_default();
    let logs: Logs = Arc::new(Mutex::new(vec![Vec::new(); shards]));
    let next_shard = AtomicUsize::new(0);
    let factory_logs = Arc::clone(&logs);
    let engine = HybridCache::with_shard_count(config, 96, shards)
        .with_migration(common::matrix_migration())
        .with_policy_factory("recording", move |capacity| {
            Box::new(Recording {
                inner: kind.build(&config, capacity),
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
fn apply_block_by_block(engine: &HybridCache, op: &Op) {
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
    }
}

#[test]
fn every_shard_sees_the_block_by_block_event_sequence() {
    // Three shards catch a stride bug that powers of two hide.
    for shards in [1, 2, 3, 8] {
        for kind in common::matrix_kinds() {
            let (engine, logs) = recording_engine(kind, shards);
            let (reference, expected) = recording_engine(kind, shards);
            for (step, op) in trace(0x7EA5_E11E + shards as u64, 400).iter().enumerate() {
                match op {
                    Op::Submit(req) => engine.submit(*req),
                    Op::Batch(reqs) => engine.submit_batch(reqs.clone()),
                    Op::Trim(ranges) => engine.trim(&TrimCommand::new(ranges.clone())),
                }
                apply_block_by_block(&reference, op);
                let (got, want) = (logs.lock().unwrap(), expected.lock().unwrap());
                for shard in 0..shards {
                    assert_eq!(
                        got[shard], want[shard],
                        "{kind}, {shards} shards: shard {shard} diverged at step {step} ({op:?})"
                    );
                }
            }
            let (got, want) = (engine.stats(), reference.stats());
            assert_eq!(got.per_class, want.per_class, "{kind}, {shards} shards");
            assert_eq!(
                got.per_priority, want.per_priority,
                "{kind}, {shards} shards"
            );
            assert_eq!(got.actions, want.actions, "{kind}, {shards} shards");
            assert_eq!(engine.resident_set(), reference.resident_set());
            assert_eq!(engine.heat_snapshot(), reference.heat_snapshot());
            let events: usize = logs.lock().unwrap().iter().map(Vec::len).sum();
            assert!(events > 1_000, "{kind}: the trace must exercise the policy");
        }
    }
}

fn scan(start: u64, len: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(start, len), false),
        RequestClass::Random,
        QosPolicy::priority(2),
    )
}

fn engine(kind: CachePolicyKind, shards: usize) -> HybridCache {
    HybridCache::with_shard_count(PolicyConfig::paper_default(), 4_096, shards)
        .with_cache_policy(kind)
        .with_migration(common::matrix_migration())
}

#[test]
fn a_visit_costs_one_lock_per_touched_shard() {
    for kind in common::matrix_kinds() {
        let c = engine(kind, 8);
        let locks = || c.stats().contention.lock_acquisitions;
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
        let c =
            HybridCache::with_shard_count(PolicyConfig::paper_default(), threads * ROUNDS * 96, 8)
                .with_cache_policy(kind)
                .with_migration(common::matrix_migration());
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
        assert_eq!(c.stats().contention.lock_acquisitions, 0, "{shards} shards");
        assert_eq!(c.now(), std::time::Duration::ZERO, "{shards} shards");
        // Inside a run an empty request is skipped, not a shard visit.
        c.submit_batch(vec![empty, scan(9, 1), empty]);
        let stats = c.stats();
        assert_eq!(stats.contention.lock_acquisitions, 1, "{shards} shards");
        assert_eq!(stats.totals().accessed_blocks, 1, "{shards} shards");
    }
}
