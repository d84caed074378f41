//! Accounting suite for the shard-local counters: statistics and device
//! ledgers are written under the shard's write lock, repeat hits are tallied on
//! the hot descriptor and credited by whoever next holds the write lock,
//! and `stats()` folds what is still pending. None of that may lose,
//! double-count or misattribute a single block — serially against a fully
//! locked twin, and concurrently against what each thread knows it sent.
//!
//! The stress test reads `HSTORAGE_STRESS_THREADS` (default 8) so the CI
//! contention job can re-run it at 16 and 32 threads.

use hstorage_cache::{CacheAction, CacheEngine, CacheStats, MigrationConfig, StorageSystem};
use hstorage_engine::ExecutorConfig;
use hstorage_storage::{
    BlockRange, ClassifiedRequest, DeviceStats, Direction, HddDevice, HddParameters, IoRequest,
    PolicyConfig, QosPolicy, RequestClass, SimClock, SsdDevice, SsdParameters, StorageDevice,
    TrimCommand, PRICE_TABLE_BLOCKS,
};
use std::time::Duration;

mod common;
use common::Rng;

#[derive(Debug, Clone)]
enum Op {
    Submit(ClassifiedRequest),
    Batch(Vec<ClassifiedRequest>),
    Trim(BlockRange),
    Reset,
    Pulse,
}

impl Op {
    fn apply(&self, engine: &CacheEngine) {
        match self {
            Op::Submit(req) => engine.submit(*req),
            Op::Batch(reqs) => engine.submit_batch(reqs.clone()),
            Op::Trim(range) => engine.trim(&TrimCommand::single(*range)),
            Op::Reset => engine.reset_stats(),
            Op::Pulse => {
                engine.migrate_idle();
            }
        }
    }
}

/// One request over a 96-block address space (the engines hold 64): mostly
/// the single-block reads the fast path serves, with every shape that must
/// fall off it mixed in — writes, buffered updates, multi-block reads,
/// bypassed scans, and temp reads whose I/O flag differs under one class.
fn request(rng: &mut Rng) -> ClassifiedRequest {
    let lbn = rng.below(96);
    let read = |len, sequential| IoRequest::read(BlockRange::new(lbn, len), sequential);
    let write = |len| IoRequest::write(BlockRange::new(lbn, len), false);
    match rng.below(16) {
        0 => ClassifiedRequest::new(write(1), RequestClass::Update, QosPolicy::priority(3)),
        1 => ClassifiedRequest::new(write(1), RequestClass::Update, QosPolicy::WriteBuffer),
        2 => ClassifiedRequest::new(
            read(1 + rng.below(6), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        ),
        3 => ClassifiedRequest::new(
            read(8, true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ),
        4 | 5 => ClassifiedRequest::new(
            read(1, rng.below(2) == 0),
            RequestClass::TemporaryData,
            QosPolicy::priority(1),
        ),
        6 | 7 => {
            ClassifiedRequest::new(read(1, false), RequestClass::Random, QosPolicy::priority(3))
        }
        _ => ClassifiedRequest::new(read(1, false), RequestClass::Random, QosPolicy::priority(2)),
    }
}

/// A repeat-heavy trace: every drawn request is submitted one to four
/// times in a row, between occasional batches, trims, statistics resets
/// and migration pulses.
fn trace(seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = Vec::new();
    for _ in 0..500 {
        match rng.below(64) {
            0 => ops.push(Op::Reset),
            1..=3 => ops.push(Op::Trim(BlockRange::new(rng.below(96), 1 + rng.below(4)))),
            4..=7 => ops.push(Op::Pulse),
            8..=11 => ops.push(Op::Batch(
                (0..2 + rng.below(6)).map(|_| request(&mut rng)).collect(),
            )),
            _ => {
                let req = request(&mut rng);
                for _ in 0..1 + rng.below(4) {
                    ops.push(Op::Submit(req));
                }
            }
        }
    }
    ops
}

/// Fold exactness. Three engines run one trace: `twin` takes the write lock on
/// every submit and records each block as it happens; `probed` serves
/// repeats optimistically and has its statistics read after every
/// operation, so every fold happens at a read; `quiet` is read only at the
/// end, so its tallies are credited by the writers that replace the
/// descriptor. All three must agree — statistics (device ledgers
/// included), clock and migration state — for every policy, with migration
/// off and with rounds actually running.
///
/// And the clock is the ledgers' sum: after every operation, the time since
/// the last statistics reset equals the SSD's plus the HDD's busy time. It
/// is checked on `probed` and `twin` directly; `quiet` must stay unread, so
/// its clock is checked against `twin`'s ledgers, and its own at the end.
#[test]
fn folded_statistics_equal_a_locked_twin_after_every_operation() {
    let eager = MigrationConfig::on()
        .with_idle_threshold(Duration::ZERO)
        .with_round_budget(4);
    for kind in common::matrix_kinds() {
        for migration in [MigrationConfig::off(), eager] {
            let build = || {
                CacheEngine::new(
                    &common::hstorage(64, 4)
                        .with_cache_policy(kind)
                        .with_migration(migration),
                )
            };
            let (probed, quiet) = (build(), build());
            let config = PolicyConfig::paper_default();
            let twin =
                build().with_policy_factory(kind.system_name(), common::locked(kind, &config));
            let mut fast_path_hits = 0;
            // The clock at the last reset (all three clocks agree).
            let mut reset_at = Duration::ZERO;
            for (i, op) in trace(0x5EED_0013).iter().enumerate() {
                for engine in [&probed, &quiet, &twin] {
                    op.apply(engine);
                }
                if matches!(op, Op::Reset) {
                    reset_at = twin.now();
                }
                let context = format!("{kind}, migration {}, op {i} {op:?}", migration.enabled);
                // Read locks only: the audit settles no descriptor.
                for engine in [&probed, &quiet, &twin] {
                    assert_eq!(engine.audit(), Ok(()), "{context}");
                }
                let (folded, locked) = (probed.stats(), twin.stats());
                assert_eq!(folded, locked, "{context}");
                // A fast-path hit replaces exactly one slow-path visit.
                assert_eq!(locked.contention.fast_path_hits, 0, "{context}");
                assert_eq!(
                    folded.contention.lock_acquisitions + folded.contention.fast_path_hits,
                    locked.contention.lock_acquisitions,
                    "{context}"
                );
                fast_path_hits += folded.contention.fast_path_hits;
                assert_eq!(probed.now(), twin.now(), "{context}");
                assert_eq!(quiet.now(), twin.now(), "{context}");
                assert_eq!(probed.now() - reset_at, busy(&folded), "{context}");
                assert_eq!(twin.now() - reset_at, busy(&locked), "{context}");
                assert_eq!(
                    probed.migration_stats(),
                    twin.migration_stats(),
                    "{context}"
                );
            }
            assert!(
                fast_path_hits > 0,
                "{kind}: the trace must use the fast path"
            );
            assert_eq!(quiet.stats(), twin.stats(), "{kind}");
            assert_eq!(quiet.now() - reset_at, busy(&quiet.stats()), "{kind}");
            assert_eq!(quiet.migration_stats(), twin.migration_stats(), "{kind}");
            for optimistic in [&probed, &quiet] {
                assert_eq!(optimistic.resident_set(), twin.resident_set(), "{kind}");
                assert_eq!(optimistic.heat_snapshot(), twin.heat_snapshot(), "{kind}");
            }
        }
    }
}

/// Busy time of both devices in `stats`.
fn busy(stats: &CacheStats) -> Duration {
    let device =
        |d: &Option<DeviceStats>| d.as_ref().expect("the engine has both devices").busy_time;
    device(&stats.ssd) + device(&stats.hdd)
}

/// What one thread of the conservation test knows it caused.
#[derive(Default)]
struct Expected {
    blocks: u64,
    hits: u64,
    allocations: u64,
    bypasses: u64,
    ssd: DeviceStats,
}

/// N-thread conservation. A shared working set is made resident, then
/// every thread reads it (each address four times in a row, so repeats
/// race with other threads re-arming the same shards), allocates private
/// blocks and bypasses private scans. The cache is never full, so each
/// request's outcome — and its SSD traffic — is known to the thread that
/// sent it whatever the interleaving; the engine's totals must be the sum.
#[test]
fn concurrent_submits_conserve_every_counter() {
    const SHARED: u64 = 256;
    const PER_THREAD: u64 = 4_000;
    let threads = common::stress_threads();
    let engine = CacheEngine::new(
        &common::hstorage(2 * (SHARED + threads * PER_THREAD), 8)
            .with_migration(common::matrix_migration()),
    );
    let shared_read = |lbn: u64, len: u64, sequential: bool| {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(lbn, len), sequential),
            if sequential {
                RequestClass::TemporaryData
            } else {
                RequestClass::Random
            },
            QosPolicy::priority(2),
        )
    };
    for lbn in 0..SHARED {
        engine.submit(shared_read(lbn, 1, false));
    }
    engine.reset_stats();
    let start = engine.now();
    // The model alone, to price what each thread sends.
    let model = SsdDevice::intel_320(SimClock::new());

    let expected: Vec<Expected> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (engine, model) = (&engine, &model);
                scope.spawn(move || {
                    let mut rng = Rng(0xACC0 + t);
                    let mut mine = Expected::default();
                    let mut ssd = |direction, lbn: u64, len: u64, sequential: bool| {
                        let io = IoRequest {
                            range: BlockRange::new(lbn, len),
                            direction,
                            sequential,
                        };
                        mine.ssd.record(&io, model.service_time(&io), 1);
                    };
                    let private = 1_000_000 * (t + 1);
                    for i in 0..PER_THREAD {
                        match rng.below(8) {
                            // A private block's first read allocates it.
                            0 => {
                                engine.submit(shared_read(private + i, 1, false));
                                ssd(Direction::Write, private + i, 1, false);
                                mine.blocks += 1;
                                mine.allocations += 1;
                            }
                            // A private scan bypasses the cache: no SSD.
                            1 => {
                                engine.submit(ClassifiedRequest::new(
                                    IoRequest::read(
                                        BlockRange::new(private + 500_000 + 4 * i, 4),
                                        true,
                                    ),
                                    RequestClass::Sequential,
                                    QosPolicy::NonCachingNonEviction,
                                ));
                                mine.blocks += 4;
                                mine.bypasses += 4;
                            }
                            // A multi-block shared hit, across shards.
                            2 => {
                                let lbn = rng.below(SHARED - 3);
                                engine.submit(shared_read(lbn, 3, false));
                                ssd(Direction::Read, lbn, 3, false);
                                mine.blocks += 3;
                                mine.hits += 3;
                            }
                            // Shared single-block hits, four in a row.
                            draw => {
                                let lbn = rng.below(SHARED);
                                let sequential = draw == 3;
                                for _ in 0..4 {
                                    engine.submit(shared_read(lbn, 1, sequential));
                                    ssd(Direction::Read, lbn, 1, sequential);
                                }
                                mine.blocks += 4;
                                mine.hits += 4;
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a submitting thread panicked"))
            .collect()
    });

    // At the end: an audit after every op would read 64k slots 32k times.
    assert_eq!(engine.audit(), Ok(()));
    let stats = engine.stats();
    let sum = |f: fn(&Expected) -> u64| expected.iter().map(f).sum::<u64>();
    let totals = stats.totals();
    assert_eq!(totals.accessed_blocks, sum(|e| e.blocks));
    assert_eq!(totals.cache_hits, sum(|e| e.hits));
    assert_eq!(stats.action(CacheAction::CacheHit), sum(|e| e.hits));
    assert_eq!(
        stats.action(CacheAction::ReadAllocation),
        sum(|e| e.allocations)
    );
    assert_eq!(stats.action(CacheAction::Bypassing), sum(|e| e.bypasses));
    assert_eq!(stats.action(CacheAction::Eviction), 0);
    // Both views of the same blocks add up to them.
    assert_eq!(
        stats.priority(2).accessed_blocks,
        sum(|e| e.blocks - e.bypasses)
    );
    assert_eq!(stats.resident_blocks, SHARED + sum(|e| e.allocations));

    let mut ssd = DeviceStats::new();
    for e in &expected {
        ssd.merge(&e.ssd);
    }
    assert_eq!(stats.ssd.as_ref(), Some(&ssd));
    // One clock, advanced by every transfer of either device.
    let hdd = stats.hdd.expect("the engine has an HDD");
    assert_eq!(engine.now() - start, ssd.busy_time + hdd.busy_time);
    assert!(stats.contention.fast_path_hits > 0);
}

/// Transfer sizes the price checks cover: every row of the devices' price
/// tables, the first size past them and a write-buffer-flush-sized one,
/// both of which evaluate the model.
fn priced_sizes() -> impl Iterator<Item = u64> {
    (0..=PRICE_TABLE_BLOCKS).chain([PRICE_TABLE_BLOCKS + 1, 4_096])
}

/// The price tables cover every request the executor cuts by default.
#[test]
fn the_price_tables_cover_the_executors_requests() {
    let executor = ExecutorConfig::default();
    assert_eq!(executor.seq_blocks_per_request, PRICE_TABLE_BLOCKS);
    assert!(executor.temp_blocks_per_request <= PRICE_TABLE_BLOCKS);
}

/// The SSD's tabulated service times — the inline one-block row and every
/// row up to `PRICE_TABLE_BLOCKS` — are the f64 model's, to the
/// nanosecond, for parameters other than the defaults too, in every
/// direction × sequential flag; longer transfers still evaluate it.
#[test]
fn memoised_service_times_equal_the_model() {
    let odd = SsdParameters {
        sequential_read_bandwidth: 123.4e6,
        sequential_write_bandwidth: 98.7e6,
        random_read_iops: 31_337.0,
        random_write_iops: 7_919.0,
        command_overhead: Duration::from_nanos(12_345),
        ..SsdParameters::intel_320()
    };
    for params in [SsdParameters::intel_320(), odd] {
        let ssd = SsdDevice::new(params, SimClock::new());
        for blocks in priced_sizes() {
            for direction in [Direction::Read, Direction::Write] {
                for sequential in [false, true] {
                    let io = IoRequest {
                        range: BlockRange::new(7u64, blocks),
                        direction,
                        sequential,
                    };
                    let transfer = match (sequential, direction) {
                        (true, Direction::Read) => {
                            io.bytes() as f64 / params.sequential_read_bandwidth
                        }
                        (true, Direction::Write) => {
                            io.bytes() as f64 / params.sequential_write_bandwidth
                        }
                        (false, Direction::Read) => blocks as f64 / params.random_read_iops,
                        (false, Direction::Write) => blocks as f64 / params.random_write_iops,
                    };
                    let model = Duration::from_secs_f64(transfer) + params.command_overhead;
                    assert_eq!(ssd.service_time(&io), model, "{io:?}");
                    // And `serve` charges exactly that.
                    let before = ssd.stats().busy_time;
                    assert_eq!(ssd.serve(&io), model);
                    assert_eq!(ssd.stats().busy_time - before, model);
                }
            }
        }
    }
}

/// The HDD twin of `memoised_service_times_equal_the_model`: the
/// tabulated media transfers are the f64 model's, to the nanosecond, for
/// parameters other than the defaults too; longer requests still evaluate
/// it. Requests start at the head and away from it, so both the positioned
/// and the repositioning branch are priced, and `serve` charges exactly
/// the model's time.
#[test]
fn memoised_hdd_service_times_equal_the_model() {
    let odd = HddParameters {
        sequential_bandwidth: 123.4e6,
        avg_seek: Duration::from_nanos(3_210_987),
        avg_rotational_latency: Duration::from_nanos(1_999_999),
        command_overhead: Duration::from_nanos(12_345),
        ..HddParameters::cheetah_15k7()
    };
    for params in [HddParameters::cheetah_15k7(), odd] {
        let hdd = HddDevice::new(params, SimClock::new());
        // The block after the last one served; the head starts nowhere.
        let mut head: Option<u64> = None;
        for blocks in priced_sizes() {
            for direction in [Direction::Read, Direction::Write] {
                for sequential in [false, true] {
                    for at_head in [true, false] {
                        let start = match head {
                            Some(next) if at_head => next,
                            _ => head.unwrap_or(0) + 10_000,
                        };
                        let io = IoRequest {
                            range: BlockRange::new(start, blocks),
                            direction,
                            sequential,
                        };
                        let transfer = io.bytes() as f64 / params.sequential_bandwidth;
                        let mut model = Duration::from_secs_f64(transfer) + params.command_overhead;
                        if !(sequential && head == Some(start)) {
                            model += params.avg_seek + params.avg_rotational_latency;
                        }
                        assert_eq!(hdd.service_time(&io), model, "{io:?}");
                        let before = hdd.stats().busy_time;
                        assert_eq!(hdd.serve(&io), model, "{io:?}");
                        assert_eq!(hdd.stats().busy_time - before, model, "{io:?}");
                        head = Some(start + blocks);
                    }
                }
            }
        }
    }
}
