//! `power`: the paper's headline experiment — the TPC-H power test (RF1,
//! Q1–Q22 in stream-00 order, RF2) on hStorage-DB — and the only workload
//! that goes through every crate (`tpch → engine → cache → storage`).
//!
//! One closed-loop client; a segment is one pass on a fresh system, so
//! every pass does identical simulated work and must report identical
//! simulated time. Data (SF 1.0, ~141k blocks) is larger than the SSD cache
//! (32/46 of it) and the buffer pool (2 %).

use super::{fingerprint, timed_setup, Checks, Measured, Plan, Segment, Size};
use crate::calibrate;
use crate::trace::{Kind, Recorder, Traced};
use hstorage::{SystemConfig, TpchSystem};
use hstorage_cache::{CacheStats, StorageConfigKind};
use hstorage_engine::{ConcurrencyRegistry, QueryExecutor, QueryStats};
use hstorage_storage::RequestClass;
use hstorage_tpch::power::power_test_sequence;
use hstorage_tpch::{build_plan, QueryId, TpchDatabase, TpchScale};
use std::sync::Arc;
use std::time::Instant;

fn config(size: &Size) -> SystemConfig {
    let scale = TpchScale::new(if size.quick { 0.05 } else { 1.0 });
    let mut config = SystemConfig::single_query(scale, StorageConfigKind::HStorageDb);
    config.executor.seed = size.seed;
    config
}

/// What one pass leaves behind.
struct Pass {
    segment: Segment,
    sim_s: f64,
    stats: CacheStats,
    submitted_blocks: u64,
    buffer_pool: (u64, u64),
    /// The query sequence is fixed and the addresses are drawn inside the
    /// executor from its seed; what the benchmark can see of them is what
    /// each query in turn asked of the buffer pool and of storage.
    fingerprint: u64,
}

/// Runs the 24 queries through `run`, timing each one.
fn drive(recorder: Option<&Recorder>, mut run: impl FnMut(u64, QueryId) -> QueryStats) -> Pass {
    let sequence = power_test_sequence();
    let mut pass = Pass {
        segment: Segment::new(sequence.len()),
        sim_s: 0.0,
        stats: CacheStats::new(),
        submitted_blocks: 0,
        buffer_pool: (0, 0),
        fingerprint: 0,
    };
    let _counting = Recorder::count_allocations(recorder);
    let start = Instant::now();
    for (i, query) in sequence.into_iter().enumerate() {
        let issued = Instant::now();
        let stats = run(i as u64, query);
        pass.segment
            .latencies_ns
            .push(issued.elapsed().as_nanos() as u64);
        pass.segment.queries += 1;
        pass.segment.requests += stats.total_requests();
        // A temp-file deletion is counted by the executor with the file's
        // blocks, but reaches storage as a TRIM, not as accessed blocks.
        pass.submitted_blocks +=
            stats.total_blocks() - stats.blocks(RequestClass::TemporaryDataTrim);
        pass.buffer_pool.0 += stats.buffer_pool_hits;
        pass.buffer_pool.1 += stats.buffer_pool_misses;
        for seen in [
            stats.buffer_pool_hits,
            stats.buffer_pool_misses,
            stats.total_requests(),
            stats.total_blocks(),
        ] {
            pass.fingerprint = fingerprint(pass.fingerprint, seen);
        }
    }
    pass.segment.wall = start.elapsed();
    pass
}

/// A timed pass is a segment: the calibration kernel runs right before its
/// first query and right after its last, not around the construction of
/// the system it runs on.
fn calibrated(drive: impl FnOnce() -> Pass) -> Pass {
    let (mut pass, _, speed) = calibrate::timed(drive);
    pass.segment.speed = speed;
    pass
}

/// An untraced pass: the façade a user calls, `TpchSystem::run`.
fn plain_pass(config: SystemConfig) -> Pass {
    let mut system = TpchSystem::new(config);
    let mut pass = calibrated(|| drive(None, |_, query| system.run(query)));
    pass.sim_s = system.storage_time().as_secs_f64();
    pass.stats = system.storage_stats();
    pass
}

/// A traced pass: the same four steps `TpchSystem::{new, run}` perform,
/// taken apart so that `build_plan`, `run_query` and every storage call
/// can be timed from outside. That it is the same work is checked, not
/// assumed: both kinds of pass must report identical simulated results.
fn traced_pass(config: SystemConfig, recorder: &Arc<Recorder>, pass_index: u64) -> Pass {
    let mut db = TpchDatabase::build(config.scale);
    let storage = Traced::wrap(config.storage_config().build_shared(), recorder);
    let mut executor =
        QueryExecutor::with_registry(config.executor, config.policy, ConcurrencyRegistry::new());
    let mut pass = calibrated(|| {
        drive(Some(recorder), |i, query| {
            let request = pass_index * 100 + i;
            let label = query.name();
            let plan =
                recorder.time_query(Kind::BuildPlan, request, &label, || build_plan(query, &db));
            recorder.time_query(Kind::RunQuery, request, &label, || {
                executor.run_query(&plan, &mut db.catalog, storage.as_ref())
            })
        })
    });
    pass.sim_s = storage.now().as_secs_f64();
    pass.stats = storage.stats();
    pass
}

pub fn measure(plan: &Plan) -> Measured {
    let config = config(&plan.size);
    // Set-up is a system construction plus one untimed warm-up pass. Its
    // system is dropped: every timed pass builds its own.
    let (_, setup_s) = timed_setup(plan.setup_rounds, || {
        let mut system = TpchSystem::new(config);
        drop(drive(None, |_, query| system.run(query)));
    });
    plan.spans_on();

    // A segment is a pass, so here `--seconds` scales the number of
    // segments: 24 at the frozen 10 s (one pass ≈ 0.4 s on the sizing box),
    // 6 in each half of a traced run.
    let slots = plan.segments as u64;
    let passes = plan.size.count(slots * 3 / 2, slots).max(4) as usize;
    let mut checks = Checks::default();
    let mut done: Vec<Pass> = Vec::with_capacity(passes);
    for index in 0..passes {
        let pass = match &plan.recorder {
            Some(recorder) => traced_pass(config, recorder, index as u64),
            None => plain_pass(config),
        };
        checks.attempted(pass.segment.queries);
        if let Some(first) = done.first() {
            checks.check(
                pass.sim_s == first.sim_s && pass.stats == first.stats,
                || {
                    format!(
                        "pass {index} simulated {} s, pass 0 simulated {} s",
                        pass.sim_s, first.sim_s
                    )
                },
            );
        }
        done.push(pass);
    }

    let first = &done[0];
    Measured {
        setup_s,
        sim_s: first.sim_s,
        stats: first.stats.clone(),
        submitted_blocks: first.submitted_blocks,
        threads: 1,
        input_fingerprint: first.fingerprint,
        buffer_pool: first.buffer_pool,
        segments: done.into_iter().map(|p| p.segment).collect(),
        checks,
    }
}
