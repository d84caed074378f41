//! `cache_hits`: the working set fits and every submit is a hit.
//!
//! Host time here is the lock path, a table probe, a policy touch,
//! `SsdDevice::serve` and the `SimClock` — the global mutex and atomic
//! that ROADMAP 3a blames for flat scaling. A device, clock or lock change
//! should move this workload most and `cache_mixed` / `power` least.
//! Each address is read four times in a row, which arms and then uses the
//! optimistic repeat-hit path.
//!
//! One thread. The issue asked for `nproc`, but on the 2-vCPU shared box
//! this was sized on, two busy threads get about one core between them
//! and contended throughput is bimodal (2.3× between segments of one run,
//! depending on where the hypervisor puts the vCPUs), so no bound could
//! hold it. The contended case is still measured — as the unbounded
//! ladder rung `cache.submit.contended_hit_ns` — and the bounded metrics
//! measure what one thread pays for the same lock, device and clock.

use super::cache_mixed::{build_cache, query_calls, SHORT_QUERY};
use super::{calibrated, fingerprint, timed_setup, Checks, Measured, Plan, Segment};
use crate::rng::XorShift;
use crate::trace::{Kind, Recorder};
use hstorage_cache::StorageSystem;
use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
use std::time::Instant;

/// Blocks made resident by set-up: half the cache, spread over all shards.
pub const RESIDENT: u64 = 32_768;
const REPEATS: usize = 4;

/// Submits per segment at `--seconds 10` (16 segments).
const SUBMITS_PER_SEGMENT_10S: u64 = 3_840_000;
const SUBMITS_PER_SEGMENT_QUICK: u64 = 8_192;

pub fn hit(addr: u64) -> ClassifiedRequest {
    ClassifiedRequest::new(
        IoRequest::read(BlockRange::new(addr, 1), false),
        RequestClass::Random,
        QosPolicy::priority(2),
    )
}

/// Reads every block that is to be resident once, so that it is.
pub fn prefill(storage: &dyn StorageSystem) {
    for addr in 0..RESIDENT {
        storage.submit(hit(addr));
    }
}

/// One segment: draw the addresses, then issue each [`REPEATS`] times, a
/// timestamp at the end of every query (see [`query_calls`]).
fn run_segment(
    storage: &dyn StorageSystem,
    rng: &mut XorShift,
    print: &mut u64,
    submits: u64,
    recorder: Option<&Recorder>,
) -> Segment {
    let addrs: Vec<u64> = (0..submits as usize / REPEATS)
        .map(|_| rng.below(RESIDENT))
        .collect();
    *print = addrs.iter().fold(*print, |acc, a| fingerprint(acc, *a));
    let mut segment = Segment::new(addrs.len() * REPEATS / SHORT_QUERY + 1);
    let _counting = Recorder::count_allocations(recorder);
    let start = Instant::now();
    let mut query_start = start;
    let mut rest = addrs.as_slice();
    while !rest.is_empty() {
        let addresses = query_calls(segment.latencies_ns.len()) / REPEATS;
        let (query, later) = rest.split_at(addresses.min(rest.len()));
        rest = later;
        for &addr in query {
            for _ in 0..REPEATS {
                storage.submit(hit(addr));
            }
        }
        let now = Instant::now();
        let elapsed = now - query_start;
        segment.latencies_ns.push(elapsed.as_nanos() as u64);
        if let Some(recorder) = recorder {
            recorder.record(Kind::Burst, elapsed, 0);
        }
        query_start = now;
    }
    segment.wall = start.elapsed();
    segment.queries = segment.latencies_ns.len() as u64;
    segment.requests = (addrs.len() * REPEATS) as u64;
    segment
}

pub fn measure(plan: &Plan) -> Measured {
    let submits = plan
        .size
        .count(SUBMITS_PER_SEGMENT_10S, SUBMITS_PER_SEGMENT_QUICK);
    // Set-up: build the cache, make the working set resident, and run one
    // untimed warm-up segment.
    let ((storage, mut rng, mut print), setup_s) = timed_setup(plan.setup_rounds, || {
        let storage = build_cache();
        prefill(storage.as_ref());
        let (mut rng, mut print) = (XorShift::new(plan.size.seed), 0);
        run_segment(storage.as_ref(), &mut rng, &mut print, submits, None);
        (storage, rng, print)
    });
    let storage = plan.traced(storage);
    plan.spans_on();
    storage.reset_stats();
    let sim_start = storage.now();

    let mut checks = Checks::default();
    let mut segments = Vec::with_capacity(plan.segments);
    for _ in 0..plan.segments {
        let segment = calibrated(|| {
            run_segment(
                storage.as_ref(),
                &mut rng,
                &mut print,
                submits,
                plan.recorder.as_deref(),
            )
        });
        checks.attempted(segment.requests);
        segments.push(segment);
    }

    let stats = storage.stats();
    let totals = stats.totals();
    checks.check(totals.cache_hits == totals.accessed_blocks, || {
        format!(
            "the working set fits, yet only {} of {} blocks hit",
            totals.cache_hits, totals.accessed_blocks
        )
    });
    Measured {
        setup_s,
        sim_s: (storage.now() - sim_start).as_secs_f64(),
        submitted_blocks: segments.iter().map(|s| s.requests).sum(),
        segments,
        stats,
        threads: 1,
        input_fingerprint: print,
        buffer_pool: (0, 0),
        checks,
    }
}
