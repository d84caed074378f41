//! `cache_mixed`: every request shape the cache handles, straight into
//! `StorageSystem::{submit, submit_batch, trim}` on one thread.
//!
//! It bypasses `tpch` and `engine`, so a cache-interior change shows
//! undiluted and an executor change shows nothing. The working set is far
//! larger than the cache: misses, selective eviction, write-buffer drains
//! and TRIM dominate. It is the writes-beside-reads counterpart of
//! `cache_hits`: a hit path made faster at the cost of insert/evict shows
//! up here.

use super::{calibrated, fingerprint, timed_setup, Checks, Measured, Plan, Segment};
use crate::rng::XorShift;
use crate::trace::{Kind, Recorder};
use hstorage_cache::{StorageConfig, StorageConfigKind, StorageSystem};
use hstorage_storage::{
    BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass, TrimCommand,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

pub const CACHE_BLOCKS: u64 = 65_536;
pub const SHARDS: usize = 8;

/// Storage calls per query — the unit `queries_per_s` and `query_ms_*`
/// count on the cache workloads. A short query is what a lookup's executor
/// issues; every [`LONG_EVERY`]th query is a long one. With 2 % of the
/// queries long, the median query is a short one and the p99 query is the
/// *median* long one: a millisecond of work, which a hypervisor pause of a
/// few hundred µs on one query in a hundred cannot move. Were all queries
/// 64 calls, the p99 would be exactly those pauses (measured: 0.20–0.52 ms
/// between otherwise equal runs).
pub const SHORT_QUERY: usize = 64;
pub const LONG_QUERY: usize = 1024;
pub const LONG_EVERY: usize = 50;

/// Storage calls the `index`-th query of a segment makes.
pub fn query_calls(index: usize) -> usize {
    if index % LONG_EVERY == LONG_EVERY - 1 {
        LONG_QUERY
    } else {
        SHORT_QUERY
    }
}

/// Requests drawn per segment at `--seconds 10` (16 segments).
const DRAWS_PER_SEGMENT_10S: u64 = 400_000;
const DRAWS_PER_SEGMENT_QUICK: u64 = 8_192;

// The address space, in blocks. Regions are disjoint.
const HOT: BlockRange = region(0, 2 * CACHE_BLOCKS);
const UPDATE: BlockRange = region(HOT.len, CACHE_BLOCKS / 4);
const COLD: BlockRange = region(1 << 20, 64 * CACHE_BLOCKS);
const SCAN: BlockRange = region(1 << 23, 1 << 22);
const TEMP: BlockRange = region(1 << 25, 1 << 16);

const SCAN_REQUEST_BLOCKS: u64 = 32;
const SCAN_BATCH: usize = 16;
const TEMP_FILE_BLOCKS: u64 = 32;
/// Temp files alive at once before the oldest is trimmed regardless.
const TEMP_FILES_MAX: usize = 256;

const fn region(start: u64, len: u64) -> BlockRange {
    BlockRange {
        start: hstorage_storage::BlockAddr(start),
        len,
    }
}

/// One `StorageSystem` call, generated ahead of the timed region.
enum Call {
    Submit(ClassifiedRequest),
    Batch(Vec<ClassifiedRequest>),
    Trim(TrimCommand),
}

/// The per-mille request mix. State that outlives a segment (the scan
/// cursor, live temp files, a partly filled scan batch) lives here, so the
/// call stream is one seeded sequence cut into segments.
struct Generator {
    rng: XorShift,
    scan_cursor: u64,
    pending_scan: Vec<ClassifiedRequest>,
    /// Written temp files, oldest first, and whether each was re-read.
    temp_files: VecDeque<(BlockRange, bool)>,
    temp_cursor: u64,
    fingerprint: u64,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: XorShift::new(seed),
            scan_cursor: 0,
            pending_scan: Vec::with_capacity(SCAN_BATCH),
            temp_files: VecDeque::new(),
            temp_cursor: 0,
            fingerprint: 0,
        }
    }

    /// A block's priority is a property of the block (as an object's plan
    /// level is), not of the request: 2–6 by address.
    fn random_read(addr: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(addr, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2 + (addr % 5) as u8),
        )
    }

    fn trim_oldest(&mut self) -> Option<Call> {
        let (range, _) = self.temp_files.pop_front()?;
        Some(Call::Trim(TrimCommand::single(range)))
    }

    /// Draws one request of the mix; most draws yield one call, a scan
    /// draw yields one only when it completes a batch.
    fn draw(&mut self) -> Option<Call> {
        let pick = self.rng.below(1000);
        let call = match pick {
            // 350 ‰ hot random reads, skewed (the product of two uniforms
            // leans towards low addresses) over twice the capacity.
            0..=349 => {
                let skewed = self.rng.unit() * self.rng.unit();
                let addr = HOT.start.0 + (skewed * HOT.len as f64) as u64;
                Call::Submit(Self::random_read(addr))
            }
            // 150 ‰ one-shot cold random reads over 64× the capacity.
            350..=499 => {
                let addr = COLD.start.0 + self.rng.below(COLD.len);
                Call::Submit(Self::random_read(addr))
            }
            // 200 ‰ sequential 32-block reads, vectored 16 at a time the
            // way the executor vectors a table scan.
            500..=699 => {
                let start = SCAN.start.0 + self.scan_cursor;
                self.scan_cursor = (self.scan_cursor + SCAN_REQUEST_BLOCKS) % SCAN.len;
                self.pending_scan.push(ClassifiedRequest::new(
                    IoRequest::read(BlockRange::new(start, SCAN_REQUEST_BLOCKS), true),
                    RequestClass::Sequential,
                    QosPolicy::NonCachingNonEviction,
                ));
                if self.pending_scan.len() < SCAN_BATCH {
                    return None;
                }
                let batch =
                    std::mem::replace(&mut self.pending_scan, Vec::with_capacity(SCAN_BATCH));
                Call::Batch(batch)
            }
            // 150 ‰ buffered updates over a quarter of the capacity.
            700..=849 => {
                let addr = UPDATE.start.0 + self.rng.below(UPDATE.len);
                Call::Submit(ClassifiedRequest::new(
                    IoRequest::write(BlockRange::new(addr, 1), false),
                    RequestClass::Update,
                    QosPolicy::WriteBuffer,
                ))
            }
            // 100 ‰ temporary data: write a file at priority 1, or re-read
            // an unread one "non-caching and eviction" (the end-of-life
            // scan of Section 4.2.3), alternating.
            850..=949 => {
                let unread = self.temp_files.iter().position(|(_, read)| !read);
                match unread {
                    Some(index) if pick % 2 == 0 => {
                        let (range, read) = &mut self.temp_files[index];
                        *read = true;
                        Call::Submit(ClassifiedRequest::new(
                            IoRequest::read(*range, true),
                            RequestClass::TemporaryData,
                            QosPolicy::NonCachingEviction,
                        ))
                    }
                    _ if self.temp_files.len() >= TEMP_FILES_MAX => self.trim_oldest()?,
                    _ => {
                        let range =
                            BlockRange::new(TEMP.start.0 + self.temp_cursor, TEMP_FILE_BLOCKS);
                        self.temp_cursor = (self.temp_cursor + TEMP_FILE_BLOCKS) % TEMP.len;
                        self.temp_files.push_back((range, false));
                        Call::Submit(ClassifiedRequest::new(
                            IoRequest::write(range, true),
                            RequestClass::TemporaryData,
                            QosPolicy::priority(1),
                        ))
                    }
                }
            }
            // 50 ‰ TRIMs of the oldest temp file.
            _ => self.trim_oldest()?,
        };
        Some(call)
    }

    /// Fills `calls` with the calls of `draws` draws.
    fn fill(&mut self, calls: &mut Vec<Call>, draws: u64) {
        calls.clear();
        for _ in 0..draws {
            if let Some(call) = self.draw() {
                let (tag, addr) = match &call {
                    Call::Submit(r) => (1, r.io.range.start.0),
                    Call::Batch(b) => (2, b[0].io.range.start.0),
                    Call::Trim(t) => (3, t.ranges[0].start.0),
                };
                self.fingerprint = fingerprint(self.fingerprint, addr * 4 + tag);
                calls.push(call);
            }
        }
    }
}

/// Issues one segment's calls, a timestamp at the end of every query (see
/// [`query_calls`]), and adds the blocks it submitted to `blocks`.
fn issue(
    storage: &dyn StorageSystem,
    calls: &mut Vec<Call>,
    blocks: &mut u64,
    query_span: Option<&Recorder>,
) -> Segment {
    let mut segment = Segment::new(calls.len() / SHORT_QUERY + 1);
    let _counting = Recorder::count_allocations(query_span);
    let start = Instant::now();
    let mut query_start = start;
    let mut calls_left = query_calls(0);
    for call in calls.drain(..) {
        match call {
            Call::Submit(request) => {
                segment.requests += 1;
                *blocks += request.blocks();
                storage.submit(request);
            }
            Call::Batch(batch) => {
                segment.requests += batch.len() as u64;
                *blocks += batch.iter().map(ClassifiedRequest::blocks).sum::<u64>();
                storage.submit_batch(batch);
            }
            Call::Trim(command) => {
                segment.requests += 1;
                storage.trim(&command);
            }
        }
        calls_left -= 1;
        if calls_left == 0 {
            let now = Instant::now();
            let elapsed = now - query_start;
            segment.latencies_ns.push(elapsed.as_nanos() as u64);
            if let Some(recorder) = query_span {
                recorder.record(Kind::Burst, elapsed, 0);
            }
            query_start = now;
            calls_left = query_calls(segment.latencies_ns.len());
        }
    }
    segment.wall = start.elapsed();
    segment.queries = segment.latencies_ns.len() as u64;
    segment
}

/// The cache both cache workloads (and the ladder) drive.
pub fn build_cache() -> Arc<dyn StorageSystem> {
    StorageConfig::new(StorageConfigKind::HStorageDb, CACHE_BLOCKS)
        .with_shards(SHARDS)
        .build_shared()
}

pub fn measure(plan: &Plan) -> Measured {
    let draws = plan
        .size
        .count(DRAWS_PER_SEGMENT_10S, DRAWS_PER_SEGMENT_QUICK);
    let mut calls = Vec::new();
    // Set-up: build the cache and run one untimed warm-up segment, which
    // fills it (every later segment starts with a full cache).
    let ((storage, mut generator), setup_s) = timed_setup(plan.setup_rounds, || {
        let storage = build_cache();
        let mut generator = Generator::new(plan.size.seed);
        generator.fill(&mut calls, draws);
        issue(storage.as_ref(), &mut calls, &mut 0, None);
        (storage, generator)
    });
    // Spans start with the timed work: the warm-up above is never traced.
    let storage = plan.traced(storage);
    plan.spans_on();
    storage.reset_stats();
    let sim_start = storage.now();

    let mut checks = Checks::default();
    let mut segments = Vec::with_capacity(plan.segments);
    let mut submitted_blocks = 0;
    for _ in 0..plan.segments {
        generator.fill(&mut calls, draws);
        checks.attempted(calls.len() as u64);
        segments.push(calibrated(|| {
            issue(
                storage.as_ref(),
                &mut calls,
                &mut submitted_blocks,
                plan.recorder.as_deref(),
            )
        }));
    }

    Measured {
        setup_s,
        segments,
        sim_s: (storage.now() - sim_start).as_secs_f64(),
        stats: storage.stats(),
        submitted_blocks,
        threads: 1,
        input_fingerprint: generator.fingerprint,
        buffer_pool: (0, 0),
        checks,
    }
}
