//! The four workloads and what they have in common: fixed work cut into
//! equal segments, inputs generated from the seed outside the timed
//! region, and one [`Measured`] record out.

pub mod cache_hits;
pub mod cache_mixed;
pub mod power;
pub mod service_mix;

use crate::calibrate;
use crate::estimate::{percentile, summarize, Summary};
use crate::trace::{Recorder, Traced};
use hstorage_cache::{CacheStats, StorageSystem};
use std::sync::Arc;
use std::time::Duration;

/// Which workload to run. The names are the ones `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Power,
    ServiceMix,
    CacheMixed,
    CacheHits,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Power,
        WorkloadId::ServiceMix,
        WorkloadId::CacheMixed,
        WorkloadId::CacheHits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Power => "power",
            WorkloadId::ServiceMix => "service_mix",
            WorkloadId::CacheMixed => "cache_mixed",
            WorkloadId::CacheHits => "cache_hits",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does. Work is a count, never a deadline: `seconds`
/// only scales the frozen per-10-seconds counts, which were sized once on
/// a 2-core box so that `--seconds 10` times about ten seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub seed: u64,
    pub seconds: u64,
    /// Sub-second counts through the same code path (tests, seed check).
    pub quick: bool,
}

impl Size {
    /// `per_ten_seconds` scaled by `seconds / 10`, or `quick` in quick mode.
    pub fn count(&self, per_ten_seconds: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            (per_ten_seconds * self.seconds / 10).max(1)
        }
    }
}

/// One run request: how much work, how it is cut up, whether it is traced.
pub struct Plan {
    pub size: Size,
    /// Timed segments (≥ 16 untraced, 4 traced).
    pub segments: usize,
    /// How many times set-up is performed and timed; the last one is used.
    pub setup_rounds: usize,
    /// Spans on: storage is wrapped and driver calls are timed.
    pub recorder: Option<Arc<Recorder>>,
}

impl Plan {
    /// Wraps `storage` in the tracing pass-through when spans are on.
    pub fn traced(&self, storage: Arc<dyn StorageSystem>) -> Arc<dyn StorageSystem> {
        match &self.recorder {
            Some(recorder) => Traced::wrap(storage, recorder),
            None => storage,
        }
    }

    /// Marks the start of the timed work: from here on spans are kept.
    pub fn spans_on(&self) {
        if let Some(recorder) = &self.recorder {
            recorder.switch_on();
        }
    }
}

/// One timed segment of fixed work.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Raw wall-clock time of the segment's fixed work.
    pub wall: Duration,
    /// Speed factor from the calibration kernel run on either side of it
    /// (see [`crate::calibrate`]); 1 until the caller brackets the segment.
    pub speed: f64,
    /// Client-visible units of work: TPC-H queries, service requests, or
    /// bursts of 64 (one in 50: 1,024) storage calls on the cache workloads.
    pub queries: u64,
    /// `ClassifiedRequest`s (and TRIMs) that reached the storage system.
    pub requests: u64,
    /// One latency per query, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

/// Self-checks: each one is an attempted operation that can fail.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `operations` that cannot fail one by one (a `submit` returns
    /// nothing) but were attempted.
    pub fn attempted(&mut self, operations: u64) {
        self.attempted += operations;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What a workload hands back.
pub struct Measured {
    /// One sample per set-up round, in seconds.
    pub setup_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// Simulated seconds the timed work took (`StorageSystem::now` delta).
    pub sim_s: f64,
    /// Storage statistics over the timed work only.
    pub stats: CacheStats,
    /// Blocks the driver submitted over the timed work.
    pub submitted_blocks: u64,
    /// Threads that drove or served work.
    pub threads: usize,
    /// A hash of the generated inputs: differs when the seed does.
    pub input_fingerprint: u64,
    /// DBMS buffer-pool hits and misses seen by the driver (0 when the
    /// workload has no executor).
    pub buffer_pool: (u64, u64),
    pub checks: Checks,
}

impl Segment {
    pub fn new(latency_samples: usize) -> Self {
        Segment {
            wall: Duration::ZERO,
            speed: 1.0,
            queries: 0,
            requests: 0,
            latencies_ns: Vec::with_capacity(latency_samples),
        }
    }

    /// The segment's time in calibrated seconds.
    pub fn seconds(&self) -> f64 {
        self.wall.as_secs_f64() * self.speed
    }
}

impl Measured {
    pub fn per_segment(&self, f: impl Fn(&Segment) -> f64) -> Summary {
        summarize(&self.segments.iter().map(f).collect::<Vec<_>>())
    }

    pub fn queries_per_s(&self) -> Summary {
        self.per_segment(|s| s.queries as f64 / s.seconds())
    }

    pub fn requests_per_s(&self) -> Summary {
        self.per_segment(|s| s.requests as f64 / s.seconds())
    }

    /// Per-segment percentile of query latency, in calibrated ms.
    pub fn query_ms(&self, p: f64) -> Summary {
        self.per_segment(|s| percentile(&mut s.latencies_ns.clone(), p) / 1e6 * s.speed)
    }

    pub fn hit_ratio(&self) -> f64 {
        self.stats.totals().hit_ratio()
    }

    pub fn wall(&self) -> Duration {
        self.segments.iter().map(|s| s.wall).sum()
    }

    pub fn requests(&self) -> u64 {
        self.segments.iter().map(|s| s.requests).sum()
    }
}

pub fn run(id: WorkloadId, plan: &Plan) -> Measured {
    let mut measured = match id {
        WorkloadId::Power => power::measure(plan),
        WorkloadId::ServiceMix => service_mix::measure(plan),
        WorkloadId::CacheMixed => cache_mixed::measure(plan),
        WorkloadId::CacheHits => cache_hits::measure(plan),
    };
    let accessed = measured.stats.totals().accessed_blocks;
    let submitted = measured.submitted_blocks;
    measured.checks.check(accessed == submitted, || {
        format!("storage counted {accessed} accessed blocks, the driver submitted {submitted}")
    });
    measured
}

/// Performs set-up `rounds` times, timing each in calibrated seconds, and
/// keeps the last state. Earlier states are dropped before the next is
/// built, so peak memory is one instance.
pub fn timed_setup<S>(rounds: usize, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut samples = Vec::with_capacity(rounds);
    let mut state = None;
    for _ in 0..rounds.max(1) {
        drop(state.take());
        let (built, wall, speed) = calibrate::timed(&mut build);
        state = Some(built);
        samples.push(wall.as_secs_f64() * speed);
    }
    (state.expect("at least one set-up round"), samples)
}

/// Runs one segment with the calibration kernel on either side of it.
pub fn calibrated(run: impl FnOnce() -> Segment) -> Segment {
    let (mut segment, _, speed) = calibrate::timed(run);
    segment.speed = speed;
    segment
}

/// Folds a value into an input fingerprint (FNV-1a step over 8 bytes).
pub fn fingerprint(acc: u64, value: u64) -> u64 {
    (acc ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}
