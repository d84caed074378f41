//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the program.
//!
//! Nothing inside the repository's crates is instrumented. A traced run
//! wraps the storage system in [`Traced`], a pass-through that times every
//! `StorageSystem` call, and the workload drivers time their own calls to
//! `build_plan`, `run_query` and `QueryService::submit`. Every span kind
//! keeps a call count, a time sum and a fixed log-bucket histogram, so
//! memory stays bounded however many calls a run makes; whole-query spans
//! are additionally kept one by one (up to [`MAX_QUERY_SPANS`]) with the
//! storage time of their children, which is what makes
//! `self time = span − children` computable.

use crate::alloc::{count_while, CountGuard};
use crate::json::Value;
use hstorage_cache::{CacheStats, MigrationStats, StorageSystem};
use hstorage_storage::{ClassifiedRequest, TrimCommand};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The span kinds a traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `hstorage_tpch::build_plan`.
    BuildPlan,
    /// Building a `PlanTree` by hand (the `service_mix` front end).
    PlanBuild,
    /// `QueryExecutor::run_query`.
    RunQuery,
    /// `QueryService::submit` (enqueue only).
    ServiceSubmit,
    /// Driver-observed submit → reply.
    ServiceRoundtrip,
    /// `StorageSystem::submit`.
    Submit,
    /// `StorageSystem::submit_batch`.
    SubmitBatch,
    /// `StorageSystem::trim`.
    Trim,
    /// `StorageSystem::migrate_idle`.
    MigrateIdle,
    /// A burst of storage calls issued back to back by one cache client.
    Burst,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::BuildPlan,
        Kind::PlanBuild,
        Kind::RunQuery,
        Kind::ServiceSubmit,
        Kind::ServiceRoundtrip,
        Kind::Submit,
        Kind::SubmitBatch,
        Kind::Trim,
        Kind::MigrateIdle,
        Kind::Burst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BuildPlan => "tpch.build_plan",
            Kind::PlanBuild => "engine.plan.build",
            Kind::RunQuery => "engine.run_query",
            Kind::ServiceSubmit => "engine.service.submit",
            Kind::ServiceRoundtrip => "engine.service.roundtrip",
            Kind::Submit => "cache.submit",
            Kind::SubmitBatch => "cache.submit_batch",
            Kind::Trim => "cache.trim",
            Kind::MigrateIdle => "cache.migrate_idle",
            Kind::Burst => "client.burst",
        }
    }

    fn is_storage_call(self) -> bool {
        matches!(
            self,
            Kind::Submit | Kind::SubmitBatch | Kind::Trim | Kind::MigrateIdle
        )
    }
}

/// Log-bucket histogram of nanosecond durations: four buckets per power of
/// two (≤ 25 % wide), 256 buckets in all, whatever the sample count.
pub struct Hist {
    buckets: [AtomicU64; 256],
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 4 {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros() as u64;
        (top * 4 + ((ns >> (top - 2)) & 3)) as usize
    }

    /// The middle of bucket `index`, in nanoseconds.
    fn midpoint(index: usize) -> f64 {
        if index < 4 {
            return index as f64;
        }
        let (top, sub) = ((index / 4) as u32, (index % 4) as u64);
        let width = 1u64 << (top - 2);
        ((4 + sub) * width) as f64 + width as f64 / 2.0
    }

    fn record(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank percentile, resolved to a bucket midpoint; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        unreachable!("rank is at most the total count")
    }

    fn to_json(&self) -> Value {
        Value::Arr(
            self.buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let count = b.load(Ordering::Relaxed);
                    (count > 0).then(|| Value::Arr(vec![Self::midpoint(i).into(), count.into()]))
                })
                .collect(),
        )
    }
}

/// Totals of one span kind.
pub struct KindTotals {
    calls: AtomicU64,
    ns: AtomicU64,
    /// Blocks carried by the calls (storage kinds only).
    blocks: AtomicU64,
    pub hist: Hist,
}

impl KindTotals {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn blocks(&self) -> u64 {
        self.blocks.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 — a layer the workload never entered.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One whole-query span with the storage time of its children.
#[derive(Debug, Clone)]
pub struct QuerySpan {
    /// Shared by the spans of one request.
    pub request: u64,
    pub kind: Kind,
    /// What ran ("Q9", "lookup", …).
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time and number of `StorageSystem` calls made inside this span.
    pub storage_ns: u64,
    pub storage_calls: u64,
}

/// Query spans kept one by one; the rest only feed the histograms.
pub const MAX_QUERY_SPANS: usize = 4096;

thread_local! {
    /// Storage time and calls since the owning thread last took them:
    /// how a query span learns what its children cost.
    static CHILDREN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Everything a traced run records, shared by the driver and [`Traced`].
pub struct Recorder {
    /// Off until the timed work starts, so set-up and warm-up leave no spans.
    on: AtomicBool,
    origin: Instant,
    kinds: [KindTotals; Kind::ALL.len()],
    spans: Mutex<Vec<QuerySpan>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            kinds: std::array::from_fn(|_| KindTotals {
                calls: AtomicU64::new(0),
                ns: AtomicU64::new(0),
                blocks: AtomicU64::new(0),
                hist: Hist::new(),
            }),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn totals(&self, kind: Kind) -> &KindTotals {
        &self.kinds[kind as usize]
    }

    /// Starts recording. Called by a workload when its timed work begins;
    /// the flag guards statistics only, so Relaxed is enough.
    pub fn switch_on(&self) {
        self.on.store(true, Ordering::Relaxed);
    }

    /// Counts allocations while the returned guard lives — if the timed
    /// work has started; warm-up segments run the same code uncounted.
    pub fn count_allocations(recorder: Option<&Recorder>) -> CountGuard {
        count_while(recorder.is_some_and(|r| r.on.load(Ordering::Relaxed)))
    }

    /// Records one finished span of `kind`.
    pub fn record(&self, kind: Kind, elapsed: Duration, blocks: u64) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        let ns = elapsed.as_nanos() as u64;
        let t = self.totals(kind);
        t.calls.fetch_add(1, Ordering::Relaxed);
        t.ns.fetch_add(ns, Ordering::Relaxed);
        t.blocks.fetch_add(blocks, Ordering::Relaxed);
        t.hist.record(ns);
        if kind.is_storage_call() {
            CHILDREN.with(|c| {
                let (child_ns, calls) = c.get();
                c.set((child_ns + ns, calls + 1));
            });
        }
    }

    /// Times `body` as one span of `kind`.
    pub fn time<T>(&self, kind: Kind, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        self.record(kind, start.elapsed(), 0);
        out
    }

    /// Times `body` as a whole-query span: its children are the storage
    /// calls this thread makes while it runs.
    pub fn time_query<T>(
        &self,
        kind: Kind,
        request: u64,
        label: &str,
        body: impl FnOnce() -> T,
    ) -> T {
        CHILDREN.with(|c| c.set((0, 0)));
        let start = Instant::now();
        let out = body();
        let elapsed = start.elapsed();
        let (storage_ns, storage_calls) = CHILDREN.with(|c| c.replace((0, 0)));
        self.record(kind, elapsed, 0);
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        if self.on.load(Ordering::Relaxed) && spans.len() < MAX_QUERY_SPANS {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            spans.push(QuerySpan {
                request,
                kind,
                label: label.to_string(),
                start_ns,
                end_ns: start_ns + elapsed.as_nanos() as u64,
                storage_ns,
                storage_calls,
            });
        }
        out
    }

    /// Total time spent inside `StorageSystem` calls.
    pub fn storage_ns(&self) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.is_storage_call())
            .map(|k| self.totals(*k).ns())
            .sum()
    }

    /// Total `StorageSystem` calls.
    pub fn storage_calls(&self) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.is_storage_call())
            .map(|k| self.totals(*k).calls())
            .sum()
    }

    pub fn query_spans(&self) -> Vec<QuerySpan> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// The trace file's body: per-kind totals with histograms, then the
    /// kept query spans.
    pub fn to_json(&self) -> Value {
        let kinds = Kind::ALL.iter().filter_map(|k| {
            let t = self.totals(*k);
            (t.calls() > 0).then(|| {
                (
                    k.name(),
                    Value::obj([
                        ("calls", t.calls().into()),
                        ("total_ns", t.ns().into()),
                        ("blocks", t.blocks().into()),
                        ("histogram_ns_count", t.hist.to_json()),
                    ]),
                )
            })
        });
        let spans = self.query_spans().into_iter().map(|s| {
            Value::obj([
                ("request", Value::from(s.request)),
                ("name", Value::str(s.kind.name())),
                ("label", Value::str(s.label)),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("child_storage_ns", s.storage_ns.into()),
                ("child_storage_calls", s.storage_calls.into()),
            ])
        });
        Value::obj([
            ("kinds", Value::obj(kinds)),
            ("query_spans_kept", (MAX_QUERY_SPANS as u64).into()),
            ("query_spans", Value::Arr(spans.collect())),
        ])
    }
}

/// A `StorageSystem` that forwards every call to `inner` and records how
/// long the call took. It changes nothing the inner system can observe,
/// which the traced run verifies (same simulated time, same counts).
pub struct Traced {
    inner: Arc<dyn StorageSystem>,
    recorder: Arc<Recorder>,
}

impl Traced {
    pub fn wrap(inner: Arc<dyn StorageSystem>, recorder: &Arc<Recorder>) -> Arc<dyn StorageSystem> {
        Arc::new(Traced {
            inner,
            recorder: Arc::clone(recorder),
        })
    }
}

impl StorageSystem for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&self, req: ClassifiedRequest) {
        let blocks = req.blocks();
        let start = Instant::now();
        self.inner.submit(req);
        self.recorder.record(Kind::Submit, start.elapsed(), blocks);
    }

    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        let blocks = reqs.iter().map(ClassifiedRequest::blocks).sum();
        let start = Instant::now();
        self.inner.submit_batch(reqs);
        self.recorder
            .record(Kind::SubmitBatch, start.elapsed(), blocks);
    }

    fn trim(&self, cmd: &TrimCommand) {
        let start = Instant::now();
        self.inner.trim(cmd);
        self.recorder
            .record(Kind::Trim, start.elapsed(), cmd.blocks());
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn resident_blocks(&self) -> u64 {
        self.inner.resident_blocks()
    }

    fn migrate_idle(&self) -> MigrationStats {
        let start = Instant::now();
        let out = self.inner.migrate_idle();
        self.recorder.record(Kind::MigrateIdle, start.elapsed(), 0);
        out
    }

    fn migration_stats(&self) -> MigrationStats {
        self.inner.migration_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_at_most_a_quarter_wide() {
        for ns in [
            0u64,
            1,
            3,
            4,
            5,
            7,
            8,
            100,
            390,
            1_000,
            65_537,
            u64::MAX / 2,
        ] {
            let mid = Hist::midpoint(Hist::index(ns));
            let err = (mid - ns as f64).abs();
            assert!(err <= (ns as f64) * 0.126 + 0.5, "{ns} -> {mid}");
        }
        let h = Hist::new();
        for ns in 1..=1000 {
            h.record(ns);
        }
        let p50 = h.percentile(0.5);
        assert!((440.0..=560.0).contains(&p50), "{p50}");
        assert_eq!(Hist::new().percentile(0.99), 0.0);
    }

    #[test]
    fn query_spans_collect_their_storage_children() {
        let rec = Recorder::new();
        rec.record(Kind::Submit, Duration::from_nanos(9), 1);
        assert_eq!(
            rec.storage_calls(),
            0,
            "nothing is recorded before the timed work"
        );
        rec.switch_on();
        rec.record(Kind::Submit, Duration::from_nanos(500), 1);
        rec.time_query(Kind::RunQuery, 7, "Q", || {
            rec.record(Kind::Submit, Duration::from_nanos(100), 1);
            rec.record(Kind::Trim, Duration::from_nanos(50), 8);
        });
        let spans = rec.query_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (
                spans[0].request,
                spans[0].storage_ns,
                spans[0].storage_calls
            ),
            (7, 150, 2)
        );
        assert_eq!(rec.storage_calls(), 3);
        assert_eq!(rec.storage_ns(), 650);
        assert_eq!(rec.totals(Kind::Trim).blocks(), 8);
    }
}
