//! Cache statistics.
//!
//! The paper's evaluation reports, per query and per storage configuration,
//! the number of accessed blocks and cache hits broken down by request
//! class (Tables 4, 7) and by assigned priority (Tables 5, 6). These
//! counters are collected here, along with counts of the six cache actions
//! of Section 5.1.

use hstorage_storage::{DeviceStats, RequestClass};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The six actions a cache may take for a request (Section 5.1), plus the
/// write-buffer flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheAction {
    /// Blocks already in cache.
    CacheHit,
    /// Blocks read from the second level into the cache.
    ReadAllocation,
    /// Blocks written into the cache.
    WriteAllocation,
    /// Blocks transferred directly between OS and second level.
    Bypassing,
    /// Cached blocks moved to a different priority group.
    ReAllocation,
    /// Cached blocks removed to make room.
    Eviction,
    /// Cached blocks invalidated by TRIM.
    Trim,
    /// Dirty write-buffer contents flushed to the second level.
    WriteBufferFlush,
}

impl CacheAction {
    /// Every action, in declaration order. The order is the array layout of
    /// [`CacheStats`]: `ALL[a.index()] == a`.
    pub const ALL: [CacheAction; 8] = [
        CacheAction::CacheHit,
        CacheAction::ReadAllocation,
        CacheAction::WriteAllocation,
        CacheAction::Bypassing,
        CacheAction::ReAllocation,
        CacheAction::Eviction,
        CacheAction::Trim,
        CacheAction::WriteBufferFlush,
    ];

    /// The action's position in [`CacheAction::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Blocks accessed vs blocks served from cache, the unit of every
/// hit-ratio table in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounters {
    /// Number of blocks accessed.
    pub accessed_blocks: u64,
    /// Of those, blocks that were cache hits.
    pub cache_hits: u64,
}

impl ClassCounters {
    /// Cache hit ratio in `[0, 1]`; zero when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        if self.accessed_blocks == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.accessed_blocks as f64
        }
    }

    /// Cache misses.
    pub fn misses(&self) -> u64 {
        self.accessed_blocks - self.cache_hits
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        self.accessed_blocks += other.accessed_blocks;
        self.cache_hits += other.cache_hits;
    }
}

/// Hot-path diagnostics: how often a shard visit took the full submission
/// path versus the repeat-hit shortcut.
///
/// These counters describe the *execution path*, not the cache's logical
/// behaviour: two runs that make identical caching decisions can take
/// different counts depending on thread interleaving and whether the
/// policy opts into the repeat-hit shortcut. They are therefore excluded from
/// [`CacheStats`]'s `PartialEq` — the equivalence suites (sharded ≡
/// unsharded, batched ≡ sequential, optimistic ≡ locked) compare logical
/// state only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionCounters {
    /// Slow-path shard visits: one per shard a request, batch run or
    /// TRIM touches, plus write-buffer drains and migration rounds — every
    /// exclusive acquisition of a shard's lock on those paths except a
    /// repeat hit's. Read-only probes take the lock shared, and the
    /// statistics reads that take it exclusively are not counted.
    pub lock_acquisitions: u64,
    /// Single-block repeat read hits served from the shard's hot
    /// descriptor, under its write lock, without the table probe, the
    /// policy call or device pricing.
    pub fast_path_hits: u64,
}

impl ContentionCounters {
    /// Fraction of `lock_acquisitions + fast_path_hits` served on the
    /// fast path; zero when nothing was counted.
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.lock_acquisitions + self.fast_path_hits;
        if total == 0 {
            0.0
        } else {
            self.fast_path_hits as f64 / total as f64
        }
    }

    /// Sums another counter set into this one.
    pub fn merge(&mut self, other: &ContentionCounters) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.fast_path_hits += other.fast_path_hits;
    }
}

const CLASS_SLOTS: usize = 5;
const PRIO_SLOTS: usize = 256;
const ACTION_SLOTS: usize = CacheAction::ALL.len();

/// Statistics of a storage system: fixed enum-indexed counter arrays on
/// plain `u64`s, recorded through `&mut self` by state that is already
/// written under a lock. Each [`crate::CacheEngine`] shard keeps one
/// beside its policy under the shard lock, the LRU baseline cache and the
/// passthrough configurations one under their only mutex, and
/// [`crate::StorageSystem::stats`] returns a copy or the sum of the shards'.
/// Recording is a bounds-checked array add.
#[derive(Debug, Clone)]
pub struct CacheStats {
    /// Accessed blocks / hits per request class, indexed by discriminant.
    classes: [ClassCounters; CLASS_SLOTS],
    /// Accessed blocks / hits per assigned caching priority (hStorage-DB
    /// configurations only; the LRU baseline records the priority the
    /// request *would* have had, to reproduce Table 6). Boxed: the 4 KiB
    /// array would otherwise travel inline with every copy.
    priorities: Box<[ClassCounters; PRIO_SLOTS]>,
    /// Counts of each cache action, in blocks, indexed by
    /// [`CacheAction::index`].
    actions: [u64; ACTION_SLOTS],
    /// Blocks currently resident in the cache.
    pub resident_blocks: u64,
    /// Statistics of the first-level (SSD) device, if present.
    pub ssd: Option<DeviceStats>,
    /// Statistics of the second-level (HDD) device, if present.
    pub hdd: Option<DeviceStats>,
    /// Lock-vs-fast-path diagnostics. Excluded from `PartialEq` (see
    /// [`ContentionCounters`]); the owner bumps the fields directly.
    pub contention: ContentionCounters,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            classes: [ClassCounters::default(); CLASS_SLOTS],
            priorities: Box::new([ClassCounters::default(); PRIO_SLOTS]),
            actions: [0; ACTION_SLOTS],
            resident_blocks: 0,
            ssd: None,
            hdd: None,
            contention: ContentionCounters::default(),
        }
    }
}

/// Equality compares the cache's *logical* state — class/priority/action
/// counters, residency and device statistics — and deliberately ignores
/// [`CacheStats::contention`], which varies with thread interleaving and
/// the policy's use of the repeat-hit shortcut without the cache behaving
/// any differently.
impl PartialEq for CacheStats {
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes
            && self.priorities == other.priorities
            && self.actions == other.actions
            && self.resident_blocks == other.resident_blocks
            && self.ssd == other.ssd
            && self.hdd == other.hdd
    }
}

impl CacheStats {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `blocks` accessed of class `class`, of which `hits` were
    /// served from cache.
    pub fn record_class(&mut self, class: RequestClass, blocks: u64, hits: u64) {
        let c = &mut self.classes[class as usize];
        c.accessed_blocks += blocks;
        c.cache_hits += hits;
    }

    /// Records `blocks` accessed at priority `prio`, of which `hits` were
    /// served from cache.
    pub fn record_priority(&mut self, prio: u8, blocks: u64, hits: u64) {
        let c = &mut self.priorities[usize::from(prio)];
        c.accessed_blocks += blocks;
        c.cache_hits += hits;
    }

    /// Adds `blocks` to the counter of `action`.
    pub fn record_action(&mut self, action: CacheAction, blocks: u64) {
        self.actions[action.index()] += blocks;
    }

    /// Counter for one request class.
    pub fn class(&self, class: RequestClass) -> ClassCounters {
        self.classes[class as usize]
    }

    /// Counter for one priority.
    pub fn priority(&self, prio: u8) -> ClassCounters {
        self.priorities[usize::from(prio)]
    }

    /// Count of one action.
    pub fn action(&self, action: CacheAction) -> u64 {
        self.actions[action.index()]
    }

    /// Totals across all request classes.
    pub fn totals(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for c in &self.classes {
            t.merge(c);
        }
        t
    }

    /// Folds another counter block into this one: class, priority, action
    /// and contention counters are summed, and `resident_blocks`
    /// accumulates. Device statistics are *not* merged (shards share one
    /// device pair); the caller attaches them once on the aggregate. This
    /// is how the sharded cache's per-shard blocks are combined on read.
    pub fn merge(&mut self, other: &CacheStats) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.priorities.iter_mut().zip(other.priorities.iter()) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.actions.iter_mut().zip(&other.actions) {
            *mine += theirs;
        }
        self.resident_blocks += other.resident_blocks;
        self.contention.merge(&other.contention);
    }
}

/// Exact-sample latency recorder with nearest-rank percentile queries.
///
/// The service layer records one sample per completed request (simulated
/// time between submission pickup and completion), and `bench_gate`
/// reports p50/p99 from the full sample set — no bucketing, no interpolation,
/// so the percentiles are deterministic for a deterministic workload.
/// Samples are stored as whole nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Recorded samples in nanoseconds, in arrival order.
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (truncated to whole nanoseconds).
    pub fn record(&mut self, latency: Duration) {
        self.samples
            .push(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds another histogram's samples into this one. Percentiles are
    /// order-independent, so merging per-worker histograms in any order
    /// yields the same summary.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-th percentile (`0 < q <= 100`) by the nearest-rank method:
    /// the smallest recorded sample such that at least `q` percent of all
    /// samples are `<=` it. `None` when empty. `q` values at or below zero
    /// return the minimum sample; values above 100 the maximum.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        // Relative guard before ceil(): 99.9% of 10,000 computes to a hair
        // above 9,990.0 in f64, which would otherwise skip to rank 9,991.
        let exact = q * n as f64 / 100.0;
        let rank = (exact - exact.abs() * 1e-12).ceil() as usize;
        Some(Duration::from_nanos(sorted[rank.clamp(1, n) - 1]))
    }

    /// Median latency (`None` when empty).
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    /// 99th-percentile latency (`None` when empty).
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(99.0)
    }

    /// 99.9th-percentile latency (`None` when empty).
    pub fn p999(&self) -> Option<Duration> {
        self.percentile(99.9)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().max().map(|&n| Duration::from_nanos(n))
    }

    /// Arithmetic mean of the samples (`None` when empty).
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&n| n as u128).sum();
        Some(Duration::from_nanos(
            (sum / self.samples.len() as u128) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `record` leaves in a fresh counter block.
    fn recorded(record: impl FnOnce(&mut CacheStats)) -> CacheStats {
        let mut stats = CacheStats::new();
        record(&mut stats);
        stats
    }

    #[test]
    fn hit_ratio_and_misses() {
        let c = ClassCounters {
            accessed_blocks: 200,
            cache_hits: 50,
        };
        assert!((c.hit_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(c.misses(), 150);
        assert_eq!(ClassCounters::default().hit_ratio(), 0.0);
    }

    #[test]
    fn record_and_query_by_class_and_priority() {
        let s = recorded(|s| {
            s.record_class(RequestClass::Random, 100, 90);
            s.record_class(RequestClass::Random, 10, 0);
            s.record_class(RequestClass::Sequential, 1000, 3);
            s.record_priority(2, 100, 90);
            s.record_priority(3, 10, 0);
            s.record_priority(2, 5, 5);
            s.record_class(RequestClass::Update, 0, 0);
            s.record_priority(7, 0, 0);
            s.contention.lock_acquisitions += 3;
            s.contention.fast_path_hits += 1;
        });

        assert_eq!(s.class(RequestClass::Random).accessed_blocks, 110);
        assert_eq!(s.class(RequestClass::Random).cache_hits, 90);
        assert_eq!(s.class(RequestClass::Sequential).cache_hits, 3);
        assert_eq!(s.class(RequestClass::Update), ClassCounters::default());
        assert_eq!(s.priority(2).accessed_blocks, 105);
        assert_eq!(s.priority(2).cache_hits, 95);
        assert_eq!(s.priority(3).misses(), 10);
        assert_eq!(s.priority(7), ClassCounters::default());
        assert_eq!(s.totals().accessed_blocks, 1110);
        assert_eq!(s.totals().cache_hits, 93);
        assert_eq!(s.resident_blocks, 0);
        assert_eq!((s.ssd, s.hdd), (None, None));
        assert_eq!(s.contention.lock_acquisitions, 3);
        assert_eq!(s.contention.fast_path_hits, 1);
        // Zero-amount records leave a fresh block equal to `new()`.
        let zeros = recorded(|s| {
            s.record_class(RequestClass::Update, 0, 0);
            s.record_priority(7, 0, 0);
            s.record_action(CacheAction::Trim, 0);
        });
        assert_eq!(zeros, CacheStats::new());
        assert_eq!(zeros.contention, ContentionCounters::default());
    }

    #[test]
    fn merge_sums_counters_and_residents() {
        let mut a = recorded(|a| {
            a.record_class(RequestClass::Random, 100, 40);
            a.record_priority(2, 100, 40);
            a.record_action(CacheAction::Eviction, 3);
        });
        a.resident_blocks = 10;

        let mut b = recorded(|b| {
            b.record_class(RequestClass::Random, 50, 10);
            b.record_class(RequestClass::Sequential, 5, 0);
            b.record_action(CacheAction::Eviction, 1);
            b.record_action(CacheAction::Bypassing, 9);
        });
        b.resident_blocks = 7;

        a.merge(&b);
        assert_eq!(a.class(RequestClass::Random).accessed_blocks, 150);
        assert_eq!(a.class(RequestClass::Random).cache_hits, 50);
        assert_eq!(a.class(RequestClass::Sequential).accessed_blocks, 5);
        assert_eq!(a.priority(2).cache_hits, 40);
        assert_eq!(a.action(CacheAction::Eviction), 4);
        assert_eq!(a.action(CacheAction::Bypassing), 9);
        assert_eq!(a.resident_blocks, 17);
    }

    #[test]
    fn merge_of_empty_snapshots_is_empty() {
        let mut a = CacheStats::new();
        a.merge(&CacheStats::new());
        assert_eq!(a, CacheStats::new());
    }

    #[test]
    fn merge_into_empty_copies_cache_level_state() {
        // Aggregating a single shard must reproduce its cache-level
        // counters exactly — the N=1 case of the sharded stats read path.
        let mut shard = recorded(|shard| {
            shard.record_class(RequestClass::Update, 42, 7);
            shard.record_priority(0, 42, 7);
            shard.record_action(CacheAction::WriteBufferFlush, 11);
        });
        shard.resident_blocks = 3;

        let mut aggregate = CacheStats::new();
        aggregate.merge(&shard);
        assert_eq!(aggregate, shard);
    }

    #[test]
    fn merge_with_empty_other_is_identity() {
        let mut a = recorded(|a| {
            a.record_class(RequestClass::Random, 10, 4);
            a.record_action(CacheAction::Eviction, 2);
        });
        a.resident_blocks = 5;
        let before = a.clone();
        a.merge(&CacheStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_handles_asymmetric_shards() {
        // Shards only record what they saw: counters present on one side
        // and absent on the other must survive the merge in both
        // directions.
        let a = recorded(|a| {
            a.record_class(RequestClass::Random, 100, 40);
            a.record_priority(2, 100, 40);
            a.record_action(CacheAction::ReadAllocation, 60);
        });
        let b = recorded(|b| {
            b.record_class(RequestClass::TemporaryData, 30, 30);
            b.record_priority(1, 30, 30);
            b.record_action(CacheAction::Trim, 30);
        });

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Merge is commutative on cache-level state.
        assert_eq!(ab, ba);
        assert_eq!(ab.class(RequestClass::Random).accessed_blocks, 100);
        assert_eq!(ab.class(RequestClass::TemporaryData).cache_hits, 30);
        assert_eq!(ab.priority(1).accessed_blocks, 30);
        assert_eq!(ab.priority(2).cache_hits, 40);
        assert_eq!(ab.action(CacheAction::ReadAllocation), 60);
        assert_eq!(ab.action(CacheAction::Trim), 30);
        assert_eq!(ab.totals().accessed_blocks, 130);
    }

    #[test]
    fn merge_never_touches_device_stats() {
        // Shards share one device pair, so per-shard snapshots must not
        // contribute device stats: the caller attaches them once on the
        // aggregate.
        let mut other = CacheStats::new();
        other.ssd = Some(hstorage_storage::DeviceStats {
            blocks_read: 999,
            ..Default::default()
        });
        other.hdd = Some(hstorage_storage::DeviceStats::default());

        let mut aggregate = CacheStats::new();
        aggregate.merge(&other);
        assert_eq!(aggregate.ssd, None);
        assert_eq!(aggregate.hdd, None);

        // And an aggregate that already has device stats keeps its own.
        let mine = hstorage_storage::DeviceStats {
            blocks_written: 5,
            ..Default::default()
        };
        aggregate.ssd = Some(mine.clone());
        aggregate.merge(&other);
        assert_eq!(aggregate.ssd, Some(mine));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.p999(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(42));
        let v = Some(Duration::from_micros(42));
        assert_eq!(h.len(), 1);
        assert_eq!(h.percentile(0.0), v);
        assert_eq!(h.p50(), v);
        assert_eq!(h.p99(), v);
        assert_eq!(h.p999(), v);
        assert_eq!(h.percentile(100.0), v);
        assert_eq!(h.max(), v);
        assert_eq!(h.mean(), v);
    }

    #[test]
    fn nearest_rank_percentiles_on_a_known_set() {
        // 1..=10 ms: nearest rank for q% of 10 samples is ceil(q/10).
        let mut h = LatencyHistogram::new();
        for ms in 1..=10u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.p50(), Some(Duration::from_millis(5)));
        assert_eq!(h.percentile(90.0), Some(Duration::from_millis(9)));
        assert_eq!(h.percentile(91.0), Some(Duration::from_millis(10)));
        assert_eq!(h.p99(), Some(Duration::from_millis(10)));
        assert_eq!(h.percentile(100.0), Some(Duration::from_millis(10)));
        // Out-of-range q values clamp to the extremes instead of panicking.
        assert_eq!(h.percentile(-3.0), Some(Duration::from_millis(1)));
        assert_eq!(h.percentile(250.0), Some(Duration::from_millis(10)));
        assert_eq!(h.mean(), Some(Duration::from_nanos(5_500_000)));
    }

    #[test]
    fn heavy_tail_separates_the_high_percentiles() {
        // 9,990 fast requests and 10 slow stragglers: the tail must be
        // invisible at p50/p99 and dominate p999/max.
        let mut h = LatencyHistogram::new();
        for _ in 0..9_990 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_secs(1));
        }
        assert_eq!(h.p50(), Some(Duration::from_micros(100)));
        assert_eq!(h.p99(), Some(Duration::from_micros(100)));
        // rank(99.9% of 10,000) = 9,990 → still fast; 99.91 crosses over.
        assert_eq!(h.p999(), Some(Duration::from_micros(100)));
        assert_eq!(h.percentile(99.91), Some(Duration::from_secs(1)));
        assert_eq!(h.max(), Some(Duration::from_secs(1)));
        // Recording order does not matter: an interleaved twin agrees.
        let mut twin = LatencyHistogram::new();
        for i in 0..10_000u64 {
            if i % 1_000 == 0 {
                twin.record(Duration::from_secs(1));
            } else {
                twin.record(Duration::from_micros(100));
            }
        }
        for q in [50.0, 99.0, 99.9, 99.91, 100.0] {
            assert_eq!(h.percentile(q), twin.percentile(q), "q = {q}");
        }
    }

    #[test]
    fn merge_concatenates_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ms in 1..=5u64 {
            a.record(Duration::from_millis(ms));
        }
        for ms in 6..=10u64 {
            b.record(Duration::from_millis(ms));
        }
        a.merge(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.p50(), Some(Duration::from_millis(5)));
        assert_eq!(a.max(), Some(Duration::from_millis(10)));
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn contention_is_excluded_from_equality_but_merged() {
        let mut a = recorded(|a| a.record_class(RequestClass::Random, 10, 4));
        let mut b = a.clone();
        b.contention.lock_acquisitions = 99;
        b.contention.fast_path_hits = 1;
        // Same logical state, different execution paths: still equal.
        assert_eq!(a, b);
        a.merge(&b);
        assert_eq!(a.contention.lock_acquisitions, 99);
        assert_eq!(a.contention.fast_path_hits, 1);
        assert!((b.contention.fast_path_rate() - 0.01).abs() < 1e-9);
        assert_eq!(ContentionCounters::default().fast_path_rate(), 0.0);
    }

    #[test]
    fn actions_accumulate() {
        let s = recorded(|s| {
            s.record_action(CacheAction::Eviction, 5);
            s.record_action(CacheAction::Eviction, 7);
            s.record_action(CacheAction::Bypassing, 3);
        });
        assert_eq!(s.action(CacheAction::Eviction), 12);
        assert_eq!(s.action(CacheAction::Bypassing), 3);
        assert_eq!(s.action(CacheAction::CacheHit), 0);
    }
}
