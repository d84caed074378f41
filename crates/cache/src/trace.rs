//! Request tracing.
//!
//! [`TraceRecorder`] wraps any [`StorageSystem`] and records the classified
//! request stream that reaches it. This is the tool used to debug policy
//! assignment (which priority did a request actually carry?) and to build
//! Figure-4-style breakdowns for new workloads without instrumenting the
//! engine. Traces can also be replayed against a different storage
//! configuration, to compare managers on identical input.
//!
//! The recorder shares the `&self` [`StorageSystem`] interface, so the
//! trace buffer lives behind a mutex; with concurrent callers the recorded
//! order is the arrival order at the recorder (one interleaving of the
//! concurrent submits).

use crate::stats::CacheStats;
use crate::system::StorageSystem;
use hstorage_storage::{ClassifiedRequest, RequestClass, TrimCommand};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A classified I/O request.
    Request(ClassifiedRequest),
    /// A TRIM command.
    Trim(TrimCommand),
}

/// A recorded request trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in arrival order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of blocks requested, per request class.
    pub fn blocks_by_class(&self) -> BTreeMap<RequestClass, u64> {
        let mut map = BTreeMap::new();
        for event in &self.events {
            if let TraceEvent::Request(req) = event {
                *map.entry(req.class).or_default() += req.blocks();
            }
        }
        map
    }

    /// Number of blocks requested, per QoS policy.
    pub fn blocks_by_policy(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for event in &self.events {
            if let TraceEvent::Request(req) = event {
                *map.entry(req.policy.to_string()).or_default() += req.blocks();
            }
        }
        map
    }

    /// Replays the trace against another storage system and returns its
    /// statistics and elapsed simulated time.
    pub fn replay(&self, target: &dyn StorageSystem) -> (CacheStats, Duration) {
        let start = target.now();
        for event in &self.events {
            match event {
                TraceEvent::Request(req) => target.submit(*req),
                TraceEvent::Trim(cmd) => target.trim(cmd),
            }
        }
        (target.stats(), target.now().saturating_sub(start))
    }
}

/// A [`StorageSystem`] decorator that records every request it forwards.
pub struct TraceRecorder<S> {
    inner: S,
    trace: Mutex<Trace>,
}

impl<S: StorageSystem> TraceRecorder<S> {
    /// Wraps `inner`, recording all traffic sent to it.
    pub fn new(inner: S) -> Self {
        TraceRecorder {
            inner,
            trace: Mutex::new(Trace::default()),
        }
    }

    /// A snapshot of the trace recorded so far.
    pub fn trace(&self) -> Trace {
        self.trace.lock().clone()
    }

    /// Consumes the recorder, returning the wrapped system and the trace.
    pub fn into_parts(self) -> (S, Trace) {
        (self.inner, self.trace.into_inner())
    }

    /// The wrapped storage system.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: StorageSystem> StorageSystem for TraceRecorder<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&self, req: ClassifiedRequest) {
        self.trace.lock().events.push(TraceEvent::Request(req));
        self.inner.submit(req);
    }

    fn trim(&self, cmd: &TrimCommand) {
        self.trace.lock().events.push(TraceEvent::Trim(cmd.clone()));
        self.inner.trim(cmd);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StorageConfig, StorageConfigKind};
    use crate::hybrid::HybridCache;
    use crate::lru_cache::LruCache;
    use hstorage_storage::{BlockRange, IoRequest, QosPolicy};

    fn hybrid(capacity: u64) -> HybridCache {
        HybridCache::new(&StorageConfig::new(StorageConfigKind::HStorageDb, capacity))
    }

    fn req(start: u64, class: RequestClass, policy: QosPolicy) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, 1), false),
            class,
            policy,
        )
    }

    #[test]
    fn records_requests_and_trims_in_order() {
        let rec = TraceRecorder::new(hybrid(64));
        rec.submit(req(1, RequestClass::Random, QosPolicy::priority(2)));
        rec.submit(req(2, RequestClass::TemporaryData, QosPolicy::priority(1)));
        rec.trim(&TrimCommand::single(BlockRange::new(2u64, 1)));
        assert_eq!(rec.trace().len(), 3);
        assert!(matches!(rec.trace().events[2], TraceEvent::Trim(_)));
        // The wrapped cache saw the same traffic.
        assert_eq!(rec.stats().totals().accessed_blocks, 2);
        assert_eq!(rec.resident_blocks(), 1);
    }

    #[test]
    fn breakdown_by_class_and_policy() {
        let rec = TraceRecorder::new(hybrid(64));
        for i in 0..5 {
            rec.submit(req(i, RequestClass::Random, QosPolicy::priority(2)));
        }
        rec.submit(req(
            100,
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        let by_class = rec.trace().blocks_by_class();
        assert_eq!(by_class[&RequestClass::Random], 5);
        assert_eq!(by_class[&RequestClass::Sequential], 1);
        let by_policy = rec.trace().blocks_by_policy();
        assert_eq!(by_policy["P2"], 5);
    }

    #[test]
    fn replay_reproduces_identical_behaviour_on_an_identical_system() {
        let rec = TraceRecorder::new(hybrid(32));
        for round in 0..3u64 {
            for i in 0..20u64 {
                rec.submit(req(i, RequestClass::Random, QosPolicy::priority(2)));
            }
            let _ = round;
        }
        let (original, trace) = rec.into_parts();

        let replayed = hybrid(32);
        let (stats, elapsed) = trace.replay(&replayed);
        assert_eq!(
            stats.totals(),
            original.stats().totals(),
            "replay on an identical system must produce identical totals"
        );
        assert!(elapsed > Duration::ZERO);
    }

    #[test]
    fn replay_lets_managers_be_compared_on_identical_input() {
        // Record a pollution-heavy stream against hStorage-DB...
        let rec = TraceRecorder::new(hybrid(64));
        for i in 0..64u64 {
            rec.submit(req(i, RequestClass::Random, QosPolicy::priority(2)));
        }
        rec.submit(ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(1_000u64, 512), true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        ));
        for i in 0..64u64 {
            rec.submit(req(i, RequestClass::Random, QosPolicy::priority(2)));
        }
        let (hybrid, trace) = rec.into_parts();

        // ...and replay it against the LRU baseline.
        let lru = LruCache::new(64);
        let (lru_stats, _) = trace.replay(&lru);

        let hybrid_hits = hybrid.stats().class(RequestClass::Random).cache_hits;
        let lru_hits = lru_stats.class(RequestClass::Random).cache_hits;
        // The sequential scan wipes the LRU cache but not the hybrid one.
        assert!(hybrid_hits > lru_hits);
    }
}
