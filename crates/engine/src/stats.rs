//! Per-query execution statistics.

use hstorage_storage::RequestClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Number of request classes (the length of [`RequestClass::all`]).
const CLASSES: usize = 5;

/// Statistics of one query execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Query name ("Q1", "Q18", "RF1", …).
    pub name: String,
    /// Total simulated execution time (I/O + CPU).
    pub elapsed: Duration,
    /// Simulated I/O time (storage-clock delta attributable to the query).
    pub io_time: Duration,
    /// Simulated CPU time.
    pub cpu_time: Duration,
    /// Storage I/O requests issued, indexed by `RequestClass as usize`;
    /// [`Self::requests_by_class`] is the external form.
    requests: [u64; CLASSES],
    /// Blocks requested from storage, indexed like `requests`;
    /// [`Self::blocks_by_class`] is the external form.
    blocks: [u64; CLASSES],
    /// Buffer-pool hits during the query.
    pub buffer_pool_hits: u64,
    /// Buffer-pool misses during the query.
    pub buffer_pool_misses: u64,
}

impl QueryStats {
    /// Creates empty statistics for a named query.
    pub fn new(name: impl Into<String>) -> Self {
        QueryStats {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Records one storage request of `blocks` blocks of the given class.
    pub fn record_request(&mut self, class: RequestClass, blocks: u64) {
        self.requests[class as usize] += 1;
        self.blocks[class as usize] += blocks;
    }

    /// Number of storage I/O requests issued, per request-class label. A
    /// class the query never issued has no entry.
    pub fn requests_by_class(&self) -> BTreeMap<String, u64> {
        self.by_class(&self.requests)
    }

    /// Number of blocks requested from storage, per request-class label. A
    /// class the query never issued has no entry.
    pub fn blocks_by_class(&self) -> BTreeMap<String, u64> {
        self.by_class(&self.blocks)
    }

    fn by_class(&self, counters: &[u64; CLASSES]) -> BTreeMap<String, u64> {
        RequestClass::all()
            .into_iter()
            .filter(|&class| self.requests[class as usize] > 0)
            .map(|class| (class.label().to_string(), counters[class as usize]))
            .collect()
    }

    /// Total storage requests.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// Total blocks requested from storage.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.iter().sum()
    }

    /// Requests of one class.
    pub fn requests(&self, class: RequestClass) -> u64 {
        self.requests[class as usize]
    }

    /// Blocks of one class.
    pub fn blocks(&self, class: RequestClass) -> u64 {
        self.blocks[class as usize]
    }

    /// Fraction of requests belonging to `class` (0 when nothing was issued).
    pub fn request_fraction(&self, class: RequestClass) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.requests(class) as f64 / total as f64
        }
    }

    /// Fraction of blocks belonging to `class` (0 when nothing was issued).
    pub fn block_fraction(&self, class: RequestClass) -> f64 {
        let total = self.total_blocks();
        if total == 0 {
            0.0
        } else {
            self.blocks(class) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fractions() {
        let mut s = QueryStats::new("Q1");
        s.record_request(RequestClass::Sequential, 64);
        s.record_request(RequestClass::Sequential, 64);
        s.record_request(RequestClass::Random, 1);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.total_blocks(), 129);
        assert_eq!(s.requests(RequestClass::Sequential), 2);
        assert_eq!(s.blocks(RequestClass::Random), 1);
        assert!((s.request_fraction(RequestClass::Random) - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.block_fraction(RequestClass::Sequential) - 128.0 / 129.0).abs() < 1e-9);
        assert_eq!(s.request_fraction(RequestClass::Update), 0.0);
    }

    #[test]
    fn class_maps_hold_exactly_the_classes_seen() {
        let mut s = QueryStats::new("spill");
        s.record_request(RequestClass::TemporaryData, 32);
        s.record_request(RequestClass::TemporaryData, 8);
        s.record_request(RequestClass::Update, 0);
        let requests = BTreeMap::from([("temporary".to_string(), 2), ("update".to_string(), 1)]);
        let blocks = BTreeMap::from([("temporary".to_string(), 40), ("update".to_string(), 0)]);
        assert_eq!(s.requests_by_class(), requests);
        assert_eq!(s.blocks_by_class(), blocks);
        assert!(QueryStats::new("empty").requests_by_class().is_empty());
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = QueryStats::new("empty");
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.request_fraction(RequestClass::Sequential), 0.0);
        assert_eq!(s.block_fraction(RequestClass::Sequential), 0.0);
    }
}
