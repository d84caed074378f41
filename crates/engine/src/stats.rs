//! Per-query execution statistics.

use hstorage_storage::RequestClass;
use serde::{Deserialize, Serialize};
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
    /// [`Self::requests`] is the external form.
    requests: [u64; CLASSES],
    /// Blocks requested from storage, indexed like `requests`;
    /// [`Self::blocks`] is the external form.
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
        // A zero-block request counts as a request of its class, not a block.
        s.record_request(RequestClass::Update, 0);
        for class in RequestClass::all() {
            let seen = match class {
                RequestClass::TemporaryData => (2, 40),
                RequestClass::Update => (1, 0),
                _ => (0, 0),
            };
            assert_eq!((s.requests(class), s.blocks(class)), seen, "{class:?}");
        }
        let empty = QueryStats::new("empty");
        assert!(RequestClass::all()
            .into_iter()
            .all(|c| empty.requests(c) == 0));
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = QueryStats::new("empty");
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.request_fraction(RequestClass::Sequential), 0.0);
        assert_eq!(s.block_fraction(RequestClass::Sequential), 0.0);
    }
}
