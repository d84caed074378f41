//! Per-device statistics.

use crate::clock::nanos;
use crate::request::{Direction, IoRequest};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters maintained by each simulated device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Number of read requests served.
    pub read_requests: u64,
    /// Number of write requests served.
    pub write_requests: u64,
    /// Blocks read.
    pub blocks_read: u64,
    /// Blocks written.
    pub blocks_written: u64,
    /// Requests served on the sequential path.
    pub sequential_requests: u64,
    /// Requests served on the random path.
    pub random_requests: u64,
    /// Total simulated service time spent in this device.
    pub busy_time: Duration,
}

impl DeviceStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total requests served.
    pub fn total_requests(&self) -> u64 {
        self.read_requests + self.write_requests
    }

    /// Total blocks transferred.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Records `times` served copies of `req`, each taking `service`. A
    /// ledger that is not the device's own (the cache engine keeps one per
    /// shard, written under the shard lock) is charged through here.
    #[inline]
    pub fn record(&mut self, req: &IoRequest, service: Duration, times: u64) {
        match req.direction {
            Direction::Read => {
                self.read_requests += times;
                self.blocks_read += req.blocks() * times;
            }
            Direction::Write => {
                self.write_requests += times;
                self.blocks_written += req.blocks() * times;
            }
        }
        if req.sequential {
            self.sequential_requests += times;
        } else {
            self.random_requests += times;
        }
        self.busy_time += match times {
            // Every served request comes through here: no conversion.
            1 => service,
            n => Duration::from_nanos(nanos(service).saturating_mul(n)),
        };
    }

    /// Merges another stats snapshot into this one.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.read_requests += other.read_requests;
        self.write_requests += other.write_requests;
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.sequential_requests += other.sequential_requests;
        self.random_requests += other.random_requests;
        self.busy_time += other.busy_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = DeviceStats {
            read_requests: 2,
            write_requests: 1,
            blocks_read: 20,
            blocks_written: 5,
            sequential_requests: 1,
            random_requests: 2,
            busy_time: Duration::from_millis(10),
        };
        let b = DeviceStats {
            read_requests: 3,
            write_requests: 0,
            blocks_read: 6,
            blocks_written: 0,
            sequential_requests: 3,
            random_requests: 0,
            busy_time: Duration::from_millis(5),
        };
        a.merge(&b);
        assert_eq!(a.total_requests(), 6);
        assert_eq!(a.total_blocks(), 31);
        assert_eq!(a.busy_time, Duration::from_millis(15));
    }
}
