//! Solid-state drive model.
//!
//! The cache device in the paper is an Intel 320 Series 300 GB SSD, whose
//! key specification is given in Table 2:
//!
//! | Sequential Read / Write | Random Read / Write |
//! |---|---|
//! | 270 MB/s / 205 MB/s | 39.5 K IOPS / 23 K IOPS |
//!
//! The model charges sequential requests at the sequential bandwidth and
//! random requests per block at the rated IOPS (Table 2 IOPS are 4 KiB;
//! we conservatively charge one IO per 8 KiB database block).
//!
//! The model is a pure function of the parameters and the transfer's
//! size, direction and sequential flag, so every transfer of up to
//! [`PRICE_TABLE_BLOCKS`] blocks is priced once, at construction; only
//! longer transfers evaluate the f64 formula.

use crate::block::{BlockRange, BLOCK_SIZE};
use crate::clock::SimClock;
use crate::device::{
    serve_merged, DeviceKind, StorageDevice, PRICE_TABLE_BLOCKS, PRICE_TABLE_ROWS,
};
use crate::request::{Direction, IoRequest};
use crate::stats::DeviceStats;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tunable parameters of the SSD service-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdParameters {
    /// Capacity in blocks.
    pub capacity_blocks: u64,
    /// Sequential read bandwidth, bytes/second.
    pub sequential_read_bandwidth: f64,
    /// Sequential write bandwidth, bytes/second.
    pub sequential_write_bandwidth: f64,
    /// Random read throughput in IO operations per second.
    pub random_read_iops: f64,
    /// Random write throughput in IO operations per second.
    pub random_write_iops: f64,
    /// Fixed per-request command overhead.
    pub command_overhead: Duration,
    /// Maximum number of adjacent queued requests merged into one transfer
    /// by [`StorageDevice::serve_batch`]. `1` (the default) disables
    /// merging, so batched service is identical to per-request service.
    pub queue_depth: usize,
}

impl SsdParameters {
    /// The Intel 320 Series 300 GB specification from Table 2 of the paper.
    pub fn intel_320() -> Self {
        SsdParameters {
            capacity_blocks: (300u64 * 1_000_000_000) / BLOCK_SIZE as u64,
            sequential_read_bandwidth: 270.0e6,
            sequential_write_bandwidth: 205.0e6,
            random_read_iops: 39_500.0,
            random_write_iops: 23_000.0,
            command_overhead: Duration::from_micros(20),
            queue_depth: 1,
        }
    }

    /// Overrides the batched-service queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }
}

impl Default for SsdParameters {
    fn default() -> Self {
        Self::intel_320()
    }
}

/// A simulated solid-state drive. Statistics are interior-mutable so the
/// device can be shared behind `&self` by concurrent callers.
#[derive(Debug)]
pub struct SsdDevice {
    params: SsdParameters,
    clock: SimClock,
    /// `prices[1]`, kept inline and checked first: nearly every cache hit
    /// is one of these four transfers, and this way its price costs no
    /// load through the table's pointer.
    single_block: [Duration; 4],
    /// [`Self::model_time`] of every transfer of 0..=[`PRICE_TABLE_BLOCKS`]
    /// blocks, by length and then [`memo_index`], so a scan or spill
    /// request never evaluates the f64 model.
    prices: Box<[[Duration; 4]; PRICE_TABLE_ROWS]>,
    stats: Mutex<DeviceStats>,
}

/// Slot of a transfer's direction and sequential flag in a row of
/// [`SsdDevice::prices`].
fn memo_index(direction: Direction, sequential: bool) -> usize {
    2 * usize::from(direction.is_write()) + usize::from(sequential)
}

impl SsdDevice {
    /// Creates an SSD with the given parameters sharing `clock`.
    pub fn new(params: SsdParameters, clock: SimClock) -> Self {
        let mut prices = Box::new([[Duration::ZERO; 4]; PRICE_TABLE_ROWS]);
        for (blocks, row) in (0u64..).zip(prices.iter_mut()) {
            for direction in [Direction::Read, Direction::Write] {
                for sequential in [false, true] {
                    let transfer = IoRequest {
                        range: BlockRange::new(0u64, blocks),
                        direction,
                        sequential,
                    };
                    row[memo_index(direction, sequential)] = Self::model_time(&params, &transfer);
                }
            }
        }
        SsdDevice {
            params,
            clock,
            single_block: prices[1],
            prices,
            stats: Mutex::new(DeviceStats::new()),
        }
    }

    /// Creates an SSD with the Intel 320 parameters of Table 2.
    pub fn intel_320(clock: SimClock) -> Self {
        Self::new(SsdParameters::intel_320(), clock)
    }

    /// The model parameters.
    pub fn params(&self) -> &SsdParameters {
        &self.params
    }

    /// The service-time model itself: sequential requests at the
    /// sequential bandwidth, random requests per block at the rated IOPS,
    /// plus the command overhead.
    fn model_time(params: &SsdParameters, req: &IoRequest) -> Duration {
        let t = if req.sequential {
            let bw = match req.direction {
                Direction::Read => params.sequential_read_bandwidth,
                Direction::Write => params.sequential_write_bandwidth,
            };
            Duration::from_secs_f64(req.bytes() as f64 / bw)
        } else {
            let iops = match req.direction {
                Direction::Read => params.random_read_iops,
                Direction::Write => params.random_write_iops,
            };
            Duration::from_secs_f64(req.blocks() as f64 / iops)
        };
        t + params.command_overhead
    }
}

impl StorageDevice for SsdDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Ssd
    }

    fn capacity_blocks(&self) -> u64 {
        self.params.capacity_blocks
    }

    #[inline]
    fn service_time(&self, req: &IoRequest) -> Duration {
        let blocks = req.blocks();
        if blocks == 1 {
            self.single_block[memo_index(req.direction, req.sequential)]
        } else if blocks <= PRICE_TABLE_BLOCKS {
            self.prices[blocks as usize][memo_index(req.direction, req.sequential)]
        } else {
            Self::model_time(&self.params, req)
        }
    }

    fn serve(&self, req: &IoRequest) -> Duration {
        let t = self.service_time(req);
        self.clock.advance(t);
        self.stats.lock().record(req, t, 1);
        t
    }

    fn serve_batch(&self, reqs: &[IoRequest]) -> Duration {
        // Service times need no lock: the batch is priced into a local
        // ledger, which the device's own then absorbs in one acquisition.
        let mut batch = DeviceStats::new();
        let total = serve_merged(reqs, self.params.queue_depth, |r| {
            let t = self.service_time(r);
            batch.record(r, t, 1);
            t
        });
        self.clock.advance(total);
        self.stats.lock().merge(&batch);
        total
    }

    fn stats(&self) -> DeviceStats {
        self.stats.lock().clone()
    }

    fn reset_stats(&self) {
        *self.stats.lock() = DeviceStats::new();
    }

    fn idle_time(&self) -> Duration {
        self.clock.now().saturating_sub(self.stats.lock().busy_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddDevice;

    fn ssd() -> SsdDevice {
        SsdDevice::intel_320(SimClock::new())
    }

    #[test]
    fn random_read_latency_matches_iops() {
        let d = ssd();
        let t = d.service_time(&IoRequest::read(BlockRange::new(0u64, 1), false));
        let expected = Duration::from_secs_f64(1.0 / 39_500.0);
        assert!(t >= expected);
        assert!(t < expected + Duration::from_micros(100));
    }

    #[test]
    fn random_writes_slower_than_random_reads() {
        let d = ssd();
        let r = d.service_time(&IoRequest::read(BlockRange::new(0u64, 64), false));
        let w = d.service_time(&IoRequest::write(BlockRange::new(0u64, 64), false));
        assert!(w > r);
    }

    #[test]
    fn sequential_read_faster_than_sequential_write() {
        let d = ssd();
        let blocks = (64 << 20) / BLOCK_SIZE as u64;
        let r = d.service_time(&IoRequest::read(BlockRange::new(0u64, blocks), true));
        let w = d.service_time(&IoRequest::write(BlockRange::new(0u64, blocks), true));
        assert!(r < w);
    }

    #[test]
    fn ssd_dominates_hdd_for_random_but_not_sequential() {
        // This is the central device-level premise of the paper (Section
        // 4.2.1): HDD sequential performance is comparable to the SSD, but
        // random performance is far worse.
        let clock = SimClock::new();
        let ssd = SsdDevice::intel_320(clock.clone());
        let hdd = HddDevice::cheetah(clock);

        let seq = IoRequest::read(BlockRange::new(0u64, (8 << 20) / BLOCK_SIZE as u64), true);
        let ssd_seq = ssd.service_time(&seq);
        let hdd_seq = hdd.service_time(&seq);
        assert!(hdd_seq < ssd_seq * 4, "HDD sequential should be comparable");

        let rand = IoRequest::read(BlockRange::new(123_456u64, 1), false);
        let ssd_rand = ssd.service_time(&rand);
        let hdd_rand = hdd.service_time(&rand);
        assert!(
            hdd_rand > ssd_rand * 20,
            "HDD random should be far slower: {hdd_rand:?} vs {ssd_rand:?}"
        );
    }

    #[test]
    fn serve_accumulates_stats_and_clock() {
        let clock = SimClock::new();
        let d = SsdDevice::intel_320(clock.clone());
        d.serve(&IoRequest::read(BlockRange::new(0u64, 2), false));
        d.serve(&IoRequest::write(BlockRange::new(2u64, 2), true));
        let s = d.stats();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.total_blocks(), 4);
        assert_eq!(clock.now(), s.busy_time);
    }

    #[test]
    fn batched_adjacent_requests_merge_within_queue_depth() {
        let d = SsdDevice::new(
            SsdParameters::intel_320().with_queue_depth(4),
            SimClock::new(),
        );
        let reqs: Vec<IoRequest> = (0..8u64)
            .map(|i| IoRequest::read(BlockRange::new(i, 1), false))
            .collect();
        let t = d.serve_batch(&reqs);
        let s = d.stats();
        // Eight adjacent single-block reads at queue depth 4 become two
        // 4-block transfers: per-block IOPS cost retained, command overhead
        // paid twice instead of eight times.
        assert_eq!(s.read_requests, 2);
        assert_eq!(s.blocks_read, 8);
        let expected = Duration::from_secs_f64(8.0 / 39_500.0) + 2 * Duration::from_micros(20);
        let delta = if t > expected {
            t - expected
        } else {
            expected - t
        };
        assert!(delta < Duration::from_micros(1), "{t:?} vs {expected:?}");
    }

    #[test]
    fn queue_depth_one_batch_is_identical_to_individual_serves() {
        let batched = ssd();
        let single = ssd();
        let reqs: Vec<IoRequest> = (0..6u64)
            .map(|i| IoRequest::read(BlockRange::new(i, 1), false))
            .collect();
        let t_batch = batched.serve_batch(&reqs);
        let t_single: Duration = reqs.iter().map(|r| single.serve(r)).sum();
        assert_eq!(t_batch, t_single);
        assert_eq!(batched.stats(), single.stats());
    }

    #[test]
    fn non_adjacent_and_mixed_direction_requests_do_not_merge() {
        let d = SsdDevice::new(
            SsdParameters::intel_320().with_queue_depth(32),
            SimClock::new(),
        );
        d.serve_batch(&[
            IoRequest::read(BlockRange::new(0u64, 1), false),
            IoRequest::read(BlockRange::new(100u64, 1), false), // gap
            IoRequest::write(BlockRange::new(101u64, 1), false), // direction flip
        ]);
        let s = d.stats();
        assert_eq!(s.read_requests, 2);
        assert_eq!(s.write_requests, 1);
    }

    #[test]
    fn shared_device_serves_concurrently() {
        let clock = SimClock::new();
        let d = SsdDevice::intel_320(clock);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = &d;
                s.spawn(move || {
                    for i in 0..100u64 {
                        d.serve(&IoRequest::read(BlockRange::new(t * 1_000 + i, 1), false));
                    }
                });
            }
        });
        let s = d.stats();
        assert_eq!(s.read_requests, 400);
        assert_eq!(s.blocks_read, 400);
    }
}
