//! Hard disk drive model.
//!
//! The paper's second storage level is a Seagate Cheetah 15K.7 RPM 300 GB
//! enterprise disk. We model it with the classic decomposition of a disk
//! access: positioning time (average seek + rotational latency) for random
//! accesses, plus media transfer at the sequential bandwidth. Sequential
//! streams skip the positioning cost except on the first request of the
//! stream (tracked with a simple last-LBA heuristic).
//!
//! The headline characteristics this yields — ~150 MB/s sequential and a
//! few hundred IOPS random — are what make the paper's observations hold:
//! an SSD is barely better than the disk for sequential scans but 1–2
//! orders of magnitude better for random accesses.
//!
//! The model depends only on the parameters and the transfer's size, so
//! the media transfer of every transfer up to [`PRICE_TABLE_BLOCKS`]
//! blocks is evaluated once, at construction; only longer transfers
//! evaluate the f64 formula.

use crate::block::{BlockAddr, BlockRange, BLOCK_SIZE};
use crate::clock::SimClock;
use crate::device::{
    serve_merged, DeviceKind, StorageDevice, PRICE_TABLE_BLOCKS, PRICE_TABLE_ROWS,
};
use crate::request::IoRequest;
use crate::stats::DeviceStats;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tunable parameters of the HDD service-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HddParameters {
    /// Capacity in blocks.
    pub capacity_blocks: u64,
    /// Sustained sequential bandwidth in bytes/second (reads and writes).
    pub sequential_bandwidth: f64,
    /// Average seek time.
    pub avg_seek: Duration,
    /// Average rotational latency (half a revolution).
    pub avg_rotational_latency: Duration,
    /// Fixed per-request controller/command overhead.
    pub command_overhead: Duration,
    /// Maximum number of adjacent queued requests merged into one transfer
    /// by [`StorageDevice::serve_batch`]. Merging pays the positioning and
    /// command cost once per transfer instead of once per request. `1` (the
    /// default) disables merging.
    pub queue_depth: usize,
}

impl HddParameters {
    /// Seagate Cheetah 15K.7-like parameters (the drive used in the paper).
    ///
    /// 15 000 RPM ⇒ 2 ms average rotational latency; ~3.4 ms average seek;
    /// ~150 MB/s sustained transfer; 300 GB capacity.
    pub fn cheetah_15k7() -> Self {
        HddParameters {
            capacity_blocks: (300u64 * 1_000_000_000) / BLOCK_SIZE as u64,
            sequential_bandwidth: 150.0e6,
            avg_seek: Duration::from_micros(3_400),
            avg_rotational_latency: Duration::from_micros(2_000),
            command_overhead: Duration::from_micros(50),
            queue_depth: 1,
        }
    }

    /// Overrides the batched-service queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }
}

impl Default for HddParameters {
    fn default() -> Self {
        Self::cheetah_15k7()
    }
}

/// Mechanical state and counters, updated together under one lock so a
/// served request atomically records its traffic and moves the head.
#[derive(Debug, Default)]
struct HddState {
    stats: DeviceStats,
    /// Block address immediately after the last request served, used to
    /// detect physically contiguous accesses that avoid repositioning.
    next_contiguous: Option<BlockAddr>,
}

impl HddState {
    /// Prices `req` at the current head position, records it and moves
    /// the head past it.
    #[inline]
    fn charge(&mut self, device: &HddDevice, req: &IoRequest) -> Duration {
        let t = device.service_time_at(self.next_contiguous, req);
        self.next_contiguous = Some(req.range.end());
        self.stats.record(req, t, 1);
        t
    }
}

/// A simulated hard disk drive. Service accounting and head position are
/// interior-mutable so the device can be shared behind `&self`.
#[derive(Debug)]
pub struct HddDevice {
    params: HddParameters,
    clock: SimClock,
    /// `transfers[1]`, kept inline and checked first: nearly every request
    /// the cache sends the disk moves one block, and this way its price
    /// costs no load through the table's pointer.
    single_block_transfer: Duration,
    /// [`Self::model_transfer`] of every transfer of 0..=
    /// [`PRICE_TABLE_BLOCKS`] blocks, by length, so a scan or spill request
    /// never evaluates the f64 model.
    transfers: Box<[Duration; PRICE_TABLE_ROWS]>,
    state: Mutex<HddState>,
}

impl HddDevice {
    /// Creates an HDD with the given parameters sharing `clock`.
    pub fn new(params: HddParameters, clock: SimClock) -> Self {
        let transfers: Box<[Duration; PRICE_TABLE_ROWS]> =
            Box::new(std::array::from_fn(|blocks| {
                Self::model_transfer(&params, BlockRange::new(0u64, blocks as u64).bytes())
            }));
        HddDevice {
            params,
            clock,
            single_block_transfer: transfers[1],
            transfers,
            state: Mutex::new(HddState::default()),
        }
    }

    /// Creates an HDD with paper-like parameters.
    pub fn cheetah(clock: SimClock) -> Self {
        Self::new(HddParameters::cheetah_15k7(), clock)
    }

    /// The model parameters.
    pub fn params(&self) -> &HddParameters {
        &self.params
    }

    /// Media transfer of `bytes` at the sequential bandwidth: the model
    /// itself.
    fn model_transfer(params: &HddParameters, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / params.sequential_bandwidth)
    }

    #[inline]
    fn transfer_time(&self, req: &IoRequest) -> Duration {
        let blocks = req.blocks();
        if blocks == 1 {
            self.single_block_transfer
        } else if blocks <= PRICE_TABLE_BLOCKS {
            self.transfers[blocks as usize]
        } else {
            Self::model_transfer(&self.params, req.bytes())
        }
    }

    #[inline]
    fn positioning_time(&self) -> Duration {
        self.params.avg_seek + self.params.avg_rotational_latency
    }

    /// Prices `req` at the current head position, records it and moves
    /// the head past it — everything [`StorageDevice::serve`] does except
    /// advancing the clock, which the caller does once for all the device
    /// time a request spent (`serve` is this plus that add, so there is
    /// one pricing path).
    #[inline]
    pub fn charge(&self, req: &IoRequest) -> Duration {
        self.state.lock().charge(self, req)
    }

    /// Service time given the current head position.
    #[inline]
    fn service_time_at(&self, next_contiguous: Option<BlockAddr>, req: &IoRequest) -> Duration {
        let contiguous = next_contiguous == Some(req.range.start);
        let positioned = req.sequential && contiguous;
        let mut t = self.params.command_overhead + self.transfer_time(req);
        if !positioned {
            t += self.positioning_time();
        }
        t
    }
}

impl StorageDevice for HddDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Hdd
    }

    fn capacity_blocks(&self) -> u64 {
        self.params.capacity_blocks
    }

    fn service_time(&self, req: &IoRequest) -> Duration {
        let next = self.state.lock().next_contiguous;
        self.service_time_at(next, req)
    }

    fn serve(&self, req: &IoRequest) -> Duration {
        let t = self.charge(req);
        self.clock.advance(t);
        t
    }

    fn serve_batch(&self, reqs: &[IoRequest]) -> Duration {
        // One acquisition for the whole queue: the head moves and the
        // ledger grows transfer by transfer, as if each were served alone.
        let mut state = self.state.lock();
        let total = serve_merged(reqs, self.params.queue_depth, |r| state.charge(self, r));
        drop(state);
        self.clock.advance(total);
        total
    }

    fn stats(&self) -> DeviceStats {
        self.state.lock().stats.clone()
    }

    fn reset_stats(&self) {
        self.state.lock().stats = DeviceStats::new();
    }

    fn idle_time(&self) -> Duration {
        self.clock
            .now()
            .saturating_sub(self.state.lock().stats.busy_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockRange;

    fn hdd() -> HddDevice {
        HddDevice::cheetah(SimClock::new())
    }

    #[test]
    fn random_access_pays_positioning() {
        let d = hdd();
        let seq = IoRequest::read(BlockRange::new(0u64, 1), true);
        let rand = IoRequest::read(BlockRange::new(1_000_000u64, 1), false);
        // Prime head position so the sequential request is contiguous.
        d.serve(&IoRequest::read(BlockRange::new(0u64, 0), true));
        let t_seq = d.service_time(&seq);
        let t_rand = d.service_time(&rand);
        assert!(t_rand > t_seq * 5, "random {t_rand:?} vs seq {t_seq:?}");
    }

    #[test]
    fn sequential_stream_runs_at_bandwidth() {
        let d = hdd();
        // 128 MiB sequential read as 1 MiB requests.
        let blocks_per_req = (1 << 20) / BLOCK_SIZE as u64;
        let mut addr = 0u64;
        for _ in 0..128 {
            d.serve(&IoRequest::read(
                BlockRange::new(addr, blocks_per_req),
                true,
            ));
            addr += blocks_per_req;
        }
        let secs = d.stats().busy_time.as_secs_f64();
        let bytes = 128.0 * (1 << 20) as f64;
        let bandwidth = bytes / secs;
        // Should be within ~20% of the configured sequential bandwidth
        // (one positioning event plus per-request overheads).
        assert!(
            bandwidth > 0.8 * d.params().sequential_bandwidth,
            "achieved {bandwidth} B/s"
        );
        assert!(bandwidth <= d.params().sequential_bandwidth);
    }

    #[test]
    fn random_iops_in_expected_range() {
        let d = hdd();
        for i in 0..100u64 {
            d.serve(&IoRequest::read(BlockRange::new(i * 100_000, 1), false));
        }
        let iops = 100.0 / d.stats().busy_time.as_secs_f64();
        // 15K RPM disks do roughly 150-250 random IOPS.
        assert!(iops > 100.0 && iops < 300.0, "iops = {iops}");
    }

    #[test]
    fn batched_adjacent_reads_pay_positioning_once() {
        let merged = HddDevice::new(
            HddParameters::cheetah_15k7().with_queue_depth(8),
            SimClock::new(),
        );
        let unmerged = hdd();
        let reqs: Vec<IoRequest> = (0..8u64)
            .map(|i| IoRequest::read(BlockRange::new(1_000 + i, 1), false))
            .collect();
        let t_merged = merged.serve_batch(&reqs);
        let t_unmerged = unmerged.serve_batch(&reqs);
        // One positioning + one command overhead instead of eight of each;
        // the media transfer time (8 blocks) is identical.
        assert_eq!(merged.stats().read_requests, 1);
        assert_eq!(merged.stats().blocks_read, 8);
        assert_eq!(unmerged.stats().read_requests, 8);
        let saved = 7
            * (merged.params().avg_seek
                + merged.params().avg_rotational_latency
                + merged.params().command_overhead);
        // Transfer time is rounded to nanoseconds per serve, so allow a
        // sub-microsecond slack between 8 small serves and 1 large one.
        let expected = t_merged + saved;
        let delta = if t_unmerged > expected {
            t_unmerged - expected
        } else {
            expected - t_unmerged
        };
        assert!(
            delta < Duration::from_micros(1),
            "{t_unmerged:?} vs {expected:?}"
        );
    }

    #[test]
    fn serve_advances_shared_clock() {
        let clock = SimClock::new();
        let d = HddDevice::cheetah(clock.clone());
        d.serve(&IoRequest::read(BlockRange::new(0u64, 16), false));
        assert!(clock.now() > Duration::ZERO);
        assert_eq!(clock.now(), d.stats().busy_time);
    }

    #[test]
    fn charge_is_serve_without_the_clock_add() {
        let clock = SimClock::new();
        let (charged, served) = (HddDevice::cheetah(clock.clone()), hdd());
        let reqs = [
            IoRequest::read(BlockRange::new(0u64, 8), true),
            IoRequest::read(BlockRange::new(8u64, 8), true),
            IoRequest::write(BlockRange::new(500u64, 1), false),
        ];
        for req in &reqs {
            assert_eq!(charged.charge(req), served.serve(req));
        }
        assert_eq!(charged.stats(), served.stats(), "same ledger, same head");
        assert_eq!(clock.now(), Duration::ZERO, "the caller advances the clock");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let d = hdd();
        d.serve(&IoRequest::write(BlockRange::new(0u64, 4), false));
        assert_eq!(d.stats().write_requests, 1);
        d.reset_stats();
        assert_eq!(d.stats(), DeviceStats::new());
    }
}
