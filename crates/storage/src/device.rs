//! The device abstraction shared by the HDD and SSD models.
//!
//! A device computes a *service time* for each request from its performance
//! model, advances the shared [`SimClock`](crate::clock::SimClock) by that
//! amount, and updates its counters. Devices do not store data contents —
//! the experiments only depend on timing and on block identity, which the
//! cache layer tracks.
//!
//! Devices are served through `&self`: service accounting is interior-
//! mutable so one device instance can be shared by the concurrent shards of
//! a storage system (and by the threaded workload driver) without an
//! exclusive borrow.

use crate::request::IoRequest;
use crate::stats::DeviceStats;
use std::time::Duration;

/// Longest transfer, in blocks, that the device models price from a table
/// built at construction; only longer transfers evaluate the f64 model.
/// It is the engine executor's default `seq_blocks_per_request`, the size
/// scans and temporary-data streams are cut into, so every request the
/// executor issues by default is priced from the table.
pub const PRICE_TABLE_BLOCKS: u64 = 64;

/// Rows of a device's price table: one per transfer of
/// 0..=[`PRICE_TABLE_BLOCKS`] blocks.
pub(crate) const PRICE_TABLE_ROWS: usize = PRICE_TABLE_BLOCKS as usize + 1;

/// Which kind of device a model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Hard disk drive (second level of the hybrid hierarchy).
    Hdd,
    /// Solid-state drive (first level / cache device).
    Ssd,
}

/// A simulated block device.
pub trait StorageDevice: Send + Sync {
    /// The kind of device.
    fn kind(&self) -> DeviceKind;

    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Computes the service time of `req` *without* advancing the clock or
    /// updating statistics. Pure function of the model and internal head
    /// state; used by tests and by the cache to reason about costs.
    fn service_time(&self, req: &IoRequest) -> Duration;

    /// Serves the request: computes the service time, advances the shared
    /// clock, updates statistics, and returns the service time.
    fn serve(&self, req: &IoRequest) -> Duration;

    /// Serves a queue of requests, returning the total service time.
    ///
    /// The default implementation serves each request individually. Device
    /// models with a command queue override this to merge physically
    /// adjacent same-direction requests into one transfer — the per-request
    /// setup cost (command overhead, and positioning on the HDD) is then
    /// paid once per merged transfer while the per-block transfer cost is
    /// retained. How many requests may merge into one transfer is bounded
    /// by the device's queue-depth parameter.
    fn serve_batch(&self, reqs: &[IoRequest]) -> Duration {
        reqs.iter().map(|r| self.serve(r)).sum()
    }

    /// Snapshot of the device statistics.
    fn stats(&self) -> DeviceStats;

    /// Clears statistics (does not reset mechanical state).
    fn reset_stats(&self);

    /// Simulated time this device has spent idle: the shared clock's
    /// current reading minus the device's accumulated busy time. In the
    /// serialized simulation the clock only advances while *some* device
    /// serves, so a device's idle time grows exactly while another device
    /// is busy — the window background work (tier migration) steals.
    /// Note that [`StorageDevice::reset_stats`] clears busy time but not
    /// the clock, so idle time jumps forward across a reset.
    fn idle_time(&self) -> Duration;
}

/// Coalesces a queue of requests into merged transfers and prices each via
/// `charge`, returning the total service time. The caller advances the
/// clock by that total, once.
///
/// Consecutive requests merge while they have the same direction and
/// sequential flag, are physically adjacent (`prev.range.end() ==
/// next.range.start`) and fewer than `queue_depth` original requests have
/// been folded into the pending transfer. `queue_depth <= 1` disables
/// merging, making the batch equivalent to serving each request alone.
pub(crate) fn serve_merged(
    reqs: &[IoRequest],
    queue_depth: usize,
    mut charge: impl FnMut(&IoRequest) -> Duration,
) -> Duration {
    let mut total = Duration::ZERO;
    let mut pending: Option<(IoRequest, usize)> = None;
    for req in reqs {
        match pending.as_mut() {
            Some((merged, count))
                if queue_depth > 1
                    && *count < queue_depth
                    && merged.direction == req.direction
                    && merged.sequential == req.sequential
                    && merged.range.end() == req.range.start =>
            {
                merged.range.len += req.range.len;
                *count += 1;
            }
            _ => {
                if let Some((merged, _)) = pending.take() {
                    total += charge(&merged);
                }
                pending = Some((*req, 1));
            }
        }
    }
    if let Some((merged, _)) = pending.take() {
        total += charge(&merged);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockRange;
    use crate::request::IoRequest;

    #[test]
    fn record_updates_counters() {
        let mut s = DeviceStats::new();
        s.record(
            &IoRequest::read(BlockRange::new(0u64, 4), true),
            Duration::from_micros(100),
            1,
        );
        s.record(
            &IoRequest::write(BlockRange::new(4u64, 2), false),
            Duration::from_micros(50),
            3,
        );
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.write_requests, 3);
        assert_eq!(s.blocks_read, 4);
        assert_eq!(s.blocks_written, 6);
        assert_eq!(s.sequential_requests, 1);
        assert_eq!(s.random_requests, 3);
        assert_eq!(s.busy_time, Duration::from_micros(250));
    }
}
