//! Single-device baselines: HDD-only (the paper's baseline case) and
//! SSD-only (the paper's ideal case).
//!
//! Both ignore the DSS classification entirely — they are legacy block
//! devices, and one [`Passthrough`] over either device model serves them.
//! Their statistics are a [`CacheStats`] counter block behind a mutex so
//! the `&self` [`StorageSystem`] interface can be served to concurrent
//! callers; the devices themselves are already interior-mutable.

use crate::stats::CacheStats;
use crate::system::StorageSystem;
use hstorage_storage::{ClassifiedRequest, DeviceKind, SimClock, StorageDevice, TrimCommand};
use parking_lot::Mutex;
use std::time::Duration;

/// Every request is served by one device: "HDD-only" over a disk,
/// "SSD-only" over an SSD.
pub struct Passthrough<D> {
    clock: SimClock,
    device: D,
    stats: Mutex<CacheStats>,
}

impl<D: StorageDevice> Passthrough<D> {
    /// Serves every request from `device`, which must share `clock`.
    pub fn new(device: D, clock: SimClock) -> Self {
        Passthrough {
            clock,
            device,
            stats: Mutex::new(CacheStats::new()),
        }
    }
}

impl<D: StorageDevice> StorageSystem for Passthrough<D> {
    fn name(&self) -> &str {
        match self.device.kind() {
            DeviceKind::Hdd => "HDD-only",
            DeviceKind::Ssd => "SSD-only",
        }
    }

    fn submit(&self, req: ClassifiedRequest) {
        self.stats.lock().record_class(req.class, req.blocks(), 0);
        self.device.serve(&req.io);
    }

    fn trim(&self, _cmd: &TrimCommand) {}

    fn stats(&self) -> CacheStats {
        let mut s = self.stats.lock().clone();
        let ledger = Some(self.device.stats());
        match self.device.kind() {
            DeviceKind::Hdd => s.hdd = ledger,
            DeviceKind::Ssd => s.ssd = ledger,
        }
        s
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn reset_stats(&self) {
        *self.stats.lock() = CacheStats::new();
        self.device.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{StorageConfig, StorageConfigKind};
    use crate::system::StorageSystem;
    use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};

    fn build(kind: StorageConfigKind) -> Box<dyn StorageSystem> {
        StorageConfig::new(kind, 0).build()
    }

    fn rand_read(start: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    fn seq_read(start: u64, len: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(start, len), true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        )
    }

    #[test]
    fn ssd_only_much_faster_for_random() {
        let hdd = build(StorageConfigKind::HddOnly);
        let ssd = build(StorageConfigKind::SsdOnly);
        for i in 0..200u64 {
            hdd.submit(rand_read(i * 10_000));
            ssd.submit(rand_read(i * 10_000));
        }
        assert!(hdd.now() > ssd.now() * 20);
    }

    #[test]
    fn comparable_for_sequential() {
        let hdd = build(StorageConfigKind::HddOnly);
        let ssd = build(StorageConfigKind::SsdOnly);
        for i in 0..100u64 {
            hdd.submit(seq_read(i * 128, 128));
            ssd.submit(seq_read(i * 128, 128));
        }
        let ratio = hdd.now().as_secs_f64() / ssd.now().as_secs_f64();
        assert!(ratio < 3.0, "HDD/SSD sequential ratio = {ratio}");
    }

    #[test]
    fn stats_record_classes_without_hits() {
        for kind in [StorageConfigKind::HddOnly, StorageConfigKind::SsdOnly] {
            let sys = build(kind);
            sys.submit(seq_read(0, 64));
            sys.submit(rand_read(1_000));
            let s = sys.stats();
            assert_eq!(s.class(RequestClass::Sequential).accessed_blocks, 64);
            assert_eq!(s.class(RequestClass::Random).accessed_blocks, 1);
            assert_eq!(s.totals().cache_hits, 0);
            assert_eq!(sys.resident_blocks(), 0);
            // The one device's ledger is filed under its own tier.
            let (served, absent) = match kind {
                StorageConfigKind::HddOnly => (s.hdd, s.ssd),
                _ => (s.ssd, s.hdd),
            };
            assert_eq!(served.map(|d| d.blocks_read), Some(65), "{kind}");
            assert_eq!(absent, None, "{kind}");
        }
    }
}
