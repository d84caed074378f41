//! The engine-side tier-migration driver.
//!
//! The cache's migration engine ([`hstorage_cache::migration`]) is purely
//! reactive: it runs a round only when
//! [`StorageSystem::migrate_idle`] is called and enough idle device time
//! has accrued. Something on the DBMS side has to supply those calls.
//! [`QueryExecutor::run_query`](crate::QueryExecutor::run_query) pulses
//! the storage system at every query boundary — the executor's natural
//! idle points — which covers the query service for free.
//! [`MigrationDriver`] is the explicit alternative for callers that drive
//! the storage system directly (experiments, benchmarks, custom loops) and
//! want to pulse on their own cadence while keeping count.

use hstorage_cache::{MigrationStats, StorageSystem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pulses a shared storage system's migration engine and counts the
/// pulses. Cheap to clone-share across threads (the storage handle is an
/// `Arc`, the counter atomic); every pulse is a
/// [`StorageSystem::migrate_idle`] call, which the storage system turns
/// into a migration round or a counted skip depending on its idle gate.
pub struct MigrationDriver {
    storage: Arc<dyn StorageSystem>,
    pulses: AtomicU64,
}

impl MigrationDriver {
    /// Creates a driver pulsing `storage`.
    pub fn new(storage: Arc<dyn StorageSystem>) -> Self {
        MigrationDriver {
            storage,
            pulses: AtomicU64::new(0),
        }
    }

    /// Offers the storage system one migration window and returns its
    /// cumulative migration counters.
    pub fn pulse(&self) -> MigrationStats {
        self.pulses.fetch_add(1, Ordering::Relaxed);
        self.storage.migrate_idle()
    }

    /// Number of pulses issued through this driver.
    pub fn pulses(&self) -> u64 {
        self.pulses.load(Ordering::Relaxed)
    }

    /// The storage system's cumulative migration counters (without
    /// pulsing).
    pub fn stats(&self) -> MigrationStats {
        self.storage.migration_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstorage_cache::{MigrationConfig, StorageConfig, StorageConfigKind};
    use hstorage_storage::{BlockRange, ClassifiedRequest, IoRequest, QosPolicy, RequestClass};
    use std::time::Duration;

    fn read(lbn: u64, prio: u8) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(lbn, 1), false),
            RequestClass::Random,
            QosPolicy::priority(prio),
        )
    }

    #[test]
    fn pulses_are_counted_and_noop_without_a_migration_engine() {
        let storage = StorageConfig::new(StorageConfigKind::HddOnly, 0).build_shared();
        let driver = MigrationDriver::new(storage);
        assert_eq!(driver.pulse(), MigrationStats::default());
        assert_eq!(driver.pulse(), MigrationStats::default());
        assert_eq!(driver.pulses(), 2);
        assert_eq!(driver.stats(), MigrationStats::default());
    }

    #[test]
    fn pulses_reach_a_configured_migration_engine() {
        let storage = StorageConfig::new(StorageConfigKind::HStorageDb, 8)
            .with_migration(MigrationConfig::on().with_idle_threshold(Duration::ZERO))
            .build_shared();
        for lbn in 0..8u64 {
            storage.submit(read(lbn, 2));
        }
        let driver = MigrationDriver::new(storage);
        let stats = driver.pulse();
        assert_eq!(stats.rounds, 1);
        assert_eq!(driver.pulses(), 1);
    }
}
