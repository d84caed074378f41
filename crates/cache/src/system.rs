//! The storage-system interface the DBMS storage manager talks to.
//!
//! The trait is the concurrency boundary of the stack: every method takes
//! `&self` and implementations are `Send + Sync`, so one storage system can
//! be shared — typically as an `Arc<dyn StorageSystem>` — by any number of
//! concurrently executing query streams. Implementations serialize
//! internally (lock striping in the hybrid cache, a single mutex in the
//! baselines); callers never need an exclusive borrow.
//!
//! Requests arrive one at a time ([`StorageSystem::submit`]) or as a
//! slice, by one of two calls that promise different things:
//! [`StorageSystem::submit_batch`] serves a semantic batch and may merge
//! adjacent device transfers, while [`StorageSystem::submit_each`] is
//! exactly `submit` of each request in order — no merging, and one
//! journal record per request — and lets an implementation overlap the
//! memory loads of independent requests.

use crate::migration::MigrationStats;
use crate::stats::CacheStats;
use hstorage_storage::{ClassifiedRequest, TrimCommand};
use std::time::Duration;

/// A complete storage configuration (devices + management policy) that can
/// serve classified requests from concurrent callers.
///
/// Implementations:
/// * [`crate::CacheEngine`] — the hStorage-DB priority cache (its default
///   policy) and the same engine under the classical policies,
/// * [`crate::lru_cache::LruCache`] — classification-blind LRU cache,
/// * [`crate::passthrough::Passthrough`] — the HDD-only and SSD-only
///   single-device baselines.
pub trait StorageSystem: Send + Sync {
    /// Human-readable configuration name ("HDD-only", "LRU", …).
    fn name(&self) -> &str;

    /// Serves one classified request. Legacy configurations ignore the
    /// classification; DSS-aware configurations use it for placement.
    fn submit(&self, req: ClassifiedRequest);

    /// Serves a batch of classified requests, in order.
    ///
    /// Semantically equivalent to submitting each request via
    /// [`StorageSystem::submit`]: the resulting cache state and cache-level
    /// statistics are identical. Implementations may exploit the batch to
    /// amortise internal lock acquisitions and to merge physically adjacent
    /// device transfers (fewer, larger physical I/Os for the same logical
    /// traffic). The default implementation simply loops, which keeps the
    /// baseline configurations trivially correct.
    fn submit_batch(&self, reqs: Vec<ClassifiedRequest>) {
        for req in reqs {
            self.submit(req);
        }
    }

    /// Serves `reqs` as exactly [`StorageSystem::submit`] of each request,
    /// in order: the same cache state, statistics, device transfers and
    /// simulated time, and with journaling on the same records. Unlike
    /// [`StorageSystem::submit_batch`] it never merges device transfers.
    /// The executor sends a group of index probes' storage requests this
    /// way. An implementation may use the slice only to look ahead — the
    /// hybrid cache starts loading the metadata of requests a few places
    /// ahead while it serves one. The default simply loops.
    fn submit_each(&self, reqs: &[ClassifiedRequest]) {
        for req in reqs {
            self.submit(*req);
        }
    }

    /// Handles a TRIM command for dead LBA ranges.
    fn trim(&self, cmd: &TrimCommand);

    /// Statistics accumulated since construction or the last reset.
    fn stats(&self) -> CacheStats;

    /// Current simulated time of the storage system's clock.
    fn now(&self) -> Duration;

    /// Clears statistics counters (does not drop cache contents).
    fn reset_stats(&self);

    /// Number of blocks currently resident in the cache (0 for
    /// single-device configurations).
    fn resident_blocks(&self) -> u64 {
        0
    }

    /// Gives the storage system an opportunity to run background tier
    /// migration (see [`crate::migration`]), if enough idle device time
    /// has accrued since the last round. Drivers call this between units
    /// of foreground work; the default — every configuration without a
    /// migration engine — does nothing.
    fn migrate_idle(&self) -> MigrationStats {
        MigrationStats::default()
    }

    /// Cumulative tier-migration counters (all zero for configurations
    /// without a migration engine).
    fn migration_stats(&self) -> MigrationStats {
        MigrationStats::default()
    }
}
