//! System configuration: which storage configuration to run, at what scale,
//! with which cache / buffer-pool sizes.

use hstorage_cache::{
    CachePolicyKind, JournalConfig, MigrationConfig, StorageConfig, StorageConfigKind,
};
use hstorage_engine::ExecutorConfig;
use hstorage_storage::PolicyConfig;
use hstorage_tpch::TpchScale;
use serde::{Deserialize, Serialize};

/// Everything needed to build a [`TpchSystem`](crate::TpchSystem). Every
/// field is public: start from [`SystemConfig::single_query`] or
/// [`SystemConfig::throughput`] and override fields with struct-update
/// syntax or assignment. Nothing is checked until the storage system is
/// built (see [`StorageConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The TPC-H scale.
    pub scale: TpchScale,
    /// Which of the four storage configurations to use.
    pub storage_kind: StorageConfigKind,
    /// SSD cache capacity in blocks (ignored by the passthrough kinds).
    pub cache_blocks: u64,
    /// QoS policy parameters.
    pub policy: PolicyConfig,
    /// Executor tuning, the DBMS buffer-pool size
    /// ([`ExecutorConfig::buffer_pool_blocks`]) included.
    pub executor: ExecutorConfig,
    /// Lock-striping shard count for the hStorage-DB storage kind: 1 keeps
    /// the paper's exact global allocation/eviction; larger values enable
    /// parallel submits for the threaded stream driver.
    pub storage_shards: usize,
    /// Replacement policy of the hStorage-DB cache engine, knobs
    /// included (CFLRU clean-first window, 2Q `Kin`/`Kout`). The default
    /// (semantic priority) is the paper's policy; the other kinds run the
    /// same engine behind a classical baseline, adaptive ARC or the
    /// semantic + ARC per-stream compositor, which is how the
    /// policy-comparison and knob-ablation experiments isolate the value
    /// of semantic information. Ignored by the non-engine storage kinds.
    pub cache_policy: CachePolicyKind,
    /// Online tier-migration knobs of the hStorage-DB cache engine (see
    /// [`hstorage_cache::migration`]). Disabled by default; ignored by
    /// the non-engine storage kinds.
    pub migration: MigrationConfig,
    /// Write-ahead journaling knobs of the hStorage-DB cache engine (see
    /// [`hstorage_cache::journal`]). Disabled by default — the engine is
    /// then bit-identical to one without a journal — and ignored by the
    /// non-engine storage kinds.
    pub journal: JournalConfig,
}

impl SystemConfig {
    /// The single-query experiment setup of Sections 6.2–6.3: the SSD cache
    /// keeps the paper's 32 GB : 46 GB cache-to-data ratio, and the DBMS
    /// buffer pool is kept small (≈2% of the data) so that storage sees the
    /// bulk of the accesses, as it does in the paper's measurements.
    pub fn single_query(scale: TpchScale, storage_kind: StorageConfigKind) -> Self {
        Self::sized(
            scale,
            storage_kind,
            scale.paper_single_query_cache_blocks(),
            (scale.total_blocks() / 50).max(64),
        )
    }

    /// The throughput-test setup of Section 6.4: 4 GB of cache and 2 GB of
    /// main memory over a 16 GB database, preserved as ratios.
    pub fn throughput(scale: TpchScale, storage_kind: StorageConfigKind) -> Self {
        Self::sized(
            scale,
            storage_kind,
            scale.paper_throughput_cache_blocks(),
            scale.paper_throughput_buffer_pool_blocks().max(64),
        )
    }

    /// The paper-default system with the given cache and buffer-pool
    /// sizes.
    fn sized(
        scale: TpchScale,
        storage_kind: StorageConfigKind,
        cache_blocks: u64,
        buffer_pool_blocks: u64,
    ) -> Self {
        SystemConfig {
            scale,
            storage_kind,
            cache_blocks,
            policy: PolicyConfig::paper_default(),
            executor: ExecutorConfig {
                buffer_pool_blocks,
                ..ExecutorConfig::default()
            },
            storage_shards: 1,
            cache_policy: CachePolicyKind::default(),
            migration: MigrationConfig::default(),
            journal: JournalConfig::default(),
        }
    }

    /// The storage configuration descriptor implied by this system config.
    /// The devices keep [`StorageConfig::new`]'s queue depth of 1: no
    /// request merging, the paper-exact setting.
    pub fn storage_config(&self) -> StorageConfig {
        StorageConfig {
            policy: self.policy,
            shards: self.storage_shards,
            cache_policy: self.cache_policy,
            migration: self.migration,
            journal: self.journal,
            ..StorageConfig::new(self.storage_kind, self.cache_blocks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_query_preserves_cache_ratio() {
        let scale = TpchScale::new(0.1);
        let cfg = SystemConfig::single_query(scale, StorageConfigKind::HStorageDb);
        let ratio = cfg.cache_blocks as f64 / scale.total_blocks() as f64;
        assert!((ratio - 32.0 / 46.0).abs() < 0.02);
        assert!(cfg.executor.buffer_pool_blocks < cfg.cache_blocks);
        assert_eq!(
            cfg.executor.buffer_pool_blocks,
            (scale.total_blocks() / 50).max(64)
        );
    }

    #[test]
    fn throughput_uses_smaller_cache_and_memory() {
        let scale = TpchScale::new(0.1);
        let single = SystemConfig::single_query(scale, StorageConfigKind::Lru);
        let through = SystemConfig::throughput(scale, StorageConfigKind::Lru);
        assert!(through.cache_blocks < single.cache_blocks);
        assert!(through.executor.buffer_pool_blocks > 0);
    }

    #[test]
    fn builders_override_fields() {
        let base = SystemConfig::single_query(TpchScale::new(0.05), StorageConfigKind::HStorageDb);
        let mut cfg = SystemConfig {
            cache_blocks: 123,
            policy: PolicyConfig::with_priorities(6, 0.2),
            storage_shards: 8,
            cache_policy: CachePolicyKind::cflru(),
            ..base
        };
        cfg.executor.io_batch_size = 64;
        let storage = cfg.storage_config();
        assert_eq!(storage.cache_capacity_blocks, 123);
        assert_eq!(storage.policy.total_priorities, 6);
        assert_eq!(storage.shards, 8);
        assert_eq!(storage.queue_depth, 1, "no merging");
        assert_eq!(storage.cache_policy, CachePolicyKind::cflru());
        assert_eq!(cfg.executor.io_batch_size, 64);
        // Every other field is the base's.
        assert_eq!(storage.kind, StorageConfigKind::HStorageDb);
        assert_eq!(storage.migration, base.migration);
        assert_eq!(storage.journal, base.journal);
        assert_eq!(
            cfg.executor.buffer_pool_blocks,
            base.executor.buffer_pool_blocks
        );
    }

    #[test]
    fn journaling_defaults_off_and_threads_through() {
        let cfg = SystemConfig::single_query(TpchScale::new(0.05), StorageConfigKind::HStorageDb);
        assert!(!cfg.journal.enabled);
        assert!(!cfg.storage_config().journal.enabled);
        let journaled = SystemConfig {
            journal: JournalConfig::on().with_commit_interval(4),
            ..cfg
        };
        assert_eq!(journaled.storage_config().journal.commit_interval, 4);
    }

    #[test]
    fn cache_policy_defaults_to_semantic_priority() {
        let cfg = SystemConfig::single_query(TpchScale::new(0.05), StorageConfigKind::HStorageDb);
        assert_eq!(cfg.cache_policy, CachePolicyKind::SemanticPriority);
        assert_eq!(
            cfg.storage_config().cache_policy,
            CachePolicyKind::SemanticPriority
        );
    }
}
