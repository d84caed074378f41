//! Construction of the four storage configurations used in the evaluation.
//!
//! A [`StorageConfig`] is the one description of a storage system: its
//! `with_*` methods are plain setters, and nothing is checked until a
//! system is built from it — by [`StorageConfig::build`] for any kind, or
//! by [`CacheEngine::new`] for the hStorage-DB engine itself. Both run
//! [`StorageConfig::validate`] once and panic with its message.

use crate::engine::CacheEngine;
use crate::journal::JournalConfig;
use crate::lru_cache::LruCache;
use crate::migration::MigrationConfig;
use crate::passthrough::Passthrough;
use crate::policy::CachePolicyKind;
use crate::system::StorageSystem;
use hstorage_storage::{
    HddDevice, HddParameters, PolicyConfig, SimClock, SsdDevice, SsdParameters,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the four storage configurations of Section 6.3 to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageConfigKind {
    /// Baseline: all I/O served by the hard disk.
    HddOnly,
    /// Classical cache: SSD cache managed by LRU, classification ignored.
    Lru,
    /// The paper's system: SSD cache managed by caching priorities.
    HStorageDb,
    /// Ideal case: all I/O served by the SSD.
    SsdOnly,
}

impl StorageConfigKind {
    /// All four configurations, in the order the paper's figures list them.
    pub fn all() -> [StorageConfigKind; 4] {
        [
            StorageConfigKind::HddOnly,
            StorageConfigKind::Lru,
            StorageConfigKind::HStorageDb,
            StorageConfigKind::SsdOnly,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            StorageConfigKind::HddOnly => "HDD-only",
            StorageConfigKind::Lru => "LRU",
            StorageConfigKind::HStorageDb => "hStorage-DB",
            StorageConfigKind::SsdOnly => "SSD-only",
        }
    }

    /// Whether this configuration uses an SSD cache in front of the HDD.
    pub fn has_cache(&self) -> bool {
        matches!(self, StorageConfigKind::Lru | StorageConfigKind::HStorageDb)
    }
}

impl fmt::Display for StorageConfigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A full description of a storage configuration: the kind, the cache size
/// (for cached kinds), the QoS policy parameters (for hStorage-DB), the
/// lock-striping shard count for concurrent access and the cache engine's
/// replacement-policy, migration and journaling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Which configuration to build.
    pub kind: StorageConfigKind,
    /// SSD cache capacity in blocks (ignored by the passthrough kinds).
    pub cache_capacity_blocks: u64,
    /// QoS policy parameters (used by the hStorage-DB kind).
    pub policy: PolicyConfig,
    /// Number of lock-striped shards for the hStorage-DB kind. 1 (the
    /// default) reproduces the paper's global allocation/eviction exactly;
    /// larger values let concurrent submits on different shards proceed in
    /// parallel at the cost of shard-local eviction decisions.
    pub shards: usize,
    /// Device queue depth for the batched submission path: the maximum
    /// number of physically adjacent same-direction requests a device may
    /// merge into one transfer when served through
    /// [`StorageSystem::submit_batch`]. 1 (the default) disables merging,
    /// which keeps batched submission timing-identical to per-request
    /// submission — the paper-exact setting.
    pub queue_depth: usize,
    /// Which replacement policy drives the cache engine built for the
    /// hStorage-DB kind. The default,
    /// [`CachePolicyKind::SemanticPriority`], is the paper's policy; the
    /// other kinds run the same engine (shards, write buffer, batched
    /// submission) behind a classical baseline algorithm. Ignored by the
    /// passthrough and standalone-LRU kinds.
    pub cache_policy: CachePolicyKind,
    /// Online tier-migration knobs for the hStorage-DB kind (see
    /// [`crate::migration`]). The default is disabled, which leaves the
    /// built engine bit-identical to one without a migration engine.
    /// Ignored by the passthrough and standalone-LRU kinds.
    pub migration: MigrationConfig,
    /// Write-ahead journaling knobs for the hStorage-DB kind (see
    /// [`crate::journal`]). The default is disabled, which leaves the
    /// built engine bit-identical to one without a journal attached.
    /// Ignored by the passthrough and standalone-LRU kinds.
    pub journal: JournalConfig,
}

impl StorageConfig {
    /// Creates a configuration description (single shard).
    pub fn new(kind: StorageConfigKind, cache_capacity_blocks: u64) -> Self {
        StorageConfig {
            kind,
            cache_capacity_blocks,
            policy: PolicyConfig::paper_default(),
            shards: 1,
            queue_depth: 1,
            cache_policy: CachePolicyKind::default(),
            migration: MigrationConfig::default(),
            journal: JournalConfig::default(),
        }
    }

    /// Sets [`Self::policy`].
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Sets [`Self::shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets [`Self::queue_depth`].
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets [`Self::cache_policy`], knob values included (CFLRU window,
    /// 2Q `Kin`/`Kout`).
    pub fn with_cache_policy(mut self, cache_policy: CachePolicyKind) -> Self {
        self.cache_policy = cache_policy;
        self
    }

    /// Sets [`Self::migration`].
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = migration;
        self
    }

    /// Sets [`Self::journal`].
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = journal;
        self
    }

    /// Checks every field a built system would read: a positive shard
    /// count and queue depth, and in-range policy, cache-policy, migration
    /// and journal knobs. The error names the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shard count must be positive".into());
        }
        if self.queue_depth == 0 {
            return Err("queue depth must be positive".into());
        }
        let field = |name: &str, check: Result<(), String>| {
            check.map_err(|e| format!("invalid {name} configuration: {e}"))
        };
        field("policy", self.policy.validate())?;
        field("cache-policy", self.cache_policy.validate())?;
        field("migration", self.migration.validate())?;
        field("journal", self.journal.validate())
    }

    /// The paper's SSD and HDD models on `clock` (a fresh one), merging up
    /// to [`Self::queue_depth`] queued requests on the batched path. Every
    /// storage system is built on these, so this is where a description is
    /// checked: it panics with [`Self::validate`]'s message first.
    pub(crate) fn devices(&self, clock: &SimClock) -> (SsdDevice, HddDevice) {
        self.validate().expect("invalid storage configuration");
        let ssd = SsdDevice::new(
            SsdParameters::intel_320().with_queue_depth(self.queue_depth),
            clock.clone(),
        );
        let hdd = HddDevice::new(
            HddParameters::cheetah_15k7().with_queue_depth(self.queue_depth),
            clock.clone(),
        );
        (ssd, hdd)
    }

    /// Builds the storage system. Panics if [`Self::validate`] rejects the
    /// description.
    pub fn build(&self) -> Box<dyn StorageSystem> {
        match self.kind {
            StorageConfigKind::HStorageDb => Box::new(CacheEngine::new(self)),
            StorageConfigKind::HddOnly => {
                let clock = SimClock::new();
                let (_, hdd) = self.devices(&clock);
                Box::new(Passthrough::new(hdd, clock))
            }
            StorageConfigKind::SsdOnly => {
                let clock = SimClock::new();
                let (ssd, _) = self.devices(&clock);
                Box::new(Passthrough::new(ssd, clock))
            }
            StorageConfigKind::Lru => {
                let clock = SimClock::new();
                let (ssd, hdd) = self.devices(&clock);
                Box::new(LruCache::with_devices(
                    self.cache_capacity_blocks,
                    ssd,
                    hdd,
                    clock,
                ))
            }
        }
    }

    /// Builds the storage system behind an [`Arc`](std::sync::Arc), ready to
    /// be shared by concurrent query streams (e.g. the threaded workload
    /// driver).
    pub fn build_shared(&self) -> std::sync::Arc<dyn StorageSystem> {
        std::sync::Arc::from(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_four_kinds_with_expected_names() {
        for kind in StorageConfigKind::all() {
            let sys = StorageConfig::new(kind, 1024).build();
            assert_eq!(sys.name(), kind.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            StorageConfigKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn build_shared_returns_a_sync_handle() {
        let shared = StorageConfig::new(StorageConfigKind::HStorageDb, 128)
            .with_shards(4)
            .build_shared();
        let shared2 = std::sync::Arc::clone(&shared);
        std::thread::spawn(move || shared2.name().to_string())
            .join()
            .unwrap();
        assert_eq!(shared.name(), "hStorage-DB");
    }

    #[test]
    fn cache_policy_selection_builds_the_engine_baselines() {
        for kind in CachePolicyKind::all() {
            let sys = StorageConfig::new(StorageConfigKind::HStorageDb, 256)
                .with_cache_policy(kind)
                .build();
            assert_eq!(sys.name(), kind.system_name());
        }
        // The default configuration still builds the paper's system.
        let default = StorageConfig::new(StorageConfigKind::HStorageDb, 256).build();
        assert_eq!(default.name(), "hStorage-DB");
        // Non-engine kinds ignore the selector.
        let lru = StorageConfig::new(StorageConfigKind::Lru, 256)
            .with_cache_policy(CachePolicyKind::two_q())
            .build();
        assert_eq!(lru.name(), "LRU");
    }

    #[test]
    fn knobbed_policies_build_with_custom_values() {
        let sys = StorageConfig::new(StorageConfigKind::HStorageDb, 256)
            .with_cache_policy(CachePolicyKind::TwoQ {
                kin_pct: 10,
                kout_pct: 150,
            })
            .build();
        assert_eq!(sys.name(), "hybrid-2q");
        let sys = StorageConfig::new(StorageConfigKind::HStorageDb, 256)
            .with_cache_policy(CachePolicyKind::PerStream)
            .build();
        assert_eq!(sys.name(), "hybrid-per-stream");
    }

    /// Describing an out-of-range knob is free; building the description
    /// rejects it.
    #[test]
    #[should_panic(expected = "invalid cache-policy configuration")]
    fn out_of_range_knobs_are_rejected_at_description_time() {
        let config = StorageConfig::new(StorageConfigKind::HStorageDb, 256)
            .with_cache_policy(CachePolicyKind::Cflru { window_pct: 0 });
        let _ = config.build();
    }

    #[test]
    fn journaling_defaults_off_and_rejects_bad_knobs_at_description_time() {
        let config = StorageConfig::new(StorageConfigKind::HStorageDb, 256);
        assert!(!config.journal.enabled);
        let _ = config.with_journal(JournalConfig::on()).build();
        let bad = config.with_journal(JournalConfig {
            enabled: true,
            commit_interval: 0,
        });
        assert!(
            panic_of(|| drop(bad.build())).is_some(),
            "zero commit interval must be rejected"
        );
    }

    /// The panic message of `build`, or `None` if it returned.
    fn panic_of(build: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).err()?;
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

    #[test]
    fn each_invalid_field_is_rejected_by_build_and_by_the_engine() {
        let valid = StorageConfig::new(StorageConfigKind::HStorageDb, 256);
        assert!(!valid.journal.enabled);
        assert_eq!(valid.validate(), Ok(()));
        let journaled = valid.with_journal(JournalConfig::on().with_commit_interval(4));
        assert_eq!(panic_of(|| drop(journaled.build())), None);
        assert_eq!(panic_of(|| drop(CacheEngine::new(&journaled))), None);

        let cases: [(StorageConfig, &str); 8] = [
            (valid.with_shards(0), "shard count must be positive"),
            (valid.with_queue_depth(0), "queue depth must be positive"),
            (
                valid.with_policy(PolicyConfig {
                    write_buffer_fraction: 1.5,
                    ..PolicyConfig::paper_default()
                }),
                "invalid policy configuration",
            ),
            (
                valid.with_cache_policy(CachePolicyKind::Cflru { window_pct: 0 }),
                "invalid cache-policy configuration",
            ),
            (
                valid.with_cache_policy(CachePolicyKind::TwoQ {
                    kin_pct: 25,
                    kout_pct: 201,
                }),
                "invalid cache-policy configuration",
            ),
            (
                valid.with_migration(MigrationConfig::on().with_half_life_rounds(0)),
                "invalid migration configuration",
            ),
            (
                valid.with_migration(MigrationConfig::on().with_round_budget(0)),
                "invalid migration configuration",
            ),
            (
                valid.with_journal(JournalConfig::on().with_commit_interval(0)),
                "invalid journal configuration",
            ),
        ];
        for (config, expected) in cases {
            // Describing is free; only building checks.
            let err = config.validate().expect_err(expected);
            assert!(err.contains(expected), "{err:?} does not name {expected:?}");
            for (path, message) in [
                ("build", panic_of(|| drop(config.build()))),
                (
                    "CacheEngine::new",
                    panic_of(|| drop(CacheEngine::new(&config))),
                ),
            ] {
                let message = message.unwrap_or_else(|| panic!("{path} accepted {expected:?}"));
                assert!(message.contains(expected), "{path}: {message:?}");
            }
        }
        // The passthrough and standalone-LRU kinds are checked too.
        for kind in [StorageConfigKind::HddOnly, StorageConfigKind::Lru] {
            let config = StorageConfig::new(kind, 256).with_queue_depth(0);
            let message = panic_of(|| drop(config.build())).expect("queue depth 0 accepted");
            assert!(message.contains("queue depth must be positive"), "{kind}");
        }
    }

    #[test]
    fn engine_config_round_trips() {
        let config = StorageConfig {
            kind: StorageConfigKind::HStorageDb,
            cache_capacity_blocks: 300,
            policy: PolicyConfig::with_priorities(6, 0.2),
            shards: 3,
            queue_depth: 8,
            cache_policy: CachePolicyKind::two_q(),
            migration: MigrationConfig::on().with_round_budget(7),
            journal: JournalConfig::on().with_commit_interval(5),
        };
        let default = StorageConfig::new(StorageConfigKind::Lru, 1);
        assert_ne!(config.kind, default.kind);
        assert_ne!(config.cache_capacity_blocks, default.cache_capacity_blocks);
        assert_ne!(config.policy, default.policy);
        assert_ne!(config.shards, default.shards);
        assert_ne!(config.queue_depth, default.queue_depth);
        assert_ne!(config.cache_policy, default.cache_policy);
        assert_ne!(config.migration, default.migration);
        assert_ne!(config.journal, default.journal);
        let engine = CacheEngine::new(&config);
        assert_eq!(engine.config(), &config);
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.name(), "hybrid-2q");
    }

    #[test]
    #[should_panic(expected = "builds only the hStorage-DB kind")]
    fn the_engine_refuses_other_kinds() {
        let _ = CacheEngine::new(&StorageConfig::new(StorageConfigKind::Lru, 16));
    }

    #[test]
    fn cache_flag() {
        assert!(StorageConfigKind::Lru.has_cache());
        assert!(StorageConfigKind::HStorageDb.has_cache());
        assert!(!StorageConfigKind::HddOnly.has_cache());
        assert!(!StorageConfigKind::SsdOnly.has_cache());
    }
}
