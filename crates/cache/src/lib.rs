//! The hybrid storage system of the hStorage-DB paper, plus the baselines
//! it is evaluated against.
//!
//! The paper's storage prototype (Section 5) is a two-level hierarchy: an
//! SSD cache on top of HDDs, managed with *selective allocation* and
//! *selective eviction* over per-priority LRU groups. Four storage
//! configurations are used in the evaluation:
//!
//! * **HDD-only** — every request goes straight to the disk ([`passthrough`]),
//! * **SSD-only** — the ideal case, everything served by the SSD ([`passthrough`]),
//! * **LRU** — the SSD cache managed by a classification-blind LRU
//!   ([`lru_cache`]),
//! * **hStorage-DB** — the SSD cache managed by the priority mechanism: the
//!   [`engine`] with its default [`policy::SemanticPriorityPolicy`].
//!
//! All four implement the [`StorageSystem`] trait so the query engine can
//! drive them interchangeably.
//!
//! The hybrid cache itself is split into a policy-agnostic [`engine`]
//! (shards, block table, write buffer, batched device submission) and a
//! pluggable [`policy`] framework: the paper's semantic priority policy is
//! one [`CachePolicy`] among several ([`policy::LruPolicy`],
//! [`policy::CflruPolicy`], [`policy::TwoQPolicy`], the adaptive
//! [`policy::ArcPolicy`] and the [`policy::PerStreamPolicy`] compositor),
//! selectable — knobs included — via [`CachePolicyKind`] on
//! [`StorageConfig`] so the same engine can compare replacement
//! algorithms under identical mechanism.

// Unsafe code lives in three places: the crate's one prefetch hint
// (`table::prefetch_line`, public for the safe crates above), the block
// table's SSE2 control-group matcher (`table::sse2`), and the shard lock's
// guards and `Sync` impl (`shard_lock`, which opts in module-wide);
// everything else stays safe.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod config;
pub mod engine;
#[cfg(test)]
mod hybrid;
pub mod journal;
pub mod lru_cache;
pub mod migration;
pub mod paged;
pub mod passthrough;
pub mod policy;
pub mod priority_group;
pub mod recovery;
mod shard;
mod shard_lock;
pub mod stats;
pub mod system;
pub mod table;

pub use arena::{ListArena, ListHandle};
pub use config::{StorageConfig, StorageConfigKind};
pub use engine::CacheEngine;
pub use journal::{Journal, JournalConfig, JournalOp, JournalRecord, JournalSnapshot};
pub use lru_cache::LruCache;
pub use migration::{HeatTracker, MigrationConfig, MigrationStats};
pub use paged::PagedArray;
pub use passthrough::Passthrough;
pub use policy::{CachePolicy, CachePolicyKind, HitOutcome, PolicyRequest, RemoveReason};
pub use recovery::{
    apply_op, crash_offset, recover, replay_plan, verify_convergence, RecoveryError,
    RecoveryOutcome, ReplayPlan,
};
pub use stats::{CacheAction, CacheStats, ClassCounters, ContentionCounters, LatencyHistogram};
pub use system::StorageSystem;
pub use table::{prefetch_line, BlockTable, OpenMap};
