//! # hStorage-DB
//!
//! A full-system reproduction of *"hStorage-DB: Heterogeneity-aware Data
//! Management to Exploit the Full Capability of Hybrid Storage Systems"*
//! (Luo, Lee, Mesnier, Chen, Zhang — VLDB 2012), built from scratch in
//! Rust.
//!
//! The library is organised as a stack:
//!
//! * [`hstorage_storage`] — block model, QoS policy vocabulary, simulated
//!   HDD/SSD devices, the Differentiated Storage Services request tagging,
//! * [`hstorage_cache`] — the hybrid SSD-over-HDD cache with selective
//!   allocation/eviction over priority groups, plus the LRU / HDD-only /
//!   SSD-only baselines,
//! * [`hstorage_engine`] — the mini DBMS: plan trees, semantic information,
//!   the policy assignment table (Rules 1–5, Function (1)), buffer pool,
//!   concurrency registry and executor,
//! * [`hstorage_tpch`] — the TPC-H substrate: schema, layout, the nine
//!   indexes of Table 3, plan templates for Q1–Q22 and RF1/RF2, power and
//!   throughput orderings,
//! * this crate — a [`TpchSystem`] façade that wires all of the above
//!   together, and the [`experiments`] module that regenerates every table
//!   and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use hstorage::{SystemConfig, TpchSystem};
//! use hstorage_cache::{CacheEngine, StorageConfigKind};
//! use hstorage_tpch::{QueryId, TpchScale};
//!
//! // A small database with the paper's cache:data ratio, managed by
//! // hStorage-DB.
//! let config = SystemConfig::single_query(TpchScale::new(0.02), StorageConfigKind::HStorageDb);
//! let mut system = TpchSystem::new(config);
//! let stats = system.run(QueryId::Q(1));
//! assert!(stats.elapsed.as_secs_f64() > 0.0);
//!
//! // Knobs are public fields, checked once when a system is built. The
//! // storage engine on its own: one description, one constructor.
//! let sharded = SystemConfig { storage_shards: 4, ..config };
//! let engine = CacheEngine::new(&sharded.storage_config());
//! assert_eq!(engine.shard_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiments;
pub mod report;
pub mod system;

pub use config::SystemConfig;
pub use report::{format_duration_table, PaperComparison};
pub use system::TpchSystem;

// Re-export the crates of the stack so downstream users need only one
// dependency.
pub use hstorage_cache as cache;
pub use hstorage_engine as engine;
pub use hstorage_storage as storage;
pub use hstorage_tpch as tpch;
