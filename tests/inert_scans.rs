//! Differential test of the run paths at the scale of a TPC-H power run:
//! the power-test sequence runs on three engines over three copies of the
//! SF-`HSTORAGE_PROGRAM_SF` database (default 0.05; CI's release step runs
//! 1.0) — the paper's semantic policy, whose "non-caching and
//! non-eviction" scans are served from the block table's residency bitmap
//! and whose refused blocks settle in bypass runs; the same policy
//! declaring nothing inert, so every scanned block takes the full
//! placement path; and the same storage with migration attached but idle
//! forever, so its shards take no runs of either kind and no migration
//! round fires. Statistics and simulated time must agree after every
//! query, and every engine's block tables must pass their audit.

use hstorage::SystemConfig;
use hstorage_cache::{
    CacheEngine, CachePolicyKind, MigrationConfig, StorageConfigKind, StorageSystem,
};
use hstorage_engine::QueryExecutor;
use hstorage_storage::RequestClass;
use hstorage_tpch::power::power_test_sequence;
use hstorage_tpch::{build_plan, TpchDatabase, TpchScale};
use std::time::Duration;

mod common;

#[test]
fn power_sequence_matches_with_the_inert_path_forced_off() {
    let scale = std::env::var("HSTORAGE_PROGRAM_SF")
        .map(|v| v.parse().expect("HSTORAGE_PROGRAM_SF is a scale factor"))
        .unwrap_or(0.05);
    let config = SystemConfig::single_query(TpchScale::new(scale), StorageConfigKind::HStorageDb);
    let storage = config.storage_config();
    assert_eq!(storage.cache_policy, CachePolicyKind::SemanticPriority);
    let engine = CacheEngine::new(&storage);
    let reference = CacheEngine::new(&storage).with_policy_factory(
        "per-block",
        common::per_block(storage.cache_policy, &config.policy),
    );
    // Attached migration turns both run kinds off; a threshold no run
    // reaches keeps every round from firing.
    let run_free =
        CacheEngine::new(&storage.with_migration(
            MigrationConfig::on().with_idle_threshold(Duration::from_secs(1 << 30)),
        ));
    let mut sides = [&engine, &reference, &run_free].map(|storage| {
        (
            storage,
            TpchDatabase::build(config.scale),
            QueryExecutor::new(config.executor, config.policy),
        )
    });
    for query in power_test_sequence() {
        for (storage, db, executor) in &mut sides {
            let plan = build_plan(query, db);
            executor.run_query(&plan, &mut db.catalog, *storage);
        }
        for (twin, name) in [(&reference, "per-block"), (&run_free, "run-free")] {
            assert_eq!(engine.stats(), twin.stats(), "{name}, after {query:?}");
            assert_eq!(engine.now(), twin.now(), "{name}, after {query:?}");
        }
        for (side, name) in [
            (&engine, "inert"),
            (&reference, "per-block"),
            (&run_free, "run-free"),
        ] {
            assert_eq!(side.audit(), Ok(()), "{name}, after {query:?}");
        }
    }
    let scanned = engine.stats().class(RequestClass::Sequential);
    assert!(
        scanned.cache_hits > 0 && scanned.misses() > 0,
        "the scans must find resident and absent blocks ({scanned:?})"
    );
}
