//! Semantic-aware caching in action: shows how the policy assignment table
//! (Rules 1–5) classifies the requests of one query, how the hybrid cache
//! places blocks into per-priority groups, and how TRIM evicts temporary
//! data at the end of its lifetime.
//!
//! Run with: `cargo run --release --example semantic_caching`

use hstorage::{SystemConfig, TpchSystem};
use hstorage_cache::{CacheAction, StorageConfigKind};
use hstorage_storage::RequestClass;
use hstorage_tpch::{QueryId, TpchScale};

fn main() {
    let scale = TpchScale::new(0.05);

    // Q21 mixes every interesting request type: two sequential scans of
    // lineitem, index scans of orders and lineitem at two different plan
    // levels, and therefore two different caching priorities.
    let mut system = TpchSystem::new(SystemConfig::single_query(
        scale,
        StorageConfigKind::HStorageDb,
    ));
    let stats = system.run(QueryId::Q(21));
    let storage = system.storage_stats();

    println!(
        "Q21 under hStorage-DB ({} blocks requested)\n",
        stats.total_blocks()
    );
    println!("Requests per class (what the storage manager classified):");
    for class in RequestClass::all() {
        let blocks = stats.blocks(class);
        if blocks > 0 {
            println!("  {:<12} {:>10} blocks", class.label(), blocks);
        }
    }

    println!("\nCache statistics per assigned priority (Rule 2 at work):");
    for prio in 0..=u8::MAX {
        let counters = storage.priority(prio);
        if counters.accessed_blocks == 0 {
            continue;
        }
        println!(
            "  priority {:<2} accessed {:>9}  hits {:>9}  hit ratio {:>5.1}%",
            prio,
            counters.accessed_blocks,
            counters.cache_hits,
            counters.hit_ratio() * 100.0
        );
    }

    println!("\nCache actions taken (Section 5.1):");
    for action in [
        CacheAction::CacheHit,
        CacheAction::ReadAllocation,
        CacheAction::WriteAllocation,
        CacheAction::Bypassing,
        CacheAction::ReAllocation,
        CacheAction::Eviction,
        CacheAction::Trim,
    ] {
        println!(
            "  {:<18} {:>10} blocks",
            format!("{action:?}"),
            storage.action(action)
        );
    }

    // Now Q18: temporary data is cached at the highest priority during its
    // lifetime and TRIMmed away at deletion.
    let mut system = TpchSystem::new(SystemConfig::single_query(
        scale,
        StorageConfigKind::HStorageDb,
    ));
    system.run(QueryId::Q(18));
    let storage = system.storage_stats();
    let temp = storage.class(RequestClass::TemporaryData);
    println!(
        "\nQ18 temporary data: {} blocks accessed, {} served from cache ({:.0}%),\n\
         {} blocks invalidated by TRIM, {} blocks still resident after the query.",
        temp.accessed_blocks,
        temp.cache_hits,
        temp.hit_ratio() * 100.0,
        storage.action(CacheAction::Trim),
        system.cached_blocks(),
    );
}
