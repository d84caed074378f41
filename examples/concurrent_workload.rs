//! Concurrent workload: the paper's throughput test (3 query streams plus
//! an update stream) on a small cache, comparing the four storage
//! configurations. This is where hStorage-DB's advantage over
//! monitoring-based management is largest: concurrent streams make access
//! patterns unpredictable for LRU, while the semantic classification stays
//! exact.
//!
//! Run with: `cargo run --release --example concurrent_workload`

use hstorage::{SystemConfig, TpchSystem};
use hstorage_cache::StorageConfigKind;
use hstorage_engine::ServiceConfig;
use hstorage_tpch::throughput::{
    query_stream, throughput_metric, update_stream, PAPER_QUERY_STREAMS,
};
use hstorage_tpch::{QueryId, TpchScale};

fn main() {
    let scale = TpchScale::new(0.02);
    println!(
        "Throughput test: {} query streams + 1 update stream, scale {:.2}\n",
        PAPER_QUERY_STREAMS, scale.scale_factor
    );

    println!(
        "{:<12} {:>12} {:>18} {:>14} {:>14}",
        "config", "elapsed (s)", "throughput (q/h)", "avg Q9 (s)", "avg Q18 (s)"
    );
    for kind in StorageConfigKind::all() {
        let mut system = TpchSystem::new(SystemConfig::throughput(scale, kind));
        let mut streams: Vec<(String, Vec<QueryId>)> = (0..PAPER_QUERY_STREAMS)
            .map(|i| (format!("stream-{}", i + 1), query_stream(i)))
            .collect();
        streams.push(("updates".to_string(), update_stream(PAPER_QUERY_STREAMS)));

        let completed = system.run_streams(&streams, 64);
        let elapsed = system.storage_time().as_secs_f64();
        let avg = |name: &str| {
            let v: Vec<f64> = completed
                .iter()
                .filter(|c| c.stats.name == name)
                .map(|c| c.stats.elapsed.as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        println!(
            "{:<12} {:>12.1} {:>18.0} {:>14.2} {:>14.2}",
            system.storage_name(),
            elapsed,
            throughput_metric(PAPER_QUERY_STREAMS, elapsed),
            avg("Q9"),
            avg("Q18"),
        );
    }

    println!(
        "\nAs in Table 9 of the paper, the gap between hStorage-DB and LRU grows under\n\
         concurrency: semantic classification keeps cache-worthy blocks protected from\n\
         the interleaved sequential scans of the other streams."
    );

    // The same workload again, but on real OS threads: the query service's
    // bounded worker pool (one thread per unit of available parallelism)
    // runs the streams in a closed loop against a single shared,
    // lock-striped storage service. The deterministic slicer above is the
    // tool for reproducing the paper's numbers; this is the tool for
    // exercising actual parallelism.
    println!("\nThreaded run (hStorage-DB, 8 shards, query service):");
    let mut system = TpchSystem::new(SystemConfig {
        storage_shards: 8,
        ..SystemConfig::throughput(scale, StorageConfigKind::HStorageDb)
    });
    let mut streams: Vec<(String, Vec<QueryId>)> = (0..PAPER_QUERY_STREAMS)
        .map(|i| (format!("stream-{}", i + 1), query_stream(i)))
        .collect();
    streams.push(("updates".to_string(), update_stream(PAPER_QUERY_STREAMS)));
    let completed = system
        .run_streams_service(&streams, ServiceConfig::default())
        .completed;
    let total_blocks: u64 = completed.iter().map(|c| c.stats.total_blocks()).sum();
    println!(
        "  {} queries completed across {} streams, {} blocks served, {:.1} s simulated",
        completed.len(),
        streams.len(),
        total_blocks,
        system.storage_time().as_secs_f64(),
    );
}
