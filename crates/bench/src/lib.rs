//! Shared helpers of the experiment harness.
//!
//! The `run_experiments` binary regenerates the paper's tables and figures
//! at a reduced TPC-H scale and, with `--check`, gates each key ratio on
//! the paper's direction. The `bench_gate` binary gates the deterministic
//! simulated-time rows built on [`workload`] against
//! `BENCH_baseline.json`. Host wall time is `hbench`'s job
//! (`benchmark/`).

#![forbid(unsafe_code)]

use hstorage_tpch::TpchScale;

/// The scale the `run_experiments` binary uses for the single-query
/// experiments (Figures 4–9, Tables 4–7).
pub fn report_scale() -> TpchScale {
    TpchScale::new(0.1)
}

/// The scale used for the long-running sequence and concurrency experiments
/// (Figure 11 / Table 8, Table 9 / Figure 12).
pub fn report_concurrency_scale() -> TpchScale {
    TpchScale::new(0.05)
}

/// The deterministic workloads behind `bench_gate`'s rows: request
/// shapes, cache construction and drive loops.
pub mod workload {
    use hstorage_cache::{
        CacheEngine, CachePolicyKind, StorageConfig, StorageConfigKind, StorageSystem,
    };
    use hstorage_engine::{
        run_streams_service, Access, Catalog, ConcurrencyRegistry, ExecutorConfig, ObjectKind,
        OperatorKind, PlanNode, PlanTree, ServiceConfig, StreamSpec,
    };
    use hstorage_storage::{
        BlockRange, ClassifiedRequest, IoRequest, PolicyConfig, QosPolicy, RequestClass,
    };
    use std::sync::Arc;

    /// Cache capacity in blocks.
    pub const BLOCKS: u64 = 4_096;
    /// Requests per run.
    pub const TOTAL_SUBMITS: u64 = 10_000;
    /// Device queue depth used by the batched configurations.
    pub const QUEUE_DEPTH: usize = 32;
    /// Lock-striping shard count.
    pub const SHARDS: usize = 8;

    /// Adjacent single-block sequential reads — the shape a table scan
    /// produces (bypasses the cache, merges on the device).
    pub fn scan_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new(i, 1), true),
            RequestClass::Sequential,
            QosPolicy::NonCachingNonEviction,
        )
    }

    /// Scattered single-block random reads at mixed priorities — exercises
    /// cache management; no transfers merge.
    pub fn random_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new((i * 17) % (BLOCKS * 2), 1), false),
            RequestClass::Random,
            QosPolicy::priority(2 + (i % 5) as u8),
        )
    }

    /// Deterministic address scatter (multiplicative hashing), so each
    /// request class spreads over every shard instead of correlating with
    /// `i % 8`, and re-reference distances vary enough that replacement
    /// policies actually diverge.
    fn mix(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33
    }

    /// A deterministic blend of all four request shapes — a re-referenced
    /// hot random set (reuse the policies can protect), one-shot cold
    /// random reads and fresh sequential scan traffic (pollution
    /// pressure), buffered updates over a write-hot region and
    /// temporary-data writes — the workload the cache-policy sweep runs,
    /// because replacement policies only diverge when admission, eviction
    /// and reuse all happen.
    pub fn mixed_request(i: u64) -> ClassifiedRequest {
        match i % 8 {
            // Hot random reads over half the cache capacity.
            0 | 1 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(mix(i) % (BLOCKS / 2), 1), false),
                RequestClass::Random,
                QosPolicy::priority(2 + (i % 5) as u8),
            ),
            // Cold random reads: mostly one-shot pollution.
            2 | 3 => ClassifiedRequest::new(
                IoRequest::read(BlockRange::new(10_000 + mix(i + 7_919) % 50_000, 1), false),
                RequestClass::Random,
                QosPolicy::priority(2 + (i % 5) as u8),
            ),
            // A fresh table scan: 4-block adjacent sequential transfers
            // covering every shard (and mergeable on the device).
            4 | 5 => ClassifiedRequest::new(
                IoRequest::read(
                    BlockRange::new(100_000 + (i / 8) * 8 + if i % 8 == 5 { 4 } else { 0 }, 4),
                    true,
                ),
                RequestClass::Sequential,
                QosPolicy::NonCachingNonEviction,
            ),
            // Buffered updates over a small write-hot region (dirty
            // blocks the write-aware policies treat differently).
            6 => ClassifiedRequest::new(
                IoRequest::write(BlockRange::new(mix(i ^ 0xABCD) % (BLOCKS / 4), 1), false),
                RequestClass::Update,
                QosPolicy::WriteBuffer,
            ),
            // Temporary-data writes, mostly one-shot and dirty.
            _ => ClassifiedRequest::new(
                IoRequest::write(
                    BlockRange::new(50_000 + mix(i + 31) % (BLOCKS / 2), 1),
                    false,
                ),
                RequestClass::TemporaryData,
                QosPolicy::priority(1),
            ),
        }
    }

    /// Hot blocks of the contended-read workload: exactly one per shard,
    /// shared by every thread (the "index root page" shape). Because each
    /// shard has a single hot block, the optimistic hit descriptor of
    /// every shard stays permanently armed no matter how threads
    /// interleave — the workload isolates pure lock-path cost.
    pub const HOT_SET: u64 = SHARDS as u64;
    /// Hot reads per contended run.
    pub const HOT_READS: u64 = 2_000;

    /// The `i`-th hot read of the contended workload: a single-block
    /// priority-2 random read that rotates over the [`HOT_SET`] every 16
    /// requests. Threads sharing this schedule pile onto the same shard —
    /// worst case for an exclusive hot path, best case for an optimistic
    /// shared one.
    pub fn hot_read(i: u64) -> ClassifiedRequest {
        ClassifiedRequest::new(
            IoRequest::read(BlockRange::new((i / 16) % HOT_SET, 1), false),
            RequestClass::Random,
            QosPolicy::priority(2),
        )
    }

    /// A sharded cache pre-warmed for the contended hot-read workload:
    /// the [`HOT_SET`] is resident (first pass allocates) and every
    /// shard's optimistic hit descriptor is armed (second pass hits), so
    /// every subsequent [`hot_read`] is a cache hit. Statistics are reset
    /// after warm-up.
    pub fn warmed_cache() -> CacheEngine {
        let cache = CacheEngine::new(&bench_storage(1));
        for _ in 0..2 {
            for b in 0..HOT_SET {
                cache.submit(hot_read(b * 16));
            }
        }
        cache.reset_stats();
        cache
    }

    /// Drives `reads` hot reads of the [`hot_read`] schedule through
    /// `cache` on the calling thread.
    pub fn contended_hot_reads(cache: &CacheEngine, reads: u64) {
        for i in 0..reads {
            cache.submit(hot_read(i));
        }
    }

    /// The workloads' cache engine: [`BLOCKS`] blocks over [`SHARDS`]
    /// shards at device queue depth `queue_depth`, running the paper's
    /// policy unless the caller sets another.
    pub fn bench_storage(queue_depth: usize) -> StorageConfig {
        StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS)
            .with_shards(SHARDS)
            .with_queue_depth(queue_depth)
    }

    /// Drives [`TOTAL_SUBMITS`] requests of the given shape through `cache`
    /// in `batch`-sized vectored submissions (batch 1 degenerates to the
    /// per-request `submit` path).
    pub fn drive(cache: &CacheEngine, batch: usize, make: impl Fn(u64) -> ClassifiedRequest) {
        let mut buf = Vec::with_capacity(batch);
        for i in 0..TOTAL_SUBMITS {
            buf.push(make(i));
            if buf.len() == batch {
                cache.submit_batch(std::mem::take(&mut buf));
            }
        }
        if !buf.is_empty() {
            cache.submit_batch(buf);
        }
    }

    /// Runs a fixed mixed-shape query workload through the query service
    /// at **one worker** — fully deterministic: the closed-loop driver
    /// executes every stream's head query in stream order, then the
    /// follow-ups generation by generation — and returns the simulated
    /// per-request latency percentiles in milliseconds: `(p50, p99)`.
    ///
    /// The workload mixes sequential scans, random index lookups and
    /// temporary spills across 24 streams so the latency distribution has
    /// a genuine tail; being simulated device time, the percentiles are
    /// bit-identical on every machine and serve as gated CI rows.
    pub fn service_latency_percentiles() -> (f64, f64) {
        let mut catalog = Catalog::new();
        let table = catalog.register("orders", ObjectKind::Table, BlockRange::new(0u64, 600));
        let index = catalog.register("idx", ObjectKind::Index, BlockRange::new(20_000u64, 80));
        catalog.set_temp_region(BlockRange::new(50_000u64, 2_000));
        let seq = |passes| {
            PlanTree::new(
                "seq",
                PlanNode::leaf(OperatorKind::SeqScan, Access::SeqScan { table, passes }),
            )
        };
        let lookup = |lookups| {
            PlanTree::new(
                "rand",
                PlanNode::leaf(
                    OperatorKind::IndexScan,
                    Access::IndexScan {
                        index,
                        table,
                        lookups,
                        index_hot_fraction: 0.5,
                        table_hot_fraction: 0.2,
                    },
                ),
            )
        };
        let spill = |blocks| {
            PlanTree::new(
                "spill",
                PlanNode::leaf(
                    OperatorKind::Hash,
                    Access::TempSpill {
                        blocks,
                        read_passes: 1,
                    },
                ),
            )
        };
        let streams: Vec<StreamSpec> = (0..24u64)
            .map(|i| StreamSpec {
                name: format!("s{i}"),
                queries: match i % 4 {
                    0 => vec![seq(1), lookup(40)],
                    1 => vec![lookup(80), spill(24)],
                    2 => vec![spill(48), seq(1)],
                    _ => vec![lookup(20), seq(2)],
                },
            })
            .collect();
        let storage: Arc<dyn StorageSystem> =
            StorageConfig::new(StorageConfigKind::HStorageDb, BLOCKS).build_shared();
        let registry = ConcurrencyRegistry::new();
        let report = run_streams_service(
            ExecutorConfig {
                buffer_pool_blocks: 128,
                ..ExecutorConfig::default()
            },
            ServiceConfig {
                workers: 1,
                queue_depth: 8,
            },
            PolicyConfig::paper_default(),
            &registry,
            &streams,
            &catalog,
            &storage,
        );
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        (
            ms(report.latency.p50().expect("non-empty workload")),
            ms(report.latency.p99().expect("non-empty workload")),
        )
    }

    /// Runs the mixed workload once under `kind` and returns the two
    /// deterministic figures the CI gate tracks per policy: simulated
    /// device seconds and the overall cache hit ratio.
    pub fn mixed_policy_run(kind: CachePolicyKind) -> (f64, f64) {
        let cache = CacheEngine::new(&bench_storage(QUEUE_DEPTH).with_cache_policy(kind));
        drive(&cache, 64, mixed_request);
        let totals = cache.stats().totals();
        let hit_ratio = if totals.accessed_blocks == 0 {
            0.0
        } else {
            totals.cache_hits as f64 / totals.accessed_blocks as f64
        };
        (cache.now().as_secs_f64(), hit_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(report_concurrency_scale().scale_factor <= report_scale().scale_factor);
    }
}
