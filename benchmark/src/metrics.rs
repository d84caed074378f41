//! The metric vocabulary: every end-to-end and per-layer metric with its
//! unit and direction, in the order it is printed.
//!
//! `BENCHMARK.json` declares the same lists; `tests/contract.rs` fails if
//! the two ever disagree, so the bounds `--compare` applies are the bounds
//! the driver applies.

use crate::estimate::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Simulated-time metrics repeat exactly for one seed and one driver;
/// host-time metrics do not.
pub fn is_simulated(name: &str) -> bool {
    name.starts_with("sim_")
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p99",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.06,
    },
    EndToEnd {
        name: "sim_hit_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.06,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A per-layer metric: `(name, unit, direction)`. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

pub const PER_LAYER: [PerLayer; 55] = [
    // tpch
    ("tpch.build_plan_ns", "ns", Lower),
    // engine
    ("engine.plan.build_ns", "ns", Lower),
    ("engine.compile_ns", "ns", Lower),
    ("engine.policy_table.assign_ns.random", "ns", Lower),
    ("engine.policy_table.assign_ns.sequential", "ns", Lower),
    ("engine.policy_table.assign_ns.temp", "ns", Lower),
    ("engine.policy_table.assign_ns.update", "ns", Lower),
    ("engine.buffer_pool.access_ns", "ns", Lower),
    ("engine.buffer_pool.hit_ratio", "ratio", Higher),
    ("engine.executor.self_ns_per_request", "ns", Lower),
    ("engine.executor.self_share", "ratio", Lower),
    ("engine.executor.self_share_q9", "ratio", Lower),
    ("engine.executor.self_share_q21", "ratio", Lower),
    ("engine.service.roundtrip_ns", "ns", Lower),
    ("engine.service.submit_ns_p50", "ns", Lower),
    ("engine.service.workers", "count", Higher),
    // cache: spans and ladder
    ("cache.submit.calls", "count", Lower),
    ("cache.submit.ns_p50", "ns", Lower),
    ("cache.submit.ns_p99", "ns", Lower),
    ("cache.submit.busy_share", "ratio", Lower),
    ("cache.submit.hit_ns", "ns", Lower),
    ("cache.submit.miss_ns", "ns", Lower),
    ("cache.submit.repeat_hit_ns", "ns", Lower),
    ("cache.submit.contended_hit_ns", "ns", Lower),
    ("cache.submit.contended_threads", "count", Higher),
    ("cache.submit_batch.calls", "count", Lower),
    ("cache.submit_batch.ns_per_block", "ns", Lower),
    ("cache.trim.ns_per_call", "ns", Lower),
    ("cache.migrate_idle.ns_per_call", "ns", Lower),
    ("cache.stats.snapshot_ns", "ns", Lower),
    // cache: decision counts
    ("cache.hit_ratio_random", "ratio", Higher),
    ("cache.read_allocations", "count", Lower),
    ("cache.write_allocations", "count", Lower),
    ("cache.evictions", "count", Lower),
    ("cache.bypassed_blocks", "count", Lower),
    ("cache.write_buffer_flushes", "count", Lower),
    ("cache.trimmed_blocks", "count", Lower),
    ("cache.lock_acquisitions_per_request", "ratio", Lower),
    ("cache.fast_path_rate", "ratio", Higher),
    // storage
    ("storage.ssd.serve_ns", "ns", Lower),
    ("storage.hdd.serve_ns", "ns", Lower),
    ("storage.ssd.serve_batch_ns_per_req", "ns", Lower),
    ("storage.clock.advance_ns", "ns", Lower),
    ("storage.ssd.requests", "count", Lower),
    ("storage.ssd.blocks", "count", Lower),
    ("storage.ssd.busy_sim_s", "sim_s", Lower),
    ("storage.hdd.requests", "count", Lower),
    ("storage.hdd.blocks", "count", Lower),
    ("storage.hdd.busy_sim_s", "sim_s", Lower),
    ("storage.sim_s", "sim_s", Lower),
    // the benchmark's own ledger
    ("alloc.allocs_per_request", "count", Lower),
    ("alloc.bytes_per_request", "B", Lower),
    ("ledger.cache_self_ns_est", "ns", Lower),
    ("ledger.unexplained_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
];

/// A measured value with the quartiles of the segments it came from.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Readings in vocabulary order; filling one twice or leaving one out is a
/// bug in this program, caught before anything is printed.
pub struct Readings {
    units: Vec<(&'static str, &'static str)>,
    values: Vec<Option<Summary>>,
}

impl Readings {
    pub fn end_to_end() -> Self {
        Self::new(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> Self {
        Self::new(PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    }

    fn new(units: Vec<(&'static str, &'static str)>) -> Self {
        Readings {
            values: vec![None; units.len()],
            units,
        }
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        let index = self
            .units
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric vocabulary"));
        assert!(self.values[index].is_none(), "{name} was measured twice");
        self.values[index] = Some(summary);
    }

    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn finish(self) -> Vec<Reading> {
        self.units
            .into_iter()
            .zip(self.values)
            .map(|((name, unit), summary)| Reading {
                name,
                unit,
                summary: summary.unwrap_or_else(|| panic!("{name} was never measured")),
            })
            .collect()
    }
}
