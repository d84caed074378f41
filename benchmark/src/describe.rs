//! `BENCHMARK.json`, generated from the tables this program measures by:
//! `hbench --describe > BENCHMARK.json`. A test fails if the committed file
//! and this output ever differ.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::WorkloadId;

/// Seconds one run measures, and what the frozen work counts were sized
/// for: `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Why each workload exists, as `BENCHMARK.json` states it.
pub fn why(id: WorkloadId) -> &'static str {
    match id {
        WorkloadId::Power => {
            "TPC-H power test at SF 1 on a fresh system per pass: the paper's headline run and \
             the only path through every crate; data exceeds cache and buffer pool"
        }
        WorkloadId::ServiceMix => {
            "4e5 short requests through QueryService, 4 in flight: the only workload where the \
             service layer is a visible share of a request and p99 is not the maximum"
        }
        WorkloadId::CacheMixed => {
            "direct submit/submit_batch/trim mix, working set far larger than the cache: misses, \
             eviction, write buffer and TRIM dominate; bypasses tpch and engine"
        }
        WorkloadId::CacheHits => {
            "resident working set, every submit a hit, each address four times in a row: lock \
             path, device model and clock dominate; the read-only counterpart of cache_mixed"
        }
    }
}

/// The whole of `BENCHMARK.json`, from the tables this program uses.
pub fn describe() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.into_iter().map(Value::str).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WorkloadId::ALL
                    .into_iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(why(w)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", Value::str(*name)),
                            ("unit", Value::str(*unit)),
                            ("better", Value::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `describe()` laid out one entry per line, as the file is committed.
pub fn describe_pretty() -> String {
    let doc = describe();
    let mut out = String::from("{\n");
    let pairs = doc.as_obj().expect("describe() builds an object");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let last = if i + 1 == pairs.len() { "" } else { "," };
        match value.as_arr() {
            Some(items) if items.iter().any(|v| v.as_obj().is_some()) => {
                out += &format!("  \"{key}\": [\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out += &format!("    {item}{comma}\n");
                }
                out += &format!("  ]{last}\n");
            }
            _ => out += &format!("  \"{key}\": {value}{last}\n"),
        }
    }
    out + "}\n"
}
