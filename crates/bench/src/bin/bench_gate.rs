//! CI performance-regression gate.
//!
//! Runs the quick submit workloads of `hstorage_bench::workload`, writes
//! the measurements to `BENCH_report.json` as machine-readable
//! `PaperComparison`-style rows, compares them against the committed
//! `BENCH_baseline.json`, and exits non-zero if any metric regressed by
//! more than 25%.
//!
//! Every row is measured in *simulated* device time, which is
//! deterministic — identical on every machine — so any drift is a real
//! behaviour change in the storage model, the batching pipeline or a
//! cache policy. (Host speed is `hbench`'s job, see `benchmark/`.) Most
//! row values are oriented so that **higher is better**; the latency and
//! replay-time rows are **lower is better** and are gated with the
//! mirrored condition (fail when measured exceeds baseline ÷ 0.75). The
//! rows include a mixed-workload throughput *and* hit-ratio row per
//! selectable cache policy, so a silent change to any replacement
//! algorithm fails the gate; on top of the baseline comparison, ARC's hit
//! ratio must never fall below engine-LRU's (the adaptive policy's
//! acceptance criterion). The query-service rows run a fixed stream
//! workload through the bounded-worker service at one worker and gate the
//! simulated p50/p99 request latencies. The tier-migration rows run the
//! phase-shift workload with and without the background migration engine:
//! the migration-off hit ratio pins the engine's default behaviour
//! bit-for-bit, and migration-on must strictly beat it (the migration
//! acceptance criterion, gated baseline-free like the ARC one).
//!
//! A metric missing from the baseline is an error: renaming or adding
//! rows requires refreshing the baseline, otherwise the gate would
//! silently guard nothing.
//!
//! Usage:
//! `bench_gate [--baseline <path>] [--report <path>]
//! [--update-baseline | --check-baseline]`
//!
//! `--update-baseline` rewrites the baseline from this run — the same file
//! on any machine — and ends with a changed-vs-unchanged summary so a bump
//! that was expected to be a no-op is visible as one.
//! `--check-baseline` fails — writing nothing — if `--update-baseline`
//! would change any row: the CI guard against behaviour changes shipped
//! without a baseline refresh.

use hstorage::experiments::{crash_recovery, tier_migration};
use hstorage::report::{comparisons_from_json, comparisons_to_json, format_table, PaperComparison};
use hstorage_bench::workload::{
    bench_storage, contended_hot_reads, drive, mixed_policy_run, random_read, scan_read,
    service_latency_percentiles, warmed_cache, HOT_READS, QUEUE_DEPTH, TOTAL_SUBMITS,
};
use hstorage_cache::{CacheEngine, CachePolicyKind, StorageSystem};

/// A metric fails when it drops below this fraction of the baseline.
const REGRESSION_FLOOR: f64 = 0.75;

/// One gate metric: the value measured this run and its orientation
/// (latency rows are lower-is-better; everything else higher-is-better).
/// The orientation is in-memory only — the JSON rows stay shape-compatible
/// with `PaperComparison`.
struct Measurement {
    metric: String,
    value: f64,
    lower_is_better: bool,
}

/// Simulated device seconds for a batched scan at the given queue depth —
/// deterministic, so it is a bit-stable regression guard for the storage
/// timing model and the merge pipeline.
fn sim_scan_seconds(queue_depth: usize) -> f64 {
    let cache = CacheEngine::new(&bench_storage(queue_depth));
    drive(&cache, 64, scan_read);
    cache.now().as_secs_f64()
}

/// Deterministic simulated seconds for the random-shaped workload — guards
/// the cache-management and random-service paths the scan metric misses.
fn sim_random_seconds() -> f64 {
    let cache = CacheEngine::new(&bench_storage(QUEUE_DEPTH));
    drive(&cache, 64, random_read);
    cache.now().as_secs_f64()
}

/// Runs the contended hot-read workload single-threaded (deterministic)
/// and returns the fraction of hot-path visits the engine served under
/// the shared side of the shard lock.
fn hot_read_fast_path_rate() -> f64 {
    let cache = warmed_cache();
    contended_hot_reads(&cache, HOT_READS);
    cache.stats().contention.fast_path_rate()
}

fn main() {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut report_path = "BENCH_report.json".to_string();
    let mut update_baseline = false;
    let mut check_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--report" => report_path = args.next().expect("--report needs a path"),
            "--update-baseline" => update_baseline = true,
            "--check-baseline" => check_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_gate [--baseline <path>] [--report <path>] \
                     [--update-baseline | --check-baseline]"
                );
                std::process::exit(2);
            }
        }
    }
    if update_baseline && check_baseline {
        eprintln!("bench_gate: --update-baseline and --check-baseline are mutually exclusive");
        std::process::exit(2);
    }

    println!("bench_gate: quick submit workload ({TOTAL_SUBMITS} submits per run)");
    let sim_unbatched = sim_scan_seconds(1);
    let sim_batched = sim_scan_seconds(QUEUE_DEPTH);
    let sim_random = sim_random_seconds();
    let mut measurements = vec![
        Measurement {
            metric: "sim: scan device throughput at queue depth 32 (submits/sim-s)".into(),
            value: TOTAL_SUBMITS as f64 / sim_batched,
            lower_is_better: false,
        },
        Measurement {
            metric: "sim: scan queue-merge device-time speedup at depth 32 (x)".into(),
            value: sim_unbatched / sim_batched,
            lower_is_better: false,
        },
        Measurement {
            metric: "sim: random workload device throughput (submits/sim-s)".into(),
            value: TOTAL_SUBMITS as f64 / sim_random,
            lower_is_better: false,
        },
    ];
    // One mixed-workload run per selectable policy contributes two rows:
    // simulated device throughput (a behaviour change in any replacement
    // algorithm shifts it) and the overall hit ratio (which also feeds the
    // ARC-vs-LRU acceptance check below).
    let mut policy_hit_ratio = Vec::new();
    for kind in CachePolicyKind::all() {
        let (sim_seconds, hit_ratio) = mixed_policy_run(kind);
        measurements.push(Measurement {
            metric: format!(
                "sim: {} policy mixed-workload device throughput (submits/sim-s)",
                kind.label()
            ),
            value: TOTAL_SUBMITS as f64 / sim_seconds,
            lower_is_better: false,
        });
        measurements.push(Measurement {
            metric: format!("sim: {} policy mixed-workload hit ratio", kind.label()),
            value: hit_ratio,
            lower_is_better: false,
        });
        policy_hit_ratio.push((kind, hit_ratio));
    }
    // Query-service request-latency percentiles at one worker. Gated
    // lower-is-better — a tail blow-up in the executor, the storage model
    // or the service's scheduling fails the gate even if throughput rows
    // stay flat. The workload issues 48 requests, so p99 is its maximum.
    let (lat_p50, lat_p99) = service_latency_percentiles();
    for (name, value) in [("p50", lat_p50), ("p99", lat_p99)] {
        measurements.push(Measurement {
            metric: format!("sim: service 1-worker request latency {name} (sim-ms)"),
            value,
            lower_is_better: true,
        });
    }
    // Tier migration under the phase-shifting workload: simulated, fully
    // deterministic. The migration-off hit ratio pins the PR 7 baseline
    // behaviour bit-for-bit (migration defaults to off, so any drift here
    // is a foreground-path change); the migration-on rows pin the
    // migration engine's outcome at the shipped knob values.
    let tier = tier_migration::run();
    for (name, value) in [
        (
            "sim: tier-migration phase-shift hit ratio, migration off",
            tier.off.hit_ratio,
        ),
        (
            "sim: tier-migration phase-shift hit ratio, migration on",
            tier.on.hit_ratio,
        ),
        (
            "sim: tier-migration phase-shift hit-ratio gain, on/off (x)",
            tier.hit_gain(),
        ),
    ] {
        measurements.push(Measurement {
            metric: name.into(),
            value,
            lower_is_better: false,
        });
    }
    // Crash recovery from the write-ahead journal: simulated, fully
    // deterministic (fixed workload, fixed crash seeds). The replay-time
    // row pins the cost of recovering the full log; the records row pins
    // the log shape (framing or workload drift shows up here); the ratio
    // row pins losslessness — full-log recovery must rebuild exactly the
    // clean run's resident set.
    let recovery = crash_recovery::run();
    measurements.push(Measurement {
        metric: "sim: recovery full-log replay time (sim-s)".into(),
        value: recovery.full.replay_sim,
        lower_is_better: true,
    });
    for (name, value) in [
        (
            "sim: recovery full-log records replayed",
            recovery.full.records_replayed as f64,
        ),
        (
            "sim: recovery blocks-recovered ratio, full log (1 = lossless)",
            recovery.blocks_recovered_ratio(),
        ),
    ] {
        measurements.push(Measurement {
            metric: name.into(),
            value,
            lower_is_better: false,
        });
    }
    // The lock-light hot path must actually be taken on the workload it
    // exists for (its equivalence to the locked path is pinned by
    // `tests/contention.rs` and `tests/accounting.rs`).
    let hot_fast_rate = hot_read_fast_path_rate();
    measurements.push(Measurement {
        metric: "sim: contended hot-read optimistic fast-path hit rate (1 thread)".into(),
        value: hot_fast_rate,
        lower_is_better: false,
    });

    if update_baseline {
        let old = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|text| comparisons_from_json(&text).ok())
            .unwrap_or_default();
        // Changed-vs-unchanged summary against the committed values: a
        // no-op bump should read "0 changed".
        let (mut changed, mut unchanged) = (0, 0);
        let rows: Vec<PaperComparison> = measurements
            .iter()
            .map(|m| {
                match old.iter().find(|r| r.metric == m.metric) {
                    Some(r) if r.measured == m.value => {
                        unchanged += 1;
                        println!("  unchanged  {} = {:.3}", m.metric, m.value);
                    }
                    Some(r) => {
                        changed += 1;
                        println!(
                            "  changed    {}: {:.3} -> {:.3}",
                            m.metric, r.measured, m.value
                        );
                    }
                    None => {
                        changed += 1;
                        println!("  added      {} = {:.3}", m.metric, m.value);
                    }
                }
                PaperComparison::new(m.metric.clone(), m.value, m.value)
            })
            .collect();
        std::fs::write(&baseline_path, comparisons_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write {baseline_path}: {e}");
            std::process::exit(1);
        });
        std::fs::write(&report_path, comparisons_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write {report_path}: {e}");
            std::process::exit(1);
        });
        println!("summary: {changed} row(s) changed, {unchanged} unchanged");
        println!("baseline written to {baseline_path}");
        return;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match comparisons_from_json(&text) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("bench_gate: cannot parse {baseline_path}: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read {baseline_path}: {e} \
                 (run with --update-baseline to create it)"
            );
            std::process::exit(1);
        }
    };
    let baseline_value = |metric: &str| -> Option<f64> {
        baseline
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.measured)
    };

    if check_baseline {
        // The committed baseline is stale iff any row differs from its
        // committed value. Baseline floats are written in shortest
        // round-trip form, so the equality below is bit-exact, not a
        // tolerance band.
        let mut drift = Vec::new();
        for m in &measurements {
            match baseline_value(&m.metric) {
                Some(v) if v == m.value => {}
                Some(v) => drift.push(format!(
                    "{}: committed {v} != regenerated {}",
                    m.metric, m.value
                )),
                None => drift.push(format!("{}: missing from {baseline_path}", m.metric)),
            }
        }
        if drift.is_empty() {
            println!(
                "bench_gate: baseline is current ({} sim rows bit-identical)",
                measurements.len()
            );
            return;
        }
        for d in &drift {
            eprintln!("bench_gate: STALE BASELINE: {d}");
        }
        eprintln!(
            "bench_gate: {baseline_path} no longer matches the code — refresh it \
             with --update-baseline and commit the result"
        );
        std::process::exit(1);
    }

    let mut failures = Vec::new();

    // Report rows: `paper` holds the baseline value, `measured` the value
    // from this run — the same shape the paper-fidelity comparisons use. A
    // metric with no baseline row is an error, not a silent self-baseline.
    let report: Vec<PaperComparison> = measurements
        .iter()
        .map(|m| {
            let base = baseline_value(&m.metric);
            if base.is_none() {
                failures.push(format!(
                    "{}: no row in {baseline_path} — refresh it with --update-baseline",
                    m.metric
                ));
            }
            PaperComparison::new(m.metric.clone(), base.unwrap_or(m.value), m.value)
        })
        .collect();
    for stale in baseline
        .iter()
        .filter(|b| measurements.iter().all(|m| m.metric != b.metric))
    {
        eprintln!(
            "bench_gate: warning: baseline row {:?} matches no measured metric (stale?)",
            stale.metric
        );
    }

    let rows: Vec<Vec<String>> = report
        .iter()
        .map(|r| {
            vec![
                r.metric.clone(),
                format!("{:.3}", r.paper),
                format!("{:.3}", r.measured),
                format!("{:.2}", r.measured / r.paper),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["metric", "baseline", "measured", "ratio"], &rows)
    );

    std::fs::write(&report_path, comparisons_to_json(&report)).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot write {report_path}: {e}");
        std::process::exit(1);
    });
    println!("report written to {report_path}");

    // Acceptance criterion of the lock-light hot path, baseline-free: it
    // must actually take its fast path.
    if hot_fast_rate <= 0.0 {
        failures.push(
            "optimistic fast path served no hot-read hits (rate 0) — the \
             lock-light path is not engaging"
                .to_string(),
        );
    }
    // Acceptance criterion of the adaptive policy, also baseline-free:
    // self-tuning ARC must hit at least as often as engine-LRU on the
    // mixed workload (scan pollution plus a reused random set is exactly
    // the shape ARC exists to win).
    let hit_of = |kind: CachePolicyKind| {
        policy_hit_ratio
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| *h)
            .expect("every policy was measured")
    };
    let (arc_hits, lru_hits) = (hit_of(CachePolicyKind::Arc), hit_of(CachePolicyKind::Lru));
    if arc_hits < lru_hits {
        failures.push(format!(
            "ARC mixed-workload hit ratio ({arc_hits:.4}) fell below engine-LRU's \
             ({lru_hits:.4})"
        ));
    }
    // Acceptance criterion of the migration engine, also baseline-free:
    // enabling migration must strictly raise the hit ratio on the
    // phase-shift workload (the whole point of following working-set
    // shifts that selective eviction alone cannot).
    if tier.on.hit_ratio <= tier.off.hit_ratio {
        failures.push(format!(
            "tier migration did not improve the phase-shift hit ratio \
             ({:.4} on vs {:.4} off)",
            tier.on.hit_ratio, tier.off.hit_ratio
        ));
    }
    for (m, row) in measurements.iter().zip(&report) {
        // Lower-is-better rows (latencies) gate with the mirrored
        // condition: fail when measured exceeds baseline / floor.
        if m.lower_is_better {
            if row.measured > row.paper / REGRESSION_FLOOR {
                failures.push(format!(
                    "{}: measured {:.3} exceeds baseline {:.3} by more than {:.0}%",
                    row.metric,
                    row.measured,
                    row.paper,
                    (1.0 / REGRESSION_FLOOR - 1.0) * 100.0
                ));
            }
        } else if row.measured < REGRESSION_FLOOR * row.paper {
            failures.push(format!(
                "{}: measured {:.3} is below {:.0}% of baseline {:.3}",
                row.metric,
                row.measured,
                REGRESSION_FLOOR * 100.0,
                row.paper
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_gate: REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "bench_gate: all metrics within {:.0}% of baseline",
        REGRESSION_FLOOR * 100.0
    );
}
