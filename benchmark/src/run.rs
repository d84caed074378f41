//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics, the ledger and the self-checks that need two runs).

use crate::estimate::summarize;
use crate::json::Value;
use crate::ladder::{self, Effort};
use crate::machine;
use crate::metrics::{Reading, Readings};
use crate::trace::{ratio, Kind, Recorder};
use crate::workload::{self, Checks, Measured, Plan, Size, WorkloadId};
use hstorage_cache::CacheAction;
use hstorage_storage::RequestClass;
use std::path::Path;
use std::sync::Arc;

/// Segments of an untraced run (the estimator wants at least 16) and of
/// each half of a traced run.
const SEGMENTS: usize = 16;
const TRACED_SEGMENTS: usize = 4;
/// Set-up is performed this many times in an untraced run; `setup_s` is
/// the median.
const SETUP_ROUNDS: usize = 3;

/// What a run reports.
pub struct Outcome {
    pub readings: Vec<Reading>,
    pub checks: Checks,
    /// Findings worth a line of their own in the human-readable output.
    pub notes: Vec<String>,
}

/// End-to-end metrics, tracing off.
pub fn untraced(id: WorkloadId, size: Size) -> Outcome {
    let measured = workload::run(
        id,
        &Plan {
            size,
            segments: SEGMENTS,
            setup_rounds: SETUP_ROUNDS,
            recorder: None,
        },
    );
    let mut readings = Readings::end_to_end();
    readings.set("setup_s", summarize(&measured.setup_s));
    readings.set("queries_per_s", measured.queries_per_s());
    readings.set("requests_per_s", measured.requests_per_s());
    readings.set("query_ms_p50", measured.query_ms(0.50));
    readings.set("query_ms_p99", measured.query_ms(0.99));
    readings.set_exact("sim_s", measured.sim_s);
    readings.set_exact("sim_hit_ratio", measured.hit_ratio());
    let mut checks = Checks::default();
    let rss = machine::peak_rss_mib();
    checks.check(rss.is_some(), || "VmHWM is not readable".to_string());
    readings.set_exact("peak_rss_mib", rss.unwrap_or(0.0));

    let samples = measured.segments[0].latencies_ns.len();
    let per_segment: Vec<String> = measured
        .segments
        .iter()
        .map(|s| format!("{:.0}x{:.2}", s.wall.as_secs_f64() * 1e3, s.speed))
        .collect();
    let notes = vec![
        format!(
            "{} segments of fixed work, {} thread(s), {samples} latency samples per segment",
            measured.segments.len(),
            measured.threads
        ),
        format!(
            "host times are calibrated (x speed factor); raw segment wall ms x factor: {}",
            per_segment.join(" ")
        ),
        format!(
            "raw query_ms_p99 per segment: {}",
            measured
                .segments
                .iter()
                .map(|s| format!(
                    "{:.3}",
                    crate::estimate::percentile(&mut s.latencies_ns.clone(), 0.99) / 1e6
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    checks.absorb(measured.checks);
    Outcome {
        readings: readings.finish(),
        checks,
        notes,
    }
}

/// Per-layer metrics: the same seed run untraced and traced (tracing must
/// be pure), a quick pair of runs on neighbouring seeds (the seed must
/// matter), the ladder, and the ledger that sets them against each other.
pub fn traced(id: WorkloadId, size: Size, machine: &Value, trace_file: &Path) -> Outcome {
    let half = |recorder: Option<Arc<Recorder>>| Plan {
        size,
        segments: TRACED_SEGMENTS,
        setup_rounds: 1,
        recorder,
    };
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let plain = workload::run(id, &half(None));
    let recorder = Recorder::new();
    let allocs_before = crate::alloc::counted();
    let traced = workload::run(id, &half(Some(Arc::clone(&recorder))));
    let allocs_after = crate::alloc::counted();

    // Tracing is pure: same simulated time, same decisions, same devices.
    checks.check(
        plain.sim_s == traced.sim_s && plain.stats == traced.stats,
        || {
            format!(
                "tracing changed the simulation: {} s and hit ratio {} untraced, \
                 {} s and {} traced",
                plain.sim_s,
                plain.hit_ratio(),
                traced.sim_s,
                traced.hit_ratio()
            )
        },
    );
    checks.check(plain.input_fingerprint == traced.input_fingerprint, || {
        "one seed generated two different inputs".to_string()
    });

    // The seed matters: neighbouring seeds give different inputs and
    // (where any simulated cost depends on the addresses) different time.
    let quick = |seed| {
        workload::run(
            id,
            &Plan {
                size: Size {
                    seed,
                    quick: true,
                    ..size
                },
                segments: TRACED_SEGMENTS,
                setup_rounds: 1,
                recorder: None,
            },
        )
    };
    let (here, next) = (quick(size.seed), quick(size.seed.wrapping_add(1)));
    checks.check(here.input_fingerprint != next.input_fingerprint, || {
        "seeds n and n+1 generated the same inputs".to_string()
    });
    if id != WorkloadId::CacheHits {
        // On cache_hits every request is a one-block SSD read: the same
        // simulated cost whatever the address.
        checks.check(here.sim_s != next.sim_s, || {
            format!("seeds n and n+1 both simulated {} s", here.sim_s)
        });
    }

    let rungs = ladder::run(
        if size.quick {
            Effort::quick()
        } else {
            Effort::full()
        },
        size.seed,
    );

    let mut readings = Readings::per_layer();
    for (name, ns) in &rungs {
        readings.set_exact(name, *ns);
    }
    let rung = |name: &str| {
        rungs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .expect("the ladder has this rung")
    };

    // Span times are raw; one factor — the median speed of the traced
    // segments — puts them in the calibrated units of the ladder and of
    // the end-to-end metrics. Shares are ratios of raw to raw.
    let speed = traced.per_segment(|s| s.speed).median;
    let wall_ns = traced.wall().as_nanos() as f64;
    // Thread time available to the workload: its threads, but no more
    // than the CPUs they can run on (one when the process is pinned).
    let busy_threads = traced.threads.min(machine::cpus_in_use());
    let capacity_ns = wall_ns * busy_threads as f64;
    let requests = traced.requests() as f64;
    let t = |kind: Kind| recorder.totals(kind);

    // Spans.
    readings.set_exact("tpch.build_plan_ns", t(Kind::BuildPlan).mean_ns() * speed);
    readings.set_exact("engine.plan.build_ns", t(Kind::PlanBuild).mean_ns() * speed);
    let run_query_ns = t(Kind::RunQuery).ns() as f64;
    // On `power` every storage call is made inside a `run_query` span.
    let executor_self_ns = if run_query_ns > 0.0 {
        run_query_ns - recorder.storage_ns() as f64
    } else {
        0.0
    };
    readings.set_exact(
        "engine.executor.self_ns_per_request",
        ratio(executor_self_ns, requests) * speed,
    );
    readings.set_exact(
        "engine.executor.self_share",
        ratio(executor_self_ns, run_query_ns),
    );
    let spans = recorder.query_spans();
    for (metric, label) in [
        ("engine.executor.self_share_q9", "Q9"),
        ("engine.executor.self_share_q21", "Q21"),
    ] {
        let of_query: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == Kind::RunQuery && s.label == label)
            .collect();
        let span_ns: u64 = of_query.iter().map(|s| s.end_ns - s.start_ns).sum();
        let storage_ns: u64 = of_query.iter().map(|s| s.storage_ns).sum();
        let self_ns = span_ns.saturating_sub(storage_ns);
        readings.set_exact(metric, ratio(self_ns as f64, span_ns as f64));
        if !of_query.is_empty() {
            let per_run_ms = |ns: u64| ns as f64 / 1e6 / of_query.len() as f64;
            notes.push(format!(
                "{label}: run_query {:.1} ms = executor {:.1} ms + storage calls {:.1} ms \
                 (raw, mean of {} runs)",
                per_run_ms(span_ns),
                per_run_ms(self_ns),
                per_run_ms(storage_ns),
                of_query.len()
            ));
        }
    }
    readings.set_exact(
        "engine.service.submit_ns_p50",
        t(Kind::ServiceSubmit).hist.percentile(0.50) * speed,
    );
    readings.set_exact(
        "engine.service.workers",
        if id == WorkloadId::ServiceMix {
            (traced.threads - 1) as f64
        } else {
            0.0
        },
    );
    readings.set_exact("cache.submit.calls", t(Kind::Submit).calls() as f64);
    readings.set_exact(
        "cache.submit.ns_p50",
        t(Kind::Submit).hist.percentile(0.50) * speed,
    );
    readings.set_exact(
        "cache.submit.ns_p99",
        t(Kind::Submit).hist.percentile(0.99) * speed,
    );
    readings.set_exact(
        "cache.submit.busy_share",
        ratio(t(Kind::Submit).ns() as f64, capacity_ns),
    );
    readings.set_exact(
        "cache.submit_batch.calls",
        t(Kind::SubmitBatch).calls() as f64,
    );
    readings.set_exact(
        "cache.submit_batch.ns_per_block",
        ratio(
            t(Kind::SubmitBatch).ns() as f64,
            t(Kind::SubmitBatch).blocks() as f64,
        ) * speed,
    );
    readings.set_exact("cache.trim.ns_per_call", t(Kind::Trim).mean_ns() * speed);
    readings.set_exact(
        "cache.migrate_idle.ns_per_call",
        t(Kind::MigrateIdle).mean_ns() * speed,
    );

    // Counts, from the traced run's timed work.
    let stats = &traced.stats;
    let (pool_hits, pool_misses) = traced.buffer_pool;
    readings.set_exact(
        "engine.buffer_pool.hit_ratio",
        ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
    );
    readings.set_exact(
        "cache.hit_ratio_random",
        stats.class(RequestClass::Random).hit_ratio(),
    );
    for (metric, action) in [
        ("cache.read_allocations", CacheAction::ReadAllocation),
        ("cache.write_allocations", CacheAction::WriteAllocation),
        ("cache.evictions", CacheAction::Eviction),
        ("cache.bypassed_blocks", CacheAction::Bypassing),
        ("cache.write_buffer_flushes", CacheAction::WriteBufferFlush),
        ("cache.trimmed_blocks", CacheAction::Trim),
    ] {
        readings.set_exact(metric, stats.action(action) as f64);
    }
    readings.set_exact(
        "cache.lock_acquisitions_per_request",
        ratio(stats.contention.lock_acquisitions as f64, requests),
    );
    readings.set_exact("cache.fast_path_rate", stats.contention.fast_path_rate());
    let mut device_host_ns = 0.0;
    for (prefix, device, serve_rung) in [
        ("storage.ssd", &stats.ssd, "storage.ssd.serve_ns"),
        ("storage.hdd", &stats.hdd, "storage.hdd.serve_ns"),
    ] {
        let device = device.clone().unwrap_or_default();
        readings.set_exact(
            &format!("{prefix}.requests"),
            device.total_requests() as f64,
        );
        readings.set_exact(&format!("{prefix}.blocks"), device.total_blocks() as f64);
        readings.set_exact(
            &format!("{prefix}.busy_sim_s"),
            device.busy_time.as_secs_f64(),
        );
        device_host_ns += device.total_requests() as f64 * rung(serve_rung);
    }
    readings.set_exact("storage.sim_s", traced.sim_s);

    // Allocations inside the traced run's timed regions.
    let (allocs, bytes) = (
        allocs_after.0 - allocs_before.0,
        allocs_after.1 - allocs_before.1,
    );
    readings.set_exact("alloc.allocs_per_request", ratio(allocs as f64, requests));
    readings.set_exact("alloc.bytes_per_request", ratio(bytes as f64, requests));

    // The ledger. Storage spans minus what the device models cost alone
    // is the cache's own time; thread time no span covers is unexplained
    // (the executor inside service workers, idle workers, loop and timer
    // overhead) — a finding to print, never a failure.
    let storage_ns = recorder.storage_ns() as f64;
    readings.set_exact(
        "ledger.cache_self_ns_est",
        ratio(
            storage_ns * speed - device_host_ns,
            recorder.storage_calls() as f64,
        ),
    );
    let covered_ns =
        (t(Kind::BuildPlan).ns() + t(Kind::PlanBuild).ns() + t(Kind::ServiceSubmit).ns()) as f64
            + if run_query_ns > 0.0 {
                run_query_ns
            } else {
                storage_ns
            };
    let unexplained = 1.0 - ratio(covered_ns, capacity_ns);
    readings.set_exact("ledger.unexplained_share", unexplained);
    let median_seconds = |m: &Measured| m.per_segment(|s| s.seconds()).median;
    let overhead = median_seconds(&traced) / median_seconds(&plain) - 1.0;
    readings.set_exact("trace.overhead_share", overhead);
    notes.push(format!(
        "ledger: {:.1} % of {} CPU(s) x {:.2} s traced wall is inside spans \
         ({:.1} % in storage calls); {:.1} % is unexplained; tracing cost {:+.1} % wall",
        100.0 * (1.0 - unexplained),
        busy_threads,
        wall_ns / 1e9,
        100.0 * ratio(storage_ns, capacity_ns),
        100.0 * unexplained,
        100.0 * overhead,
    ));

    let trace = Value::obj([
        ("workload", Value::str(id.name())),
        ("seed", Value::from(size.seed)),
        ("machine", machine.clone()),
        ("segments", Value::from(traced.segments.len() as u64)),
        ("threads", Value::from(traced.threads as u64)),
        ("wall_ns", Value::from(wall_ns)),
        ("trace", recorder.to_json()),
    ]);
    let written = trace_file
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_file, format!("{trace}\n")));
    checks.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", trace_file.display())
    });

    for measured in [plain, traced, here, next] {
        checks.absorb(measured.checks);
    }
    Outcome {
        readings: readings.finish(),
        checks,
        notes,
    }
}
