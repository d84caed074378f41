//! Regenerates every table and figure of the paper's evaluation and prints
//! them, together with the paper-vs-measured comparison rows.
//!
//! Usage:
//! `cargo run --release -p hstorage-bench --bin run_experiments \
//!     [scale] [--check] [--only <name>]... [--report <path>]`
//!
//! * `scale` — optional TPC-H scale factor (default 0.1 for the
//!   single-query experiments, half of that for the sequence/concurrency
//!   experiments).
//! * `--check` — exit non-zero if any paper-vs-measured key ratio produced
//!   by the experiments that ran disagrees in *direction* with the paper —
//!   the CI paper-fidelity gate.
//! * `--only <name>` — run a single experiment instead of all of them
//!   (repeatable). Names: `fig4`, `fig5`, `fig6`, `fig9`, `fig11`,
//!   `table9`, `ablations`, `policy_comparison`, `policy_ablation`,
//!   `tier_migration`, `crash_recovery`. With `--check`, only the ratios
//!   of the selected experiments are gated.
//! * `--report <path>` — additionally write the key ratios of the
//!   experiments that ran as a JSON comparison file (the
//!   `BENCH_report.json` row schema), so CI can upload the run as an
//!   artifact.

use hstorage::experiments::{
    ablation, crash_recovery, fig11, fig4, fig5, fig6, fig9, policy_ablation, policy_comparison,
    table9, tier_migration,
};
use hstorage::report::{comparisons_to_json, PaperComparison};
use hstorage_tpch::TpchScale;

/// One named experiment: a banner, and a runner that prints its report and
/// returns the paper-vs-measured rows it contributes to the fidelity gate.
struct Experiment {
    name: &'static str,
    banner: &'static str,
    run: Box<dyn Fn() -> Vec<PaperComparison>>,
}

fn experiments(single_scale: TpchScale, long_scale: TpchScale) -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig4",
            banner: "Figure 4",
            run: Box::new(move || {
                println!("{}\n", fig4::run(single_scale));
                Vec::new()
            }),
        },
        Experiment {
            name: "fig5",
            banner: "Figure 5 / Table 4",
            run: Box::new(move || {
                let f5 = fig5::run(single_scale);
                println!("{f5}\n");
                vec![
                    PaperComparison::new(
                        "Q1 LRU slowdown vs HDD-only",
                        368.0 / 317.0,
                        f5.lru_slowdown("Q1").unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "Q19 LRU slowdown vs HDD-only",
                        315.0 / 252.0,
                        f5.lru_slowdown("Q19").unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "Q1 hStorage-DB overhead vs HDD-only",
                        1.0,
                        f5.hstorage_overhead("Q1").unwrap_or(0.0),
                    ),
                ]
            }),
        },
        Experiment {
            name: "fig6",
            banner: "Figure 6 / Tables 5-6",
            run: Box::new(move || {
                let f6 = fig6::run(single_scale);
                println!("{f6}\n");
                vec![
                    PaperComparison::new(
                        "Q9 SSD-only speedup vs HDD-only",
                        7.2,
                        f6.ssd_speedup("Q9").unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "Q21 SSD-only speedup vs HDD-only",
                        3.9,
                        f6.ssd_speedup("Q21").unwrap_or(0.0),
                    ),
                ]
            }),
        },
        Experiment {
            name: "fig9",
            banner: "Figure 9 / Table 7",
            run: Box::new(move || {
                let f9 = fig9::run(single_scale);
                println!("{f9}\n");
                vec![
                    PaperComparison::new(
                        "Q18 SSD-only speedup vs HDD-only",
                        1.45,
                        f9.ssd_speedup().unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "Q18 hStorage-DB speedup vs LRU",
                        1.2,
                        f9.hstorage_over_lru().unwrap_or(0.0),
                    ),
                ]
            }),
        },
        Experiment {
            name: "fig11",
            banner: "Figure 11 / Table 8",
            run: Box::new(move || {
                let f11 = fig11::run(long_scale);
                println!("{f11}\n");
                vec![PaperComparison::new(
                    "Power-test hStorage-DB speedup vs HDD-only (Table 8)",
                    86_009.0 / 39_132.0,
                    f11.hstorage_speedup().unwrap_or(0.0),
                )]
            }),
        },
        Experiment {
            name: "table9",
            banner: "Table 9 / Figure 12",
            run: Box::new(move || {
                let t9 = table9::run(long_scale);
                println!("{t9}\n");
                vec![
                    PaperComparison::new(
                        "Throughput hStorage-DB speedup vs HDD-only (Table 9)",
                        43.0 / 13.0,
                        t9.hstorage_over_hdd().unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "Throughput hStorage-DB speedup vs LRU (Table 9)",
                        43.0 / 28.0,
                        t9.hstorage_over_lru().unwrap_or(0.0),
                    ),
                ]
            }),
        },
        Experiment {
            name: "ablations",
            banner: "Ablations (not in the paper)",
            run: Box::new(move || {
                for p in ablation::write_buffer_sweep(long_scale, &[0.0, 0.05, 0.10, 0.25]) {
                    println!("write buffer {:>28}: {:.3} s", p.setting, p.seconds);
                }
                for p in ablation::priority_range_sweep(long_scale, &[4, 6, 8, 12]) {
                    println!("priority count {:>26}: {:.3} s", p.setting, p.seconds);
                }
                let (with_trim, without_trim) = ablation::trim_ablation(long_scale);
                println!("{:>41}: {:.3} s", with_trim.setting, with_trim.seconds);
                println!(
                    "{:>41}: {:.3} s\n",
                    without_trim.setting, without_trim.seconds
                );
                Vec::new()
            }),
        },
        Experiment {
            name: "policy_comparison",
            banner: "Policy comparison (cache-policy framework)",
            run: Box::new(move || {
                let pc = policy_comparison::run(long_scale);
                println!("{pc}\n");
                vec![PaperComparison::new(
                    "Q-mix semantic-priority speedup vs LRU on one engine",
                    1.2,
                    pc.semantic_over_lru().unwrap_or(0.0),
                )]
            }),
        },
        Experiment {
            name: "policy_ablation",
            banner: "Policy knob ablation (CFLRU window, 2Q Kin/Kout)",
            run: Box::new(move || {
                let pa = policy_ablation::run(long_scale);
                println!("{pa}\n");
                vec![
                    // Both expectations are directional consequences of
                    // the knob's definition, so they double as fidelity
                    // gates for the knob plumbing itself.
                    PaperComparison::new(
                        "CFLRU write-backs, window 5% vs 75% (knob ablation)",
                        1.2,
                        pa.cflru_writeback_saving().unwrap_or(0.0),
                    ),
                    PaperComparison::new(
                        "2Q hit ratio, Kin 10% vs 50% (knob ablation)",
                        1.1,
                        pa.two_q_probation_payoff().unwrap_or(0.0),
                    ),
                ]
            }),
        },
        Experiment {
            name: "tier_migration",
            banner: "Tier migration (phase-shifting workload)",
            run: Box::new(move || {
                let tm = tier_migration::run();
                println!("{tm}\n");
                vec![
                    // Both expectations restate the experiment's purpose
                    // as directions: migration must win the phase shift
                    // on hits and move the shifted set's traffic off the
                    // disk. The magnitudes are what the fixed workload
                    // measures at the shipped knob values.
                    PaperComparison::new(
                        "Phase-shift hit-ratio gain, migration on vs off",
                        5.5,
                        tm.hit_gain(),
                    ),
                    PaperComparison::new(
                        "Phase-shift HDD busy-time saving, migration on vs off",
                        5.0,
                        tm.hdd_saving(),
                    ),
                ]
            }),
        },
        Experiment {
            name: "crash_recovery",
            banner: "Crash recovery (fault-injected journal replay)",
            run: Box::new(move || {
                let cr = crash_recovery::run();
                println!("{cr}\n");
                vec![
                    // Recovery has no paper figure; the expectations are
                    // the invariant itself — every crash point converges,
                    // full-log recovery loses nothing and replays the
                    // same simulated traffic.
                    PaperComparison::new(
                        "Crash-point convergence rate",
                        1.0,
                        cr.convergence_rate(),
                    ),
                    PaperComparison::new(
                        "Blocks recovered from the full log",
                        1.0,
                        cr.blocks_recovered_ratio(),
                    ),
                    PaperComparison::new("Replay sim time vs clean run", 1.0, cr.sim_time_ratio()),
                ]
            }),
        },
    ]
}

fn main() {
    let mut arg_scale: Option<f64> = None;
    let mut check = false;
    let mut only: Vec<String> = Vec::new();
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let usage = "usage: run_experiments [scale] [--check] [--only <name>]... [--report <path>]";
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check = true;
        } else if arg == "--only" {
            match args.next() {
                Some(name) => only.push(name),
                None => {
                    eprintln!("--only needs an experiment name\n{usage}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--report" {
            match args.next() {
                Some(path) => report_path = Some(path),
                None => {
                    eprintln!("--report needs a path\n{usage}");
                    std::process::exit(2);
                }
            }
        } else if let Ok(scale) = arg.parse::<f64>() {
            arg_scale = Some(scale);
        } else {
            eprintln!("unknown argument: {arg}\n{usage}");
            std::process::exit(2);
        }
    }
    let single_scale = arg_scale
        .map(TpchScale::new)
        .unwrap_or_else(hstorage_bench::report_scale);
    let long_scale = arg_scale
        .map(|s| TpchScale::new((s / 2.0).max(0.01)))
        .unwrap_or_else(hstorage_bench::report_concurrency_scale);

    let experiments = experiments(single_scale, long_scale);
    for name in &only {
        if !experiments.iter().any(|e| e.name == name) {
            let known: Vec<&str> = experiments.iter().map(|e| e.name).collect();
            eprintln!(
                "unknown experiment {name:?}; available: {}",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }

    println!("hStorage-DB reproduction — experiment harness");
    println!(
        "single-query scale = {:.2}, sequence/concurrency scale = {:.2}\n",
        single_scale.scale_factor, long_scale.scale_factor
    );

    let mut comparisons = Vec::new();
    for experiment in &experiments {
        if !only.is_empty() && !only.iter().any(|n| n == experiment.name) {
            continue;
        }
        println!(
            "==================== {} ====================",
            experiment.banner
        );
        comparisons.extend((experiment.run)());
    }

    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, comparisons_to_json(&comparisons)) {
            eprintln!("run_experiments: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("key ratios written to {path}");
    }

    if comparisons.is_empty() {
        if check {
            println!("--check: the selected experiments contribute no key ratios");
        }
        return;
    }

    println!("==================== Paper vs measured (key ratios) ====================");
    for c in &comparisons {
        println!(
            "{:60} paper {:7.2}   measured {:7.2}   direction {}",
            c.metric,
            c.paper,
            c.measured,
            if c.same_direction() { "OK" } else { "MISMATCH" }
        );
    }
    let mismatches = comparisons.iter().filter(|c| !c.same_direction()).count();
    println!(
        "\n{} of {} key ratios agree in direction",
        comparisons.len() - mismatches,
        comparisons.len()
    );
    if check && mismatches > 0 {
        eprintln!("--check: {mismatches} key ratio(s) disagree with the paper's direction");
        std::process::exit(1);
    }
}
