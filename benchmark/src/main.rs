//! `hbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//!        [--quick] [--record SET.json] [--out-dir DIR]
//! hbench --compare A.json B.json
//! hbench --describe            # prints BENCHMARK.json
//! ```
//!
//! A run prints a machine header and one line per metric, then — as the
//! last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero if any
//! self-check failed.

use hbench::describe::{describe_pretty, RUN_SECONDS};
use hbench::json::Value;
use hbench::workload::{Size, WorkloadId};
use hbench::{alloc, compare, machine, run};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: WorkloadId,
    size: Size,
    trace: bool,
    record: Option<PathBuf>,
    out_dir: PathBuf,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    Describe,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut size = Size {
        seed: 1,
        seconds: RUN_SECONDS,
        quick: false,
    };
    let mut trace = false;
    let mut record = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WorkloadId::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => size.seed = number(value()?)?,
            "--seconds" => {
                size.seconds = number(value()?)?;
                if !(1..=60).contains(&size.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => size.quick = true,
            "--record" => record = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--describe" => return Ok(Command::Describe),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        size,
        trace,
        record,
        out_dir,
    }))
}

fn run(args: Args) -> ExitCode {
    machine::pin();
    let machine = machine::header();
    println!(
        "# hbench workload={} seed={} seconds={} trace={} quick={}",
        args.workload.name(),
        args.size.seed,
        args.size.seconds,
        u8::from(args.trace),
        args.size.quick
    );
    println!("# machine {machine}");

    let outcome = if args.trace {
        let file = args
            .out_dir
            .join(format!("trace-{}.json", args.workload.name()));
        run::traced(args.workload, args.size, &machine, &file)
    } else {
        run::untraced(args.workload, args.size)
    };
    let mut checks = outcome.checks;
    for reading in &outcome.readings {
        checks.check(reading.summary.median.is_finite(), || {
            format!("{} is not a finite number", reading.name)
        });
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    for r in &outcome.readings {
        println!(
            "{:<12} {:<42} {:>18.6} {:<6} iqr {:.2}%",
            args.workload.name(),
            r.name,
            r.summary.median,
            r.unit,
            100.0 * r.summary.iqr_share()
        );
    }
    println!(
        "{:<12} {:<42} {:>18.6} {:<6} ({} failed of {} attempted)",
        args.workload.name(),
        "failed_share",
        checks.failed as f64 / checks.attempted as f64,
        "ratio",
        checks.failed,
        checks.attempted
    );
    for failure in &checks.failures {
        eprintln!("hbench: FAILED: {failure}");
    }
    let correct = checks.failed == 0;

    if let Some(path) = &args.record {
        let run = compare::RunRecord {
            machine,
            workload: args.workload,
            size: args.size,
            trace: args.trace,
            correct,
            readings: &outcome.readings,
        };
        if let Err(e) = run.append_to(path) {
            eprintln!("hbench: cannot record to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let metrics = outcome.readings.iter().map(|r| {
        (
            r.name,
            Value::obj([
                ("value", Value::Num(r.summary.median)),
                ("unit", Value::str(r.unit)),
            ]),
        )
    });
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(checks.attempted)),
            ("failed", Value::from(checks.failed)),
            ("metrics", Value::obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(args)) => run(args),
        Ok(Command::Describe) => {
            print!("{}", describe_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("hbench: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("hbench: {e}");
            eprintln!(
                "usage: hbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] \
                 [--quick] [--record SET.json] [--out-dir DIR]\n       \
                 hbench --compare A.json B.json\n       hbench --describe"
            );
            ExitCode::from(2)
        }
    }
}
