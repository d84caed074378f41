//! The machine fingerprint printed above every run, CPU pinning, and peak
//! memory.

use crate::json::Value;
use std::process::Command;
use std::sync::OnceLock;

/// CPUs this process may use, counted once — before [`pin`] narrows the
/// affinity mask that `available_parallelism` reads.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The CPU the process is pinned to, if pinning worked.
static PINNED: OnceLock<Option<usize>> = OnceLock::new();

fn set_affinity(cpus: &str) -> bool {
    // `taskset -cp` changes the calling (main) thread; threads spawned
    // afterwards inherit its mask. No libc is vendored and std has no
    // affinity call, hence the tool. `output` waits for the child.
    Command::new("taskset")
        .args(["-cp", cpus, &std::process::id().to_string()])
        .output()
        .is_ok_and(|out| out.status.success())
}

/// Pins the process to its last CPU (CPU 0 serves most interrupts) and
/// returns it; `None`, and no pinning, where `taskset` is missing. Call it
/// before any thread is spawned: threads inherit the mask they start with.
///
/// One CPU, because on the shared 2-vCPU guests this runs on a thread's
/// speed depends on *which* vCPU it is on and on whether the other one is
/// busy: the calibration kernel must run where the work runs, and
/// `service_mix`'s driver/worker hand-off is a context switch on one CPU
/// but a hypervisor-mediated wake-up across two (p99 spread 4 % against
/// 11–43 %, at equal throughput). `hbench` therefore measures single-CPU
/// cost and makes no claim about parallel speed-up.
pub fn pin() -> Option<usize> {
    *PINNED.get_or_init(|| {
        let cpu = nproc() - 1;
        set_affinity(&cpu.to_string()).then_some(cpu)
    })
}

/// CPUs the process can run on right now: one when pinned.
pub fn cpus_in_use() -> usize {
    match PINNED.get() {
        Some(Some(_)) => 1,
        _ => nproc(),
    }
}

/// Runs `body` with every CPU allowed again (the contended ladder rung
/// needs real parallelism), then restores the pin.
pub fn with_all_cpus<T>(body: impl FnOnce() -> T) -> T {
    let pinned = PINNED.get().copied().flatten();
    if pinned.is_some() {
        set_affinity(&format!("0-{}", nproc() - 1));
    }
    let out = body();
    if let Some(cpu) = pinned {
        set_affinity(&cpu.to_string());
    }
    out
}

/// First line of a command's standard output, or "unknown". The child is
/// waited for (`output` does), so nothing outlives the benchmark.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Commit, core count, pinned CPU, CPU model and compiler: what a number
/// is only comparable within.
pub fn header() -> Value {
    Value::obj([
        // A driver's checkout is not a git repository: "unknown" there.
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::from(nproc() as u64)),
        (
            "pinned_cpu",
            PINNED
                .get()
                .copied()
                .flatten()
                .map_or(Value::Null, |cpu| Value::from(cpu as u64)),
        ),
        (
            "cpu",
            Value::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("rustc", Value::Str(first_line("rustc", &["-V"]))),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}
