//! Calibrated host time.
//!
//! The boxes this benchmark runs on are shared virtual machines whose
//! speed is not constant: on the authoring machine a fixed single-thread
//! loop alternates, every 2–10 s, between a fast regime and one about
//! 1.4× slower (a neighbour on the same core), and whole 10 s runs land in
//! either. A median of segments cannot see through that — all segments of
//! a run may share a regime — so raw wall-clock medians of identical runs
//! differed by 25 %.
//!
//! The remedy is ROADMAP 1e's: express host time relative to an
//! in-process calibration kernel. The kernel (a fixed xorshift walk over a
//! 4 MiB table: arithmetic plus cache misses, like the code under test)
//! runs for ~20 ms immediately before and after every timed region; the
//! region's wall time is multiplied by `REFERENCE / measured kernel time`.
//! The result is *calibrated seconds*: the time the region would take on a
//! machine that runs the kernel in exactly [`REFERENCE`]. Ratios of region
//! to kernel held within 1 % across regimes where raw times moved 40 %.
//! Every host-time metric, bounded or not, is in calibrated units; the raw
//! median speed factor is printed beside them.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Kernel time of the reference machine: the authoring machine's fast
/// regime, so calibrated seconds read like its wall-clock seconds.
pub const REFERENCE: Duration = Duration::from_millis(20);

const TABLE_WORDS: usize = 1 << 19;
const STEPS: u32 = 8_000_000;

/// Runs the calibration kernel once and returns how long it took.
fn kernel() -> Duration {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let start = Instant::now();
    let mut x = 88_172_645_463_325_252_u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(table[x as usize & (TABLE_WORDS - 1)]);
    }
    black_box(acc);
    start.elapsed()
}

/// Times `body` with the kernel run before and after it. Returns the
/// result, the raw wall time and the speed factor to multiply it by
/// (below 1 when the machine was slower than the reference).
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = kernel();
    let start = Instant::now();
    let out = body();
    let wall = start.elapsed();
    let after = kernel();
    let speed = 2.0 * REFERENCE.as_secs_f64() / (before + after).as_secs_f64();
    (out, wall, speed)
}
