//! Simulated time.
//!
//! All device service times are accounted against a [`SimClock`]. The clock
//! only ever moves forward; experiments read it before and after a workload
//! to obtain the simulated elapsed time that stands in for the wall-clock
//! execution times the paper reports.
//!
//! The clock sits on the hot path of every request, shared by every device
//! of a storage system and — with the threaded workload driver — by every
//! executing stream, so it is lock-free: a single `AtomicU64` advanced with
//! `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing virtual clock, shared between the devices of
/// one simulated storage system.
///
/// The clock is cheap to clone; clones share the same underlying counter.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Duration {
        self.advance_nanos(nanos(d))
    }

    /// Advances the clock by a number of nanoseconds and returns the new
    /// time.
    ///
    /// Saturates at `u64::MAX` nanoseconds (~584 years of virtual time)
    /// instead of wrapping, preserving the semantics of the earlier
    /// `u128`-based implementation.
    #[inline]
    pub fn advance_nanos(&self, delta: u64) -> Duration {
        let prev = self.nanos.fetch_add(delta, Ordering::Relaxed);
        match prev.checked_add(delta) {
            Some(new) => Duration::from_nanos(new),
            None => {
                // The counter wrapped; clamp it back to the saturation
                // point. Concurrent advances may briefly observe the wrapped
                // value, but every path through here restores the maximum.
                self.nanos.store(u64::MAX, Ordering::Relaxed);
                Duration::from_nanos(u64::MAX)
            }
        }
    }

    /// Resets the clock to zero. Used between independent experiment runs.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// `d` in whole nanoseconds, saturating at `u64::MAX` like the clock.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
    }

    #[test]
    fn advances_monotonically() {
        let c = SimClock::new();
        c.advance(Duration::from_millis(5));
        c.advance(Duration::from_micros(250));
        assert_eq!(c.now(), Duration::from_micros(5250));
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance(Duration::from_secs(1));
        assert_eq!(c2.now(), Duration::from_secs(1));
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(3));
        c.reset();
        assert_eq!(c.now(), Duration::ZERO);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let c = SimClock::new();
        c.advance(Duration::from_nanos(u64::MAX - 10));
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
        // Further advances stay pinned at the maximum.
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn concurrent_advances_sum_exactly() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance_nanos(3);
                    }
                });
            }
        });
        assert_eq!(c.now(), Duration::from_nanos(4 * 10_000 * 3));
    }
}
