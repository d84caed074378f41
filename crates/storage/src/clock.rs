//! Simulated time.
//!
//! All device service times are accounted against a [`SimClock`]. The clock
//! only ever moves forward; experiments read it before and after a workload
//! to obtain the simulated elapsed time that stands in for the wall-clock
//! execution times the paper reports.
//!
//! The clock sits on the hot path of every request, shared by every device
//! of a storage system and — with the threaded workload driver — by every
//! executing stream, so it is lock-free. It is a sum of counters, each on a
//! cache line of its own:
//!
//! * the **base**, an `AtomicU64` any holder of the clock advances with
//!   `fetch_add`: the devices advance it for the transfers they serve
//!   outside a cache shard;
//! * a fixed set of **lanes**, created with the clock
//!   ([`SimClock::with_lanes`]). A [`ClockLane`] has exactly one owner —
//!   it is not `Clone`, and advancing it takes `&mut self` — so the owner
//!   advances it with a plain load and store, no locked read-modify-write,
//!   and no other writer ever pulls its line away. A cache engine gives
//!   each shard one lane, written under that shard's write lock: every
//!   request priced under the lock, repeat hits included, advances it.
//!
//! [`SimClock::now`] is the base plus every lane. Each counter only grows,
//! so successive readings by one thread never go backwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One counter of the clock, alone on its cache line so its writer never
/// shares the line with another counter's.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Counter(AtomicU64);

impl Counter {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What every clone of a clock shares: the base and the lanes.
#[derive(Debug, Default)]
struct Shared {
    base: Counter,
    lanes: Box<[Arc<Counter>]>,
}

/// A monotonically increasing virtual clock, shared between the devices of
/// one simulated storage system.
///
/// The clock is cheap to clone; clones share the same counters.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    shared: Arc<Shared>,
}

impl SimClock {
    /// Creates a clock at time zero, with no lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock at time zero with `lanes` lanes, returning the clock
    /// and the lanes' sole handles.
    pub fn with_lanes(lanes: usize) -> (SimClock, Vec<ClockLane>) {
        let counters: Vec<Arc<Counter>> = (0..lanes).map(|_| Arc::default()).collect();
        let handles = counters
            .iter()
            .map(|nanos| ClockLane {
                nanos: Arc::clone(nanos),
            })
            .collect();
        let shared = Shared {
            base: Counter::default(),
            lanes: counters.into_boxed_slice(),
        };
        let clock = SimClock {
            shared: Arc::new(shared),
        };
        (clock, handles)
    }

    /// Current virtual time: the base plus every lane, saturating at
    /// `u64::MAX` nanoseconds.
    pub fn now(&self) -> Duration {
        let Shared { base, lanes } = &*self.shared;
        let sum = lanes
            .iter()
            .fold(base.get(), |sum, lane| sum.saturating_add(lane.get()));
        Duration::from_nanos(sum)
    }

    /// Advances the clock's base by `d` and returns the base's new reading:
    /// the clock's time if it has no lanes. It leaves the lanes unread,
    /// because device transfers advance the base on their hot paths and
    /// none of them reads the result; [`Self::now`] adds the lanes.
    ///
    /// Saturates at `u64::MAX` nanoseconds (~584 years of virtual time)
    /// instead of wrapping, preserving the semantics of the earlier
    /// `u128`-based implementation.
    #[inline]
    pub fn advance(&self, d: Duration) -> Duration {
        let delta = nanos(d);
        let base = &self.shared.base.0;
        let prev = base.fetch_add(delta, Ordering::Relaxed);
        match prev.checked_add(delta) {
            Some(new) => Duration::from_nanos(new),
            None => {
                // The counter wrapped; clamp it back to the saturation
                // point. Concurrent advances may briefly observe the wrapped
                // value, but every path through here restores the maximum.
                base.store(u64::MAX, Ordering::Relaxed);
                Duration::from_nanos(u64::MAX)
            }
        }
    }
}

/// The sole handle of one lane of a [`SimClock`] (see the module docs).
/// Only its owner can advance it, so an advance is a relaxed load and
/// store. It cannot be cloned:
///
/// ```compile_fail
/// let (_clock, lanes) = hstorage_storage::SimClock::with_lanes(1);
/// let _second = lanes[0].clone();
/// ```
#[derive(Debug)]
pub struct ClockLane {
    nanos: Arc<Counter>,
}

impl ClockLane {
    /// Advances the lane — and with it its clock — by `d`, saturating at
    /// `u64::MAX` nanoseconds.
    #[inline]
    pub fn advance(&mut self, d: Duration) {
        let lane = &self.nanos.0;
        // `&mut self` makes this the lane's only writer, so nothing lands
        // between the load and the store; whatever handed the lane to this
        // thread (for an engine shard, its write lock) ordered the previous
        // store before the load. The value publishes nothing else.
        let next = lane.load(Ordering::Relaxed).saturating_add(nanos(d));
        lane.store(next, Ordering::Relaxed);
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
                        c.advance(Duration::from_nanos(3));
                    }
                });
            }
        });
        assert_eq!(c.now(), Duration::from_nanos(4 * 10_000 * 3));
    }

    #[test]
    fn now_is_the_base_plus_every_lane() {
        let (c, mut lanes) = SimClock::with_lanes(3);
        let reader = c.clone();
        c.advance(Duration::from_nanos(100));
        lanes[0].advance(Duration::from_nanos(20));
        lanes[2].advance(Duration::from_nanos(3));
        lanes[2].advance(Duration::from_nanos(4));
        assert_eq!(reader.now(), Duration::from_nanos(127));
        // A base advance reports the base alone.
        assert_eq!(
            c.advance(Duration::from_nanos(1000)),
            Duration::from_nanos(1100)
        );
        assert_eq!(reader.now(), Duration::from_nanos(1127));
        assert_eq!(SimClock::with_lanes(0).1.len(), 0);
    }

    #[test]
    fn lanes_saturate_with_the_base() {
        let (c, mut lanes) = SimClock::with_lanes(2);
        c.advance(Duration::from_nanos(u64::MAX - 10));
        lanes[0].advance(Duration::from_nanos(6));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX - 4));
        // The lanes together pass the maximum: the sum pins there.
        lanes[1].advance(Duration::from_nanos(6));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
        // One lane alone saturates too, and stays pinned.
        lanes[1].advance(Duration::MAX);
        lanes[1].advance(Duration::from_secs(1));
        c.advance(Duration::from_nanos(1));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn lane_owners_and_base_writers_sum_exactly() {
        let (c, lanes) = SimClock::with_lanes(4);
        std::thread::scope(|s| {
            for mut lane in lanes {
                s.spawn(move || {
                    for _ in 0..10_000 {
                        lane.advance(Duration::from_nanos(5));
                    }
                });
            }
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance(Duration::from_nanos(3));
                    }
                });
            }
        });
        assert_eq!(c.now(), Duration::from_nanos(4 * 10_000 * (5 + 3)));
    }
}
