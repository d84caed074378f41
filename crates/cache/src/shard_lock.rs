//! The lock every shard visit takes (see `ARCHITECTURE.md`, "Why shard
//! lock waiters never park").
//!
//! A reader-writer spin lock over one `AtomicU32`: a writer bit and a
//! reader count. Acquiring is one `compare_exchange`; releasing a write
//! is a plain `Release` store. A lock whose waiters may sleep must learn
//! at release time whether one did, which takes a locked read-modify-write
//! (`std`'s `fetch_sub`); this one never puts a waiter to sleep — waiters
//! spin, then `yield_now()` — so its writer releases with no locked
//! instruction at all. Readers are only the engine's read-only probes;
//! their release is a `fetch_sub`, and a writer waits until they leave.
//!
//! There is no poisoning: a guard releases the lock when a panic unwinds
//! through it, and the next holder sees whatever the panicking one left.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::hint::spin_loop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;

/// The state bit a writer holds; the bits below it count readers.
const WRITER: u32 = 1 << 31;

/// Backoff rounds that spin (`2^k` pauses in round `k`) before every
/// further retry yields the CPU instead.
const SPIN_ROUNDS: u32 = 6;

/// A reader-writer lock whose waiters spin and yield but never park.
pub(crate) struct ShardLock<T> {
    /// `WRITER` while a writer holds the lock, else the number of readers.
    state: AtomicU32,
    data: UnsafeCell<T>,
}

// SAFETY: the lock hands out `&mut T` to one writer at a time and `&T` to
// readers only while no writer holds it (`state`'s Acquire/Release pairs
// order each holder's accesses after the previous holder's), so sharing
// the lock across threads moves `T` between them (`T: Send`) and shares
// `&T` among readers (`T: Sync`), as `std::sync::RwLock` requires. The
// `state` field is an atomic and safe to share.
unsafe impl<T: Send + Sync> Sync for ShardLock<T> {}

impl<T> ShardLock<T> {
    /// An unlocked lock around `value`.
    pub(crate) fn new(value: T) -> Self {
        ShardLock {
            state: AtomicU32::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Exclusive access, waiting for the current holders to leave.
    #[inline]
    pub(crate) fn write(&self) -> ShardWriteGuard<'_, T> {
        if self
            .state
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.write_contended();
        }
        ShardWriteGuard { lock: self }
    }

    /// The write slow path: test-and-test-and-set with backoff.
    #[cold]
    #[inline(never)]
    fn write_contended(&self) {
        let mut round = 0;
        loop {
            if self.state.load(Ordering::Relaxed) == 0
                && self
                    .state
                    .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            backoff(&mut round);
        }
    }

    /// Shared access, waiting while a writer holds the lock.
    pub(crate) fn read(&self) -> ShardReadGuard<'_, T> {
        let mut round = 0;
        loop {
            let state = self.state.load(Ordering::Relaxed);
            if state & WRITER == 0 {
                assert!(state + 1 < WRITER, "shard lock reader count overflow");
                if self
                    .state
                    .compare_exchange_weak(state, state + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return ShardReadGuard { lock: self };
                }
            }
            backoff(&mut round);
        }
    }

    /// The value, through the exclusive borrow that proves no guard lives.
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// One wait between retries: `2^round` spin pauses for the first
/// `SPIN_ROUNDS` rounds, a `yield_now()` for every round after.
fn backoff(round: &mut u32) {
    if *round < SPIN_ROUNDS {
        for _ in 0..1u32 << *round {
            spin_loop();
        }
        *round += 1;
    } else {
        thread::yield_now();
    }
}

/// Exclusive access to a [`ShardLock`]'s value; releases on drop.
#[must_use = "the lock is released as soon as the guard drops"]
pub(crate) struct ShardWriteGuard<'a, T> {
    lock: &'a ShardLock<T>,
}

impl<T> Deref for ShardWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard's existence means the state is `WRITER` and
        // this guard set it, so no other guard can reach the value.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for ShardWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; the `&mut self` borrow of the one write
        // guard makes this the only live reference to the value.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for ShardWriteGuard<'_, T> {
    fn drop(&mut self) {
        // Readers never change the state while the writer bit is set, so
        // a plain store releases; Release publishes the holder's writes to
        // the next Acquire.
        self.lock.state.store(0, Ordering::Release);
    }
}

/// Shared access to a [`ShardLock`]'s value; releases on drop.
#[must_use = "the lock is released as soon as the guard drops"]
pub(crate) struct ShardReadGuard<'a, T> {
    lock: &'a ShardLock<T>,
}

impl<T> Deref for ShardReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard counts in the state's reader count, and no
        // writer acquires the lock until that count reaches zero, so only
        // shared references to the value exist while it lives.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for ShardReadGuard<'_, T> {
    fn drop(&mut self) {
        // Release orders this reader's loads before the next writer's
        // Acquire.
        self.lock.state.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// How long a waiter must stay blocked to count as blocked.
    const BLOCKED: Duration = Duration::from_millis(50);
    /// Bound on any wait expected to end: a broken lock fails the test
    /// instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(30);

    /// Runs `f` on a thread of its own and returns its result once it
    /// reports in, failing with `what` if it does not within `PATIENCE`
    /// (the thread is then left behind, spinning).
    fn bounded<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || tx.send(f()).expect("receiver outlives the wait"));
        let out = rx
            .recv_timeout(PATIENCE)
            .unwrap_or_else(|_| panic!("{what}"));
        handle.join().expect("bounded thread panicked");
        out
    }

    #[test]
    fn writers_exclude_each_other_and_publish_their_writes() {
        const THREADS: u64 = 8;
        const INCREMENTS: u64 = 100_000;
        let total = bounded("a writer never got the lock", || {
            let lock = Arc::new(ShardLock::new(0u64));
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    thread::spawn(move || {
                        for _ in 0..INCREMENTS {
                            *lock.write() += 1;
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("incrementing thread panicked");
            }
            let total = *lock.read();
            total
        });
        assert_eq!(total, THREADS * INCREMENTS);
    }

    #[test]
    fn readers_share_the_lock_and_a_writer_waits_for_both() {
        let lock = Arc::new(ShardLock::new(()));
        let first = lock.read();
        let second = lock.read();
        let (tx, rx) = mpsc::channel();
        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let _guard = lock.write();
                tx.send(()).expect("receiver outlives the writer");
            })
        };
        assert!(
            rx.recv_timeout(BLOCKED).is_err(),
            "a writer must wait for the readers"
        );
        drop(first);
        assert!(
            rx.recv_timeout(BLOCKED).is_err(),
            "a writer must wait for the last reader"
        );
        drop(second);
        rx.recv_timeout(PATIENCE)
            .expect("the writer gets the lock once the readers leave");
        writer.join().expect("writer panicked");
    }

    #[test]
    fn a_writer_blocks_readers_until_it_releases() {
        let lock = Arc::new(ShardLock::new(1u32));
        let mut guard = lock.write();
        let (tx, rx) = mpsc::channel();
        let reader = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let seen = *lock.read();
                tx.send(seen).expect("receiver outlives the reader");
            })
        };
        assert!(
            rx.recv_timeout(BLOCKED).is_err(),
            "a reader must wait for the writer"
        );
        *guard = 2;
        drop(guard);
        let seen = rx
            .recv_timeout(PATIENCE)
            .expect("the reader gets the lock once the writer leaves");
        reader.join().expect("reader panicked");
        assert_eq!(seen, 2, "the reader sees the writer's store");
    }

    #[test]
    fn a_panic_inside_a_write_guard_releases_the_lock() {
        let lock = Arc::new(ShardLock::new(1u32));
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = lock.write();
            *guard = 2;
            panic!("unwinding out of the guard");
        }));
        assert!(panicked.is_err());
        let seen = bounded("the lock stayed held after the panic", move || {
            let mut guard = lock.write();
            *guard += 1;
            *guard
        });
        assert_eq!(seen, 3, "no poisoning: the panicking holder's store stays");
    }
}
