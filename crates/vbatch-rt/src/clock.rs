//! The process-wide monotonic clock.
//!
//! Time is read through [`MonoTimer`], a monotonic-clamped wrapper over
//! a raw nanosecond clock. `Instant` is documented as monotonic, but
//! under VM clock steps (live migration, host suspend) raw readings
//! have been observed to regress on some platforms; the timer absorbs
//! any backwards step by clamping to the largest reading seen so far,
//! so deltas are never negative. [`monotonic_ns`] exposes the
//! process-wide clamped clock — the timestamp source for the
//! [`crate::trace`] event rings and the `vbatch-serve` deadlines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A raw nanosecond clock. The production implementation reads
/// `Instant`; tests inject fake clocks that step backwards to exercise
/// the clamping in [`MonoTimer`].
pub trait RawClock {
    /// Current reading in nanoseconds since an arbitrary fixed origin.
    fn raw_ns(&self) -> u64;
}

/// The production clock: nanoseconds since the first reading in this
/// process (a lazily pinned `Instant` epoch).
#[derive(Clone, Copy, Debug, Default)]
pub struct StdClock;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl RawClock for StdClock {
    fn raw_ns(&self) -> u64 {
        epoch().elapsed().as_nanos() as u64
    }
}

/// A monotonic-clamped view over a [`RawClock`]: every reading is at
/// least as large as every earlier reading, even if the raw clock steps
/// backwards. Thread-safe; the clamp is a single relaxed `fetch_max`.
#[derive(Debug, Default)]
pub struct MonoTimer<C: RawClock> {
    clock: C,
    last: AtomicU64,
}

impl<C: RawClock> MonoTimer<C> {
    /// Wrap `clock` with a fresh high-water mark.
    pub const fn new(clock: C) -> Self {
        MonoTimer {
            clock,
            last: AtomicU64::new(0),
        }
    }

    /// Clamped current reading in nanoseconds: `max` of the raw clock
    /// and every reading previously returned by this timer.
    pub fn now_ns(&self) -> u64 {
        let raw = self.clock.raw_ns();
        let prev = self.last.fetch_max(raw, Ordering::Relaxed);
        raw.max(prev)
    }
}

static GLOBAL_TIMER: MonoTimer<StdClock> = MonoTimer::new(StdClock);

/// Process-wide monotonic timestamp in nanoseconds (clamped against
/// backwards clock steps). Allocation-free and lock-free: one `Instant`
/// read plus one relaxed `fetch_max`.
pub fn monotonic_ns() -> u64 {
    GLOBAL_TIMER.now_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted clock that replays a fixed sequence of raw readings,
    /// including backwards steps.
    struct FakeClock {
        readings: Mutex<std::vec::IntoIter<u64>>,
    }

    impl FakeClock {
        fn new(readings: Vec<u64>) -> Self {
            FakeClock {
                readings: Mutex::new(readings.into_iter()),
            }
        }
    }

    impl RawClock for FakeClock {
        fn raw_ns(&self) -> u64 {
            self.readings
                .lock()
                .unwrap()
                .next()
                .expect("fake clock exhausted")
        }
    }

    #[test]
    fn mono_timer_clamps_backwards_steps() {
        // raw clock jumps back twice (1000 -> 400, 1500 -> 200)
        let timer = MonoTimer::new(FakeClock::new(vec![100, 1000, 400, 1200, 1500, 200, 1600]));
        let mut prev = 0u64;
        let mut got = Vec::new();
        for _ in 0..7 {
            let t = timer.now_ns();
            assert!(t >= prev, "timer regressed: {t} < {prev}");
            prev = t;
            got.push(t);
        }
        // backwards raw readings are clamped to the running maximum
        assert_eq!(got, [100, 1000, 1000, 1200, 1500, 1500, 1600]);
    }

    #[test]
    fn global_monotonic_ns_advances() {
        let a = monotonic_ns();
        let mut b = monotonic_ns();
        for _ in 0..1000 {
            b = monotonic_ns();
            assert!(b >= a);
        }
        assert!(b >= a);
    }
}
