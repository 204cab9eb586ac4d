//! Time sources: wall-clock for production, a manual clock for tests.
//!
//! Everything downstream (spans, phase histograms, pool lifecycle events)
//! reads time through the [`Clock`] trait, so an engine or a whole pool
//! can be handed a [`ManualClock`] and every reported duration becomes a
//! deterministic function of the number of clock reads — the property the
//! `:explain` and pool-timeline integration tests assert. Clocks are
//! `Send + Sync`: one clock is shared by a pool's router, its workers and
//! their engines, so every event of a request lives on one timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin.
    fn now_ns(&self) -> u64;
}

/// [`std::time::Instant`]-backed clock; the origin is the moment of
/// construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // Saturate at u64::MAX (≈584 years of uptime) rather than wrap.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic clock for tests: every [`Clock::now_ns`] read returns
/// the current time and then advances it by a fixed step, so a span that
/// reads the clock twice always measures exactly `step` (plus whatever was
/// advanced manually in between). Time saturates at `u64::MAX`; it never
/// wraps.
///
/// Reads are counted ([`ManualClock::reads`]) — the hook the "disabled
/// profiling / disabled telemetry performs zero clock reads" assertions
/// use.
#[derive(Debug)]
pub struct ManualClock {
    now: AtomicU64,
    step: AtomicU64,
    reads: AtomicU64,
}

impl ManualClock {
    /// A frozen clock (step 0): time moves only via [`ManualClock::advance`].
    pub fn new() -> Self {
        ManualClock::with_step(0)
    }

    /// A self-advancing clock: each read moves time forward by `step_ns`.
    pub fn with_step(step_ns: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(0),
            step: AtomicU64::new(step_ns),
            reads: AtomicU64::new(0),
        }
    }

    /// Move time forward explicitly.
    pub fn advance(&self, ns: u64) {
        self.bump(ns);
    }

    /// Change the per-read step.
    pub fn set_step(&self, step_ns: u64) {
        self.step.store(step_ns, Ordering::Relaxed);
    }

    /// The current reading, without advancing.
    pub fn peek(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// How many times [`Clock::now_ns`] has been called on this clock.
    /// `peek` and `advance` do not count.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Saturating add to the current time; returns the time before.
    fn bump(&self, ns: u64) -> u64 {
        self.now
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some(t.saturating_add(ns))
            })
            .unwrap_or_else(|t| t)
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bump(self.step.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_steps_per_read() {
        let c = ManualClock::with_step(100);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 100);
        c.advance(5);
        assert_eq!(c.now_ns(), 205);
        assert_eq!(c.peek(), 305);
        c.set_step(1);
        assert_eq!(c.now_ns(), 305);
        assert_eq!(c.now_ns(), 306);
    }

    #[test]
    fn frozen_clock_only_moves_manually() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(42);
        assert_eq!(c.now_ns(), 42);
    }

    #[test]
    fn manual_clock_counts_reads() {
        let c = ManualClock::with_step(10);
        assert_eq!(c.reads(), 0);
        c.now_ns();
        c.now_ns();
        assert_eq!(c.reads(), 2);
        c.advance(5);
        assert_eq!(c.peek(), 25);
        assert_eq!(c.reads(), 2, "peek and advance are not reads");
    }

    #[test]
    fn manual_clock_saturates_instead_of_wrapping() {
        let c = ManualClock::with_step(7);
        c.advance(3);
        c.advance(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX, "advance saturates");
        assert_eq!(c.now_ns(), u64::MAX, "the per-read step saturates");
        assert_eq!(c.peek(), u64::MAX);
    }

    #[test]
    fn manual_clock_is_shared_across_threads() {
        let c = Arc::new(ManualClock::with_step(1));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..100 {
                        c.now_ns();
                    }
                });
            }
        });
        assert_eq!(c.reads(), 200);
        assert_eq!(c.peek(), 200, "no read is lost under contention");
    }
}
