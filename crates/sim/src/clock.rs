//! Shared virtual clock.
//!
//! All interaction timing in the workspace is simulated, so whole crawl
//! campaigns run in milliseconds of wall-clock while behaving as if
//! minutes of interaction elapsed. Unlike the old per-browser `SimClock`,
//! a `VirtualClock` is a *handle*: clones share the same instant, letting
//! the browser, the webdriver session, and the interaction agent agree on
//! time without any of them owning it. Resolution mirrors what a page can
//! observe: Firefox exposes event timestamps at millisecond granularity
//! (Appendix D: "the granularity for typing events is 1 ms").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotone simulated-millisecond clock.
///
/// Cheap to clone; all clones observe and advance the same instant. Use
/// [`VirtualClock::fork_detached`] for an independent copy.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    // f64 milliseconds, stored as bits so the handle is lock-free and
    // `Send + Sync` without a mutex.
    bits: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `now_ms`.
    pub fn starting_at(now_ms: f64) -> Self {
        assert!(
            now_ms >= 0.0 && now_ms.is_finite(),
            "clock start must be finite and non-negative, got {now_ms}"
        );
        VirtualClock {
            bits: Arc::new(AtomicU64::new(now_ms.to_bits())),
        }
    }

    /// Current simulated time (ms, sub-ms precision kept internally).
    pub fn now_ms(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Current time as a page would observe it: quantised to 1 ms.
    pub fn observable_now_ms(&self) -> f64 {
        self.now_ms().floor()
    }

    /// Advances the clock by `delta_ms`.
    ///
    /// # Panics
    /// Panics on negative or non-finite advances — simulated time is
    /// monotone.
    pub fn advance(&self, delta_ms: f64) {
        assert!(
            delta_ms >= 0.0 && delta_ms.is_finite(),
            "clock must advance monotonically, got {delta_ms}"
        );
        let mut current = self.bits.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(current) + delta_ms).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Moves the clock to exactly `t_ms`. Where [`VirtualClock::advance`]
    /// adds a delta (and `c + (t − c)` can round to a neighbour of `t`),
    /// this stores `t_ms` itself — the way a caller that kept time
    /// locally publishes the instant it reached.
    ///
    /// # Panics
    /// Panics if `t_ms` is non-finite or earlier than the clock's current
    /// instant — simulated time is monotone.
    pub fn advance_to(&self, t_ms: f64) {
        assert!(t_ms.is_finite(), "clock target must be finite, got {t_ms}");
        let mut current = self.bits.load(Ordering::Acquire);
        loop {
            let now = f64::from_bits(current);
            assert!(
                t_ms >= now,
                "clock must advance monotonically, got {t_ms} < {now}"
            );
            match self.bits.compare_exchange_weak(
                current,
                t_ms.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// An independent clock frozen at this clock's current instant —
    /// advancing one no longer moves the other.
    pub fn fork_detached(&self) -> Self {
        VirtualClock {
            bits: Arc::new(AtomicU64::new(self.now_ms().to_bits())),
        }
    }

    /// True when `other` is a handle to this same clock.
    pub fn shares_time_with(&self, other: &VirtualClock) -> bool {
        Arc::ptr_eq(&self.bits, &other.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0.0);
        c.advance(12.75);
        assert_eq!(c.now_ms(), 12.75);
        assert_eq!(c.observable_now_ms(), 12.0);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn rejects_negative_advance() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    fn advance_to_lands_exactly_where_advance_can_miss() {
        let (from, to) = (287_558.909_433_546_53, 846_295.381_952_948_5);
        let by_delta = VirtualClock::starting_at(from);
        by_delta.advance(to - from);
        assert_ne!(by_delta.now_ms(), to, "the delta round trip is inexact");
        let exact = VirtualClock::starting_at(from);
        let handle = exact.clone();
        exact.advance_to(to);
        assert_eq!(handle.now_ms().to_bits(), to.to_bits());
        exact.advance_to(to);
        assert_eq!(exact.now_ms(), to);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn advance_to_rejects_going_back() {
        VirtualClock::starting_at(10.0).advance_to(9.5);
    }

    #[test]
    fn clones_share_the_instant() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(100.0);
        assert_eq!(b.now_ms(), 100.0);
        b.advance(50.0);
        assert_eq!(a.now_ms(), 150.0);
        assert!(a.shares_time_with(&b));
    }

    #[test]
    fn detached_forks_diverge() {
        let a = VirtualClock::starting_at(10.0);
        let b = a.fork_detached();
        assert_eq!(b.now_ms(), 10.0);
        a.advance(5.0);
        assert_eq!(b.now_ms(), 10.0);
        assert!(!a.shares_time_with(&b));
    }
}
