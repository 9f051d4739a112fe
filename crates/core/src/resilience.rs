//! Retry and circuit-breaker policies for the serving runtime.
//!
//! Two failure regimes need different medicine. *Transient* faults (a
//! one-off device error) clear on their own: the right response is a
//! bounded retry with exponential backoff, paid in virtual device time:
//! up to [`MAX_RETRIES`] retries, the first after [`RETRY_BACKOFF_NS`],
//! each later one after twice the previous backoff. *Persistent* faults
//! (a shape whose compilation panics every time) do not: retrying burns
//! the full failure cost on every request of that shape. The per-shape
//! [`CircuitBreaker`] cuts that loss — after [`BREAKER_FAILURE_THRESHOLD`]
//! consecutive failures the shape's breaker *opens* and requests route
//! straight to the degraded compile path; after [`BREAKER_COOLDOWN_NS`]
//! of virtual time it *half-opens* and lets exactly one probe retry the
//! full path, closing again on success.
//!
//! The breaker is keyed by shape (not request): a poisoned shape must not
//! affect healthy traffic. State updates happen from concurrently
//! compiling workers, so with more than one worker the order of
//! success/failure observations is scheduling-dependent; the serving
//! *dispositions* remain exhaustive regardless, and single-worker runs
//! (the breaker unit tests) are fully deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Device-fault retries after a request's first attempt.
pub const MAX_RETRIES: u32 = 2;

/// Virtual backoff before the first device-fault retry, ns; each later
/// retry waits twice as long as the one before.
pub const RETRY_BACKOFF_NS: f64 = 2_000.0;

/// Consecutive full-path failures that open a shape's breaker.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// Virtual time an open breaker blocks the full path before half-opening
/// for a probe, ns (1 ms of serving time).
pub const BREAKER_COOLDOWN_NS: f64 = 1_000_000.0;

/// The virtual backoff before retry number `retry` (0-based), ns.
pub(crate) fn backoff_ns(retry: u32) -> f64 {
    RETRY_BACKOFF_NS * 2f64.powi(retry as i32)
}

/// Observable state of one shape's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests take the full compile path.
    Closed,
    /// Tripped: requests route straight to the degraded path.
    Open,
    /// Cooldown elapsed: one probe may retry the full path.
    HalfOpen,
}

/// What the breaker allows for one request of a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Breaker closed: take the full path.
    Allow,
    /// Breaker half-open and this request is the probe: take the full
    /// path; its outcome decides whether the breaker closes or re-opens.
    Probe,
    /// Breaker open (or a probe is already in flight): take the degraded
    /// path without attempting the full one.
    Degrade,
}

#[derive(Debug, Default)]
struct ShapeBreaker {
    consecutive_failures: u32,
    open: bool,
    open_until_ns: f64,
    probe_outstanding: bool,
}

/// Per-shape circuit breaker over virtual serving time.
#[derive(Debug)]
pub struct CircuitBreaker {
    shapes: Mutex<HashMap<u64, ShapeBreaker>>,
    opens: AtomicU64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A breaker with no tripped shapes.
    pub fn new() -> Self {
        Self {
            shapes: Mutex::new(HashMap::new()),
            opens: AtomicU64::new(0),
        }
    }

    /// Decides how a request of shape `key` arriving at virtual `now_ns`
    /// may proceed. A [`BreakerDecision::Probe`] reserves the single
    /// half-open probe slot; the caller must report the probe's outcome
    /// via [`CircuitBreaker::record_success`] or
    /// [`CircuitBreaker::record_failure`].
    pub fn check(&self, key: u64, now_ns: f64) -> BreakerDecision {
        let mut shapes = self.shapes.lock();
        let Some(state) = shapes.get_mut(&key) else {
            return BreakerDecision::Allow;
        };
        if !state.open {
            return BreakerDecision::Allow;
        }
        if now_ns < state.open_until_ns || state.probe_outstanding {
            return BreakerDecision::Degrade;
        }
        state.probe_outstanding = true;
        BreakerDecision::Probe
    }

    /// The observable state of shape `key`'s breaker at virtual `now_ns`.
    pub fn state(&self, key: u64, now_ns: f64) -> BreakerState {
        let shapes = self.shapes.lock();
        match shapes.get(&key) {
            Some(s) if s.open && now_ns < s.open_until_ns => BreakerState::Open,
            Some(s) if s.open => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Reports a full-path success for shape `key`: closes the breaker
    /// and resets the failure count. Returns `true` when this success
    /// closed an **open** breaker (a half-open probe came back healthy)
    /// — the transition flight-recorder chains tag as `"closed"`.
    pub fn record_success(&self, key: u64) -> bool {
        let mut shapes = self.shapes.lock();
        if let Some(state) = shapes.get_mut(&key) {
            let was_open = state.open;
            *state = ShapeBreaker::default();
            was_open
        } else {
            false
        }
    }

    /// Reports a full-path failure for shape `key` at virtual `now_ns`.
    /// Returns `true` when this failure opened (or re-opened) the breaker.
    pub fn record_failure(&self, key: u64, now_ns: f64) -> bool {
        let mut shapes = self.shapes.lock();
        let state = shapes.entry(key).or_default();
        state.consecutive_failures += 1;
        let was_probe = state.probe_outstanding;
        state.probe_outstanding = false;
        let trip = was_probe || state.consecutive_failures >= BREAKER_FAILURE_THRESHOLD;
        if trip {
            state.open = true;
            state.open_until_ns = now_ns + BREAKER_COOLDOWN_NS;
            self.opens.fetch_add(1, Ordering::Relaxed);
        }
        trip
    }

    /// How many times any shape's breaker opened (including re-opens
    /// after a failed probe).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff_ns(0), 2_000.0);
        assert_eq!(backoff_ns(1), 4_000.0);
        assert_eq!(backoff_ns(2), 8_000.0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let breaker = CircuitBreaker::new();
        assert_eq!(breaker.check(7, 0.0), BreakerDecision::Allow);
        assert!(!breaker.record_failure(7, 0.0));
        assert!(!breaker.record_failure(7, 10.0));
        assert_eq!(breaker.state(7, 11.0), BreakerState::Closed);
        assert!(breaker.record_failure(7, 20.0), "third failure trips");
        assert_eq!(breaker.state(7, 21.0), BreakerState::Open);
        assert_eq!(breaker.check(7, 500_000.0), BreakerDecision::Degrade);
        // Cooldown elapsed: half-open, exactly one probe.
        assert_eq!(
            breaker.state(7, 20.0 + BREAKER_COOLDOWN_NS + 1.0),
            BreakerState::HalfOpen
        );
        assert_eq!(breaker.check(7, 1_000_021.0), BreakerDecision::Probe);
        assert_eq!(
            breaker.check(7, 1_000_022.0),
            BreakerDecision::Degrade,
            "only one probe at a time"
        );
        assert_eq!(breaker.opens(), 1);
    }

    #[test]
    fn successful_probe_closes_failed_probe_reopens() {
        let breaker = CircuitBreaker::new();
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            assert!(!breaker.record_failure(1, 0.0));
        }
        assert!(breaker.record_failure(1, 0.0));
        assert_eq!(breaker.check(1, 1_100_000.0), BreakerDecision::Probe);
        assert!(
            breaker.record_failure(1, 1_100_000.0),
            "failed probe re-opens"
        );
        assert_eq!(breaker.state(1, 1_150_000.0), BreakerState::Open);
        assert_eq!(breaker.check(1, 2_200_000.0), BreakerDecision::Probe);
        assert!(
            breaker.record_success(1),
            "probe success reports the open->closed transition"
        );
        assert!(
            !breaker.record_success(1),
            "a second success is not a transition"
        );
        assert_eq!(breaker.state(1, 2_200_001.0), BreakerState::Closed);
        assert_eq!(breaker.check(1, 2_200_002.0), BreakerDecision::Allow);
        assert_eq!(breaker.opens(), 2);
    }

    #[test]
    fn shapes_are_independent() {
        let breaker = CircuitBreaker::new();
        for _ in 0..BREAKER_FAILURE_THRESHOLD {
            breaker.record_failure(1, 0.0);
        }
        assert_eq!(breaker.check(1, 1.0), BreakerDecision::Degrade);
        assert_eq!(breaker.check(2, 1.0), BreakerDecision::Allow);
        assert_eq!(breaker.state(1, 1.0), BreakerState::Open);
        assert_eq!(breaker.state(2, 1.0), BreakerState::Closed);
    }
}
