//! Serving lifecycle: graceful drain and live snapshotting.
//!
//! Two concerns that only matter for a *long-lived* serving process:
//!
//! * **Drain** ([`Lifecycle`]): a graceful shutdown closes admission —
//!   requests arriving after the drain point are shed with
//!   [`ShedReason::Draining`] — while everything already admitted runs
//!   to its normal disposition. Nothing is lost silently: every request
//!   still terminates with exactly one disposition and a retained
//!   flight-recorder chain, the batching windows flush (the batched
//!   policy drains its buckets at stream end by construction), and
//!   [`ServingRuntime::drain`](super::ServingRuntime::drain) persists
//!   the warm caches and emits a final [`DrainReport`].
//! * **Live snapshots** ([`Snapshotter`]): a background thread that
//!   periodically persists the program caches of a *running* engine.
//!   The cache read ([`crate::ShardedCache::snapshot`]) takes each
//!   shard's read lock only while it clones that shard's `Arc`s, so
//!   serving lookups share it and never stall on the snapshotter; the
//!   write is the atomic generation commit of
//!   [`crate::Engine::save_program_caches`], so a crash mid-snapshot
//!   never tears the durable state.
//!
//! The drain point comes in two flavors. [`Lifecycle::request_drain_at`]
//! pins it to a *virtual* timestamp, making the shed set a pure function
//! of each request's `arrival_ns` — deterministic and testable.
//! [`Lifecycle::request_drain`] is the real-time trigger (a signal
//! handler, an operator command): it closes admission for whichever
//! request each worker pulls next, which is honest about what a live
//! shutdown is; the requests already pulled and compiled still run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::report::DispositionCounts;
use super::request::ShedReason;
use crate::engine::Engine;

/// Shared drain state between a [`ServingRuntime`](super::ServingRuntime)
/// and whoever asks it to shut down.
///
/// Cheap to check (two relaxed atomic loads) because every request
/// consults it at admission.
#[derive(Debug)]
pub struct Lifecycle {
    /// Real-time trigger: once set, *every* not-yet-admitted request is
    /// shed as draining.
    drain_now: AtomicBool,
    /// Virtual-time drain point (f64 bits); `INFINITY` means not set.
    drain_at_bits: AtomicU64,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Self::new()
    }
}

impl Lifecycle {
    /// A lifecycle with admission open.
    pub fn new() -> Self {
        Self {
            drain_now: AtomicBool::new(false),
            drain_at_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// Closes admission now (real-time trigger). Idempotent.
    pub fn request_drain(&self) {
        self.drain_now.store(true, Ordering::SeqCst);
    }

    /// Closes admission for requests arriving at or after `virtual_ns`
    /// on the serving timeline. The shed set becomes a pure function of
    /// arrival times — the deterministic flavor of drain. An earlier
    /// point wins if called twice.
    pub fn request_drain_at(&self, virtual_ns: f64) {
        let mut current = self.drain_at_bits.load(Ordering::SeqCst);
        while virtual_ns < f64::from_bits(current) {
            match self.drain_at_bits.compare_exchange(
                current,
                virtual_ns.to_bits(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// The virtual drain point, `INFINITY` when only real-time state
    /// applies.
    fn drain_at_ns(&self) -> f64 {
        f64::from_bits(self.drain_at_bits.load(Ordering::SeqCst))
    }

    /// Whether any drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.drain_now.load(Ordering::SeqCst) || self.drain_at_ns().is_finite()
    }

    /// Whether a request arriving at `arrival_ns` must be shed as
    /// draining.
    pub fn draining_at(&self, arrival_ns: f64) -> bool {
        self.drain_now.load(Ordering::SeqCst) || arrival_ns >= self.drain_at_ns()
    }

    /// Reopens admission (for tests and multi-run harnesses that reuse a
    /// runtime).
    pub fn reset(&self) {
        self.drain_now.store(false, Ordering::SeqCst);
        self.drain_at_bits
            .store(f64::INFINITY.to_bits(), Ordering::SeqCst);
    }
}

/// What a completed drain looked like: the final accounting a graceful
/// shutdown reports before the process exits.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Requests shed with [`ShedReason::Draining`] — arrivals after the
    /// drain point, never admitted.
    pub drained: usize,
    /// Final dispositions across the whole run (drained sheds included);
    /// `dispositions.total()` equals the request count, the
    /// nothing-lost invariant.
    pub dispositions: DispositionCounts,
    /// Flight-recorder chains retained at drain time.
    pub chains_retained: u64,
    /// The generation the warm caches were persisted under, when a
    /// snapshot directory was given and the save committed.
    pub persisted_generation: Option<u64>,
    /// The persist failure, if the final save failed (the drain itself
    /// still completes — dispositions are never held hostage by disk).
    pub persist_error: Option<String>,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = &self.dispositions;
        write!(
            f,
            "drain: {} requests ({} completed, {} degraded, {} shed [{} draining], {} failed), \
             {} chains retained",
            d.total(),
            d.completed,
            d.degraded,
            d.shed,
            self.drained,
            d.failed,
            self.chains_retained
        )?;
        match (&self.persisted_generation, &self.persist_error) {
            (Some(generation), _) => write!(f, ", caches persisted as generation {generation}"),
            (None, Some(e)) => write!(f, ", cache persist FAILED: {e}"),
            (None, None) => write!(f, ", caches not persisted (no snapshot dir)"),
        }
    }
}

/// Counts the draining sheds in a record set (helper shared by the
/// runtime and tests).
pub(crate) fn drained_count(records: &[super::request::RequestRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.shed_reason == Some(ShedReason::Draining))
        .count()
}

/// Aggregate statistics of one snapshotter's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Successful snapshots taken (the final stop-time snapshot
    /// included).
    pub snapshots: u64,
    /// Snapshot attempts that failed with an I/O error.
    pub errors: u64,
    /// The last committed generation, if any snapshot succeeded.
    pub last_generation: Option<u64>,
}

/// A background thread that periodically persists a running engine's
/// program caches into a snapshot directory.
///
/// Reads clone each cache shard's `Arc`s under its shared read lock and
/// writes are atomic generation commits, so serving is never stalled and the
/// directory is always a complete committed generation. [`Snapshotter::stop`]
/// takes one final snapshot before joining — stopping the snapshotter
/// *is* the "persist caches" step of a graceful drain.
pub struct Snapshotter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<SnapshotStats>,
}

impl Snapshotter {
    /// Starts snapshotting `engine`'s caches into `dir` every
    /// `interval`. Failures are counted (and surfaced as
    /// `cache.snapshot.errors`), not fatal: a full disk must not take
    /// serving down.
    pub fn start(engine: Arc<Engine>, dir: PathBuf, interval: Duration) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let telemetry = Arc::clone(engine.telemetry());
            let registry = telemetry.registry();
            registry.describe(
                "cache.snapshot.count",
                "Live warm-state snapshots committed by the background snapshotter",
            );
            registry.describe(
                "cache.snapshot.errors",
                "Snapshot attempts that failed with an I/O error",
            );
            registry.describe(
                "cache.snapshot.generation",
                "Latest committed warm-state generation",
            );
            let mut stats = SnapshotStats::default();
            let (lock, condvar) = &*thread_stop;
            loop {
                let stopping = {
                    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    if !*stopped {
                        stopped = condvar
                            .wait_timeout(stopped, interval)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                    *stopped
                };
                match engine.save_program_caches(&dir) {
                    Ok(generation) => {
                        stats.snapshots += 1;
                        stats.last_generation = Some(generation);
                        registry.counter("cache.snapshot.count").inc();
                        registry
                            .gauge("cache.snapshot.generation")
                            .set(generation as f64);
                    }
                    Err(e) => {
                        stats.errors += 1;
                        registry.counter("cache.snapshot.errors").inc();
                        eprintln!("snapshotter: save failed: {e}");
                    }
                }
                if stopping {
                    return stats;
                }
            }
        });
        Self { stop, handle }
    }

    /// Signals the thread, waits for its final snapshot, and returns the
    /// lifetime statistics.
    pub fn stop(self) -> SnapshotStats {
        {
            let (lock, condvar) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            condvar.notify_all();
        }
        self.handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl std::fmt::Debug for Snapshotter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshotter").finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_drain_points_compose() {
        let l = Lifecycle::new();
        assert!(!l.is_draining());
        assert!(!l.draining_at(1e18));
        l.request_drain_at(500.0);
        assert!(l.is_draining());
        assert!(!l.draining_at(499.0));
        assert!(l.draining_at(500.0));
        // An earlier point wins; a later one is ignored.
        l.request_drain_at(900.0);
        assert_eq!(l.drain_at_ns(), 500.0);
        l.request_drain_at(100.0);
        assert_eq!(l.drain_at_ns(), 100.0);
        l.reset();
        assert!(!l.is_draining());
        // The real-time trigger sheds everything not yet admitted.
        l.request_drain();
        assert!(l.draining_at(0.0));
    }

    #[test]
    fn drain_report_renders_the_invariant() {
        let report = DrainReport {
            drained: 3,
            dispositions: DispositionCounts {
                completed: 5,
                degraded: 1,
                shed: 3,
                failed: 0,
            },
            chains_retained: 4,
            persisted_generation: Some(7),
            persist_error: None,
        };
        let text = report.to_string();
        assert!(text.contains("9 requests"), "{text}");
        assert!(text.contains("3 draining"), "{text}");
        assert!(text.contains("generation 7"), "{text}");
    }
}
