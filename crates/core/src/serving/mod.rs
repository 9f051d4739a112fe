//! Concurrent serving runtime over a shared [`Engine`](crate::Engine).
//!
//! The paper motivates dynamic-shape compilation with model serving, where
//! requests with runtime-determined shapes arrive continuously. This
//! module closes that loop: a pool of worker threads serves a request
//! stream from one shared engine, exercising the sharded single-flight
//! program cache exactly as a real server would — concurrent first-sight
//! shapes coalesce onto one polymerization, repeats hit without blocking
//! writers.
//!
//! # Layering
//!
//! Serving is split into layers, each its own submodule:
//!
//! * [`request`] — the request/record vocabulary: [`Request`],
//!   [`RequestRecord`], [`Disposition`], [`ShedReason`], tenant ids, and
//!   the canonical shape key.
//! * [`admission`] — multi-tenant admission: per-tenant waiting-slot
//!   quotas ([`TenantQuota`]) and weighted-fairness accounting.
//! * [`batching`] — shape-bucketed continuous batching: compiled
//!   requests buffer in per-shape buckets under a bounded batch-forming
//!   delay ([`BatchingOptions`]).
//! * [`colaunch`] — the co-launch planner: flushed buckets are packed
//!   into multi-group device waves that never oversubscribe the
//!   machine's warp slots.
//! * [`worker`] — the [`ServingRuntime`] itself: one two-phase
//!   dispatcher whose device placement is a policy — solo (the default)
//!   or batched, which wires the layers above together.
//! * [`lifecycle`] — long-lived-process concerns: graceful drain
//!   ([`Lifecycle`], [`DrainReport`]) and live warm-state snapshots
//!   ([`Snapshotter`]) read under the cache's shared shard locks.
//! * [`report`] — [`ServingReport`], latency summaries, per-tenant
//!   stats, and the telemetry emission shared by both policies.
//!
//! Everything is re-exported flat from this module, so
//! `serving::ServingRuntime` et al. keep working unchanged.
//!
//! # Timing methodology
//!
//! Each request's latency decomposes into three parts measured on two
//! different clocks:
//!
//! * **compile** — *real* wall-clock nanoseconds the worker spent in
//!   online polymerization (zero on a cache hit; the coalesced-wait time
//!   when another worker was compiling the same shape). This is the
//!   overhead MikPoly actually pays on the host.
//! * **device** — *simulated* device nanoseconds from the accelerator
//!   model, plus the cluster's dispatch latency when the device pool is
//!   remote (more than one device behind an interconnect). Under
//!   batching this is the request's *wave* time: the simulated duration
//!   of the merged launch it shared with its bucket peers.
//! * **queue** — *virtual* waiting time: from arrival until a worker and
//!   a device were both free — plus, under batching, the bounded
//!   batch-forming delay between compile-done and wave dispatch.
//!   Arrivals are virtual timestamps (e.g. Poisson via
//!   [`poisson_arrivals`]); each worker advances a virtual clock
//!   `free_at`, and the device pool keeps a per-device virtual free
//!   time, so queueing behaviour is deterministic under a seed while
//!   compile times remain real measurements.
//!
//! Workers pull requests in arrival order from a shared cursor (FIFO
//! dispatch to the first idle worker), which is the M/G/m discipline the
//! tail-latency experiment models. Under the solo policy the cursor runs
//! at most one request per worker past the oldest unfinished one, as a
//! worker holding each request to the end would.
//!
//! The real work (compilation) runs in parallel across OS threads, but
//! the *virtual* bookkeeping — which worker slot and device a request
//! takes, and when — is computed afterwards by a single-threaded replay
//! in arrival order, under either policy. The virtual timeline is
//! therefore a deterministic function of the request stream and the
//! measured compile durations, never of OS scheduling: a starved thread
//! cannot skew queueing, and enabling telemetry cannot shift throughput.
//!
//! # Fault tolerance
//!
//! With [`ServingOptions`] the runtime becomes a fault-tolerant server:
//! every request terminates with exactly one [`Disposition`], and a
//! poisoned request can degrade *its own* answer but never wedge a worker
//! or a follower.
//!
//! * **Admission control** — a request whose [`Request::deadline_ns`]
//!   already passed at arrival is shed *before any compile work*; one
//!   whose service would start past its deadline is shed at dispatch; and
//!   when [`ServingOptions::queue_capacity`] is set, a request that would
//!   have to wait behind a full queue is shed rather than enqueued. With
//!   a [`TenantPolicy`], a tenant over its own waiting-slot quota is shed
//!   with [`ShedReason::TenantThrottled`] before it can crowd the global
//!   queue. Shed requests consume no virtual resources.
//! * **Degradation ladder** — the compile phase runs under
//!   [`ServingOptions::compile_budget`]: the staged search first yields
//!   its deadline-cut incumbent, and if the full path fails outright
//!   (typed error or panic — both isolated with `catch_unwind`), a
//!   search-free fallback compile produces a correct, slower program. Only
//!   when the fallback fails too is the request [`Disposition::Failed`].
//! * **Transient retries** — injected device faults
//!   ([`ServingOptions::fault_plan`]) are retried up to
//!   [`MAX_RETRIES`](crate::MAX_RETRIES) times, with exponential backoff
//!   from [`RETRY_BACKOFF_NS`](crate::RETRY_BACKOFF_NS) in virtual device
//!   time; exhausting the retries fails the request.
//! * **Circuit breaker** — [`ServingOptions::breaker`] keys a
//!   [`CircuitBreaker`](crate::CircuitBreaker) by request shape:
//!   after [`BREAKER_FAILURE_THRESHOLD`](crate::BREAKER_FAILURE_THRESHOLD)
//!   consecutive failures a shape routes straight to the degraded path
//!   until [`BREAKER_COOLDOWN_NS`](crate::BREAKER_COOLDOWN_NS) elapses
//!   and a single probe retries the full path.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod batching;
pub mod colaunch;
pub mod lifecycle;
pub mod report;
pub mod request;
pub mod worker;

pub use admission::{TenantPolicy, TenantQuota};
pub use batching::BatchingOptions;
pub use lifecycle::{DrainReport, Lifecycle, SnapshotStats, Snapshotter};
pub use report::{
    percentile, DispositionCounts, LatencySummary, ServingReport, TenantStats, WorkerStats,
};
pub use request::{
    poisson_arrivals, record_error_label, request_shape_key, Disposition, Request, RequestRecord,
    ShedReason, TenantId,
};
pub use worker::{ServingOptions, ServingRuntime};
