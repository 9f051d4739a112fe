//! Serving reports, summaries, and telemetry emission.
//!
//! Everything observational lives here: the per-stream [`ServingReport`]
//! with its disposition/latency/SLO summaries, per-tenant aggregation,
//! the exact-percentile helper, and the span/metric/flight-recorder
//! emission shared by the solo and batched policies.

use mikpoly_telemetry::{
    ChainRecord, Clock, Lane, LatencyStats, SloEngine, SloObservation, SloPolicy, SloReport,
    SpanRecord, Telemetry,
};

use super::request::{
    chain_disposition, record_error_label, request_shape_key, Disposition, Request, RequestRecord,
    TenantId, NO_SLOT,
};
use crate::cache::CacheStats;

/// Per-worker accounting over one [`ServingRuntime::serve`] call.
///
/// [`ServingRuntime::serve`]: crate::serving::ServingRuntime::serve
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Requests this worker served.
    pub requests: usize,
    /// Virtual busy time, ns: compile + device on the solo path, compile
    /// only under continuous batching (the worker is released at
    /// compile-done and the device wave proceeds without it).
    pub busy_ns: f64,
    /// `busy_ns` over the stream's makespan.
    pub utilization: f64,
}

/// How many requests ended in each [`Disposition`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispositionCounts {
    /// Served with a fully-searched program.
    pub completed: usize,
    /// Served with a degraded program.
    pub degraded: usize,
    /// Rejected by admission control.
    pub shed: usize,
    /// Admitted but not served.
    pub failed: usize,
}

impl DispositionCounts {
    /// Total requests across all dispositions.
    pub fn total(&self) -> usize {
        self.completed + self.degraded + self.shed + self.failed
    }

    /// Requests that produced an answer (completed + degraded).
    pub fn served(&self) -> usize {
        self.completed + self.degraded
    }
}

/// One tenant's slice of a serving report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests the tenant submitted.
    pub requests: usize,
    /// Its disposition tally.
    pub dispositions: DispositionCounts,
    /// Virtual device time its requests occupied, ns (a co-launched
    /// request counts its whole wave, as in its record).
    pub device_ns: f64,
    /// Served requests per virtual second over the stream's makespan.
    pub goodput_rps: f64,
}

/// Everything one `serve` call observed.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request records, in request-id order.
    pub records: Vec<RequestRecord>,
    /// Per-worker accounting.
    pub workers: Vec<WorkerStats>,
    /// Engine program-cache counters after the stream (GEMM and conv
    /// caches merged).
    pub cache: CacheStats,
    /// Virtual time from first arrival to last completion, ns.
    pub makespan_ns: f64,
    /// Times any shape's circuit breaker opened (0 without a breaker).
    pub breaker_opens: u64,
}

impl ServingReport {
    /// Requests (of any disposition) per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        self.records.len() as f64 / (self.makespan_ns / 1e9)
    }

    /// *Served* requests (completed + degraded) per virtual second — the
    /// throughput that survives shedding and failures.
    pub fn goodput_rps(&self) -> f64 {
        self.dispositions().served() as f64 / (self.makespan_ns / 1e9)
    }

    /// Tallies every record's disposition. By construction each request
    /// contributes exactly one, so `dispositions().total()` equals
    /// `records.len()`.
    pub fn dispositions(&self) -> DispositionCounts {
        let mut counts = DispositionCounts::default();
        for r in &self.records {
            tally(&mut counts, r.disposition);
        }
        counts
    }

    /// Per-tenant disposition and goodput breakdown, sorted by tenant
    /// id. Single-tenant streams yield one entry for tenant 0.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut tenants: Vec<TenantStats> = Vec::new();
        for r in &self.records {
            let entry = match tenants.iter_mut().find(|t| t.tenant == r.tenant) {
                Some(entry) => entry,
                None => {
                    tenants.push(TenantStats {
                        tenant: r.tenant,
                        requests: 0,
                        dispositions: DispositionCounts::default(),
                        device_ns: 0.0,
                        goodput_rps: 0.0,
                    });
                    // The freshly pushed element, by construction.
                    match tenants.last_mut() {
                        Some(entry) => entry,
                        None => unreachable!("just pushed"),
                    }
                }
            };
            entry.requests += 1;
            tally(&mut entry.dispositions, r.disposition);
            entry.device_ns += r.device_ns;
        }
        for t in &mut tenants {
            t.goodput_rps = t.dispositions.served() as f64 / (self.makespan_ns / 1e9);
        }
        tenants.sort_by_key(|t| t.tenant);
        tenants
    }

    /// Mean co-launch wave size over executed requests (1.0 when every
    /// request ran solo; 0 when nothing executed).
    pub fn mean_batch_size(&self) -> f64 {
        let executed: Vec<usize> = self
            .records
            .iter()
            .filter(|r| r.executed())
            .map(|r| r.batch_size.max(1))
            .collect();
        if executed.is_empty() {
            return 0.0;
        }
        executed.iter().sum::<usize>() as f64 / executed.len() as f64
    }

    /// Summarizes the latency distribution and its decomposition, one
    /// clock-labelled readout per phase, so real (compile) and virtual
    /// (queue/device/total) time can never be conflated in a summary.
    /// Every statistic is exact: percentiles are [`percentile`] over the
    /// sorted records.
    pub fn latency_summary(&self) -> LatencySummary {
        let stats = |clock, value: fn(&RequestRecord) -> f64| {
            exact_stats(clock, self.records.iter().map(value).collect())
        };
        LatencySummary {
            total: stats(Clock::Virtual, RequestRecord::timeline_total_ns),
            queue: stats(Clock::Virtual, |r| r.queue_ns),
            compile: stats(Clock::Real, |r| r.compile.real_ns()),
            device: stats(Clock::Virtual, |r| r.device_ns),
        }
    }

    /// Evaluates the stream against `policy`: every record becomes one
    /// [`SloObservation`] (deadline verdicts only for requests that
    /// carried a deadline), and the engine's disposition tally is built
    /// from the same records as [`ServingReport::dispositions`], so the
    /// two always agree — `mikpoly health` asserts this equality.
    pub fn evaluate_slo(&self, policy: SloPolicy) -> SloReport {
        let mut engine = SloEngine::new(policy);
        for r in &self.records {
            let served = matches!(
                r.disposition,
                Disposition::Completed | Disposition::Degraded
            );
            engine.observe(SloObservation {
                finish_ns: r.finish_ns,
                disposition: chain_disposition(r.disposition),
                deadline_met: r.deadline_ns.map(|d| served && r.finish_ns <= d),
                compile_ns: r.compile.real_ns(),
            });
        }
        engine.evaluate()
    }
}

fn tally(counts: &mut DispositionCounts, disposition: Disposition) {
    match disposition {
        Disposition::Completed => counts.completed += 1,
        Disposition::Degraded => counts.degraded += 1,
        Disposition::Shed => counts.shed += 1,
        Disposition::Failed => counts.failed += 1,
    }
}

/// The exact readout of `values` measured on `clock`.
fn exact_stats(clock: Clock, mut values: Vec<f64>) -> LatencyStats {
    values.sort_by(f64::total_cmp);
    let Some(&max_ns) = values.last() else {
        return LatencyStats::empty(clock);
    };
    LatencyStats {
        clock,
        count: values.len() as u64,
        p50_ns: percentile(&values, 0.50),
        p95_ns: percentile(&values, 0.95),
        p99_ns: percentile(&values, 0.99),
        max_ns,
        mean_ns: values.iter().sum::<f64>() / values.len() as f64,
    }
}

/// Per-phase latency readouts, each tagged with the clock it was measured
/// on (`total`/`queue`/`device` are virtual serving time; `compile` is
/// real host time).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// End-to-end timeline latency (virtual clock).
    pub total: LatencyStats,
    /// Queueing component (virtual clock).
    pub queue: LatencyStats,
    /// Online-compilation component (real clock).
    pub compile: LatencyStats,
    /// Device component including dispatch (virtual clock).
    pub device: LatencyStats,
}

/// Rounded-index percentile of an ascending-sorted slice: the element at
/// 0-based index `round((n − 1)·p)`. This is not nearest rank
/// (`ceil(p·n)`, 1-based): p50 of `1..=100` is 51 here and 50 by nearest
/// rank.
///
/// The empty slice yields 0 explicitly, `p` is clamped into `[0, 1]`,
/// and debug builds assert the input really is sorted — unsorted input
/// would silently return an arbitrary element, which is how a garbage
/// p99 once made it into a results table.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be ascending-sorted"
    );
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The counter a record's disposition increments.
pub(crate) fn disposition_counter(disposition: Disposition) -> &'static str {
    match disposition {
        Disposition::Completed => "serving.completed",
        Disposition::Degraded => "serving.degraded",
        Disposition::Shed => "serving.shed",
        Disposition::Failed => "serving.failed",
    }
}

/// Registers `# HELP` text for every serving-layer metric so Prometheus
/// snapshots are self-describing.
pub(crate) fn describe_serving_metrics(registry: &mikpoly_telemetry::Registry) {
    for (name, help) in [
        ("serving.requests", "requests entering the serving pipeline"),
        (
            "serving.completed",
            "requests served on the full compile path",
        ),
        ("serving.degraded", "requests served on the degraded path"),
        ("serving.shed", "requests rejected before execution"),
        (
            "serving.failed",
            "requests that exhausted retries or failed to compile",
        ),
        (
            "serving.retried",
            "device retry attempts across all requests",
        ),
        ("serving.workers", "serving worker threads in the run"),
        ("serving.devices", "simulated devices in the run"),
        (
            "serving.makespan_ms",
            "virtual time from first arrival to last completion",
        ),
        (
            "serving.throughput_rps",
            "requests per virtual second over the makespan",
        ),
        (
            "serving.breaker_opens",
            "circuit-breaker open transitions across all shapes",
        ),
        ("serving.queue_ns", "virtual queueing latency per request"),
        (
            "serving.compile_ns",
            "real host compile latency per request",
        ),
        ("serving.device_ns", "virtual device latency per request"),
        ("serving.total_ns", "end-to-end virtual latency per request"),
        (
            "serving.waves",
            "co-launch device waves dispatched under the batched policy",
        ),
        (
            "serving.batch_size",
            "requests co-launched per device wave, per executed request",
        ),
        (
            "serving.wave_occupancy_pct",
            "per-wave resident-warp demand as a percentage of machine capacity",
        ),
        (
            "serving.drain.drained",
            "requests shed because admission was closed by a graceful drain",
        ),
        (
            "serving.drain.generation",
            "warm-state generation the drain persisted the caches under",
        ),
    ] {
        registry.describe(name, help);
    }
}

/// Builds and records the request's flight-recorder chain, returning
/// whether it was retained (retained requests get histogram exemplars,
/// so every exemplar resolves to a chain [`FlightRecorder::find`] can
/// produce).
///
/// [`FlightRecorder::find`]: mikpoly_telemetry::FlightRecorder::find
fn record_chain(telemetry: &Telemetry, request: &Request, record: &RequestRecord) -> bool {
    let cache_outcome = if record.disposition == Disposition::Shed {
        "none"
    } else if record.cache_wait_ns > 0 {
        "waited"
    } else if record.compile.real_ns() == 0.0 {
        "hit"
    } else {
        "computed"
    };
    let chain = ChainRecord {
        id: record.id as u64,
        shape_key: request_shape_key(request),
        worker: if record.worker == NO_SLOT {
            u64::MAX
        } else {
            record.worker as u64
        },
        tenant: record.tenant,
        queue_ns: record.queue_ns,
        compile_real_ns: record.compile.real_ns(),
        search_ns: record.search_ns as f64,
        cache_wait_ns: record.cache_wait_ns as f64,
        device_ns: record.device_ns,
        finish_ns: record.finish_ns,
        retries: record.retries,
        cache_outcome,
        breaker_event: record.breaker_event,
        disposition: chain_disposition(record.disposition),
        error: record_error_label(record).map(str::to_string),
    };
    telemetry.recorder().record(chain).is_some()
}

/// Dispatch-side context for one record's telemetry emission.
pub(crate) struct EmitContext {
    /// Virtual service-start instant (worker acquired).
    pub(crate) start: f64,
    /// `(ready, device_start)` when a device executed the request.
    pub(crate) exec: Option<(f64, f64)>,
    /// Interconnect dispatch latency in force, ns.
    pub(crate) dispatch_ns: f64,
    /// Whether a tenant policy is configured (gates `serving.tenant.*`).
    pub(crate) tenancy: bool,
    /// Whether the batched policy produced this record.
    pub(crate) batched: bool,
}

/// Emits one request's phase spans, latency metrics, and chain.
///
/// Worker lanes carry the request timeline: the queue phases as async
/// (overlap-safe) spans, then a `serving.request` window containing the
/// `serving.compile` window, which in turn contains the per-request search
/// and coalesced-wait sub-phases (nested by time containment). The device
/// execution lands on the device's own lane when one ran (`ctx.exec`
/// carries its `(ready, device_start)` times) — as a complete span on the
/// solo path, as an overlap-safe async span under batching, where wave
/// members share the device lane. Shed requests get a zero-duration
/// `serving.shed` marker and their disposition counters only.
pub(crate) fn emit_request_telemetry(
    telemetry: &Telemetry,
    request: &Request,
    record: &RequestRecord,
    ctx: &EmitContext,
) {
    let registry = telemetry.registry();
    registry.counter("serving.requests").inc();
    registry
        .counter(disposition_counter(record.disposition))
        .inc();
    if ctx.tenancy {
        registry
            .counter(&format!("serving.tenant.{}.requests", record.tenant))
            .inc();
        let outcome = match record.disposition {
            Disposition::Completed | Disposition::Degraded => "served",
            Disposition::Shed => "shed",
            Disposition::Failed => "failed",
        };
        registry
            .counter(&format!("serving.tenant.{}.{outcome}", record.tenant))
            .inc();
    }
    if record.retries > 0 {
        registry
            .counter("serving.retried")
            .add(u64::from(record.retries));
    }
    let rid = record.id as u64;
    // Chains are recorded before the histograms so exemplar stamping can
    // be gated on retention: every stamped exemplar id is resolvable.
    let retained = record_chain(telemetry, request, record);
    if record.disposition == Disposition::Shed {
        telemetry.record_span(
            SpanRecord::async_phase(
                "serving.shed",
                Lane::HostThread(0),
                rid,
                request.arrival_ns,
                0.0,
            )
            .with_arg("request", rid),
        );
        return;
    }
    let lane = Lane::Worker(record.worker);
    telemetry.record_span(SpanRecord::async_phase(
        "serving.queue",
        lane,
        rid,
        request.arrival_ns,
        ctx.start - request.arrival_ns,
    ));
    telemetry.record_span(
        SpanRecord::complete(
            "serving.request",
            lane,
            ctx.start,
            record.finish_ns - ctx.start,
        )
        .with_arg("request", rid),
    );
    telemetry.record_span(
        SpanRecord::complete(
            "serving.compile",
            lane,
            ctx.start,
            record.compile.onto_virtual_timeline(),
        )
        .with_arg("request", rid),
    );
    // The compile window's sub-phases, placed sequentially inside it
    // (their real-clock durations sum to at most the window's).
    let mut at = ctx.start;
    if record.search_ns > 0 {
        let dur = record.search_ns as f64;
        telemetry.record_span(
            SpanRecord::complete("serving.compile.search", lane, at, dur).with_arg("request", rid),
        );
        at += dur;
    }
    if record.cache_wait_ns > 0 {
        telemetry.record_span(
            SpanRecord::complete(
                "serving.compile.wait",
                lane,
                at,
                record.cache_wait_ns as f64,
            )
            .with_arg("request", rid),
        );
    }
    if let Some((ready, device_start)) = ctx.exec {
        let device_wait = device_start - ctx.dispatch_ns - ready;
        if device_wait > 0.0 {
            telemetry.record_span(SpanRecord::async_phase(
                "serving.queue.device",
                lane,
                rid,
                ready,
                device_wait,
            ));
        }
        let device_lane = Lane::Device(record.device);
        let device_dur = record.finish_ns - device_start;
        if ctx.batched {
            // Wave members overlap on the shared device lane; async
            // spans keep the trace well-formed.
            telemetry.record_span(
                SpanRecord::async_phase(
                    "serving.device",
                    device_lane,
                    rid,
                    device_start,
                    device_dur,
                )
                .with_arg("request", rid)
                .with_arg("worker", record.worker),
            );
        } else {
            telemetry.record_span(
                SpanRecord::complete("serving.device", device_lane, device_start, device_dur)
                    .with_arg("request", rid)
                    .with_arg("worker", record.worker),
            );
        }
    }
    let observe = |name: &str, clock: Clock, value: f64| {
        let histogram = registry.histogram(name, clock);
        if retained {
            histogram.record_f64_with_exemplar(value, rid);
        } else {
            histogram.record_f64(value);
        }
    };
    observe("serving.queue_ns", Clock::Virtual, record.queue_ns);
    observe("serving.compile_ns", Clock::Real, record.compile.real_ns());
    observe("serving.device_ns", Clock::Virtual, record.device_ns);
    observe(
        "serving.total_ns",
        Clock::Virtual,
        record.timeline_total_ns(),
    );
    if ctx.batched && record.executed() {
        registry
            .histogram("serving.batch_size", Clock::Virtual)
            .record_f64(record.batch_size.max(1) as f64);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::request::{shed_record, ShedReason};
    use super::*;
    use tensor_ir::{GemmShape, Operator};

    #[test]
    fn percentile_takes_the_rounded_index() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn percentile_handles_empty_and_degenerate_inputs() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
        assert_eq!(percentile(&[42.0], 1.0), 42.0);
        // Out-of-range ranks clamp instead of indexing out of bounds.
        assert_eq!(percentile(&[1.0, 2.0], 2.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], -1.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], f64::NAN), 1.0);
    }

    #[test]
    fn latency_summary_percentiles_are_recorded_values() {
        let records: Vec<RequestRecord> = (1..=100)
            .rev()
            .map(|i| {
                let request = Request::single(i, 0.0, Operator::gemm(GemmShape::new(8, 8, 8)));
                RequestRecord {
                    device_ns: i as f64 * 1000.0 + 0.5,
                    ..shed_record(&request, ShedReason::QueueFull)
                }
            })
            .collect();
        let report = ServingReport {
            records,
            workers: Vec::new(),
            cache: CacheStats::default(),
            makespan_ns: 1.0,
            breaker_opens: 0,
        };
        let device = report.latency_summary().device;
        // A log2 histogram would read p99 as a bucket edge, 131071.
        assert_eq!(device.count, 100);
        assert_eq!(device.p50_ns, 51_000.5);
        assert_eq!(device.p99_ns, 99_000.5);
        assert_eq!(device.max_ns, 100_000.5);
        assert_eq!(device.mean_ns, 50_500.5);
        assert_eq!(device.clock, Clock::Virtual);
        let empty = ServingReport {
            records: Vec::new(),
            ..report
        };
        assert_eq!(empty.latency_summary().total.count, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ascending-sorted")]
    fn percentile_rejects_unsorted_input_in_debug_builds() {
        let _ = percentile(&[3.0, 1.0, 2.0], 0.5);
    }
}
