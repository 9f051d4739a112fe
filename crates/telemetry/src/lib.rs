//! Dependency-free tracing and metrics for the MikPoly runtime.
//!
//! One [`Telemetry`] handle (shared as an `Arc`) carries everything:
//!
//! - a lock-free metrics [`Registry`] of counters, gauges, and
//!   log2-bucketed latency [`Histogram`]s with p50/p95/p99/max readout;
//! - lightweight spans — RAII wall-clock timers via the [`span!`] macro
//!   and analytically-placed virtual-timeline phases via
//!   [`Telemetry::record_span`] — buffered in a bounded sharded ring;
//! - two exporters: Chrome trace-event JSON
//!   ([`Telemetry::render_chrome_trace`], loadable in Perfetto /
//!   `chrome://tracing`) and a Prometheus-style plain-text snapshot
//!   ([`Registry::render_prometheus`]).
//!
//! Telemetry is zero-cost when disabled: [`Telemetry::disabled`] returns a
//! cached handle whose `is_enabled()` gate short-circuits every record
//! path before any allocation or clock read, and [`span!`] on a disabled
//! handle constructs an inert guard.
//!
//! The crate deliberately has **no dependencies** — it sits underneath
//! every other crate in the workspace (see `docs/observability.md` for the
//! span taxonomy and metric names).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod span;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub use chrome::render_chrome_trace;
pub use clock::{Clock, ClockNs};
pub use metrics::{Counter, Gauge, Histogram, LatencyStats, MetricsSnapshot, Registry};
pub use recorder::{
    ChainDisposition, ChainRecord, FlightRecorder, RecorderConfig, RetainReason, RetainedChain,
    RECORDER_SHARDS,
};
pub use slo::{
    render_blackbox, BurnRule, DispositionTally, SloEngine, SloObservation, SloReport, WindowSli,
};
pub use span::{ArgValue, Lane, SpanKind, SpanRecord, SpanSink};

/// The shared telemetry handle: a metrics registry, a span sink, and a
/// real-clock epoch all instrumentation on one pipeline records against.
///
/// Handles are instance-based (not a process global) so parallel tests and
/// independent engines never share state; clone the `Arc` into every layer
/// that should report into the same trace.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    epoch: Instant,
    registry: Registry,
    spans: SpanSink,
    recorder: FlightRecorder,
}

impl Telemetry {
    /// A live handle: spans, metrics, and flight-recorder chains are
    /// recorded.
    pub fn enabled() -> Arc<Self> {
        Arc::new(Self {
            enabled: true,
            epoch: Instant::now(),
            registry: Registry::new(),
            spans: SpanSink::new(),
            recorder: FlightRecorder::new(RecorderConfig::default(), true),
        })
    }

    /// The shared no-op handle: every record path short-circuits.
    pub fn disabled() -> Arc<Self> {
        static DISABLED: OnceLock<Arc<Telemetry>> = OnceLock::new();
        Arc::clone(DISABLED.get_or_init(|| {
            Arc::new(Telemetry {
                enabled: false,
                epoch: Instant::now(),
                registry: Registry::new(),
                spans: SpanSink::new(),
                recorder: FlightRecorder::new(RecorderConfig::default(), false),
            })
        }))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Real-clock nanoseconds since this handle's epoch.
    pub fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// The metrics registry (a no-op handle still returns a registry; it
    /// just stays empty because callers gate on [`Telemetry::is_enabled`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Starts a real-clock RAII span on the current OS thread. Prefer the
    /// [`span!`] macro, which also attaches fields.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { inner: None };
        }
        let depth = span::depth_enter();
        SpanGuard {
            inner: Some(SpanGuardInner {
                telemetry: self,
                name,
                start: Instant::now(),
                start_ns: self.now_ns(),
                depth,
                args: Vec::new(),
            }),
        }
    }

    /// Records a finished span at explicit coordinates (the serving
    /// simulator's virtual-timeline phases). No-op when disabled.
    pub fn record_span(&self, record: SpanRecord) {
        if self.enabled {
            self.spans.push(record);
        }
    }

    /// Takes every buffered span (emptying the buffer), sorted by start
    /// time.
    ///
    /// **Draining is destructive**: the buffer is emptied, so a second
    /// consumer sees nothing. A pipeline with both a Chrome-trace export
    /// and its own span analysis must drain once and share the vec.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.spans.drain()
    }

    /// Spans evicted from the bounded buffer under pressure.
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// The flight recorder holding retained per-request chains (inert
    /// on a disabled handle).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Publishes telemetry self-health into the registry: span-ring
    /// drops as the `telemetry.spans_dropped` gauge (silent span loss
    /// used to be invisible in metric snapshots) plus flight-recorder
    /// retention/eviction gauges. No-op when disabled; call before
    /// exporting a snapshot.
    pub fn export_health(&self) {
        if !self.enabled {
            return;
        }
        let r = &self.registry;
        r.describe(
            "telemetry.spans_dropped",
            "spans evicted from the bounded span ring under pressure",
        );
        r.gauge("telemetry.spans_dropped")
            .set(self.spans.dropped() as f64);
        r.describe(
            "telemetry.chains_retained",
            "flight-recorder chains retained over the run",
        );
        r.gauge("telemetry.chains_retained")
            .set(self.recorder.retained() as f64);
        r.describe(
            "telemetry.chains_evicted",
            "retained chains later shed to honor the recorder memory budget",
        );
        r.gauge("telemetry.chains_evicted")
            .set(self.recorder.evicted() as f64);
    }

    /// Drains the span buffer and renders it as Chrome trace-event JSON.
    /// Destructive, like [`Telemetry::drain_spans`].
    pub fn render_chrome_trace(&self) -> String {
        chrome::render_chrome_trace(&self.drain_spans())
    }
}

#[derive(Debug)]
struct SpanGuardInner<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Instant,
    start_ns: f64,
    depth: u16,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard for a real-clock span: records on drop. Inert (and
/// allocation-free) when built from a disabled handle.
#[derive(Debug)]
#[must_use = "a span guard times the region it is alive for"]
pub struct SpanGuard<'a> {
    inner: Option<SpanGuardInner<'a>>,
}

impl SpanGuard<'_> {
    /// Whether this guard records anything — use to skip computing
    /// expensive field values for inert guards (the [`span!`] macro does).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a key=value field to the span (no-op when inert).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            span::depth_exit();
            let record = SpanRecord {
                name: inner.name,
                lane: Lane::HostThread(span::current_thread_lane()),
                kind: SpanKind::Complete,
                start_ns: inner.start_ns,
                dur_ns: inner.start.elapsed().as_nanos() as f64,
                depth: inner.depth,
                args: inner.args,
            };
            inner.telemetry.record_span(record);
        }
    }
}

/// Opens a real-clock RAII span: `span!(telemetry, "online.search")` or
/// `span!(telemetry, "online.search", shape = m, kind = "gemm")`. The
/// span ends (and is recorded) when the returned guard drops.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:literal $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $telemetry.span($name);
        // Field expressions are only evaluated for live guards, so a
        // disabled handle never pays for e.g. a `to_string()` field.
        if guard.is_active() {
            $(guard.arg(stringify!($key), $value);)*
        }
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_shared_and_inert() {
        let a = Telemetry::disabled();
        let b = Telemetry::disabled();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_enabled());
        {
            let mut g = span!(a, "noop.region", key = 1u64);
            g.arg("more", 2u64);
        }
        a.record_span(SpanRecord::complete("x", Lane::Worker(0), 0.0, 1.0));
        assert!(a.drain_spans().is_empty());
    }

    #[test]
    fn raii_span_records_with_fields_and_nesting() {
        let t = Telemetry::enabled();
        {
            let _outer = span!(t, "outer.phase", shape = 128u64);
            {
                let _inner = span!(t, "inner.phase", kind = "gemm");
            }
        }
        let spans = t.drain_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer.phase").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner.phase").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.args, vec![("shape", ArgValue::U64(128))]);
        assert_eq!(
            inner.args,
            vec![("kind", ArgValue::Str("gemm".to_string()))]
        );
        // Inner is contained in outer on the real clock.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns + 1.0);
        assert!(matches!(outer.lane, Lane::HostThread(_)));
    }

    #[test]
    fn end_to_end_trace_renders() {
        let t = Telemetry::enabled();
        t.registry().counter("cache.hits").add(2);
        t.record_span(
            SpanRecord::async_phase("serving.queue", Lane::Worker(1), 42, 100.0, 900.0)
                .with_arg("request", 42u64),
        );
        {
            let _g = span!(t, "online.compile");
        }
        let json = t.render_chrome_trace();
        assert!(json.contains("serving.queue"));
        assert!(json.contains("online.compile"));
        assert!(t.drain_spans().is_empty(), "render drains the buffer");
        assert!(t.registry().render_prometheus().contains("cache_hits 2"));
    }
}
