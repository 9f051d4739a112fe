//! Lightweight spans: RAII wall-clock timers and analytically-placed
//! virtual-timeline phases, recorded into a bounded sharded ring buffer.
//!
//! Two kinds of span reach the sink:
//!
//! - **Host spans** ([`SpanGuard`](crate::SpanGuard), usually via the [`span!`](crate::span!)
//!   macro) time a real-clock region on the current OS thread. Nesting is
//!   tracked with a per-thread depth counter and, for export, by time
//!   containment on the thread's lane.
//! - **Timeline spans** (built with [`SpanRecord::complete`] /
//!   [`SpanRecord::async_phase`] and pushed via
//!   `Telemetry::record_span`) are placed at explicit virtual-time
//!   coordinates by the serving simulator — queue waits, compile windows,
//!   device executions.
//!
//! The sink is a fixed set of mutex-protected shards selected by thread;
//! each shard is a bounded ring that drops its oldest records under
//! pressure (and counts the drops), so a long serving run can never grow
//! the trace without bound.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which export lane (process/thread row in the Chrome trace) a span
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// A serving worker's virtual timeline.
    Worker(usize),
    /// A simulated device's virtual timeline.
    Device(usize),
    /// A host OS thread's real-clock timeline. The id is a small
    /// process-wide index assigned on first use per thread.
    HostThread(u64),
}

impl Lane {
    /// The clock label for this lane's timeline.
    pub fn clock_label(&self) -> &'static str {
        match self {
            Lane::Worker(_) | Lane::Device(_) => "virtual",
            Lane::HostThread(_) => "real",
        }
    }
}

/// How a span is drawn in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A complete (`"X"`) event: nests by time containment on its lane.
    Complete,
    /// An async (`"b"`/`"e"`) event pair keyed by `id`: may overlap other
    /// spans on the same lane (queue phases of concurrent requests).
    Async {
        /// Correlation id shared by the begin/end pair (the request id).
        id: u64,
    },
}

/// A key=value field attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer field.
    U64(u64),
    /// A floating-point field.
    F64(f64),
    /// A string field.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One finished span, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dotted span name (e.g. `online.search`).
    pub name: &'static str,
    /// Export lane.
    pub lane: Lane,
    /// Complete or async rendering.
    pub kind: SpanKind,
    /// Start timestamp, ns, on the lane's clock (real spans: since the
    /// telemetry epoch).
    pub start_ns: f64,
    /// Duration, ns, on the lane's clock.
    pub dur_ns: f64,
    /// Nesting depth at record time (host spans only; 0 otherwise).
    pub depth: u16,
    /// key=value fields.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRecord {
    /// A complete span at explicit coordinates on `lane`.
    pub fn complete(name: &'static str, lane: Lane, start_ns: f64, dur_ns: f64) -> Self {
        Self {
            name,
            lane,
            kind: SpanKind::Complete,
            start_ns,
            dur_ns,
            depth: 0,
            args: Vec::new(),
        }
    }

    /// An async (overlap-safe) span at explicit coordinates on `lane`,
    /// correlated by `id`.
    pub fn async_phase(
        name: &'static str,
        lane: Lane,
        id: u64,
        start_ns: f64,
        dur_ns: f64,
    ) -> Self {
        Self {
            name,
            lane,
            kind: SpanKind::Async { id },
            start_ns,
            dur_ns,
            depth: 0,
            args: Vec::new(),
        }
    }

    /// Attaches a key=value field (builder-style).
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

const SINK_SHARDS: usize = 16;
/// Per-shard ring capacity; total sink capacity is `16 * 8192` spans.
const SHARD_CAPACITY: usize = 8192;

static NEXT_THREAD_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LANE: u64 = NEXT_THREAD_LANE.fetch_add(1, Ordering::Relaxed);
    static THREAD_DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// The process-wide lane index of the current OS thread.
pub fn current_thread_lane() -> u64 {
    THREAD_LANE.with(|l| *l)
}

pub(crate) fn depth_enter() -> u16 {
    THREAD_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth.saturating_add(1));
        depth
    })
}

pub(crate) fn depth_exit() {
    THREAD_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
}

/// A bounded, sharded span buffer.
#[derive(Debug)]
pub struct SpanSink {
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    dropped: AtomicU64,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self {
            shards: (0..SINK_SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(64)))
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Pushes a record, evicting the shard's oldest span when full.
    pub fn push(&self, record: SpanRecord) {
        let shard = (current_thread_lane() as usize) % SINK_SHARDS;
        let mut ring = self.shards[shard].lock().expect("span sink lock");
        if ring.len() >= SHARD_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Takes every buffered span, sorted by start time within lanes as
    /// encountered; leaves the sink empty.
    ///
    /// **Destructive**: a second consumer sees an empty sink. Drain once
    /// and share the result when multiple exporters need the spans.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.append(&mut shard.lock().expect("span sink lock").drain(..).collect());
        }
        out.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        out
    }

    /// Spans evicted under pressure since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffered span count (for tests / diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("span sink lock").len())
            .sum()
    }

    /// Whether the sink holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_round_trips_and_sorts() {
        let sink = SpanSink::new();
        sink.push(SpanRecord::complete("b", Lane::Worker(0), 200.0, 10.0));
        sink.push(
            SpanRecord::complete("a", Lane::Worker(0), 100.0, 50.0).with_arg("shape", 128u64),
        );
        let spans = sink.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].args, vec![("shape", ArgValue::U64(128))]);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_is_bounded_and_counts_drops() {
        let sink = SpanSink::new();
        // All pushes from one thread land in one shard.
        for i in 0..(SHARD_CAPACITY + 10) {
            sink.push(SpanRecord::complete(
                "s",
                Lane::HostThread(0),
                i as f64,
                1.0,
            ));
        }
        assert_eq!(sink.len(), SHARD_CAPACITY);
        assert_eq!(sink.dropped(), 10);
        // The oldest records were the ones evicted.
        let spans = sink.drain();
        assert_eq!(spans.first().unwrap().start_ns, 10.0);
    }

    #[test]
    fn depth_counter_nests() {
        assert_eq!(depth_enter(), 0);
        assert_eq!(depth_enter(), 1);
        depth_exit();
        assert_eq!(depth_enter(), 1);
        depth_exit();
        depth_exit();
        assert_eq!(depth_enter(), 0);
        depth_exit();
    }

    #[test]
    fn lane_clock_labels() {
        assert_eq!(Lane::Worker(0).clock_label(), "virtual");
        assert_eq!(Lane::Device(3).clock_label(), "virtual");
        assert_eq!(Lane::HostThread(9).clock_label(), "real");
    }
}
