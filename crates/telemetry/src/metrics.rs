//! Lock-free metrics: counters, gauges, and log2-bucketed latency
//! histograms behind a name-keyed registry.
//!
//! The record path is wait-free — every instrument is a handful of relaxed
//! atomics, so serving workers can record per-request latencies without a
//! lock. The registry map itself is behind an `RwLock`, but callers cache
//! the `Arc` handles they get from [`Registry::counter`] /
//! [`Registry::histogram`], so the map is only touched at registration and
//! snapshot time.
//!
//! Histograms bucket by `floor(log2(v)) + 1`: bucket `b` holds values in
//! `[2^(b-1), 2^b)`. Percentile readout returns the inclusive upper bound
//! of the bucket containing the sample at index `round((n - 1)·p)` of the
//! ascending order (the rounded-index convention), clamped to the
//! largest recorded sample, so an estimate `e` for an exact percentile
//! `x` always satisfies `x <= e < 2x` — within one bucket width — and
//! never exceeds the recorded max. The property tests pin down both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::clock::Clock;

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically-increasing (or collector-set) integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the counter — for collector-style metrics whose
    /// authoritative value lives elsewhere (e.g. the program cache's own
    /// atomics) and is copied in at snapshot time.
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time floating-point metric (utilization, rates, sizes).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Percentile/mean readout of one histogram, all nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// The clock the samples were measured on.
    pub clock: Clock,
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket upper bound, clamped to `max_ns`).
    pub p50_ns: f64,
    /// 95th percentile (bucket upper bound, clamped to `max_ns`).
    pub p95_ns: f64,
    /// 99th percentile (bucket upper bound, clamped to `max_ns`).
    pub p99_ns: f64,
    /// Largest recorded sample (exact).
    pub max_ns: f64,
    /// Mean (exact: running sum over count).
    pub mean_ns: f64,
}

impl LatencyStats {
    /// An empty readout on `clock`.
    pub fn empty(clock: Clock) -> Self {
        Self {
            clock,
            count: 0,
            p50_ns: 0.0,
            p95_ns: 0.0,
            p99_ns: 0.0,
            max_ns: 0.0,
            mean_ns: 0.0,
        }
    }
}

/// A lock-free latency histogram with power-of-two buckets.
///
/// Each bucket also carries an optional **exemplar** request id — the
/// most recent flight-recorder-retained request that landed in the
/// bucket — so a percentile readout can be traced back to a concrete
/// retained chain (`FlightRecorder::find`).
#[derive(Debug)]
pub struct Histogram {
    clock: Clock,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Exemplar slots store `request id + 1`; 0 means "no exemplar".
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`.
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl Histogram {
    /// An empty histogram whose samples are measured on `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// The clock this histogram's samples are measured on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Records one sample, in nanoseconds. Wait-free.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a float sample, clamping negatives and non-finite values
    /// to zero.
    pub fn record_f64(&self, ns: f64) {
        let clamped = if ns.is_finite() && ns > 0.0 { ns } else { 0.0 };
        self.record(clamped as u64);
    }

    /// Records one sample and stamps the bucket's exemplar with
    /// `request_id`. Callers should only pass ids whose chain the
    /// flight recorder retained, so every exemplar resolves.
    pub fn record_with_exemplar(&self, ns: u64, request_id: u64) {
        self.record(ns);
        self.exemplars[bucket_of(ns)].store(request_id.saturating_add(1), Ordering::Relaxed);
    }

    /// Float variant of [`Histogram::record_with_exemplar`], with the
    /// same clamping as [`Histogram::record_f64`].
    pub fn record_f64_with_exemplar(&self, ns: f64, request_id: u64) {
        let clamped = if ns.is_finite() && ns > 0.0 { ns } else { 0.0 };
        self.record_with_exemplar(clamped as u64, request_id);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The rounded-index percentile — the sample at 0-based index
    /// `round((n - 1)·p)` of the ascending order, not the nearest rank
    /// `ceil(p·n)` — reported as the inclusive upper bound of the bucket
    /// holding that sample clamped to the largest recorded sample (0 when
    /// empty). `p` in `[0, 1]`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // The rounded-index convention of `mikpoly::serving::percentile`:
        // index round((n - 1) * p) of the ascending order.
        let rank = ((total - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        let bucket = counts
            .iter()
            .position(|&c| {
                seen += c;
                seen > rank
            })
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        bucket_upper(bucket).min(self.max_ns.load(Ordering::Relaxed))
    }

    /// Snapshot of the standard readout.
    pub fn stats(&self) -> LatencyStats {
        let count = self.count();
        if count == 0 {
            return LatencyStats::empty(self.clock);
        }
        LatencyStats {
            clock: self.clock,
            count,
            p50_ns: self.percentile_ns(0.50) as f64,
            p95_ns: self.percentile_ns(0.95) as f64,
            p99_ns: self.percentile_ns(0.99) as f64,
            max_ns: self.max_ns.load(Ordering::Relaxed) as f64,
            mean_ns: self.sum_ns() as f64 / count as f64,
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some((bucket_upper(b), count))
            })
            .collect()
    }

    /// Occupied exemplar slots as `(inclusive upper bound, request id)`
    /// pairs, in ascending bound order.
    pub fn exemplars(&self) -> Vec<(u64, u64)> {
        self.exemplars
            .iter()
            .enumerate()
            .filter_map(|(b, slot)| {
                let stamped = slot.load(Ordering::Relaxed);
                (stamped > 0).then(|| (bucket_upper(b), stamped - 1))
            })
            .collect()
    }
}

/// One histogram in a [`MetricsSnapshot`]: its name, readout, and
/// non-empty `(bucket upper bound, count)` pairs.
pub type HistogramSnapshot = (String, LatencyStats, Vec<(u64, u64)>);

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, readout, buckets)` per histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// `(name, (bucket upper bound, request id) pairs)` per histogram
    /// with at least one exemplar, name-sorted.
    pub exemplars: Vec<(String, Vec<(u64, u64)>)>,
}

impl MetricsSnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks a histogram readout up by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyStats> {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, s, _)| s)
    }

    /// Looks a histogram's exemplars up by name.
    pub fn histogram_exemplars(&self, name: &str) -> Option<&[(u64, u64)]> {
        self.exemplars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e.as_slice())
    }
}

/// The name-keyed instrument registry.
///
/// Instruments are created on first use and shared afterwards; handles are
/// `Arc`s, so hot paths resolve a name once and record lock-free from then
/// on.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    descriptions: RwLock<BTreeMap<String, String>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("registry lock").get(name) {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use with `clock`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with a different clock — one metric
    /// name must never mix clocks.
    pub fn histogram(&self, name: &str, clock: Clock) -> Arc<Histogram> {
        let existing = self
            .histograms
            .read()
            .expect("registry lock")
            .get(name)
            .map(Arc::clone);
        let h = match existing {
            Some(h) => h,
            None => {
                let mut map = self.histograms.write().expect("registry lock");
                Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(Histogram::new(clock))),
                )
            }
        };
        assert_eq!(
            h.clock(),
            clock,
            "histogram '{name}' already registered on the {} clock",
            h.clock()
        );
        h
    }

    /// Attaches a help string to `name`, emitted as the `# HELP` line
    /// in the Prometheus exposition. Idempotent; the latest call wins.
    pub fn describe(&self, name: &str, help: &str) {
        self.descriptions
            .write()
            .expect("registry lock")
            .insert(name.to_string(), help.to_string());
    }

    /// The help string attached to `name`, if any.
    pub fn description(&self, name: &str) -> Option<String> {
        self.descriptions
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// Copies every instrument out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, h)| (n.clone(), h.stats(), h.buckets()))
                .collect(),
            exemplars: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .filter_map(|(n, h)| {
                    let exemplars = h.exemplars();
                    (!exemplars.is_empty()).then(|| (n.clone(), exemplars))
                })
                .collect(),
        }
    }

    /// Checks every registered metric name against the naming contract:
    /// lowercase dotted (`[a-z0-9._]`, no leading/trailing/double dots),
    /// unique across instrument kinds, and still unique after Prometheus
    /// sanitization (`.` → `_`). Returns one finding per violation; an
    /// empty vec means the registry is clean.
    pub fn lint(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let kinds: [(&str, Vec<String>); 3] = [
            (
                "counter",
                self.counters
                    .read()
                    .expect("registry lock")
                    .keys()
                    .cloned()
                    .collect(),
            ),
            (
                "gauge",
                self.gauges
                    .read()
                    .expect("registry lock")
                    .keys()
                    .cloned()
                    .collect(),
            ),
            (
                "histogram",
                self.histograms
                    .read()
                    .expect("registry lock")
                    .keys()
                    .cloned()
                    .collect(),
            ),
        ];
        let mut seen: BTreeMap<String, &str> = BTreeMap::new();
        let mut sanitized: BTreeMap<String, String> = BTreeMap::new();
        for (kind, names) in &kinds {
            for name in names {
                let well_formed = !name.is_empty()
                    && !name.starts_with('.')
                    && !name.ends_with('.')
                    && !name.contains("..")
                    && name.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'
                    });
                if !well_formed {
                    findings.push(format!(
                        "{kind} '{name}': not lowercase dotted ([a-z0-9._], no stray dots)"
                    ));
                }
                if let Some(other) = seen.insert(name.clone(), kind) {
                    findings.push(format!("'{name}': registered as both {other} and {kind}"));
                }
                let flat = prometheus_name(name);
                if let Some(other) = sanitized.insert(flat.clone(), name.clone()) {
                    if other != *name {
                        findings.push(format!(
                            "'{name}' and '{other}' collide after Prometheus sanitization ('{flat}')"
                        ));
                    }
                }
            }
        }
        findings
    }

    /// Renders the snapshot as a JSON object (hand-written; this crate
    /// is dependency-free). The machine-readable `mikpoly stats --json`
    /// output.
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in snap.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::push_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in snap.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::push_json_string(&mut out, name);
            out.push(':');
            crate::chrome::push_json_number(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, stats, buckets)) in snap.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::push_json_string(&mut out, name);
            out.push_str(":{\"clock\":");
            crate::chrome::push_json_string(&mut out, stats.clock.label());
            let _ = write!(out, ",\"count\":{}", stats.count);
            for (label, value) in [
                ("p50_ns", stats.p50_ns),
                ("p95_ns", stats.p95_ns),
                ("p99_ns", stats.p99_ns),
                ("max_ns", stats.max_ns),
                ("mean_ns", stats.mean_ns),
            ] {
                let _ = write!(out, ",\"{label}\":");
                crate::chrome::push_json_number(&mut out, value);
            }
            out.push_str(",\"buckets\":[");
            for (j, (upper, count)) in buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{upper},{count}]");
            }
            out.push_str("],\"exemplars\":[");
            let exemplars = snap.histogram_exemplars(name).unwrap_or(&[]);
            for (j, (upper, id)) in exemplars.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{upper},{id}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders a Prometheus-style plain-text exposition of the registry.
    ///
    /// Metric names have `.` and `-` mapped to `_`; histograms carry a
    /// `clock` label and cumulative `_bucket{le=...}` lines with
    /// power-of-two bounds. Every metric gets a `# HELP`/`# TYPE` pair;
    /// the help text comes from [`Registry::describe`], falling back to
    /// the original dotted name for undescribed metrics.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let help_for = |dotted: &str| -> String {
            self.description(dotted)
                .map(|h| h.replace('\n', " "))
                .unwrap_or_else(|| dotted.to_string())
        };
        let mut out = String::new();
        for (name, value) in &snap.counters {
            let help = help_for(name);
            let name = prometheus_name(name);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &snap.gauges {
            let help = help_for(name);
            let name = prometheus_name(name);
            // The exposition format technically allows NaN/Inf, but a
            // non-finite gauge is always an upstream accounting bug here
            // (e.g. a 0/0 rate) and poisons downstream aggregation;
            // render it as 0 so a scrape never ingests one.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, stats, buckets) in &snap.histograms {
            let help = help_for(name);
            let name = prometheus_name(name);
            let clock = stats.clock.label();
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (upper, count) in buckets {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{clock=\"{clock}\",le=\"{upper}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{clock=\"{clock}\",le=\"+Inf\"}} {}",
                stats.count
            );
            let _ = writeln!(
                out,
                "{name}_sum{{clock=\"{clock}\"}} {}",
                (stats.mean_ns * stats.count as f64).round() as u64
            );
            let _ = writeln!(out, "{name}_count{{clock=\"{clock}\"}} {}", stats.count);
        }
        out
    }

    /// Renders an aligned human-readable snapshot table (the `mikpoly
    /// stats` output).
    pub fn render_pretty(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        if !snap.counters.is_empty() {
            let _ = writeln!(out, "counters");
            for (name, value) in &snap.counters {
                let _ = writeln!(out, "  {name:<44} {value:>12}");
            }
        }
        if !snap.gauges.is_empty() {
            let _ = writeln!(out, "gauges");
            for (name, value) in &snap.gauges {
                let _ = writeln!(out, "  {name:<44} {value:>12.3}");
            }
        }
        if !snap.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms (us){:<30} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "", "count", "p50", "p95", "p99", "max", "mean"
            );
            for (name, s, _) in &snap.histograms {
                let us = |ns: f64| ns / 1e3;
                let _ = writeln!(
                    out,
                    "  {:<43} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    format!("{name}{{clock=\"{}\"}}", s.clock),
                    s.count,
                    us(s.p50_ns),
                    us(s.p95_ns),
                    us(s.p99_ns),
                    us(s.max_ns),
                    us(s.mean_ns),
                );
            }
        }
        out
    }
}

/// Maps a dotted metric name onto the Prometheus charset.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [1u64, 2, 3, 5, 100, 1 << 40] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b));
            assert!(b == 1 || v > bucket_upper(b - 1));
        }
    }

    #[test]
    fn histogram_readout_brackets_the_exact_percentile() {
        let h = Histogram::new(Clock::Real);
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 7 + 3).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let exact = samples[((samples.len() - 1) as f64 * p).round() as usize];
            let est = h.percentile_ns(p);
            assert!(
                est >= exact && est < exact * 2,
                "p{p}: est {est} vs exact {exact}"
            );
        }
        let stats = h.stats();
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.max_ns, *samples.last().unwrap() as f64);
        let exact_mean = samples.iter().sum::<u64>() as f64 / 1000.0;
        assert!((stats.mean_ns - exact_mean).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new(Clock::Virtual);
        assert_eq!(h.percentile_ns(0.5), 0);
        let s = h.stats();
        assert_eq!((s.count, s.p99_ns, s.mean_ns), (0, 0.0, 0.0));
        assert_eq!(s.clock, Clock::Virtual);
    }

    #[test]
    fn registry_shares_handles_and_snapshots() {
        let r = Registry::new();
        let c1 = r.counter("cache.hits");
        let c2 = r.counter("cache.hits");
        c1.add(3);
        c2.inc();
        assert_eq!(r.counter("cache.hits").get(), 4);
        r.gauge("workers").set(4.0);
        r.histogram("lat", Clock::Virtual).record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(4));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.gauges, vec![("workers".to_string(), 4.0)]);
    }

    #[test]
    #[should_panic(expected = "already registered on the real clock")]
    fn histogram_clock_conflict_is_rejected() {
        let r = Registry::new();
        let _ = r.histogram("lat", Clock::Real);
        let _ = r.histogram("lat", Clock::Virtual);
    }

    #[test]
    fn prometheus_rendering_is_labelled_and_cumulative() {
        let r = Registry::new();
        r.counter("cache.hits").add(7);
        let h = r.histogram("serving.request.total_ns", Clock::Virtual);
        h.record(3);
        h.record(3);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("cache_hits 7"));
        assert!(text.contains("serving_request_total_ns_bucket{clock=\"virtual\",le=\"3\"} 2"));
        assert!(text.contains("serving_request_total_ns_bucket{clock=\"virtual\",le=\"127\"} 3"));
        assert!(text.contains("serving_request_total_ns_count{clock=\"virtual\"} 3"));
    }

    #[test]
    fn prometheus_rendering_never_emits_non_finite_gauges() {
        let r = Registry::new();
        r.gauge("cache.hit_rate").set(f64::NAN);
        r.gauge("queue.depth").set(f64::INFINITY);
        r.gauge("goodput.rps").set(2.5);
        let text = r.render_prometheus();
        assert!(!text.contains("NaN"), "NaN leaked into exposition:\n{text}");
        assert!(!text.contains("inf"), "inf leaked into exposition:\n{text}");
        assert!(text.contains("cache_hit_rate 0"));
        assert!(text.contains("queue_depth 0"));
        assert!(text.contains("goodput_rps 2.5"));
    }

    #[test]
    fn counter_store_overwrites() {
        let c = Counter::default();
        c.add(10);
        c.store(4);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn exposition_pairs_every_type_with_a_help_line() {
        let r = Registry::new();
        r.counter("cache.hits").add(7);
        r.describe("cache.hits", "program cache hits");
        r.gauge("serving.workers").set(4.0);
        r.histogram("serving.total_ns", Clock::Virtual).record(100);
        let text = r.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let mut type_lines = 0;
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                type_lines += 1;
                let metric = rest.split_whitespace().next().unwrap();
                let prev = lines.get(i.wrapping_sub(1)).copied().unwrap_or("");
                assert!(
                    prev.starts_with(&format!("# HELP {metric} ")),
                    "TYPE for {metric} not preceded by its HELP line:\n{text}"
                );
            }
        }
        assert_eq!(type_lines, 3);
        assert!(text.contains("# HELP cache_hits program cache hits"));
        // Undescribed metrics fall back to their dotted name.
        assert!(text.contains("# HELP serving_workers serving.workers"));
    }

    #[test]
    fn exemplars_stamp_the_sample_bucket_and_survive_snapshots() {
        let r = Registry::new();
        let h = r.histogram("serving.compile_ns", Clock::Real);
        h.record(5);
        h.record_with_exemplar(100, 42);
        h.record_with_exemplar(101, 43); // same bucket: latest wins
        assert_eq!(h.exemplars(), vec![(127, 43)]);
        let snap = r.snapshot();
        assert_eq!(
            snap.histogram_exemplars("serving.compile_ns"),
            Some(&[(127u64, 43u64)][..])
        );
        // Plain records never stamp exemplars.
        assert!(snap.histogram_exemplars("missing").is_none());
    }

    #[test]
    fn exemplar_id_zero_is_representable() {
        let h = Histogram::new(Clock::Virtual);
        h.record_with_exemplar(8, 0);
        assert_eq!(h.exemplars(), vec![(15, 0)]);
    }

    #[test]
    fn lint_accepts_the_house_naming_style() {
        let r = Registry::new();
        r.counter("cache.hits").inc();
        r.counter("serving.requests").inc();
        r.gauge("serving.throughput_rps").set(1.0);
        r.histogram("online.compile_ns", Clock::Real).record(1);
        assert!(r.lint().is_empty(), "findings: {:?}", r.lint());
    }

    #[test]
    fn lint_flags_bad_charset_cross_kind_duplicates_and_sanitization_collisions() {
        let r = Registry::new();
        r.counter("Bad.Name").inc();
        r.counter("cache.hits").inc();
        r.gauge("cache.hits").set(1.0);
        r.counter("a.b").inc();
        r.counter("a_b").inc();
        let findings = r.lint();
        assert!(findings.iter().any(|f| f.contains("not lowercase dotted")));
        assert!(findings
            .iter()
            .any(|f| f.contains("both counter and gauge")));
        assert!(findings
            .iter()
            .any(|f| f.contains("collide after Prometheus sanitization")));
    }

    #[test]
    fn json_snapshot_is_parsable_shape() {
        let r = Registry::new();
        r.counter("cache.hits").add(2);
        r.gauge("serving.workers").set(4.0);
        let h = r.histogram("serving.total_ns", Clock::Virtual);
        h.record_with_exemplar(100, 7);
        let json = r.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"cache.hits\":2"));
        assert!(json.contains("\"serving.workers\":4"));
        assert!(json.contains("\"clock\":\"virtual\""));
        assert!(json.contains("\"exemplars\":[[127,7]]"));
        assert!(json.ends_with("}}"));
    }
}
