//! Telemetry histogram integrity: the log2-bucketed percentile readout
//! must track the exact sorted-slice percentiles within one bucket width
//! and never exceed the recorded max, and parallel recording must never
//! lose a count.

use std::sync::Arc;

use mikpoly_suite::mikpoly::serving::percentile;
use mikpoly_suite::telemetry::{Clock, Histogram, Telemetry};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any sample set spanning many orders of magnitude, the bucketed
    /// p50/p95/p99 never undershoot the exact rounded-index percentile and
    /// overshoot by less than one bucket width (a bucket holds
    /// `[2^(b-1), 2^b - 1]`, so its upper bound is below twice any member).
    #[test]
    fn bucketed_percentiles_within_one_bucket(
        values in proptest::collection::vec(
            (0u32..52, 0u64..u64::MAX).prop_map(|(e, raw)| raw % (1u64 << e).max(1)),
            1..400,
        ),
    ) {
        let hist = Histogram::new(Clock::Real);
        for &v in &values {
            hist.record(v);
        }
        let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        sorted.sort_by(f64::total_cmp);
        for p in [0.5, 0.95, 0.99] {
            let exact = percentile(&sorted, p) as u64;
            let est = hist.percentile_ns(p);
            prop_assert!(
                est >= exact,
                "p{p}: bucketed {est} undershoots exact {exact}"
            );
            prop_assert!(
                est < 2 * exact.max(1),
                "p{p}: bucketed {est} is more than one bucket above exact {exact}"
            );
        }
        // Count, max, and mean are exact, not bucketed.
        let stats = hist.stats();
        prop_assert_eq!(stats.count, values.len() as u64);
        prop_assert_eq!(stats.max_ns, *sorted.last().expect("non-empty"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        prop_assert!(
            (stats.mean_ns - mean).abs() <= mean * 1e-6 + 0.5,
            "mean {} vs exact {}",
            stats.mean_ns,
            mean
        );
    }

    /// For any sample set and any `p`, the readout never exceeds the
    /// largest recorded sample: a bucket's upper bound is clamped to the
    /// max, so a p95 can no longer read 262 µs over a 188 µs maximum.
    #[test]
    fn percentile_readout_never_exceeds_max(
        values in proptest::collection::vec(
            (0u32..52, 0u64..u64::MAX).prop_map(|(e, raw)| raw % (1u64 << e).max(1)),
            1..400,
        ),
        p in 0.0f64..=1.0,
    ) {
        let hist = Histogram::new(Clock::Real);
        for &v in &values {
            hist.record(v);
        }
        let max = *values.iter().max().expect("non-empty");
        prop_assert!(
            hist.percentile_ns(p) <= max,
            "p{p}: readout {} exceeds max {max}",
            hist.percentile_ns(p)
        );
        let stats = hist.stats();
        for readout in [stats.p50_ns, stats.p95_ns, stats.p99_ns] {
            prop_assert!(readout <= stats.max_ns, "readout {readout} > max {}", stats.max_ns);
        }
    }
}

/// Eight threads hammering one histogram and one counter: every record
/// lands (the instruments are single atomic words, no read-modify-write
/// races to lose).
#[test]
fn parallel_records_lose_nothing() {
    let t = Telemetry::enabled();
    let hist = t.registry().histogram("test.lat_ns", Clock::Real);
    let counter = t.registry().counter("test.events");
    let threads = 8u64;
    let per_thread = 50_000u64;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let hist = Arc::clone(&hist);
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Distinct values per thread so the expected total sum
                    // is the exact arithmetic series 0..threads*per_thread.
                    hist.record(tid * per_thread + i);
                    counter.inc();
                }
            });
        }
    });
    let n = threads * per_thread;
    assert_eq!(hist.count(), n, "histogram lost records under contention");
    assert_eq!(counter.get(), n, "counter lost increments under contention");
    assert_eq!(
        hist.sum_ns(),
        n * (n - 1) / 2,
        "histogram sum must be the exact series total"
    );
    let snapshot = t.registry().snapshot();
    assert_eq!(snapshot.counter("test.events"), Some(n));
    assert_eq!(
        snapshot.histogram("test.lat_ns").expect("registered").count,
        n
    );
}

/// The Prometheus rendering must be a well-formed text exposition: every
/// line is a `# TYPE` declaration or a `name[{labels}] value` sample with
/// a legal metric name, every sample's family is declared before use, and
/// histogram bucket counts are cumulative with `+Inf` equal to `_count`.
#[test]
fn prometheus_rendering_is_valid_text_exposition() {
    let t = Telemetry::enabled();
    let r = t.registry();
    r.counter("cache.hits").store(41);
    r.counter("serving.requests").inc();
    r.gauge("worker-pool.utilization").set(0.625);
    let h = r.histogram("serving.latency_ns", Clock::Virtual);
    for v in [1u64, 3, 900, 4096, 70_000, 1 << 33] {
        h.record(v);
    }
    let text = r.render_prometheus();

    let valid_name = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    // Per-histogram running check state: (family, last cumulative, last le).
    let mut cumulative: std::collections::HashMap<String, (u64, f64)> =
        std::collections::HashMap::new();
    let mut bucket_totals: std::collections::HashMap<String, u64> =
        std::collections::HashMap::new();
    let mut count_values: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().expect("HELP name");
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(
                parts.next().is_some_and(|help| !help.trim().is_empty()),
                "HELP with no text in {line:?}"
            );
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind:?}"
            );
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            // Every family's HELP line immediately precedes its TYPE.
            assert_eq!(
                helped.last().map(String::as_str),
                Some(name),
                "TYPE for {name} not preceded by its HELP line"
            );
            declared.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form {line:?}");
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable sample value in {line:?}: {e}");
        });
        assert!(value >= 0.0, "negative sample in {line:?}");
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest.strip_suffix('}').expect("unterminated label set");
                (n, Some(labels))
            }
            None => (series, None),
        };
        assert!(valid_name(name), "illegal metric name {name:?}");
        // The sample must belong to a previously declared family (the
        // histogram suffixes map back to their base name).
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| declared.iter().any(|(n, k)| n == base && k == "histogram"))
            .unwrap_or(name);
        assert!(
            declared.iter().any(|(n, _)| n == family),
            "sample {name} has no preceding # TYPE for {family}"
        );
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').expect("label needs key=value");
                assert!(valid_name(k), "illegal label name {k:?}");
                assert!(
                    v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                    "unquoted label value in {line:?}"
                );
            }
            if name.ends_with("_bucket") {
                let le = labels
                    .split(',')
                    .find_map(|p| p.strip_prefix("le=\""))
                    .and_then(|v| v.strip_suffix('"'))
                    .expect("bucket needs le");
                let bound: f64 = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("numeric le")
                };
                let entry = cumulative
                    .entry(family.to_string())
                    .or_insert((0, f64::NEG_INFINITY));
                assert!(
                    bound > entry.1,
                    "bucket bounds must increase: {le} in {line:?}"
                );
                assert!(
                    value as u64 >= entry.0,
                    "bucket counts must be cumulative in {line:?}"
                );
                *entry = (value as u64, bound);
                bucket_totals.insert(family.to_string(), value as u64);
            }
        }
        if let Some(base) = name.strip_suffix("_count") {
            count_values.insert(base.to_string(), value as u64);
        }
        samples += 1;
    }
    assert!(
        samples >= 4,
        "expected counters, gauge, and histogram lines"
    );
    // The final (+Inf) bucket of each histogram equals its _count.
    assert!(!bucket_totals.is_empty(), "histogram rendered no buckets");
    for (family, total) in &bucket_totals {
        assert_eq!(
            count_values.get(family),
            Some(total),
            "{family}: +Inf bucket disagrees with _count"
        );
    }
    assert_eq!(count_values.get("serving_latency_ns"), Some(&6));
}
