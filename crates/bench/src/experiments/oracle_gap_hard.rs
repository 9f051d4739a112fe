//! Hard-tier oracle-gap measurement: the before/after evidence for the
//! staged, occupancy-refined polymerization search.
//!
//! Runs the pinned hard corpus (`tests/corpus/hard-shapes.json` — the
//! shapes whose gap sat at 1.2–1.5 under the legacy Eq. 2-only selection)
//! under both the legacy and the default [`SearchPolicy`], measuring the
//! oracle gap and the online search-latency distribution of each. Emits
//! `results/oracle-gap-hard.json`; the headline gaps land in
//! `results/summary.json` like every other experiment.

use std::sync::Arc;

use mikpoly::{MikPoly, OnlineOptions, SearchPolicy, TemplateKind};
use mikpoly_conformance::{
    gap_for, load_corpus, percentile, summarize, ConformanceEnv, FuzzCase, GateConfig, MachineKind,
};

use crate::setup::{workspace_root, Harness};
use crate::Report;

/// Search repetitions per shape for the latency distribution.
const LATENCY_REPS: usize = 16;

fn variant(h: &Harness, policy: SearchPolicy) -> Arc<MikPoly> {
    let gpu = h.gpu();
    Arc::new(
        MikPoly::with_library(gpu.clone(), h.library(&gpu, TemplateKind::Gemm)).with_options(
            OnlineOptions {
                cache: false,
                search: policy,
                ..OnlineOptions::default()
            },
        ),
    )
}

/// Nearest-rank percentile of an unsorted sample set, in microseconds.
fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile(samples, p) / 1e3
}

/// Runs the hard-tier before/after sweep and writes
/// `results/oracle-gap-hard.json`.
pub fn run(h: &Harness) -> Vec<Report> {
    let corpus_path = workspace_root().join("tests/corpus/hard-shapes.json");
    let corpus: Vec<FuzzCase> = load_corpus(&corpus_path).expect("hard corpus must parse");
    assert!(!corpus.is_empty(), "hard corpus is empty");
    let gate = GateConfig::default();
    // The corpus is small, so the oracle can afford a cap high enough to
    // never truncate: a truncated oracle is weaker than the full
    // enumeration and flatters the model's gap.
    let cap = 1_000_000;

    let before = variant(h, SearchPolicy::legacy());
    let after = variant(h, SearchPolicy::default());

    let mut report = Report::new(
        "oracle-gap-hard",
        "Hard-shape oracle gap: legacy vs staged (occupancy-refined) search",
        &[
            "shape",
            "gap legacy",
            "gap staged",
            "search us legacy",
            "search us staged",
        ],
    );

    let mut samples_before = Vec::new();
    let mut samples_after = Vec::new();
    let mut lat_before = Vec::new();
    let mut lat_after = Vec::new();
    for case in &corpus {
        let b = gap_for(&before, MachineKind::Gpu, &case.op, cap);
        let a = gap_for(&after, MachineKind::Gpu, &case.op, cap);
        let op = case.op.operator();
        let mut shape_b = Vec::with_capacity(LATENCY_REPS);
        let mut shape_a = Vec::with_capacity(LATENCY_REPS);
        for _ in 0..LATENCY_REPS {
            shape_b.push(before.compile(&op).stats.search_ns as f64);
            shape_a.push(after.compile(&op).stats.search_ns as f64);
        }
        report.push_row(vec![
            format!("{}", op),
            format!("{:.3}", b.gap),
            format!("{:.3}", a.gap),
            format!(
                "{:.1}",
                shape_b.iter().sum::<f64>() / (1e3 * LATENCY_REPS as f64)
            ),
            format!(
                "{:.1}",
                shape_a.iter().sum::<f64>() / (1e3 * LATENCY_REPS as f64)
            ),
        ]);
        samples_before.push(b);
        samples_after.push(a);
        lat_before.extend(shape_b);
        lat_after.extend(shape_a);
    }

    // The same corpus at the conformance gate's library scale
    // (`OfflineOptions::fast`), where the legacy selection left 20-50% on
    // the table — the regression this corpus was pinned to prevent. The
    // paper-scale library above partially masks the Eq. 2 ranking error
    // with sheer kernel coverage; the gate library does not.
    let gate_legacy = ConformanceEnv::standard().with_online_options(OnlineOptions {
        cache: false,
        search: SearchPolicy::legacy(),
        ..OnlineOptions::default()
    });
    let gate_staged = ConformanceEnv::standard().with_online_options(OnlineOptions {
        cache: false,
        ..OnlineOptions::default()
    });
    let mut gate_before = Vec::new();
    let mut gate_after = Vec::new();
    for case in &corpus {
        gate_before.push(gap_for(
            gate_legacy.compiler_for(case),
            MachineKind::Gpu,
            &case.op,
            cap,
        ));
        gate_after.push(gap_for(
            gate_staged.compiler_for(case),
            MachineKind::Gpu,
            &case.op,
            cap,
        ));
    }
    let gate_sum_before = summarize(&gate_before);
    let gate_sum_after = summarize(&gate_after);

    let sum_before = summarize(&samples_before);
    let sum_after = summarize(&samples_after);
    let lat = |v: &mut Vec<f64>| (percentile_us(v, 0.50), percentile_us(v, 0.95));
    let (b_p50, b_p95) = lat(&mut lat_before);
    let (a_p50, a_p95) = lat(&mut lat_after);

    report.headline("hard-corpus gap p95, legacy search", sum_before.p95);
    report.headline(
        format!(
            "hard-corpus gap p95, staged search (gate: <= {:.2})",
            gate.threshold_p95
        ),
        sum_after.p95,
    );
    report.headline("hard-corpus gap max, staged search", sum_after.max);
    report.headline(
        "hard-corpus gap p95, legacy search, gate library",
        gate_sum_before.p95,
    );
    report.headline(
        "hard-corpus gap p95, staged search, gate library",
        gate_sum_after.p95,
    );
    report.headline("search latency p95 us, staged search", a_p95);
    report.headline(
        "search latency p95 ratio, staged vs legacy (accept: <= 2.0)",
        a_p95 / b_p95.max(1e-9),
    );

    let artifact = serde_json::json!({
        "machine": "gpu",
        "corpus": "tests/corpus/hard-shapes.json",
        "candidate_cap": cap,
        "threshold_p95": gate.threshold_p95,
        "before": {
            "policy": "legacy",
            "summary": serde_json::to_value(&sum_before).expect("summary json"),
            "samples": serde_json::to_value(&samples_before).expect("samples json"),
            "search_latency_us": { "p50": b_p50, "p95": b_p95 },
        },
        "after": {
            "policy": "default (staged, occupancy-refined)",
            "summary": serde_json::to_value(&sum_after).expect("summary json"),
            "samples": serde_json::to_value(&samples_after).expect("samples json"),
            "search_latency_us": { "p50": a_p50, "p95": a_p95 },
        },
        "gate_library": {
            "offline": "fast (ConformanceEnv::standard)",
            "before": {
                "policy": "legacy",
                "summary": serde_json::to_value(&gate_sum_before).expect("summary json"),
                "samples": serde_json::to_value(&gate_before).expect("samples json"),
            },
            "after": {
                "policy": "default (staged, occupancy-refined)",
                "summary": serde_json::to_value(&gate_sum_after).expect("summary json"),
                "samples": serde_json::to_value(&gate_after).expect("samples json"),
            },
        },
    });
    h.write_artifact("oracle-gap-hard.json", &artifact);
    vec![report]
}
