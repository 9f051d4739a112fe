//! Oracle-gap fidelity sweep (conformance subsystem).
//!
//! Where `fig12b` reproduces the paper's ablation figure, this experiment
//! is the standing fidelity measurement the CI gate consumes: the oracle
//! gap (cost-model pick latency / capped-exhaustive-oracle pick latency)
//! over ≥ 200 deterministic fuzzed GEMM-family shapes on the GPU model.
//! Emits `results/oracle-gap.json` with the full per-shape sample set so
//! threshold regressions are diagnosable shape by shape.

use mikpoly::TemplateKind;
use mikpoly_conformance::{gap_for, sample_shapes, summarize, GateConfig, MachineKind};

use crate::setup::Harness;
use crate::Report;

/// Shapes measured; the acceptance floor for the fidelity artifact.
const SHAPES: usize = 200;

/// Seed of the pinned shape population (changing it invalidates gap
/// comparisons across commits — bump deliberately, never casually).
const SHAPE_SEED: u64 = 0xC0FFEE;

/// Runs the oracle-gap sweep and writes `results/oracle-gap.json`.
pub fn run(h: &Harness) -> Vec<Report> {
    let gpu = h.gpu();
    let compiler = h.compiler(&gpu, TemplateKind::Gemm);
    let gate = GateConfig::default();

    let shapes = sample_shapes(SHAPE_SEED, SHAPES);
    let samples: Vec<_> = shapes
        .iter()
        .map(|s| gap_for(&compiler, MachineKind::Gpu, s, gate.candidate_cap))
        .collect();
    let summary = summarize(&samples);

    let mut report = Report::new(
        "oracle-gap",
        "Cost-model fidelity: oracle gap over fuzzed shapes (GPU)",
        &["metric", "value"],
    );
    for (metric, value) in [
        ("shapes", summary.count as f64),
        ("mean gap", summary.mean),
        ("p50 gap", summary.p50),
        ("p95 gap", summary.p95),
        ("max gap", summary.max),
        ("truncated searches", summary.truncated as f64),
        ("threshold p95", gate.threshold_p95),
    ] {
        report.push_row(vec![metric.to_string(), format!("{value:.4}")]);
    }
    report.headline("oracle gap p50", summary.p50);
    report.headline(
        format!("oracle gap p95 (gate: <= {:.2})", gate.threshold_p95),
        summary.p95,
    );
    report.headline("shapes evaluated", summary.count as f64);

    // The machine-readable artifact the fidelity gate and future PRs
    // compare against.
    let artifact = serde_json::json!({
        "machine": "gpu",
        "shape_seed": SHAPE_SEED,
        "candidate_cap": gate.candidate_cap,
        "threshold_p95": gate.threshold_p95,
        "summary": serde_json::to_value(&summary).expect("summary json"),
        "samples": serde_json::to_value(&samples).expect("samples json"),
    });
    h.write_artifact("oracle-gap.json", &artifact);
    vec![report]
}
