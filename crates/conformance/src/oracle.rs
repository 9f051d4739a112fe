//! Oracle-gap measurement: how close the Eq. 2 cost model gets to the
//! exhaustively-simulated optimum (the paper's Fig. 12(b) MikPoly-Oracle).
//!
//! The *oracle gap* of a shape is `sim(cost-model pick) / sim(oracle
//! pick)`: 1.0 means the analytic model chose the true-best strategy; 1.10
//! means it left 10% on the table. The oracle enumeration is bounded by a
//! candidate cap so a whole corpus stays tractable; truncated searches are
//! flagged (a truncated oracle can, in principle, be *worse* than the
//! model pick, yielding a gap below 1).

use serde::{Deserialize, Serialize};

use mikpoly::MikPoly;
use tensor_ir::Operator;

use crate::fuzz::{MachineKind, OpSpec};
use crate::rng::XorShift64;

/// One shape's oracle-gap measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapSample {
    /// The measured shape.
    pub op: OpSpec,
    /// Machine the measurement ran on.
    pub machine: MachineKind,
    /// Simulated latency of the cost model's pick, ns.
    pub model_ns: f64,
    /// Simulated latency of the oracle's pick, ns.
    pub oracle_ns: f64,
    /// `model_ns / oracle_ns`.
    pub gap: f64,
    /// Candidate strategies the oracle simulated.
    pub candidates: usize,
    /// Whether the candidate cap truncated the enumeration.
    pub truncated: bool,
}

/// Measures one operator's oracle gap on `compiler`, simulating at most
/// `cap` candidates.
pub fn gap_for(
    compiler: &MikPoly,
    machine: MachineKind,
    op_spec: &OpSpec,
    cap: usize,
) -> GapSample {
    let op: Operator = op_spec.operator();
    let model_program = compiler.compile(&op);
    let model_ns = compiler.simulate(&model_program).time_ns;
    let oracle = compiler.compile_oracle_capped(&op, cap);
    // `compile_oracle_capped` stores the winning simulated latency in
    // `predicted_ns`, saving a redundant simulation here.
    let oracle_ns = oracle.program.predicted_ns;
    GapSample {
        op: *op_spec,
        machine,
        model_ns,
        oracle_ns,
        gap: model_ns / oracle_ns,
        candidates: oracle.candidates,
        truncated: oracle.truncated,
    }
}

/// Distributional summary of a gap corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean gap.
    pub mean: f64,
    /// Median gap.
    pub p50: f64,
    /// 95th-percentile gap (nearest-rank).
    pub p95: f64,
    /// Worst gap.
    pub max: f64,
    /// Samples whose oracle enumeration was truncated by the cap.
    pub truncated: usize,
}

/// Nearest-rank percentile of an ascending-sorted slice: the element of
/// 1-based rank `ceil(p·n)`, clamped into `1..=n`, so p50 of `1..=100`
/// is 50. NaN when empty. (The serving reports use a different
/// convention; see `mikpoly::serving::percentile`.)
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summarizes gap samples (p50/p95 by nearest rank).
pub fn summarize(samples: &[GapSample]) -> GapSummary {
    let mut gaps: Vec<f64> = samples.iter().map(|s| s.gap).collect();
    gaps.sort_by(|a, b| a.total_cmp(b));
    GapSummary {
        count: gaps.len(),
        mean: if gaps.is_empty() {
            f64::NAN
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        },
        p50: percentile(&gaps, 0.50),
        p95: percentile(&gaps, 0.95),
        max: gaps.last().copied().unwrap_or(f64::NAN),
        truncated: samples.iter().filter(|s| s.truncated).count(),
    }
}

/// Draws `count` deterministic GEMM-family shapes for gap measurement.
/// Uses the gemm template only (plain + batched) so a single compiler
/// serves the whole sweep; dimensions span the dynamic range the paper's
/// workloads exercise, scaled to keep an exhaustive sweep tractable.
pub fn sample_shapes(seed: u64, count: usize) -> Vec<OpSpec> {
    let mut rng = XorShift64::new(seed);
    (0..count)
        .map(|_| {
            if rng.chance(3, 4) {
                OpSpec::Gemm {
                    m: rng.range(8, 1024),
                    n: rng.range(8, 512),
                    k: rng.range(8, 256),
                }
            } else {
                OpSpec::BatchedGemm {
                    batch: rng.range(2, 8),
                    m: rng.range(8, 128),
                    n: rng.range(8, 128),
                    k: rng.range(8, 64),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gap: f64) -> GapSample {
        GapSample {
            op: OpSpec::Gemm { m: 1, n: 1, k: 1 },
            machine: MachineKind::Gpu,
            model_ns: gap,
            oracle_ns: 1.0,
            gap,
            candidates: 1,
            truncated: false,
        }
    }

    #[test]
    fn summary_percentiles() {
        let samples: Vec<GapSample> = (1..=100).map(|i| sample(1.0 + i as f64 / 100.0)).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 1.50).abs() < 1e-9, "p50 = {}", s.p50);
        assert!((s.p95 - 1.95).abs() < 1e-9, "p95 = {}", s.p95);
        assert!((s.max - 2.00).abs() < 1e-9);
        assert_eq!(s.truncated, 0);
    }

    #[test]
    fn single_sample_summary() {
        let s = summarize(&[sample(1.07)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 1.07);
        assert_eq!(s.p95, 1.07);
    }

    #[test]
    fn sample_shapes_are_deterministic_and_valid() {
        let a = sample_shapes(11, 40);
        let b = sample_shapes(11, 40);
        assert_eq!(a, b);
        assert!(a.iter().any(|s| matches!(s, OpSpec::BatchedGemm { .. })));
        for s in &a {
            let _ = s.operator();
        }
    }
}
