//! End-to-end model execution over operator backends.

use mikpoly_baselines::{Backend, BackendError};
use mikpoly_models::ModelGraph;

/// Number of measured runs the paper averages per configuration ("we warm
/// up experiments and average execution times over 20 runs"). One-time
/// host work — MikPoly's polymerization, a library's kernel selection — is
/// paid on the first of those runs and amortized across the average, which
/// is how the reported end-to-end latency "encompasses ... the runtime
/// overhead attributed to MikPoly's cost model" without being dominated by
/// it.
pub const RUNS_AVERAGED: f64 = 20.0;

/// Latency of one forward pass: device time for every operator occurrence
/// plus each backend's host overhead, amortized per [`RUNS_AVERAGED`] and
/// paid once per *unique* shape (runtimes and MikPoly alike compile/select
/// once and reuse the program for repeated layers).
///
/// Routes convolutions to `conv_backend` and (batched) GEMMs to
/// `gemm_backend` — the split vendor libraries (cuDNN vs cuBLAS) and
/// MikPoly's per-template kernel libraries both want.
///
/// # Errors
///
/// Propagates the first backend error (e.g. a DietCode invalid run).
pub fn model_latency_ns(
    graph: &ModelGraph,
    gemm_backend: &dyn Backend,
    conv_backend: &dyn Backend,
) -> Result<f64, BackendError> {
    let mut total = 0.0;
    for op in &graph.ops {
        let backend = match op.operator.kind() {
            "conv2d" => conv_backend,
            _ => gemm_backend,
        };
        let run = backend.run(&op.operator)?;
        total += run.report.time_ns * op.count as f64 + run.overhead_ns / RUNS_AVERAGED;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::MachineModel;
    use mikpoly_baselines::VendorLibrary;
    use mikpoly_models::TransformerConfig;

    #[test]
    fn longer_sequences_cost_more() {
        let vendor = VendorLibrary::cublas(MachineModel::a100());
        let bert = TransformerConfig::bert_base();
        let short = model_latency_ns(&bert.graph(1, 32), &vendor, &vendor).expect("run");
        let long = model_latency_ns(&bert.graph(1, 512), &vendor, &vendor).expect("run");
        assert!(long > 2.0 * short);
    }
}
