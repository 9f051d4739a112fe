//! One module per table/figure of the paper's evaluation. Every module
//! exposes `run(&Harness) -> Vec<Report>`; the `experiments` binary
//! dispatches on experiment id.

pub mod abl_patterns;
pub mod abl_search;
pub mod batch_serving;
pub mod case_study;
pub mod chaos_serving;
pub mod ext_colaunch;
pub mod ext_fusion;
pub mod ext_portability;
pub mod ext_serving;
pub mod ext_splitk;
pub mod ext_winograd;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12a;
pub mod fig12b;
pub mod fig13;
pub mod npu_e2e;
pub mod oracle_gap;
pub mod oracle_gap_hard;
pub mod sim_throughput;
pub mod tab05;
pub mod tab08;
pub mod tables;

use mikpoly_baselines::Backend;
use tensor_ir::Operator;

use crate::report::{geomean, max, mean};
use crate::setup::Harness;
use crate::Report;

/// An experiment entry point: takes the harness, returns its reports.
pub type ExperimentFn = fn(&Harness) -> Vec<Report>;

/// The registry of all experiments, in paper order.
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig1", fig01::run as ExperimentFn),
        ("tables", tables::run),
        ("fig6", fig06::run),
        ("fig7", fig07::run),
        ("fig8", fig08::run),
        ("fig9", fig09::run),
        ("npu-e2e", npu_e2e::run),
        ("fig10", fig10::run),
        ("tab5", tab05::run),
        ("tab8", tab08::run),
        ("fig11", fig11::run),
        ("fig12a", fig12a::run),
        ("fig12b", fig12b::run),
        ("fig13", fig13::run),
        ("case-study", case_study::run),
        // Extensions and ablations beyond the paper's evaluation.
        ("ext-winograd", ext_winograd::run),
        ("ext-fusion", ext_fusion::run),
        ("ext-portability", ext_portability::run),
        ("ext-splitk", ext_splitk::run),
        ("ext-serving", ext_serving::run),
        ("batch-serving", batch_serving::run),
        ("chaos-serving", chaos_serving::run),
        ("sim-throughput", sim_throughput::run),
        ("ext-colaunch", ext_colaunch::run),
        ("abl-patterns", abl_patterns::run),
        ("abl-search", abl_search::run),
        // Conformance subsystem: the standing cost-model fidelity sweeps.
        ("oracle-gap", oracle_gap::run),
        ("oracle-gap-hard", oracle_gap_hard::run),
    ]
}

/// Per-case speedups of several systems over a baseline on an operator
/// population. Device time only: the paper warms up and averages 20 runs
/// per case, so one-time host work (MikPoly's polymerization, DietCode's
/// dispatch) is not in the per-run time. End-to-end experiments account
/// overhead explicitly, as the paper does.
pub(crate) struct SuiteComparison {
    /// System names, baseline first.
    pub names: Vec<String>,
    /// `speedups[s][c]` = baseline_time / system_s_time on case `c`
    /// (the baseline row is all ones).
    pub speedups: Vec<Vec<f64>>,
    /// Case FLOPs (the paper's x-axis).
    pub flops: Vec<f64>,
}

impl SuiteComparison {
    pub fn run(cases: &[Operator], baseline: &dyn Backend, others: &[&dyn Backend]) -> Self {
        let mut names = vec![baseline.name().to_string()];
        names.extend(others.iter().map(|b| b.name().to_string()));
        let mut speedups = vec![Vec::with_capacity(cases.len()); others.len() + 1];
        let mut flops = Vec::with_capacity(cases.len());
        for op in cases {
            let base = baseline
                .run(op)
                .unwrap_or_else(|e| panic!("baseline {} failed on {op}: {e}", baseline.name()));
            flops.push(op.flops());
            speedups[0].push(1.0);
            for (i, b) in others.iter().enumerate() {
                let run = b
                    .run(op)
                    .unwrap_or_else(|e| panic!("{} failed on {op}: {e}", b.name()));
                speedups[i + 1].push(base.report.time_ns / run.report.time_ns);
            }
        }
        Self {
            names,
            speedups,
            flops,
        }
    }

    /// Appends per-system mean/geomean/max rows to a report.
    pub fn summarize(&self, report: &mut Report, suite: &str) {
        for (name, sp) in self.names.iter().zip(&self.speedups) {
            report.push_row(vec![
                suite.to_string(),
                name.clone(),
                format!("{:.2}", mean(sp)),
                format!("{:.2}", geomean(sp)),
                format!("{:.2}", max(sp)),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Config;

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment id");
        for id in ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "id {id} is not kebab-case"
            );
        }
    }

    #[test]
    fn library_free_experiments_run_in_tests() {
        // fig1 and the config tables need no micro-kernel library; they
        // must run quickly even in debug builds.
        let harness = Harness::new(Config::quick());
        for id in ["fig1", "tables"] {
            let (_, runner) = registry().into_iter().find(|(k, _)| *k == id).expect("id");
            let reports = runner(&harness);
            assert!(!reports.is_empty());
            for r in &reports {
                assert!(!r.columns.is_empty());
                assert!(!r.rows.is_empty(), "{} produced no rows", r.id);
            }
        }
    }

    #[test]
    fn suite_comparison_baseline_row_is_unity() {
        use accel_sim::MachineModel;
        use mikpoly_baselines::VendorLibrary;
        use tensor_ir::GemmShape;
        let vendor = VendorLibrary::cublas(MachineModel::a100());
        let cases = [
            Operator::gemm(GemmShape::new(64, 64, 64)),
            Operator::gemm(GemmShape::new(100, 300, 50)),
        ];
        let cmp = SuiteComparison::run(&cases, &vendor, &[&vendor]);
        assert!(cmp.speedups[0].iter().all(|&s| s == 1.0));
        // Comparing the baseline against itself is also unity.
        assert!(cmp.speedups[1].iter().all(|&s| (s - 1.0).abs() < 1e-9));
        assert_eq!(cmp.flops.len(), 2);
    }
}
