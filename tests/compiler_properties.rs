//! Property-based tests on the compiler's data structures and invariants:
//! coverage, cost-model consistency, performance-model sanity, allocation
//! balance, and serialization round-trips.

use std::sync::{Arc, OnceLock};

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::{
    decode_bundle, encode_bundle, lpt_makespan, max_min_assign, sample_schedule,
    MicroKernelLibrary, MikPoly, OfflineOptions, PerfModel,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};
use proptest::prelude::*;

fn compiler() -> Arc<MikPoly> {
    static C: OnceLock<Arc<MikPoly>> = OnceLock::new();
    Arc::clone(C.get_or_init(|| {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        Arc::new(MikPoly::offline(MachineModel::a100(), &options))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every compiled program partitions its output space exactly.
    #[test]
    fn programs_always_cover_their_output(
        m in 1usize..5000,
        n in 1usize..5000,
        k in 1usize..4000,
    ) {
        let program = compiler().compile(&Operator::gemm(GemmShape::new(m, n, k)));
        prop_assert!(program.verify_coverage().is_ok(), "{:?}", program.regions);
        // Region kernels always come from the library.
        for r in &program.regions {
            prop_assert!(compiler().library().get(r.kernel.id).is_some());
        }
        prop_assert!(program.predicted_ns.is_finite() && program.predicted_ns > 0.0);
    }

    /// grid_size equals the sum of per-region task grids and is positive.
    #[test]
    fn grid_size_accounting(m in 1usize..3000, n in 1usize..3000) {
        let program = compiler().compile(&Operator::gemm(GemmShape::new(m, n, 64)));
        let per_region: usize = program.regions.iter().map(|r| r.tasks()).sum();
        prop_assert_eq!(program.grid_size(), per_region);
        prop_assert!(program.grid_size() >= 1);
    }

    /// The piecewise-linear fit stays within a few percent of affine truth
    /// for arbitrary positive coefficients.
    #[test]
    fn perf_model_fits_affine_functions(
        intercept in 1.0f64..10_000.0,
        slope in 0.01f64..1_000.0,
        n_pred in 16usize..4096,
    ) {
        let samples: Vec<(usize, f64)> = sample_schedule(n_pred)
            .into_iter()
            .map(|t| (t, intercept + slope * t as f64))
            .collect();
        prop_assume!(samples.len() >= 4);
        let model = PerfModel::fit(&samples, 4);
        for t in [1usize, n_pred / 3 + 1, n_pred] {
            let truth = intercept + slope * t as f64;
            let err = (model.predict(t) - truth).abs() / truth;
            prop_assert!(err < 0.05, "t={t} err={err}");
        }
    }

    /// The fast level-based makespan matches the per-task allocator and
    /// obeys the classic list-scheduling bounds.
    #[test]
    fn lpt_respects_graham_bound(
        durations in prop::collection::vec(1.0f64..100.0, 1..5),
        counts in prop::collection::vec(1usize..60, 1..5),
        pes in 1usize..33,
    ) {
        let n = durations.len().min(counts.len());
        let groups: Vec<(f64, usize)> = durations[..n]
            .iter()
            .zip(&counts[..n])
            .map(|(&d, &c)| (d, c))
            .collect();
        let fast = lpt_makespan(&groups, pes);
        let ds: Vec<f64> = groups.iter().map(|g| g.0).collect();
        let cs: Vec<usize> = groups.iter().map(|g| g.1).collect();
        let assignment = max_min_assign(&ds, &cs, pes);
        let slow = mikpoly_suite::mikpoly::makespan(&ds, &assignment, pes);
        prop_assert!((fast - slow).abs() < 1e-6, "fast {fast} vs reference {slow}");

        let total: f64 = groups.iter().map(|(d, c)| d * *c as f64).sum();
        let dmax = ds.iter().copied().fold(0.0, f64::max);
        let lower = (total / pes as f64).max(dmax);
        // Graham's list-scheduling bound: makespan <= avg load + max item.
        prop_assert!(fast <= total / pes as f64 + dmax + 1e-9);
        prop_assert!(fast >= lower - 1e-9);
    }

    /// A compiled program round-trips through a warm-state bundle.
    #[test]
    fn program_bundle_round_trip(m in 1usize..500, n in 1usize..500, k in 1usize..300) {
        let program = compiler().compile(&Operator::gemm(GemmShape::new(m, n, k)));
        let back = decode_bundle(&encode_bundle([&*program])).expect("decode");
        prop_assert_eq!(&back[..], std::slice::from_ref(&*program));
    }
}

#[test]
fn library_serde_round_trip_preserves_behavior() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let machine = MachineModel::a100();
    let lib = MicroKernelLibrary::generate(&machine, &options);
    let json = serde_json::to_string(&lib).expect("serialize");
    let back: MicroKernelLibrary = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(lib, back);
    // Compilation through the round-tripped library yields identical
    // programs.
    let a = MikPoly::with_library(machine.clone(), lib);
    let b = MikPoly::with_library(machine, back);
    let op = Operator::gemm(GemmShape::new(777, 333, 222));
    let pa = a.compile(&op);
    let pb = b.compile(&op);
    // search_ns is wall-clock and legitimately differs between runs.
    assert_eq!(pa.regions, pb.regions);
    assert_eq!(pa.pattern, pb.pattern);
    assert_eq!(pa.predicted_ns, pb.predicted_ns);
}

#[test]
fn compilation_is_deterministic_across_compiler_instances() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let machine = MachineModel::a100();
    let a = MikPoly::offline(machine.clone(), &options);
    let b = MikPoly::offline(machine, &options);
    for (m, n, k) in [
        (100usize, 200usize, 300usize),
        (4096, 1024, 4096),
        (1, 1, 1),
    ] {
        let op = Operator::gemm(GemmShape::new(m, n, k));
        let pa = a.compile(&op);
        let pb = b.compile(&op);
        assert_eq!(pa.regions, pb.regions);
        assert_eq!(pa.pattern, pb.pattern);
    }
}

/// Pinned regression from `compiler_properties.proptest-regressions`
/// (`durations = [1.0], counts = [12], pes = 9`): twelve unit tasks on
/// nine PEs once tripped the fast/reference makespan comparison. Kept as
/// an explicit deterministic test because the vendored proptest stand-in
/// does not replay regression files.
#[test]
fn regression_lpt_twelve_unit_tasks_on_nine_pes() {
    let groups = [(1.0f64, 12usize)];
    let pes = 9;
    let fast = lpt_makespan(&groups, pes);
    let ds = [1.0f64];
    let cs = [12usize];
    let assignment = max_min_assign(&ds, &cs, pes);
    let slow = mikpoly_suite::mikpoly::makespan(&ds, &assignment, pes);
    assert!(
        (fast - slow).abs() < 1e-6,
        "fast {fast} vs reference {slow}"
    );
    // 12 unit tasks over 9 PEs: three PEs take two tasks, makespan 2.
    assert!((fast - 2.0).abs() < 1e-9, "expected 2.0, got {fast}");
    let total = 12.0f64;
    let lower = (total / pes as f64).max(1.0);
    assert!(fast <= total / pes as f64 + 1.0 + 1e-9);
    assert!(fast >= lower - 1e-9);
}
