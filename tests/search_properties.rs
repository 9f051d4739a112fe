//! Property-based tests on the staged polymerization search: budget
//! escalation can only improve the selected strategy, and pruning never
//! beats the exhaustive walk it approximates.
//!
//! Both properties run under the legacy (refinement-off) policy so the
//! compared quantities are Eq. 2 estimates of the *same* criterion; the
//! occupancy-refined selection is pinned by the conformance hard-tier gate
//! instead.

use std::sync::OnceLock;

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::pattern::gpu_patterns;
use mikpoly_suite::mikpoly::{
    try_polymerize, CompiledProgram, CostModelKind, MicroKernelLibrary, OfflineOptions,
    SearchPolicy,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};
use proptest::prelude::*;

fn setup() -> (&'static MachineModel, &'static MicroKernelLibrary) {
    static S: OnceLock<(MachineModel, MicroKernelLibrary)> = OnceLock::new();
    let (m, l) = S.get_or_init(|| {
        let machine = MachineModel::a100();
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&machine, &options);
        (machine, lib)
    });
    (m, l)
}

/// The deadline-free search's program for a GEMM of `shape`.
fn search(shape: GemmShape, prune: bool, policy: &SearchPolicy) -> CompiledProgram {
    let (machine, lib) = setup();
    let op = Operator::gemm(shape);
    try_polymerize(
        machine,
        lib,
        &op.gemm_view(),
        op,
        &gpu_patterns(),
        CostModelKind::Full,
        prune,
        policy,
        None,
    )
    .expect("a deadline-free search over a generated library cannot fail")
    .program
}

fn compile(shape: GemmShape, prune: bool, policy: &SearchPolicy) -> f64 {
    let program = search(shape, prune, policy);
    program.verify_coverage().expect("coverage");
    program.predicted_ns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An escalated search sees a superset of the starved search's
    /// strategy space, so its pick is never worse in Eq. 2 terms — up to
    /// the branch-and-bound prune margin, which either run may exploit.
    #[test]
    fn escalation_never_selects_a_worse_strategy(
        m in 1usize..3000,
        n in 1usize..2000,
        k in 1usize..1000,
        budget in 8usize..200,
    ) {
        let shape = GemmShape::new(m, n, k);
        let starved = SearchPolicy {
            node_budget: budget,
            ..SearchPolicy::legacy()
        };
        let escalated = SearchPolicy {
            node_budget: budget,
            max_escalations: 3,
            escalate_ratio: 1.0,
            ..SearchPolicy::legacy()
        };
        let fixed = compile(shape, true, &starved);
        let adaptive = compile(shape, true, &escalated);
        prop_assert!(
            adaptive <= fixed * 1.006 + 1e-9,
            "escalation regressed the pick: {adaptive} vs {fixed}"
        );
    }

    /// Disabling pruning walks every strategy, so its pick can never lose
    /// to the pruned search's pick.
    #[test]
    fn unpruned_search_never_loses_to_pruning(
        m in 1usize..3000,
        n in 1usize..2000,
        k in 1usize..1000,
    ) {
        let shape = GemmShape::new(m, n, k);
        let policy = SearchPolicy::legacy();
        let pruned = compile(shape, true, &policy);
        let full = compile(shape, false, &policy);
        prop_assert!(
            full <= pruned + 1e-9,
            "exhaustive pick worse than pruned pick: {full} vs {pruned}"
        );
    }
}

/// With an unlimited budget nothing triggers escalation, so the adaptive
/// and fixed searches are bit-identical.
#[test]
fn unlimited_budget_never_escalates() {
    for (m, n, k) in [(777usize, 333usize, 111usize), (2048, 384, 128)] {
        let program = search(GemmShape::new(m, n, k), true, &SearchPolicy::default());
        assert_eq!(program.stats.escalations, 0, "{m}x{n}x{k}");
        assert_eq!(program.stats.budget_exhausted, 0, "{m}x{n}x{k}");
    }
}
