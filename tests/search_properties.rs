//! Property-based tests on the staged polymerization search: budget
//! escalation can only improve the selected strategy, and pruning never
//! beats the exhaustive walk it approximates — nor, when its budget
//! sufficed, loses to it by more than the prune margin. The pruning
//! properties run on the A100 (dynamic scheduling, Eq. 2 leaves) and on
//! the Ascend 910A (static placement, LPT-makespan leaves pruned by the
//! fractional and the pigeonhole makespan bounds).
//!
//! The properties run under the legacy (refinement-off) policy so the
//! compared quantities are estimates of the *same* criterion; the
//! occupancy-refined selection is pinned by the conformance hard-tier gate
//! instead.

use std::sync::OnceLock;

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::{
    default_patterns, try_polymerize, CompiledProgram, CostModelKind, MicroKernelLibrary,
    OfflineOptions, SearchPolicy,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};
use proptest::prelude::*;

/// A machine with its tuned library.
type Target = (MachineModel, MicroKernelLibrary);

fn tuned(machine: MachineModel, options: &OfflineOptions) -> Target {
    let lib = MicroKernelLibrary::generate(&machine, options);
    (machine, lib)
}

fn small_library() -> OfflineOptions {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    options
}

fn a100() -> &'static Target {
    static S: OnceLock<Target> = OnceLock::new();
    S.get_or_init(|| tuned(MachineModel::a100(), &small_library()))
}

fn ascend() -> &'static Target {
    static S: OnceLock<Target> = OnceLock::new();
    S.get_or_init(|| tuned(MachineModel::ascend910a(), &small_library()))
}

/// The deadline-free search's program for a GEMM of `shape`, over the
/// machine's default patterns (I–II on the A100, I–IX on the Ascend).
fn search(
    target: &Target,
    shape: GemmShape,
    prune: bool,
    policy: &SearchPolicy,
) -> CompiledProgram {
    let (machine, lib) = target;
    let op = Operator::gemm(shape);
    let program = try_polymerize(
        machine,
        lib,
        &op.gemm_view(),
        op,
        &default_patterns(machine),
        CostModelKind::Full,
        prune,
        policy,
        None,
    )
    .expect("a deadline-free search over a generated library cannot fail")
    .program;
    program.verify_coverage().expect("coverage");
    program
}

fn compile(shape: GemmShape, prune: bool, policy: &SearchPolicy) -> f64 {
    search(a100(), shape, prune, policy).predicted_ns
}

/// The exhaustive pick never loses to the pruned one, and the pruned pick
/// is within the prune margin of it whenever the budget did not bind (an
/// admissible bound cannot cut the optimum by more than the margin).
fn pruning_keeps_the_optimum(target: &Target, shape: GemmShape) -> Result<(), TestCaseError> {
    let policy = SearchPolicy::legacy();
    let pruned = search(target, shape, true, &policy);
    let full = search(target, shape, false, &policy);
    prop_assert!(
        full.predicted_ns <= pruned.predicted_ns + 1e-9,
        "{}: exhaustive pick worse than pruned pick: {} vs {}",
        target.0.name,
        full.predicted_ns,
        pruned.predicted_ns
    );
    if pruned.stats.budget_exhausted == 0 {
        prop_assert!(
            pruned.predicted_ns <= full.predicted_ns / SearchPolicy::PRUNE_MARGIN + 1e-9,
            "{}: pruning cut the optimum: {} vs {}",
            target.0.name,
            pruned.predicted_ns,
            full.predicted_ns
        );
    }
    Ok(())
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
        pruning_keeps_the_optimum(a100(), GemmShape::new(m, n, k))?;
    }

    /// The same on the Ascend 910A, where the unpruned walk covers all
    /// nine patterns; shapes stay small enough to keep it tractable.
    #[test]
    fn unpruned_search_never_loses_to_pruning_on_the_npu(
        m in 1usize..1200,
        n in 1usize..1000,
        k in 1usize..800,
    ) {
        pruning_keeps_the_optimum(ascend(), GemmShape::new(m, n, k))?;
    }
}

/// With an unlimited budget nothing triggers escalation, so the adaptive
/// and fixed searches are bit-identical.
#[test]
fn unlimited_budget_never_escalates() {
    for (m, n, k) in [(777usize, 333usize, 111usize), (2048, 384, 128)] {
        let program = search(
            a100(),
            GemmShape::new(m, n, k),
            true,
            &SearchPolicy::default(),
        );
        assert_eq!(program.stats.escalations, 0, "{m}x{n}x{k}");
        assert_eq!(program.stats.budget_exhausted, 0, "{m}x{n}x{k}");
    }
}

/// The same on the Ascend 910A: with no node budget the search never
/// exhausts, never escalates, and picks exactly what a search that may
/// not escalate picks.
#[test]
fn unlimited_budget_never_escalates_on_the_npu() {
    let unlimited = SearchPolicy {
        node_budget: usize::MAX,
        ..SearchPolicy::default()
    };
    let fixed = SearchPolicy {
        max_escalations: 0,
        ..unlimited
    };
    for (m, n, k) in [
        (1234usize, 777usize, 512usize),
        (135, 768, 768),
        (96, 96, 96),
    ] {
        let shape = GemmShape::new(m, n, k);
        let program = search(ascend(), shape, true, &unlimited);
        assert_eq!(program.stats.escalations, 0, "{m}x{n}x{k}");
        assert_eq!(program.stats.budget_exhausted, 0, "{m}x{n}x{k}");
        let pinned = search(ascend(), shape, true, &fixed);
        assert_eq!(program.pattern, pinned.pattern, "{m}x{n}x{k}");
        assert_eq!(program.regions, pinned.regions, "{m}x{n}x{k}");
    }
}

/// Cold BERT projection shapes of the `cold-npu` walk, at the default
/// policy over a 40-kernel library. While NPU partial strategies were
/// pruned with the fractional makespan bound alone, each exhausted the
/// 600-node budget, all but the last escalated, and each evaluated 500 to
/// 12,000 strategies. The pigeonhole bound keeps them to a few hundred.
#[test]
fn cold_npu_shapes_fit_the_default_budget() {
    static S: OnceLock<Target> = OnceLock::new();
    let target = S.get_or_init(|| {
        let options = OfflineOptions {
            n_mik: 40,
            ..OfflineOptions::fast()
        };
        tuned(MachineModel::ascend910a(), &options)
    });
    for (m, n, k) in [
        (113usize, 768usize, 768usize),
        (135, 768, 768),
        (219, 768, 3072),
        (537, 768, 768),
        (134, 2304, 768),
        (1172, 768, 768),
    ] {
        let stats = search(
            target,
            GemmShape::new(m, n, k),
            true,
            &SearchPolicy::default(),
        )
        .stats;
        assert_eq!(stats.budget_exhausted, 0, "{m}x{n}x{k}: {stats:?}");
        assert_eq!(stats.escalations, 0, "{m}x{n}x{k}: {stats:?}");
        assert!(stats.strategies_evaluated < 600, "{m}x{n}x{k}: {stats:?}");
    }
}
