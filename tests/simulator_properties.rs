//! Property-based tests on the accelerator simulator's invariants: the
//! substrate everything else trusts.

use mikpoly_suite::accel_sim::{
    pipelined_task_ns, simulate, Launch, MachineModel, TaskGroup, TaskShape, TaskSpec, TimingMode,
};
use proptest::prelude::*;

fn small_tile() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8).prop_map(|(a, b, c)| (a * 16, b * 16, c * 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Makespan is monotone in grid size: more tasks never finish sooner.
    #[test]
    fn makespan_is_monotone_in_task_count(
        (um, un, uk) in small_tile(),
        warps in prop::sample::select(vec![1usize, 2, 4, 8]),
        instances in 1usize..32,
        count in 1usize..300,
    ) {
        let machine = MachineModel::a100();
        let shape = TaskShape::gemm_tile_f16(um, un, uk);
        prop_assume!(shape.fits(&machine));
        let spec = TaskSpec::new(shape, warps, instances);
        let small = simulate(&machine, &Launch::grid(spec, count), TimingMode::Evaluate);
        let large = simulate(&machine, &Launch::grid(spec, count + 17), TimingMode::Evaluate);
        prop_assert!(large.device_ns >= small.device_ns - 1e-6);
    }

    /// The device is never faster than perfect warp-slot scaling (a 4-warp
    /// task uses half of an 8-warp PE, so two can co-reside) and never
    /// slower than fully serial execution.
    #[test]
    fn makespan_is_bounded_by_serial_and_perfect_parallel(
        (um, un, uk) in small_tile(),
        instances in 1usize..16,
        count in 1usize..200,
    ) {
        let machine = MachineModel::a100();
        let shape = TaskShape::gemm_tile_f16(um, un, uk);
        prop_assume!(shape.fits(&machine));
        let warps = 4usize;
        let spec = TaskSpec::new(shape, warps, instances);
        let one = pipelined_task_ns(&machine, &spec);
        let report = simulate(&machine, &Launch::grid(spec, count), TimingMode::Evaluate);
        let serial = one * count as f64;
        let slots = machine.num_pes as f64 * machine.warp_cap_per_pe as f64 / warps as f64;
        let perfect = serial / slots;
        prop_assert!(report.device_ns <= serial + 1e-6, "slower than serial");
        prop_assert!(
            report.device_ns >= perfect - 1e-6,
            "faster than perfect scaling: {} < {}",
            report.device_ns,
            perfect
        );
    }

    /// sm_efficiency and achieved_occupancy are proper fractions, and the
    /// total work is conserved.
    #[test]
    fn counters_are_well_formed(
        (um, un, uk) in small_tile(),
        instances in 1usize..16,
        count in 1usize..150,
    ) {
        let machine = MachineModel::a100();
        let shape = TaskShape::gemm_tile_f16(um, un, uk);
        prop_assume!(shape.fits(&machine));
        let spec = TaskSpec::new(shape, 4, instances);
        let launch = Launch::grid(spec, count);
        let report = simulate(&machine, &launch, TimingMode::Evaluate);
        prop_assert!(report.sm_efficiency > 0.0 && report.sm_efficiency <= 1.0 + 1e-9);
        prop_assert!(report.achieved_occupancy > 0.0 && report.achieved_occupancy <= 1.0 + 1e-9);
        prop_assert_eq!(report.grid_size, count);
        let executed: usize = report.per_pe.iter().map(|p| p.tasks).sum();
        prop_assert_eq!(executed, count);
        prop_assert!((report.total_flops - launch.total_flops()).abs() < 1e-3);
    }

    /// Static placement executes exactly the assigned tasks on the
    /// assigned cores.
    #[test]
    fn static_assignment_is_respected(count in 1usize..100, stride in 1usize..7) {
        let machine = MachineModel::ascend910a();
        let spec = TaskSpec::new(TaskShape::gemm_tile_f16(64, 64, 64), 1, 4);
        let assignment: Vec<usize> = (0..count).map(|i| (i * stride) % machine.num_pes).collect();
        let launch = Launch::from_groups(vec![TaskGroup::with_assignment(spec, assignment.clone())]);
        let report = simulate(&machine, &launch, TimingMode::Evaluate);
        for (pe, util) in report.per_pe.iter().enumerate() {
            let expected = assignment.iter().filter(|&&a| a == pe).count();
            prop_assert_eq!(util.tasks, expected, "PE {}", pe);
        }
    }

    /// Measurement noise is bounded and centered: an evaluate-mode run sits
    /// within the measurement jitter envelope.
    #[test]
    fn measurement_noise_is_bounded(
        (um, un, uk) in small_tile(),
        instances in 1usize..64,
        seed in 0u64..1000,
    ) {
        let machine = MachineModel::a100();
        let shape = TaskShape::gemm_tile_f16(um, un, uk);
        prop_assume!(shape.fits(&machine));
        let spec = TaskSpec::new(shape, 2, instances);
        let truth = pipelined_task_ns(&machine, &spec);
        let measured = mikpoly_suite::accel_sim::measure_pipelined_task(
            &machine,
            &spec,
            TimingMode::Measure { seed },
        );
        prop_assert!((measured / truth - 1.0).abs() <= 0.02 + 1e-12);
    }

    /// Chained launches equal the sum of their parts.
    #[test]
    fn launch_sequencing_is_additive(count_a in 1usize..60, count_b in 1usize..60) {
        let machine = MachineModel::a100();
        let spec = TaskSpec::new(TaskShape::gemm_tile_f16(64, 64, 32), 4, 8);
        let a = Launch::grid(spec, count_a);
        let b = Launch::grid(spec, count_b);
        let ra = simulate(&machine, &a, TimingMode::Evaluate);
        let rb = simulate(&machine, &b, TimingMode::Evaluate);
        let chained = mikpoly_suite::accel_sim::try_simulate_launches(
            &machine,
            &[a, b],
            TimingMode::Evaluate,
        )
        .expect("valid launches");
        prop_assert!((chained.time_ns - (ra.time_ns + rb.time_ns)).abs() < 1e-3);
    }
}

/// Pinned regression from `simulator_properties.proptest-regressions`
/// (`(um, un, uk) = (16, 16, 16), instances = 1, count = 109`): the
/// smallest tile with a single pipeline instance once violated the
/// serial/perfect-parallel envelope. Kept as an explicit deterministic
/// test because the vendored proptest stand-in does not replay regression
/// files.
#[test]
fn regression_minimal_tile_single_instance_envelope() {
    let machine = MachineModel::a100();
    let shape = TaskShape::gemm_tile_f16(16, 16, 16);
    assert!(shape.fits(&machine));
    let warps = 4usize;
    let spec = TaskSpec::new(shape, warps, 1);
    let count = 109usize;
    let one = pipelined_task_ns(&machine, &spec);
    let report = simulate(&machine, &Launch::grid(spec, count), TimingMode::Evaluate);
    let serial = one * count as f64;
    let slots = machine.num_pes as f64 * machine.warp_cap_per_pe as f64 / warps as f64;
    let perfect = serial / slots;
    assert!(report.device_ns <= serial + 1e-6, "slower than serial");
    assert!(
        report.device_ns >= perfect - 1e-6,
        "faster than perfect scaling: {} < {perfect}",
        report.device_ns
    );
}
