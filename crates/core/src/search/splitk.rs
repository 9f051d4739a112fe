//! Split-K post-pass (extension; not part of the paper's pattern set).

use accel_sim::{AllocationPolicy, MachineModel};
use tensor_ir::GemmView;

use crate::offline::MicroKernelLibrary;
use crate::pattern::PatternId;
use crate::plan::{CompiledProgram, Region};

use super::family::KernelFamily;

/// Split-K post-pass.
///
/// For shapes whose best task grid cannot fill the machine (small `M x N`,
/// huge `K`), replicating the grid `w` ways along the reduction — each task
/// computing `1/w` of `K` into partial outputs combined by a memory-bound
/// reduction pass — multiplies the exploitable parallelism. Tries
/// `w ∈ {2, 4, 8}` over all usable kernels and returns the improved program
/// if any beats the input's predicted cost.
pub fn improve_with_split_k(
    machine: &MachineModel,
    library: &MicroKernelLibrary,
    view: &GemmView,
    program: CompiledProgram,
) -> CompiledProgram {
    let family = KernelFamily::new(machine, library, view);
    split_k_family(machine, library, &family, view, program)
}

/// [`improve_with_split_k`] over the usable kernels of `family`, which
/// must be the view's family of `library`.
pub(crate) fn split_k_family(
    machine: &MachineModel,
    library: &MicroKernelLibrary,
    family: &KernelFamily,
    view: &GemmView,
    mut program: CompiledProgram,
) -> CompiledProgram {
    if machine.allocation != AllocationPolicy::DynamicHardware || program.regions.len() != 1 {
        return program;
    }
    let (m, n, k) = (view.shape.m, view.shape.n, view.shape.k);
    // The reduction pass reads w fp32 partials and writes the output once;
    // its bandwidth is bounded by how many PEs its 32x32-tile grid covers.
    let reduce_ns = |w: usize| -> f64 {
        let bytes = (w * m * n * 4 + m * n * 2) as f64;
        let tiles = m.div_ceil(32) * n.div_ceil(32);
        let active = tiles.min(machine.num_pes) as f64;
        bytes / (active * machine.pe_bandwidth_bytes_per_ns())
            + machine.launch_overhead_ns
            + machine.task_overhead_ns
    };
    // Gate on a deep reduction: for short K the per-task overheads and the
    // reduction pass eat the gains, and the cost model's error margin
    // dominates (the same K-threshold gating vendor split-K heuristics
    // use).
    if k < 2048 {
        return program;
    }
    // Demand a clear predicted win to absorb cost-model error.
    let mut best_cost = program.predicted_ns * 0.85;
    let mut improved = false;
    for (kernel, &index) in family.kernels.iter().zip(&family.library_index) {
        let perf = &library.kernels[index].perf;
        let base_tasks = kernel.tasks_for(m, n);
        let instances = kernel.instances_for(k);
        for ways in [2usize, 4, 8] {
            if instances < ways || base_tasks * ways > 4 * machine.num_pes {
                continue;
            }
            let waves = (base_tasks * ways).div_ceil(machine.num_pes) as f64;
            let cost = waves * perf.predict(instances.div_ceil(ways)) + reduce_ns(ways);
            if cost < best_cost {
                best_cost = cost;
                improved = true;
                program.pattern = PatternId(10);
                program.regions = vec![Region::new(0, m, 0, n, *kernel)];
                program.split_k = ways;
            }
        }
    }
    if improved {
        program.predicted_ns = best_cost;
    }
    program
}

#[cfg(test)]
mod tests {
    use accel_sim::MachineModel;
    use tensor_ir::{GemmShape, Operator};

    use crate::compiler::{MikPoly, OnlineOptions};
    use crate::offline::OfflineOptions;

    fn compilers() -> (MikPoly, MikPoly) {
        let m = MachineModel::a100();
        let options = OfflineOptions::fast();
        let base = MikPoly::offline(m.clone(), &options);
        let split = MikPoly::offline(m, &options).with_options(OnlineOptions {
            split_k: true,
            ..OnlineOptions::default()
        });
        (base, split)
    }

    #[test]
    fn split_k_fires_on_small_mn_huge_k() {
        let (base, split) = compilers();
        let op = Operator::gemm(GemmShape::new(64, 64, 100_000));
        let plain = base.run(&op);
        let improved = split.run(&op);
        assert_eq!(plain.program.split_k, 1);
        assert!(improved.program.split_k > 1, "split-K should fire");
        assert_eq!(improved.program.pattern.to_string(), "Pattern-X(split-K)");
        assert!(
            improved.report.time_ns < plain.report.time_ns,
            "split-K must pay off: {} vs {}",
            improved.report.time_ns,
            plain.report.time_ns
        );
    }

    #[test]
    fn split_k_stays_off_when_the_grid_already_fills_the_machine() {
        let (_, split) = compilers();
        let op = Operator::gemm(GemmShape::new(4096, 4096, 1024));
        let run = split.run(&op);
        assert_eq!(run.program.split_k, 1, "no reason to split a full grid");
    }

    #[test]
    fn split_k_programs_stay_functionally_correct() {
        use crate::exec::execute_gemm;
        use tensor_ir::{reference_gemm, Tensor};
        let (_, split) = compilers();
        let shape = GemmShape::new(48, 40, 3000);
        let program = split.compile(&Operator::gemm(shape));
        let a = Tensor::random(&[48, 3000], 81);
        let b = Tensor::random(&[3000, 40], 82);
        let got = execute_gemm(&program, &a, &b);
        let want = reference_gemm(shape, &a, &b);
        assert!(
            got.approx_eq(&want, 2e-2),
            "max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn reduction_launch_exists_iff_split() {
        let (base, split) = compilers();
        let big_k = Operator::gemm(GemmShape::new(64, 64, 100_000));
        assert!(base.compile(&big_k).reduction_launch().is_none());
        assert!(split.compile(&big_k).reduction_launch().is_some());
    }
}
