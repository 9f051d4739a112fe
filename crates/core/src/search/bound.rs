//! Stage 3: bounding and pruning — the cost accumulator and the admissible
//! lower bound of the branch-and-bound search, extracted so they are unit
//! testable in isolation.
//!
//! The accumulator implements Eq. 2 (`Cost = Σ f_wave · f_pipe`) and its
//! ablations; on machines with compiler-assigned static placement (NPUs)
//! the full model instead estimates the max-min allocation makespan
//! `max(Σ tasks·g / |P|, max g)` — "a max-min static allocation algorithm
//! is employed, enhancing parallel execution" (Section 4). The bound is
//! admissible: it never exceeds the true cost of any completion, so cutting
//! a subtree whose bound meets the incumbent cannot discard the optimum
//! (within the configured margin). Static placement also prunes with the
//! discrete `alloc::pigeonhole_makespan_bound`, which needs the partial
//! strategy's task groups and so lives in the search's visitor.

use accel_sim::{AllocationPolicy, MachineModel};
use tensor_ir::GemmView;

use crate::cost::CostModelKind;
use crate::plan::Region;

/// Accumulated cost of a partial strategy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Partial {
    /// GPU mode: Σ f_wave · f_pipe. NPU mode: Σ tasks · g_predict (total
    /// core-seconds of work).
    pub sum: f64,
    /// NPU mode: the longest single task (a makespan lower bound).
    pub dmax: f64,
}

/// The shape-specific cost machinery shared by every search stage: the
/// per-kernel `f_pipe` cache plus the constants of the remaining-work
/// bound.
#[derive(Debug)]
pub(crate) struct CostEval<'a> {
    /// Per-kernel `f_pipe` (Eq. 4), parallel to the search's kernel order.
    pub pipe: &'a [f64],
    pub kind: CostModelKind,
    /// Whether the machine executes compiler-assigned static placements
    /// (NPU).
    pub static_alloc: bool,
    pub num_pes: usize,
    /// FLOPs per output row (2·N·K), for the remaining-work bound.
    pub flops_per_row: f64,
    /// The fastest per-task FLOP rate any usable kernel achieves (FLOPs
    /// per ns of `g_predict`); rows not yet covered cannot be computed
    /// faster.
    pub best_rate: f64,
}

impl<'a> CostEval<'a> {
    /// The evaluator of one shape: `pipe` is the per-kernel `f_pipe` in
    /// the search's kernel order, and `best_rate` the fastest per-task
    /// FLOP rate among those kernels (a [`super::family::KernelFamily`]
    /// computes both once per K).
    pub(crate) fn new(
        machine: &MachineModel,
        best_rate: f64,
        pipe: &'a [f64],
        view: &GemmView,
        kind: CostModelKind,
    ) -> Self {
        Self {
            pipe,
            kind,
            static_alloc: machine.allocation == AllocationPolicy::StaticCompilerAssigned,
            num_pes: machine.num_pes,
            flops_per_row: 2.0 * view.shape.n as f64 * view.shape.k as f64,
            best_rate,
        }
    }

    /// Whether complete strategies are scored by the exact LPT makespan
    /// (the full model under static placement) rather than [`Self::finish`].
    pub(crate) fn lpt_leaves(&self) -> bool {
        self.static_alloc && self.kind == CostModelKind::Full
    }

    /// Extends a partial cost by one region, using the per-kernel `f_pipe`
    /// cache (O(1) per call).
    pub(crate) fn extend(&self, partial: Partial, region: &Region, kernel_idx: usize) -> Partial {
        let pipe = self.pipe[kernel_idx];
        if self.lpt_leaves() {
            Partial {
                sum: partial.sum + region.tasks() as f64 * pipe,
                dmax: partial.dmax.max(pipe),
            }
        } else {
            let waves = region.tasks().div_ceil(self.num_pes) as f64;
            let add = match self.kind {
                CostModelKind::Full => waves * pipe,
                CostModelKind::WaveOnly => waves,
                CostModelKind::PipeOnly => pipe,
            };
            Partial {
                sum: partial.sum + add,
                dmax: partial.dmax,
            }
        }
    }

    /// The final selection cost of a complete strategy (the additive form;
    /// leaves of the full static-placement model use the exact LPT
    /// makespan instead).
    pub(crate) fn finish(&self, partial: Partial) -> f64 {
        if self.lpt_leaves() {
            (partial.sum / self.num_pes as f64).max(partial.dmax)
        } else {
            partial.sum
        }
    }

    /// An admissible lower bound on any completion of a partial strategy
    /// that still has `rows_remaining` uncovered output rows: even at the
    /// best kernel's rate, the remaining work takes
    /// `rows · 2NK / (best_rate · |P|)`.
    pub(crate) fn lower_bound(&self, partial: Partial, rows_remaining: usize) -> f64 {
        if self.kind != CostModelKind::Full {
            return partial.sum;
        }
        let rem_ns = rows_remaining as f64 * self.flops_per_row / self.best_rate;
        if self.static_alloc {
            ((partial.sum + rem_ns) / self.num_pes as f64).max(partial.dmax)
        } else {
            partial.sum + rem_ns / self.num_pes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{MicroKernel, MicroKernelId};

    fn region(rows: usize, cols: usize) -> Region {
        Region::new(
            0,
            rows,
            0,
            cols,
            MicroKernel::new(MicroKernelId(0), 16, 16, 16, 1),
        )
    }

    fn eval<'a>(pipe: &'a [f64], kind: CostModelKind, static_alloc: bool) -> CostEval<'a> {
        CostEval {
            pipe,
            kind,
            static_alloc,
            num_pes: 4,
            flops_per_row: 2.0 * 32.0 * 16.0,
            best_rate: 100.0,
        }
    }

    #[test]
    fn extend_accumulates_wave_times_pipe_on_dynamic_machines() {
        let pipe = [10.0];
        let e = eval(&pipe, CostModelKind::Full, false);
        // 32x32 region of 16x16 tiles: 4 tasks on 4 PEs = 1 wave.
        let p = e.extend(Partial::default(), &region(32, 32), 0);
        assert_eq!(p.sum, 10.0);
        // 48x48: 9 tasks = 3 waves.
        let p = e.extend(p, &region(48, 48), 0);
        assert_eq!(p.sum, 10.0 + 3.0 * 10.0);
        assert_eq!(e.finish(p), p.sum);
    }

    #[test]
    fn ablated_models_drop_the_other_term() {
        let pipe = [10.0];
        let wave = eval(&pipe, CostModelKind::WaveOnly, false);
        let pipe_only = eval(&pipe, CostModelKind::PipeOnly, false);
        let r = region(48, 48); // 9 tasks = 3 waves
        assert_eq!(wave.extend(Partial::default(), &r, 0).sum, 3.0);
        assert_eq!(pipe_only.extend(Partial::default(), &r, 0).sum, 10.0);
    }

    #[test]
    fn static_full_model_tracks_work_sum_and_longest_task() {
        let pipe = [10.0, 40.0];
        let e = eval(&pipe, CostModelKind::Full, true);
        let p = e.extend(Partial::default(), &region(32, 32), 0); // 4 tasks
        let p = e.extend(p, &region(16, 16), 1); // 1 task
        assert_eq!(p.sum, 4.0 * 10.0 + 40.0);
        assert_eq!(p.dmax, 40.0);
        // Makespan estimate: max(work/|P|, longest task).
        assert_eq!(e.finish(p), (80.0f64 / 4.0).max(40.0));
    }

    #[test]
    fn lower_bound_is_admissible_for_any_single_kernel_completion() {
        // Remaining rows completed by the (only) kernel can never beat the
        // best-rate bound.
        let pipe = [10.0];
        let mut e = eval(&pipe, CostModelKind::Full, false);
        // The kernel computes one 16x16x16 instance per task in 10 ns.
        e.best_rate = 2.0 * 16.0 * 16.0 * 16.0 / 10.0;
        for rows in [16usize, 64, 128, 1000] {
            let completion = e.extend(Partial::default(), &region(rows, 32), 0);
            // Rate of this kernel: flops of a (rows x 32 x 16) region over
            // its cost is at most best_rate by construction below.
            let bound = e.lower_bound(Partial::default(), rows);
            assert!(
                bound <= e.finish(completion) + 1e-9,
                "bound {bound} exceeds completion {}",
                e.finish(completion)
            );
        }
    }

    #[test]
    fn ablated_bound_degenerates_to_the_partial_sum() {
        let pipe = [10.0];
        let e = eval(&pipe, CostModelKind::WaveOnly, false);
        let p = e.extend(Partial::default(), &region(48, 48), 0);
        assert_eq!(e.lower_bound(p, 1000), p.sum);
    }
}
