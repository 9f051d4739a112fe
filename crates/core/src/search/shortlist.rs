//! Stage 2: shape-aware shortlisting — per-shape kernel ranking by
//! predicted *region efficiency*, plus the stratified-diversity shortlist
//! that replaces the old global top-`DEEP_PATTERN_KERNELS` cut.
//!
//! Eq. 2's wave term charges every task a whole PE, but dynamically
//! scheduled machines co-schedule several small-warp tasks per PE (bounded
//! by warp slots and local memory) and throttle under bandwidth
//! congestion. On large shapes that ranking error — not pruning, not
//! library coverage — was the measured source of the 1.2–1.45 hard-shape
//! oracle gap: the simulator's best kernel loses under Eq. 2 because its
//! co-residency is invisible to `f_wave`. The occupancy-aware estimator
//! here folds both effects into a closed form that stays O(1) per region,
//! so it can rank kernels per shape *and* re-rank complete strategies (the
//! selection-refinement step in [`super::try_polymerize`]) without touching
//! the simulator on the online path.

use accel_sim::MachineModel;
use tensor_ir::GemmView;

use crate::kernel::MicroKernel;
use crate::offline::TileStratum;

use super::family::KernelFamily;

/// Per-kernel occupancy constants. None of them reads M or N, so they are
/// computed once per [`KernelFamily`].
#[derive(Debug, Clone, Copy)]
struct KernelOccupancy {
    /// Co-resident task slots per PE: warp-slot and local-memory bound.
    slots: usize,
    /// Bytes a resident task moves per ns of pipelined execution.
    bw_per_task: f64,
    /// `g_predict` for the view's reduction extent.
    pipe: f64,
}

/// The occupancy-aware region-efficiency estimator: predicts the
/// effective latency of a region, accounting for task co-residency
/// (multiple small-warp tasks share a PE's warp slots and local memory)
/// and bandwidth congestion among resident tasks.
#[derive(Debug)]
pub(crate) struct OccupancyModel {
    num_pes: usize,
    pe_bw: f64,
    /// Parallel to the kernel list it was built from.
    profiles: Vec<KernelOccupancy>,
}

impl OccupancyModel {
    pub(crate) fn new(
        machine: &MachineModel,
        kernels: &[MicroKernel],
        pipe: &[f64],
        view: &GemmView,
    ) -> Self {
        let profiles = kernels
            .iter()
            .zip(pipe)
            .map(|(kernel, &p)| {
                let spec = kernel.task_spec(view, kernel.instances_for(view.shape.k));
                let slots_w = machine.warp_cap_per_pe / kernel.warps.max(1);
                let slots_m = machine.local_mem_bytes / spec.shape.local_mem_bytes().max(1);
                KernelOccupancy {
                    slots: slots_w.min(slots_m).max(1),
                    bw_per_task: spec.total_bytes() / p.max(1e-9),
                    pipe: p,
                }
            })
            .collect();
        Self {
            num_pes: machine.num_pes,
            pe_bw: machine.pe_bandwidth_bytes_per_ns(),
            profiles,
        }
    }

    /// The model over the kernels in `order` (indices into this model's
    /// kernel list): the search's per-shape kernel order.
    pub(crate) fn permuted(&self, order: &[usize]) -> Self {
        Self {
            num_pes: self.num_pes,
            pe_bw: self.pe_bw,
            profiles: order.iter().map(|&i| self.profiles[i]).collect(),
        }
    }

    /// Effective latency of a `tasks`-task region under kernel
    /// `kernel_idx`: waves over the *co-residency* capacity (not the PE
    /// count), scaled by the bandwidth-congestion factor of the resident
    /// set. O(1) — nothing here depends on region geometry beyond the
    /// task count.
    pub(crate) fn region_ns(&self, kernel_idx: usize, tasks: usize) -> f64 {
        let p = &self.profiles[kernel_idx];
        let cap = self.num_pes * p.slots;
        let resident = p.slots.min(tasks.div_ceil(self.num_pes)).max(1);
        let congestion = (resident as f64 * p.bw_per_task / self.pe_bw).max(1.0);
        tasks.div_ceil(cap) as f64 * p.pipe * congestion
    }
}

/// Ranks a family's kernels for one `m x n` shape, best predicted region
/// efficiency first, and (when a `shortlist` cut will apply) promotes the
/// best kernel of each tile-geometry stratum into the shortlist prefix so
/// a truncated deep-pattern search keeps geometric diversity instead of
/// drowning in near-duplicates of the front-runner. Returns a permutation
/// of the family's kernel indices.
///
/// Dynamic machines rank by the occupancy-aware estimator; static
/// (compiler-placed) machines rank by the makespan estimate
/// `max(tasks·g/|P|, g)` of a single-region program — both are this
/// shape's Pattern-I cost under the respective machine's execution model,
/// which places a near-optimal incumbent on the search's first descent.
pub(crate) fn shape_order(
    family: &KernelFamily,
    num_pes: usize,
    m: usize,
    n: usize,
    shortlist: usize,
) -> Vec<usize> {
    let kernels = &family.kernels;
    let mut scored: Vec<(f64, usize)> = match &family.occupancy {
        Some(occ) => kernels
            .iter()
            .enumerate()
            .map(|(i, kernel)| (occ.region_ns(i, kernel.tasks_for(m, n)), i))
            .collect(),
        None => kernels
            .iter()
            .zip(&family.pipe)
            .enumerate()
            .map(|(i, (kernel, &p))| {
                let tasks = kernel.tasks_for(m, n) as f64;
                ((tasks * p / num_pes as f64).max(p), i)
            })
            .collect(),
    };
    // Equal scores keep library order.
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let order = scored.iter().map(|&(_, i)| i);
    if shortlist >= kernels.len() {
        return order.collect();
    }
    // Stratified-diversity promotion: the first occurrence of each
    // geometry stratum (in efficiency order) moves to the front, so any
    // shortlist prefix of at least `strata` kernels covers every tile
    // regime the library retained.
    let mut anchors: Vec<usize> = Vec::with_capacity(kernels.len());
    let mut rest: Vec<usize> = Vec::with_capacity(kernels.len());
    // 3 aspects x 3 footprints.
    let mut seen: Vec<TileStratum> = Vec::with_capacity(9);
    for i in order {
        let stratum = family.strata[i];
        if seen.contains(&stratum) {
            rest.push(i);
        } else {
            seen.push(stratum);
            anchors.push(i);
        }
    }
    anchors.extend(rest);
    anchors
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::offline::{MicroKernelLibrary, OfflineOptions};
    use tensor_ir::GemmShape;

    fn setup() -> (MachineModel, MicroKernelLibrary) {
        let m = MachineModel::a100();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        (m.clone(), MicroKernelLibrary::generate(&m, &o))
    }

    fn view(m: usize, n: usize, k: usize) -> GemmView {
        tensor_ir::Operator::gemm(GemmShape::new(m, n, k)).gemm_view()
    }

    #[test]
    fn region_efficiency_never_beats_the_pipelined_task_itself() {
        let (machine, lib) = setup();
        let family = KernelFamily::new(&machine, &lib, &view(512, 512, 256));
        let occ = family.occupancy.as_ref().expect("the A100 places tasks");
        for (i, kernel) in family.kernels.iter().enumerate() {
            let tasks = kernel.tasks_for(512, 512);
            assert!(occ.region_ns(i, tasks) >= family.pipe[i] - 1e-9);
        }
    }

    #[test]
    fn co_residency_discounts_small_warp_kernels_under_plain_waves() {
        // A kernel whose warp count is below the PE cap gets charged fewer
        // effective waves than Eq. 2's tasks/|P| whenever its tasks
        // co-reside — the exact effect the hard-shape gap came from.
        let (machine, lib) = setup();
        let family = KernelFamily::new(&machine, &lib, &view(512, 512, 256));
        let occ = family.occupancy.as_ref().expect("the A100 places tasks");
        let mut discounted = 0;
        for (i, kernel) in family.kernels.iter().enumerate() {
            let tasks = kernel.tasks_for(512, 512);
            let eq2 = tasks.div_ceil(machine.num_pes) as f64 * family.pipe[i];
            if kernel.warps < machine.warp_cap_per_pe && tasks > machine.num_pes {
                assert!(occ.region_ns(i, tasks) <= eq2 + 1e-9);
                if occ.region_ns(i, tasks) < eq2 * 0.75 {
                    discounted += 1;
                }
            }
        }
        assert!(discounted > 0, "no kernel benefits from co-residency");
    }

    #[test]
    fn shape_order_is_a_permutation_and_diversity_prefix_covers_strata() {
        let (machine, lib) = setup();
        let family = KernelFamily::new(&machine, &lib, &view(777, 333, 111));
        let order = shape_order(&family, machine.num_pes, 777, 333, 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..family.kernels.len()).collect::<Vec<_>>());
        // With a cut in play, the distinct strata of the usable set appear
        // before any repeat.
        let strata: Vec<TileStratum> = order
            .iter()
            .map(|&i| TileStratum::of(&family.kernels[i]))
            .collect();
        let distinct: std::collections::HashSet<_> = strata.iter().collect();
        let prefix: std::collections::HashSet<_> = strata[..distinct.len()].iter().collect();
        assert_eq!(prefix.len(), distinct.len(), "prefix must cover all strata");
    }
}
