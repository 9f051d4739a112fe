//! The shape-invariant half of the search: a *kernel family*.
//!
//! Everything the search derives from the library before it reads the
//! dynamic extents M and N depends only on the reduction extent K, the
//! element type and the load scale of the view — the usable-kernel filter
//! (`MicroKernel::task_shape` reads dtype and load scale), each kernel's
//! `f_pipe` (`instances_for` reads K), the occupancy profiles, the tile
//! strata and the fastest FLOP rate behind the remaining-work bound. A
//! [`KernelFamily`] holds them for one [`FamilyKey`], so a compiler
//! computes them once per family instead of once per shape, and each
//! shape pays only for its own ordering and branch-and-bound walk.

use accel_sim::{AllocationPolicy, MachineModel};
use tensor_ir::{DType, GemmView};

use crate::kernel::MicroKernel;
use crate::offline::{MicroKernelLibrary, TileStratum, TunedKernel};

use super::shortlist::OccupancyModel;

/// The view fields a [`KernelFamily`] depends on: K, the element type and
/// the load scale (as bits, so the key is hashable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FamilyKey {
    k: usize,
    dtype: DType,
    load_scale: u64,
}

impl FamilyKey {
    pub(crate) fn of(view: &GemmView) -> Self {
        Self {
            k: view.shape.k,
            dtype: view.dtype,
            load_scale: view.load_scale.to_bits(),
        }
    }
}

/// The library's usable kernels for one [`FamilyKey`], in library order,
/// with every per-kernel input of the search that does not read M or N.
#[derive(Debug)]
pub(crate) struct KernelFamily {
    /// The usable kernels, in library (rank) order.
    pub(crate) kernels: Vec<MicroKernel>,
    /// Each kernel's position in the library's `kernels`, where the
    /// split-K post-pass reads its `g_predict` at split depths.
    pub(crate) library_index: Vec<usize>,
    /// `f_pipe` (Eq. 4) per kernel at the family's K.
    pub(crate) pipe: Vec<f64>,
    /// Occupancy profiles per kernel; `None` on machines with static
    /// placement, which rank and cost without them.
    pub(crate) occupancy: Option<OccupancyModel>,
    /// Tile-geometry stratum per kernel.
    pub(crate) strata: Vec<TileStratum>,
    /// The fastest per-task FLOP rate (FLOPs per ns of `g_predict`) any
    /// usable kernel achieves, for the remaining-work bound.
    pub(crate) best_rate: f64,
}

impl KernelFamily {
    /// The family of `view` on `machine`: only K, dtype and load scale of
    /// the view are read.
    pub(crate) fn new(
        machine: &MachineModel,
        library: &MicroKernelLibrary,
        view: &GemmView,
    ) -> Self {
        let k = view.shape.k;
        let (library_index, tuned): (Vec<usize>, Vec<&TunedKernel>) = library
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kernel.fits(machine, view))
            .unzip();
        let kernels: Vec<MicroKernel> = tuned.iter().map(|t| t.kernel).collect();
        let pipe: Vec<f64> = tuned
            .iter()
            .map(|t| t.perf.predict(t.kernel.instances_for(k)))
            .collect();
        let best_rate = kernels
            .iter()
            .zip(&pipe)
            .map(|(kernel, &p)| kernel.flops_per_instance() * kernel.instances_for(k) as f64 / p)
            .fold(1e-9, f64::max);
        let occupancy = (machine.allocation != AllocationPolicy::StaticCompilerAssigned)
            .then(|| OccupancyModel::new(machine, &kernels, &pipe, view));
        Self {
            strata: kernels.iter().map(TileStratum::of).collect(),
            kernels,
            library_index,
            pipe,
            occupancy,
            best_rate,
        }
    }

    /// Whether no library kernel is usable for this family.
    pub(crate) fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}
