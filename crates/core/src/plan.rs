//! Compiled tensor programs: the output of on-the-fly polymerization.

use accel_sim::{Launch, MachineModel, TaskGroup};
use tensor_ir::{GemmView, Operator};

use crate::kernel::MicroKernel;
use crate::pattern::PatternId;

/// A rectangular output region computed by one micro-kernel.
///
/// Rows `[row0, row1)` and columns `[col0, col1)` of the operator's output
/// are covered by a grid of `kernel`-sized tiles; partial tiles at the edges
/// are handled by local padding (the kernel computes a full tile, reads of
/// out-of-bounds operand elements return zero, and out-of-bounds writes are
/// suppressed), exactly as in CUTLASS and the paper's Section 3.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// First output row covered.
    pub row0: usize,
    /// One past the last output row covered.
    pub row1: usize,
    /// First output column covered.
    pub col0: usize,
    /// One past the last output column covered.
    pub col1: usize,
    /// The micro-kernel instantiated for this region.
    pub kernel: MicroKernel,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or inverted.
    pub fn new(row0: usize, row1: usize, col0: usize, col1: usize, kernel: MicroKernel) -> Self {
        assert!(row0 < row1 && col0 < col1, "region must be non-empty");
        Self {
            row0,
            row1,
            col0,
            col1,
            kernel,
        }
    }

    /// Rows covered.
    pub fn rows(&self) -> usize {
        self.row1 - self.row0
    }

    /// Columns covered.
    pub fn cols(&self) -> usize {
        self.col1 - self.col0
    }

    /// Number of pipelined tasks (`f_parallel` of Eq. 3: the non-reduction
    /// loops of the region, with local padding).
    pub fn tasks(&self) -> usize {
        self.kernel.tasks_for(self.rows(), self.cols())
    }

    /// Instances of the micro-kernel per pipelined task for reduction depth
    /// `k` (`f_num` of Eq. 4).
    pub fn instances(&self, k: usize) -> usize {
        self.kernel.instances_for(k)
    }

    /// The fraction of computed output elements that are padding.
    pub fn padding_waste(&self) -> f64 {
        let useful = (self.rows() * self.cols()) as f64;
        let padded = (self.rows().div_ceil(self.kernel.um) * self.kernel.um) as f64
            * (self.cols().div_ceil(self.kernel.un) * self.kernel.un) as f64;
        1.0 - useful / padded
    }
}

/// Statistics of one online polymerization search, reported by Fig. 12(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Complete strategies whose cost was estimated.
    pub strategies_evaluated: usize,
    /// Branches cut by the partial-cost bound.
    pub strategies_pruned: usize,
    /// Patterns attempted.
    pub patterns_tried: usize,
    /// Wall-clock nanoseconds spent polymerizing.
    pub search_ns: u128,
    /// Times a deep pattern drew from a truncated kernel shortlist.
    pub shortlist_truncated: usize,
    /// Search rounds that ran out of node budget before covering the
    /// strategy space.
    pub budget_exhausted: usize,
    /// Anytime escalation rounds taken (bounded by
    /// `SearchPolicy::max_escalations`).
    pub escalations: usize,
    /// Whether the occupancy-aware refinement changed the selected
    /// strategy away from the Eq. 2 pick.
    pub refined: bool,
    /// Whether this program came from the degraded fallback path (a
    /// single-region shortlist-top-1 plan, not a full staged search).
    pub degraded: bool,
}

/// An optimized tensor program `S*`: the selected pattern, its regions with
/// instantiated micro-kernels, and the predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The operator this program computes.
    pub operator: Operator,
    /// Its flattened GEMM view.
    pub view: GemmView,
    /// The winning polymerization pattern.
    pub pattern: PatternId,
    /// Output regions, in band-major order.
    pub regions: Vec<Region>,
    /// Split-K ways (extension; 1 = the paper's behaviour). With `w > 1`,
    /// every task computes `1/w` of the reduction into a partial output and
    /// a memory-bound reduction launch combines the partials — the classic
    /// remedy for small-`MxN`, huge-`K` shapes whose task grids cannot fill
    /// the machine.
    pub split_k: usize,
    /// The cost model's estimate for this program, ns.
    pub predicted_ns: f64,
    /// Search statistics.
    pub stats: SearchStats,
}

impl CompiledProgram {
    /// Total number of pipelined tasks (the `grid_size` counter),
    /// including split-K replication.
    pub fn grid_size(&self) -> usize {
        self.regions.iter().map(Region::tasks).sum::<usize>() * self.split_k.max(1)
    }

    /// Number of distinct micro-kernels used.
    pub fn kernels_used(&self) -> usize {
        let mut ids: Vec<_> = self.regions.iter().map(|r| r.kernel.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Builds the device launch with dynamic (hardware-scheduler) placement:
    /// one task group per region, co-scheduled. With split-K, each region's
    /// grid is replicated `split_k` times with `1/split_k` of the reduction
    /// per task (the reduction launch is separate, see
    /// [`CompiledProgram::reduction_launch`]).
    pub fn launch_dynamic(&self) -> Launch {
        let k = self.view.shape.k;
        let ways = self.split_k.max(1);
        Launch::from_groups(
            self.regions
                .iter()
                .map(|r| {
                    let instances = r.instances(k).div_ceil(ways);
                    TaskGroup::new(r.kernel.task_spec(&self.view, instances), r.tasks() * ways)
                })
                .collect(),
        )
    }

    /// The memory-bound launch that sums the `split_k` partial outputs
    /// (reads `split_k` copies of the fp32 partials, writes the final
    /// output); `None` when `split_k == 1`.
    pub fn reduction_launch(&self) -> Option<Launch> {
        let ways = self.split_k.max(1);
        if ways == 1 {
            return None;
        }
        let (m, n) = (self.view.shape.m, self.view.shape.n);
        // Small tiles so even small outputs spread across the machine and
        // reach aggregate bandwidth.
        const TILE: usize = 32;
        // Generic tile accounting: charge `ways` fp32 reads of the tile per
        // instance via load_scale, plus the final write-back.
        let load_scale = (ways * TILE * TILE * 4) as f64 / (2 * TILE * 2) as f64;
        let shape = accel_sim::TaskShape {
            um: TILE,
            un: TILE,
            uk: 1,
            in_elem_bytes: 2,
            out_elem_bytes: self.view.dtype.bytes(),
            acc_elem_bytes: 4,
            load_scale,
            stages: 2,
            quality: 1.0,
        };
        let count = m.div_ceil(TILE) * n.div_ceil(TILE);
        Some(Launch::grid(accel_sim::TaskSpec::new(shape, 2, 1), count))
    }

    /// Builds the device launch with a compiler-computed static placement
    /// (the NPU path): `durations[i]` is the estimated duration of one task
    /// of region `i`, and tasks are spread with the max-min (LPT) allocator.
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != self.regions.len()`.
    pub fn launch_static(&self, machine: &MachineModel, durations: &[f64]) -> Launch {
        assert_eq!(
            durations.len(),
            self.regions.len(),
            "need one duration estimate per region"
        );
        let k = self.view.shape.k;
        let counts: Vec<usize> = self.regions.iter().map(Region::tasks).collect();
        let assignments = crate::alloc::max_min_assign(durations, &counts, machine.num_pes);
        Launch::from_groups(
            self.regions
                .iter()
                .zip(assignments)
                .map(|(r, assignment)| {
                    TaskGroup::with_assignment(
                        r.kernel.task_spec(&self.view, r.instances(k)),
                        assignment,
                    )
                })
                .collect(),
        )
    }

    /// Checks that the regions exactly partition the `M x N` output space:
    /// bands must stack contiguously over `[0, M)` and each band's segments
    /// must tile `[0, N)`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoverageError`] describing the first gap or overlap.
    pub fn verify_coverage(&self) -> Result<(), CoverageError> {
        let (m, n) = (self.view.shape.m, self.view.shape.n);
        if self.regions.is_empty() {
            return Err(CoverageError::Gap { row: 0, col: 0 });
        }
        // Group regions into bands by row range, preserving order.
        let mut bands: Vec<(usize, usize, Vec<&Region>)> = Vec::new();
        for r in &self.regions {
            match bands.last_mut() {
                Some((r0, r1, list)) if *r0 == r.row0 && *r1 == r.row1 => list.push(r),
                _ => bands.push((r.row0, r.row1, vec![r])),
            }
        }
        let mut row = 0usize;
        for (r0, r1, segments) in &bands {
            if *r0 != row {
                return if *r0 > row {
                    Err(CoverageError::Gap { row, col: 0 })
                } else {
                    Err(CoverageError::Overlap { row: *r0, col: 0 })
                };
            }
            let mut col = 0usize;
            for seg in segments {
                if seg.col0 != col {
                    return if seg.col0 > col {
                        Err(CoverageError::Gap { row: *r0, col })
                    } else {
                        Err(CoverageError::Overlap {
                            row: *r0,
                            col: seg.col0,
                        })
                    };
                }
                col = seg.col1;
            }
            if col != n {
                return Err(CoverageError::Gap { row: *r0, col });
            }
            row = *r1;
        }
        if row != m {
            return Err(CoverageError::Gap { row, col: 0 });
        }
        Ok(())
    }
}

impl std::fmt::Display for CompiledProgram {
    /// Renders the polymerized program as the restructured online loops of
    /// Fig. 3: one loop nest per region, each around its instantiated
    /// fixed-size micro-kernel.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "// {} via {} (predicted {:.1} us)",
            self.operator,
            self.pattern,
            self.predicted_ns / 1e3
        )?;
        let k = self.view.shape.k;
        if self.split_k > 1 {
            writeln!(
                f,
                "// split-K x{}: each task computes 1/{} of the reduction; a \
                 memory-bound pass sums the partial outputs",
                self.split_k, self.split_k
            )?;
        }
        for (i, r) in self.regions.iter().enumerate() {
            writeln!(
                f,
                "// region R{} — {} tasks x {} instances",
                i + 1,
                r.tasks() * self.split_k.max(1),
                r.instances(k).div_ceil(self.split_k.max(1))
            )?;
            writeln!(
                f,
                "for m1 in ({}..{}).step_by({}):       // parallel",
                r.row0, r.row1, r.kernel.um
            )?;
            writeln!(
                f,
                "  for n1 in ({}..{}).step_by({}):     // parallel",
                r.col0, r.col1, r.kernel.un
            )?;
            writeln!(
                f,
                "    for k1 in (0..{k}).step_by({}):   // reduction, pipelined",
                r.kernel.uk
            )?;
            writeln!(
                f,
                "      micro_kernel_{}({}, {}, {})",
                r.kernel.id.0, r.kernel.um, r.kernel.un, r.kernel.uk
            )?;
        }
        Ok(())
    }
}

/// A defect in the region partition of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageError {
    /// An output element at (row, col) is computed by no region.
    Gap {
        /// Row of the first uncovered element.
        row: usize,
        /// Column of the first uncovered element.
        col: usize,
    },
    /// An output element at (row, col) is computed by multiple regions.
    Overlap {
        /// Row of the first doubly-covered element.
        row: usize,
        /// Column of the first doubly-covered element.
        col: usize,
    },
}

impl std::fmt::Display for CoverageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverageError::Gap { row, col } => {
                write!(f, "output element ({row}, {col}) is covered by no region")
            }
            CoverageError::Overlap { row, col } => {
                write!(f, "output element ({row}, {col}) is covered more than once")
            }
        }
    }
}

impl std::error::Error for CoverageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MicroKernelId;
    use tensor_ir::GemmShape;

    fn mk(um: usize, un: usize, uk: usize) -> MicroKernel {
        MicroKernel::new(MicroKernelId(0), um, un, uk, 4)
    }

    fn program(m: usize, n: usize, k: usize, regions: Vec<Region>) -> CompiledProgram {
        let op = Operator::gemm(GemmShape::new(m, n, k));
        CompiledProgram {
            operator: op,
            view: op.gemm_view(),
            pattern: PatternId(2),
            regions,
            split_k: 1,
            predicted_ns: 1.0,
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn region_task_accounting() {
        let r = Region::new(0, 100, 0, 100, mk(64, 64, 32));
        assert_eq!(r.tasks(), 4);
        assert_eq!(r.instances(100), 4);
        assert!(r.padding_waste() > 0.0);
        let exact = Region::new(0, 128, 0, 128, mk(64, 64, 32));
        assert_eq!(exact.padding_waste(), 0.0);
    }

    #[test]
    fn coverage_accepts_exact_band_partition() {
        let p = program(
            100,
            64,
            32,
            vec![
                Region::new(0, 64, 0, 64, mk(64, 64, 32)),
                Region::new(64, 100, 0, 64, mk(32, 64, 32)),
            ],
        );
        assert_eq!(p.verify_coverage(), Ok(()));
        assert_eq!(p.grid_size(), 1 + 2);
    }

    #[test]
    fn coverage_detects_row_gap() {
        let p = program(
            100,
            64,
            32,
            vec![
                Region::new(0, 64, 0, 64, mk(64, 64, 32)),
                Region::new(80, 100, 0, 64, mk(32, 64, 32)),
            ],
        );
        assert_eq!(
            p.verify_coverage(),
            Err(CoverageError::Gap { row: 64, col: 0 })
        );
    }

    #[test]
    fn coverage_detects_column_overlap() {
        let p = program(
            64,
            100,
            32,
            vec![
                Region::new(0, 64, 0, 64, mk(64, 64, 32)),
                Region::new(0, 64, 32, 100, mk(64, 64, 32)),
            ],
        );
        assert!(matches!(
            p.verify_coverage(),
            Err(CoverageError::Overlap { .. })
        ));
    }

    #[test]
    fn coverage_detects_missing_tail() {
        let p = program(64, 64, 32, vec![Region::new(0, 48, 0, 64, mk(16, 64, 32))]);
        assert_eq!(
            p.verify_coverage(),
            Err(CoverageError::Gap { row: 48, col: 0 })
        );
    }

    #[test]
    fn dynamic_launch_has_one_group_per_region() {
        let p = program(
            128,
            128,
            64,
            vec![
                Region::new(0, 64, 0, 128, mk(64, 64, 32)),
                Region::new(64, 128, 0, 128, mk(64, 64, 32)),
            ],
        );
        let launch = p.launch_dynamic();
        assert_eq!(launch.groups.len(), 2);
        assert_eq!(launch.grid_size(), p.grid_size());
        // All instances cover the full K extent.
        assert_eq!(launch.groups[0].spec.instances, 2);
    }

    #[test]
    fn static_launch_assigns_every_task() {
        let machine = MachineModel::ascend910a();
        let p = program(
            256,
            256,
            64,
            vec![
                Region::new(0, 128, 0, 256, mk(64, 64, 64)),
                Region::new(128, 256, 0, 256, mk(64, 64, 64)),
            ],
        );
        let launch = p.launch_static(&machine, &[100.0, 100.0]);
        for g in &launch.groups {
            let a = g.assignment.as_ref().expect("static launch must assign");
            assert_eq!(a.len(), g.count);
            assert!(a.iter().all(|&pe| pe < machine.num_pes));
        }
    }

    #[test]
    fn display_renders_one_loop_nest_per_region() {
        let p = program(
            100,
            64,
            32,
            vec![
                Region::new(0, 64, 0, 64, mk(64, 64, 32)),
                Region::new(64, 100, 0, 64, mk(32, 64, 32)),
            ],
        );
        let s = p.to_string();
        assert_eq!(s.matches("micro_kernel_").count(), 2);
        assert!(s.contains("region R1"));
        assert!(s.contains("reduction, pipelined"));
        assert!(s.contains("for m1 in (64..100).step_by(32)"));
    }

    #[test]
    fn split_k_scales_launch_and_rendering() {
        let mut p = program(
            64,
            64,
            4096,
            vec![Region::new(0, 64, 0, 64, mk(64, 64, 32))],
        );
        assert!(p.reduction_launch().is_none());
        p.split_k = 4;
        let launch = p.launch_dynamic();
        assert_eq!(launch.groups[0].count, 4);
        assert_eq!(launch.groups[0].spec.instances, 32);
        assert_eq!(p.grid_size(), 4);
        let reduction = p.reduction_launch().expect("split-K needs a reduction");
        assert_eq!(reduction.grid_size(), 2 * 2);
        let rendered = p.to_string();
        assert!(rendered.contains("split-K x4"), "{rendered}");
    }

    #[test]
    fn kernels_used_deduplicates() {
        let p = program(
            128,
            64,
            32,
            vec![
                Region::new(0, 64, 0, 64, mk(64, 64, 32)),
                Region::new(64, 128, 0, 64, mk(64, 64, 32)),
            ],
        );
        assert_eq!(p.kernels_used(), 1);
    }
}
