//! Offline micro-kernel generation (Section 3.3, Algorithm 1 lines 1–6).
//!
//! From a micro-kernel template `K̃`, the offline stage:
//!
//! 1. enumerates candidate tile sizes `{16·i | i ∈ [1, n_gen]}` per
//!    dimension, keeping those that fit `M_local`;
//! 2. auto-tunes a schedule (warp count) per candidate by measuring it on
//!    the device (our simulator in measurement mode);
//! 3. fits a piecewise-linear performance model `g_predict(t)` per
//!    candidate from single-PE runs at `t ∈ [1, n_pred]`;
//! 4. ranks candidates by their average performance over synthetic test
//!    cases with dimension sizes `{2^i | i ∈ [0, n_syn]}` (run through a
//!    Pattern-I program and the fitted model) and retains the top `n_mik`.
//!
//! The ranking score is the mean of per-shape *relative* performance
//! (a kernel's throughput on a shape divided by the best candidate's
//! throughput on that shape). A raw TFLOPS average would be dominated by
//! the largest synthetic shapes and select only large tiles, leaving the
//! online stage nothing to polymerize small dynamic shapes with — the
//! relative score keeps specialists for every shape regime, which is what
//! lets MikPoly "perform exceptionally well for small shapes" (Fig. 6).

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use accel_sim::{hash_f64, measure_pipelined_task, MachineModel, TaskSpec, TimingMode};
use mikpoly_telemetry::{span, Telemetry};
use tensor_ir::{DType, GemmShape, GemmView};

use crate::cost::{region_cost, CostModelKind};
use crate::kernel::{MicroKernel, MicroKernelId};
use crate::perf_model::{sample_schedule, PerfModel};
use crate::plan::Region;

/// Which micro-kernel template a library is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TemplateKind {
    /// Plain GEMM.
    #[default]
    Gemm,
    /// Implicit-GEMM convolution: the same loop nest with an im2col gather,
    /// which inflates operand load traffic.
    Conv,
}

impl TemplateKind {
    /// Representative load-traffic multiplier used while tuning kernels for
    /// this template.
    pub fn load_scale(self) -> f64 {
        match self {
            TemplateKind::Gemm => 1.0,
            TemplateKind::Conv => 1.3,
        }
    }
}

/// Hyper-parameters of the offline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfflineOptions {
    /// Tile sizes are `tile_quantum * {1..=n_gen}` per dimension.
    pub n_gen: usize,
    /// Synthetic ranking shapes use dimensions `{2^i | i ∈ [0, n_syn]}`.
    pub n_syn: u32,
    /// Number of micro-kernels retained after ranking.
    pub n_mik: usize,
    /// Maximum instance count measured when fitting `g_predict`.
    pub n_pred: usize,
    /// Tile quantum (16 in the paper).
    pub tile_quantum: usize,
    /// Template the kernels are tuned for.
    pub template: TemplateKind,
    /// Element type the kernels are tuned for.
    pub dtype: DType,
    /// Measurement-noise seed.
    pub seed: u64,
    /// Linear segments per performance model.
    pub segments: usize,
}

impl OfflineOptions {
    /// The paper's hyper-parameters: `n_gen = 32`, `n_syn = 12`,
    /// `n_mik = 40`, `n_pred = 5120` (Sections 3.3 and 5.4).
    pub fn paper() -> Self {
        Self {
            n_gen: 32,
            n_syn: 12,
            n_mik: 40,
            n_pred: 5120,
            tile_quantum: 16,
            template: TemplateKind::Gemm,
            dtype: DType::F16,
            seed: 0x4D69_6B50,
            segments: 4,
        }
    }

    /// A reduced configuration for unit tests and examples: the same
    /// pipeline with a far smaller search space.
    pub fn fast() -> Self {
        Self {
            n_gen: 8,
            n_syn: 8,
            n_mik: 12,
            n_pred: 512,
            ..Self::paper()
        }
    }

    /// Sets the template kind (builder style).
    #[must_use]
    pub fn with_template(mut self, template: TemplateKind) -> Self {
        self.template = template;
        self
    }

    /// The tuning view: dtype plus the template's load multiplier.
    pub fn view(&self) -> GemmView {
        GemmView {
            shape: GemmShape::new(1, 1, 1),
            dtype: self.dtype,
            load_scale: self.template.load_scale(),
        }
    }
}

/// A micro-kernel together with its fitted performance model and ranking
/// scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunedKernel {
    /// The kernel (tile + schedule).
    pub kernel: MicroKernel,
    /// Its `g_predict` model.
    pub perf: PerfModel,
    /// Ranking score: mean per-shape relative performance (in `(0, 1]`)
    /// over the synthetic workloads.
    pub score: f64,
    /// Steady-state single-PE throughput (TFLOPS).
    pub steady_tflops: f64,
}

/// Tile aspect-ratio regime of a micro-kernel (row-heavy, column-heavy, or
/// balanced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileAspect {
    /// `uM ≥ 2·uN`.
    Tall,
    /// `uN ≥ 2·uM`.
    Wide,
    /// Neither dimension dominates.
    Square,
}

/// Tile footprint regime of a micro-kernel (output elements per task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileArea {
    /// `uM·uN ≤ 1024` (up to 32×32).
    Small,
    /// `uM·uN ≤ 4096` (up to 64×64).
    Medium,
    /// Larger tiles.
    Large,
}

/// The tile-geometry stratum of a micro-kernel: aspect regime × footprint
/// regime. The online shortlist keeps at least one kernel per stratum so a
/// truncated deep-pattern search retains geometric diversity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileStratum {
    /// Aspect-ratio regime.
    pub aspect: TileAspect,
    /// Footprint regime.
    pub area: TileArea,
}

impl TileStratum {
    /// Classifies a micro-kernel's tile geometry.
    pub fn of(kernel: &MicroKernel) -> Self {
        let aspect = if kernel.um >= 2 * kernel.un {
            TileAspect::Tall
        } else if kernel.un >= 2 * kernel.um {
            TileAspect::Wide
        } else {
            TileAspect::Square
        };
        let area = match kernel.um * kernel.un {
            0..=1024 => TileArea::Small,
            1025..=4096 => TileArea::Medium,
            _ => TileArea::Large,
        };
        Self { aspect, area }
    }
}

/// The product of the offline stage: the retained micro-kernels, best
/// ranked first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroKernelLibrary {
    /// Machine the library was tuned for.
    pub machine: String,
    /// Hyper-parameters used.
    pub options: OfflineOptions,
    /// Retained kernels, descending ranking score.
    pub kernels: Vec<TunedKernel>,
}

impl MicroKernelLibrary {
    /// Runs the offline stage on (simulated) hardware.
    ///
    /// Candidate tuning is parallelized across OS threads; results are
    /// deterministic regardless of thread count.
    ///
    /// # Panics
    ///
    /// Panics if no candidate tile fits the machine's `M_local`.
    pub fn generate(machine: &MachineModel, options: &OfflineOptions) -> Self {
        Self::generate_with_telemetry(machine, options, &Telemetry::disabled())
    }

    /// Like [`MicroKernelLibrary::generate`], but records `offline.*`
    /// spans (generate / per-chunk tune / rank) and registry counters
    /// into `telemetry`. Identical output either way.
    pub fn generate_with_telemetry(
        machine: &MachineModel,
        options: &OfflineOptions,
        telemetry: &Telemetry,
    ) -> Self {
        let mut generate_span = span!(
            telemetry,
            "offline.generate",
            machine = machine.name.as_str()
        );
        let view = options.view();
        let candidates = enumerate_candidates(machine, options, &view);
        assert!(
            !candidates.is_empty(),
            "no candidate micro-kernel fits M_local on {}",
            machine.name
        );
        generate_span.arg("candidates", candidates.len());

        // Step 2+3: tune a schedule and fit g_predict per candidate, in
        // parallel.
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(16);
        let chunk = candidates.len().div_ceil(threads);
        let tuned: Vec<TunedKernel> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in candidates.chunks(chunk.max(1)) {
                handles.push(scope.spawn(move || {
                    let _tune = span!(telemetry, "offline.tune", candidates = part.len());
                    part.iter()
                        .map(|&(um, un, uk)| tune_candidate(machine, options, &view, um, un, uk))
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tuning thread panicked"))
                .collect()
        });

        // Step 4: rank over the synthetic workloads through Pattern-I
        // programs and retain a covering subset of n_mik kernels.
        let shapes = synthetic_shapes(options);
        let mut tuned = {
            let _rank = span!(telemetry, "offline.rank", shapes = shapes.len());
            rank_and_prune(machine, &shapes, tuned, options.n_mik)
        };
        for (i, t) in tuned.iter_mut().enumerate() {
            t.kernel.id = MicroKernelId(i);
        }
        if telemetry.is_enabled() {
            let registry = telemetry.registry();
            registry
                .counter("offline.candidates")
                .add(candidates.len() as u64);
            registry
                .counter("offline.kernels_retained")
                .add(tuned.len() as u64);
        }

        Self {
            machine: machine.name.clone(),
            options: options.clone(),
            kernels: tuned,
        }
    }

    /// Kernels usable for a given operator view on a machine (re-checks the
    /// `M_local` fit under the view's element widths).
    pub fn usable_kernels(&self, machine: &MachineModel, view: &GemmView) -> Vec<&TunedKernel> {
        self.kernels
            .iter()
            .filter(|t| t.kernel.fits(machine, view))
            .collect()
    }

    /// Looks up a tuned kernel by id.
    pub fn get(&self, id: MicroKernelId) -> Option<&TunedKernel> {
        self.kernels.iter().find(|t| t.kernel.id == id)
    }

    /// Serializes the library to a JSON file (the persisted artifact of the
    /// offline stage; the paper compiles kernels once per platform and
    /// reuses them).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a library previously written by [`MicroKernelLibrary::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
    }
}

fn enumerate_candidates(
    machine: &MachineModel,
    options: &OfflineOptions,
    view: &GemmView,
) -> Vec<(usize, usize, usize)> {
    let q = options.tile_quantum;
    let mut out = Vec::new();
    for i in 1..=options.n_gen {
        for j in 1..=options.n_gen {
            for l in 1..=options.n_gen {
                let (um, un, uk) = (q * i, q * j, q * l);
                let probe = MicroKernel::new(MicroKernelId(0), um, un, uk, 1);
                if probe.task_shape(view).fits(machine) {
                    out.push((um, un, uk));
                }
            }
        }
    }
    out
}

/// Warp-count candidates for a tile: powers of two up to the PE cap, never
/// exceeding one MMA fragment per warp.
fn warp_candidates(machine: &MachineModel, um: usize, un: usize) -> Vec<usize> {
    let max_by_frags = ((um * un) / machine.mma.area()).max(1);
    let mut out = Vec::new();
    let mut w = 1usize;
    while w <= machine.warp_cap_per_pe && w <= max_by_frags {
        out.push(w);
        w *= 2;
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

fn tune_candidate(
    machine: &MachineModel,
    options: &OfflineOptions,
    view: &GemmView,
    um: usize,
    un: usize,
    uk: usize,
) -> TunedKernel {
    let mode = TimingMode::Measure { seed: options.seed };
    let probe_t = 64.min(options.n_pred).max(2);

    // Schedule micro-search: pick the warp count with the best measured
    // steady throughput.
    let mut best_warps = 1;
    let mut best_ns = f64::INFINITY;
    for w in warp_candidates(machine, um, un) {
        let kernel = MicroKernel::new(MicroKernelId(0), um, un, uk, w);
        let spec = kernel.task_spec(view, probe_t);
        let ns = measure_pipelined_task(machine, &spec, mode);
        if ns < best_ns {
            best_ns = ns;
            best_warps = w;
        }
    }
    let kernel = MicroKernel::new(MicroKernelId(0), um, un, uk, best_warps);

    // Fit g_predict from single-PE measurements.
    let samples: Vec<(usize, f64)> = sample_schedule(options.n_pred)
        .into_iter()
        .map(|t| {
            let spec: TaskSpec = kernel.task_spec(view, t);
            (t, measure_pipelined_task(machine, &spec, mode))
        })
        .collect();
    let perf = PerfModel::fit(&samples, options.segments);

    let steady_tflops = kernel.flops_per_instance() * probe_t as f64 / best_ns / 1e3;
    TunedKernel {
        kernel,
        perf,
        score: 0.0,
        steady_tflops,
    }
}

/// The synthetic ranking shapes: a deterministic ~20% sample of
/// `{2^i}³ for i ∈ [0, n_syn]`.
fn synthetic_shapes(options: &OfflineOptions) -> Vec<GemmShape> {
    let mut shapes = Vec::new();
    for i in 0..=options.n_syn {
        for j in 0..=options.n_syn {
            for l in 0..=options.n_syn {
                if i == j && j == l
                    || hash_f64(options.seed, &[i as u64, j as u64, l as u64]) < 0.18
                {
                    shapes.push(GemmShape::new(1 << i, 1 << j, 1 << l));
                }
            }
        }
    }
    shapes
}

/// `RankAndPrune` (Algorithm 1, line 4): keeps the `n_mik` kernels that
/// together best cover the synthetic workloads.
///
/// Each kernel's performance on each shape (Pattern-I program, fitted
/// model) is normalized to the best candidate on that shape; the retained
/// subset is grown greedily, each step adding the kernel with the largest
/// marginal coverage gain (classic facility-location greedy). A plain
/// top-`n_mik` by *average* score would retain only specialists of the most
/// numerous shape regime and leave other regimes without usable kernels —
/// coverage is what gives the online stage both the large tiles that win
/// `(4096, 4096, 4096)` and the small ones that win `(1, 1000, 4096)`.
fn rank_and_prune(
    machine: &MachineModel,
    shapes: &[GemmShape],
    mut tuned: Vec<TunedKernel>,
    n_mik: usize,
) -> Vec<TunedKernel> {
    // rel[k][s]: kernel k's relative performance on shape s, in (0, 1].
    let mut rel: Vec<Vec<f64>> = Vec::with_capacity(tuned.len());
    for t in &tuned {
        let row: Vec<f64> = shapes
            .iter()
            .map(|s| {
                let region = Region::new(0, s.m, 0, s.n, t.kernel);
                region_cost(CostModelKind::Full, &region, s.k, machine.num_pes, &t.perf)
            })
            .collect();
        rel.push(row);
    }
    for si in 0..shapes.len() {
        let best = rel.iter().map(|row| row[si]).fold(f64::INFINITY, f64::min);
        for row in &mut rel {
            row[si] = best / row[si];
        }
    }
    for (t, row) in tuned.iter_mut().zip(&rel) {
        t.score = row.iter().sum::<f64>() / shapes.len() as f64;
    }

    // Greedy max-coverage selection.
    let mut covered = vec![0.0f64; shapes.len()];
    let mut remaining: Vec<usize> = (0..tuned.len()).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n_mik);
    while order.len() < n_mik && !remaining.is_empty() {
        let (pos, &best_k) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                let gain = |k: usize| -> f64 {
                    rel[k]
                        .iter()
                        .zip(&covered)
                        .map(|(r, c)| (r - c).max(0.0))
                        .sum()
                };
                gain(a)
                    .total_cmp(&gain(b))
                    .then(tuned[a].score.total_cmp(&tuned[b].score))
            })
            .expect("remaining is nonempty");
        for (c, r) in covered.iter_mut().zip(&rel[best_k]) {
            *c = c.max(*r);
        }
        order.push(best_k);
        remaining.swap_remove(pos);
    }
    let mut keep: Vec<TunedKernel> = order.into_iter().map(|k| tuned[k].clone()).collect();
    // Present in descending overall score (the order the online search
    // iterates, which also helps its branch-and-bound pruning).
    keep.sort_by(|a, b| b.score.total_cmp(&a.score));
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lib(machine: &MachineModel) -> MicroKernelLibrary {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4; // up to 64^3 tiles: fast enough for debug tests
        MicroKernelLibrary::generate(machine, &o)
    }

    #[test]
    fn generate_retains_at_most_n_mik() {
        let m = MachineModel::a100();
        let lib = small_lib(&m);
        assert!(!lib.kernels.is_empty());
        assert!(lib.kernels.len() <= OfflineOptions::fast().n_mik);
        assert_eq!(lib.machine, m.name);
    }

    #[test]
    fn kernels_sorted_by_rank_and_renumbered() {
        let m = MachineModel::a100();
        let lib = small_lib(&m);
        for (i, t) in lib.kernels.iter().enumerate() {
            assert_eq!(t.kernel.id, MicroKernelId(i));
        }
        for w in lib.kernels.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn all_retained_kernels_fit_local_mem() {
        let m = MachineModel::a100();
        let lib = small_lib(&m);
        let view = lib.options.view();
        for t in &lib.kernels {
            assert!(t.kernel.fits(&m, &view), "{}", t.kernel);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let m = MachineModel::a100();
        let a = small_lib(&m);
        let b = small_lib(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trip() {
        let m = MachineModel::a100();
        let lib = small_lib(&m);
        let dir = std::env::temp_dir().join("mikpoly-test-lib.json");
        lib.save(&dir).expect("save");
        let loaded = MicroKernelLibrary::load(&dir).expect("load");
        assert_eq!(lib, loaded);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn warp_candidates_capped_by_fragments() {
        let m = MachineModel::a100();
        // A 16x16 tile has 2 MMA fragments (16x8 each): at most 2 warps.
        assert_eq!(warp_candidates(&m, 16, 16), vec![1, 2]);
        // A big tile can use the full cap.
        assert_eq!(warp_candidates(&m, 256, 128), vec![1, 2, 4, 8]);
    }

    #[test]
    fn synthetic_shapes_include_diagonal() {
        let o = OfflineOptions::fast();
        let shapes = synthetic_shapes(&o);
        for i in 0..=o.n_syn {
            let d = 1usize << i;
            assert!(shapes.contains(&GemmShape::new(d, d, d)));
        }
    }

    #[test]
    fn conv_template_kernels_account_for_gather() {
        let m = MachineModel::a100();
        let mut o = OfflineOptions::fast().with_template(TemplateKind::Conv);
        o.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&m, &o);
        assert!(!lib.kernels.is_empty());
        assert_eq!(lib.options.template, TemplateKind::Conv);
    }

    #[test]
    fn npu_library_generates_single_warp_kernels() {
        let m = MachineModel::ascend910a();
        let lib = small_lib(&m);
        assert!(lib.kernels.iter().all(|t| t.kernel.warps == 1));
    }
}
