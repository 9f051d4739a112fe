//! A multi-operator inference engine on top of the compiler.
//!
//! [`MikPoly`] optimizes one operator template at a time; a real runtime
//! owns one compiler per template (GEMM, implicit-GEMM convolution) and
//! routes each incoming operator to the right one. [`Engine`] packages that
//! — plus *algorithm selection*: for eligible convolutions it can compare
//! the cost model's predictions for the implicit-GEMM and Winograd
//! `F(2x2, 3x3)` lowerings and dispatch the cheaper one, the role cuDNN's
//! algorithm heuristics play (and the natural home for the paper's
//! Section 7 Winograd future work).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use accel_sim::{MachineModel, SimReport};
use mikpoly_telemetry::Telemetry;
use tensor_ir::{winograd_applicable, Operator};

use crate::cache::CacheOutcome;
use crate::compiler::{CompileBudget, CompileGrade, MikPoly, OperatorRun};
use crate::error::MikPolyError;
use crate::offline::OfflineOptions;
use crate::offline::TemplateKind;

/// How the engine chooses a convolution algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ConvAlgorithm {
    /// Always lower through im2col / implicit GEMM (the paper's
    /// implementation).
    #[default]
    ImplicitGemm,
    /// Always use Winograd `F(2x2, 3x3)` where eligible (3x3, stride 1),
    /// implicit GEMM otherwise.
    WinogradWhenEligible,
    /// Compile both lowerings for eligible convolutions and dispatch the
    /// one the cost model predicts faster.
    CostBased,
}

/// One operator execution through the engine, tagged with the operator the
/// engine actually dispatched (which may be a Winograd rewrite of the
/// requested convolution).
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The operator that was dispatched.
    pub dispatched: Operator,
    /// The underlying compiler run.
    pub run: OperatorRun,
}

/// Aggregate result of running an operator list (one model forward pass).
#[derive(Debug, Clone, Default)]
pub struct GraphRun {
    /// Total simulated device time, ns.
    pub device_ns: f64,
    /// Total real wall-clock spent on the compile path (fresh
    /// polymerizations plus coalesced waits; zero for cache hits), ns.
    pub compile_ns: u128,
    /// Portion of `compile_ns` the polymerization search itself took
    /// (fresh compilations only), ns.
    pub search_ns: u128,
    /// Portion of `compile_ns` spent blocked on another thread's
    /// in-flight compilation of the same shape, ns.
    pub cache_wait_ns: u128,
    /// Number of operator executions.
    pub executions: usize,
    /// Number of online compilations this call performed (cache outcome
    /// `Computed`; coalesced waits are not compilations).
    pub compilations: usize,
    /// Operators answered at [`CompileGrade::Degraded`] — deadline-cut
    /// searches or single-kernel fallbacks (0 without a budget).
    pub degraded: usize,
}

impl GraphRun {
    /// Device time in milliseconds.
    pub fn device_ms(&self) -> f64 {
        self.device_ns / 1e6
    }
}

/// The device launches behind one operator of a compiled forward pass —
/// what the serving co-launch planner merges across requests. Solo
/// execution simulates `launch` (then `reduction`, when split-K produced
/// one) `count` times; a co-launched wave instead merges the launches of
/// several requests and simulates the merged grid once.
#[derive(Debug, Clone)]
pub struct OpPlan {
    /// The operator's device launch (dynamic or static placement, per the
    /// machine's allocation policy).
    pub launch: accel_sim::Launch,
    /// The split-K reduction pass chained after `launch`, when present.
    pub reduction: Option<accel_sim::Launch>,
    /// Executions of this operator per request (the graph's weight).
    pub count: usize,
    /// Simulated solo device time of one execution (launch plus
    /// reduction), ns — the co-launch planner's no-merge baseline.
    pub solo_ns: f64,
}

/// A compiled forward pass with its per-operator launches retained:
/// [`GraphRun`] aggregates plus everything needed to co-launch the
/// request into a shared wave.
#[derive(Debug, Clone, Default)]
pub struct GraphPlan {
    /// The aggregate timing/accounting of the compile-and-simulate pass.
    pub run: GraphRun,
    /// Per-operator launches, in graph order.
    pub ops: Vec<OpPlan>,
}

/// A dynamic-shape inference engine: per-template MikPoly compilers plus
/// algorithm selection.
///
/// # Example
///
/// ```
/// use accel_sim::MachineModel;
/// use mikpoly::{ConvAlgorithm, Engine, OfflineOptions};
/// use tensor_ir::{Conv2dShape, Operator};
///
/// let mut options = OfflineOptions::fast();
/// options.n_gen = 4; // tiny library for the example
/// let engine = Engine::offline(MachineModel::a100(), &options)
///     .with_conv_algorithm(ConvAlgorithm::CostBased);
/// let conv = Operator::conv2d(Conv2dShape::square(1, 32, 28, 32, 3, 1));
/// let result = engine.run_operator(&conv);
/// assert!(result.run.report.time_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Engine {
    machine: MachineModel,
    gemm: Arc<MikPoly>,
    conv: Arc<MikPoly>,
    conv_algorithm: ConvAlgorithm,
}

impl Engine {
    /// Runs the offline stage for both templates on `machine`.
    pub fn offline(machine: MachineModel, options: &OfflineOptions) -> Self {
        Self::offline_with_telemetry(machine, options, Telemetry::disabled())
    }

    /// Like [`Engine::offline`], but both compilers (offline tuning and
    /// online polymerization alike) record into the shared `telemetry`.
    pub fn offline_with_telemetry(
        machine: MachineModel,
        options: &OfflineOptions,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let gemm = Arc::new(MikPoly::offline_with_telemetry(
            machine.clone(),
            &options.clone().with_template(TemplateKind::Gemm),
            Arc::clone(&telemetry),
        ));
        let conv = Arc::new(MikPoly::offline_with_telemetry(
            machine.clone(),
            &options.clone().with_template(TemplateKind::Conv),
            telemetry,
        ));
        Self {
            machine,
            gemm,
            conv,
            conv_algorithm: ConvAlgorithm::default(),
        }
    }

    /// Builds an engine from pre-constructed compilers (e.g. loaded from
    /// disk-cached libraries).
    ///
    /// # Panics
    ///
    /// Panics if the compilers target a different machine than `machine`.
    pub fn from_compilers(machine: MachineModel, gemm: Arc<MikPoly>, conv: Arc<MikPoly>) -> Self {
        assert_eq!(
            gemm.machine().name,
            machine.name,
            "gemm compiler machine mismatch"
        );
        assert_eq!(
            conv.machine().name,
            machine.name,
            "conv compiler machine mismatch"
        );
        Self {
            machine,
            gemm,
            conv,
            conv_algorithm: ConvAlgorithm::default(),
        }
    }

    /// Sets the convolution algorithm policy (builder style).
    #[must_use]
    pub fn with_conv_algorithm(mut self, algorithm: ConvAlgorithm) -> Self {
        self.conv_algorithm = algorithm;
        self
    }

    /// The machine this engine targets.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The GEMM-template compiler.
    pub fn gemm_compiler(&self) -> &MikPoly {
        &self.gemm
    }

    /// The conv-template compiler.
    pub fn conv_compiler(&self) -> &MikPoly {
        &self.conv
    }

    /// The telemetry handle this engine's compilers record into (the
    /// GEMM compiler's handle; [`Engine::offline_with_telemetry`] gives
    /// both compilers the same one).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.gemm.telemetry()
    }

    /// The operator the engine would actually dispatch for a request,
    /// after algorithm selection.
    pub fn select(&self, operator: &Operator) -> Operator {
        match self.try_select(operator, CompileBudget::default()) {
            Ok(dispatched) => dispatched,
            // With no deadline and no fault plan every failure is the
            // logic bug the infallible contract documents as a panic.
            Err(err) => panic!("infallible algorithm selection failed: {err}"),
        }
    }

    /// [`Engine::select`] under the caller's budget: cost-based selection
    /// compiles both lowerings through the budgeted ladder, so a
    /// deadline, `degrade_only` or a fault plan bounds it like any other
    /// compile. The fixed policies do no compile work.
    fn try_select(
        &self,
        operator: &Operator,
        budget: CompileBudget<'_>,
    ) -> Result<Operator, MikPolyError> {
        Ok(match *operator {
            Operator::Conv2d { shape, .. } if winograd_applicable(&shape) => {
                match self.conv_algorithm {
                    ConvAlgorithm::ImplicitGemm => *operator,
                    ConvAlgorithm::WinogradWhenEligible => Operator::conv2d_winograd(shape),
                    ConvAlgorithm::CostBased => {
                        let direct = self.conv.try_compile(operator, budget)?;
                        let wino_op = Operator::conv2d_winograd(shape);
                        let wino = self.gemm.try_compile(&wino_op, budget)?;
                        if wino.program.predicted_ns < direct.program.predicted_ns {
                            wino_op
                        } else {
                            *operator
                        }
                    }
                }
            }
            _ => *operator,
        })
    }

    /// Compiles (with caching) and simulates one operator, routed through
    /// the right template compiler.
    pub fn run_operator(&self, operator: &Operator) -> EngineRun {
        let dispatched = self.select(operator);
        EngineRun {
            dispatched,
            run: self.compiler_for(&dispatched).run(&dispatched),
        }
    }

    /// The template compiler that owns a dispatched operator.
    fn compiler_for(&self, dispatched: &Operator) -> &MikPoly {
        match dispatched {
            // Winograd's transform-domain GEMMs have plain GEMM access
            // patterns, so they use the GEMM-template library.
            Operator::Conv2d { .. } => &self.conv,
            _ => &self.gemm,
        }
    }

    /// Runs a weighted operator list (one forward pass): each `(operator,
    /// count)` pair executes `count` times, compiled once.
    pub fn run_graph<'a>(&self, ops: impl IntoIterator<Item = (&'a Operator, usize)>) -> GraphRun {
        match self.try_plan_graph(ops, CompileBudget::default()) {
            Ok(plan) => plan.run,
            // With no deadline and no fault plan every failure is the
            // logic bug the infallible contract documents as a panic.
            Err(err) => panic!("infallible graph run failed: {err}"),
        }
    }

    /// Budgeted [`Engine::run_graph`] that also retains each operator's
    /// device launches so the caller can co-launch the request with
    /// others (see [`crate::serving::colaunch`]). Every operator's compile
    /// shares the one `budget`: the per-request deadline bounds the whole
    /// request, not each operator separately, and one fault context
    /// serves the whole call. This is the serving path: each operator's
    /// device time is read from its program-cache slot, where it is
    /// simulated once per cached program, on the first read after the
    /// compile was timed — so it is never charged as compile time.
    ///
    /// # Errors
    ///
    /// The first [`MikPolyError`] any operator reports; operators already
    /// planned are discarded (their programs stay cached, so a retry is
    /// cheap).
    pub fn try_plan_graph<'a>(
        &self,
        ops: impl IntoIterator<Item = (&'a Operator, usize)>,
        budget: CompileBudget<'_>,
    ) -> Result<GraphPlan, MikPolyError> {
        let mut out = GraphPlan::default();
        for (op, count) in ops {
            let dispatched = self.try_select(op, budget)?;
            let compiler = self.compiler_for(&dispatched);
            let (reply, compile_ns) = compiler.try_compile_timed(&dispatched, budget)?;
            let solo_ns = compiler.try_device_ns(&reply)?;
            out.run.device_ns += solo_ns * count as f64;
            out.run.compile_ns += compile_ns;
            match reply.outcome {
                CacheOutcome::Hit => {}
                CacheOutcome::Computed => {
                    out.run.compilations += 1;
                    out.run.search_ns += reply.program.stats.search_ns;
                }
                CacheOutcome::Waited => out.run.cache_wait_ns += compile_ns,
            }
            if reply.grade == CompileGrade::Degraded {
                out.run.degraded += 1;
            }
            out.run.executions += count;
            out.ops.push(OpPlan {
                launch: compiler.launch_for(&reply.program),
                reduction: reply.program.reduction_launch(),
                count,
                solo_ns,
            });
        }
        Ok(out)
    }

    /// The device launch for a compiled program, routed through the
    /// template compiler that owns its placement policy (mirrors
    /// [`Engine::simulate`]).
    pub fn launch_for(&self, program: &crate::plan::CompiledProgram) -> accel_sim::Launch {
        self.compiler_for(&program.operator).launch_for(program)
    }

    /// Simulates a previously compiled program on this engine's machine.
    pub fn simulate(&self, program: &crate::plan::CompiledProgram) -> SimReport {
        self.compiler_for(&program.operator).simulate(program)
    }

    /// Persists both template compilers' program caches under `dir`
    /// (creating it if needed) through the crash-consistent protocol:
    /// each bundle is written atomically under a generation-numbered
    /// name (`gemm.mpac.<g>`), then a checksummed
    /// [`Manifest`](crate::recovery::Manifest) referencing the whole
    /// generation is renamed into place as the single commit point — a
    /// crash at any step leaves the previous committed generation fully
    /// intact, never a mix of old and new bundles. Files from superseded
    /// generations are removed after the commit. Returns the committed
    /// generation number.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory, writing a
    /// bundle, or committing the manifest. On error nothing is
    /// committed: readers keep seeing the previous generation.
    pub fn save_program_caches(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let previous = crate::recovery::Manifest::read(dir).ok().flatten();
        let generation = previous.as_ref().map_or(1, |m| m.generation + 1);
        let mut manifest = crate::recovery::Manifest {
            generation,
            bundles: Vec::new(),
        };
        for (compiler, stem) in [(&self.gemm, "gemm"), (&self.conv, "conv")] {
            let name = format!("{stem}.mpac.{generation}");
            let bytes = compiler.encode_program_cache();
            crate::persist::write_bytes_atomic(&dir.join(&name), &bytes)?;
            manifest
                .bundles
                .push((name, bytes.len() as u64, crate::persist::crc32(&bytes)));
        }
        manifest.commit(dir)?;
        // The old generation is unreferenced now; reclaim its files.
        // (Quarantined files live under quarantine/ and are never touched.)
        if let Some(previous) = previous {
            for (name, _, _) in previous.bundles {
                if !manifest.bundles.iter().any(|(n, _, _)| *n == name) {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
        }
        Ok(generation)
    }

    /// Restores warm state from `dir` with full recovery semantics,
    /// returning a typed [`RestoreReport`](crate::recovery::RestoreReport)
    /// that distinguishes, per bundle: **clean** (every checksum
    /// verified), **salvaged** (damaged, the longest valid record prefix
    /// was loaded and the file quarantined), **quarantined** (damaged
    /// beyond salvage, nothing loaded, file moved aside), and **absent**
    /// (cold start). Only bundles the committed
    /// [`Manifest`](crate::recovery::Manifest) names are read: with no
    /// manifest, or a damaged one, every bundle is absent, and a file in
    /// any older format under a committed name is quarantined. Never
    /// errors and never panics: damage is an outcome, not an exception.
    /// Damaged files are moved into `dir/quarantine/`, never deleted. The
    /// report is also exported as `cache.restore.*` counters on this
    /// engine's telemetry registry.
    pub fn restore_program_caches(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> crate::recovery::RestoreReport {
        use crate::recovery::{BundleRestore, Manifest, RestoreOutcome, RestoreReport};
        let dir = dir.as_ref();
        let mut report = RestoreReport::default();
        let manifest = match Manifest::read(dir) {
            Ok(m) => m,
            Err(e) => {
                // A torn or tampered manifest: quarantine it; with no
                // committed generation every bundle below is absent.
                report.bundles.push(BundleRestore {
                    outcome: RestoreOutcome::Quarantined,
                    quarantined_to: crate::recovery::quarantine_file(
                        &dir.join(crate::recovery::MANIFEST_NAME),
                    )
                    .ok(),
                    detail: Some(e.to_string()),
                    ..BundleRestore::absent("manifest")
                });
                None
            }
        };
        report.generation = manifest.as_ref().map(|m| m.generation);
        for (compiler, stem) in [(&self.gemm, "gemm"), (&self.conv, "conv")] {
            let committed = manifest.as_ref().and_then(|m| {
                m.bundles
                    .iter()
                    .find(|(n, _, _)| n.starts_with(&format!("{stem}.mpac")))
            });
            report.bundles.push(match committed {
                Some((name, len, crc)) => {
                    restore_one_bundle(compiler, stem, &dir.join(name), (*len, *crc))
                }
                None => BundleRestore::absent(stem),
            });
        }
        report.export_to(self.telemetry().registry());
        report
    }
}

/// Restores one committed bundle file with the clean → salvage →
/// quarantine ladder. `(len, crc)` is the manifest's record of the
/// file; a mismatch against it is treated as damage even if the
/// bundle's own checksums pass (the manifest is the commit point — a
/// non-matching file is not the state that was committed).
fn restore_one_bundle(
    compiler: &MikPoly,
    stem: &str,
    path: &std::path::Path,
    (len, crc): (u64, u32),
) -> crate::recovery::BundleRestore {
    use crate::recovery::{BundleRestore, RestoreOutcome};
    let mut restore = BundleRestore::absent(stem);
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return restore,
        Err(e) => {
            restore.outcome = RestoreOutcome::Quarantined;
            restore.detail = Some(format!("unreadable: {e}"));
            restore.quarantined_to = crate::recovery::quarantine_file(path).ok();
            return restore;
        }
    };
    let strict = if bytes.len() as u64 == len && crate::persist::crc32(&bytes) == crc {
        compiler.load_program_cache_bytes(&bytes)
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bundle does not match the committed manifest (length or checksum)",
        ))
    };
    match strict {
        Ok(n) => {
            restore.outcome = RestoreOutcome::Clean;
            restore.restored = n;
            restore.claimed = Some(n as u64);
            restore
        }
        Err(e) => {
            restore.detail = Some(e.to_string());
            let salvage = crate::persist::salvage_bundle(&bytes);
            restore.claimed = salvage.claimed;
            // Salvaged records must still belong to this library; the
            // prefix stops at the first foreign program.
            let mut valid = Vec::new();
            for program in salvage.programs {
                if let Err(v) = compiler.validate_restored_program(&program) {
                    restore.detail = Some(v);
                    break;
                }
                valid.push(program);
            }
            restore.restored = compiler.adopt_restored_programs(valid);
            restore.quarantined_to = crate::recovery::quarantine_file(path).ok();
            restore.outcome = if restore.restored > 0 {
                RestoreOutcome::Salvaged
            } else {
                RestoreOutcome::Quarantined
            };
            restore
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::{Conv2dShape, GemmShape};

    fn engine(algorithm: ConvAlgorithm) -> Engine {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        Engine::offline(MachineModel::a100(), &options).with_conv_algorithm(algorithm)
    }

    /// Commits `bytes` as generation 1's gemm bundle in `dir` — the file
    /// plus a manifest naming its length and CRC32, so restore reads it —
    /// and returns the bundle's path.
    fn commit_gemm_bundle(dir: &std::path::Path, bytes: &[u8]) -> std::path::PathBuf {
        let name = "gemm.mpac.1";
        std::fs::write(dir.join(name), bytes).expect("write bundle");
        crate::recovery::Manifest {
            generation: 1,
            bundles: vec![(
                name.to_string(),
                bytes.len() as u64,
                crate::persist::crc32(bytes),
            )],
        }
        .commit(dir)
        .expect("commit manifest");
        dir.join(name)
    }

    #[test]
    fn routes_gemm_and_conv_to_their_templates() {
        let e = engine(ConvAlgorithm::ImplicitGemm);
        let g = e.run_operator(&Operator::gemm(GemmShape::new(128, 128, 128)));
        assert_eq!(g.dispatched.kind(), "gemm");
        let c = e.run_operator(&Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1)));
        assert_eq!(c.dispatched.kind(), "conv2d");
    }

    #[test]
    fn winograd_when_eligible_rewrites_only_eligible_convs() {
        let e = engine(ConvAlgorithm::WinogradWhenEligible);
        let eligible = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        assert_eq!(e.select(&eligible).kind(), "conv2d-winograd");
        let strided = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 2));
        assert_eq!(e.select(&strided).kind(), "conv2d");
        let five = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 5, 1));
        assert_eq!(e.select(&five).kind(), "conv2d");
    }

    #[test]
    fn cost_based_selection_never_loses_to_either_fixed_policy() {
        let cost_based = engine(ConvAlgorithm::CostBased);
        for (c, hw) in [(64usize, 28usize), (8, 14), (96, 56)] {
            let op = Operator::conv2d(Conv2dShape::square(2, c, hw, c, 3, 1));
            let chosen = cost_based.run_operator(&op).run.report.time_ns;
            let direct = cost_based.conv_compiler().run(&op).report.time_ns;
            let wino = cost_based
                .gemm_compiler()
                .run(&Operator::conv2d_winograd(match op {
                    Operator::Conv2d { shape, .. } => shape,
                    _ => unreachable!(),
                }))
                .report
                .time_ns;
            // The cost model is approximate, so allow a small margin.
            assert!(
                chosen <= direct.min(wino) * 1.15,
                "cost-based pick {chosen} vs best fixed {}",
                direct.min(wino)
            );
        }
    }

    #[test]
    fn cost_based_selection_honours_the_callers_budget() {
        let e = engine(ConvAlgorithm::CostBased);
        let eligible = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        let degrade_only = CompileBudget {
            degrade_only: true,
            ..CompileBudget::default()
        };
        let plan = e
            .try_plan_graph([(&eligible, 1)], degrade_only)
            .expect("plan");
        assert_eq!(plan.run.degraded, 1);
        // Neither lowering may run the full search the budget forbids.
        let full_searches = e.conv_compiler().cache_stats().computations
            + e.gemm_compiler().cache_stats().computations;
        assert_eq!(full_searches, 0);
    }

    #[test]
    fn run_graph_counts_compilations_once_per_shape() {
        let e = engine(ConvAlgorithm::ImplicitGemm);
        let op = Operator::gemm(GemmShape::new(300, 200, 100));
        let result = e.run_graph([(&op, 3), (&op, 2)]);
        assert_eq!(result.executions, 5);
        assert_eq!(result.compilations, 1);
        assert!(result.device_ns > 0.0);
    }

    #[test]
    fn plan_graph_matches_run_graph_and_carries_launches() {
        let e = engine(ConvAlgorithm::ImplicitGemm);
        let a = Operator::gemm(GemmShape::new(300, 200, 100));
        let b = Operator::gemm(GemmShape::new(64, 64, 64));
        let plan = e
            .try_plan_graph([(&a, 2), (&b, 1)], CompileBudget::default())
            .expect("plan");
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.run.executions, 3);
        // The retained launches reproduce the aggregate device time.
        let from_plans: f64 = plan.ops.iter().map(|p| p.solo_ns * p.count as f64).sum();
        assert!((from_plans - plan.run.device_ns).abs() < 1e-6);
        for op in &plan.ops {
            assert!(op.launch.grid_size() > 0);
            assert!(op.solo_ns > 0.0);
        }
    }

    #[test]
    fn engine_works_on_the_npu() {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        let e = Engine::offline(MachineModel::ascend910a(), &options)
            .with_conv_algorithm(ConvAlgorithm::CostBased);
        let conv = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        let gemm = Operator::gemm(GemmShape::new(256, 256, 256));
        let result = e.run_graph([(&conv, 2), (&gemm, 1)]);
        assert_eq!(result.executions, 3);
        assert!(result.device_ns > 0.0);
    }

    #[test]
    fn warm_state_round_trips_through_bundle_directory() {
        let dir = std::env::temp_dir().join("mikpoly-engine-warm-state");
        let _ = std::fs::remove_dir_all(&dir);
        let a = engine(ConvAlgorithm::ImplicitGemm);
        // A fresh state directory restores cold, not damaged.
        let cold = a.restore_program_caches(&dir);
        assert_eq!((cold.restored(), cold.degraded()), (0, false));
        let gemm = Operator::gemm(GemmShape::new(320, 192, 128));
        let conv = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        a.run_operator(&gemm);
        a.run_operator(&conv);
        a.save_program_caches(&dir).expect("save warm state");

        let b = engine(ConvAlgorithm::ImplicitGemm);
        let warm = b.restore_program_caches(&dir);
        assert_eq!((warm.restored(), warm.degraded()), (2, false));
        assert_eq!(b.run_operator(&gemm).run.compile_ns, 0, "gemm warm");
        assert_eq!(b.run_operator(&conv).run.compile_ns, 0, "conv warm");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_commits_generations_and_reclaims_old_files() {
        let dir = std::env::temp_dir().join(format!("mikpoly-engine-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = engine(ConvAlgorithm::ImplicitGemm);
        let gemm = Operator::gemm(GemmShape::new(320, 192, 128));
        let conv = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        a.run_operator(&gemm);
        a.run_operator(&conv);
        assert_eq!(a.save_program_caches(&dir).expect("first save"), 1);
        assert_eq!(a.save_program_caches(&dir).expect("second save"), 2);
        // The superseded generation is reclaimed; the committed one stays.
        assert!(!dir.join("gemm.mpac.1").exists());
        assert!(dir.join("gemm.mpac.2").exists());
        assert!(dir.join("conv.mpac.2").exists());

        let b = engine(ConvAlgorithm::ImplicitGemm);
        let report = b.restore_program_caches(&dir);
        assert!(report.clean(), "clean directory must restore clean");
        assert_eq!(report.generation, Some(2));
        assert_eq!(report.restored(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_salvages_torn_bundles_and_quarantines_the_evidence() {
        let dir = std::env::temp_dir().join(format!("mikpoly-engine-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = engine(ConvAlgorithm::ImplicitGemm);
        let gemm = Operator::gemm(GemmShape::new(320, 192, 128));
        let conv = Operator::conv2d(Conv2dShape::square(1, 16, 14, 16, 3, 1));
        a.run_operator(&gemm);
        a.run_operator(&conv);
        a.save_program_caches(&dir).expect("save warm state");
        // Tear the gemm bundle's footer off: the record itself survives.
        let path = dir.join("gemm.mpac.1");
        let bytes = std::fs::read(&path).expect("read bundle");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear bundle");

        let b = engine(ConvAlgorithm::ImplicitGemm);
        let report = b.restore_program_caches(&dir);
        assert!(report.degraded());
        let by_name = |name: &str| {
            report
                .bundles
                .iter()
                .find(|b| b.bundle == name)
                .unwrap_or_else(|| panic!("no {name} entry"))
        };
        let g = by_name("gemm");
        assert_eq!(g.outcome, crate::recovery::RestoreOutcome::Salvaged);
        assert_eq!(g.restored, 1, "the one intact record must salvage");
        assert!(g.quarantined_to.as_ref().is_some_and(|q| q.exists()));
        assert!(!path.exists(), "damaged file must be moved aside");
        assert_eq!(
            by_name("conv").outcome,
            crate::recovery::RestoreOutcome::Clean
        );
        // The salvaged program is a real warm hit.
        assert_eq!(b.run_operator(&gemm).run.compile_ns, 0, "salvaged warm");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A bundle whose checksums pass can still hold a program that does
    /// not tile its output (the corruption the fault hook injects). The
    /// strict loader rejects it, and restore salvages only the prefix
    /// before it.
    #[test]
    fn restore_rejects_a_program_that_does_not_cover_its_output() {
        let dir = std::env::temp_dir().join(format!("mikpoly-engine-holed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = engine(ConvAlgorithm::ImplicitGemm);
        let ops = [
            Operator::gemm(GemmShape::new(320, 192, 128)),
            Operator::gemm(GemmShape::new(1000, 300, 200)),
        ];
        let mut programs: Vec<_> = ops
            .iter()
            .map(|op| (*a.gemm_compiler().compile(op)).clone())
            .collect();
        programs[1].regions.pop();
        assert!(programs[1].verify_coverage().is_err());
        let bundle = crate::persist::encode_bundle(&programs);

        let b = engine(ConvAlgorithm::ImplicitGemm);
        let err = b
            .gemm_compiler()
            .load_program_cache_bytes(&bundle)
            .expect_err("a holed program must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(b.gemm_compiler().cache_stats().entries, 0);

        commit_gemm_bundle(&dir, &bundle);
        let report = b.restore_program_caches(&dir);
        let g = report
            .bundles
            .iter()
            .find(|b| b.bundle == "gemm")
            .expect("gemm entry");
        assert_eq!(g.outcome, crate::recovery::RestoreOutcome::Salvaged);
        assert_eq!(g.restored, 1, "only the prefix before the hole");
        assert_eq!(b.run_operator(&ops[0]).run.compile_ns, 0, "prefix warm");
        let recompiled = b.run_operator(&ops[1]).run;
        assert!(
            recompiled.compile_ns > 0,
            "the holed program was not adopted"
        );
        recompiled.program.verify_coverage().expect("coverage");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_quarantines_garbage_and_distinguishes_cold_starts() {
        let dir = std::env::temp_dir().join(format!("mikpoly-engine-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = engine(ConvAlgorithm::ImplicitGemm);
        // A cold directory is absent, not a failure.
        let cold = a.restore_program_caches(&dir);
        assert!(cold.clean());
        assert_eq!(cold.generation, None);
        assert!(cold
            .bundles
            .iter()
            .all(|b| b.outcome == crate::recovery::RestoreOutcome::Absent));
        // Arbitrary garbage under a committed name: quarantined, and
        // the report reads as damaged, not as a cold zero.
        commit_gemm_bundle(&dir, b"MPAC garbage here");
        let report = a.restore_program_caches(&dir);
        let g = report
            .bundles
            .iter()
            .find(|b| b.bundle == "gemm")
            .expect("gemm entry");
        assert_eq!(g.outcome, crate::recovery::RestoreOutcome::Quarantined);
        assert_eq!(g.restored, 0);
        assert!(report.degraded(), "damage must not read as a cold start");
        // The report exports typed outcome counters.
        let telemetry = Telemetry::enabled();
        report.export_to(telemetry.registry());
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("cache.restore.quarantined"), Some(1));
        assert_eq!(snap.counter("cache.restore.absent"), Some(1));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Only committed MPAC v3 bundles are warm state. A retired format
    /// under a committed name is quarantined; a pre-manifest flat file is
    /// absent. Either way the engine compiles and serves cold.
    #[test]
    fn restore_treats_older_artifacts_as_a_cold_start() {
        use crate::recovery::{RestoreOutcome, QUARANTINE_DIR};
        let a = engine(ConvAlgorithm::ImplicitGemm);
        let gemm = Operator::gemm(GemmShape::new(320, 192, 128));
        let v3 = crate::persist::encode_bundle([&*a.gemm_compiler().compile(&gemm)]);
        let ends = crate::persist::record_end_offsets(&v3).expect("offsets");
        // The retired v2 layout: the same header and index, the record
        // without its checksum, no footer.
        let mut v2 = v3[..24].to_vec();
        v2[4] = 2;
        v2.extend_from_slice(&v3[24..ends[0] - 4]);
        let json = br#"[{"operator": {"Gemm": {"shape": {"m": 320}}}}]"#;

        let b = engine(ConvAlgorithm::ImplicitGemm);
        for (tag, artifact) in [("v2", &v2[..]), ("json", &json[..])] {
            let dir = std::env::temp_dir()
                .join(format!("mikpoly-engine-old-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = commit_gemm_bundle(&dir, artifact);
            let report = b.restore_program_caches(&dir);
            let g = &report.bundles[0];
            assert_eq!(g.outcome, RestoreOutcome::Quarantined, "{tag}: {report}");
            assert_eq!(report.restored(), 0, "{tag}");
            assert!(!path.exists(), "{tag}: the old file must be moved aside");
            let moved = g.quarantined_to.as_ref().expect("quarantine path");
            assert!(moved.starts_with(dir.join(QUARANTINE_DIR)) && moved.exists());
            let _ = std::fs::remove_dir_all(dir);
        }

        let dir = std::env::temp_dir().join(format!("mikpoly-engine-flat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("gemm.mpac"), &v3).expect("flat write");
        let report = b.restore_program_caches(&dir);
        assert_eq!(report.generation, None);
        assert!(report
            .bundles
            .iter()
            .all(|b| b.outcome == RestoreOutcome::Absent));

        let cold = b.run_operator(&gemm).run;
        assert!(cold.compile_ns > 0, "nothing old was adopted");
        cold.program.verify_coverage().expect("coverage");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "machine mismatch")]
    fn from_compilers_rejects_mismatched_machines() {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        let gemm = Arc::new(MikPoly::offline(MachineModel::a100(), &options));
        let conv = Arc::new(MikPoly::offline(
            MachineModel::ascend910a(),
            &options.clone().with_template(TemplateKind::Conv),
        ));
        let _ = Engine::from_compilers(MachineModel::a100(), gemm, conv);
    }
}

/// The device-time memo on the serving path: whatever route a program
/// took into its cache slot, the device time [`Engine::try_plan_graph`]
/// reports is the program's own, bit for bit.
#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::compiler::{FaultInjection, OnlineOptions};
    use accel_sim::FaultPlan;
    use tensor_ir::GemmShape;

    /// Two shapes; on both machines the first one's searched and
    /// single-kernel programs differ in device time.
    fn ops() -> [Operator; 2] {
        [
            Operator::gemm(GemmShape::new(333, 4000, 128)),
            Operator::gemm(GemmShape::new(1000, 300, 200)),
        ]
    }

    fn machines() -> [MachineModel; 2] {
        [MachineModel::a100(), MachineModel::ascend910a()]
    }

    fn library(machine: &MachineModel) -> crate::offline::MicroKernelLibrary {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        crate::offline::MicroKernelLibrary::generate(machine, &options)
    }

    /// An engine over `library` whose GEMM compiler uses `online`.
    fn engine(
        machine: &MachineModel,
        library: &crate::offline::MicroKernelLibrary,
        online: OnlineOptions,
    ) -> Engine {
        let gemm = MikPoly::with_library(machine.clone(), library.clone()).with_options(online);
        let conv = MikPoly::with_library(machine.clone(), library.clone());
        Engine::from_compilers(machine.clone(), Arc::new(gemm), Arc::new(conv))
    }

    /// Plans `op` twice (the second read comes from the memo) and checks
    /// both device times against a fresh simulation of the program the
    /// cache answers with under `budget` — the program the plan ran,
    /// which its launch confirms. Returns the plan.
    fn assert_memo_matches(engine: &Engine, op: &Operator, budget: CompileBudget<'_>) -> GraphPlan {
        let plan = engine
            .try_plan_graph([(op, 1)], budget)
            .expect("plan compiles");
        let again = engine
            .try_plan_graph([(op, 1)], budget)
            .expect("replan hits");
        let program = engine
            .gemm_compiler()
            .try_compile(op, budget)
            .expect("resident program")
            .program;
        assert_eq!(plan.ops[0].launch, engine.launch_for(&program));
        assert_eq!(plan.ops[0].reduction, program.reduction_launch());
        let fresh = engine.simulate(&program).time_ns;
        for p in [&plan, &again] {
            assert_eq!(p.run.device_ns.to_bits(), fresh.to_bits(), "{op}");
            assert_eq!(p.ops[0].solo_ns.to_bits(), fresh.to_bits(), "{op}");
        }
        plan
    }

    #[test]
    fn poisoned_entries_never_serve_a_stale_device_time() {
        for machine in machines() {
            let engine = engine(&machine, &library(&machine), OnlineOptions::default());
            let faults = FaultInjection::new(Arc::new(FaultPlan {
                cache_corrupt_rate: 1.0,
                ..FaultPlan::none()
            }));
            let budget = CompileBudget {
                faults: Some(&faults),
                ..CompileBudget::default()
            };
            for op in ops() {
                assert_memo_matches(&engine, &op, budget);
            }
            let stats = engine.gemm_compiler().cache_stats();
            assert_eq!(stats.invalidations, ops().len() as u64, "{}", machine.name);
        }
    }

    #[test]
    fn evicted_and_refilled_entries_simulate_their_own_program() {
        for machine in machines() {
            let bounded = OnlineOptions {
                cache_capacity: Some(1),
                ..OnlineOptions::default()
            };
            let engine = engine(&machine, &library(&machine), bounded);
            let [a, b] = ops();
            let plan = |op: &Operator| {
                engine
                    .try_plan_graph([(op, 1)], CompileBudget::default())
                    .expect("plan compiles")
            };
            // Fills only: a hit would protect `a` from eviction.
            let first = plan(&a);
            plan(&b);
            let refill = plan(&a);
            assert_eq!(
                refill.run.compilations, 1,
                "{}: a was evicted",
                machine.name
            );
            assert_eq!(engine.gemm_compiler().cache_stats().evictions, 2);
            let checked = assert_memo_matches(&engine, &a, CompileBudget::default());
            for p in [&first, &refill] {
                assert_eq!(p.run.device_ns.to_bits(), checked.run.device_ns.to_bits());
            }
        }
    }

    #[test]
    fn restored_programs_simulate_on_their_first_hit() {
        for machine in machines() {
            let library = library(&machine);
            let original = engine(&machine, &library, OnlineOptions::default());
            let planned: Vec<GraphPlan> = ops()
                .iter()
                .map(|op| assert_memo_matches(&original, op, CompileBudget::default()))
                .collect();
            let restored = engine(&machine, &library, OnlineOptions::default());
            let bundle = original.gemm_compiler().encode_program_cache();
            let loaded = restored
                .gemm_compiler()
                .load_program_cache_bytes(&bundle)
                .expect("bundle loads");
            assert_eq!(loaded, ops().len());
            for (op, before) in ops().iter().zip(&planned) {
                let plan = assert_memo_matches(&restored, op, CompileBudget::default());
                assert_eq!(plan.run.compilations, 0, "{op} restored warm");
                assert_eq!(plan.run.device_ns.to_bits(), before.run.device_ns.to_bits());
            }
        }
    }

    #[test]
    fn degraded_programs_keep_a_memo_of_their_own() {
        let degrade_only = CompileBudget {
            degrade_only: true,
            ..CompileBudget::default()
        };
        for machine in machines() {
            let engine = engine(&machine, &library(&machine), OnlineOptions::default());
            for (i, op) in ops().iter().enumerate() {
                let full = assert_memo_matches(&engine, op, CompileBudget::default());
                let degraded = assert_memo_matches(&engine, op, degrade_only);
                assert_eq!(degraded.run.degraded, 1);
                if i == 0 {
                    // One operator, two programs: a memo shared by
                    // operator would report one program's time for the
                    // other.
                    assert_ne!(
                        degraded.run.device_ns.to_bits(),
                        full.run.device_ns.to_bits(),
                        "{}: {op}",
                        machine.name
                    );
                }
            }
        }
    }
}
