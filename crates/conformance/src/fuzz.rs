//! Differential shape fuzzer over the full compile-and-execute pipeline.
//!
//! Each fuzz case is a `(machine, operator shape, data seed)` triple —
//! fully deterministic, serializable, and therefore replayable forever.
//! A case drives the offline→online→execute pipeline and checks four
//! independent properties:
//!
//! 1. **Numerics**: the polymerized program, functionally executed,
//!    matches `tensor_ir::reference_gemm` / `reference_conv2d` under the
//!    shared ULP-aware [`crate::Tolerance`].
//! 2. **Coverage**: the program tiles the output space exactly.
//! 3. **Simulator invariants**: the program's device launch passes every
//!    [`accel_sim::invariants`] check, including deterministic replay.
//! 4. **Cache coherence**: an immediate recompile of the same operator is
//!    answered by the program cache with the identical program.
//!
//! Failures are *shrunk* — dimensions halved and decremented while the
//! failure reproduces — and persisted to a JSON regression corpus so
//! every future run replays past counterexamples first.

use serde::{Deserialize, Serialize};

use accel_sim::{MachineModel, TimingMode};
use mikpoly::{
    execute_conv2d, execute_gemm, panic_reason, CacheOutcome, CompileBudget, FaultInjection,
    MikPolyError,
};
use tensor_ir::{reference_conv2d, reference_gemm, Conv2dShape, GemmShape, Operator, Tensor};

use crate::reference::{compare_to_reference, Tolerance};
use crate::rng::XorShift64;
use crate::ConformanceEnv;

/// Which modeled accelerator a case targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// NVIDIA A100 model (dynamic hardware scheduling).
    Gpu,
    /// Ascend 910A model (static compiler-assigned placement).
    Npu,
}

impl MachineKind {
    /// The machine model this kind denotes.
    pub fn model(&self) -> MachineModel {
        match self {
            MachineKind::Gpu => MachineModel::a100(),
            MachineKind::Npu => MachineModel::ascend910a(),
        }
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MachineKind::Gpu => "gpu",
            MachineKind::Npu => "npu",
        })
    }
}

/// A fuzzable operator shape. Winograd is deliberately excluded: it runs
/// through a transform domain with its own looser numerics and is covered
/// by dedicated tests, not the differential fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpSpec {
    /// Plain GEMM.
    Gemm {
        /// Rows of A / C.
        m: usize,
        /// Columns of B / C.
        n: usize,
        /// Reduction depth.
        k: usize,
    },
    /// Batched GEMM (flattened into the row dimension by the compiler).
    BatchedGemm {
        /// Independent instances.
        batch: usize,
        /// Per-instance rows.
        m: usize,
        /// Per-instance columns.
        n: usize,
        /// Per-instance reduction depth.
        k: usize,
    },
    /// Implicit-GEMM 2-D convolution.
    Conv2d {
        /// Batch size.
        batch: usize,
        /// Input channels.
        in_channels: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel extent (1 or 3).
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
}

impl OpSpec {
    /// The concrete operator this spec describes.
    pub fn operator(&self) -> Operator {
        match *self {
            OpSpec::Gemm { m, n, k } => Operator::gemm(GemmShape::new(m, n, k)),
            OpSpec::BatchedGemm { batch, m, n, k } => {
                Operator::batched_gemm(batch, GemmShape::new(m, n, k))
            }
            OpSpec::Conv2d {
                batch,
                in_channels,
                height,
                width,
                out_channels,
                kernel,
                stride,
                padding,
            } => Operator::conv2d(Conv2dShape::new(
                batch,
                in_channels,
                height,
                width,
                out_channels,
                kernel,
                kernel,
                stride,
                padding,
            )),
        }
    }

    /// Whether this spec routes through the conv-template compiler.
    pub fn is_conv(&self) -> bool {
        matches!(self, OpSpec::Conv2d { .. })
    }

    /// Structurally smaller variants that are still valid operators, in
    /// preference order (big halvings first, then single decrements).
    fn shrink_candidates(&self) -> Vec<OpSpec> {
        let mut out = Vec::new();
        let shrunk_dims = |dims: &[usize]| -> Vec<Vec<usize>> {
            let mut variants = Vec::new();
            for step in [2usize, 1] {
                for (i, &d) in dims.iter().enumerate() {
                    let smaller = if step == 2 {
                        d / 2
                    } else {
                        d.saturating_sub(1)
                    };
                    if smaller >= 1 && smaller < d {
                        let mut v = dims.to_vec();
                        v[i] = smaller;
                        variants.push(v);
                    }
                }
            }
            variants
        };
        match *self {
            OpSpec::Gemm { m, n, k } => {
                for v in shrunk_dims(&[m, n, k]) {
                    out.push(OpSpec::Gemm {
                        m: v[0],
                        n: v[1],
                        k: v[2],
                    });
                }
            }
            OpSpec::BatchedGemm { batch, m, n, k } => {
                for v in shrunk_dims(&[batch, m, n, k]) {
                    if v[0] >= 2 {
                        out.push(OpSpec::BatchedGemm {
                            batch: v[0],
                            m: v[1],
                            n: v[2],
                            k: v[3],
                        });
                    } else {
                        out.push(OpSpec::Gemm {
                            m: v[1],
                            n: v[2],
                            k: v[3],
                        });
                    }
                }
            }
            OpSpec::Conv2d {
                batch,
                in_channels,
                height,
                width,
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let min_hw = kernel.saturating_sub(2 * padding).max(1);
                for v in shrunk_dims(&[batch, in_channels, height, width, out_channels]) {
                    if v[2] < min_hw || v[3] < min_hw {
                        continue; // output extent would vanish
                    }
                    out.push(OpSpec::Conv2d {
                        batch: v[0],
                        in_channels: v[1],
                        height: v[2],
                        width: v[3],
                        out_channels: v[4],
                        kernel,
                        stride,
                        padding,
                    });
                }
                if kernel == 3 && height >= 1 && width >= 1 {
                    out.push(OpSpec::Conv2d {
                        batch,
                        in_channels,
                        height,
                        width,
                        out_channels,
                        kernel: 1,
                        stride,
                        padding: 0,
                    });
                }
                if stride > 1 {
                    out.push(OpSpec::Conv2d {
                        batch,
                        in_channels,
                        height,
                        width,
                        out_channels,
                        kernel,
                        stride: 1,
                        padding,
                    });
                }
                if padding > 0 && height > kernel && width > kernel {
                    out.push(OpSpec::Conv2d {
                        batch,
                        in_channels,
                        height,
                        width,
                        out_channels,
                        kernel,
                        stride,
                        padding: 0,
                    });
                }
            }
        }
        out
    }
}

/// Deterministic fault dimensions a case can optionally carry: each
/// enabled dimension fires on the shape's first compile (rate 1 under the
/// seeded [`accel_sim::FaultPlan`] schedule), so the case must recover —
/// retry the injected panic, evict the corrupted entry — and still pass
/// every differential property. Boolean dimensions (rather than float
/// rates) keep the spec `Eq + Hash` and the corpus replay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Inject a search stall (bounded, well under any test timeout).
    pub stall: bool,
    /// Corrupt the compiled program so cache validation must evict it.
    pub corrupt: bool,
    /// Panic the first compile attempt (recovered by one retry).
    pub panic: bool,
}

impl FaultSpec {
    /// The concrete fault-injection schedule this spec denotes.
    pub fn plan(&self) -> accel_sim::FaultPlan {
        accel_sim::FaultPlan {
            seed: self.seed,
            device_fault_rate: 0.0,
            search_stall_rate: if self.stall { 1.0 } else { 0.0 },
            // Visible in traces, negligible against the offline stage.
            search_stall_ns: 100_000,
            cache_corrupt_rate: if self.corrupt { 1.0 } else { 0.0 },
            compile_panic_rate: if self.panic { 1.0 } else { 0.0 },
            panic_attempts: 1,
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault(seed={:#x}", self.seed)?;
        for (on, name) in [
            (self.stall, "stall"),
            (self.corrupt, "corrupt"),
            (self.panic, "panic"),
        ] {
            if on {
                write!(f, "+{name}")?;
            }
        }
        f.write_str(")")
    }
}

/// One deterministic fuzz case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Target machine model.
    pub machine: MachineKind,
    /// Operator shape under test.
    pub op: OpSpec,
    /// Seed for the pseudo-random operand data.
    pub data_seed: u64,
    /// Optional injected-fault dimensions the pipeline must recover from
    /// (absent in corpora written before fault fuzzing existed).
    #[serde(default)]
    pub fault: Option<FaultSpec>,
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} seed={:#x}",
            self.machine,
            self.op.operator(),
            self.data_seed
        )?;
        if let Some(fault) = &self.fault {
            write!(f, " {fault}")?;
        }
        Ok(())
    }
}

/// Fuzz-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed for shape generation (data seeds derive from it).
    pub seed: u64,
    /// Number of random cases to generate.
    pub cases: usize,
    /// Machines to alternate between.
    pub machines: Vec<MachineKind>,
    /// Bound on total shrink re-executions per failure.
    pub max_shrink_steps: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x5EED,
            cases: default_case_count(),
            machines: vec![MachineKind::Gpu, MachineKind::Npu],
            max_shrink_steps: 200,
        }
    }
}

/// Case count from the `CONFORMANCE_CASES` environment variable (the
/// nightly-scale knob), defaulting to 64.
pub fn default_case_count() -> usize {
    std::env::var("CONFORMANCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A case that failed, after shrinking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseFailure {
    /// The (shrunk) failing case.
    pub case: FuzzCase,
    /// What went wrong.
    pub reason: String,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed (corpus replays + random).
    pub cases_run: usize,
    /// Cases replayed from the regression corpus.
    pub corpus_replayed: usize,
    /// Failures, each shrunk to a minimal reproducer.
    pub failures: Vec<CaseFailure>,
    /// Total shrink re-executions spent.
    pub shrink_steps: usize,
}

/// Draws one random operator spec.
pub fn gen_op(rng: &mut XorShift64) -> OpSpec {
    match rng.range(0, 2) {
        0 => OpSpec::Gemm {
            m: rng.range(1, 192),
            n: rng.range(1, 160),
            k: rng.range(1, 96),
        },
        1 => OpSpec::BatchedGemm {
            batch: rng.range(2, 4),
            m: rng.range(1, 64),
            n: rng.range(1, 64),
            k: rng.range(1, 48),
        },
        _ => {
            let kernel = *rng.pick(&[1usize, 3]);
            let padding = if kernel == 3 { rng.range(0, 1) } else { 0 };
            OpSpec::Conv2d {
                batch: rng.range(1, 2),
                in_channels: rng.range(1, 6),
                height: rng.range(3, 12),
                width: rng.range(3, 12),
                out_channels: rng.range(1, 6),
                kernel,
                stride: rng.range(1, 2),
                padding,
            }
        }
    }
}

/// Runs one case through compile → execute → verify.
///
/// # Errors
///
/// Returns a description of the first failed property.
pub fn run_case(env: &ConformanceEnv, case: &FuzzCase) -> Result<(), String> {
    let op = case.op.operator();
    let compiler = env.compiler_for(case);
    let program = match &case.fault {
        None => compiler.compile(&op),
        Some(spec) => {
            // The injected faults hit a shape's first compile attempt;
            // panic isolation plus one retry is exactly the serving
            // runtime's recovery contract, and poisoned-entry eviction
            // happens inside `try_compile` itself.
            let faults = FaultInjection::new(std::sync::Arc::new(spec.plan()));
            let budget = CompileBudget {
                faults: Some(&faults),
                ..CompileBudget::default()
            };
            let compile = || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compiler.try_compile(&op, budget)
                }))
                .unwrap_or_else(|payload| {
                    Err(MikPolyError::CompilePanicked {
                        reason: panic_reason(&*payload),
                    })
                })
            };
            let result = compile().or_else(|first| match first {
                MikPolyError::CompilePanicked { .. } => compile(),
                other => Err(other),
            });
            result.map_err(|e| format!("fault recovery: {e}"))?.program
        }
    };

    // Coverage: the program must tile the output exactly.
    program
        .verify_coverage()
        .map_err(|e| format!("coverage: {e:?}"))?;

    // Numerics against the reference semantics.
    let (got, want) = match case.op {
        OpSpec::Gemm { .. } | OpSpec::BatchedGemm { .. } => {
            let shape = op.gemm_view().shape;
            let a = Tensor::random(&[shape.m, shape.k], case.data_seed);
            let b = Tensor::random(&[shape.k, shape.n], case.data_seed ^ 0xA5A5_A5A5);
            (
                execute_gemm(&program, &a, &b),
                reference_gemm(shape, &a, &b),
            )
        }
        OpSpec::Conv2d { .. } => {
            let shape = match op {
                Operator::Conv2d { shape, .. } => shape,
                _ => unreachable!("conv spec produces a conv operator"),
            };
            let input = Tensor::random(
                &[shape.batch, shape.in_channels, shape.height, shape.width],
                case.data_seed,
            );
            let filter = Tensor::random(
                &[
                    shape.out_channels,
                    shape.in_channels,
                    shape.kernel_h,
                    shape.kernel_w,
                ],
                case.data_seed ^ 0xA5A5_A5A5,
            );
            (
                execute_conv2d(&program, &input, &filter),
                reference_conv2d(shape, &input, &filter),
            )
        }
    };
    compare_to_reference(&got, &want, Tolerance::default())
        .map_err(|report| format!("numerics: {report}"))?;

    // Simulator invariants, including deterministic replay.
    let launch = compiler.launch_for(&program);
    let violations = accel_sim::check_launch(compiler.machine(), &launch, TimingMode::Evaluate);
    if let Some(v) = violations.first() {
        return Err(format!(
            "simulator invariants: {v} (+{} more)",
            violations.len() - 1
        ));
    }

    // Cache coherence: an immediate recompile must be a hit on the very
    // same program — the serving path's correctness assumption.
    let again = compiler
        .try_compile(&op, CompileBudget::default())
        .map_err(|e| format!("cache coherence: recompile failed: {e}"))?;
    if again.outcome != CacheOutcome::Hit {
        return Err(format!(
            "cache coherence: recompile outcome {:?}",
            again.outcome
        ));
    }
    if !std::sync::Arc::ptr_eq(&program, &again.program) {
        return Err("cache coherence: recompile returned a different program".into());
    }
    Ok(())
}

/// Shrinks a failing case to a structurally smaller one that still fails,
/// within `max_steps` re-executions. Returns the minimal case, its failure
/// reason, and the steps spent.
pub fn shrink(
    env: &ConformanceEnv,
    case: FuzzCase,
    reason: String,
    max_steps: usize,
) -> (FuzzCase, String, usize) {
    let mut best = case;
    let mut best_reason = reason;
    let mut steps = 0usize;
    // Try dropping the fault dimension before shrinking the shape: a
    // failure that still reproduces fault-free is a plain shape bug, and
    // the fault-free case is the more minimal regression corpus entry.
    if best.fault.is_some() && steps < max_steps {
        let candidate = FuzzCase {
            fault: None,
            ..best
        };
        steps += 1;
        if let Err(reason) = run_case(env, &candidate) {
            best = candidate;
            best_reason = reason;
        }
    }
    'outer: while steps < max_steps {
        for candidate_op in best.op.shrink_candidates() {
            if steps >= max_steps {
                break 'outer;
            }
            let candidate = FuzzCase {
                op: candidate_op,
                ..best
            };
            steps += 1;
            if let Err(reason) = run_case(env, &candidate) {
                best = candidate;
                best_reason = reason;
                continue 'outer;
            }
        }
        break; // no smaller candidate still fails: minimal
    }
    (best, best_reason, steps)
}

/// Replays the corpus, then `config.cases` random cases; failures are
/// shrunk. Records `fuzz.cases` / `fuzz.failures` / `fuzz.shrink_steps`
/// counters when the environment's telemetry is enabled.
pub fn fuzz_run(env: &ConformanceEnv, config: &FuzzConfig, corpus: &[FuzzCase]) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut rng = XorShift64::new(config.seed);
    let execute = |env: &ConformanceEnv, case: FuzzCase, report: &mut FuzzReport| {
        report.cases_run += 1;
        if let Err(reason) = run_case(env, &case) {
            let (shrunk, reason, steps) = shrink(env, case, reason, config.max_shrink_steps);
            report.shrink_steps += steps;
            report.failures.push(CaseFailure {
                case: shrunk,
                reason,
            });
        }
    };
    for case in corpus {
        report.corpus_replayed += 1;
        execute(env, *case, &mut report);
    }
    for _ in 0..config.cases {
        let machine = *rng.pick(&config.machines);
        let op = gen_op(&mut rng);
        let data_seed = rng.next_u64();
        // About a quarter of the cases also carry injected faults the
        // pipeline must recover from before the properties are checked.
        let fault = if rng.range(0, 3) == 0 {
            Some(FaultSpec {
                seed: rng.next_u64(),
                stall: rng.range(0, 1) == 1,
                corrupt: rng.range(0, 1) == 1,
                panic: rng.range(0, 1) == 1,
            })
        } else {
            None
        };
        execute(
            env,
            FuzzCase {
                machine,
                op,
                data_seed,
                fault,
            },
            &mut report,
        );
    }
    let telemetry = env.telemetry();
    if telemetry.is_enabled() {
        let registry = telemetry.registry();
        registry.counter("fuzz.cases").add(report.cases_run as u64);
        registry
            .counter("fuzz.failures")
            .add(report.failures.len() as u64);
        registry
            .counter("fuzz.shrink_steps")
            .add(report.shrink_steps as u64);
    }
    report
}

/// Loads a JSON corpus; a missing file is an empty corpus.
///
/// # Errors
///
/// Returns an I/O or parse error for an existing-but-unreadable file.
pub fn load_corpus(path: impl AsRef<std::path::Path>) -> std::io::Result<Vec<FuzzCase>> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(std::io::Error::other)
}

/// Saves a corpus as pretty JSON (stable diffs under version control).
///
/// # Errors
///
/// Returns any I/O error from writing.
pub fn save_corpus(path: impl AsRef<std::path::Path>, cases: &[FuzzCase]) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(cases).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

/// Appends `case` to the corpus at `path` unless already present.
///
/// # Errors
///
/// Returns any I/O error from reading or writing the corpus file.
pub fn append_to_corpus(path: impl AsRef<std::path::Path>, case: &FuzzCase) -> std::io::Result<()> {
    let mut cases = load_corpus(&path)?;
    if !cases.contains(case) {
        cases.push(*case);
        save_corpus(path, &cases)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_op_is_deterministic() {
        let mut a = XorShift64::new(3);
        let mut b = XorShift64::new(3);
        for _ in 0..50 {
            assert_eq!(gen_op(&mut a), gen_op(&mut b));
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let op = OpSpec::Conv2d {
            batch: 2,
            in_channels: 4,
            height: 9,
            width: 9,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let weight = |o: &OpSpec| match *o {
            OpSpec::Gemm { m, n, k } => m * n * k,
            OpSpec::BatchedGemm { batch, m, n, k } => batch * m * n * k,
            OpSpec::Conv2d {
                batch,
                in_channels,
                height,
                width,
                out_channels,
                kernel,
                stride,
                padding,
            } => batch * in_channels * height * width * out_channels * kernel + stride + padding,
        };
        for candidate in op.shrink_candidates() {
            assert!(
                weight(&candidate) < weight(&op),
                "{candidate:?} not smaller than {op:?}"
            );
            let _ = candidate.operator(); // must be constructible
        }
    }

    #[test]
    fn corpus_round_trips() {
        let cases = vec![
            FuzzCase {
                machine: MachineKind::Gpu,
                op: OpSpec::Gemm { m: 7, n: 9, k: 3 },
                data_seed: 42,
                fault: None,
            },
            FuzzCase {
                machine: MachineKind::Npu,
                op: OpSpec::Conv2d {
                    batch: 1,
                    in_channels: 2,
                    height: 5,
                    width: 5,
                    out_channels: 3,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                data_seed: 43,
                fault: None,
            },
        ];
        let path = std::env::temp_dir().join("mikpoly-conformance-corpus-test.json");
        save_corpus(&path, &cases).expect("save");
        assert_eq!(load_corpus(&path).expect("load"), cases);
        // Appending an existing case is a no-op; a new one grows the file.
        append_to_corpus(&path, &cases[0]).expect("append dup");
        assert_eq!(load_corpus(&path).expect("load").len(), 2);
        let extra = FuzzCase {
            machine: MachineKind::Gpu,
            op: OpSpec::Gemm { m: 1, n: 1, k: 1 },
            data_seed: 1,
            fault: None,
        };
        append_to_corpus(&path, &extra).expect("append new");
        assert_eq!(load_corpus(&path).expect("load").len(), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_corpus_is_empty() {
        let path = std::env::temp_dir().join("mikpoly-conformance-no-such-corpus.json");
        let _ = std::fs::remove_file(&path);
        assert!(load_corpus(&path).expect("missing is ok").is_empty());
    }
}
