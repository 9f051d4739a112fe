//! # mikpoly-conformance — standing correctness tooling for the MikPoly stack
//!
//! The paper's strongest correctness evidence is Fig. 12(b): an exhaustive
//! **MikPoly-Oracle** simulates every candidate polymerization and shows the
//! analytic cost model picks near-optimal strategies. This crate turns that
//! one-off experiment into a permanent subsystem with three layers:
//!
//! * **Reference comparison** ([`assert_matches_reference`]): the single,
//!   ULP-aware comparator every functional test uses, replacing scattered
//!   absolute-tolerance checks.
//! * **Differential shape fuzzer** ([`fuzz_run`]): deterministic seeded
//!   generation of GEMM / batched-GEMM / conv shapes, driven through the
//!   full offline→online→execute pipeline on both GPU and NPU machine
//!   models, checking numerics, coverage, simulator invariants (including
//!   deterministic replay), and program-cache coherence — with automatic
//!   shrinking and a persisted regression corpus.
//! * **Cost-model-fidelity gate** ([`run_gate`]): measures the *oracle gap*
//!   (cost-model pick latency / exhaustive-oracle pick latency) over a
//!   pinned corpus and fails when the p95 exceeds a threshold, so a
//!   regression in the Eq. 2 model is caught in CI, not as benchmark drift.
//! * **Crash-injection matrix** ([`crash_run`]): truncates the durable
//!   warm-state bundle at every byte offset, flips seeded bits, and feeds
//!   arbitrary bytes and checksummed hostile records through the loaders,
//!   proving recovery never panics and salvage recovers exactly the valid
//!   record prefix.
//!
//! The `conformance` binary exposes the fuzzer, gate, and crash matrix to
//! `scripts/ci.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, OnceLock};

use accel_sim::MachineModel;
use mikpoly::telemetry::Telemetry;
use mikpoly::{Engine, MikPoly, OfflineOptions, OnlineOptions, TemplateKind};

pub mod crash;
pub mod fuzz;
pub mod gate;
pub mod oracle;
pub mod reference;
pub mod rng;

pub use crash::{crash_run, CrashConfig, CrashReport};
pub use fuzz::{
    append_to_corpus, default_case_count, fuzz_run, gen_op, load_corpus, run_case, save_corpus,
    shrink, CaseFailure, FaultSpec, FuzzCase, FuzzConfig, FuzzReport, MachineKind, OpSpec,
};
pub use gate::{run_gate, GateConfig, GateOutcome};
pub use oracle::{gap_for, percentile, sample_shapes, summarize, GapSample, GapSummary};
pub use reference::{
    assert_matches_reference, compare_to_reference, ulp_distance, Mismatch, MismatchReport,
    Tolerance,
};
pub use rng::XorShift64;

/// Lazily-built compilation environments for each modeled machine.
///
/// Offline tuning is the expensive part of a conformance run, so engines
/// are built once per machine on first use and shared across every case.
/// The online options are injectable — the gate's demonstration tests use
/// this to plant a deliberately broken cost model and verify it is caught.
pub struct ConformanceEnv {
    offline: OfflineOptions,
    online: OnlineOptions,
    telemetry: Arc<Telemetry>,
    gpu: OnceLock<Engine>,
    npu: OnceLock<Engine>,
}

impl ConformanceEnv {
    /// An environment with a reduced offline stage (small kernel library)
    /// — the right trade for conformance work, where *coverage of shapes*
    /// matters and *peak performance of the library* does not.
    pub fn fast() -> Self {
        let mut offline = OfflineOptions::fast();
        offline.n_gen = 4;
        Self {
            offline,
            online: OnlineOptions::default(),
            telemetry: Telemetry::disabled(),
            gpu: OnceLock::new(),
            npu: OnceLock::new(),
        }
    }

    /// An environment with the stock reduced offline stage
    /// ([`OfflineOptions::fast`]): a richer micro-kernel library than
    /// [`ConformanceEnv::fast`], worth the extra tuning time when the
    /// *quality of the cost model's picks* is what is being judged — i.e.
    /// for the fidelity gate, where a starved library would conflate
    /// library coverage with model fidelity.
    pub fn standard() -> Self {
        Self {
            offline: OfflineOptions::fast(),
            online: OnlineOptions::default(),
            telemetry: Telemetry::disabled(),
            gpu: OnceLock::new(),
            npu: OnceLock::new(),
        }
    }

    /// Overrides the online options of every compiler built by this
    /// environment (builder style; call before first use).
    #[must_use]
    pub fn with_online_options(mut self, online: OnlineOptions) -> Self {
        self.online = online;
        self
    }

    /// Attaches a telemetry handle recording fuzz/gate/oracle counters
    /// (builder style; call before first use).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle conformance counters record into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    fn build_engine(&self, machine: MachineModel) -> Engine {
        let gemm = MikPoly::offline_with_telemetry(
            machine.clone(),
            &self.offline.clone().with_template(TemplateKind::Gemm),
            Arc::clone(&self.telemetry),
        )
        .with_options(self.online.clone());
        let conv = MikPoly::offline_with_telemetry(
            machine.clone(),
            &self.offline.clone().with_template(TemplateKind::Conv),
            Arc::clone(&self.telemetry),
        )
        .with_options(self.online.clone());
        Engine::from_compilers(machine, Arc::new(gemm), Arc::new(conv))
    }

    /// The engine for `machine`, built on first use.
    pub fn engine(&self, machine: MachineKind) -> &Engine {
        let slot = match machine {
            MachineKind::Gpu => &self.gpu,
            MachineKind::Npu => &self.npu,
        };
        slot.get_or_init(|| self.build_engine(machine.model()))
    }

    /// The compiler a case's operator routes to: the conv-template
    /// compiler for convolutions, the gemm-template compiler otherwise.
    pub fn compiler_for(&self, case: &FuzzCase) -> &MikPoly {
        let engine = self.engine(case.machine);
        if case.op.is_conv() {
            engine.conv_compiler()
        } else {
            engine.gemm_compiler()
        }
    }
}

impl std::fmt::Debug for ConformanceEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConformanceEnv")
            .field("gpu_built", &self.gpu.get().is_some())
            .field("npu_built", &self.npu.get().is_some())
            .finish()
    }
}
