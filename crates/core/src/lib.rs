//! # mikpoly — dynamic-shape tensor compilation via micro-kernel polymerization
//!
//! A from-scratch Rust reproduction of **MikPoly** ("Optimizing
//! Dynamic-Shape Neural Networks on Accelerators via On-the-Fly
//! Micro-Kernel Polymerization", ASPLOS 2024). MikPoly optimizes tensor
//! operators whose shapes are only known at model-execution time, in two
//! stages:
//!
//! * **Offline** ([`MicroKernelLibrary::generate`]): from the operator's
//!   micro-kernel template, auto-tune a set of fixed-size micro-kernels for
//!   `M_local` and fit a piecewise-linear performance model
//!   ([`PerfModel`], `g_predict`) per kernel from single-PE measurements.
//! * **Online** ([`MikPoly::compile`]): once the runtime shape is known,
//!   restructure the online loops following the polymerization
//!   [`pattern`]s of Fig. 5, instantiate each region's
//!   parameterized micro-kernel from the library (the polymerization
//!   *strategy*), and select the cheapest program under the Eq. 2 cost
//!   model `Cost(S, H) = Σ f_wave · f_pipe` with branch-and-bound pruning.
//!
//! The compiled [`CompiledProgram`] can be timed on the simulated
//! accelerator ([`MikPoly::simulate`]) and functionally executed on real
//! data ([`execute_gemm`], [`execute_conv2d`]) for verification.
//!
//! # Example
//!
//! ```
//! use accel_sim::MachineModel;
//! use mikpoly::{MikPoly, OfflineOptions};
//! use tensor_ir::{GemmShape, Operator};
//!
//! // Offline stage: tune a (reduced, for the example) kernel library.
//! let mut options = OfflineOptions::fast();
//! options.n_gen = 4;
//! let compiler = MikPoly::offline(MachineModel::a100(), &options);
//!
//! // Online stage: the shape arrives at runtime.
//! let op = Operator::gemm(GemmShape::new(4096, 1024, 4096));
//! let run = compiler.run(&op);
//! println!(
//!     "{} -> {} regions, {:.1} us",
//!     op,
//!     run.program.regions.len(),
//!     run.report.time_us()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
pub mod cache;
mod compiler;
mod cost;
mod engine;
mod error;
mod exec;
mod kernel;
mod offline;
pub mod pattern;
mod perf_model;
pub mod persist;
mod plan;
pub mod recovery;
mod resilience;
mod search;
pub mod serving;

pub use alloc::{lpt_makespan, makespan, max_min_assign};
pub use cache::{CacheOutcome, CacheStats, ShardedCache};
pub use compiler::{
    shape_key, try_polymerize, CompileBudget, CompileGrade, CompileReply, FaultInjection,
    LaunchKey, MikPoly, OnlineOptions, OperatorRun, OracleResult,
};
pub use cost::{f_pipe, f_wave, region_cost, CostModelKind};
pub use engine::{ConvAlgorithm, Engine, EngineRun, GraphPlan, GraphRun, OpPlan};
pub use error::{panic_reason, MikPolyError};
pub use exec::{execute_conv2d, execute_gemm};
pub use kernel::{MicroKernel, MicroKernelId};
pub use offline::{
    MicroKernelLibrary, OfflineOptions, TemplateKind, TileArea, TileAspect, TileStratum,
    TunedKernel,
};
pub use pattern::{all_patterns, default_patterns, gpu_patterns, Pattern, PatternId};
pub use perf_model::{sample_schedule, PerfModel, Segment};
pub use persist::{
    crc32, decode_bundle, encode_bundle, record_end_offsets, salvage_bundle, write_bytes_atomic,
    SalvagedBundle,
};
pub use plan::{CompiledProgram, CoverageError, Region, SearchStats};
pub use recovery::{quarantine_file, BundleRestore, Manifest, RestoreOutcome, RestoreReport};
pub use resilience::{
    BreakerDecision, BreakerState, CircuitBreaker, BREAKER_COOLDOWN_NS, BREAKER_FAILURE_THRESHOLD,
    MAX_RETRIES, RETRY_BACKOFF_NS,
};
pub use search::{SearchPolicy, SearchRun};
pub use serving::{
    percentile, poisson_arrivals, BatchingOptions, Disposition, DispositionCounts, DrainReport,
    LatencySummary, Lifecycle, Request, RequestRecord, ServingOptions, ServingReport,
    ServingRuntime, ShedReason, SnapshotStats, Snapshotter, TenantId, TenantPolicy, TenantQuota,
    TenantStats, WorkerStats,
};

/// The observability layer (re-exported so downstream crates need no
/// direct `mikpoly-telemetry` dependency): [`telemetry::Telemetry`],
/// spans, histograms, and the Chrome-trace / Prometheus exporters.
pub use mikpoly_telemetry as telemetry;
