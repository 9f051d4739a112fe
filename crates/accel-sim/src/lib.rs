//! # accel-sim — a deterministic multi-level accelerator simulator
//!
//! This crate implements the hardware substrate for the MikPoly reproduction.
//! The paper ("Optimizing Dynamic-Shape Neural Networks on Accelerators via
//! On-the-Fly Micro-Kernel Polymerization", ASPLOS 2024) models every target
//! device through a *multi-level accelerator abstraction*
//! `H = (P_multi, M_local, M_global)`:
//!
//! * `P_multi` — a set of identical processing engines (PEs): streaming
//!   multiprocessors on an NVIDIA GPU, DaVinci cores on an Ascend NPU;
//! * `M_local` — fast memory private to one PE (shared memory / L1 buffer);
//! * `M_global` — large memory whose bandwidth is divided equally among PEs.
//!
//! Work is submitted as *pipelined tasks*: a task executes `t` instances of a
//! fixed-size micro-kernel on one PE, overlapping (1) loads from `M_global`
//! to `M_local`, (2) compute on the PE, and (3) write-back of results.
//! A grid of tasks is executed in *waves* across the PEs.
//!
//! The simulator plays the role of the paper's testbed (A100 GPU and Ascend
//! 910A NPU, Table 1/2): it produces the "measurements" that drive offline
//! micro-kernel tuning and performance-model fitting, and the final execution
//! times reported by every experiment. Two first-order phenomena the paper's
//! evaluation hinges on are reproduced faithfully:
//!
//! * **wave quantization / load imbalance** (Fig. 15, Table 9): a grid whose
//!   task count is slightly above a multiple of the wave capacity pays for a
//!   nearly-idle tail wave, visible in the `sm_efficiency` counter;
//! * **tile-size dependent throughput** (roofline): small tiles are
//!   memory-bound and have poor per-warp ILP, very large tiles exhaust
//!   `M_local`.
//!
//! # Example
//!
//! ```
//! use accel_sim::{MachineModel, TaskShape, TaskSpec, Launch, simulate, TimingMode};
//!
//! let machine = MachineModel::a100();
//! // One pipelined task: 128 instances of a 256x128x32 fp16 micro-kernel.
//! let shape = TaskShape::gemm_tile(256, 128, 32, 2, 2, 4);
//! let spec = TaskSpec::new(shape, 8, 128);
//! let launch = Launch::grid(spec, 128);
//! let report = simulate(&machine, &launch, TimingMode::Evaluate);
//! assert!(report.time_ns > 0.0);
//! assert_eq!(report.grid_size, 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod cluster;
mod counters;
mod error;
mod events;
mod fault;
pub mod invariants;
mod machine;
mod noise;
#[cfg(any(test, feature = "reference-sim"))]
pub mod reference;
mod scheduler;
mod task;
mod timing;

pub use cluster::{Cluster, Interconnect};
pub use counters::{PeUtilization, SimReport};
pub use error::SimError;
pub use fault::FaultPlan;
pub use invariants::{
    check_deterministic_replay, check_launch, check_report, check_trace, InvariantViolation,
};
pub use machine::{AllocationPolicy, MachineModel, MmaShape};
pub use noise::{hash_f64, unit_noise};
#[cfg(any(test, feature = "reference-sim"))]
pub use reference::{simulate_reference, simulate_reference_profiled, simulate_reference_traced};
pub use scheduler::{
    simulate, simulate_profiled, simulate_traced, try_simulate, try_simulate_launches, SimProfile,
    TraceEvent,
};
pub use task::{Launch, TaskGroup, TaskShape, TaskSpec};
pub use timing::{
    compute_efficiency, measure_pipelined_task, pipelined_task_ns, KernelTiming, TimingMode,
};
