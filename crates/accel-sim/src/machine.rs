//! Machine models: the `H = (P_multi, M_local, M_global)` abstraction.

use serde::{Deserialize, Serialize};

/// Shape of the PE's native matrix-multiply-accumulate instruction.
///
/// Tensor Cores on an A100 execute `16x8x16` fp16 MMAs; the Ascend 910A cube
/// unit computes `16x16x16` fragments. Tiles that are not multiples of the
/// MMA shape waste lanes (the padding is executed but discarded), which
/// [`crate::compute_efficiency`] charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MmaShape {
    /// Rows of the MMA fragment.
    pub m: usize,
    /// Columns of the MMA fragment.
    pub n: usize,
    /// Reduction depth of the MMA fragment.
    pub k: usize,
}

impl MmaShape {
    /// Creates a new MMA shape.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        Self { m, n, k }
    }

    /// Output fragment area `m * n`.
    pub const fn area(&self) -> usize {
        self.m * self.n
    }
}

impl std::fmt::Display for MmaShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// How a grid of tasks is placed onto PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// A hardware scheduler assigns tasks to PEs greedily as slots free up
    /// (NVIDIA GPUs: thread blocks are dispatched to SMs dynamically).
    DynamicHardware,
    /// The compiler pre-assigns every task to a PE; each PE executes its
    /// queue in order (Ascend NPUs: the runtime honours a static placement,
    /// which MikPoly computes with a max-min / LPT allocator).
    StaticCompilerAssigned,
}

/// A multi-level accelerator: `H = (P_multi, M_local, M_global)`.
///
/// The presets [`MachineModel::a100`] and [`MachineModel::ascend910a`] mirror
/// Table 1/2 of the paper; [`MachineModel::a100_cuda_cores`] is the
/// Tensor-Core-free variant used for the DietCode/Nimble comparison
/// (Fig. 10), where all compilers are restricted to CUDA cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable device name.
    pub name: String,
    /// `|P_multi|`: number of processing engines (SMs / DaVinci cores).
    pub num_pes: usize,
    /// PE clock in GHz.
    pub clock_ghz: f64,
    /// Peak FLOPs per cycle per PE at full warp occupancy (fp16 with fp32
    /// accumulate on the matrix units).
    pub flops_per_cycle_per_pe: f64,
    /// `M_local` capacity in bytes (shared memory / L1 buffer usable by one
    /// resident task set).
    pub local_mem_bytes: usize,
    /// `M_global` aggregate bandwidth in GB/s, divided equally among PEs.
    pub global_bandwidth_gbps: f64,
    /// Effective bandwidth amplification from the cache hierarchy between
    /// `M_global` and the PEs (L2 hits, multicast of shared operand tiles).
    pub mem_amplification: f64,
    /// `M_global` capacity in bytes.
    pub global_mem_bytes: u64,
    /// Native MMA fragment shape.
    pub mma: MmaShape,
    /// Threads per warp (1 for NPU cores, which have no warp concept).
    pub warp_size: usize,
    /// Active warp slots per PE for matrix-unit kernels. Register and
    /// local-memory pressure of tensor kernels caps residency well below the
    /// architectural limit; on the A100 the tensor-core GEMM kernels of the
    /// paper run at 12.5% occupancy = 8 active warps per SM (Section 6).
    pub warp_cap_per_pe: usize,
    /// Fixed host-side launch overhead per kernel launch, in nanoseconds.
    /// Calibrated to stream-pipelined dispatch (kernels are enqueued
    /// back-to-back, so per-launch cost is the ~1 us driver path, not the
    /// full synchronous round trip).
    pub launch_overhead_ns: f64,
    /// Fixed per-task scheduling overhead, in nanoseconds.
    pub task_overhead_ns: f64,
    /// Baseline fraction of peak sustained by a perfectly-shaped kernel
    /// (instruction issue, synchronization and epilogue overheads).
    pub base_efficiency: f64,
    /// Task placement policy.
    pub allocation: AllocationPolicy,
}

impl MachineModel {
    /// NVIDIA A100 (SXM4-80GB) with Tensor Cores, as abstracted in Table 1.
    ///
    /// 108 SMs at 1.41 GHz; 2048 fp16 FLOP/cycle/SM gives the 312 TFLOPS
    /// Tensor-Core peak; 192 KiB combined shared memory/L1 per SM; 1555 GB/s
    /// HBM2e after Table 2.
    pub fn a100() -> Self {
        Self {
            name: "nvidia-a100".into(),
            num_pes: 108,
            clock_ghz: 1.41,
            flops_per_cycle_per_pe: 2048.0,
            local_mem_bytes: 192 * 1024,
            global_bandwidth_gbps: 1555.0,
            mem_amplification: 5.0,
            global_mem_bytes: 80 * (1 << 30),
            mma: MmaShape::new(16, 8, 16),
            warp_size: 32,
            warp_cap_per_pe: 8,
            launch_overhead_ns: 1_000.0,
            task_overhead_ns: 250.0,
            base_efficiency: 0.95,
            allocation: AllocationPolicy::DynamicHardware,
        }
    }

    /// NVIDIA A100 restricted to CUDA cores (no Tensor Cores).
    ///
    /// Used for the comparison with DietCode and Nimble (Fig. 10), which only
    /// target CUDA cores. fp16 FMA throughput on CUDA cores is 512
    /// FLOP/cycle/SM (78 TFLOPS); scalar lanes have no MMA alignment
    /// requirement and much higher occupancy headroom.
    pub fn a100_cuda_cores() -> Self {
        Self {
            name: "nvidia-a100-cuda-cores".into(),
            flops_per_cycle_per_pe: 512.0,
            mma: MmaShape::new(4, 4, 1),
            warp_cap_per_pe: 8,
            base_efficiency: 0.9,
            ..Self::a100()
        }
    }

    /// An H100-class (SXM5) GPU — not part of the paper's evaluation; used
    /// by the portability extension study to show the pipeline retargets by
    /// swapping the machine description alone.
    ///
    /// 132 SMs at 1.83 GHz; ~4096 fp16 FLOP/cycle/SM (≈ 990 TFLOPS dense
    /// Tensor-Core peak); 228 KiB shared memory/L1 per SM; 3350 GB/s HBM3.
    pub fn h100() -> Self {
        Self {
            name: "nvidia-h100".into(),
            num_pes: 132,
            clock_ghz: 1.83,
            flops_per_cycle_per_pe: 4096.0,
            local_mem_bytes: 228 * 1024,
            global_bandwidth_gbps: 3350.0,
            mem_amplification: 5.0,
            global_mem_bytes: 80 * (1 << 30),
            mma: MmaShape::new(16, 8, 16),
            warp_size: 32,
            warp_cap_per_pe: 8,
            launch_overhead_ns: 1_000.0,
            task_overhead_ns: 200.0,
            base_efficiency: 0.95,
            allocation: AllocationPolicy::DynamicHardware,
        }
    }

    /// Huawei Ascend 910A, as abstracted in Table 1.
    ///
    /// 32 DaVinci cores at 1.0 GHz; each cube unit delivers 8192 fp16
    /// FLOP/cycle (256 TFLOPS aggregate); 1 MiB L1 buffer per core; 1200 GB/s
    /// HBM. DaVinci cores execute one task at a time and placement is static.
    pub fn ascend910a() -> Self {
        Self {
            name: "ascend-910a".into(),
            num_pes: 32,
            clock_ghz: 1.0,
            flops_per_cycle_per_pe: 8192.0,
            local_mem_bytes: 1024 * 1024,
            global_bandwidth_gbps: 1200.0,
            mem_amplification: 3.0,
            global_mem_bytes: 32 * (1 << 30),
            mma: MmaShape::new(16, 16, 16),
            warp_size: 1,
            warp_cap_per_pe: 1,
            // Ascend task dispatch runs through the AI CPU / runtime: both
            // the per-launch and per-task costs are an order of magnitude
            // above a GPU's hardware scheduler.
            launch_overhead_ns: 10_000.0,
            task_overhead_ns: 2_000.0,
            base_efficiency: 0.92,
            allocation: AllocationPolicy::StaticCompilerAssigned,
        }
    }

    /// Peak FLOPs/s of a single PE.
    pub fn pe_peak_flops(&self) -> f64 {
        self.clock_ghz * 1e9 * self.flops_per_cycle_per_pe
    }

    /// Aggregate peak FLOPs/s of the device.
    pub fn peak_flops(&self) -> f64 {
        self.pe_peak_flops() * self.num_pes as f64
    }

    /// Effective bytes/ns available to one PE: the equal share of global
    /// bandwidth (the paper's `M_global` "allocates its bandwidth equally
    /// across PEs") amplified by the cache hierarchy.
    pub fn pe_bandwidth_bytes_per_ns(&self) -> f64 {
        self.global_bandwidth_gbps * self.mem_amplification / self.num_pes as f64
    }
}

impl std::fmt::Display for MachineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (|P_multi|={}, M_local={} KiB, M_global bw={} GB/s, peak={:.0} TFLOPS)",
            self.name,
            self.num_pes,
            self.local_mem_bytes / 1024,
            self.global_bandwidth_gbps,
            self.peak_flops() / 1e12
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_peak_matches_datasheet() {
        let m = MachineModel::a100();
        // 312 TFLOPS fp16 Tensor Core peak.
        assert!((m.peak_flops() / 1e12 - 312.0).abs() < 5.0);
    }

    #[test]
    fn ascend_peak_matches_datasheet() {
        let m = MachineModel::ascend910a();
        // ~256 TFLOPS fp16 cube peak (32 cores x 8192 FLOP/cycle at 1 GHz).
        assert!((m.peak_flops() / 1e12 - 256.0).abs() < 10.0);
    }

    #[test]
    fn h100_is_stronger_than_a100_everywhere() {
        let a = MachineModel::a100();
        let h = MachineModel::h100();
        assert!(h.peak_flops() > 2.0 * a.peak_flops());
        assert!(h.pe_bandwidth_bytes_per_ns() > a.pe_bandwidth_bytes_per_ns());
        assert!(h.local_mem_bytes > a.local_mem_bytes);
    }

    #[test]
    fn cuda_core_variant_is_weaker_but_same_chip() {
        let tc = MachineModel::a100();
        let cc = MachineModel::a100_cuda_cores();
        assert_eq!(tc.num_pes, cc.num_pes);
        assert!(cc.peak_flops() < tc.peak_flops() / 3.0);
        assert!(cc.mma.area() < tc.mma.area());
    }

    #[test]
    fn pe_bandwidth_is_equal_share() {
        let m = MachineModel::a100();
        let total = m.pe_bandwidth_bytes_per_ns() * m.num_pes as f64;
        assert!((total - 1555.0 * 5.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_informative() {
        let s = MachineModel::a100().to_string();
        assert!(s.contains("nvidia-a100"));
        assert!(s.contains("108"));
    }
}
