//! Multi-device clusters and collective-communication cost.
//!
//! Tensor-parallel inference (the paper's Llama2-13b setup: four A100s over
//! NVLink) interleaves per-rank GEMMs with all-reduces of the activations.
//! The devices run identical per-rank launches; what a cluster adds is the
//! collective cost, modeled here with the standard ring bound plus a
//! latency floor.

use serde::{Deserialize, Serialize};

use crate::machine::MachineModel;

/// A point-to-point interconnect between the devices of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Per-direction link bandwidth in GB/s.
    pub link_gbps: f64,
    /// Latency floor per collective, ns (kernel launches, synchronization,
    /// protocol hops).
    pub latency_ns: f64,
}

impl Interconnect {
    /// Third-generation NVLink as on A100 SXM systems: 600 GB/s per
    /// direction, ~20 us small-message collective floor.
    pub fn nvlink3() -> Self {
        Self {
            link_gbps: 600.0,
            latency_ns: 20_000.0,
        }
    }
}

/// A homogeneous multi-device cluster running tensor parallelism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// The per-rank device.
    pub machine: MachineModel,
    /// Number of devices (the tensor-parallel degree).
    pub devices: usize,
    /// Device-to-device interconnect.
    pub interconnect: Interconnect,
}

impl Cluster {
    /// Creates a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn new(machine: MachineModel, devices: usize, interconnect: Interconnect) -> Self {
        assert!(devices > 0, "a cluster needs at least one device");
        Self {
            machine,
            devices,
            interconnect,
        }
    }

    /// The paper's Llama2 testbed: four A100s over NVLink.
    pub fn a100_x4_nvlink() -> Self {
        Self::new(MachineModel::a100(), 4, Interconnect::nvlink3())
    }

    /// Ring all-reduce of `bytes` across the cluster:
    /// `latency + 2(n-1)/n · bytes / link_bw`. Zero for a single device.
    pub fn allreduce_ns(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "bytes must be non-negative");
        let n = self.devices as f64;
        if self.devices == 1 {
            return 0.0;
        }
        self.interconnect.latency_ns + 2.0 * (n - 1.0) / n * bytes / self.interconnect.link_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_needs_no_collective() {
        let c = Cluster::new(MachineModel::a100(), 1, Interconnect::nvlink3());
        assert_eq!(c.allreduce_ns(1e9), 0.0);
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let c = Cluster::a100_x4_nvlink();
        let tiny = c.allreduce_ns(10_240.0); // a decode step's activations
        assert!((tiny - c.interconnect.latency_ns).abs() / tiny < 0.01);
    }

    #[test]
    fn large_messages_approach_the_ring_bound() {
        let c = Cluster::a100_x4_nvlink();
        let bytes = 1e9;
        let ring = 2.0 * 3.0 / 4.0 * bytes / 600.0;
        let t = c.allreduce_ns(bytes);
        assert!((t - ring) / ring < 0.02, "t = {t}, ring = {ring}");
    }

    #[test]
    fn nvlink_beats_pcie() {
        let nv = Cluster::new(MachineModel::a100(), 4, Interconnect::nvlink3());
        // PCIe 4.0 x16: ~25 GB/s effective per direction, higher latency.
        let pcie4 = Interconnect {
            link_gbps: 25.0,
            latency_ns: 50_000.0,
        };
        let pci = Cluster::new(MachineModel::a100(), 4, pcie4);
        assert!(nv.allreduce_ns(1e8) < pci.allreduce_ns(1e8) / 5.0);
    }

    #[test]
    fn allreduce_grows_with_device_count() {
        let bytes = 1e8;
        let two = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
        let eight = Cluster::new(MachineModel::a100(), 8, Interconnect::nvlink3());
        assert!(eight.allreduce_ns(bytes) > two.allreduce_ns(bytes));
    }
}
