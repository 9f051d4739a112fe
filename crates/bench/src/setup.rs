//! Shared experiment setup: machines, cached micro-kernel libraries, and
//! the harness configuration.
//!
//! The offline stage is expensive by design ("approximately 6 hours for
//! GEMM on GPUs" on real hardware; seconds on the simulator) and its
//! product is reusable — "these micro-kernels ... do not require
//! re-generation for the same operator on the same platform". Libraries
//! are therefore cached on disk under `target/mikpoly-libs/`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use accel_sim::MachineModel;
use mikpoly::{MicroKernelLibrary, MikPoly, OfflineOptions, TemplateKind};

/// The workspace root, so artifact paths are stable regardless of the
/// working directory (`cargo bench` runs with the crate as cwd).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf()
}

/// Global harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Keep only every `stride`-th case of the big suites (1 = full run).
    pub stride: usize,
    /// Directory for CSV artifacts.
    pub results_dir: PathBuf,
    /// Offline options used for all MikPoly compilers.
    pub offline: OfflineOptions,
}

impl Config {
    /// The full paper-scale configuration.
    pub fn full() -> Self {
        Self {
            stride: 1,
            results_dir: workspace_root().join("results"),
            offline: OfflineOptions::paper(),
        }
    }

    /// A subsampled configuration for smoke runs and `cargo bench`.
    pub fn quick() -> Self {
        Self {
            stride: 25,
            ..Self::full()
        }
    }

    /// Applies the stride to a case list.
    pub fn subsample<T: Clone>(&self, cases: &[T]) -> Vec<T> {
        cases.iter().step_by(self.stride.max(1)).cloned().collect()
    }
}

/// Lazily-constructed, disk-cached compilers for every (machine, template)
/// pair the experiments need.
pub struct Harness {
    /// Configuration.
    pub config: Config,
}

impl Harness {
    /// Creates a harness.
    pub fn new(config: Config) -> Self {
        Self { config }
    }

    /// Writes `artifact` as pretty JSON to `name` under the results
    /// directory, reporting the path (or the write failure) on the terminal.
    pub fn write_artifact(&self, name: &str, artifact: &serde_json::Value) {
        let path = self.config.results_dir.join(name);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let json = serde_json::to_string_pretty(artifact).expect("json");
        match std::fs::write(&path, json) {
            Ok(()) => println!("   (artifact: {})", path.display()),
            Err(e) => eprintln!("   (artifact write failed: {e})"),
        }
    }

    fn cache_path(machine: &MachineModel, options: &OfflineOptions) -> PathBuf {
        let dir = workspace_root().join("target/mikpoly-libs");
        dir.join(format!(
            "{}-{:?}-g{}s{}m{}p{}.json",
            machine.name,
            options.template,
            options.n_gen,
            options.n_syn,
            options.n_mik,
            options.n_pred
        ))
    }

    /// Generates (or loads from cache) the micro-kernel library for a
    /// machine/template pair.
    pub fn library(&self, machine: &MachineModel, template: TemplateKind) -> MicroKernelLibrary {
        let options = self.config.offline.clone().with_template(template);
        let path = Self::cache_path(machine, &options);
        if let Ok(lib) = MicroKernelLibrary::load(&path) {
            if lib.machine == machine.name && lib.options == options {
                return lib;
            }
        }
        let lib = MicroKernelLibrary::generate(machine, &options);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = lib.save(&path);
        lib
    }

    /// A MikPoly compiler for a machine/template pair.
    pub fn compiler(&self, machine: &MachineModel, template: TemplateKind) -> Arc<MikPoly> {
        Arc::new(MikPoly::with_library(
            machine.clone(),
            self.library(machine, template),
        ))
    }

    /// The Tensor-Core GPU.
    pub fn gpu(&self) -> MachineModel {
        MachineModel::a100()
    }

    /// The CUDA-core GPU (Fig. 10 / Table 5).
    pub fn gpu_cuda_cores(&self) -> MachineModel {
        MachineModel::a100_cuda_cores()
    }

    /// The NPU.
    pub fn npu(&self) -> MachineModel {
        MachineModel::ascend910a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_subsamples() {
        let c = Config::quick();
        let cases: Vec<usize> = (0..100).collect();
        let sub = c.subsample(&cases);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub[0], 0);
    }

    #[test]
    fn full_config_keeps_everything() {
        let c = Config::full();
        let cases: Vec<usize> = (0..10).collect();
        assert_eq!(c.subsample(&cases).len(), 10);
    }

    #[test]
    fn library_cache_round_trips() {
        let mut config = Config::quick();
        config.offline = OfflineOptions::fast();
        config.offline.n_gen = 3;
        let h = Harness::new(config);
        let machine = h.gpu();
        let first = h.library(&machine, TemplateKind::Gemm);
        let second = h.library(&machine, TemplateKind::Gemm);
        assert_eq!(first, second);
    }
}
