//! Crash-injection harness for the durable warm-state format.
//!
//! The recovery contract (`mikpoly::persist` + `mikpoly::recovery`) makes
//! two promises about arbitrary on-disk damage:
//!
//! 1. **The loader never panics** — not on truncation, not on bit flips,
//!    not on attacker-shaped garbage, not on a record whose checksums
//!    pass but whose operator is malformed. Damage is a value
//!    ([`mikpoly::SalvagedBundle`], [`mikpoly::RestoreReport`]), never a
//!    crash.
//! 2. **Salvage is exact** — truncating a bundle at *any* byte offset
//!    recovers precisely the records whose bytes (payload + CRC) lie
//!    entirely before the cut: the longest valid prefix, nothing more,
//!    nothing less.
//!
//! This module proves both by brute force: it encodes a real bundle from
//! freshly compiled programs, then truncates it at **every** byte offset,
//! flips seeded random bits, and feeds seeded arbitrary bytes through the
//! strict and salvage decoders under `catch_unwind`. The
//! [`record_end_offsets`] index is the oracle for promise 2. A quarter of
//! the blobs are well-formed bundles holding one hostile record (valid
//! checksums, an operator no `tensor_ir` constructor would build); those
//! go through the loaders themselves — `MikPoly::load_program_cache_bytes`
//! and `Engine::restore_program_caches` of a committed generation — which
//! must reject them.
//!
//! `scripts/ci.sh` runs this via `conformance crash --seed N`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mikpoly::{
    crc32, decode_bundle, encode_bundle, record_end_offsets, salvage_bundle, CompiledProgram,
    Manifest,
};
use tensor_ir::{Conv2dShape, DType, GemmShape, Operator};

use crate::rng::XorShift64;
use crate::{ConformanceEnv, MachineKind};

/// Tuning knobs of one crash-matrix run. Every stage is deterministic
/// under [`CrashConfig::seed`].
#[derive(Debug, Clone, Copy)]
pub struct CrashConfig {
    /// Seed for the bit-flip positions and the fuzz blobs.
    pub seed: u64,
    /// Distinct programs encoded into the probe bundle.
    pub programs: usize,
    /// Single-bit-flip trials against the bundle.
    pub flips: usize,
    /// Arbitrary-bytes decoder trials.
    pub fuzz_blobs: usize,
}

impl Default for CrashConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            programs: 3,
            flips: 256,
            fuzz_blobs: 256,
        }
    }
}

/// What one crash-matrix run covered, and every contract violation it
/// found. An empty [`CrashReport::violations`] is the pass condition.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Truncation offsets swept.
    pub truncations: usize,
    /// Bit-flip trials run.
    pub flips: usize,
    /// Arbitrary-bytes trials run.
    pub fuzz_blobs: usize,
    /// Human-readable contract violations; empty means the durable
    /// format kept both promises.
    pub violations: Vec<String>,
}

impl CrashReport {
    /// Whether every trial upheld the recovery contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compiles `count` distinct small GEMMs on the shared environment —
/// real programs, so the probe bundle has realistic record sizes.
fn probe_programs(env: &ConformanceEnv, count: usize) -> Vec<CompiledProgram> {
    let compiler = env.engine(MachineKind::Gpu).gemm_compiler();
    (0..count)
        .map(|i| {
            let m = 32 + 32 * i;
            let op = Operator::gemm(GemmShape::new(m, 64, 64));
            compiler.compile(&op).as_ref().clone()
        })
        .collect()
}

/// Runs `f` under `catch_unwind`, mapping a panic to a violation string.
fn no_panic<T>(context: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| format!("{context}: PANICKED: {}", mikpoly::panic_reason(&*payload)))
}

/// Truncates `bytes` at every offset and checks the salvage contract:
/// the salvaged count must equal the exact valid prefix that the
/// record-end oracle `ends` predicts.
fn truncation_sweep(bytes: &[u8], ends: &[usize], report: &mut CrashReport) {
    for cut in 0..=bytes.len() {
        report.truncations += 1;
        let salvage = match no_panic(&format!("bundle truncated at {cut}"), || {
            salvage_bundle(&bytes[..cut])
        }) {
            Ok(salvage) => salvage,
            Err(violation) => {
                report.violations.push(violation);
                continue;
            }
        };
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        if salvage.programs.len() != expected {
            report.violations.push(format!(
                "bundle truncated at {cut}: salvaged {} records, expected the exact \
                 valid prefix of {expected}",
                salvage.programs.len()
            ));
        }
        if cut == bytes.len() && !salvage.clean {
            report
                .violations
                .push("the undamaged bundle did not decode clean".to_string());
        }
    }
}

/// Flips one random bit per trial and checks that the strict decoder
/// rejects the damage (CRC32 detects every single-bit flip) while the
/// salvage path stays panic-free.
fn bit_flip_trials(bytes: &[u8], config: &CrashConfig, report: &mut CrashReport) {
    let mut rng = XorShift64::new(config.seed ^ 0xf11b);
    for trial in 0..config.flips {
        report.flips += 1;
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = (rng.next_u64() % 8) as u8;
        let mut damaged = bytes.to_vec();
        damaged[pos] ^= 1 << bit;
        let context = format!("bit flip #{trial} at byte {pos} bit {bit}");
        match no_panic(&context, || decode_bundle(&damaged)) {
            Ok(Ok(_)) => report.violations.push(format!(
                "{context}: strict decode ACCEPTED checksummed damage"
            )),
            Ok(Err(_)) => {}
            Err(violation) => report.violations.push(violation),
        }
        if let Err(violation) = no_panic(&context, || salvage_bundle(&damaged)) {
            report.violations.push(violation);
        }
    }
}

/// An operator no `tensor_ir` constructor would build, one per rule the
/// decoder must enforce: zero extent, zero stride, filter larger than the
/// padded input, Winograd off its 3x3 stride-1 domain, and a GEMM view
/// that overflows `usize`.
fn hostile_operator(pick: u64) -> Operator {
    let gemm = GemmShape::new(64, 64, 64);
    let conv = Conv2dShape::new(1, 16, 14, 14, 16, 3, 3, 1, 1);
    let dtype = DType::F16;
    match pick % 6 {
        0 => Operator::Conv2d {
            shape: Conv2dShape { stride: 0, ..conv },
            dtype,
        },
        1 => Operator::BatchedGemm {
            batch: 0,
            shape: gemm,
            dtype,
        },
        2 => Operator::Gemm {
            shape: GemmShape { k: 0, ..gemm },
            dtype,
        },
        3 => Operator::Conv2d {
            shape: Conv2dShape {
                kernel_h: 17,
                ..conv
            },
            dtype,
        },
        4 => Operator::Conv2dWinograd {
            shape: Conv2dShape { stride: 2, ..conv },
            dtype,
        },
        _ => Operator::BatchedGemm {
            batch: usize::MAX,
            shape: gemm,
            dtype,
        },
    }
}

/// Feeds a bundle whose checksums pass but whose one record carries a
/// hostile operator through both loaders: the strict in-memory load and
/// the restore of a committed generation must each reject it, without a
/// panic and without adopting anything.
fn hostile_record_trial(
    env: &ConformanceEnv,
    base: &CompiledProgram,
    trial: usize,
    operator: Operator,
    report: &mut CrashReport,
) {
    let context = &format!("hostile record #{trial} ({operator:?})");
    let mut program = base.clone();
    program.operator = operator;
    let bundle = encode_bundle([&program]);
    let engine = env.engine(MachineKind::Gpu);
    match no_panic(context, || {
        engine.gemm_compiler().load_program_cache_bytes(&bundle)
    }) {
        Ok(Ok(n)) => report
            .violations
            .push(format!("{context}: the loader ACCEPTED {n} program(s)")),
        Ok(Err(_)) => {}
        Err(violation) => report.violations.push(violation),
    }
    let dir = std::env::temp_dir().join(format!(
        "mikpoly-crash-hostile-{}-{trial}",
        std::process::id()
    ));
    let restored = no_panic(context, || -> std::io::Result<_> {
        std::fs::create_dir_all(&dir)?;
        let name = "gemm.mpac.1";
        std::fs::write(dir.join(name), &bundle)?;
        Manifest {
            generation: 1,
            bundles: vec![(name.to_string(), bundle.len() as u64, crc32(&bundle))],
        }
        .commit(&dir)?;
        Ok(engine.restore_program_caches(&dir))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match restored {
        Ok(Ok(restore)) if restore.degraded() && restore.restored() == 0 => {}
        Ok(Ok(restore)) => report.violations.push(format!(
            "{context}: restore did not quarantine the bundle:\n{restore}"
        )),
        Ok(Err(e)) => report
            .violations
            .push(format!("{context}: staging the generation failed: {e}")),
        Err(violation) => report.violations.push(violation),
    }
}

/// Feeds seeded arbitrary bytes to both decoders. Half the blobs carry a
/// valid-looking `MPAC` header so the deeper decode paths get exercised;
/// a quarter are hostile-record bundles fed through the loaders.
fn fuzz_blob_trials(
    env: &ConformanceEnv,
    base: &CompiledProgram,
    config: &CrashConfig,
    report: &mut CrashReport,
) {
    let mut rng = XorShift64::new(config.seed ^ 0xb10b);
    for trial in 0..config.fuzz_blobs {
        report.fuzz_blobs += 1;
        let len = (rng.next_u64() % 512) as usize;
        let mut blob: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        match trial % 4 {
            // Plausible header over garbage: magic + the current or a
            // retired version.
            0 | 1 if blob.len() >= 8 => {
                blob[..4].copy_from_slice(b"MPAC");
                let version = if trial % 4 == 0 { 3u32 } else { 2u32 };
                blob[4..8].copy_from_slice(&version.to_le_bytes());
            }
            2 => {
                let operator = hostile_operator(rng.next_u64());
                hostile_record_trial(env, base, trial, operator, report);
                continue;
            }
            _ => {}
        }
        let context = format!("fuzz blob #{trial} ({len} bytes)");
        if let Err(violation) = no_panic(&context, || {
            let _ = decode_bundle(&blob);
            let _ = salvage_bundle(&blob);
            let _ = record_end_offsets(&blob);
        }) {
            report.violations.push(violation);
        }
    }
}

/// Runs the full crash matrix: the every-offset truncation sweep
/// (exact-prefix oracle), the single-bit flip trials, and the
/// arbitrary-bytes and hostile-record trials.
pub fn crash_run(env: &ConformanceEnv, config: &CrashConfig) -> CrashReport {
    let mut report = CrashReport::default();
    let programs = probe_programs(env, config.programs.max(1));
    let bundle = encode_bundle(programs.iter());
    match record_end_offsets(&bundle) {
        Ok(ends) => truncation_sweep(&bundle, &ends, &mut report),
        Err(e) => report
            .violations
            .push(format!("record_end_offsets rejected a fresh bundle: {e}")),
    }
    bit_flip_trials(&bundle, config, &mut report);
    fuzz_blob_trials(env, &programs[0], config, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_matrix_holds_on_a_fresh_bundle() {
        let env = ConformanceEnv::fast();
        let config = CrashConfig {
            flips: 64,
            fuzz_blobs: 64,
            ..CrashConfig::default()
        };
        let report = crash_run(&env, &config);
        assert!(
            report.passed(),
            "crash-matrix violations:\n{}",
            report.violations.join("\n")
        );
        assert!(report.truncations > 0);
        assert_eq!(report.flips, 64);
        assert_eq!(report.fuzz_blobs, 64);
    }
}
