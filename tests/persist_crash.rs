//! Crash-consistency suite for the durable warm state.
//!
//! The recovery contract under test, end to end through the public API:
//!
//! * saves are **atomic generation commits** — a directory always holds
//!   one complete committed generation plus quarantine evidence, never a
//!   mix of old and new bundles, and never a stray temp file;
//! * truncation at **any** byte offset salvages exactly the records
//!   whose bytes lie entirely before the cut;
//! * any single-bit flip is rejected by the strict (checksummed)
//!   decoder;
//! * a swapped-in bundle that is internally valid but not the committed
//!   one is damage, not data — quarantined, never silently adopted;
//! * a bundle of a retired format version is rejected, not decoded.

use std::sync::{Arc, OnceLock};

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::{
    crc32, decode_bundle, encode_bundle, record_end_offsets, salvage_bundle, Engine, Manifest,
    MicroKernel, MicroKernelId, OfflineOptions, RestoreOutcome,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

/// One tuned engine with three warm gemm programs, shared read-only by
/// every test (offline tuning is the expensive part).
fn shared_engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let engine = Arc::new(Engine::offline(MachineModel::a100(), &offline()));
        for shape in [
            GemmShape::new(256, 256, 256),
            GemmShape::new(320, 192, 128),
            GemmShape::new(64, 64, 64),
        ] {
            engine.run_operator(&Operator::gemm(shape));
        }
        engine
    }))
}

fn offline() -> OfflineOptions {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    o
}

/// A cold engine on the same (deterministically tuned) library, for
/// restore targets.
fn fresh_engine() -> Engine {
    Engine::offline(MachineModel::a100(), &offline())
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mikpoly-persist-crash-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn truncation_at_every_offset_salvages_the_exact_prefix() {
    let engine = shared_engine();
    let bundle = engine.gemm_compiler().encode_program_cache();
    let ends = record_end_offsets(&bundle).expect("fresh bundle indexes");
    assert_eq!(ends.len(), 3, "three warm programs, three records");
    for cut in 0..=bundle.len() {
        let salvage = salvage_bundle(&bundle[..cut]);
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            salvage.programs.len(),
            expected,
            "cut at {cut}: salvage must recover the exact valid prefix"
        );
        assert_eq!(
            salvage.clean,
            cut == bundle.len(),
            "only the untruncated bundle is clean (cut {cut})"
        );
    }
}

#[test]
fn previous_format_is_rejected_and_bit_flips_never_pass_strict_decode() {
    let engine = shared_engine();
    let v3 = engine.gemm_compiler().encode_program_cache();
    // A retired format version is rejected by both loaders, never
    // decoded: the restore ladder quarantines it and the compiler starts
    // cold.
    let mut v2 = v3.clone();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    let err = decode_bundle(&v2).expect_err("v2 is not read");
    assert!(
        err.to_string().contains("unsupported bundle version 2"),
        "{err}"
    );
    assert!(salvage_bundle(&v2).programs.is_empty());
    assert!(fresh_engine()
        .gemm_compiler()
        .load_program_cache_bytes(&v2)
        .is_err());
    // Any single-bit flip anywhere in the checksummed format is caught
    // by the strict decoder, and salvage stays panic-free on it.
    for pos in (0..v3.len()).step_by(97) {
        for bit in [0u8, 3, 7] {
            let mut damaged = v3.clone();
            damaged[pos] ^= 1 << bit;
            assert!(
                decode_bundle(&damaged).is_err(),
                "flip at byte {pos} bit {bit} went undetected"
            );
            let _ = salvage_bundle(&damaged);
        }
    }
}

#[test]
fn generation_commits_restore_clean_and_reclaim_superseded_files() {
    let engine = shared_engine();
    let dir = scratch("gen");
    let g1 = engine.save_program_caches(&dir).expect("gen 1");
    let g2 = engine.save_program_caches(&dir).expect("gen 2");
    assert_eq!((g1, g2), (1, 2));
    assert!(
        !dir.join("gemm.mpac.1").exists(),
        "superseded generation was not reclaimed"
    );
    assert!(dir.join("gemm.mpac.2").exists());
    // The atomic write protocol leaves no temp files behind.
    for entry in std::fs::read_dir(&dir).expect("readdir") {
        let name = entry.expect("entry").file_name();
        assert!(
            !name.to_string_lossy().contains(".tmp."),
            "stray temp file {name:?}"
        );
    }
    let fresh = fresh_engine();
    let restore = fresh.restore_program_caches(&dir);
    assert!(restore.clean(), "{restore}");
    assert_eq!(restore.generation, Some(2));
    assert_eq!(restore.restored(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_swapped_bundle_never_mixes_generations() {
    let engine = shared_engine();
    let dir = scratch("swap");
    engine.save_program_caches(&dir).expect("gen 1");
    let gen1_gemm = std::fs::read(dir.join("gemm.mpac.1")).expect("read gen 1");
    engine.save_program_caches(&dir).expect("gen 2");
    // Plant an internally-valid bundle (every checksum passes) that is
    // *not* the committed generation-2 content: a shorter re-encode.
    let programs = decode_bundle(&gen1_gemm).expect("decode gen 1");
    let forged = encode_bundle(programs.iter().take(2));
    std::fs::write(dir.join("gemm.mpac.2"), &forged).expect("plant forged bundle");

    let fresh = fresh_engine();
    let restore = fresh.restore_program_caches(&dir);
    assert!(
        restore.degraded(),
        "a bundle that disagrees with the manifest must be damage: {restore}"
    );
    let gemm = restore
        .bundles
        .iter()
        .find(|b| b.bundle == "gemm")
        .expect("gemm entry");
    assert!(
        matches!(
            gemm.outcome,
            RestoreOutcome::Salvaged | RestoreOutcome::Quarantined
        ),
        "{restore}"
    );
    assert!(
        gemm.quarantined_to.as_ref().is_some_and(|p| p.exists()),
        "the evidence must be quarantined, not deleted: {restore}"
    );
    let conv = restore
        .bundles
        .iter()
        .find(|b| b.bundle == "conv")
        .expect("conv entry");
    assert!(
        matches!(conv.outcome, RestoreOutcome::Clean),
        "the untouched bundle stays clean: {restore}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `bytes` as `gemm.mpac.1` and commits a generation-1 manifest
/// that records `(len, crc)` for it.
fn commit_gemm(dir: &std::path::Path, bytes: &[u8], len: u64, crc: u32) -> std::path::PathBuf {
    let name = "gemm.mpac.1";
    std::fs::write(dir.join(name), bytes).expect("write bundle");
    Manifest {
        generation: 1,
        bundles: vec![(name.to_string(), len, crc)],
    }
    .commit(dir)
    .expect("commit manifest");
    dir.join(name)
}

#[test]
fn an_intact_bundle_the_manifest_disagrees_with_salvages_every_program() {
    let bundle = shared_engine().gemm_compiler().encode_program_cache();
    let (len, crc) = (bundle.len() as u64, crc32(&bundle));
    for (tag, len, crc) in [("length", len + 1, crc), ("crc", len, crc ^ 1)] {
        let dir = scratch(&format!("mismatch-{tag}"));
        let path = commit_gemm(&dir, &bundle, len, crc);
        let restore = fresh_engine().restore_program_caches(&dir);
        let gemm = &restore.bundles[0];
        assert_eq!(gemm.outcome, RestoreOutcome::Salvaged, "{tag}: {restore}");
        assert_eq!((gemm.restored, gemm.claimed), (3, Some(3)), "{tag}");
        assert_eq!(
            gemm.detail.as_deref(),
            Some("bundle does not match the committed manifest (length or checksum)"),
            "{tag}"
        );
        assert!(!path.exists(), "{tag}: the file must be moved aside");
        assert!(gemm.quarantined_to.as_ref().is_some_and(|q| q.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_foreign_kernel_in_record_i_restores_exactly_the_records_before_it() {
    let bundle = shared_engine().gemm_compiler().encode_program_cache();
    let programs = decode_bundle(&bundle).expect("decode");
    let foreign = MicroKernel::new(MicroKernelId(1 << 40), 16, 16, 16, 4);
    for i in 0..programs.len() {
        let mut damaged = programs.clone();
        for region in &mut damaged[i].regions {
            region.kernel = foreign;
        }
        let forged = encode_bundle(&damaged);
        assert_eq!(decode_bundle(&forged).expect("decodes clean"), damaged);
        let dir = scratch(&format!("foreign-{i}"));
        commit_gemm(&dir, &forged, forged.len() as u64, crc32(&forged));
        let fresh = fresh_engine();
        let restore = fresh.restore_program_caches(&dir);
        let gemm = &restore.bundles[0];
        let expected = if i == 0 {
            RestoreOutcome::Quarantined
        } else {
            RestoreOutcome::Salvaged
        };
        assert_eq!(gemm.outcome, expected, "record {i}: {restore}");
        assert_eq!(gemm.restored, i, "record {i}");
        assert_eq!(gemm.claimed, Some(programs.len() as u64));
        assert_eq!(
            gemm.detail,
            Some(format!(
                "program for {} references {foreign} absent from this library",
                damaged[i].operator
            )),
            "record {i}"
        );
        for (j, program) in programs.iter().enumerate() {
            let warm = fresh.gemm_compiler().run(&program.operator).compile_ns == 0;
            assert_eq!(warm, j < i, "record {i}: program {j} warm = {warm}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
