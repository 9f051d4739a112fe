//! Crash-consistent restore of durable warm state.
//!
//! [`crate::persist`] makes a *single* bundle file atomic and
//! checksummed; this module makes a *directory* of bundles crash-safe
//! and a damaged directory recoverable:
//!
//! * **Generation manifest**: a multi-bundle save writes each bundle
//!   under a generation-numbered name (`gemm.mpac.7`), fsyncs them, then
//!   atomically renames a [`Manifest`] file carrying the generation
//!   number plus every bundle's length and CRC32. Readers trust only the
//!   manifest, so a crash between bundle writes can never mix
//!   generations — the directory is always exactly the last committed
//!   generation, or cold before the first commit.
//! * **Salvage and quarantine**: a bundle that fails its checksums is
//!   recovered up to its longest valid record prefix
//!   ([`crate::persist::salvage_bundle`]) and the damaged file is moved
//!   into a `quarantine/` subdirectory — never deleted — so the evidence
//!   survives for a post-mortem.
//! * **Typed outcomes**: every restore produces a [`RestoreReport`]
//!   distinguishing clean, salvaged, quarantined, and absent per bundle,
//!   exportable as `cache.restore.*` telemetry — "no warm state" and
//!   "the warm state was damaged" are different answers, not both `0`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::path::{Path, PathBuf};

use mikpoly_telemetry::Registry;

use crate::persist::{crc32, write_bytes_atomic};

/// File name of the generation manifest inside a bundle directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Subdirectory damaged files are moved into (never deleted).
pub const QUARANTINE_DIR: &str = "quarantine";

/// First line of every manifest file.
const MANIFEST_HEADER: &str = "MPAC-MANIFEST v1";

/// The committed state of a bundle directory: one generation of bundle
/// files with their sizes and checksums.
///
/// Rendered as a small hand-parsed text file with a trailing self-CRC,
/// flipped into place atomically — the manifest *is* the commit point of
/// a multi-bundle save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic save generation; each successful save increments it.
    pub generation: u64,
    /// `(file name, byte length, crc32)` for every bundle in the
    /// generation, in save order.
    pub bundles: Vec<(String, u64, u32)>,
}

impl Manifest {
    /// Serializes the manifest, self-CRC line included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        for (name, len, crc) in &self.bundles {
            out.push_str(&format!("bundle {name} {len} {crc:08x}\n"));
        }
        out.push_str(&format!("crc {:08x}\n", crc32(out.as_bytes())));
        out
    }

    /// Parses a manifest, verifying the trailing self-CRC.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] on any malformed line, an
    /// unknown header, or a self-CRC mismatch.
    pub fn parse(text: &str) -> io::Result<Self> {
        let bad =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {msg}"));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad("unknown header"));
        }
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad("missing or malformed generation line"))?;
        let mut bundles = Vec::new();
        let mut stored_crc = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("bundle ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().ok_or_else(|| bad("bundle line: name"))?;
                // Manifest names are plain file names inside the bundle
                // directory; a path separator would escape it.
                if name.contains('/') || name.contains('\\') || name == ".." {
                    return Err(bad("bundle name is not a plain file name"));
                }
                let len = parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| bad("bundle line: length"))?;
                let crc = parts
                    .next()
                    .and_then(|v| u32::from_str_radix(v, 16).ok())
                    .ok_or_else(|| bad("bundle line: crc"))?;
                if parts.next().is_some() {
                    return Err(bad("bundle line: trailing fields"));
                }
                bundles.push((name.to_string(), len, crc));
            } else if let Some(rest) = line.strip_prefix("crc ") {
                stored_crc = Some(
                    u32::from_str_radix(rest.trim(), 16).map_err(|_| bad("crc line: malformed"))?,
                );
                break;
            } else {
                return Err(bad("unrecognized line"));
            }
        }
        let stored = stored_crc.ok_or_else(|| bad("missing self-crc line"))?;
        let covered = text
            .rfind("\ncrc ")
            .map(|i| i + 1)
            .ok_or_else(|| bad("missing self-crc line"))?;
        if crc32(&text.as_bytes()[..covered]) != stored {
            return Err(bad("self-crc mismatch"));
        }
        Ok(Self {
            generation,
            bundles,
        })
    }

    /// Writes the manifest atomically into `dir` — the commit point.
    ///
    /// # Errors
    ///
    /// Any I/O error from the atomic write protocol.
    pub fn commit(&self, dir: &Path) -> io::Result<()> {
        write_bytes_atomic(&dir.join(MANIFEST_NAME), self.render().as_bytes())
    }

    /// Reads and verifies the manifest in `dir`, if one exists.
    ///
    /// # Errors
    ///
    /// `Ok(None)` when absent; [`std::io::ErrorKind::InvalidData`] when
    /// present but damaged (callers quarantine it and start cold).
    pub fn read(dir: &Path) -> io::Result<Option<Self>> {
        let path = dir.join(MANIFEST_NAME);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::parse(&text).map(Some)
    }
}

/// Moves `path` into the `quarantine/` subdirectory beside it, choosing
/// a non-colliding name. The file is renamed, never deleted — corrupt
/// state is evidence.
///
/// # Errors
///
/// Any I/O error from creating the quarantine directory or renaming.
pub fn quarantine_file(path: &Path) -> io::Result<PathBuf> {
    let dir = path
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    for attempt in 0u32.. {
        let candidate = if attempt == 0 {
            qdir.join(&name)
        } else {
            qdir.join(format!("{name}.{attempt}"))
        };
        if candidate.exists() {
            continue;
        }
        std::fs::rename(path, &candidate)?;
        return Ok(candidate);
    }
    unreachable!("u32 attempt counter exhausted")
}

/// How one bundle came back from a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Every checksum verified; the full bundle loaded.
    Clean,
    /// The bundle was damaged; its longest valid record prefix loaded
    /// and the damaged file was quarantined.
    Salvaged,
    /// The bundle was damaged beyond salvage (or failed validation
    /// against this library); nothing loaded, the file was quarantined.
    Quarantined,
    /// No bundle existed — a cold start, not a failure.
    Absent,
}

impl RestoreOutcome {
    /// Stable lowercase label, used as the `cache.restore.*` suffix.
    pub fn label(self) -> &'static str {
        match self {
            RestoreOutcome::Clean => "clean",
            RestoreOutcome::Salvaged => "salvaged",
            RestoreOutcome::Quarantined => "quarantined",
            RestoreOutcome::Absent => "absent",
        }
    }
}

/// The restore story of one bundle file.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleRestore {
    /// Logical bundle name (`gemm`, `conv`).
    pub bundle: String,
    /// What happened.
    pub outcome: RestoreOutcome,
    /// Programs actually loaded into the cache.
    pub restored: usize,
    /// Records the bundle claimed to hold, when its header was readable.
    pub claimed: Option<u64>,
    /// Where the damaged file was moved, for salvaged/quarantined.
    pub quarantined_to: Option<PathBuf>,
    /// The first damage found, when not clean.
    pub detail: Option<String>,
}

impl BundleRestore {
    /// No file for `bundle`: the cold-start outcome every restore begins at.
    pub(crate) fn absent(bundle: &str) -> Self {
        Self {
            bundle: bundle.to_string(),
            outcome: RestoreOutcome::Absent,
            restored: 0,
            claimed: None,
            quarantined_to: None,
            detail: None,
        }
    }
}

/// The typed result of [`crate::Engine::restore_program_caches`]:
/// per-bundle outcomes plus the committed generation that was read.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RestoreReport {
    /// One entry per bundle the restore looked for.
    pub bundles: Vec<BundleRestore>,
    /// The manifest generation the restore read, when one was committed.
    pub generation: Option<u64>,
}

impl RestoreReport {
    /// Total programs loaded across all bundles.
    pub fn restored(&self) -> usize {
        self.bundles.iter().map(|b| b.restored).sum()
    }

    /// Whether any bundle lost data (salvaged or quarantined).
    pub fn degraded(&self) -> bool {
        self.bundles.iter().any(|b| {
            matches!(
                b.outcome,
                RestoreOutcome::Salvaged | RestoreOutcome::Quarantined
            )
        })
    }

    /// Whether every bundle that existed restored clean.
    pub fn clean(&self) -> bool {
        !self.degraded()
    }

    /// Exports the report as `cache.restore.*` counters: one increment
    /// per bundle outcome, plus the total programs restored.
    pub fn export_to(&self, registry: &Registry) {
        registry.describe(
            "cache.restore.clean",
            "Warm-state bundles restored with every checksum verified",
        );
        registry.describe(
            "cache.restore.salvaged",
            "Damaged bundles restored up to their longest valid record prefix",
        );
        registry.describe(
            "cache.restore.quarantined",
            "Bundles damaged beyond salvage, moved aside with nothing loaded",
        );
        registry.describe(
            "cache.restore.absent",
            "Bundle slots with no file on disk (cold start)",
        );
        registry.describe(
            "cache.restore.programs",
            "Compiled programs loaded from durable warm state",
        );
        for bundle in &self.bundles {
            registry
                .counter(&format!("cache.restore.{}", bundle.outcome.label()))
                .inc();
        }
        registry
            .counter("cache.restore.programs")
            .add(self.restored() as u64);
    }
}

impl std::fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.generation {
            Some(generation) => writeln!(f, "restore: generation {generation}")?,
            None => writeln!(f, "restore: no committed generation (cold directory)")?,
        }
        for b in &self.bundles {
            write!(
                f,
                "  {:<6} {:<11} {} programs",
                b.bundle,
                b.outcome.label(),
                b.restored
            )?;
            if let Some(claimed) = b.claimed {
                if claimed as usize != b.restored {
                    write!(f, " of {claimed} claimed")?;
                }
            }
            if let Some(q) = &b.quarantined_to {
                write!(f, " (damaged file -> {})", q.display())?;
            }
            if let Some(d) = &b.detail {
                write!(f, " [{d}]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn manifest_round_trips_and_verifies() {
        let m = Manifest {
            generation: 12,
            bundles: vec![
                ("gemm.mpac.12".to_string(), 4096, 0xDEAD_BEEF),
                ("conv.mpac.12".to_string(), 128, 0x0000_0001),
            ],
        };
        let text = m.render();
        assert_eq!(Manifest::parse(&text).expect("round trip"), m);
    }

    #[test]
    fn manifest_rejects_tampering() {
        let m = Manifest {
            generation: 3,
            bundles: vec![("gemm.mpac.3".to_string(), 64, 7)],
        };
        let text = m.render();
        // Flip the generation digit without fixing the self-CRC.
        let tampered = text.replace("generation 3", "generation 4");
        assert!(Manifest::parse(&tampered).is_err());
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("MPAC-MANIFEST v1\n").is_err());
        // A path-escaping bundle name must be rejected even if checksummed.
        let evil = Manifest {
            generation: 1,
            bundles: vec![("../escape".to_string(), 1, 1)],
        };
        assert!(Manifest::parse(&evil.render()).is_err());
    }

    #[test]
    fn manifest_commit_and_read() {
        let dir = std::env::temp_dir().join(format!("mpac-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert_eq!(Manifest::read(&dir).expect("absent is Ok(None)"), None);
        let m = Manifest {
            generation: 1,
            bundles: vec![("gemm.mpac.1".to_string(), 10, 2)],
        };
        m.commit(&dir).expect("commit");
        assert_eq!(Manifest::read(&dir).expect("read back"), Some(m));
        // A damaged manifest is an error, not a silent None.
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage").expect("overwrite");
        assert!(Manifest::read(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_without_deleting() {
        let dir = std::env::temp_dir().join(format!("mpac-quarantine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let victim = dir.join("gemm.mpac");
        std::fs::write(&victim, b"damaged").expect("write");
        let moved = quarantine_file(&victim).expect("quarantine");
        assert!(!victim.exists());
        assert_eq!(std::fs::read(&moved).expect("survives"), b"damaged");
        // A second quarantine of the same name must not overwrite.
        std::fs::write(&victim, b"also damaged").expect("write again");
        let moved2 = quarantine_file(&victim).expect("quarantine again");
        assert_ne!(moved, moved2);
        assert_eq!(std::fs::read(&moved).expect("first intact"), b"damaged");
        assert_eq!(
            std::fs::read(&moved2).expect("second intact"),
            b"also damaged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcomes_have_stable_labels() {
        for (outcome, label) in [
            (RestoreOutcome::Clean, "clean"),
            (RestoreOutcome::Salvaged, "salvaged"),
            (RestoreOutcome::Quarantined, "quarantined"),
            (RestoreOutcome::Absent, "absent"),
        ] {
            assert_eq!(outcome.label(), label);
        }
    }
}
