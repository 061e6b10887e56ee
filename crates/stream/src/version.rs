//! Versioned checkpoint directory.
//!
//! Layout under a root directory:
//!
//! ```text
//! root/
//!   CURRENT          — "v0002\n", flipped atomically (temp + fsync + rename)
//!   v0001/
//!     model.ssdt     — published parameters (best snapshot; byte-deterministic)
//!     state.sstc     — full training state for the next warm start
//!     meta           — text metadata (see VersionMeta)
//!   v0002/ …
//!   work/            — in-flight retrain scratch; removed after publish
//!     state.sstc
//!     meta
//! ```
//!
//! Publish ordering: the new `vN/` directory is written completely (each file
//! through [`ssdrec_base::atomic_file`]: temp file, fsync, rename), then
//! `CURRENT` is flipped, then `work/` is removed. A crash or power loss at
//! any point leaves either the old version fully current or the new one —
//! readers following `CURRENT` never observe a partial version. All atomic
//! writes here share the `stream.publish` fault site.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ssdrec_base::atomic_file::atomic_write;
use ssdrec_models::BackboneKind;

/// Fault site guarding every atomic write in the publish path.
pub const PUBLISH_SITE: &str = "stream.publish";

/// Model architecture pinned by a checkpoint directory.
///
/// Warm starts and serve-side reloads rebuild the exact same parameter
/// shapes from these four knobs plus the log's fixed catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchSpec {
    /// Backbone encoder.
    pub backbone: BackboneKind,
    /// Embedding width.
    pub dim: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Model init / training seed.
    pub seed: u64,
}

/// Training knobs for one retrain round (a warm-started full retrain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainSpec {
    /// Architecture (must match the base version when warm-starting).
    pub arch: ArchSpec,
    /// Epochs per retrain round, over the whole log.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Checkpoint every N epochs during the round.
    pub checkpoint_every: usize,
}

/// Metadata stored beside each published version (and in `work/` while a
/// round is in flight, where `version` is the round's *target* version).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionMeta {
    /// Version number (1-based).
    pub version: u64,
    /// Log byte offset this version consumed up to.
    pub consumed: u64,
    /// Record count at `consumed` (informational).
    pub records: u64,
    /// Architecture + training knobs used for the round.
    pub spec: RetrainSpec,
}

impl VersionMeta {
    fn to_text(&self) -> String {
        let s = &self.spec;
        format!(
            "ssdrec-stream-meta 1\n\
             version {}\n\
             consumed {}\n\
             records {}\n\
             backbone {}\n\
             dim {}\n\
             max_len {}\n\
             seed {}\n\
             epochs {}\n\
             batch_size {}\n\
             lr_bits {:08x}\n\
             weight_decay_bits {:08x}\n\
             checkpoint_every {}\n",
            self.version,
            self.consumed,
            self.records,
            s.arch.backbone.name(),
            s.arch.dim,
            s.arch.max_len,
            s.arch.seed,
            s.epochs,
            s.batch_size,
            s.lr.to_bits(),
            s.weight_decay.to_bits(),
            s.checkpoint_every,
        )
    }

    fn from_text(text: &str) -> Result<VersionMeta, String> {
        let get = |key: &str| -> Result<String, String> {
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.trim().to_string())
                .ok_or_else(|| format!("meta file is missing key {key:?}"))
        };
        let tag = get("ssdrec-stream-meta")?;
        if tag != "1" {
            return Err(format!("unsupported meta version {tag:?}"));
        }
        let parse_u64 = |key: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("meta key {key}: bad integer {v:?}"))
        };
        let backbone_name = get("backbone")?;
        let backbone = BackboneKind::by_name(&backbone_name)
            .ok_or_else(|| format!("meta key backbone: unknown backbone {backbone_name:?}"))?;
        let u = |key: &str| -> Result<u64, String> { parse_u64(key, &get(key)?) };
        let bits = |key: &str| -> Result<f32, String> {
            let v = get(key)?;
            u32::from_str_radix(&v, 16)
                .map(f32::from_bits)
                .map_err(|_| format!("meta key {key}: bad hex bits {v:?}"))
        };
        Ok(VersionMeta {
            version: u("version")?,
            consumed: u("consumed")?,
            records: u("records")?,
            spec: RetrainSpec {
                arch: ArchSpec {
                    backbone,
                    dim: u("dim")? as usize,
                    max_len: u("max_len")? as usize,
                    seed: u("seed")?,
                },
                epochs: u("epochs")? as usize,
                batch_size: u("batch_size")? as usize,
                lr: bits("lr_bits")?,
                weight_decay: bits("weight_decay_bits")?,
                checkpoint_every: u("checkpoint_every")? as usize,
            },
        })
    }
}

impl fmt::Display for VersionMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "v{:04} ({} records @ offset {}, {} dim {} max_len {})",
            self.version,
            self.records,
            self.consumed,
            self.spec.arch.backbone.name(),
            self.spec.arch.dim,
            self.spec.arch.max_len,
        )
    }
}

/// Handle over a versioned checkpoint directory root.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

impl CheckpointDir {
    /// Wrap `root` (no I/O).
    pub fn new(root: impl Into<PathBuf>) -> CheckpointDir {
        CheckpointDir { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Create the root directory if missing.
    pub fn ensure(&self) -> io::Result<()> {
        fs::create_dir_all(&self.root)
    }

    /// Canonical directory name for version `v` (`v0001`, `v0002`, …).
    pub fn version_name(v: u64) -> String {
        format!("v{v:04}")
    }

    /// Directory of version `v`.
    pub fn version_dir(&self, v: u64) -> PathBuf {
        self.root.join(Self::version_name(v))
    }

    /// Published parameter file of version `v`.
    pub fn model_path(&self, v: u64) -> PathBuf {
        self.version_dir(v).join("model.ssdt")
    }

    /// Full training state of version `v`.
    pub fn state_path(&self, v: u64) -> PathBuf {
        self.version_dir(v).join("state.sstc")
    }

    /// Metadata file of version `v`.
    pub fn meta_path(&self, v: u64) -> PathBuf {
        self.version_dir(v).join("meta")
    }

    /// Scratch directory for an in-flight retrain round.
    pub fn work_dir(&self) -> PathBuf {
        self.root.join("work")
    }

    /// Scratch training state (the trainer's periodic checkpoint target).
    pub fn work_state_path(&self) -> PathBuf {
        self.work_dir().join("state.sstc")
    }

    /// Scratch metadata pinning the in-flight round's target.
    pub fn work_meta_path(&self) -> PathBuf {
        self.work_dir().join("meta")
    }

    /// Read the `CURRENT` pointer; `None` if no version has been published.
    pub fn current_version(&self) -> Result<Option<u64>, String> {
        let path = self.root.join("CURRENT");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let name = text.trim();
        let v: u64 = name
            .strip_prefix('v')
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("CURRENT contains {name:?}, expected vNNNN"))?;
        Ok(Some(v))
    }

    /// Atomically flip `CURRENT` to version `v` (fault site `stream.publish`).
    pub fn set_current(&self, v: u64) -> io::Result<()> {
        let name = Self::version_name(v);
        atomic_write(&self.root.join("CURRENT"), PUBLISH_SITE, |w| {
            writeln!(w, "{name}")
        })
    }

    /// Read and parse the metadata of version `v`.
    pub fn read_meta(&self, v: u64) -> Result<VersionMeta, String> {
        read_meta_file(&self.meta_path(v))
    }

    /// Read the in-flight round's metadata, if a `work/` round exists.
    pub fn read_work_meta(&self) -> Result<Option<VersionMeta>, String> {
        let path = self.work_meta_path();
        if !path.exists() {
            return Ok(None);
        }
        read_meta_file(&path).map(Some)
    }

    /// Atomically write `meta` to `path` (fault site `stream.publish`).
    pub fn write_meta(path: &Path, meta: &VersionMeta) -> io::Result<()> {
        let text = meta.to_text();
        atomic_write(path, PUBLISH_SITE, |w| w.write_all(text.as_bytes()))
    }
}

fn read_meta_file(path: &Path) -> Result<VersionMeta, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    VersionMeta::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> VersionMeta {
        VersionMeta {
            version: 3,
            consumed: 1234,
            records: 77,
            spec: RetrainSpec {
                arch: ArchSpec {
                    backbone: BackboneKind::SasRec,
                    dim: 8,
                    max_len: 12,
                    seed: 7,
                },
                epochs: 2,
                batch_size: 32,
                lr: 1e-3,
                weight_decay: 0.0,
                checkpoint_every: 1,
            },
        }
    }

    #[test]
    fn meta_text_roundtrip() {
        let m = meta();
        let back = VersionMeta::from_text(&m.to_text()).unwrap();
        assert_eq!(back, m);
        // Float knobs survive bit-exactly via hex bits.
        assert_eq!(back.spec.lr.to_bits(), m.spec.lr.to_bits());
    }

    #[test]
    fn meta_rejects_unknown_backbone() {
        let text = meta().to_text().replace("SASRec", "AlexNet");
        let err = VersionMeta::from_text(&text).unwrap_err();
        assert!(err.contains("unknown backbone"), "{err}");
    }

    #[test]
    fn current_pointer_roundtrip() {
        let dir = ssdrec_testkit::TempDir::new("ssdrec-cur");
        let cd = CheckpointDir::new(dir.path());
        cd.ensure().unwrap();
        assert_eq!(cd.current_version().unwrap(), None);
        cd.set_current(5).unwrap();
        assert_eq!(cd.current_version().unwrap(), Some(5));
    }
}
