//! The retrain driver and serve-side version loaders.
//!
//! A retrain round is a **warm-started full retrain**: it replays the whole
//! log from [`HEADER_LEN`] up to the round's pinned consumed offset,
//! rebuilds the split/graph/model skeleton over every user, warm-starts from
//! the base version's full training state (params, Adam moments, raw RNG
//! state), runs exactly `spec.epochs` epochs over all of it, publishes
//! `v(N+1)/`, and flips `CURRENT`. Nothing is trained on the new records
//! alone; `delta_records` only reports how many the round added. A round is
//! a deterministic function of `(log prefix, spec, base version)`. Because every input is pinned (the offset in the work
//! metadata, the knobs in the spec, the catalog in the log header), a round
//! killed at any point and re-run lands on byte-identical published
//! parameters — the chaos tests assert exactly that.
//!
//! Rounds never early-stop (patience is set past `epochs`):
//! resuming a run that had early-stopped would otherwise keep training past
//! the stop and diverge from an uninterrupted run.

use std::fs;
use std::io::Write;
use std::path::Path;

use ssdrec_base::atomic_file::atomic_write;
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{leave_one_out, truncate_to_max_len, Dataset, Interaction, Split};
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_models::{
    fit, load_train_state, CheckpointConfig, TrainConfig, TrainOptions, TrainReport,
};
use ssdrec_tensor::persist::{load_params, save_params};

use crate::log::{replay, LogHeader, StreamLog, HEADER_LEN, RECORD_LEN};
use crate::version::{CheckpointDir, RetrainSpec, VersionMeta, PUBLISH_SITE};

/// Leave-one-out minimum sequence length (matches the offline CLI pipeline).
pub const MIN_SEQ_LEN: usize = 3;
/// Training prefixes kept per user (matches the offline CLI pipeline).
pub const MAX_TRAIN_PREFIXES: usize = 3;

/// Result of [`retrain`].
#[derive(Debug)]
pub enum RetrainOutcome {
    /// The current version already covers the whole log; nothing to do.
    UpToDate {
        /// The already-current version.
        version: u64,
    },
    /// A new version was trained and published.
    Trained(TrainedVersion),
}

/// A freshly published version.
#[derive(Debug)]
pub struct TrainedVersion {
    /// The published version number.
    pub version: u64,
    /// Log offset the version consumed up to.
    pub consumed: u64,
    /// Records this round's prefix added over the base version's (0 for
    /// the first round). A report field only: the round trains on the
    /// whole prefix either way.
    pub delta_records: u64,
    /// Trainer report for the round.
    pub report: TrainReport,
}

/// Build the per-user dataset from a replayed event stream.
///
/// The catalog comes from the log header, so users with no events yet keep
/// empty sequences and every replay prefix shares one ID space.
pub fn materialize(header: LogHeader, events: &[Interaction]) -> Dataset {
    let mut sequences = vec![Vec::new(); header.num_users];
    for ev in events {
        sequences[ev.user].push(ev.item);
    }
    Dataset {
        name: "stream".to_string(),
        num_users: header.num_users,
        num_items: header.num_items,
        sequences,
        noise_labels: None,
    }
}

/// Rebuild the split + model skeleton for a replayed history.
///
/// Unlike the offline CLI pipeline this applies **no k-core filter**: k-core
/// re-indexes items densely, which would re-assign embedding rows between
/// rounds and make warm starts meaningless. Only truncation to `max_len` and
/// the leave-one-out split are applied, so shapes depend solely on the fixed
/// catalog.
pub fn materialize_model(
    header: LogHeader,
    events: &[Interaction],
    spec: &RetrainSpec,
) -> Result<(Split, SsdRec), String> {
    let mut ds = materialize(header, events);
    truncate_to_max_len(&mut ds, spec.arch.max_len);
    let split = leave_one_out(&ds, MIN_SEQ_LEN, MAX_TRAIN_PREFIXES);
    let graph = build_graph(&ds, &GraphConfig::default());
    let cfg = SsdRecConfig {
        dim: spec.arch.dim,
        max_len: spec.arch.max_len,
        backbone: spec.arch.backbone,
        seed: spec.arch.seed,
        ..SsdRecConfig::default()
    };
    Ok((split, SsdRec::new(&graph, cfg)))
}

fn records_at(offset: u64) -> u64 {
    (offset - HEADER_LEN) / RECORD_LEN
}

/// Run one warm-started full retrain round against `log_path` (the whole
/// log up to its current end, every user), publishing into the versioned
/// checkpoint directory at `root`.
///
/// Crash-safe and idempotent: the round's target version and consumed offset
/// are pinned in `work/meta` before training starts, the trainer checkpoints
/// into `work/state.sstc` every `spec.checkpoint_every` epochs, and a killed
/// round resumes from there on the next invocation. Stale work (target ≤
/// `CURRENT`, or written under a different spec/offset against the same
/// target) is discarded.
pub fn retrain(
    log_path: &Path,
    root: &Path,
    spec: &RetrainSpec,
    verbose: bool,
) -> Result<RetrainOutcome, String> {
    if spec.epochs == 0 {
        return Err("retrain needs --epochs ≥ 1".to_string());
    }
    let (log, _) = StreamLog::open(log_path).map_err(|e| e.to_string())?;
    let header = log.header();
    let log_end = log.end();
    drop(log);

    let cd = CheckpointDir::new(root);
    cd.ensure()
        .map_err(|e| format!("create {}: {e}", root.display()))?;
    let base_version = cd.current_version()?;

    // Warm-start inputs from the base version, and its arch pin.
    let (base_consumed, warm_state) = match base_version {
        Some(v) => {
            let meta = cd.read_meta(v)?;
            if meta.spec.arch != spec.arch {
                return Err(format!(
                    "architecture mismatch with {}: checkpoint dir has {} dim {} max_len {} \
                     seed {}, retrain asked for {} dim {} max_len {} seed {}",
                    CheckpointDir::version_name(v),
                    meta.spec.arch.backbone.name(),
                    meta.spec.arch.dim,
                    meta.spec.arch.max_len,
                    meta.spec.arch.seed,
                    spec.arch.backbone.name(),
                    spec.arch.dim,
                    spec.arch.max_len,
                    spec.arch.seed,
                ));
            }
            if meta.consumed > log_end {
                return Err(format!(
                    "{} consumed offset {} is past the log end {} — was the log replaced?",
                    CheckpointDir::version_name(v),
                    meta.consumed,
                    log_end,
                ));
            }
            let state = load_train_state(cd.state_path(v))
                .map_err(|e| format!("load {}: {e}", cd.state_path(v).display()))?;
            (meta.consumed, Some(state))
        }
        None => (HEADER_LEN, None),
    };

    // Pin the round: resume in-flight work if it matches, else start fresh.
    let target_version = base_version.unwrap_or(0) + 1;
    let target_meta = VersionMeta {
        version: target_version,
        consumed: log_end,
        records: records_at(log_end),
        spec: *spec,
    };
    let resume = match cd.read_work_meta()? {
        Some(work) if work == target_meta => true,
        Some(_) => {
            // Different target/spec/offset: discard the stale round.
            fs::remove_dir_all(cd.work_dir())
                .map_err(|e| format!("clear stale {}: {e}", cd.work_dir().display()))?;
            false
        }
        None => false,
    };
    if !resume {
        if base_consumed == log_end && base_version.is_some() {
            return Ok(RetrainOutcome::UpToDate {
                version: base_version.unwrap(),
            });
        }
        fs::create_dir_all(cd.work_dir())
            .map_err(|e| format!("create {}: {e}", cd.work_dir().display()))?;
        CheckpointDir::write_meta(&cd.work_meta_path(), &target_meta)
            .map_err(|e| format!("write work meta: {e}"))?;
    }

    // Rebuild the merged world at the pinned offset.
    let events = replay(log_path, HEADER_LEN, target_meta.consumed).map_err(|e| e.to_string())?;
    let (split, mut model) = materialize_model(header, &events, spec)?;
    if split.train.is_empty() || split.valid.is_empty() {
        return Err(format!(
            "the log has too little history to train on (need users with ≥ {} events; \
             {} records over {} users)",
            MIN_SEQ_LEN + 1,
            target_meta.records,
            header.num_users,
        ));
    }

    let train_cfg = TrainConfig {
        epochs: spec.epochs,
        batch_size: spec.batch_size,
        lr: spec.lr,
        weight_decay: spec.weight_decay,
        // Rounds must run exactly `epochs` epochs: early stopping
        // would break resume-equals-uninterrupted determinism.
        patience: spec.epochs + 1,
        seed: spec.arch.seed,
        verbose,
        ..TrainConfig::default()
    };
    let ckpt = CheckpointConfig {
        path: cd.work_state_path(),
        every: spec.checkpoint_every.max(1),
        resume: true,
    };
    let opts = TrainOptions {
        warm: warm_state,
        ckpt: Some(&ckpt),
    };
    let report = fit(&mut model, &(&split).into(), &train_cfg, &opts)?;

    // Publish: vN fully written (atomic per file), then CURRENT, then work/.
    let vdir = cd.version_dir(target_version);
    fs::create_dir_all(&vdir).map_err(|e| format!("create {}: {e}", vdir.display()))?;
    save_params(&model.store, cd.model_path(target_version))
        .map_err(|e| format!("publish model: {e}"))?;
    let state_bytes = fs::read(cd.work_state_path())
        .map_err(|e| format!("read {}: {e}", cd.work_state_path().display()))?;
    atomic_write(&cd.state_path(target_version), PUBLISH_SITE, |w| {
        w.write_all(&state_bytes)
    })
    .map_err(|e| format!("publish state: {e}"))?;
    CheckpointDir::write_meta(&cd.meta_path(target_version), &target_meta)
        .map_err(|e| format!("publish meta: {e}"))?;
    cd.set_current(target_version)
        .map_err(|e| format!("flip CURRENT: {e}"))?;
    let _ = fs::remove_dir_all(cd.work_dir());

    Ok(RetrainOutcome::Trained(TrainedVersion {
        version: target_version,
        consumed: target_meta.consumed,
        delta_records: records_at(target_meta.consumed) - records_at(base_consumed),
        report,
    }))
}

/// A published version loaded back into a live model, ready to serve.
pub struct LoadedVersion {
    /// The version number.
    pub version: u64,
    /// Its metadata.
    pub meta: VersionMeta,
    /// The model with the version's published parameters applied.
    pub model: SsdRec,
}

/// Load version `v` from the checkpoint directory at `root`.
///
/// The model skeleton (graph structure, embedding shapes) is rebuilt by
/// replaying `log_path` up to the version's consumed offset — the same
/// deterministic pipeline the retrain round used — then the published
/// parameters are applied over it.
pub fn load_version(log_path: &Path, root: &Path, v: u64) -> Result<LoadedVersion, String> {
    let cd = CheckpointDir::new(root);
    let meta = cd.read_meta(v)?;
    let header = crate::log::read_header(log_path).map_err(|e| e.to_string())?;
    let events = replay(log_path, HEADER_LEN, meta.consumed).map_err(|e| e.to_string())?;
    let (_, mut model) = materialize_model(header, &events, &meta.spec)?;
    load_params(&mut model.store, cd.model_path(v))
        .map_err(|e| format!("load {}: {e}", cd.model_path(v).display()))?;
    Ok(LoadedVersion {
        version: v,
        meta,
        model,
    })
}

/// Load whatever `CURRENT` points at; `None` if nothing is published yet.
pub fn load_current(log_path: &Path, root: &Path) -> Result<Option<LoadedVersion>, String> {
    match CheckpointDir::new(root).current_version()? {
        Some(v) => load_version(log_path, root, v).map(Some),
        None => Ok(None),
    }
}

/// Load `CURRENT` only if it is newer than `newer_than`.
///
/// This is the serve-side reload probe: cheap when nothing changed (one
/// small file read), a full deterministic rebuild when a new version landed.
pub fn load_newer(
    log_path: &Path,
    root: &Path,
    newer_than: u64,
) -> Result<Option<LoadedVersion>, String> {
    match CheckpointDir::new(root).current_version()? {
        Some(v) if v > newer_than => load_version(log_path, root, v).map(Some),
        _ => Ok(None),
    }
}

/// Convenience for the CLI: create a log (if missing) or open it, returning
/// the writer positioned at the end.
pub fn open_or_create_log(
    path: &Path,
    catalog: Option<LogHeader>,
) -> Result<(StreamLog, bool), String> {
    if path.exists() {
        let (log, report) = StreamLog::open(path).map_err(|e| e.to_string())?;
        if report.truncated_bytes > 0 {
            eprintln!(
                "warning: truncated {} bytes of torn tail from {}",
                report.truncated_bytes,
                path.display()
            );
        }
        Ok((log, false))
    } else {
        let header = catalog.ok_or_else(|| {
            format!(
                "{} does not exist; creating a log needs a catalog \
                 (--profile … or --users N --items M)",
                path.display()
            )
        })?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        Ok((
            StreamLog::create(path, header).map_err(|e| e.to_string())?,
            true,
        ))
    }
}
