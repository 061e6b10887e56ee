//! # ssdrec-stream
//!
//! The online loop the offline frameworks stop short of: an append-only
//! interaction [`log`] with a fixed catalog and CRC-checked records, a
//! [`version`]ed checkpoint directory with an atomically flipped `CURRENT`
//! pointer, and a [`retrain`] driver: a warm-started full retrain that
//! replays the whole log and trains every user, starting from the previous
//! version's full training state.
//!
//! Determinism contract: a retrain round is a pure function of the log
//! prefix it pinned, the spec, and the base version — killed and resumed
//! rounds publish byte-identical `model.ssdt` files, at any thread count.
//! `tests/chaos.rs` in the workspace root enforces this end to end.
//!
//! Fault sites: `stream.append`, `stream.sync` (log writer) and
//! `stream.publish` (every atomic write in the publish path).

#![warn(missing_docs)]

pub mod log;
pub mod retrain;
pub mod version;

pub use log::{crc32, replay, LogError, LogHeader, OpenReport, StreamLog, HEADER_LEN, RECORD_LEN};
pub use retrain::{
    load_current, load_newer, load_version, materialize, materialize_model, open_or_create_log,
    retrain, LoadedVersion, RetrainOutcome, TrainedVersion, MAX_TRAIN_PREFIXES, MIN_SEQ_LEN,
};
pub use version::{ArchSpec, CheckpointDir, RetrainSpec, VersionMeta};
