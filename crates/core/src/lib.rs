//! # ssdrec-core
//!
//! SSDRec: Self-Augmented Sequence Denoising for Sequential Recommendation
//! (ICDE 2024) — the paper's primary contribution, implemented as a
//! three-stage learning paradigm:
//!
//! 1. [`relation_encoder`] — a global relation encoder over the
//!    multi-relation graph (inter-sequence prior knowledge),
//! 2. [`augment`] — a self-augmentation module that selects a position and
//!    two items to enrich short sequences before denoising,
//! 3. [`denoise_stage`] — a hierarchical denoising module that removes false
//!    augmentations and pinpoints all noise in the raw sequence.
//!
//! The assembled [`SsdRec`] model plugs any backbone from `ssdrec-models`
//! into Eq. 15 and trains with the shared workspace trainer.
//!
//! This is also the lowest crate that sees every trainable model, so it
//! hosts the [`zoo`]: the one table from a [`ModelKind`] to a
//! `Box<dyn RecModel>`.

#![warn(missing_docs)]

pub mod augment;
pub mod denoise_stage;
pub mod model;
pub mod relation_encoder;
pub mod util;
pub mod zoo;

pub use augment::{Augmented, SelfAugmenter};
pub use denoise_stage::HierarchicalDenoiser;
pub use model::{CaseStudy, SsdRec, SsdRecConfig};
pub use relation_encoder::{GlobalRelationEncoder, RelationAdjacency, RelationOutput};
pub use zoo::{build_model, ModelContext, ModelKind, Prepared};
