//! # ssdrec-models
//!
//! The six sequential-recommender backbones the paper evaluates (Table III):
//! GRU4Rec, NARM, STAMP, Caser, SASRec and BERT4Rec — all re-implemented on
//! the workspace's autograd substrate — plus the shared [`trainer`] used by
//! every model in the workspace (Adam, full-ranking CE, early stopping) and
//! the CL4SRec-style [`contrastive`] head (seeded view augmentation +
//! InfoNCE, DESIGN.md §5.4).

#![warn(missing_docs)]

pub mod backbones;
pub mod checkpoint;
pub mod contrastive;
pub mod encoder;
pub mod model;
pub mod trainer;

pub use backbones::{
    Bert4RecEncoder, CaserEncoder, Gru4RecEncoder, NarmEncoder, PositionalEmbedding, SasRecEncoder,
    StampEncoder,
};
pub use checkpoint::{load_train_state, save_train_state, CheckpointConfig, TrainState};
pub use contrastive::{
    augment_view, augment_views, info_nce, view_rng, ContrastiveSeqRec, DEFAULT_AUG_RATE,
    DEFAULT_CL_TAU, DEFAULT_CL_WEIGHT,
};
pub use encoder::{BackboneKind, SeqEncoder};
pub use model::{
    build_encoder, next_item_ce, pad_mask, score_catalogue, RecModel, SeqRec, DROPOUT,
};
pub use trainer::{
    evaluate, evaluate_with, fit, per_example, recommend_each, train, FrozenPass, LrSchedule,
    SourceSplit, TrainConfig, TrainError, TrainOptions, TrainReport,
};
