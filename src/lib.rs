//! # ssdrec
//!
//! Facade crate for the SSDRec reproduction workspace (*SSDRec:
//! Self-Augmented Sequence Denoising for Sequential Recommendation*,
//! ICDE 2024). Re-exports every sub-crate under one roof and hosts the
//! runnable examples and cross-crate integration tests.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `ssdrec-tensor` | tensors, autograd, NN layers, optimizers |
//! | [`data`] | `ssdrec-data` | synthetic datasets, preprocessing, batching |
//! | [`graph`] | `ssdrec-graph` | the multi-relation graph `G` (paper §III-A) |
//! | [`models`] | `ssdrec-models` | six backbone recommenders + the one trainer ([`models::fit`]) |
//! | [`denoise`] | `ssdrec-denoise` | FMLP-Rec, DSAN, HSD, STEAM, DCRec, MGSD-WSS |
//! | [`core`] | `ssdrec-core` | the SSDRec three-stage framework + the model table ([`core::build_model`]) |
//! | [`metrics`] | `ssdrec-metrics` | HR/NDCG/MRR, t-tests, OUP ratios |
//! | [`runtime`] | `ssdrec-runtime` | thread pool + deterministic parallel kernels |
//! | [`serve`] | `ssdrec-serve` | the online inference HTTP server: the models' frozen eval forward, exact top-K |
//! | [`stream`] | `ssdrec-stream` | interaction log, versioned checkpoints, incremental retrain |
//! | [`faults`] | `ssdrec-faults` | deterministic fault-injection sites for chaos testing |
//!
//! ## Quickstart
//!
//! ```no_run
//! use ssdrec::core::{SsdRec, SsdRecConfig};
//! use ssdrec::data::{prepare, SyntheticConfig};
//! use ssdrec::graph::{build_graph, GraphConfig};
//! use ssdrec::models::{train, TrainConfig};
//!
//! let raw = SyntheticConfig::beauty().generate();
//! let (dataset, split) = prepare(&raw, 50, 3);
//! let graph = build_graph(&dataset, &GraphConfig::default());
//! let mut model = SsdRec::new(&graph, SsdRecConfig::default());
//! let report = train(&mut model, &split, &TrainConfig::default());
//! println!("test HR@20 = {:.4}", report.test.hr20);
//! ```
//!
//! ## One training path
//!
//! [`models::fit`] holds the only epoch loop. It takes a
//! [`models::SourceSplit`] — borrowed from an in-RAM `Split`
//! (`(&split).into()`) or from the views of a split plan over a columnar
//! `.ssdc` store (`(&plan.views(&store)).into()`) — and
//! [`models::TrainOptions`] for warm starts and checkpoint/resume.
//! [`models::train`], used above, is the shorthand for an in-RAM split with
//! default options; it panics only where `fit` returns
//! [`models::TrainError::NonFiniteEpoch`] (an epoch whose every loss was
//! non-finite).
//!
//! Any of the fourteen trainable models can be built by name through
//! [`core::build_model`] from a [`core::ModelKind`] and a
//! [`core::ModelContext`] (usually [`core::Prepared::context`]); it returns
//! a `Box<dyn RecModel>` that `train(&mut *model, ..)` and `fit` accept.

pub use ssdrec_core as core;
pub use ssdrec_data as data;
pub use ssdrec_denoise as denoise;
pub use ssdrec_faults as faults;
pub use ssdrec_graph as graph;
pub use ssdrec_metrics as metrics;
pub use ssdrec_models as models;
pub use ssdrec_runtime as runtime;
pub use ssdrec_serve as serve;
pub use ssdrec_stream as stream;
pub use ssdrec_tensor as tensor;
