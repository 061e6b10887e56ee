//! # ssdrec-serve
//!
//! The online inference subsystem: serve a trained checkpoint over HTTP
//! with scores **bit-identical** to the offline evaluation path, using
//! nothing outside `std`.
//!
//! Pipeline per request:
//!
//! ```text
//! TcpListener ──► acceptor thread ──► validate ──► session cache ──┐
//!  (serves what it accepted)                                       │ miss
//!                      mpsc queue ◄────────────────────────────────┘
//!                          │  (take what is queued, up to max_batch; linger
//!                          │   only on a batch that is already coalescing)
//!                          ▼
//!             worker thread: frozen Graph (params and the engine's stage-1
//!             tables + scorer transpose bound once, below a mark — the
//!             tables are computed once per engine, not per worker)
//!                          │  eval_scores_frozen → top_k per row
//!                          ▼
//!                  responses + /metrics histograms
//! ```
//!
//! See `DESIGN.md` §2.3 and §4.6–4.7 for the full rationale.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod http;
pub mod server;
pub mod stats;
pub mod swap;

pub use engine::{Engine, EngineConfig, InferenceModel, RecError, Recommendation};
pub use server::{serve, serve_slot, serve_with, ServeConfig, ServerHandle};
pub use stats::{LatencyHistogram, ServerStats};
pub use swap::{EngineSlot, LoadedModel, ModelLoader, ReloadOutcome};

/// The codec lives in `ssdrec-base`; this path stays for the benchmark
/// probes, which parse bodies through `ssdrec_serve::json`.
pub use ssdrec_base::json;
