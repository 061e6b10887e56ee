//! # ssdrec-testkit
//!
//! The workspace's zero-dependency test substrate. The offline build
//! environment cannot fetch registry crates, so everything the reproduction
//! needs for correctness tooling lives here, implemented from scratch on the
//! standard library. It sits above the product: it depends on
//! `ssdrec-base` and `ssdrec-tensor`, and every crate takes it as a
//! dev-dependency only.
//!
//! * [`prop`] — a minimal property-testing framework (the
//!   [`property!`](crate::property) macro): seeded generation, configurable
//!   case counts, greedy input shrinking on failure. Generators draw from
//!   [`Rng`], the workspace generator from `ssdrec_base::rng`.
//! * [`gradcheck`] — [`check_grads`], central finite-difference verification
//!   of analytic gradients, and [`fd_check_all_params`], which runs it over
//!   every tensor of a `ParamStore` to validate the autograd tape layer by
//!   layer.
//! * [`fault`] — test-side hooks for the `ssdrec_base::faults` injection
//!   runtime: the [`fault::FaultPlan`] builder, armed on the calling thread
//!   or as the process default, and fire-count assertions.
//! * [`client`] — a blocking HTTP client with typed errors for the serving
//!   tests.
//! * [`scratch_path`] — a test's scratch file path with every leftover of
//!   an earlier run removed.
//!
//! The workspace-level invariant this crate exists to protect:
//! `CARGO_NET_OFFLINE=true cargo build --release && cargo test -q` passes
//! with **zero** registry dependencies (`scripts/ci.sh` enforces the
//! deny-list).

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod gradcheck;
pub mod prop;

use std::path::{Path, PathBuf};

pub use gradcheck::{check_grads, fd_check_all_params, GradReport};
pub use prop::{forall, gens, Config, Gen};
// The generator a `Gen` draws from. `ssdrec-base`'s own unit tests can name
// the copy this crate links only through this path.
pub use ssdrec_base::Rng;

/// `dir/name` for a test's scratch file: `dir` is created, and any file or
/// directory an earlier run left at the path is removed, so a run that
/// failed half-way cannot poison the next one.
pub fn scratch_path(dir: impl AsRef<Path>, name: &str) -> PathBuf {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path).or_else(|_| std::fs::remove_dir_all(&path));
    path
}
