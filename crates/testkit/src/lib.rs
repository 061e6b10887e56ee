//! # ssdrec-testkit
//!
//! The workspace's zero-dependency test substrate. The offline build
//! environment cannot fetch registry crates, so everything the reproduction
//! needs for correctness tooling lives here, implemented from scratch on the
//! standard library:
//!
//! * [`rng`] — a deterministic `xoshiro256**` generator (SplitMix64 seeding)
//!   with the full sampling surface the workspace uses: uniform, integer
//!   ranges, normal (Box–Muller), Gumbel, Bernoulli, dropout masks, shuffle,
//!   choice, weighted sampling and independent [`Rng::split`] child streams.
//!   This is a **runtime** dependency of `ssdrec-tensor` and `ssdrec-data`,
//!   not just a test helper — every stochastic component of the stack draws
//!   from it.
//! * [`prop`] — a minimal property-testing framework (the
//!   [`property!`](crate::property) macro): seeded generation, configurable
//!   case counts, greedy input shrinking on failure.
//! * [`gradcheck`] — [`check_grads`], central finite-difference verification
//!   of analytic gradients, used to validate the autograd tape layer by
//!   layer.
//! * [`fault`] — test-side hooks for the `ssdrec-faults` injection runtime:
//!   the [`fault::FaultPlan`] builder, armed on the calling thread or as
//!   the process default, and fire-count assertions.
//! * [`scratch_path`] — a test's scratch file path with every leftover of
//!   an earlier run removed.
//!
//! The workspace-level invariant this crate exists to protect:
//! `CARGO_NET_OFFLINE=true cargo build --release && cargo test -q` passes
//! with **zero** registry dependencies (`scripts/ci.sh` enforces the
//! deny-list).

#![warn(missing_docs)]

pub mod fault;
pub mod gradcheck;
pub mod prop;
pub mod rng;

use std::path::{Path, PathBuf};

pub use gradcheck::{check_grads, GradReport};
pub use prop::{forall, gens, Config, Gen};
pub use rng::{splitmix64, Rng};

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
