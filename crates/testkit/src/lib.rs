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
//!   an earlier run removed; [`TempDir`] — a scratch directory under the
//!   system temp directory that is removed when it drops, also when the
//!   test panics.
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
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A test's scratch directory under the system temp directory, named
/// `<prefix>-<pid>-<n>` with `n` unique within the process, so concurrent
/// tests and concurrent runs never share one. Dropping the guard removes
/// the directory and everything in it — also when the test holding it
/// panics, so a failing run leaves nothing behind.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create an empty directory for a test; `prefix` names what made it.
    pub fn new(prefix: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
