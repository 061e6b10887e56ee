//! # ssdrec-runtime
//!
//! A std-only parallel compute runtime for the SSDRec workspace: a
//! persistent, lazily-spawned thread pool plus the three deterministic
//! parallel primitives every hot path in the workspace is built on.
//!
//! ## Determinism contract
//!
//! Every primitive in this crate produces **bit-identical results at every
//! thread count**, including 1. The rules that make this hold:
//!
//! 1. **Chunking is derived from the problem shape only.** The number of
//!    chunks and their boundaries depend on `len` and `grain`, never on how
//!    many threads happen to exist. Changing `SSDREC_THREADS` changes which
//!    thread executes a chunk, not what the chunk computes.
//! 2. **Chunks write disjoint data** ([`parallel_for`],
//!    [`parallel_chunks_mut`]) or produce partials that are combined in a
//!    **fixed-shape pairwise tree** ([`parallel_reduce`]) whose shape is a
//!    function of the chunk count alone.
//! 3. The sequential path (`threads() == 1`, or a single chunk) runs the
//!    same per-chunk code, so it is the base case of the same contract, not
//!    a separate implementation.
//!
//! Callers that accumulate across chunk boundaries (e.g. a scatter-add)
//! must partition by *destination*, not by *source*, so each output element
//! receives its additions in the same order as the sequential loop — see
//! `ssdrec_tensor::kernels::scatter_rows` for the worked example.
//!
//! ## Why no work-stealing
//!
//! A work-stealing deque would let idle threads poach half-ranges from busy
//! ones, but the split points would then depend on runtime timing — exactly
//! what the determinism contract forbids for reductions — and the kernels
//! here are regular (gemm row blocks, rank rows, score chunks), so static
//! chunking already balances well. A shared injector queue with
//! caller-participation keeps the design ~300 lines, deadlock-free under
//! nesting, and bit-stable; see `DESIGN.md` §4.1.
//!
//! ## Configuration
//!
//! The pool is spawned lazily on first use with `SSDREC_THREADS` threads,
//! capped at the machine's available parallelism ([`clamp_to_cores`]), or
//! with all of it when unset. [`set_threads`] reconfigures it at runtime,
//! exactly as asked — the CLI's `--threads N` flag maps to it after the
//! same cap.

#![warn(missing_docs)]

pub mod pool;

pub use pool::{
    available_cores, clamp_to_cores, parallel_chunks_mut, parallel_for, parallel_reduce,
    set_threads, threads, Pool,
};
