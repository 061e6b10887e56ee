//! # ssdrec-benchmark-driver
//!
//! The repo benchmark's load generator and reporter. End-to-end numbers are
//! taken from outside, through the surfaces users touch — the `ssdrec`
//! binary and its HTTP port — so this crate links no `ssdrec-*` crate and a
//! refactor inside the product cannot break the instrument it is judged by.
//! Std only: process spawning, a `Connection: close` HTTP client, a seeded
//! request generator, order statistics, spans and JSON.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are expected to move.

#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod http;
pub mod json;
pub mod layers;
pub mod proc;
pub mod report;
pub mod sizes;
pub mod stats;
pub mod trace;
pub mod workloads;
