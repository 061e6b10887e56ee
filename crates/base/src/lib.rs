//! # ssdrec-base
//!
//! The std-only utilities every layer of the workspace shares, one home
//! each:
//!
//! * [`atomic_file`] — [`atomic_file::AtomicFile`], the one way a file is
//!   published: temp file, fsync, fault site, rename;
//! * [`bytes`] — the one byte codec of the file formats: a
//!   [`bytes::Cursor`] that bounds every count by the bytes left, the
//!   [`bytes::Put`] writer, LEB128 varints, zigzag and CRC-32;
//! * [`faults`] — named fault-injection sites ([`faults::point`]) and the
//!   thread- and process-scoped plans that arm them, zero-cost when
//!   disarmed;
//! * [`rng`] — [`Rng`], the one deterministic `xoshiro256**` generator,
//!   whose stream is frozen across releases (init, dropout, Gumbel noise and
//!   data generation all draw from it);
//! * [`json`] — the JSON codec of the serving protocol and `/metrics`, with
//!   bounded nesting for hostile bodies.
//!
//! Test tooling (`property!`, gradient checks, `FaultPlan`, the HTTP
//! client) lives in `ssdrec-testkit`, which depends on this crate; no
//! product crate links it.

#![warn(missing_docs)]

pub mod atomic_file;
pub mod bytes;
pub mod faults;
pub mod json;
pub mod rng;

pub use rng::Rng;

#[cfg(test)]
mod tests;
