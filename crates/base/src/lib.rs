//! # ssdrec-base
//!
//! The std-only utilities every layer of the workspace shares, one home
//! each:
//!
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

pub mod faults;
pub mod json;
pub mod rng;

pub use rng::Rng;

#[cfg(test)]
mod tests;
