//! The production CPU kernels and their bits-contract.
//!
//! Every compute-dense kernel — gemm, softmax, the cross-entropy column
//! chains, LayerNorm, and the fused bias+activation / scale+mask+softmax
//! passes — is one free function here, over flat `&[f32]` slices;
//! shape-level concerns (rank promotion, batching, thread partitioning,
//! degenerate shapes) live in [`crate::kernels`]. There is one
//! implementation of each: the gemm packs operands into p-major panels and
//! computes `8×W` output tiles, `W` one vector register of the [`TileIsa`]
//! build the host runs, and the element-wise passes are single-pass and
//! fused (see `blocked.rs`).
//!
//! # The kernel bits-contract
//!
//! This workspace pins golden HR@10/NDCG@10 values, checkpoint bytes and
//! per-kernel bit checksums, so a kernel rewrite must not perturb results.
//! The contract has two layers:
//!
//! * **Self-contract (bit identity).** Every kernel is bit-identical to
//!   itself across runs, thread counts and [`TileIsa`] builds: every output
//!   element's floating-point operation chain is fixed by the shape alone.
//! * **Oracle parity (ULP bound).** The production kernels agree with the
//!   straight-line oracle — the original loops, kept verbatim in
//!   `crates/tensor/tests/oracle` and compiled only into the tests — within
//!   [`KERNEL_BITS_MAX_ULPS`] on finite inputs. Version
//!   [`KERNEL_BITS_VERSION`] pins the bound at **0**: tiling only changes
//!   *where* partial sums live (registers instead of memory), never the
//!   per-element accumulation order, and vectorising across output elements
//!   reassociates nothing. Only a kernel that reassociates sums (a
//!   vectorised reduction, split-K) would bump the version and widen the
//!   bound, and `crates/tensor/tests/backend_parity.rs`, which holds every
//!   kernel to the oracle in every tile build the host runs, would keep
//!   enforcing the new bound.
//!
//! The version also moves, with the bound left at 0, when the production
//! kernels and the oracle move together on purpose. History:
//!
//! * **v1** — the production kernels bit-identical to the oracle;
//!   transcendentals from the platform's libm.
//! * **v2** — every `exp`, `ln`, `tanh` and sigmoid in this crate is
//!   [`crate::math`]'s, built from IEEE add/multiply/divide and bit
//!   operations only. Every value downstream of one moved once (the
//!   forward and trained-checkpoint pins were re-recorded; the golden
//!   metrics held); trained bits no longer depend on the host's C library;
//!   and the LSTM gate pass and the softmax exponentials run at the vector
//!   width of the [`TileIsa`] build, still bit-identical to the oracle.

mod blocked;
mod isa;

use crate::math;

pub use blocked::{
    bias_act_rows, ce_grad_cols, gemm_rows, layer_norm_rows, log_sum_exp_cols,
    scaled_masked_softmax_rows, softmax_rows,
};
pub(crate) use isa::{lanes, per_isa, store_lanes};
pub use isa::{with_tile_isa, TileIsa};

/// Version of the kernel bits-contract (see the module docs). Bump when the
/// production kernels are allowed to diverge from the oracle by more than
/// the current [`KERNEL_BITS_MAX_ULPS`].
pub const KERNEL_BITS_VERSION: u32 = 2;

/// Maximum ULP distance permitted between the production kernels' outputs
/// and the oracle's on finite inputs under contract version
/// [`KERNEL_BITS_VERSION`]. A bound of 0 demands exact bit equality (±0 and
/// NaN payloads included), which is what keeps golden metric pins and
/// checkpoint bytes independent of how the kernels are written.
pub const KERNEL_BITS_MAX_ULPS: u64 = 0;

/// Epsilon inside LayerNorm's variance square root (shared by
/// [`layer_norm_rows`] and the backward kernel in [`crate::kernels`]).
pub(crate) const LN_EPS: f32 = 1e-5;

/// Rows of [`gemm_rows`]' register tile. [`crate::kernels`] cuts parallel
/// gemm row blocks at multiples of it, so only a call's last block can end
/// in a partial row panel (which runs on row-sized tiles, `blocked.rs`).
pub(crate) const TILE_ROWS: usize = 8;

/// Element-wise activations understood by [`bias_act_rows`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    /// The identity map (bias add only).
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// Logistic sigmoid `1/(1+e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Forward map. Bit-identical to the unfused graph ops
    /// ([`crate::graph::Graph::relu`] and friends).
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => math::sigmoid(x),
            Activation::Tanh => math::tanh(x),
        }
    }

    /// Upstream gradient `g` through the activation, expressed via the
    /// forward **output** `y`. These are the exact formulas of the unfused
    /// backward ops; for Relu the unfused `x > 0` test is equivalent to
    /// `y > 0` because `y = max(x, 0)`.
    #[inline(always)]
    pub fn grad_from_output(self, g: f32, y: f32) -> f32 {
        match self {
            Activation::Identity => g,
            Activation::Relu => {
                if y > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => g * y * (1.0 - y),
            Activation::Tanh => g * (1.0 - y * y),
        }
    }
}

/// ULP distance between two `f32`s on the monotonic integer mapping of
/// floats: 0 for equal bits, 1 for adjacent representable values, and
/// `u64::MAX` when either value is NaN (unless both have identical bits).
/// `-0.0` and `+0.0` are adjacent-equal (distance 0) — a 0-ULP *contract*
/// therefore additionally requires exact bit equality, which is what
/// [`assert_within_ulps`] enforces when the bound is 0.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 != 0 {
            -((b & 0x7FFF_FFFF) as i64)
        } else {
            b as i64
        }
    }
    key(a).abs_diff(key(b))
}

/// Assert element-wise agreement of `got` with `want` under the ULP bound:
/// a bound of 0 demands exact bit equality per element (contracts v1, v2);
/// larger bounds use [`ulp_distance`]. Panics with `ctx`, the offending
/// index and both values on the first violation.
pub fn assert_within_ulps(want: &[f32], got: &[f32], max_ulps: u64, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length mismatch");
    for (i, (&w, &g)) in want.iter().zip(got.iter()).enumerate() {
        if w.to_bits() == g.to_bits() {
            continue;
        }
        if max_ulps == 0 {
            panic!(
                "{ctx}: bit mismatch at [{i}]: want {w:?} ({:#010x}), got {g:?} ({:#010x})",
                w.to_bits(),
                g.to_bits()
            );
        }
        let d = ulp_distance(w, g);
        assert!(
            d <= max_ulps,
            "{ctx}: {d} ULPs apart at [{i}] (bound {max_ulps}): want {w:?}, got {g:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 0, "±0 are adjacent-equal");
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
        // Distance is symmetric across the sign boundary.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(-tiny, tiny), 2);
    }

    #[test]
    #[should_panic(expected = "bit mismatch")]
    fn zero_bound_distinguishes_signed_zero() {
        assert_within_ulps(&[0.0], &[-0.0], 0, "signed zero");
    }

    #[test]
    fn activation_matches_unfused_maps() {
        for &x in &[-2.5f32, -0.0, 0.0, 0.3, 4.0] {
            assert_eq!(Activation::Relu.apply(x).to_bits(), x.max(0.0).to_bits());
            assert_eq!(
                Activation::Sigmoid.apply(x).to_bits(),
                math::sigmoid(x).to_bits()
            );
            assert_eq!(Activation::Tanh.apply(x).to_bits(), math::tanh(x).to_bits());
            assert_eq!(Activation::Identity.apply(x).to_bits(), x.to_bits());
        }
    }
}
