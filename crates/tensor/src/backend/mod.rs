//! Pluggable CPU kernel backends.
//!
//! Every compute-dense kernel (gemm, softmax, log-softmax, LayerNorm, and the
//! fused bias+activation / scale+mask+softmax passes) dispatches through the
//! [`Backend`] trait. Two implementations ship:
//!
//! * [`Reference`] — the original straight-line loops, kept verbatim as the
//!   oracle every other backend is tested against.
//! * [`Blocked`] — the default: cache-blocked, register-tiled gemm
//!   ([`Blocked`] packs operands into p-major panels and computes `8×W`
//!   output tiles, `W` one vector register of the [`TileIsa`] build the
//!   host runs) plus single-pass fused element-wise kernels.
//!
//! # The kernel bits-contract
//!
//! This workspace pins golden HR@10/NDCG@10 values, checkpoint bytes and
//! per-kernel bit checksums, so a kernel swap must not perturb results. The
//! contract has two layers:
//!
//! * **Self-contract (bit identity).** Each backend is bit-identical to
//!   itself across runs and thread counts: every output element's
//!   floating-point addition chain is fixed by the shape alone.
//! * **Cross-backend parity (ULP bound).** Any two backends agree within
//!   [`KERNEL_BITS_MAX_ULPS`] on finite inputs. Version
//!   [`KERNEL_BITS_VERSION`] pins the bound at **0** — `Blocked` is
//!   bit-identical to `Reference`, because its tiling only changes *where*
//!   partial sums live (registers instead of memory), never the per-element
//!   accumulation order — in every [`TileIsa`] build, since vectorising
//!   across output elements reassociates nothing. Only a kernel that
//!   reassociates sums (a vectorised reduction, split-K) would bump the
//!   version and widen the bound, and the parity suite in
//!   `crates/tensor/tests/backend_parity.rs` would keep enforcing the new
//!   bound.
//!
//! The version also moves, with the bound left at 0, when every backend's
//! bits move together on purpose. History:
//!
//! * **v1** — `Blocked` bit-identical to `Reference`; transcendentals from
//!   the platform's libm.
//! * **v2** — every `exp`, `ln`, `tanh` and sigmoid in this crate is
//!   [`crate::math`]'s, built from IEEE add/multiply/divide and bit
//!   operations only. Every value downstream of one moved once (the
//!   forward and trained-checkpoint pins were re-recorded; the golden
//!   metrics held); trained bits no longer depend on the host's C library;
//!   and the LSTM gate pass and `Blocked`'s softmax exponentials run at the
//!   vector width of the [`TileIsa`] build, still bit-identical to
//!   `Reference`.
//!
//! The selected backend is process-global: `SSDREC_BACKEND=reference|blocked`
//! at startup, or [`set_backend`] (the CLI's `--backend` flag). Tests that
//! switch backends must serialize through [`with_backend`] /
//! [`with_each_backend`], which hold a global lock so concurrent `#[test]`
//! threads cannot observe each other's backend.

mod blocked;
mod isa;
mod reference;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::math;

pub use blocked::Blocked;
pub(crate) use isa::{lanes, per_isa, store_lanes};
pub use isa::{with_tile_isa, TileIsa};
pub use reference::Reference;

/// Version of the kernel bits-contract (see the module docs). Bump when a
/// backend is allowed to diverge from `Reference` by more than the current
/// [`KERNEL_BITS_MAX_ULPS`].
pub const KERNEL_BITS_VERSION: u32 = 2;

/// Maximum ULP distance permitted between any two backends' outputs on
/// finite inputs under contract version [`KERNEL_BITS_VERSION`]. A bound of
/// 0 demands exact bit equality (±0 and NaN payloads included), which is
/// what keeps golden metric pins and checkpoint bytes backend-independent.
pub const KERNEL_BITS_MAX_ULPS: u64 = 0;

/// Epsilon inside LayerNorm's variance square root (shared by every backend
/// and by the backward kernel in [`crate::kernels`]).
pub(crate) const LN_EPS: f32 = 1e-5;

/// Rows of [`Blocked`]'s register tile. [`crate::kernels`] cuts parallel
/// gemm row blocks at multiples of it, so only a call's last block can end
/// in a partial (unvectorised) tile.
pub(crate) const TILE_ROWS: usize = 8;

/// Element-wise activations understood by [`Backend::bias_act`].
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

/// A CPU kernel implementation. All methods speak flat `&[f32]` slices so
/// backends stay independent of [`crate::tensor::Tensor`]; shape-level
/// concerns (rank promotion, batching, thread partitioning, degenerate
/// shapes) live in [`crate::kernels`].
///
/// Every method must honour the bits-contract in the module docs: per
/// output element, the floating-point operation sequence is fixed by the
/// shape alone (accumulations run over the contraction index ascending), so
/// any row/batch partition of the same kernel is bit-identical.
pub trait Backend: Send + Sync {
    /// The backend's name as accepted by `SSDREC_BACKEND`.
    fn name(&self) -> &'static str;

    /// Compute output rows `[r0, r1)` of `out[m×n] (+)= a[m×k] · b[k×n]`
    /// into `block` (the slice for exactly those rows), with optional
    /// operand transposes (`ta`: `a` stored `k×m`; `tb`: `b` stored `n×k`).
    ///
    /// Accumulation-chain contract, matching the original kernels: the
    /// `!tb` variants add each `p` term directly onto the existing output
    /// value; the `tb` variants form a fresh `p`-ascending sum and add it to
    /// the output once. Inputs are assumed finite (no ±inf/NaN); score
    /// masking uses large finite values (−1e9), never infinities.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        &self,
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
        block: &mut [f32],
        r0: usize,
        r1: usize,
    );

    /// Row-wise numerically-stable softmax: `src` and `dst` are
    /// `rows × n` with `n ≥ 1`.
    fn softmax_rows(&self, src: &[f32], dst: &mut [f32], n: usize);

    /// Row-wise numerically-stable log-softmax (`n ≥ 1`).
    fn log_softmax_rows(&self, src: &[f32], dst: &mut [f32], n: usize);

    /// Row-wise LayerNorm with scale/shift: `gamma`/`beta` have length `n`.
    fn layer_norm_rows(&self, x: &[f32], gamma: &[f32], beta: &[f32], dst: &mut [f32], n: usize);

    /// Fused `dst[i] = act(a[i] + bias[i % bias.len()])` (suffix broadcast).
    fn bias_act(&self, a: &[f32], bias: &[f32], act: Activation, dst: &mut [f32]);

    /// Fused `dst = softmax_rows(a * scale + broadcast(mask))` over rows of
    /// length `n`; `mask` (when present) has length a multiple of `n` and is
    /// tiled over the leading rows (suffix broadcast).
    fn scaled_masked_softmax(
        &self,
        a: &[f32],
        scale: f32,
        mask: Option<&[f32]>,
        dst: &mut [f32],
        n: usize,
    );
}

/// Which [`Backend`] implementation to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The straight-line oracle kernels.
    Reference,
    /// The cache-blocked default kernels.
    Blocked,
}

impl BackendKind {
    /// Parse a `SSDREC_BACKEND` / `--backend` value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "reference" => Some(BackendKind::Reference),
            "blocked" => Some(BackendKind::Blocked),
            _ => None,
        }
    }

    /// The name as accepted by `SSDREC_BACKEND`.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Blocked => "blocked",
        }
    }

    /// Every available backend (the iteration order of
    /// [`with_each_backend`]).
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Reference, BackendKind::Blocked]
    }
}

static REFERENCE: Reference = Reference;
static BLOCKED: Blocked = Blocked;

/// 0 = unset (resolve from the environment on first use).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn resolve_env() -> BackendKind {
    match std::env::var("SSDREC_BACKEND") {
        Ok(v) => BackendKind::parse(&v).unwrap_or_else(|| {
            panic!("SSDREC_BACKEND must be \"reference\" or \"blocked\", got {v:?}")
        }),
        Err(_) => BackendKind::Blocked,
    }
}

/// The currently selected backend kind. Resolved from `SSDREC_BACKEND` on
/// first use (default: [`BackendKind::Blocked`]).
pub fn backend_kind() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => BackendKind::Reference,
        2 => BackendKind::Blocked,
        _ => {
            let k = resolve_env();
            set_backend(k);
            k
        }
    }
}

/// Select the process-global backend (the CLI's `--backend` flag). Takes
/// effect for all subsequent kernel calls on every thread.
pub fn set_backend(kind: BackendKind) {
    let v = match kind {
        BackendKind::Reference => 1,
        BackendKind::Blocked => 2,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The active [`Backend`] implementation.
pub fn backend() -> &'static dyn Backend {
    match backend_kind() {
        BackendKind::Reference => &REFERENCE,
        BackendKind::Blocked => &BLOCKED,
    }
}

/// Serializes backend switching across test threads: the backend is
/// process-global, so concurrent `#[test]`s that switch it must hold this
/// lock for the whole switched region.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous backend on drop (including on panic, so a failing
/// shrunk property case cannot leak its backend to the next case).
struct Restore(BackendKind);

impl Drop for Restore {
    fn drop(&mut self) {
        set_backend(self.0);
    }
}

/// Run `f` with `kind` selected, holding the global switch lock, and restore
/// the previous backend afterwards (also on panic). Not reentrant: do not
/// nest with itself or [`with_each_backend`].
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    let _lock = SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(backend_kind());
    set_backend(kind);
    f()
}

/// Run `f` once per backend in [`BackendKind::all`] order, holding the
/// global switch lock throughout, and restore the previous backend
/// afterwards (also on panic). Not reentrant (see [`with_backend`]).
pub fn with_each_backend(mut f: impl FnMut(BackendKind)) {
    let _lock = SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(backend_kind());
    for kind in BackendKind::all() {
        set_backend(kind);
        f(kind);
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
    fn parse_round_trips() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("simd"), None);
    }

    #[test]
    fn with_backend_restores_on_exit_and_panic() {
        let before = backend_kind();
        with_backend(BackendKind::Reference, || {
            assert_eq!(backend_kind(), BackendKind::Reference);
        });
        assert_eq!(backend_kind(), before);
        let r = std::panic::catch_unwind(|| {
            with_backend(BackendKind::Reference, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(backend_kind(), before, "backend leaked across a panic");
    }

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
