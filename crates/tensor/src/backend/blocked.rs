//! The default backend: cache-blocked, register-tiled gemm plus single-pass
//! fused element-wise kernels — bit-identical to [`Reference`].
//!
//! # Why tiling does not change bits
//!
//! The oracle computes every output element as one `p`-ascending addition
//! chain. The blocked gemm computes the *same chain for the same element* —
//! it only changes where the partial sums live (an 8×8 register tile
//! instead of the output buffer) and in what order *different* elements are
//! advanced. Floating-point addition is not reassociated, the operand
//! packing copies values verbatim, and Rust never contracts `a*b + c` into
//! an FMA, so the result bits match the oracle exactly.
//!
//! Two oracle quirks need care:
//!
//! * **Zero skipping.** The `!tb` oracle variants skip `a` elements that
//!   are exactly `±0.0`; the blocked kernel does not. Adding the skipped
//!   `±0·b = ±0` term anyway cannot change an accumulator under
//!   round-to-nearest unless the accumulator is exactly `-0.0` — and an
//!   accumulation chain that starts at `+0.0` can never produce `-0.0`
//!   (IEEE 754 only yields `-0` from `(-0) + (-0)`). Output buffers here
//!   are always `+0`-zeroed (or the result of prior chains with the same
//!   property), and inputs are finite per the [`Backend`] contract, so the
//!   skipped terms are bitwise no-ops.
//! * **Degenerate `k = 0`.** The `tb` oracle variants still add an empty
//!   sum (`+0.0`) to every output element; the `!tb` variants add nothing.
//!   The blocked kernel mirrors both.
//!
//! # What is actually faster
//!
//! * gemm packs `a` into a `p`-major 8-row panel (and `b` into a `p`-major
//!   matrix for the `tb` variants, once per call — [`crate::kernels`]
//!   already hands a 2-D gemm's transposed `b` over packed, once for all of
//!   its row blocks), turning every variant into the same
//!   unit-stride broadcast-multiply-accumulate over an 8×8 register tile.
//!   The `tb` oracle variants are scalar dot-product reductions the
//!   autovectorizer cannot touch (vectorizing an FP reduction would
//!   reassociate); the tiled form keeps each lane's chain separate, so it
//!   vectorizes across the 8 output columns — that is where the large wins
//!   come from. The `!tb` variants gain from streaming each `b` row once
//!   per 8 output rows instead of once per row.
//! * [`Backend::bias_act`] runs in one pass instead of add-then-activate.
//! * [`Backend::scaled_masked_softmax`] fuses the scale/mask pass with the
//!   row-max scan (3 passes instead of 4).
//!
//! Row softmax, log-softmax and LayerNorm have no bit-safe pass fusion
//! (e.g. multiplying by `1/sum` instead of dividing, or a one-pass
//! `E[x²]−E[x]²` variance, would change bits), so this backend delegates
//! them to the oracle unchanged.

use super::{Activation, Backend, Reference};

/// Register-tile rows (output rows advanced together per A panel).
const MR: usize = super::TILE_ROWS;
/// Register-tile columns.
const NR: usize = 8;

/// Accumulate an `mr×nr` output tile at `(ri0, j0)` of `block` from a
/// packed A panel (`k×MR`, `p`-major, lanes `ii < mr` valid) and a
/// `p`-major B (`k×n`).
///
/// `from_out` selects the oracle's two accumulation styles: the `!tb`
/// variants add term-by-term onto the existing output (tile preloads the
/// output and stores it back), the `tb` variants form a fresh sum and add
/// it once at the end.
///
/// `#[inline(always)]` so the full-tile call site (literal `MR`/`NR`)
/// const-propagates and the inner loops unroll to straight-line
/// vectorizable code, while the edge call site keeps runtime bounds.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile(
    k: usize,
    ap: &[f32],
    bm: &[f32],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    block: &mut [f32],
    ri0: usize,
    from_out: bool,
) {
    let mut acc = [0.0f32; MR * NR];
    if from_out {
        for ii in 0..mr {
            let o = (ri0 + ii) * n + j0;
            acc[ii * NR..ii * NR + nr].copy_from_slice(&block[o..o + nr]);
        }
    }
    for p in 0..k {
        let arow = &ap[p * MR..p * MR + MR];
        let brow = &bm[p * n + j0..p * n + j0 + nr];
        for ii in 0..mr {
            let av = arow[ii];
            let dst = &mut acc[ii * NR..ii * NR + nr];
            for (o, &bv) in dst.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    if from_out {
        for ii in 0..mr {
            let o = (ri0 + ii) * n + j0;
            block[o..o + nr].copy_from_slice(&acc[ii * NR..ii * NR + nr]);
        }
    } else {
        for ii in 0..mr {
            let o = (ri0 + ii) * n + j0;
            for (d, &v) in block[o..o + nr]
                .iter_mut()
                .zip(acc[ii * NR..ii * NR + nr].iter())
            {
                *d += v;
            }
        }
    }
}

/// The cache-blocked, register-tiled default kernels.
pub struct Blocked;

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

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
    ) {
        debug_assert_eq!(block.len(), (r1 - r0) * n);
        if n == 0 || r1 <= r0 {
            return;
        }
        if k == 0 {
            // Mirror the oracle's degenerate semantics (see module docs).
            if tb {
                for o in block.iter_mut() {
                    *o += 0.0;
                }
            }
            return;
        }
        let from_out = !tb;
        // p-major view of b: the `!tb` variants already store b as k×n; the
        // `tb` variants pack n×k → k×n once per call so every tile streams
        // contiguous rows instead of strided dot products. (A row-parallel
        // 2-D gemm never gets here with `tb`: `kernels` packs once for all
        // of its blocks.)
        let packed_b;
        let bm: &[f32] = if tb {
            let mut bp = crate::pool::take(k * n);
            crate::kernels::transpose_into(b, n, k, &mut bp);
            packed_b = bp;
            &packed_b
        } else {
            packed_b = Vec::new();
            b
        };
        let mut ap = crate::pool::take(k * MR);
        let mut i0 = r0;
        while i0 < r1 {
            let mr = MR.min(r1 - i0);
            // Pack the A panel p-major: ap[p·MR + ii] = a[i0+ii, p]. Lanes
            // ii ≥ mr keep whatever the pool buffer held; the edge tile
            // never reads them.
            if ta {
                for p in 0..k {
                    ap[p * MR..p * MR + mr].copy_from_slice(&a[p * m + i0..p * m + i0 + mr]);
                }
            } else {
                for (ii, arow) in a[i0 * k..(i0 + mr) * k].chunks_exact(k).enumerate() {
                    for (p, &av) in arow.iter().enumerate() {
                        ap[p * MR + ii] = av;
                    }
                }
            }
            let ri0 = i0 - r0;
            let mut j0 = 0;
            while j0 < n {
                let nr = NR.min(n - j0);
                if mr == MR && nr == NR {
                    // Literal bounds → fully unrolled vector tile.
                    tile(k, &ap, bm, n, j0, MR, NR, block, ri0, from_out);
                } else {
                    tile(k, &ap, bm, n, j0, mr, nr, block, ri0, from_out);
                }
                j0 += NR;
            }
            i0 += MR;
        }
        crate::pool::recycle(ap);
        if tb {
            crate::pool::recycle(packed_b);
        }
    }

    fn softmax_rows(&self, src: &[f32], dst: &mut [f32], n: usize) {
        // No bit-safe fusion exists (see module docs) — use the oracle.
        Reference.softmax_rows(src, dst, n);
    }

    fn log_softmax_rows(&self, src: &[f32], dst: &mut [f32], n: usize) {
        Reference.log_softmax_rows(src, dst, n);
    }

    fn layer_norm_rows(&self, x: &[f32], gamma: &[f32], beta: &[f32], dst: &mut [f32], n: usize) {
        Reference.layer_norm_rows(x, gamma, beta, dst, n);
    }

    fn bias_act(&self, a: &[f32], bias: &[f32], act: Activation, dst: &mut [f32]) {
        if dst.is_empty() {
            return;
        }
        // Single fused pass; `act(x + b)` is the same per-element operation
        // sequence as the oracle's add-then-activate double pass.
        for (arow, drow) in a.chunks(bias.len()).zip(dst.chunks_mut(bias.len())) {
            for ((d, &x), &bv) in drow.iter_mut().zip(arow.iter()).zip(bias.iter()) {
                *d = act.apply(x + bv);
            }
        }
    }

    fn scaled_masked_softmax(
        &self,
        a: &[f32],
        scale: f32,
        mask: Option<&[f32]>,
        dst: &mut [f32],
        n: usize,
    ) {
        let mn = mask.map_or(0, |mv| mv.len());
        for (r, (arow, drow)) in a.chunks(n).zip(dst.chunks_mut(n)).enumerate() {
            // Fused pass 1: z = a·scale (+ mask row) while scanning the row
            // max — same per-element ops and max fold order as the oracle.
            let mut mx = f32::NEG_INFINITY;
            match mask {
                Some(mv) => {
                    let mo = (r * n) % mn;
                    let mrow = &mv[mo..mo + n];
                    for ((d, &x), &add) in drow.iter_mut().zip(arow.iter()).zip(mrow.iter()) {
                        let z = x * scale + add;
                        *d = z;
                        mx = mx.max(z);
                    }
                }
                None => {
                    for (d, &x) in drow.iter_mut().zip(arow.iter()) {
                        let z = x * scale;
                        *d = z;
                        mx = mx.max(z);
                    }
                }
            }
            let mut sum = 0.0;
            for d in drow.iter_mut() {
                let e = (*d - mx).exp();
                *d = e;
                sum += e;
            }
            for d in drow.iter_mut() {
                *d /= sum;
            }
        }
    }
}
