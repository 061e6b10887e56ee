//! The production kernels: cache-blocked, register-tiled gemm plus
//! single-pass fused element-wise kernels — bit-identical to the
//! straight-line oracle in `crates/tensor/tests/oracle`.
//!
//! # Why tiling does not change bits
//!
//! The oracle computes every output element as one `p`-ascending addition
//! chain. The blocked gemm computes the *same chain for the same element* —
//! it only changes where the partial sums live (an `8×W` register tile
//! instead of the output buffer) and in what order *different* elements are
//! advanced. Floating-point addition is not reassociated, the operand
//! packing copies values verbatim, and Rust never contracts `a*b + c` into
//! an FMA, so the result bits match the oracle exactly — at every tile
//! width `W` the per-instruction-set builds use ([`TileIsa`](super::TileIsa)).
//!
//! Two oracle quirks need care:
//!
//! * **Zero skipping.** The oracle's `!tb` variants skip `a` elements that
//!   are exactly `±0.0`; the blocked kernel does not. Adding the skipped
//!   `±0·b = ±0` term anyway cannot change an accumulator under
//!   round-to-nearest unless the accumulator is exactly `-0.0` — and an
//!   accumulation chain that starts at `+0.0` can never produce `-0.0`
//!   (IEEE 754 only yields `-0` from `(-0) + (-0)`). Output buffers here
//!   are always `+0`-zeroed (or the result of prior chains with the same
//!   property), and inputs are finite per [`gemm_rows`]' contract, so the
//!   skipped terms are bitwise no-ops.
//! * **Degenerate `k = 0`.** The oracle's `tb` variants still add an empty
//!   sum (`+0.0`) to every output element; the `!tb` variants add nothing.
//!   The blocked kernel mirrors both.
//!
//! # What is faster than the oracle
//!
//! * gemm packs `a` into a `p`-major 8-row panel (and `b` into a `p`-major
//!   matrix for the `tb` variants, once per call — [`crate::kernels`]
//!   already hands a 2-D gemm's transposed `b` over packed, once for all of
//!   its row blocks), turning every variant into the same
//!   unit-stride broadcast-multiply-accumulate over an `8×W` register tile,
//!   `W` one vector register wide: 8 columns in the portable (SSE2) and
//!   AVX2 builds, 16 in the AVX-512F build. The oracle's `tb` variants are
//!   scalar dot-product reductions the autovectorizer cannot touch
//!   (vectorizing an FP reduction would reassociate); the tiled form keeps
//!   each lane's chain separate, so it vectorizes across the output
//!   columns — that is where the large wins come from. The `!tb` variants
//!   gain from streaming each `b` row once per 8 output rows instead of
//!   once per row.
//! * Every tile runs at full width: the last `n mod W` columns of `b` are
//!   copied once per call into a zero-padded `W`-column strip, whose tile
//!   runs on a padded copy of its output corner. The padding lanes compute
//!   products nobody stores; no stored lane ever sees them.
//! * A partial row panel runs on tiles of the rows it has: its rows — every
//!   `B = 1` product, like a served request's recurrent `h·U` and its
//!   scorer, and the training tail's last few rows — go one row at a time
//!   through [`row_tile`]s `4·W` lanes wide, reading `a` in place: four
//!   independent chains per row instead of an 8-row tile with padding rows.
//!   Each output element is still its one `p`-ascending chain from the
//!   same start.
//! * [`bias_act_rows`] runs in one pass instead of add-then-activate.
//! * [`scaled_masked_softmax_rows`] fuses the scale/mask pass with the row-max
//!   scan.
//! * Softmax and scale+mask+softmax split the oracle's
//!   exponential-and-sum loop. Every row's `x − max` is written first; then
//!   one pass over the call's whole output takes the exponentials
//!   ([`crate::math::exp`], no reduction) at the vector width of the
//!   [`TileIsa`](super::TileIsa) build; then each row is summed and
//!   divided. The row max and the row sum stay one scalar chain each in the
//!   oracle's order. Every element goes through the oracle's operations,
//!   so the bits are its bits. Their rows are short (≤ the catalogue of a
//!   toy run, the sequence length), and the out-of-order core overlaps
//!   consecutive rows' chains.
//! * The cross-entropy nodes reduce rows stored as columns
//!   ([`log_sum_exp_cols`]): `W` rows' max and sum chains advance in one
//!   register per index, each chain still one chain in index order, with
//!   the exponentials taken inside the sum at the build's width. A
//!   catalogue row (thousands of entries) is one long serial chain, so
//!   rows side by side are what keeps the adder busy. The nodes keep their
//!   logits in that layout. The max is the compare `v > acc` rather than
//!   `f32::max` — written as a fold over `f32::max` the vectoriser turns
//!   the loop inside out, gathering across indices. The two differ at most
//!   in which zero a `±0` tie keeps, which no output can see: tied zeros
//!   exponentiate to 1 each, so the sum is at least 2 and
//!   `ln(sum) + max` ignores the max's sign.
//!
//! [`layer_norm_rows`] has no bit-safe pass fusion (a one-pass
//! `E[x²]−E[x]²` variance, or multiplying by `1/σ` differently, would
//! change bits), so it is the oracle's loop.

use super::{lanes, per_isa, store_lanes};
use super::{Activation, LN_EPS};
use crate::math;

/// Register-tile rows (output rows advanced together per A panel).
const MR: usize = super::TILE_ROWS;

/// Accumulate one `MR×W` register tile over the whole contraction, from a
/// packed A panel (`k×MR`, `p`-major) and the `W` columns of a `p`-major B
/// starting at `b` (row stride `ldb`), into the `MR×W` corner of `c` (row
/// stride `ldc`).
///
/// `from_out` selects the oracle's two accumulation styles: the `!tb`
/// variants add term-by-term onto the existing output (tile preloads the
/// output and stores it back), the `tb` variants form a fresh sum and add
/// it once at the end.
///
/// The eight tile rows are spelled out rather than looped over: a row
/// loop is one the vectoriser may pick to vectorise *across rows*, which
/// keeps the accumulator in memory behind gathers and scatters (the
/// AVX-512F build did, at a tenth of the speed). Spelled out, each row is
/// one `W`-lane multiply and add per `p`, and the accumulator stays in
/// vector registers. `#[inline(always)]` compiles it inside each build.
#[inline(always)]
fn tile<const W: usize>(
    k: usize,
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    from_out: bool,
) {
    let mut acc = [[0.0f32; W]; MR];
    if from_out {
        for (ii, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[ii * ldc..ii * ldc + W]);
        }
    }
    for p in 0..k {
        let a: &[f32; MR] = ap[p * MR..p * MR + MR].try_into().expect("MR rows");
        let brow: &[f32; W] = b[p * ldb..p * ldb + W].try_into().expect("W columns");
        let [r0, r1, r2, r3, r4, r5, r6, r7] = &mut acc;
        row_axpy(r0, a[0], brow);
        row_axpy(r1, a[1], brow);
        row_axpy(r2, a[2], brow);
        row_axpy(r3, a[3], brow);
        row_axpy(r4, a[4], brow);
        row_axpy(r5, a[5], brow);
        row_axpy(r6, a[6], brow);
        row_axpy(r7, a[7], brow);
    }
    for (ii, row) in acc.iter().enumerate() {
        let dst = &mut c[ii * ldc..ii * ldc + W];
        if from_out {
            dst.copy_from_slice(row);
        } else {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d += v;
            }
        }
    }
}

/// `row += av · brow`, lane by lane: one term of each lane's chain.
#[inline(always)]
fn row_axpy<const W: usize>(row: &mut [f32; W], av: f32, brow: &[f32; W]) {
    for (o, &bv) in row.iter_mut().zip(brow) {
        *o += av * bv;
    }
}

/// Accumulate one output row's `L` lanes over the whole contraction: the
/// row's `a` values at `ar[p·lda]`, the `L` columns of a `p`-major B
/// starting at `b` (row stride `ldb`), into `c`. Each lane is one output
/// element's chain, as in [`tile`]; an `L` of several `W` gives the row
/// several independent chains.
#[inline(always)]
fn row_tile<const L: usize>(
    k: usize,
    ar: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32; L],
    from_out: bool,
) {
    let mut acc = if from_out { *c } else { [0.0f32; L] };
    for p in 0..k {
        let brow: &[f32; L] = b[p * ldb..p * ldb + L].try_into().expect("L columns");
        row_axpy(&mut acc, ar[p * lda], brow);
    }
    if from_out {
        *c = acc;
    } else {
        for (d, &v) in c.iter_mut().zip(&acc) {
            *d += v;
        }
    }
}

/// The columns of the `p`-major `k×n` B past its last whole `W` block, as a
/// `k×W` strip zero-padded past `n` (`None` when `W` divides `n`), and
/// where they start.
#[inline(always)]
fn edge_strip<const W: usize>(bm: &[f32], k: usize, n: usize) -> (usize, Option<Vec<f32>>) {
    let full = n - n % W;
    let strip = (full < n).then(|| {
        let mut strip = crate::pool::take_zeroed(k * W);
        for (srow, brow) in strip.chunks_exact_mut(W).zip(bm.chunks_exact(n)) {
            srow[..n - full].copy_from_slice(&brow[full..]);
        }
        strip
    });
    (full, strip)
}

/// The whole 8-row panels `[r0, r1)` of `a · bm` into `block` with `8×W`
/// tiles: `bm` is the `p`-major (`k×n`) B, `a` is `m×k` (`k×m` when `ta`),
/// `k, n ≥ 1`, and `MR` divides `r1 − r0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panels<const W: usize>(
    a: &[f32],
    ta: bool,
    bm: &[f32],
    m: usize,
    k: usize,
    n: usize,
    from_out: bool,
    block: &mut [f32],
    r0: usize,
    r1: usize,
) {
    debug_assert_eq!((r1 - r0) % MR, 0);
    // The columns past the last whole `W` block, zero-padded to `W` once
    // for every row panel.
    let (full, edge) = edge_strip::<W>(bm, k, n);
    let mut ap = crate::pool::take(k * MR);
    for i0 in (r0..r1).step_by(MR) {
        // Pack the A panel p-major: ap[p·MR + ii] = a[i0+ii, p].
        if ta {
            for (p, dst) in ap.chunks_exact_mut(MR).enumerate() {
                dst.copy_from_slice(&a[p * m + i0..p * m + i0 + MR]);
            }
        } else {
            for (ii, arow) in a[i0 * k..(i0 + MR) * k].chunks_exact(k).enumerate() {
                for (p, &av) in arow.iter().enumerate() {
                    ap[p * MR + ii] = av;
                }
            }
        }
        let ri0 = i0 - r0;
        for j0 in (0..full).step_by(W) {
            tile::<W>(
                k,
                &ap,
                &bm[j0..],
                n,
                &mut block[ri0 * n + j0..],
                n,
                from_out,
            );
        }
        if let Some(strip) = edge.as_deref() {
            // The edge tile runs on a zero-padded copy of its corner.
            let nr = n - full;
            let mut ct = [[0.0f32; W]; MR];
            for (ii, row) in ct.iter_mut().enumerate() {
                let o = (ri0 + ii) * n + full;
                row[..nr].copy_from_slice(&block[o..o + nr]);
            }
            tile::<W>(k, &ap, strip, W, ct.as_flattened_mut(), W, from_out);
            for (ii, row) in ct.iter().enumerate() {
                let o = (ri0 + ii) * n + full;
                block[o..o + nr].copy_from_slice(&row[..nr]);
            }
        }
    }
    crate::pool::recycle(ap);
    if let Some(strip) = edge {
        crate::pool::recycle(strip);
    }
}

/// The rows of `block`, rows `r0..` of `a · bm`, one at a time, each on
/// [`row_tile`]s: `L` columns while they fit, then `W`, then the zero-padded
/// edge strip through a padded copy of the row's tail. Operands as in
/// [`panels`]; no A panel is packed, a row's `a` values are read in place.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows<const W: usize, const L: usize>(
    a: &[f32],
    ta: bool,
    bm: &[f32],
    m: usize,
    k: usize,
    n: usize,
    from_out: bool,
    block: &mut [f32],
    r0: usize,
) {
    let (full, edge) = edge_strip::<W>(bm, k, n);
    for (ri, c) in block.chunks_exact_mut(n).enumerate() {
        let i = r0 + ri;
        let (ar, lda) = if ta { (&a[i..], m) } else { (&a[i * k..], 1) };
        let mut j0 = 0;
        while full - j0 >= L {
            let dst: &mut [f32; L] = (&mut c[j0..j0 + L]).try_into().expect("L lanes");
            row_tile::<L>(k, ar, lda, &bm[j0..], n, dst, from_out);
            j0 += L;
        }
        while j0 < full {
            let dst: &mut [f32; W] = (&mut c[j0..j0 + W]).try_into().expect("W lanes");
            row_tile::<W>(k, ar, lda, &bm[j0..], n, dst, from_out);
            j0 += W;
        }
        if let Some(strip) = edge.as_deref() {
            let mut ct: [f32; W] = lanes(&c[full..]);
            row_tile::<W>(k, ar, lda, strip, W, &mut ct, from_out);
            store_lanes(&mut c[full..], &ct);
        }
    }
    if let Some(strip) = edge {
        crate::pool::recycle(strip);
    }
}

per_isa! {
    /// [`rows`] in the active build, `4·W` lanes a row tile.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows_one_by_one(
        a: &[f32],
        ta: bool,
        bm: &[f32],
        m: usize,
        k: usize,
        n: usize,
        from_out: bool,
        block: &mut [f32],
        r0: usize,
    ) = |W| rows::<W, { 4 * W }>(a, ta, bm, m, k, n, from_out, block, r0);
}

per_isa! {
    /// [`panels`] in the active build, at its tile width.
    #[allow(clippy::too_many_arguments)]
    fn gemm_panels(
        a: &[f32],
        ta: bool,
        bm: &[f32],
        m: usize,
        k: usize,
        n: usize,
        from_out: bool,
        block: &mut [f32],
        r0: usize,
        r1: usize,
    ) = |W| panels::<W>(a, ta, bm, m, k, n, from_out, block, r0, r1);
}

/// `x ← exp(x)` over a whole buffer, `W` lanes at a time through
/// register-sized arrays, the last block zero-padded. One call covers every
/// row of a kernel call, so a short row costs no dispatch and no partial
/// block of its own. (Left to the vectoriser, a loop over one 50-wide
/// attention row ran entirely in its scalar remainder: the AVX-512F build's
/// vector body takes 64 elements.)
#[inline(always)]
fn exp_in_place_in<const W: usize>(xs: &mut [f32]) {
    for block in xs.chunks_mut(W) {
        let x = lanes::<W>(block);
        let mut e = [0.0; W];
        for (o, &v) in e.iter_mut().zip(&x) {
            *o = math::exp(v);
        }
        store_lanes(block, &e);
    }
}

per_isa! {
    /// [`exp_in_place_in`] in the active build.
    fn exp_in_place(xs: &mut [f32]) = |W| exp_in_place_in::<W>(xs);
}

/// `out[c] = max_j xt[j·ld + c]` for the `out.len()` leading columns of the
/// row-major `n × ld` `xt`: column `c` is one row of a softmax, and its max
/// is the oracle's, one fold from `−∞` in `j` order (as the compare
/// `v > acc`, see the module docs). `W` columns share a register, so `W`
/// rows' chains advance together; that changes which register holds a
/// chain, never its order.
#[inline(always)]
fn col_max_in<const W: usize>(xt: &[f32], n: usize, ld: usize, out: &mut [f32]) {
    for (c0, o) in (0..).step_by(W).zip(out.chunks_mut(W)) {
        let w = o.len();
        let mut acc = [f32::NEG_INFINITY; W];
        for j in 0..n {
            let x = lanes::<W>(&xt[j * ld + c0..j * ld + c0 + w]);
            for (a, &v) in acc.iter_mut().zip(&x) {
                *a = if v > *a { v } else { *a };
            }
        }
        store_lanes(o, &acc);
    }
}

/// `out[c] = −0 + Σ_j exp(xt[j·ld + c] − shift[c])` for the `out.len()`
/// leading columns of the `n × ld` `xt`, one chain per column in `j` order,
/// `W` columns to a register as in [`col_max_in`], the exponentials at the
/// build's width.
#[inline(always)]
fn col_sum_exp_in<const W: usize>(xt: &[f32], n: usize, ld: usize, shift: &[f32], out: &mut [f32]) {
    for (c0, o) in (0..).step_by(W).zip(out.chunks_mut(W)) {
        let w = o.len();
        let m = lanes::<W>(&shift[c0..c0 + w]);
        let mut acc = [-0.0; W];
        for j in 0..n {
            let x = lanes::<W>(&xt[j * ld + c0..j * ld + c0 + w]);
            for ((a, &v), &mv) in acc.iter_mut().zip(&x).zip(&m) {
                *a += math::exp(v - mv);
            }
        }
        store_lanes(o, &acc);
    }
}

per_isa! {
    /// [`col_max_in`] in the active build.
    fn col_max(xt: &[f32], n: usize, ld: usize, out: &mut [f32]) =
        |W| col_max_in::<W>(xt, n, ld, out);
}

per_isa! {
    /// [`col_sum_exp_in`] in the active build.
    fn col_sum_exp(xt: &[f32], n: usize, ld: usize, shift: &[f32], out: &mut [f32]) =
        |W| col_sum_exp_in::<W>(xt, n, ld, shift, out);
}

/// `lse[c] = ln(Σ_j exp(x − max)) + max` of each of the `lse.len()` rows
/// stored as the leading columns of the `n × ld` `xt`: the oracle
/// log-softmax's log-sum-exp, its max and its sum each one chain in index
/// order ([`col_max`], [`col_sum_exp`]). The sum starts from `−0`, as
/// `Iterator::sum` does.
pub fn log_sum_exp_cols(xt: &[f32], n: usize, ld: usize, lse: &mut [f32]) {
    col_max(xt, n, ld, lse);
    let mut sum = crate::pool::take(lse.len());
    col_sum_exp(xt, n, ld, lse, &mut sum);
    for (l, &s) in lse.iter_mut().zip(&sum) {
        *l += math::ln(s);
    }
    crate::pool::recycle(sum);
}

/// The cross-entropy gradient over logits stored as columns, as the
/// reference chain (log-softmax, pick, weight, mean, negate) builds it:
/// `gt[j·ld + c] = gv − exp(xt[j·ld + c] − lse[c]) · gsum[c]`, where `gv`
/// is `g[c]` at `j = targets[c]` and `+0` elsewhere, and `gsum[c]` is the
/// chain's row sum of those `gv`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn ce_grad_cols_in<const W: usize>(
    xt: &[f32],
    n: usize,
    ld: usize,
    lse: &[f32],
    gsum: &[f32],
    targets: &[usize],
    g: &[f32],
    gt: &mut [f32],
) {
    let rows = lse.len();
    for (xr, gr) in xt.chunks(ld).zip(gt.chunks_mut(ld)).take(n) {
        for c0 in (0..rows).step_by(W) {
            let w = W.min(rows - c0);
            let x = lanes::<W>(&xr[c0..c0 + w]);
            let l = lanes::<W>(&lse[c0..c0 + w]);
            let s = lanes::<W>(&gsum[c0..c0 + w]);
            let mut d = [0.0; W];
            for (((o, &xv), &lv), &sv) in d.iter_mut().zip(&x).zip(&l).zip(&s) {
                *o = 0.0 - math::exp(xv - lv) * sv;
            }
            store_lanes(&mut gr[c0..c0 + w], &d);
        }
    }
    for (c, (&t, &gv)) in targets.iter().zip(g).enumerate() {
        let o = t * ld + c;
        gt[o] = gv - math::exp(xt[o] - lse[c]) * gsum[c];
    }
}

per_isa! {
    /// [`ce_grad_cols_in`] in the active build.
    #[allow(clippy::too_many_arguments)]
    pub fn ce_grad_cols(
        xt: &[f32],
        n: usize,
        ld: usize,
        lse: &[f32],
        gsum: &[f32],
        targets: &[usize],
        g: &[f32],
        gt: &mut [f32],
    ) = |W| ce_grad_cols_in::<W>(xt, n, ld, lse, gsum, targets, g, gt);
}

/// The oracle's row max: one `f32::max` fold from `−∞` in index order.
fn row_max(row: &[f32]) -> f32 {
    row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// `dst = src − max src`: the argument of every exponential of a softmax
/// row, the oracle's `s − mx`.
fn shifted(src: &[f32], dst: &mut [f32]) {
    let mx = row_max(src);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s - mx;
    }
}

/// `row /= Σ row`, the sum one `+0`-started chain in index order.
fn normalise(row: &mut [f32]) {
    let mut sum = 0.0;
    for &v in row.iter() {
        sum += v;
    }
    for v in row {
        *v /= sum;
    }
}

/// Compute output rows `[r0, r1)` of `out[m×n] (+)= a[m×k] · b[k×n]` into
/// `block` (the slice for exactly those rows), with optional operand
/// transposes (`ta`: `a` stored `k×m`; `tb`: `b` stored `n×k`).
///
/// Accumulation-chain contract: the `!tb` variants add each `p` term
/// directly onto the existing output value; the `tb` variants form a fresh
/// `p`-ascending sum and add it to the output once. Per output element the
/// operation sequence is fixed by the shape alone, so any row partition of
/// the same product is bit-identical. Inputs are assumed finite (no
/// ±inf/NaN); score masking uses large finite values (−1e9), never
/// infinities.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows(
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
    // p-major view of b: the `!tb` variants already store b as k×n; the
    // `tb` variants pack n×k → k×n once per call so every tile streams
    // contiguous rows instead of strided dot products. (A row-parallel
    // 2-D gemm never gets here with `tb`: `kernels` packs once for all
    // of its blocks.)
    let packed = tb.then(|| {
        let mut bp = crate::pool::take(k * n);
        crate::kernels::transpose_into(b, n, k, &mut bp);
        bp
    });
    let bm = packed.as_deref().unwrap_or(b);
    // Whole 8-row panels, then the rows of a partial last one on row tiles.
    let split = r1 - (r1 - r0) % MR;
    let (panel_rows, short_rows) = block.split_at_mut((split - r0) * n);
    if split > r0 {
        gemm_panels(a, ta, bm, m, k, n, !tb, panel_rows, r0, split);
    }
    if split < r1 {
        gemm_rows_one_by_one(a, ta, bm, m, k, n, !tb, short_rows, split);
    }
    if let Some(bp) = packed {
        crate::pool::recycle(bp);
    }
}

/// Row-wise numerically-stable softmax: `src` and `dst` are `rows × n`
/// with `n ≥ 1`.
pub fn softmax_rows(src: &[f32], dst: &mut [f32], n: usize) {
    for (srow, drow) in src.chunks(n).zip(dst.chunks_mut(n)) {
        shifted(srow, drow);
    }
    exp_in_place(dst);
    dst.chunks_mut(n).for_each(normalise);
}

/// Row-wise LayerNorm with scale/shift: `gamma`/`beta` have length `n`.
pub fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], dst: &mut [f32], n: usize) {
    for (src, dst) in x.chunks(n).zip(dst.chunks_mut(n)) {
        let mean = src.iter().sum::<f32>() / n as f32;
        let var = src.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        for j in 0..n {
            dst[j] = gamma[j] * (src[j] - mean) * inv + beta[j];
        }
    }
}

/// Fused `dst[i] = act(a[i] + bias[i % bias.len()])` (suffix broadcast).
pub fn bias_act_rows(a: &[f32], bias: &[f32], act: Activation, dst: &mut [f32]) {
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

/// Fused `dst = softmax_rows(a * scale + broadcast(mask))` over rows of
/// length `n`; `mask` (when present) has length a multiple of `n` and is
/// tiled over the leading rows (suffix broadcast).
pub fn scaled_masked_softmax_rows(
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
        for d in drow.iter_mut() {
            *d -= mx;
        }
    }
    exp_in_place(dst);
    dst.chunks_mut(n).for_each(normalise);
}
