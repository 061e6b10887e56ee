//! Numeric kernels backing the autograd ops.
//!
//! These are plain functions over [`Tensor`] values; all differentiation logic
//! lives in [`crate::graph`]. Shapes in this workspace are small (d ≤ 128,
//! T ≤ 200), so what a kernel costs is mostly its shape and its vector
//! width: products go to the [`crate::backend`]'s register-tiled gemm,
//! compiled for the widest instruction set the host runs
//! ([`crate::backend::TileIsa`]), and a parallel region starts only above its
//! kernel's measured crossover (the `*_PAR_WORK` gates below).
//!
//! # One gemm per product
//!
//! Every matrix product reaches the [`crate::backend`] as one well-shaped
//! gemm, because on these shapes the call's *shape* costs more than its
//! flops:
//!
//! * a sequence-wide `Linear` (`B×m×k · k×n`, rhs broadcast over the batch)
//!   is one `(B·m)×k` gemm for the forward, `dX` and `dW` — `dW`'s chain
//!   over the contraction index is the batch loop's chain, ascending from
//!   zero;
//! * [`matmul_backward`] computes only the gradients the tape asks for;
//! * parallel row blocks are whole multiples of the gemm's 8-row tile;
//! * a transposed operand is packed once per gemm, not once per row block:
//!   every gemm writes into a `+0`-zeroed output, where the transposed
//!   variant's "fresh sum, then add" and the plain variant's "add onto the
//!   output" build the same `+0`-started chain.
//!
//! Only the lhs-broadcast case (`m×k · B×k×n`) keeps a sequential batch
//! loop: its `dA` is a sum of per-batch fresh sums, not one chain.
//!
//! # Element-wise passes at the vector width
//!
//! Every transcendental here is [`crate::math`]'s, never libm's. The
//! element-wise passes that carry them in bulk are compiled per
//! instruction set like the gemm tile: [`lstm_seq`]'s gate pass and
//! [`lstm_seq_backward`]'s BPTT pass are one `per_isa!` call per step per
//! sequence chunk, which splits each gate-packed row into its four `h`-wide
//! planes and takes `W` hidden units at a time through register-sized lane
//! arrays (`W` the build's width; a row's last partial block zero-padded).
//! Each lane runs the scalar chain unchanged, so every build gives the
//! scalar bits.

use crate::backend::{
    bias_act_rows, ce_grad_cols, gemm_rows, lanes, layer_norm_rows, log_sum_exp_cols, per_isa,
    scaled_masked_softmax_rows, softmax_rows, store_lanes, Activation, LN_EPS, TILE_ROWS,
};
use crate::math;
use crate::sparse::{CsrMatrix, CsrRows};
use crate::tensor::Tensor;

/// Element-wise zip of two same-shape tensors.
pub fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "zip shape mismatch");
    let mut data = crate::pool::take(a.len());
    for ((o, &x), &y) in data.iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
    Tensor::new(data, a.shape())
}

/// Zip where `b`'s shape is a suffix of `a`'s shape; `b` is tiled over the
/// leading dimensions of `a`, one `b`-sized row of `a` at a time.
pub fn bcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (ash, bsh) = (a.shape(), b.shape());
    assert!(
        bsh.len() <= ash.len() && ash[ash.len() - bsh.len()..] == *bsh,
        "broadcast: {bsh:?} is not a suffix of {ash:?}"
    );
    let mut data = crate::pool::take(a.len());
    match b.data() {
        // A 0-sized suffix leaves `a` empty too.
        [] => {}
        &[y] => {
            for (o, &x) in data.iter_mut().zip(a.data()) {
                *o = f(x, y);
            }
        }
        bd => {
            for (orow, arow) in data
                .chunks_exact_mut(bd.len())
                .zip(a.data().chunks_exact(bd.len()))
            {
                for ((o, &x), &y) in orow.iter_mut().zip(arow).zip(bd) {
                    *o = f(x, y);
                }
            }
        }
    }
    Tensor::new(data, ash)
}

/// Sum a tensor down to a suffix shape (inverse of suffix broadcasting):
/// each output element is one `+0`-started chain over the leading rows in
/// order.
pub fn reduce_to_suffix(a: &Tensor, suffix: &[usize]) -> Tensor {
    let bn: usize = suffix.iter().product();
    let mut out = Tensor::zeros(suffix);
    match out.data_mut() {
        [] => {}
        [o] => {
            for &x in a.data() {
                *o += x;
            }
        }
        od => {
            for row in a.data().chunks_exact(bn) {
                for (o, &x) in od.iter_mut().zip(row) {
                    *o += x;
                }
            }
        }
    }
    out
}

// The parallel gates: the least work (flops, counted from the shape) at
// which a kernel's parts run faster on the pool than inline. Each is the
// measured crossover of its kernel family, inline vs two threads, on the
// AVX-512F build (2-cpu x86-64 host, best of 7 runs); a gate decides only
// *whether* to dispatch — the partition comes from the shape — so no bit
// depends on it.

/// A 2-D gemm's row blocks: `197×32·32×32` (0.4 M flops) takes 9.2 µs
/// inline and 16.0 µs on two threads, `1024×32·32×32` (2.1 M) 49.3 vs
/// 49.9 µs, `512×32·32×128` (4.2 M) 79 vs 70 µs, `3200×32·32×128` (26 M)
/// 561 vs 392 µs.
const GEMM_PAR_WORK: usize = 2 << 20;

/// A batched gemm's per-batch products, each too small to run at the
/// tile's full rate: `16×(30×32·32×30)` (0.9 M) 31 vs 36 µs,
/// `64×(20×32·32×20)` (1.6 M) 93 vs 76 µs, `64×(50×32·32×50)` (10 M) 348
/// vs 245 µs.
const BATCH_PAR_WORK: usize = 1 << 20;

/// [`lstm_seq`]'s sequence chunks, counted as `2·B·T·h·4h`: `B=32, T=2,
/// h=32` (0.52 M) 39 vs 43 µs, `B=16, T=5` (0.66 M) 54 vs 57 µs, `T=9`
/// (1.2 M) 100 vs 94 µs, `B=64, T=2` (1.0 M) 80 vs 67 µs, `T=3` (1.6 M) 129
/// vs 109 µs.
const LSTM_PAR_WORK: usize = 1 << 20;

/// [`lstm_seq_backward`]'s BPTT chunks, counted the same way: `B=64, T=3`
/// (1.6 M) 141 vs 148 µs, `B=32, T=9` (2.4 M) 224 vs 222 µs, `B=64, T=5`
/// (2.6 M) 236 vs 233 µs, `T=6` (3.1 M) 284 vs 266 µs, `T=9` (4.7 M) 435
/// vs 362 µs.
const BPTT_PAR_WORK: usize = 3 << 20;

/// [`spmm`]'s row blocks, counted as `2·nnz·d`; every term gathers a row:
/// `197×384`, 32 entries a row, `d = 32` (0.4 M) 29.4 vs 29.7 µs,
/// `384×384` (0.8 M) 48.8 vs 42.2 µs.
const SPMM_PAR_WORK: usize = 512 << 10;

/// Whether `work` clears a parallel `gate` on a pool with a second thread.
fn par_pays(work: usize, gate: usize) -> bool {
    work >= gate && ssdrec_runtime::threads() > 1
}

/// Output-row chunking for parallel gemm: about a 32nd of the rows, rounded
/// up to whole [`TILE_ROWS`] tiles. Derived from `m` alone — never from the
/// thread count — so chunk boundaries (and hence results) are identical
/// under any `SSDREC_THREADS`.
fn gemm_row_grain(m: usize) -> usize {
    m.div_ceil(32).next_multiple_of(TILE_ROWS)
}

/// Side of [`transpose_into`]'s square tiles.
const TRANSPOSE_TILE: usize = 32;

/// `dst[cols×rows] = srcᵀ` for a row-major `src[rows×cols]` in 32×32 tiles,
/// so strided writes stay in 32 cache lines. Median µs of [`transpose_last`]
/// (allocation included), row-by-row vs tiled, 10 alternating release runs,
/// 2-cpu AVX-512F host: `64×2 601` 376 vs 248, `16×2 601` 75 vs 60,
/// `2 601×16` 65 vs 62, `256×256` 248 vs 93.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let i1 = (i0 + TRANSPOSE_TILE).min(rows);
        for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(cols);
            for i in i0..i1 {
                let row = &src[i * cols + j0..i * cols + j1];
                for (j, &x) in (j0..j1).zip(row) {
                    dst[j * rows + i] = x;
                }
            }
        }
    }
}

/// `out[m×n] = a[m×k] · b[k×n]` into a `+0`-zeroed `out`, with optional
/// operand transposes.
///
/// A transposed `b` (stored `n×k`) is packed to `k×n` once, and every row
/// block runs the plain variant on it — bit-equal to the transposed one on a
/// zeroed output (module docs). Products with at least two row blocks of
/// work run on the [`ssdrec_runtime`] pool; both paths call [`gemm_rows`],
/// whose per-element accumulation order is fixed, so results are
/// bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
fn gemm(a: &[f32], ta: bool, b: &[f32], tb: bool, m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    let packed = tb.then(|| {
        let mut bp = crate::pool::take(k * n);
        transpose_into(b, n, k, &mut bp);
        bp
    });
    let b = packed.as_deref().unwrap_or(b);
    let rows = gemm_row_grain(m);
    if m > rows && par_pays(2 * m * k * n, GEMM_PAR_WORK) {
        ssdrec_runtime::parallel_chunks_mut(out, rows * n, |ci, block| {
            let r0 = ci * rows;
            let r1 = (r0 + rows).min(m);
            gemm_rows(a, ta, b, false, m, k, n, block, r0, r1);
        });
    } else {
        gemm_rows(a, ta, b, false, m, k, n, out, 0, m);
    }
    if let Some(bp) = packed {
        crate::pool::recycle(bp);
    }
}

/// Run `f(batch, out_block)` over every batch's disjoint output block,
/// in parallel when `work` (flops) clears [`BATCH_PAR_WORK`]:
/// [`for_each_part`] with one part per batch.
fn for_each_batch(
    block_len: usize,
    work: usize,
    out: &mut [f32],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if block_len == 0 {
        // Degenerate batches (some dim is 0) have no output to write, and
        // `chunks_mut(0)` panics even on an empty slice.
        return;
    }
    let mut blocks: Vec<_> = out.chunks_mut(block_len).enumerate().collect();
    for_each_part(&mut blocks, par_pays(work, BATCH_PAR_WORK), |(i, block)| {
        f(*i, block)
    });
}

/// Run `f` over every part, on the pool when `par`. Parts are disjoint and
/// fixed by the caller from the shape alone, so the result matches the
/// sequential loop bit for bit.
fn for_each_part<T: Send>(parts: &mut [T], par: bool, f: impl Fn(&mut T) + Sync) {
    if parts.len() > 1 && par {
        ssdrec_runtime::parallel_chunks_mut(parts, 1, |_, p| f(&mut p[0]));
    } else {
        parts.iter_mut().for_each(f);
    }
}

/// Shape cases supported by [`matmul`].
enum MatCase {
    /// `(rows×k)(k×n)`: the 2-D product, and the rhs-broadcast
    /// `(B×m×k)(k×n)` flattened to `rows = B·m` — one gemm either way.
    Flat(usize, usize, usize),
    /// `(B×m×k)(B×k×n)`
    ThreeThree(usize, usize, usize, usize),
    /// `(m×k)(B×k×n)` — lhs broadcast over batch.
    TwoThree(usize, usize, usize, usize),
}

fn mat_case(a: &Tensor, b: &Tensor) -> MatCase {
    match (a.ndim(), b.ndim()) {
        (2 | 3, 2) => {
            let (lead, k) = a.shape().split_at(a.ndim() - 1);
            let (k2, n) = b.dims2();
            assert_eq!(
                k[0],
                k2,
                "matmul inner dims: {:?} x {:?}",
                a.shape(),
                b.shape()
            );
            MatCase::Flat(lead.iter().product(), k2, n)
        }
        (3, 3) => {
            let (ba, m, k) = a.dims3();
            let (bb, k2, n) = b.dims3();
            assert_eq!(ba, bb, "batched matmul batch dims");
            assert_eq!(
                k,
                k2,
                "matmul inner dims: {:?} x {:?}",
                a.shape(),
                b.shape()
            );
            MatCase::ThreeThree(ba, m, k, n)
        }
        (2, 3) => {
            let (m, k) = a.dims2();
            let (bb, k2, n) = b.dims3();
            assert_eq!(
                k,
                k2,
                "matmul inner dims: {:?} x {:?}",
                a.shape(),
                b.shape()
            );
            MatCase::TwoThree(bb, m, k, n)
        }
        (da, db) => panic!("matmul unsupported ranks {da}/{db}"),
    }
}

/// Matrix product with rank promotion (see [`crate::graph::Graph::matmul`]).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    match mat_case(a, b) {
        MatCase::Flat(rows, k, n) => {
            let mut shape = a.shape().to_vec();
            *shape.last_mut().expect("rank ≥ 2") = n;
            let mut out = Tensor::zeros(&shape);
            gemm(a.data(), false, b.data(), false, rows, k, n, out.data_mut());
            out
        }
        MatCase::ThreeThree(bs, m, k, n) => {
            let mut out = Tensor::zeros(&[bs, m, n]);
            for_each_batch(m * n, 2 * bs * m * k * n, out.data_mut(), |i, block| {
                gemm_rows(
                    &a.data()[i * m * k..(i + 1) * m * k],
                    false,
                    &b.data()[i * k * n..(i + 1) * k * n],
                    false,
                    m,
                    k,
                    n,
                    block,
                    0,
                    m,
                );
            });
            out
        }
        MatCase::TwoThree(bs, m, k, n) => {
            let mut out = Tensor::zeros(&[bs, m, n]);
            for_each_batch(m * n, 2 * bs * m * k * n, out.data_mut(), |i, block| {
                gemm_rows(
                    a.data(),
                    false,
                    &b.data()[i * k * n..(i + 1) * k * n],
                    false,
                    m,
                    k,
                    n,
                    block,
                    0,
                    m,
                );
            });
            out
        }
    }
}

/// Gradients of [`matmul`] w.r.t. `(a, b)` given the output gradient, each
/// computed only when its `need` flag is set — the tape asks only for the
/// operands that require one, so a constant operand costs no gemm.
pub fn matmul_backward(
    a: &Tensor,
    b: &Tensor,
    gout: &Tensor,
    need: [bool; 2],
) -> [Option<Tensor>; 2] {
    let [need_a, need_b] = need;
    match mat_case(a, b) {
        MatCase::Flat(rows, k, n) => [
            // dA = dC · Bᵀ
            need_a.then(|| {
                let mut ga = Tensor::zeros(a.shape());
                gemm(
                    gout.data(),
                    false,
                    b.data(),
                    true,
                    rows,
                    n,
                    k,
                    ga.data_mut(),
                );
                ga
            }),
            // dB = Aᵀ · dC: one chain over all `rows`, ascending from zero —
            // the chain the rhs-broadcast case's batch loop built.
            need_b.then(|| {
                let mut gb = Tensor::zeros(&[k, n]);
                gemm(
                    a.data(),
                    true,
                    gout.data(),
                    false,
                    k,
                    rows,
                    n,
                    gb.data_mut(),
                );
                gb
            }),
        ],
        // Both gradients are per-batch disjoint.
        MatCase::ThreeThree(bs, m, k, n) => [
            need_a.then(|| {
                let mut ga = Tensor::zeros(&[bs, m, k]);
                for_each_batch(m * k, 2 * bs * m * n * k, ga.data_mut(), |i, block| {
                    gemm_rows(
                        &gout.data()[i * m * n..(i + 1) * m * n],
                        false,
                        &b.data()[i * k * n..(i + 1) * k * n],
                        true,
                        m,
                        n,
                        k,
                        block,
                        0,
                        m,
                    );
                });
                ga
            }),
            need_b.then(|| {
                let mut gb = Tensor::zeros(&[bs, k, n]);
                for_each_batch(k * n, 2 * bs * k * m * n, gb.data_mut(), |i, block| {
                    gemm_rows(
                        &a.data()[i * m * k..(i + 1) * m * k],
                        true,
                        &gout.data()[i * m * n..(i + 1) * m * n],
                        false,
                        k,
                        m,
                        n,
                        block,
                        0,
                        k,
                    );
                });
                gb
            }),
        ],
        MatCase::TwoThree(bs, m, k, n) => [
            // dA is a sum of per-batch fresh sums `dC_i · B_iᵀ`, added in
            // batch order: a sequential batch loop, one zeroed gemm each.
            need_a.then(|| {
                let mut ga = Tensor::zeros(&[m, k]);
                let mut fresh = crate::pool::take(m * k);
                for i in 0..bs {
                    fresh.fill(0.0);
                    gemm(
                        &gout.data()[i * m * n..(i + 1) * m * n],
                        false,
                        &b.data()[i * k * n..(i + 1) * k * n],
                        true,
                        m,
                        n,
                        k,
                        &mut fresh,
                    );
                    for (o, &v) in ga.data_mut().iter_mut().zip(&fresh) {
                        *o += v;
                    }
                }
                crate::pool::recycle(fresh);
                ga
            }),
            need_b.then(|| {
                let mut gb = Tensor::zeros(&[bs, k, n]);
                for_each_batch(k * n, 2 * bs * k * m * n, gb.data_mut(), |i, block| {
                    gemm_rows(
                        a.data(),
                        true,
                        &gout.data()[i * m * n..(i + 1) * m * n],
                        false,
                        k,
                        m,
                        n,
                        block,
                        0,
                        k,
                    );
                });
                gb
            }),
        ],
    }
}

/// `out[rows×d] = A · x` over one CSR half, the rows `[r0, r0 + out.len()/d)`
/// of it: each output element is one `+0`-started chain over the row's
/// columns ascending — the dense `!ta && !tb` gemm's chain without its `±0`
/// terms, which are bitwise no-ops on such a chain (see `backend/blocked.rs`'
/// module docs).
///
/// A row's output is taken in chunks of `W2 = 2·W` columns (two registers
/// of the build) while they fill, then `W`, each chunk's accumulator held
/// in registers across all the row's terms; fewer chunks mean fewer passes
/// over the row's entries. A last partial chunk keeps the `W`-lane shape:
/// it goes in and out through a zero-padded copy, and its extra lanes read
/// whatever follows in `x` — values no stored lane depends on. (Added in
/// place instead, a partial chunk hit masked vector stores on every term
/// and ran several times slower than the portable build.)
#[inline(always)]
fn spmm_rows_in<const W: usize, const W2: usize>(
    a: &CsrRows,
    x: &[f32],
    d: usize,
    out: &mut [f32],
    r0: usize,
) {
    for (ri, orow) in out.chunks_mut(d).enumerate() {
        let terms = |c0: usize| a.row(r0 + ri).map(move |(j, w)| (j * d + c0, w));
        let mut c0 = 0;
        while d - c0 >= W2 {
            let o: &mut [f32; W2] = (&mut orow[c0..c0 + W2]).try_into().expect("W2 lanes");
            *o = chunk_terms(*o, terms(c0), |at| &x[at..at + W2]);
            c0 += W2;
        }
        if d - c0 >= W {
            let o: &mut [f32; W] = (&mut orow[c0..c0 + W]).try_into().expect("W lanes");
            *o = chunk_terms(*o, terms(c0), |at| &x[at..at + W]);
            c0 += W;
        }
        if c0 < d {
            let nr = d - c0;
            let mut padded = [0.0f32; W];
            padded[..nr].copy_from_slice(&orow[c0..]);
            let padded = chunk_terms(padded, terms(c0), |at| match x.get(at..at + W) {
                Some(lanes) => lanes,
                None => &x[at..at + nr],
            });
            orow[c0..].copy_from_slice(&padded[..nr]);
        }
    }
}

/// `acc += w · x[at..]` lane by lane for every `(at, w)` term in order,
/// reading the lanes through `lanes(at)`, zero-padded when it returns fewer
/// than `L`.
#[inline(always)]
fn chunk_terms<'x, const L: usize>(
    mut acc: [f32; L],
    terms: impl Iterator<Item = (usize, f32)>,
    lanes: impl Fn(usize) -> &'x [f32],
) -> [f32; L] {
    for (at, w) in terms {
        let src = lanes(at);
        let xv: [f32; L] = src.try_into().unwrap_or_else(|_| {
            let mut v = [0.0f32; L];
            v[..src.len()].copy_from_slice(src);
            v
        });
        for l in 0..L {
            acc[l] += w * xv[l];
        }
    }
    acc
}

per_isa! {
    /// [`spmm_rows_in`] in the active build, at its register width.
    fn spmm_rows(a: &CsrRows, x: &[f32], d: usize, out: &mut [f32], r0: usize) =
        |W| spmm_rows_in::<W, { 2 * W }>(a, x, d, out, r0);
}

/// [`spmm_rows`] over every row of `a` (`n_rows` of them) into a zeroed
/// `n_rows×d` tensor, row-parallel on the [`ssdrec_runtime`] pool when the
/// product is worth a dispatch. Rows are disjoint outputs, and the row
/// grain is derived from `n_rows` alone, so the bits are the same at every
/// thread count.
fn spmm_half(a: &CsrRows, n_rows: usize, x: &[f32], d: usize) -> Tensor {
    let mut out = Tensor::zeros(&[n_rows, d]);
    if d == 0 {
        return out;
    }
    let rows = n_rows.div_ceil(32);
    if n_rows > rows && par_pays(2 * a.idx.len() * d, SPMM_PAR_WORK) {
        ssdrec_runtime::parallel_chunks_mut(out.data_mut(), rows * d, |ci, block| {
            spmm_rows(a, x, d, block, ci * rows);
        });
    } else {
        spmm_rows(a, x, d, out.data_mut(), 0);
    }
    out
}

/// `A · x` for a constant sparse `A` (`rows×cols`) and a dense `x`
/// (`cols×d`): bit-equal to [`matmul`] on the densified `A`.
pub fn spmm(a: &CsrMatrix, x: &Tensor) -> Tensor {
    let (rows, cols) = a.dims();
    let (xr, d) = x.dims2();
    assert_eq!(xr, cols, "spmm inner dims: {rows}×{cols} x {:?}", x.shape());
    spmm_half(a.rows(), rows, x.data(), d)
}

/// Gradient of [`spmm`] w.r.t. `x`: `Aᵀ · gout` over the precomputed
/// transpose, whose rows list sources ascending — bit-equal to
/// [`matmul_backward`]'s `dB` on the densified `A`.
pub fn spmm_backward(a: &CsrMatrix, gout: &Tensor) -> Tensor {
    let (rows, cols) = a.dims();
    let (gr, d) = gout.dims2();
    assert_eq!(
        gr,
        rows,
        "spmm gradient rows: {rows}×{cols} vs {:?}",
        gout.shape()
    );
    spmm_half(a.transposed(), cols, gout.data(), d)
}

/// Swap the last two dims of a 2-D or 3-D tensor.
pub fn transpose_last(a: &Tensor) -> Tensor {
    match a.ndim() {
        2 => {
            let (m, n) = a.dims2();
            let mut out = Tensor::zeros(&[n, m]);
            transpose_into(a.data(), m, n, out.data_mut());
            out
        }
        3 => {
            let (b, m, n) = a.dims3();
            let mut out = Tensor::zeros(&[b, n, m]);
            for bi in 0..b {
                let src = &a.data()[bi * m * n..(bi + 1) * m * n];
                let dst = &mut out.data_mut()[bi * m * n..(bi + 1) * m * n];
                transpose_into(src, m, n, dst);
            }
            out
        }
        d => panic!("transpose_last on rank {d}"),
    }
}

fn last_dim(shape: &[usize]) -> usize {
    *shape.last().expect("empty shape")
}

/// Numerically-stable softmax over the last dimension.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let n = last_dim(a.shape());
    let mut out = Tensor::zeros(a.shape());
    if n == 0 {
        return out;
    }
    softmax_rows(a.data(), out.data_mut(), n);
    out
}

/// Backward of [`softmax_last`]: `dx = y ⊙ (dy − Σ dy·y)` per row.
pub fn softmax_last_backward(y: &Tensor, gout: &Tensor) -> Tensor {
    let n = last_dim(y.shape());
    let mut out = Tensor::zeros(y.shape());
    if n == 0 {
        return out;
    }
    for ((yr, gr), dr) in y
        .data()
        .chunks(n)
        .zip(gout.data().chunks(n))
        .zip(out.data_mut().chunks_mut(n))
    {
        let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
        for ((d, &yv), &gv) in dr.iter_mut().zip(yr.iter()).zip(gr.iter()) {
            *d = yv * (gv - dot);
        }
    }
    out
}

/// What a fused cross-entropy node keeps for its backward: the `n × B`
/// logits, transposed so that each of the `B` rows is a column, each row's
/// log-sum-exp, the targets and the rows' weights, if any.
///
/// The transposed layout is what makes the node cheap. A row's max and sum
/// are each one chain in index order, so a row-major pass is latency-bound;
/// with the rows as columns, `W` rows' chains advance in one register per
/// index, each chain still in its own order
/// ([`log_sum_exp_cols`]), and the backward's `dh` reads them as a
/// contiguous packed panel.
#[derive(Debug)]
pub struct CeSaved {
    logits_t: Vec<f32>,
    lse: Vec<f32>,
    targets: Vec<usize>,
    /// Each row's weight in the mean; `None` weighs every row 1.
    weights: Option<Vec<f32>>,
}

impl CeSaved {
    /// Take `n × B` logits (`B = targets.len()`) and compute each row's
    /// log-sum-exp.
    fn new(logits_t: Vec<f32>, targets: &[usize], weights: Option<&[f32]>) -> Self {
        let b = targets.len();
        let n = logits_t.len().checked_div(b).unwrap_or(0);
        assert!(targets.iter().all(|&t| t < n), "a target is not a column");
        assert!(weights.is_none_or(|w| w.len() == b), "one weight per row");
        let mut lse = crate::pool::take(b);
        log_sum_exp_cols(&logits_t, n, b, &mut lse);
        CeSaved {
            logits_t,
            lse,
            targets: targets.to_vec(),
            weights: weights.map(<[f32]>::to_vec),
        }
    }

    /// `−mean_i w_i·(s[i, t_i] − lse_i)`, the weight left out when there is
    /// none: the reference chain's pick, weight, mean and negate over the
    /// log-softmax, as that chain rounds them (the negation is a multiply
    /// by −1, which keeps a NaN's sign where `-x` would flip it).
    #[allow(clippy::neg_multiply)]
    fn loss(&self) -> f32 {
        let b = self.targets.len();
        let picked: f32 = self
            .targets
            .iter()
            .zip(&self.lse)
            .enumerate()
            .map(|(i, (&t, &lse))| {
                let lp = self.logits_t[t * b + i] - lse;
                self.weights.as_ref().map_or(lp, |w| lp * w[i])
            })
            .sum();
        picked / b as f32 * -1.0
    }

    /// The loss gradient w.r.t. the `n × B` logits for a loss gradient
    /// `gout`: `−gout / B · w_i` at each target, through the log-softmax
    /// backward, rounded as the reference chain rounds it.
    #[allow(clippy::neg_multiply)]
    fn logit_grad(&self, gout: f32) -> Vec<f32> {
        let b = self.targets.len();
        let n = self.logits_t.len() / b.max(1);
        // Negate, then mean: the gradient of every picked log-probability,
        // times its row's weight.
        let g = gout * -1.0 / b as f32;
        let gv = match &self.weights {
            Some(w) => w.iter().map(|&w| g * w).collect(),
            None => vec![g; b],
        };
        // The log-softmax backward's row sum of that row: `Iterator::sum`'s
        // `−0`-started chain over `+0`s and `g`, each run of `+0` one add.
        let gsum: Vec<f32> = self
            .targets
            .iter()
            .zip(&gv)
            .map(|(&t, &g)| {
                let mut s = -0.0f32;
                if t > 0 {
                    s += 0.0;
                }
                s += g;
                if t + 1 < n {
                    s += 0.0;
                }
                s
            })
            .collect();
        let mut gt = crate::pool::take(n * b);
        ce_grad_cols(
            &self.logits_t,
            n,
            b,
            &self.lse,
            &gsum,
            &self.targets,
            &gv,
            &mut gt,
        );
        gt
    }

    /// Return the buffers to the pool.
    pub fn recycle(self) {
        crate::pool::recycle(self.logits_t);
        crate::pool::recycle(self.lse);
    }
}

/// The next-item cross-entropy over a catalogue: `−mean_i log softmax(h ·
/// tableᵀ + mask)[i, targets[i]]` for `h` `B×d`, `table` `n×d` and `mask`
/// `[n]`, bit-identical to the reference chain `tests/ce_node.rs` writes
/// out: the oracle's gemm against the transposed table, the mask added to
/// each row, the oracle's row log-softmax, then pick, mean and negate.
///
/// The logits come out of one gemm as `table · hᵀ` (each element the same
/// `p`-ascending chain of the same products), and the mask is added to
/// them as the chain adds it.
pub fn catalogue_ce(
    h: &Tensor,
    table: &Tensor,
    mask: &Tensor,
    targets: &[usize],
) -> (f32, CeSaved) {
    let (b, d) = h.dims2();
    let (n, d2) = table.dims2();
    assert_eq!(d, d2, "catalogue_ce: h is B×{d}, the table n×{d2}");
    assert_eq!(targets.len(), b, "catalogue_ce: one target per row");
    assert_eq!(mask.shape(), &[n], "catalogue_ce: the mask is one row");
    let mut lt = crate::pool::take_zeroed(n * b);
    gemm(table.data(), false, h.data(), true, n, d, b, &mut lt);
    for (row, &m) in lt.chunks_mut(b.max(1)).zip(mask.data()) {
        for x in row {
            *x += m;
        }
    }
    let saved = CeSaved::new(lt, targets, None);
    (saved.loss(), saved)
}

/// Gradients of [`catalogue_ce`] w.r.t. `(h, table)` for a loss gradient
/// `gout`, each only when its `need` flag is set: `dh = G·table` and
/// `dtable = Gᵀ·h`, `G` the logits' gradient — the unfused chain's two
/// gemms, each element the same chain of the same products.
pub fn catalogue_ce_backward(
    h: &Tensor,
    table: &Tensor,
    saved: &CeSaved,
    gout: f32,
    need: [bool; 2],
) -> [Option<Tensor>; 2] {
    let (b, d) = h.dims2();
    let n = table.shape()[0];
    let gt = saved.logit_grad(gout);
    let grads = [
        need[0].then(|| {
            let mut dh = Tensor::zeros(&[b, d]);
            gemm(&gt, true, table.data(), false, b, n, d, dh.data_mut());
            dh
        }),
        need[1].then(|| {
            let mut dt = Tensor::zeros(&[n, d]);
            gemm(&gt, false, h.data(), false, n, b, d, dt.data_mut());
            dt
        }),
    ];
    crate::pool::recycle(gt);
    grads
}

/// `−mean_i w_i · log_softmax(logits)[i, targets[i]]` over given `B×n`
/// logits, `w_i = 1` without `weights`, bit-identical to the reference
/// chain `tests/ce_node.rs` writes out: the oracle's row log-softmax, then
/// pick, weight (when given), mean and negate.
pub fn softmax_ce(logits: &Tensor, targets: &[usize], weights: Option<&[f32]>) -> (f32, CeSaved) {
    let (b, n) = logits.dims2();
    assert_eq!(targets.len(), b, "softmax_ce: one target per row");
    let mut lt = crate::pool::take(n * b);
    transpose_into(logits.data(), b, n, &mut lt);
    let saved = CeSaved::new(lt, targets, weights);
    (saved.loss(), saved)
}

/// Gradient of [`softmax_ce`] w.r.t. its `B×n` logits for a loss gradient
/// `gout`.
pub fn softmax_ce_backward(saved: &CeSaved, gout: f32) -> Tensor {
    let b = saved.targets.len();
    let n = saved.logits_t.len() / b.max(1);
    let gt = saved.logit_grad(gout);
    let mut out = Tensor::new(crate::pool::take(b * n), &[b, n]);
    transpose_into(&gt, n, b, out.data_mut());
    crate::pool::recycle(gt);
    out
}

/// Layer normalisation over the last dimension with scale/shift.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Tensor {
    let n = last_dim(x.shape());
    assert_eq!(gamma.len(), n, "layer_norm gamma length");
    assert_eq!(beta.len(), n, "layer_norm beta length");
    let mut out = Tensor::zeros(x.shape());
    if n == 0 {
        return out;
    }
    layer_norm_rows(x.data(), gamma.data(), beta.data(), out.data_mut(), n);
    out
}

/// Backward of [`layer_norm`]; returns `(dx, dgamma, dbeta)`.
pub fn layer_norm_backward(x: &Tensor, gamma: &Tensor, gout: &Tensor) -> (Tensor, Tensor, Tensor) {
    let n = last_dim(x.shape());
    let nf = n as f32;
    let mut dx = Tensor::zeros(x.shape());
    let mut dgamma = Tensor::zeros(&[n]);
    let mut dbeta = Tensor::zeros(&[n]);
    if n == 0 {
        return (dx, dgamma, dbeta);
    }
    for ((src, gr), dr) in x
        .data()
        .chunks(n)
        .zip(gout.data().chunks(n))
        .zip(dx.data_mut().chunks_mut(n))
    {
        let mean = src.iter().sum::<f32>() / nf;
        let var = src.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / nf;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        // xhat_j = (x_j - mean) * inv
        let mut sum_g = 0.0;
        let mut sum_gx = 0.0;
        for j in 0..n {
            let xhat = (src[j] - mean) * inv;
            let gl = gr[j] * gamma.data()[j];
            sum_g += gl;
            sum_gx += gl * xhat;
            dgamma.data_mut()[j] += gr[j] * xhat;
            dbeta.data_mut()[j] += gr[j];
        }
        for j in 0..n {
            let xhat = (src[j] - mean) * inv;
            let gl = gr[j] * gamma.data()[j];
            dr[j] = inv * (gl - sum_g / nf - xhat * sum_gx / nf);
        }
    }
    (dx, dgamma, dbeta)
}

/// Fused `act(a + broadcast(bias))` where `bias`'s shape is a suffix of
/// `a`'s shape — one backend pass instead of an add node plus an
/// activation node.
pub fn bias_act(a: &Tensor, bias: &Tensor, act: Activation) -> Tensor {
    let (ash, bsh) = (a.shape(), bias.shape());
    assert!(
        bsh.len() <= ash.len() && ash[ash.len() - bsh.len()..] == *bsh,
        "bias_act: {bsh:?} is not a suffix of {ash:?}"
    );
    let mut data = crate::pool::take(a.len());
    bias_act_rows(a.data(), bias.data(), act, &mut data);
    Tensor::new(data, ash)
}

/// Backward of the activation half of [`bias_act`], expressed via the fused
/// output `y` — the exact formulas of the unfused activation backward ops.
pub fn act_backward(gout: &Tensor, y: &Tensor, act: Activation) -> Tensor {
    zip(gout, y, |g, yv| act.grad_from_output(g, yv))
}

/// Fused `softmax_last(a·scale + broadcast(mask))`; `mask`'s shape (when
/// present) must be a suffix of `a`'s shape covering the last dimension.
pub fn scaled_masked_softmax(a: &Tensor, scale: f32, mask: Option<&Tensor>) -> Tensor {
    let n = last_dim(a.shape());
    if let Some(mv) = mask {
        let (ash, msh) = (a.shape(), mv.shape());
        assert!(
            !msh.is_empty() && msh.len() <= ash.len() && ash[ash.len() - msh.len()..] == *msh,
            "scaled_masked_softmax: {msh:?} is not a suffix of {ash:?}"
        );
    }
    let mut out = Tensor::zeros(a.shape());
    if n == 0 {
        return out;
    }
    scaled_masked_softmax_rows(a.data(), scale, mask.map(|mv| mv.data()), out.data_mut(), n);
    out
}

/// Sum over the last dimension (shape loses its last axis; rank-1 → `[1]`).
pub fn sum_last(a: &Tensor) -> Tensor {
    let n = last_dim(a.shape());
    let out_shape: Vec<usize> = if a.ndim() == 1 {
        vec![1]
    } else {
        a.shape()[..a.ndim() - 1].to_vec()
    };
    let mut out = Tensor::zeros(&out_shape);
    for (i, chunk) in a.data().chunks(n).enumerate() {
        out.data_mut()[i] = chunk.iter().sum();
    }
    out
}

/// Backward of [`sum_last`]: tile the gradient over the removed axis.
pub fn sum_last_backward(in_shape: &[usize], gout: &Tensor) -> Tensor {
    let n = *in_shape.last().unwrap();
    let mut out = Tensor::zeros(in_shape);
    for (i, chunk) in out.data_mut().chunks_mut(n).enumerate() {
        let g = gout.data()[i];
        for c in chunk {
            *c = g;
        }
    }
    out
}

/// Sum over the time axis of `B×T×d`, yielding `B×d`.
pub fn sum_time(a: &Tensor) -> Tensor {
    let (b, t, d) = a.dims3();
    let mut out = Tensor::zeros(&[b, d]);
    for bi in 0..b {
        for ti in 0..t {
            let src = &a.data()[(bi * t + ti) * d..(bi * t + ti + 1) * d];
            let dst = &mut out.data_mut()[bi * d..(bi + 1) * d];
            for (o, &s) in dst.iter_mut().zip(src.iter()) {
                *o += s;
            }
        }
    }
    out
}

/// Backward of [`sum_time`].
pub fn sum_time_backward(in_shape: &[usize], gout: &Tensor) -> Tensor {
    let (b, t, d) = (in_shape[0], in_shape[1], in_shape[2]);
    let mut out = Tensor::zeros(in_shape);
    for bi in 0..b {
        let g = &gout.data()[bi * d..(bi + 1) * d];
        for ti in 0..t {
            let dst = &mut out.data_mut()[(bi * t + ti) * d..(bi * t + ti + 1) * d];
            dst.copy_from_slice(g);
        }
    }
    out
}

/// Concatenate along the last dimension.
pub fn concat_last(parts: &[&Tensor]) -> Tensor {
    let lead = &parts[0].shape()[..parts[0].ndim() - 1];
    let rows: usize = lead.iter().product();
    let widths: Vec<usize> = parts
        .iter()
        .map(|p| {
            assert_eq!(&p.shape()[..p.ndim() - 1], lead, "concat_last leading dims");
            last_dim(p.shape())
        })
        .collect();
    let total: usize = widths.iter().sum();
    let mut shape = lead.to_vec();
    shape.push(total);
    let mut out = Tensor::zeros(&shape);
    for r in 0..rows {
        let mut off = 0;
        for (p, &w) in parts.iter().zip(widths.iter()) {
            let src = &p.data()[r * w..(r + 1) * w];
            out.data_mut()[r * total + off..r * total + off + w].copy_from_slice(src);
            off += w;
        }
    }
    out
}

/// Backward of [`concat_last`]: split the gradient back into the parts.
pub fn concat_last_backward(shapes: &[&[usize]], gout: &Tensor) -> Vec<Tensor> {
    let widths: Vec<usize> = shapes.iter().map(|s| *s.last().unwrap()).collect();
    let total: usize = widths.iter().sum();
    let rows = gout.len() / total;
    let mut outs: Vec<Tensor> = shapes.iter().map(|s| Tensor::zeros(s)).collect();
    for r in 0..rows {
        let mut off = 0;
        for (o, &w) in outs.iter_mut().zip(widths.iter()) {
            let dst = &mut o.data_mut()[r * w..(r + 1) * w];
            dst.copy_from_slice(&gout.data()[r * total + off..r * total + off + w]);
            off += w;
        }
    }
    outs
}

/// Slice `[start, start+len)` of the last dimension.
pub fn slice_last(a: &Tensor, start: usize, len: usize) -> Tensor {
    let n = last_dim(a.shape());
    assert!(start + len <= n, "slice_last {start}+{len} > {n}");
    let rows = a.len() / n;
    let mut shape = a.shape().to_vec();
    *shape.last_mut().unwrap() = len;
    let mut out = Tensor::zeros(&shape);
    for r in 0..rows {
        out.data_mut()[r * len..(r + 1) * len]
            .copy_from_slice(&a.data()[r * n + start..r * n + start + len]);
    }
    out
}

/// Backward of [`slice_last`].
pub fn slice_last_backward(in_shape: &[usize], start: usize, gout: &Tensor) -> Tensor {
    let n = *in_shape.last().unwrap();
    let len = last_dim(gout.shape());
    let rows: usize = in_shape.iter().product::<usize>() / n;
    let mut out = Tensor::zeros(in_shape);
    for r in 0..rows {
        out.data_mut()[r * n + start..r * n + start + len]
            .copy_from_slice(&gout.data()[r * len..(r + 1) * len]);
    }
    out
}

/// Slice `[start, start+len)` along the time axis of `B×T×d`.
pub fn slice_time(a: &Tensor, start: usize, len: usize) -> Tensor {
    let (b, t, d) = a.dims3();
    assert!(start + len <= t, "slice_time {start}+{len} > {t}");
    let mut out = Tensor::zeros(&[b, len, d]);
    for bi in 0..b {
        let src = &a.data()[(bi * t + start) * d..(bi * t + start + len) * d];
        out.data_mut()[bi * len * d..(bi + 1) * len * d].copy_from_slice(src);
    }
    out
}

/// Backward of [`slice_time`].
pub fn slice_time_backward(in_shape: &[usize], start: usize, gout: &Tensor) -> Tensor {
    let (b, t, d) = (in_shape[0], in_shape[1], in_shape[2]);
    let len = gout.dims3().1;
    let mut out = Tensor::zeros(in_shape);
    for bi in 0..b {
        let dst = &mut out.data_mut()[(bi * t + start) * d..(bi * t + start + len) * d];
        dst.copy_from_slice(&gout.data()[bi * len * d..(bi + 1) * len * d]);
    }
    out
}

/// Pick time step `t` from `B×T×d`, yielding `B×d`.
pub fn select_time(a: &Tensor, t_idx: usize) -> Tensor {
    let (b, t, d) = a.dims3();
    assert!(t_idx < t, "select_time {t_idx} out of {t}");
    let mut out = Tensor::zeros(&[b, d]);
    for bi in 0..b {
        let src = &a.data()[(bi * t + t_idx) * d..(bi * t + t_idx + 1) * d];
        out.data_mut()[bi * d..(bi + 1) * d].copy_from_slice(src);
    }
    out
}

/// Backward of [`select_time`].
pub fn select_time_backward(in_shape: &[usize], t_idx: usize, gout: &Tensor) -> Tensor {
    let (b, t, d) = (in_shape[0], in_shape[1], in_shape[2]);
    let mut out = Tensor::zeros(in_shape);
    for bi in 0..b {
        let dst = &mut out.data_mut()[(bi * t + t_idx) * d..(bi * t + t_idx + 1) * d];
        dst.copy_from_slice(&gout.data()[bi * d..(bi + 1) * d]);
    }
    out
}

/// Stack `T` tensors of identical shape `B×d` into `B×T×d`.
pub fn stack_time(steps: &[&Tensor]) -> Tensor {
    let (b, d) = steps[0].dims2();
    let t = steps.len();
    let mut out = Tensor::zeros(&[b, t, d]);
    for (ti, s) in steps.iter().enumerate() {
        assert_eq!(s.dims2(), (b, d), "stack_time shape mismatch");
        for bi in 0..b {
            let dst = &mut out.data_mut()[(bi * t + ti) * d..(bi * t + ti + 1) * d];
            dst.copy_from_slice(&s.data()[bi * d..(bi + 1) * d]);
        }
    }
    out
}

/// Gather rows of a `V×d` matrix by index, yielding `N×d`.
pub fn gather_rows(weight: &Tensor, indices: &[usize]) -> Tensor {
    let (v, d) = weight.dims2();
    let mut out = Tensor::zeros(&[indices.len(), d]);
    for (i, &ix) in indices.iter().enumerate() {
        assert!(ix < v, "embedding index {ix} out of vocabulary {v}");
        out.data_mut()[i * d..(i + 1) * d].copy_from_slice(weight.row(ix));
    }
    out
}

/// Scatter-add row gradients back into a `V×d` weight gradient: every
/// weight row receives its additions in ascending-`i` order.
///
/// It runs inline. A destination-partitioned parallel version, each task
/// scanning every index for its own block of rows, lost at every measured
/// size (2-cpu host): 3 200 indices × `d = 32` into 198 rows took 18.9 µs
/// inline and 56.6 µs on two threads, 100 000 × 32 into 1 000 rows 0.78
/// vs 1.98 ms.
pub fn scatter_rows(weight_shape: &[usize], indices: &[usize], gout: &Tensor) -> Tensor {
    let (v, d) = (weight_shape[0], weight_shape[1]);
    let mut out = Tensor::zeros(weight_shape);
    for (i, &ix) in indices.iter().enumerate() {
        assert!(ix < v, "scatter index {ix} out of vocabulary {v}");
        let src = &gout.data()[i * d..(i + 1) * d];
        let dst = &mut out.data_mut()[ix * d..(ix + 1) * d];
        for (o, &s) in dst.iter_mut().zip(src.iter()) {
            *o += s;
        }
    }
    out
}

/// Repeat every element of `a` `n` times along a new last axis
/// (`S → S×n`): the inverse of [`sum_last`], whose backward it is.
pub fn expand_last(a: &Tensor, n: usize) -> Tensor {
    let mut shape = a.shape().to_vec();
    shape.push(n);
    sum_last_backward(&shape, a)
}

/// The time index visited at recurrence step `step` of a `t`-step run.
#[inline(always)]
fn lstm_time(step: usize, t: usize, reversed: bool) -> usize {
    if reversed {
        t - 1 - step
    } else {
        step
    }
}

/// Sequences per recurrence chunk of [`lstm_seq`] / [`lstm_seq_backward`]:
/// one [`TILE_ROWS`] tile of the per-step `h·U` and `dz·Uᵀ` gemms.
const LSTM_SEQ_CHUNK: usize = TILE_ROWS;

/// One direction of an LSTM over a whole `B×T×d` sequence in one call:
/// `wx` (`d×4h`), `u` (`h×4h`) and `b` (`[4h]`) hold the gates side by
/// side in the order input, forget, output, candidate. Returns the hidden
/// states `B×T×h` (aligned to input positions, also when `reversed` runs the
/// recurrence right to left) and the saved activations [`lstm_seq_backward`]
/// needs, one pool buffer the caller recycles: post-activation gates
/// (`B·T×4h`), cell states and their `tanh` (`B·T×h` each), all row-indexed
/// by `b·T + t` like the input.
///
/// Values are bit-equal to the per-timestep chain of four
/// `(x_t·W + b) + h·U` gates: the packed gemms accumulate each output
/// element over the contraction index ascending from zero exactly like the
/// narrow ones, and the element-wise pass is [`math::lstm_cell`], the
/// chain's own association, in every lane.
///
/// The input projection is one whole-batch gemm; the recurrence then runs
/// per chunk of [`LSTM_SEQ_CHUNK`] sequences on the pool. Sequences are
/// independent and a gemm's rows are partition-exact, so a chunk's per-step
/// `h·U` gemm gives the rows the whole-batch one would.
pub fn lstm_seq(
    x: &Tensor,
    wx: &Tensor,
    u: &Tensor,
    b: &Tensor,
    reversed: bool,
) -> (Tensor, Vec<f32>) {
    let (bs, t, d) = x.dims3();
    let h = u.dims2().0;
    let h4 = 4 * h;
    assert_eq!(wx.dims2(), (d, h4), "lstm_seq input weights");
    assert_eq!(u.dims2(), (h, h4), "lstm_seq recurrent weights");
    assert_eq!(b.shape(), &[h4], "lstm_seq bias");
    let rows = bs * t;

    let mut saved = crate::pool::take_zeroed(rows * 6 * h);
    let mut out = Tensor::zeros(&[bs, t, h]);
    let (z, rest) = saved.split_at_mut(rows * h4);
    let (c_all, tc_all) = rest.split_at_mut(rows * h);

    // Every timestep's input projection in one gemm, then the bias.
    gemm(x.data(), false, wx.data(), false, rows, d, h4, z);
    for row in z.chunks_mut(h4.max(1)) {
        for (zv, &bv) in row.iter_mut().zip(b.data()) {
            *zv += bv;
        }
    }

    let span = (LSTM_SEQ_CHUNK * t * h).max(1);
    let mut parts: Vec<_> = z
        .chunks_mut(4 * span)
        .zip(c_all.chunks_mut(span))
        .zip(tc_all.chunks_mut(span))
        .zip(out.data_mut().chunks_mut(span))
        .map(|(((z, c), tc), o)| [z, c, tc, o])
        .collect();
    let par = par_pays(2 * rows * h * h4, LSTM_PAR_WORK);
    for_each_part(&mut parts, par, |[z, c, tc, o]| {
        lstm_recurrence(z, c, tc, o, u.data(), t, h, reversed);
    });
    (out, saved)
}

/// The recurrence of [`lstm_seq`] over one chunk of `nb` sequences (the
/// chunk's rows of each buffer, `nb·T` of them): `z` holds the projected
/// inputs and is overwritten with the post-activation gates. Per step, one
/// `h·U` gemm and one [`lstm_gates`] pass over the chunk.
#[allow(clippy::too_many_arguments)]
fn lstm_recurrence(
    z: &mut [f32],
    c_all: &mut [f32],
    tc_all: &mut [f32],
    o: &mut [f32],
    u: &[f32],
    t: usize,
    h: usize,
    reversed: bool,
) {
    let h4 = 4 * h;
    let nb = o.len() / (t * h);
    // The running state, zeros before the first step (`h_0 = c_0 = 0`,
    // so `hu = h_prev·U` is zeros there too).
    let mut h_prev = crate::pool::take(nb * h);
    let mut c_prev = crate::pool::take_zeroed(nb * h);
    let mut hu = crate::pool::take_zeroed(nb * h4);
    for step in 0..t {
        if step > 0 {
            hu.fill(0.0);
            gemm(&h_prev, false, u, false, nb, h, h4, &mut hu);
        }
        let ti = lstm_time(step, t, reversed);
        lstm_gates(z, &hu, c_all, tc_all, o, &mut c_prev, &mut h_prev, t, ti, h);
    }
    crate::pool::recycle(h_prev);
    crate::pool::recycle(c_prev);
    crate::pool::recycle(hu);
}

/// The four `h`-wide gate planes (input, forget, output, candidate) of one
/// gate-packed `4h` row.
#[inline(always)]
fn gate_planes(row: &[f32], h: usize) -> [&[f32]; 4] {
    let (i, rest) = row.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (o, c) = rest.split_at(h);
    [i, f, o, &c[..h]]
}

/// [`gate_planes`], writable.
#[inline(always)]
fn gate_planes_mut(row: &mut [f32], h: usize) -> [&mut [f32]; 4] {
    let (i, rest) = row.split_at_mut(h);
    let (f, rest) = rest.split_at_mut(h);
    let (o, c) = rest.split_at_mut(h);
    [i, f, o, &mut c[..h]]
}

/// The `W`-lane blocks `(first column, width)` of an `h`-wide row: whole
/// ones, then the rest, which [`lanes`] pads.
#[inline(always)]
fn lane_blocks<const W: usize>(h: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..h).step_by(W).map(move |j0| (j0, W.min(h - j0)))
}

/// One step's gate pass over a chunk: for its sequence `b`, row `b·T + ti`
/// of `z` (the projected inputs, overwritten with the activated gates), of
/// `c_all`, `tc_all` and `o`, and row `b` of `hu` (`h_prev·U`) and of the
/// running `c_prev` / `h_prev`, which it advances.
///
/// The four gate planes are split apart and taken `W` hidden units at a
/// time into register-sized lane arrays, one [`math::lstm_cell`] per lane —
/// the per-gate chain the unrolled cell computes, bit for bit. A row's last
/// partial block runs zero-padded; its padding lanes are never stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lstm_gates_in<const W: usize>(
    z: &mut [f32],
    hu: &[f32],
    c_all: &mut [f32],
    tc_all: &mut [f32],
    o: &mut [f32],
    c_prev: &mut [f32],
    h_prev: &mut [f32],
    t: usize,
    ti: usize,
    h: usize,
) {
    let h4 = 4 * h;
    let state = c_prev.chunks_exact_mut(h).zip(h_prev.chunks_exact_mut(h));
    for (bi, ((cp, hp), hu_row)) in state.zip(hu.chunks_exact(h4)).enumerate() {
        let row = bi * t + ti;
        let mut zs = gate_planes_mut(&mut z[row * h4..(row + 1) * h4], h);
        let us = gate_planes(hu_row, h);
        let c = &mut c_all[row * h..][..h];
        let tc = &mut tc_all[row * h..][..h];
        let out = &mut o[row * h..][..h];
        for (j0, n) in lane_blocks::<W>(h) {
            let at = |s: &[f32]| lanes::<W>(&s[j0..j0 + n]);
            let put = |d: &mut [f32], v: &[f32; W]| store_lanes(&mut d[j0..j0 + n], v);
            let mut pre = [[0.0; W]; 4];
            for ((pk, zk), uk) in pre.iter_mut().zip(&zs).zip(&us) {
                let (zk, uk) = (at(zk), at(uk));
                for ((p, &z), &u) in pk.iter_mut().zip(&zk).zip(&uk) {
                    *p = z + u;
                }
            }
            let c0 = at(cp);
            let mut gates = [[0.0; W]; 4];
            let (mut c1, mut tc1, mut h1) = ([0.0; W], [0.0; W], [0.0; W]);
            for l in 0..W {
                let cell = math::lstm_cell([pre[0][l], pre[1][l], pre[2][l], pre[3][l]], c0[l]);
                for (gk, g) in gates.iter_mut().zip(cell.gates) {
                    gk[l] = g;
                }
                (c1[l], tc1[l], h1[l]) = (cell.c, cell.tc, cell.h);
            }
            for (zk, gk) in zs.iter_mut().zip(&gates) {
                put(zk, gk);
            }
            put(c, &c1);
            put(tc, &tc1);
            put(out, &h1);
            put(cp, &c1);
            put(hp, &h1);
        }
    }
}

per_isa! {
    /// [`lstm_gates_in`] in the active build, at its register width.
    #[allow(clippy::too_many_arguments)]
    fn lstm_gates(
        z: &mut [f32],
        hu: &[f32],
        c_all: &mut [f32],
        tc_all: &mut [f32],
        o: &mut [f32],
        c_prev: &mut [f32],
        h_prev: &mut [f32],
        t: usize,
        ti: usize,
        h: usize,
    ) = |W| lstm_gates_in::<W>(z, hu, c_all, tc_all, o, c_prev, h_prev, t, ti, h);
}

/// Gradients of [`lstm_seq`] w.r.t. `(x, wx, u, b)` — each computed only
/// when its `need` flag is set — by back-propagation through time: per step
/// one element-wise pass and one `dz·Uᵀ` gemm, run per chunk of
/// [`LSTM_SEQ_CHUNK`] sequences on the pool like the forward recurrence;
/// then one whole-sequence gemm each for `dX`, `dWx`, `dU` and a column sum
/// for the bias.
#[allow(clippy::too_many_arguments)]
pub fn lstm_seq_backward(
    x: &Tensor,
    wx: &Tensor,
    u: &Tensor,
    h_out: &Tensor,
    saved: &[f32],
    gout: &Tensor,
    reversed: bool,
    need: [bool; 4],
) -> [Option<Tensor>; 4] {
    let (bs, t, d) = x.dims3();
    let h = u.dims2().0;
    let h4 = 4 * h;
    let rows = bs * t;
    let (gates, rest) = saved.split_at(rows * h4);
    let (c_all, tc_all) = rest.split_at(rows * h);

    // `dz`: the gradient at every pre-activation, row-aligned with `x`.
    let mut dz = crate::pool::take(rows * h4);
    // `Uᵀ`, packed once for every step's `dz·Uᵀ` into a zeroed `dh_rec`.
    let mut u_t = crate::pool::take(h4 * h);
    transpose_into(u.data(), h, h4, &mut u_t);
    let span = (LSTM_SEQ_CHUNK * t * h).max(1);
    let mut parts: Vec<_> = dz
        .chunks_mut(4 * span)
        .zip(gates.chunks(4 * span))
        .zip(c_all.chunks(span))
        .zip(tc_all.chunks(span))
        .zip(gout.data().chunks(span))
        .map(|((((dz, gates), c), tc), go)| (dz, [gates, c, tc, go]))
        .collect();
    let par = par_pays(2 * rows * h4 * h, BPTT_PAR_WORK);
    for_each_part(&mut parts, par, |(dz, saved)| {
        lstm_bptt(dz, *saved, &u_t, t, h, reversed);
    });
    crate::pool::recycle(u_t);

    let [need_x, need_wx, need_u, need_b] = need;
    let dx = need_x.then(|| {
        let mut dx = Tensor::zeros(&[bs, t, d]);
        gemm(&dz, false, wx.data(), true, rows, h4, d, dx.data_mut());
        dx
    });
    let dwx = need_wx.then(|| {
        let mut dwx = Tensor::zeros(&[d, h4]);
        gemm(x.data(), true, &dz, false, d, rows, h4, dwx.data_mut());
        dwx
    });
    let du = need_u.then(|| {
        // Row `b·T + t` holds the state that fed step `t`: the previous
        // step's output, zeros at the first step.
        let mut fed = crate::pool::take_zeroed(rows * h);
        for step in 1..t {
            let (ti, tp) = (
                lstm_time(step, t, reversed),
                lstm_time(step - 1, t, reversed),
            );
            for bi in 0..bs {
                let (row, prev_row) = (bi * t + ti, bi * t + tp);
                fed[row * h..(row + 1) * h]
                    .copy_from_slice(&h_out.data()[prev_row * h..(prev_row + 1) * h]);
            }
        }
        let mut du = Tensor::zeros(&[h, h4]);
        gemm(&fed, true, &dz, false, h, rows, h4, du.data_mut());
        crate::pool::recycle(fed);
        du
    });
    let db = need_b.then(|| {
        let mut db = Tensor::zeros(&[h4]);
        for row in dz.chunks(h4.max(1)) {
            for (o, &v) in db.data_mut().iter_mut().zip(row) {
                *o += v;
            }
        }
        db
    });
    crate::pool::recycle(dz);
    [dx, dwx, du, db]
}

/// The BPTT loop of [`lstm_seq_backward`] over one chunk of sequences: the
/// chunk's rows of `dz` from its rows of the saved gates, cell states,
/// their `tanh` and the output gradient (`[gates, c, tc, gout]`). Per step,
/// one [`lstm_bptt_step`] pass over the chunk and one `dz·Uᵀ` gemm.
fn lstm_bptt(dz: &mut [f32], saved: [&[f32]; 4], u_t: &[f32], t: usize, h: usize, reversed: bool) {
    let h4 = 4 * h;
    let nb = saved[3].len() / (t * h);
    // `dz_t`: the current step's rows of `dz`, contiguous for the gemm.
    let mut dz_t = crate::pool::take(nb * h4);
    let mut dh_rec = crate::pool::take_zeroed(nb * h);
    let mut dc_next = crate::pool::take_zeroed(nb * h);
    // The cell state before the first step.
    let c_0 = crate::pool::take_zeroed(h);
    for step in (0..t).rev() {
        let ti = lstm_time(step, t, reversed);
        let t_prev = step.checked_sub(1).map(|s| lstm_time(s, t, reversed));
        lstm_bptt_step(
            dz,
            &mut dz_t,
            &mut dc_next,
            &dh_rec,
            saved,
            &c_0,
            t,
            ti,
            t_prev,
            h,
        );
        if step > 0 {
            dh_rec.fill(0.0);
            gemm(&dz_t, false, u_t, false, nb, h4, h, &mut dh_rec);
        }
    }
    crate::pool::recycle(dz_t);
    crate::pool::recycle(dh_rec);
    crate::pool::recycle(dc_next);
    crate::pool::recycle(c_0);
}

/// One BPTT step's element pass over a chunk: for its sequence `b`, the
/// pre-activation gradients of row `b·T + ti` into `dz` and into row `b` of
/// `dz_t`, from the saved row, the output gradient, the recurrent gradient
/// `dh_rec` and the running `dc_next`, which it advances. `c_prev` is
/// row `b·T + t_prev` of the saved cell states, or `c_0` at the first step.
/// Gate planes split as in [`lstm_gates_in`]; with no transcendental to
/// carry, the plain unit loop vectorises as it stands, and measured faster
/// than going through lane arrays.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lstm_bptt_step_in(
    dz: &mut [f32],
    dz_t: &mut [f32],
    dc_next: &mut [f32],
    dh_rec: &[f32],
    saved: [&[f32]; 4],
    c_0: &[f32],
    t: usize,
    ti: usize,
    t_prev: Option<usize>,
    h: usize,
) {
    let [gates, c_all, tc_all, go] = saved;
    let h4 = 4 * h;
    let state = dc_next.chunks_exact_mut(h).zip(dh_rec.chunks_exact(h));
    for (bi, ((dcn, dhr), dzt_row)) in state.zip(dz_t.chunks_exact_mut(h4)).enumerate() {
        let row = bi * t + ti;
        let [ig, fg, og, cand] = gate_planes(&gates[row * h4..(row + 1) * h4], h);
        let tc = &tc_all[row * h..][..h];
        let gor = &go[row * h..][..h];
        let c_prev = match t_prev {
            Some(tp) => &c_all[(bi * t + tp) * h..][..h],
            None => &c_0[..h],
        };
        let [dz_i, dz_f, dz_o, dz_c] = gate_planes_mut(&mut dz[row * h4..(row + 1) * h4], h);
        let [dt_i, dt_f, dt_o, dt_c] = gate_planes_mut(dzt_row, h);
        for j in 0..h {
            let dh = gor[j] + dhr[j];
            let dc = dcn[j] + dh * og[j] * (1.0 - tc[j] * tc[j]);
            dcn[j] = dc * fg[j];
            let dzr = [
                dc * cand[j] * ig[j] * (1.0 - ig[j]),
                dc * c_prev[j] * fg[j] * (1.0 - fg[j]),
                dh * tc[j] * og[j] * (1.0 - og[j]),
                dc * ig[j] * (1.0 - cand[j] * cand[j]),
            ];
            [dz_i[j], dz_f[j], dz_o[j], dz_c[j]] = dzr;
            [dt_i[j], dt_f[j], dt_o[j], dt_c[j]] = dzr;
        }
    }
}

per_isa! {
    /// [`lstm_bptt_step_in`] in the active build.
    #[allow(clippy::too_many_arguments)]
    fn lstm_bptt_step(
        dz: &mut [f32],
        dz_t: &mut [f32],
        dc_next: &mut [f32],
        dh_rec: &[f32],
        saved: [&[f32]; 4],
        c_0: &[f32],
        t: usize,
        ti: usize,
        t_prev: Option<usize>,
        h: usize,
    ) = |_W| lstm_bptt_step_in(dz, dz_t, dc_next, dh_rec, saved, c_0, t, ti, t_prev, h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::new(v.to_vec(), s)
    }

    #[test]
    fn matmul_2x2_known() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_batched_matches_per_batch() {
        let a = t(&(0..12).map(|i| i as f32).collect::<Vec<_>>(), &[2, 2, 3]);
        let b = t(
            &(0..12).map(|i| (i as f32) * 0.5).collect::<Vec<_>>(),
            &[2, 3, 2],
        );
        let c = matmul(&a, &b);
        let a0 = t(&a.data()[..6], &[2, 3]);
        let b0 = t(&b.data()[..6], &[3, 2]);
        let c0 = matmul(&a0, &b0);
        assert_eq!(&c.data()[..4], c0.data());
    }

    #[test]
    fn matmul_broadcast_rhs() {
        let a = t(&(0..12).map(|i| i as f32).collect::<Vec<_>>(), &[2, 2, 3]);
        let b = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // row [0,1,2] · b = [0*1+1*0+2*1, 0*0+1*1+2*1] = [2, 3]
        assert_eq!(&c.data()[..2], &[2.0, 3.0]);
    }

    #[test]
    fn gemm_row_grains_are_whole_tiles() {
        for m in 1..2000 {
            let rows = gemm_row_grain(m);
            assert_eq!(rows % TILE_ROWS, 0, "m={m}");
            assert!(
                rows > 0 && m.div_ceil(rows) <= 32,
                "m={m}: {rows}-row blocks"
            );
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&(0..24).map(|i| i as f32).collect::<Vec<_>>(), &[2, 3, 4]);
        let back = transpose_last(&transpose_last(&a));
        assert_eq!(back, a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_last(&a);
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[101.0, 102.0, 103.0], &[3]);
        let (sa, sb) = (softmax_last(&a), softmax_last(&b));
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = t(&[0.5, -1.0, 2.0, 0.1], &[2, 2]);
        let s = softmax_last(&a);
        let ln_s = |i: usize, j: usize| math::ln(s.data()[i * 2 + j]);
        for j in 0..2 {
            let (loss, saved) = softmax_ce(&a, &[j, j], None);
            saved.recycle();
            assert!((loss + (ln_s(0, j) + ln_s(1, j)) / 2.0).abs() < 1e-6);
            let (loss, saved) = softmax_ce(&a, &[j, j], Some(&[0.25, 2.0]));
            saved.recycle();
            assert!((loss + (0.25 * ln_s(0, j) + 2.0 * ln_s(1, j)) / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_norm_output_standardised() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let gamma = Tensor::ones(&[4]);
        let beta = Tensor::zeros(&[4]);
        let y = layer_norm(&x, &gamma, &beta);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gather_scatter_adjoint() {
        // <gather(W, idx), G> == <W, scatter(idx, G)> — adjointness.
        let w = t(&(0..8).map(|i| i as f32).collect::<Vec<_>>(), &[4, 2]);
        let idx = [1usize, 1, 3];
        let g = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let fwd = gather_rows(&w, &idx);
        let lhs: f32 = fwd.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let bwd = scatter_rows(&[4, 2], &idx, &g);
        let rhs: f32 = w.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn concat_slice_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[2, 3]);
        let c = concat_last(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(slice_last(&c, 0, 2), a);
        assert_eq!(slice_last(&c, 2, 3), b);
    }

    #[test]
    fn stack_select_roundtrip() {
        let s0 = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let s1 = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let st = stack_time(&[&s0, &s1]);
        assert_eq!(select_time(&st, 0), s0);
        assert_eq!(select_time(&st, 1), s1);
    }

    #[test]
    fn reduce_to_suffix_sums_leading() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let r = reduce_to_suffix(&a, &[2]);
        assert_eq!(r.data(), &[9.0, 12.0]);
    }

    #[test]
    fn slice_time_known() {
        let a = t(&(0..12).map(|i| i as f32).collect::<Vec<_>>(), &[2, 3, 2]);
        let s = slice_time(&a, 1, 2);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(&s.data()[..4], &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn sum_time_known() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]);
        let s = sum_time(&a);
        assert_eq!(s.data(), &[9.0, 12.0]);
    }
}
