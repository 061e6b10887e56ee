//! The straight-line kernels the production kernels in
//! `ssdrec_tensor::backend` are held to, kept verbatim.
//!
//! Every loop body here is the original implementation from `kernels.rs`,
//! moved without arithmetic changes; since bits contract v2 its
//! exponentials and logarithm are `ssdrec_tensor::math`'s. They are
//! compiled only into the tests. The parity suite calls them side by side
//! with the production kernels, so keep them boring: no tiling, no manual
//! unrolling, no pass fusion beyond what the graph ops themselves pinned
//! (the fused entry points below apply the same per-element operation
//! sequence as the unfused node chains they replace).

#![allow(clippy::needless_range_loop)]

use ssdrec_tensor::{math, Activation};

/// Epsilon inside LayerNorm's variance square root.
const LN_EPS: f32 = 1e-5;

/// Compute output rows `[r0, r1)` of `out[m×n] (+)= a[m×k] · b[k×n]` into
/// `block`, with optional operand transposes (`ta`: `a` stored `k×m`; `tb`:
/// `b` stored `n×k`): the `!tb` variants add each `p` term onto the
/// output, the `tb` variants add one fresh `p`-ascending sum.
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
    // a is m×k after the (optional) transpose; likewise b is k×n.
    debug_assert_eq!(block.len(), (r1 - r0) * n);
    if !ta && !tb {
        for i in r0..r1 {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut block[(i - r0) * n..(i - r0 + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else if ta && !tb {
        // a stored as k×m. Row-range form of the p-outer sequential loop;
        // per output element the adds still run over p ascending.
        for i in r0..r1 {
            let orow = &mut block[(i - r0) * n..(i - r0 + 1) * n];
            for p in 0..k {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else if !ta && tb {
        // b stored as n×k
        for i in r0..r1 {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                block[(i - r0) * n + j] += acc;
            }
        }
    } else {
        // a stored k×m, b stored n×k
        for i in r0..r1 {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p * m + i] * b[j * k + p];
                }
                block[(i - r0) * n + j] += acc;
            }
        }
    }
}

/// Row-wise numerically-stable softmax (`n ≥ 1`).
pub fn softmax_rows(src: &[f32], dst: &mut [f32], n: usize) {
    for (src, dst) in src.chunks(n).zip(dst.chunks_mut(n)) {
        let mx = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = math::exp(s - mx);
            sum += *d;
        }
        for d in dst.iter_mut() {
            *d /= sum;
        }
    }
}

/// Row-wise numerically-stable log-softmax (`n ≥ 1`).
pub fn log_softmax_rows(src: &[f32], dst: &mut [f32], n: usize) {
    for (src, dst) in src.chunks(n).zip(dst.chunks_mut(n)) {
        let mx = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = math::ln(src.iter().map(|&s| math::exp(s - mx)).sum::<f32>()) + mx;
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = s - lse;
        }
    }
}

/// Row-wise LayerNorm with scale/shift.
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

/// `dst[i] = act(a[i] + bias[i % bias.len()])`.
pub fn bias_act_rows(a: &[f32], bias: &[f32], act: Activation, dst: &mut [f32]) {
    if dst.is_empty() {
        return;
    }
    // Two passes, mirroring the unfused add_bcast → activation node
    // chain this entry point replaces.
    let bn = bias.len();
    for (i, (d, &x)) in dst.iter_mut().zip(a.iter()).enumerate() {
        *d = x + bias[i % bn];
    }
    for d in dst.iter_mut() {
        *d = act.apply(*d);
    }
}

/// `dst = softmax_rows(a * scale + broadcast(mask))`.
pub fn scaled_masked_softmax_rows(
    a: &[f32],
    scale: f32,
    mask: Option<&[f32]>,
    dst: &mut [f32],
    n: usize,
) {
    // Pass 1: z = a·scale (+ broadcast mask), mirroring the unfused
    // scale → add nodes; then the verbatim row softmax over z.
    match mask {
        Some(mv) => {
            let mn = mv.len();
            for (i, (d, &x)) in dst.iter_mut().zip(a.iter()).enumerate() {
                *d = x * scale + mv[i % mn];
            }
        }
        None => {
            for (d, &x) in dst.iter_mut().zip(a.iter()) {
                *d = x * scale;
            }
        }
    }
    for row in dst.chunks_mut(n) {
        let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for d in row.iter_mut() {
            let s = *d;
            *d = math::exp(s - mx);
            sum += *d;
        }
        for d in row.iter_mut() {
            *d /= sum;
        }
    }
}
