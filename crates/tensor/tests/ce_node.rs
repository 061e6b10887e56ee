//! The fused cross-entropy nodes against the reference chain.
//!
//! `Graph::catalogue_ce` must give, bit for bit, the loss, `dh` and
//! `dtable` of the chain the node replaced: the scores `h · tableᵀ`, the
//! pad mask added, a row log-softmax, pick each row's target, mean and
//! negate. `Graph::softmax_ce` must give the loss and logit gradient of
//! that chain's tail from the log-softmax on, with each picked entry
//! multiplied by its row's weight before the mean when weights are given
//! (DCRec's conformity-weighted InfoNCE). The reference below is that
//! chain written out with the oracle's gemm and log-softmax and the
//! per-element loops of the graph ops it once was, verbatim, so neither
//! the node nor the production kernels it shares can vouch for
//! themselves. Every case runs in every tile build the host has and at 1
//! and 2 threads.

mod oracle;

use ssdrec_tensor::backend::{with_tile_isa, TileIsa};
use ssdrec_tensor::{math, Graph, Rng, Tensor};

/// Deterministic data in `[lo, hi)`.
fn fill(n: usize, salt: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = Rng::seed(salt ^ 0xce_5eed);
    (0..n).map(|_| lo + r.next_f32() * (hi - lo)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn transposed(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

/// The unfused chain's `(loss, dlogits)` over `b × n` logits for a loss
/// gradient `gout`: log-softmax, pick, weight (when given), mean, neg,
/// then their backwards, each as its graph op computed it.
#[allow(clippy::neg_multiply)] // `neg` multiplied by −1
fn chain_tail(
    logits: &[f32],
    b: usize,
    n: usize,
    targets: &[usize],
    weights: Option<&[f32]>,
    gout: f32,
) -> (f32, Vec<f32>) {
    let mut logp = vec![0.0; b * n];
    oracle::log_softmax_rows(logits, &mut logp, n);
    let mut picked: Vec<f32> = (0..b).map(|i| logp[i * n + targets[i]]).collect();
    if let Some(w) = weights {
        picked = picked.iter().zip(w).map(|(&x, &y)| x * y).collect();
    }
    let mean = picked.iter().sum::<f32>() / b as f32;
    let loss = mean * -1.0;
    // neg: `g·c`; mean_all: `g / n`; mul: `g·w`; pick_per_row: the value
    // at the target.
    let g = gout * -1.0 / b as f32;
    let mut gpick = vec![0.0f32; b * n];
    for (i, &t) in targets.iter().enumerate() {
        gpick[i * n + t] = weights.map_or(g, |w| g * w[i]);
    }
    // log_softmax_last's backward: `dy − exp(y) · Σ dy` per row.
    let mut dl = vec![0.0f32; b * n];
    for i in 0..b {
        let gr = &gpick[i * n..(i + 1) * n];
        let gsum: f32 = gr.iter().sum();
        for j in 0..n {
            dl[i * n + j] = gr[j] - math::exp(logp[i * n + j]) * gsum;
        }
    }
    (loss, dl)
}

/// The unfused catalogue chain: `(loss, dh, dtable)`.
fn chain(
    h: &[f32],
    table: &[f32],
    b: usize,
    d: usize,
    n: usize,
    targets: &[usize],
    gout: f32,
) -> (f32, Vec<f32>, Vec<f32>) {
    let tt = transposed(table, n, d);
    let mut logits = vec![0.0; b * n];
    oracle::gemm_rows(h, false, &tt, false, b, d, n, &mut logits, 0, b);
    // add_bcast of the pad mask.
    let mut mask = vec![0.0f32; n];
    mask[0] = -1e9;
    for row in logits.chunks_mut(n) {
        for (x, &m) in row.iter_mut().zip(&mask) {
            *x += m;
        }
    }
    let (loss, dl) = chain_tail(&logits, b, n, targets, None, gout);
    let mut dh = vec![0.0; b * d];
    oracle::gemm_rows(&dl, false, &tt, true, b, n, d, &mut dh, 0, b);
    let mut dtt = vec![0.0; d * n];
    oracle::gemm_rows(h, true, &dl, false, d, b, n, &mut dtt, 0, d);
    (loss, dh, transposed(&dtt, d, n))
}

/// The node on a graph: `(loss, dh, dtable)`.
fn node(
    h: &[f32],
    table: &[f32],
    b: usize,
    d: usize,
    n: usize,
    targets: &[usize],
    gout: f32,
) -> (f32, Vec<f32>, Vec<f32>) {
    let mut g = Graph::new();
    let hv = g.param(Tensor::new(h.to_vec(), &[b, d]));
    let tv = g.param(Tensor::new(table.to_vec(), &[n, d]));
    let mut mask = Tensor::zeros(&[n]);
    mask.data_mut()[0] = -1e9;
    let mv = g.constant(mask);
    let ce = g.catalogue_ce(hv, tv, mv, targets);
    let scaled = g.scale(ce, gout);
    let grads = g.backward(scaled);
    let loss = g.value(ce).item();
    let dh = grads.get(hv).expect("dh").data().to_vec();
    let dt = grads.get(tv).expect("dtable").data().to_vec();
    (loss, dh, dt)
}

/// Run `f` in every tile build at 1 and 2 threads.
fn everywhere(mut f: impl FnMut(&str)) {
    for isa in TileIsa::supported() {
        for threads in [1, 2] {
            ssdrec_runtime::set_threads(threads);
            with_tile_isa(isa, || f(&format!("{isa:?} threads={threads}")));
        }
    }
    ssdrec_runtime::set_threads(1);
}

struct Case {
    b: usize,
    d: usize,
    n: usize,
    targets: Vec<usize>,
    h: Vec<f32>,
    table: Vec<f32>,
}

fn case(b: usize, d: usize, n: usize, salt: u64) -> Case {
    Case {
        b,
        d,
        n,
        targets: (0..b)
            .map(|i| 1 + (i * 7 + salt as usize) % (n - 1))
            .collect(),
        h: fill(b * d, salt, -1.0, 1.0),
        table: fill(n * d, salt + 1, -1.0, 1.0),
    }
}

fn check(c: &Case, gout: f32, label: &str) {
    let want = chain(&c.h, &c.table, c.b, c.d, c.n, &c.targets, gout);
    everywhere(|at| {
        let got = node(&c.h, &c.table, c.b, c.d, c.n, &c.targets, gout);
        let ctx = format!("{label} b={} d={} n={} gout={gout} {at}", c.b, c.d, c.n);
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss {ctx}");
        assert_eq!(bits(&got.1), bits(&want.1), "dh {ctx}");
        assert_eq!(bits(&got.2), bits(&want.2), "dtable {ctx}");
    });
}

#[test]
fn catalogue_ce_is_the_unfused_chain_bit_for_bit() {
    // B = 1; B not a multiple of 8 or 16; V + 1 not a multiple of any `W`;
    // whole panels and interleave blocks; the benchmark's shape, whose
    // gemms clear the parallel gate.
    for (b, d, n) in [
        (1, 5, 37),
        (13, 8, 100),
        (17, 3, 33),
        (16, 16, 65),
        (64, 16, 2601),
    ] {
        let c = case(b, d, n, (b * 31 + n) as u64);
        check(&c, 1.0, "shapes");
    }
    // A loss gradient other than 1, and exactly 0 (the signed-zero sums).
    let c = case(9, 4, 41, 5);
    check(&c, 0.37, "gout");
    check(&c, 0.0, "gout");
}

#[test]
fn catalogue_ce_targets_at_the_edges_and_tied_maxima() {
    let (b, d, n) = (11, 6, 50);
    let mut c = case(b, d, n, 77);
    // Targets at column 1 (next to the pad) and at the last column.
    for (i, t) in c.targets.iter_mut().enumerate() {
        *t = if i % 2 == 0 { 1 } else { n - 1 };
    }
    // Two identical dominant table rows: every row with a positive `h`
    // sum has a tied max; a zero row of `h` ties every column at +0, a
    // `−0` row does too.
    for j in [4, 9] {
        c.table[j * d..(j + 1) * d].fill(3.0);
    }
    c.h[..d].fill(0.0);
    c.h[d..2 * d].fill(-0.0);
    for x in &mut c.h[2 * d..3 * d] {
        *x = x.abs();
    }
    let logits_tie = (0..d).map(|p| c.h[2 * d + p] * 3.0).sum::<f32>() > 0.0;
    assert!(logits_tie, "the case must hold a tied positive max");
    check(&c, 1.0, "edges");
}

/// Logits in `[-6, 6)` with, when the shape allows, row 0 holding `−0.0`
/// beside `+0.0` at its max and row 1 all `−0.0` (every entry tied).
fn tied_logits(b: usize, n: usize) -> Vec<f32> {
    let mut logits = fill(b * n, (b * 100 + n) as u64, -6.0, 6.0);
    if n >= 3 {
        // Row 0: −0 and +0 tie at the max; the rest below.
        for x in &mut logits[..n] {
            *x = -x.abs() - 1.0;
        }
        logits[0] = -0.0;
        logits[n - 1] = 0.0;
    }
    if b >= 2 {
        logits[n..2 * n].fill(-0.0);
    }
    logits
}

/// The given-logits node's `(loss, dlogits)` bits against the chain's,
/// in every tile build and thread count.
fn check_softmax_ce(
    logits: &[f32],
    b: usize,
    n: usize,
    targets: &[usize],
    weights: Option<&[f32]>,
    gout: f32,
    label: &str,
) {
    let want = chain_tail(logits, b, n, targets, weights, gout);
    everywhere(|at| {
        let mut g = Graph::new();
        let x = g.param(Tensor::new(logits.to_vec(), &[b, n]));
        let ce = g.softmax_ce(x, targets, weights);
        let scaled = g.scale(ce, gout);
        let grads = g.backward(scaled);
        let ctx = format!("{label} b={b} n={n} gout={gout} {at}");
        assert_eq!(g.value(ce).item().to_bits(), want.0.to_bits(), "loss {ctx}");
        assert_eq!(
            bits(grads.get(x).expect("dx").data()),
            bits(&want.1),
            "dx {ctx}"
        );
    });
}

const SOFTMAX_CE_SHAPES: [(usize, usize); 6] =
    [(1, 1), (1, 7), (5, 5), (13, 40), (64, 64), (3, 2601)];

/// The given-logits node against the chain's tail, rows holding `−0.0`
/// beside `+0.0` at the max, whole-row ties and the InfoNCE diagonal.
#[test]
fn softmax_ce_is_the_unfused_tail_bit_for_bit() {
    for (b, n) in SOFTMAX_CE_SHAPES {
        let logits = tied_logits(b, n);
        let targets: Vec<usize> = (0..b).map(|i| i % n).collect();
        for gout in [1.0, 0.37, 0.0] {
            check_softmax_ce(&logits, b, n, &targets, None, gout, "unweighted");
        }
    }
}

/// The weighted node against the chain with its weight multiply: weights
/// of 1 (which must also give the unweighted bits), of 0, fractional and
/// mixed with 0, on the same tied rows, and a row whose maximum two
/// entries tie away from zero.
#[test]
fn weighted_softmax_ce_is_the_weighted_chain_bit_for_bit() {
    for (b, n) in SOFTMAX_CE_SHAPES {
        let mut logits = tied_logits(b, n);
        if b >= 3 && n >= 2 {
            logits[2 * n..3 * n].fill(-1.0);
            logits[2 * n] = 4.5;
            logits[3 * n - 1] = 4.5;
        }
        let targets: Vec<usize> = (0..b).map(|i| i % n).collect();
        let fractional = fill(b, (b + n) as u64, 0.0, 1.0);
        let mixed: Vec<f32> = fractional
            .iter()
            .enumerate()
            .map(|(i, &w)| if i % 3 == 0 { 0.0 } else { w })
            .collect();
        for gout in [1.0, 0.37, 0.0] {
            // Weights of 1 give the unweighted chain's bits, so the node
            // weighted by 1 and the plain node answer to the same chain.
            let ones = vec![1.0; b];
            let weighted = chain_tail(&logits, b, n, &targets, Some(&ones), gout);
            let plain = chain_tail(&logits, b, n, &targets, None, gout);
            let ctx = format!("weights 1 b={b} n={n} gout={gout}");
            assert_eq!(weighted.0.to_bits(), plain.0.to_bits(), "loss {ctx}");
            assert_eq!(bits(&weighted.1), bits(&plain.1), "dx {ctx}");
            for (label, w) in [
                ("ones", ones),
                ("zeros", vec![0.0; b]),
                ("fractional", fractional.clone()),
                ("mixed", mixed.clone()),
            ] {
                check_softmax_ce(&logits, b, n, &targets, Some(&w), gout, label);
            }
        }
    }
}
