//! Finite-difference gradient verification for every NN layer in the
//! substrate, via `ssdrec_testkit::check_grads` (bridged through
//! `fd_check_all_params`).
//!
//! Each test registers the layer's input as an extra store parameter, so the
//! check covers gradients with respect to both weights and inputs. Losses
//! are weighted sums through a `tanh` so that no gradient is trivially
//! constant. All builds are deterministic (fixed seeds), so these tests
//! cannot flake.

use ssdrec_tensor::nn::{
    causal_mask, gumbel_softmax, BiLstm, DftFilter, Embedding, FeedForward, Gru, LayerNorm, Linear,
    Lstm, MultiHeadAttention, TransformerBlock,
};
use ssdrec_tensor::{math, Binding, CsrMatrix, Graph, ParamRef, ParamStore, Rng, Tensor, Var};
use ssdrec_testkit::fd_check_all_params;

const EPS: f32 = 1e-2;
const TOL: f32 = 1e-3;

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), shape)
}

/// Weighted `tanh` readout: a scalar loss that keeps every output coordinate
/// relevant and every gradient non-constant.
fn readout(g: &mut Graph, out: Var, seed: u64) -> Var {
    let shape = g.value(out).shape().to_vec();
    let w = g.constant(rand_tensor(&shape, seed));
    let t = g.tanh(out);
    let p = g.mul(t, w);
    g.sum_all(p)
}

/// Register an input tensor as a checkable parameter.
fn input_param(store: &mut ParamStore, shape: &[usize], seed: u64) -> ParamRef {
    store.add("input", rand_tensor(shape, seed))
}

#[test]
fn linear_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(1);
    let lin = Linear::new(&mut store, "lin", 5, 3, &mut rng);
    let x = input_param(&mut store, &[4, 5], 2);
    let worst = fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let y = lin.forward(g, bind, xv);
        readout(g, y, 3)
    });
    assert!(worst <= TOL);
}

#[test]
fn embedding_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(4);
    let emb = Embedding::new(&mut store, "emb", 7, 4, &mut rng);
    let ids = [1usize, 3, 6, 3, 0, 2];
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let y = emb.lookup_seq(g, bind, &ids, 2, 3);
        readout(g, y, 5)
    });
}

#[test]
fn lstm_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(6);
    let lstm = Lstm::new(&mut store, "lstm", 3, 4, &mut rng);
    let x = input_param(&mut store, &[2, 3, 3], 7);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let h = lstm.forward(g, bind, xv);
        readout(g, h, 8)
    });
}

#[test]
fn bilstm_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(9);
    let lstm = BiLstm::new(&mut store, "bi", 3, 3, &mut rng);
    let x = input_param(&mut store, &[2, 3, 3], 10);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let (hl, hr) = lstm.forward(g, bind, xv);
        let p = g.mul(hl, hr);
        readout(g, p, 11)
    });
}

#[test]
fn gru_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(12);
    let gru = Gru::new(&mut store, "gru", 3, 4, &mut rng);
    let x = input_param(&mut store, &[2, 3, 3], 13);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let (all, last) = gru.forward(g, bind, xv);
        let a = readout(g, all, 14);
        let b = readout(g, last, 15);
        g.add(a, b)
    });
}

#[test]
fn multi_head_attention_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(16);
    let mha = MultiHeadAttention::new(&mut store, "mha", 4, 2, &mut rng);
    let x = input_param(&mut store, &[2, 3, 4], 17);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let m = g.constant(causal_mask(3));
        let y = mha.forward(g, bind, xv, Some(m));
        readout(g, y, 18)
    });
}

#[test]
fn feed_forward_gradients() {
    // ReLU inside the FF block: a smaller step keeps the central difference
    // from straddling the kink at zero pre-activation.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(19);
    let ff = FeedForward::new(&mut store, "ff", 4, 8, &mut rng);
    let x = input_param(&mut store, &[2, 3, 4], 20);
    fd_check_all_params(&mut store, 2e-3, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let y = ff.forward(g, bind, xv);
        readout(g, y, 21)
    });
}

#[test]
fn transformer_block_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(22);
    let blk = TransformerBlock::new(&mut store, "blk", 4, 2, &mut rng);
    let x = input_param(&mut store, &[2, 3, 4], 23);
    // Smaller step for the ReLU kink inside the block's feed-forward half.
    fd_check_all_params(&mut store, 2e-3, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let m = g.constant(causal_mask(3));
        let y = blk.forward(g, bind, xv, Some(m));
        readout(g, y, 24)
    });
}

#[test]
fn layer_norm_gradients() {
    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, "ln", 6);
    let x = input_param(&mut store, &[3, 6], 25);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let y = ln.forward(g, bind, xv);
        readout(g, y, 26)
    });
}

/// The soft relaxation `softmax((ln p + g)/τ)` that `gumbel_softmax`
/// back-propagates, rebuilt from public ops with the node's noise: the
/// uniforms `Rng::gumbel` draws, through `math::ln`.
fn gumbel_relaxation(g: &mut Graph, rng: &mut Rng, probs: Var, tau: f32) -> Var {
    let shape = g.value(probs).shape().to_vec();
    let noise = (0..shape.iter().product::<usize>())
        .map(|_| -math::ln(-math::ln(f32::EPSILON.max(rng.next_f32()))))
        .collect();
    let logp = g.ln(probs);
    let gn = g.constant(Tensor::new(noise, &shape));
    let z = g.add(logp, gn);
    g.scaled_masked_softmax(z, 1.0 / tau, None)
}

#[test]
fn gumbel_softmax_soft_gradients() {
    // The straight-through node's forward is piecewise constant, so what
    // it back-propagates is the soft relaxation's gradient. The relaxation
    // is differentiable end-to-end; freezing the Gumbel noise (fresh seeded
    // RNG per rebuild) makes the loss deterministic so finite differences
    // are valid.
    let mut store = ParamStore::new();
    let x = input_param(&mut store, &[3, 5], 27);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let probs = g.exp(bind.var(x));
        let y = gumbel_relaxation(g, &mut Rng::seed(123), probs, 0.7);
        readout(g, y, 28)
    });

    // Under a linear readout the node's gradient is the relaxation's, bit
    // for bit: the hard one-hot and the detached copy carry none.
    let grad_of = |straight_through: bool| {
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let probs = g.exp(bind.var(x));
        let mut rng = Rng::seed(123);
        let y = if straight_through {
            gumbel_softmax(&mut g, &mut rng, probs, 0.7)
        } else {
            gumbel_relaxation(&mut g, &mut rng, probs, 0.7)
        };
        let w = g.constant(rand_tensor(&[3, 5], 28));
        let yw = g.mul(y, w);
        let loss = g.sum_all(yw);
        let grads = g.backward(loss);
        let gx = grads.get(bind.var(x)).expect("gradient reaches the input");
        gx.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(grad_of(true), grad_of(false));
}

#[test]
fn dft_filter_gradients() {
    let mut store = ParamStore::new();
    let f = DftFilter::new(&mut store, "dft", 4, 3);
    let x = input_param(&mut store, &[2, 4, 3], 29);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let xv = bind.var(x);
        let y = f.forward(g, bind, xv);
        readout(g, y, 30)
    });
}

#[test]
fn spmm_gradients() {
    // Unsorted rows, an empty row and a repeated column, as stage 1's
    // relation operators arrive.
    let lists = [
        vec![(2, 0.7), (0, 0.4)],
        vec![],
        vec![(3, 0.9), (1, -0.5), (3, 0.2)],
    ];
    let a = CsrMatrix::from_rows(3, 4, |i| lists[i].clone());
    let mut store = ParamStore::new();
    let x = input_param(&mut store, &[4, 3], 31);
    fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
        let y = g.spmm(&a, bind.var(x));
        readout(g, y, 32)
    });
}

#[test]
fn broadcast_gradients() {
    // Both suffix-broadcast ops, through a scalar gate (`[N·d, 1] ⊙ [1]`,
    // stage 1's PairConv), a two-axis suffix and a row bias.
    for (i, (ash, bsh)) in [
        (&[6, 1][..], &[1][..]),
        (&[2, 3, 4], &[3, 4]),
        (&[5, 7], &[7]),
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 33 + 3 * i as u64;
        let mut store = ParamStore::new();
        let a = input_param(&mut store, ash, seed);
        let b = store.add("b", rand_tensor(bsh, seed + 1));
        fd_check_all_params(&mut store, EPS, TOL, |g, bind: &Binding| {
            let s = g.add_bcast(bind.var(a), bind.var(b));
            let p = g.mul_bcast(s, bind.var(b));
            readout(g, p, seed + 2)
        });
    }
}
