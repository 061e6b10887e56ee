//! Multi-head self-attention and transformer blocks (SASRec, BERT4Rec,
//! STEAM's bidirectional encoder, DCRec's transformer layer).
//!
//! Both take a *readout-only* form, `forward_last`, for a model that reads
//! the last position alone: keys and values still span all `T` rows, but
//! the query, the attention row, the output projection, both residuals,
//! both LayerNorms and the FFN run at row `T − 1` only, a `B×d` result
//! bit-equal to `select_time(forward(x), T − 1)`. Every kernel on that path
//! is row-independent, with a per-element chain fixed by the shape, so the
//! kept row's forward bits do not depend on the rows dropped. The gradients
//! match too: in the full form the dropped rows' query, projection, norm
//! and FFN gradients are `±0`, no-ops on the `+0`-started chains they were
//! added to, and `forward_last` takes the last row of `x` twice — once for
//! the query, before the keys and values, and once for the residual, after
//! the attention — so the tape hands `x` its gradient contributions in the
//! full block's order: residual, values, keys, query.

use crate::backend::Activation;
use crate::graph::{Graph, Var};
use crate::optim::{Binding, ParamStore};
use crate::rng::Rng;
use crate::tensor::Tensor;

use super::linear::{LayerNorm, Linear};

/// Multi-head scaled dot-product self-attention over `B×T×d`.
///
/// Heads are realised by slicing the feature dimension, which avoids general
/// permutation ops: each head attends within its own `d/heads` feature band.
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    out: Linear,
    heads: usize,
    dim: usize,
}

/// Build an additive causal mask (`T×T`, `0` below/on diagonal, `−1e9` above).
pub fn causal_mask(t: usize) -> Tensor {
    let mut m = Tensor::zeros(&[t, t]);
    for i in 0..t {
        for j in (i + 1)..t {
            m.data_mut()[i * t + j] = -1e9;
        }
    }
    m
}

/// Build an additive key-padding mask (`B×T×T`): column `j` of batch `b` is
/// `−1e9` whenever `pad[b][j]` is true.
pub fn padding_mask(pad: &[Vec<bool>]) -> Tensor {
    let b = pad.len();
    let t = pad[0].len();
    let mut m = Tensor::zeros(&[b, t, t]);
    for (bi, row) in pad.iter().enumerate() {
        for i in 0..t {
            for (j, &p) in row.iter().enumerate() {
                if p {
                    m.data_mut()[(bi * t + i) * t + j] = -1e9;
                }
            }
        }
    }
    m
}

impl MultiHeadAttention {
    /// New attention with `heads` heads over feature width `dim`
    /// (`dim % heads == 0`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        MultiHeadAttention {
            q: Linear::new(store, &format!("{name}.q"), dim, dim, rng),
            k: Linear::new(store, &format!("{name}.k"), dim, dim, rng),
            v: Linear::new(store, &format!("{name}.v"), dim, dim, rng),
            out: Linear::new(store, &format!("{name}.out"), dim, dim, rng),
            heads,
            dim,
        }
    }

    /// Apply self-attention. `mask` is an additive score mask of shape
    /// `T×T` (broadcast over batch) or `B×T×T`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var, mask: Option<Var>) -> Var {
        let q = self.q.forward(g, bind, x);
        self.attend(g, bind, q, x, mask)
    }

    /// [`forward`](Self::forward)'s last position only, `B×1×d`: the query
    /// of row `T − 1` over the keys and values of all `T` rows. `mask` is
    /// the full mask's last row (`1×T`, or `B×1×T`); a causal mask's last
    /// row is all zeros.
    pub fn forward_last(&self, g: &mut Graph, bind: &Binding, x: Var, mask: Option<Var>) -> Var {
        let (_b, t, _d) = g.value(x).dims3();
        let last = g.slice_time(x, t - 1, 1);
        let q = self.q.forward(g, bind, last);
        self.attend(g, bind, q, x, mask)
    }

    /// The attention body both forms share: queries `q` (`B×Tq×d`) over the
    /// keys and values of `x` (`B×T×d`), through the output projection.
    fn attend(&self, g: &mut Graph, bind: &Binding, q: Var, x: Var, mask: Option<Var>) -> Var {
        let dk = self.dim / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let k = self.k.forward(g, bind, x);
        let v = self.v.forward(g, bind, x);

        let mut head_outs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qs = g.slice_last(q, h * dk, dk);
            let ks = g.slice_last(k, h * dk, dk);
            let vs = g.slice_last(v, h * dk, dk);
            let kt = g.transpose_last(ks);
            let scores = g.matmul(qs, kt);
            // Fused scale + additive mask (T×T broadcast over batch, or
            // B×T×T) + softmax: one tape node per head instead of three.
            let attn = g.scaled_masked_softmax(scores, scale, mask);
            head_outs.push(g.matmul(attn, vs));
        }
        let merged = if head_outs.len() == 1 {
            head_outs[0]
        } else {
            g.concat_last(&head_outs)
        };
        self.out.forward(g, bind, merged)
    }
}

/// Position-wise feed-forward network (`d → inner → d`, ReLU).
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// A new FFN with the given inner width.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        inner: usize,
        rng: &mut Rng,
    ) -> Self {
        FeedForward {
            l1: Linear::new(store, &format!("{name}.l1"), dim, inner, rng),
            l2: Linear::new(store, &format!("{name}.l2"), inner, dim, rng),
        }
    }

    /// Apply the FFN (fused bias+ReLU on the inner layer).
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let h = self.l1.forward_act(g, bind, x, Activation::Relu);
        self.l2.forward(g, bind, h)
    }
}

/// A pre-activation transformer block: attention + residual + LayerNorm,
/// FFN + residual + LayerNorm.
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerBlock {
    /// A new block with `heads` heads and FFN inner width `4*dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut Rng,
    ) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), dim, heads, rng),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, dim * 4, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
        }
    }

    /// Apply the block.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var, mask: Option<Var>) -> Var {
        let a = self.attn.forward(g, bind, x, mask);
        self.residual_ffn(g, bind, x, a)
    }

    /// The block's output at the last position only, `B×d`: bit-equal to
    /// `select_time(forward(x, mask), T − 1)`, values and gradients (module
    /// docs). `mask` is the full mask's last row, as in
    /// [`MultiHeadAttention::forward_last`].
    pub fn forward_last(&self, g: &mut Graph, bind: &Binding, x: Var, mask: Option<Var>) -> Var {
        let (b, t, d) = g.value(x).dims3();
        let a = self.attn.forward_last(g, bind, x, mask);
        // The residual's own copy of row `T − 1`, taken after the attention
        // so that `x`'s gradient arrives in the full block's order.
        let last = g.slice_time(x, t - 1, 1);
        let y = self.residual_ffn(g, bind, last, a);
        g.reshape(y, &[b, d])
    }

    /// Residual + LayerNorm, FFN + residual + LayerNorm over the attention
    /// output `a` of the rows `x`.
    fn residual_ffn(&self, g: &mut Graph, bind: &Binding, x: Var, a: Var) -> Var {
        let r1 = g.add(x, a);
        let n1 = self.ln1.forward(g, bind, r1);
        let f = self.ffn.forward(g, bind, n1);
        let r2 = g.add(n1, f);
        self.ln2.forward(g, bind, r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(b: usize, t: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed(seed);
        Tensor::new(
            (0..b * t * d).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            &[b, t, d],
        )
    }

    #[test]
    fn attention_output_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let att = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(seq(3, 5, 8, 1));
        let y = att.forward(&mut g, &bind, x, None);
        assert_eq!(g.value(y).shape(), &[3, 5, 8]);
    }

    /// With a causal mask, position 0's output must be independent of later
    /// positions — the defining property of SASRec's attention.
    #[test]
    fn causal_mask_blocks_future() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(2);
        let att = MultiHeadAttention::new(&mut store, "a", 4, 1, &mut rng);

        let x1 = seq(1, 3, 4, 3);
        let mut x2 = x1.clone();
        // Perturb the last time step only.
        for d in 8..12 {
            x2.data_mut()[d] += 1.0;
        }

        let run = |store: &ParamStore, att: &MultiHeadAttention, x: Tensor| {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let xv = g.constant(x);
            let m = g.constant(causal_mask(3));
            let y = att.forward(&mut g, &bind, xv, Some(m));
            g.value(y).data().to_vec()
        };
        let y1 = run(&store, &att, x1);
        let y2 = run(&store, &att, x2);
        // First two positions unchanged, last position changed.
        assert_eq!(&y1[..8], &y2[..8]);
        assert_ne!(&y1[8..], &y2[8..]);
    }

    #[test]
    fn padding_mask_zeroes_padded_keys() {
        let pad = vec![vec![false, true]];
        let m = padding_mask(&pad);
        assert_eq!(m.shape(), &[1, 2, 2]);
        assert_eq!(m.data()[1], -1e9); // row 0, col 1
        assert_eq!(m.data()[3], -1e9); // row 1, col 1
        assert_eq!(m.data()[0], 0.0);
    }

    #[test]
    fn transformer_block_preserves_shape_and_grads() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(4);
        let blk = TransformerBlock::new(&mut store, "b", 8, 2, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.param(seq(2, 4, 8, 5));
        let y = blk.forward(&mut g, &bind, x, None);
        assert_eq!(g.value(y).shape(), &[2, 4, 8]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_some());
    }

    #[test]
    fn attention_rows_mix_value_information() {
        // Without a mask every output position depends on every input position.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(6);
        let att = MultiHeadAttention::new(&mut store, "a", 4, 2, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.param(seq(1, 3, 4, 7));
        let y = att.forward(&mut g, &bind, x, None);
        let y0 = g.select_time(y, 0);
        let loss = g.sum_all(y0);
        let grads = g.backward(loss);
        let gx = grads.get(x).unwrap();
        for t in 0..3 {
            assert!(gx.data()[t * 4..(t + 1) * 4].iter().any(|&v| v != 0.0));
        }
    }
}
