//! The six backbone encoders compared in the paper's Table III.
//!
//! Every backbone is re-implemented from its defining equations on the
//! workspace's autograd substrate. Architectural simplifications forced by
//! the substrate are noted per model and kept faithful in *shape*: what each
//! model can and cannot express is preserved.

use ssdrec_tensor::nn::{causal_mask, Gru, Linear, TransformerBlock};
use ssdrec_tensor::{Activation, Binding, Graph, ParamRef, ParamStore, Rng, Tensor, Var};

use crate::encoder::SeqEncoder;

/// GRU4Rec [12]: a GRU over the sequence; the last hidden state is the
/// sequence representation.
pub struct Gru4RecEncoder {
    gru: Gru,
}

impl Gru4RecEncoder {
    /// Build with hidden width equal to the embedding width `d`.
    pub fn new(store: &mut ParamStore, d: usize, rng: &mut Rng) -> Self {
        Gru4RecEncoder {
            gru: Gru::new(store, "gru4rec", d, d, rng),
        }
    }
}

impl SeqEncoder for Gru4RecEncoder {
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (_, last) = self.gru.forward(g, bind, h_seq);
        last
    }

    fn name(&self) -> &'static str {
        "GRU4Rec"
    }
}

/// NARM [14]: a GRU encoder with a hybrid global/local readout. The global
/// part is the last hidden state; the local part attends over all hidden
/// states with the last state as query.
pub struct NarmEncoder {
    gru: Gru,
    a1: Linear,
    a2: Linear,
    v: Linear,
    out: Linear,
}

impl NarmEncoder {
    /// Build with hidden width `d`.
    pub fn new(store: &mut ParamStore, d: usize, rng: &mut Rng) -> Self {
        NarmEncoder {
            gru: Gru::new(store, "narm.gru", d, d, rng),
            a1: Linear::new_no_bias(store, "narm.a1", d, d, rng),
            a2: Linear::new_no_bias(store, "narm.a2", d, d, rng),
            v: Linear::new_no_bias(store, "narm.v", d, 1, rng),
            out: Linear::new(store, "narm.out", 2 * d, d, rng),
        }
    }
}

impl SeqEncoder for NarmEncoder {
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (b, t, _d) = g.value(h_seq).dims3();
        let (hs, h_last) = self.gru.forward(g, bind, h_seq);
        // e_t = v ⋅ sigmoid(A1 h_t + A2 h_last)
        let k = self.a1.forward(g, bind, hs); // B×T×d
        let q = self.a2.forward(g, bind, h_last); // B×d
        let q3 = g.stack_time(&vec![q; t]); // B×T×d
        let s = g.add(k, q3);
        let s = g.sigmoid(s);
        let e = self.v.forward(g, bind, s); // B×T×1
        let e = g.reshape(e, &[b, t]);
        let a = g.softmax_last(e); // B×T
        let a3 = g.reshape(a, &[b, 1, t]);
        let local = g.matmul(a3, hs); // B×1×d
        let local = g.reshape(local, &[b, g.value(h_seq).dims3().2]);
        let both = g.concat_last(&[h_last, local]);
        self.out.forward(g, bind, both)
    }

    fn name(&self) -> &'static str {
        "NARM"
    }
}

/// STAMP [40]: attention over items with the last click and the session
/// memory (mean) as context; output is the element-wise product of the
/// transformed attention vector and the transformed last click.
pub struct StampEncoder {
    w1: Linear,
    w2: Linear,
    w3: Linear,
    w0: Linear,
    mlp_a: Linear,
    mlp_b: Linear,
}

impl StampEncoder {
    /// Build with width `d`.
    pub fn new(store: &mut ParamStore, d: usize, rng: &mut Rng) -> Self {
        StampEncoder {
            w1: Linear::new_no_bias(store, "stamp.w1", d, d, rng),
            w2: Linear::new_no_bias(store, "stamp.w2", d, d, rng),
            w3: Linear::new(store, "stamp.w3", d, d, rng),
            w0: Linear::new_no_bias(store, "stamp.w0", d, 1, rng),
            mlp_a: Linear::new(store, "stamp.mlp_a", d, d, rng),
            mlp_b: Linear::new(store, "stamp.mlp_b", d, d, rng),
        }
    }
}

impl SeqEncoder for StampEncoder {
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (b, t, d) = g.value(h_seq).dims3();
        let ms = g.mean_time(h_seq); // B×d session memory
        let xt = g.select_time(h_seq, t - 1); // B×d last click
        let k = self.w1.forward(g, bind, h_seq); // B×T×d
        let qt = self.w2.forward(g, bind, xt);
        let qm = self.w3.forward(g, bind, ms);
        let q = g.add(qt, qm);
        let q3 = g.stack_time(&vec![q; t]);
        let s = g.add(k, q3);
        let s = g.sigmoid(s);
        let e = self.w0.forward(g, bind, s); // B×T×1
        let e = g.reshape(e, &[b, t]);
        // STAMP uses unnormalised attention; a softmax is substituted for
        // numerical stability (shape-preserving).
        let a = g.softmax_last(e);
        let a3 = g.reshape(a, &[b, 1, t]);
        let ma = g.matmul(a3, h_seq);
        let ma = g.reshape(ma, &[b, d]);
        let hs_vec = self.mlp_a.forward_act(g, bind, ma, Activation::Tanh);
        let ht_vec = self.mlp_b.forward_act(g, bind, xt, Activation::Tanh);
        g.mul(hs_vec, ht_vec)
    }

    fn name(&self) -> &'static str {
        "STAMP"
    }
}

/// Caser [15]: horizontal convolutions of heights {2, 3} with max-over-time
/// pooling plus a vertical component.
///
/// Substrate note: Caser's vertical convolution has one weight per time
/// step, which is ill-defined under variable-length batches; it is realised
/// here as a learned projection of the temporal mean (a uniform vertical
/// filter), preserving the "aggregate over the full sequence" role.
pub struct CaserEncoder {
    h2: Linear,
    h3: Linear,
    vert: Linear,
    out: Linear,
    filters: usize,
}

impl CaserEncoder {
    /// Build with `filters` filters per horizontal height.
    pub fn new(store: &mut ParamStore, d: usize, filters: usize, rng: &mut Rng) -> Self {
        CaserEncoder {
            h2: Linear::new(store, "caser.h2", 2 * d, filters, rng),
            h3: Linear::new(store, "caser.h3", 3 * d, filters, rng),
            vert: Linear::new(store, "caser.vert", d, filters, rng),
            out: Linear::new(store, "caser.out", 3 * filters, d, rng),
            filters,
        }
    }

    /// Horizontal convolution of height `h` + ReLU + max-over-time.
    fn horizontal(&self, g: &mut Graph, bind: &Binding, h_seq: Var, h: usize, lin: &Linear) -> Var {
        let (b, t, d) = g.value(h_seq).dims3();
        if t < h {
            return g.constant(Tensor::zeros(&[b, self.filters]));
        }
        let mut pooled: Option<Var> = None;
        for start in 0..=(t - h) {
            let win = g.slice_time(h_seq, start, h); // B×h×d
            let flat = g.reshape(win, &[b, h * d]);
            let f = lin.forward_act(g, bind, flat, Activation::Relu);
            pooled = Some(match pooled {
                None => f,
                Some(p) => g.max2(p, f),
            });
        }
        pooled.expect("t >= h")
    }
}

impl SeqEncoder for CaserEncoder {
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let o2 = self.horizontal(g, bind, h_seq, 2, &self.h2);
        let o3 = self.horizontal(g, bind, h_seq, 3, &self.h3);
        let mean = g.mean_time(h_seq);
        let ov = self.vert.forward_act(g, bind, mean, Activation::Relu);
        let cat = g.concat_last(&[o2, o3, ov]);
        self.out.forward(g, bind, cat)
    }

    fn name(&self) -> &'static str {
        "Caser"
    }
}

/// Learnable positional embedding shared by the transformer backbones.
pub struct PositionalEmbedding {
    w: ParamRef,
    max_len: usize,
}

impl PositionalEmbedding {
    /// Build for positions `0..max_len`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        max_len: usize,
        d: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add_xavier(format!("{name}.pos"), &[max_len, d], rng);
        PositionalEmbedding { w, max_len }
    }

    /// Add positional encodings to `h_seq` (`B×T×d`, `T ≤ max_len`).
    pub fn add_to(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (_b, t, _d) = g.value(h_seq).dims3();
        assert!(
            t <= self.max_len,
            "sequence length {t} exceeds max_len {}",
            self.max_len
        );
        let idx: Vec<usize> = (0..t).collect();
        let w = bind.var(self.w);
        let pos = g.embedding(w, &idx); // T×d — a suffix of B×T×d
        g.add_bcast(h_seq, pos)
    }
}

/// `blocks` over `x` (`B×T×d`), read out at position `T − 1` (`B×d`): the
/// inner blocks at every position under `mask`, the last block in its
/// readout-only form (`TransformerBlock::forward_last`) under `last_mask`,
/// the mask's last row. Bit-equal to `select_time` of the full stack, whose
/// last block computed `T − 1` rows nobody read.
fn encode_last(
    g: &mut Graph,
    bind: &Binding,
    blocks: &[TransformerBlock],
    x: Var,
    mask: Option<Var>,
    last_mask: Option<Var>,
) -> Var {
    let Some((last, inner)) = blocks.split_last() else {
        let (_b, t, _d) = g.value(x).dims3();
        return g.select_time(x, t - 1);
    };
    let x = inner.iter().fold(x, |x, blk| blk.forward(g, bind, x, mask));
    last.forward_last(g, bind, x, last_mask)
}

/// SASRec [16]: stacked causal self-attention blocks; the representation is
/// the output at the last position.
pub struct SasRecEncoder {
    pos: PositionalEmbedding,
    blocks: Vec<TransformerBlock>,
}

impl SasRecEncoder {
    /// Build with `layers` blocks of `heads` heads.
    pub fn new(
        store: &mut ParamStore,
        d: usize,
        max_len: usize,
        layers: usize,
        heads: usize,
        rng: &mut Rng,
    ) -> Self {
        let pos = PositionalEmbedding::new(store, "sasrec", max_len, d, rng);
        let blocks = (0..layers)
            .map(|i| TransformerBlock::new(store, &format!("sasrec.blk{i}"), d, heads, rng))
            .collect();
        SasRecEncoder { pos, blocks }
    }
}

impl SeqEncoder for SasRecEncoder {
    /// The inner blocks at every position, the last block in its
    /// readout-only form: bit-equal to the last row of every block run at
    /// every position, then `select_time`.
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (_b, t, _d) = g.value(h_seq).dims3();
        let x = self.pos.add_to(g, bind, h_seq);
        let mask = g.constant(causal_mask(t));
        // The causal mask's last row: nothing after `T − 1` to hide.
        let last_row = g.constant(Tensor::zeros(&[1, t]));
        encode_last(g, bind, &self.blocks, x, Some(mask), Some(last_row))
    }

    fn name(&self) -> &'static str {
        "SASRec"
    }
}

/// BERT4Rec [17]: stacked *bidirectional* self-attention blocks; read out at
/// the last position.
///
/// Substrate note: the cloze (masked-item) pre-training objective is
/// replaced by the same next-item objective all models share, so that
/// Table III compares encoders under one loss; the architecture (full
/// bidirectional attention) is unchanged.
pub struct Bert4RecEncoder {
    pos: PositionalEmbedding,
    blocks: Vec<TransformerBlock>,
}

impl Bert4RecEncoder {
    /// Build with `layers` blocks of `heads` heads.
    pub fn new(
        store: &mut ParamStore,
        d: usize,
        max_len: usize,
        layers: usize,
        heads: usize,
        rng: &mut Rng,
    ) -> Self {
        let pos = PositionalEmbedding::new(store, "bert4rec", max_len, d, rng);
        let blocks = (0..layers)
            .map(|i| TransformerBlock::new(store, &format!("bert4rec.blk{i}"), d, heads, rng))
            .collect();
        Bert4RecEncoder { pos, blocks }
    }
}

impl SeqEncoder for Bert4RecEncoder {
    /// The inner blocks at every position, the last block in its
    /// readout-only form.
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let x = self.pos.add_to(g, bind, h_seq);
        encode_last(g, bind, &self.blocks, x, None, None)
    }

    fn name(&self) -> &'static str {
        "BERT4Rec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BackboneKind;
    use crate::model::build_encoder;

    fn rand_seq(b: usize, t: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed(seed);
        Tensor::new(
            (0..b * t * d).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            &[b, t, d],
        )
    }

    #[test]
    fn all_backbones_emit_correct_shape() {
        for kind in BackboneKind::all() {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed(0);
            let enc = build_encoder(kind, &mut store, 8, 20, &mut rng);
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let x = g.constant(rand_seq(3, 6, 8, 1));
            let out = enc.encode(&mut g, &bind, x);
            assert_eq!(g.value(out).shape(), &[3, 8], "{}", enc.name());
            assert!(!g.value(out).has_non_finite(), "{}", enc.name());
        }
    }

    #[test]
    fn all_backbones_backprop_to_input() {
        for kind in BackboneKind::all() {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed(2);
            let enc = build_encoder(kind, &mut store, 8, 20, &mut rng);
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let x = g.param(rand_seq(2, 5, 8, 3));
            let out = enc.encode(&mut g, &bind, x);
            let sq = g.mul(out, out);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            let gx = grads
                .get(x)
                .unwrap_or_else(|| panic!("{}: no input grad", enc.name()));
            assert!(
                gx.data().iter().any(|&v| v != 0.0),
                "{}: zero grad",
                enc.name()
            );
        }
    }

    #[test]
    fn backbones_handle_minimal_length() {
        // T = 2 is the shortest training prefix; Caser's height-3 conv must
        // degrade gracefully.
        for kind in BackboneKind::all() {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed(4);
            let enc = build_encoder(kind, &mut store, 8, 20, &mut rng);
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let x = g.constant(rand_seq(2, 2, 8, 5));
            let out = enc.encode(&mut g, &bind, x);
            assert_eq!(g.value(out).shape(), &[2, 8], "{}", enc.name());
        }
    }

    #[test]
    fn sasrec_last_position_sees_history() {
        // Changing the first item must change SASRec's output (causal mask
        // blocks the future, not the past).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(6);
        let enc = SasRecEncoder::new(&mut store, 8, 20, 2, 2, &mut rng);
        let x1 = rand_seq(1, 4, 8, 7);
        let mut x2 = x1.clone();
        for d in 0..8 {
            x2.data_mut()[d] += 1.0;
        }
        let run = |x: Tensor| {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let xv = g.constant(x);
            let out = enc.encode(&mut g, &bind, xv);
            g.value(out).data().to_vec()
        };
        assert_ne!(run(x1), run(x2));
    }

    /// Value, every parameter gradient and the input gradient of one
    /// `Σ w ⊙ out` loss, as bits.
    fn readout_bits(
        store: &ParamStore,
        x: &Tensor,
        w: &Tensor,
        out: impl Fn(&mut Graph, &Binding, Var) -> Var,
    ) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let xv = g.param(x.clone());
        let y = out(&mut g, &bind, xv);
        let wv = g.constant(w.clone());
        let weighted = g.mul(y, wv);
        let loss = g.sum_all(weighted);
        let mut all = vec![bits(g.value(y))];
        let grads = g.backward(loss);
        for i in 0..store.num_tensors() {
            let var = bind.var(ParamStore::param_ref_by_index(i));
            all.push(grads.get(var).map(bits).unwrap_or_default());
        }
        all.push(bits(grads.get(xv).expect("input gradient")));
        all
    }

    /// The readout-only last block is the full stack's last row, bit for
    /// bit: SASRec's and BERT4Rec's `encode` against `select_time` of every
    /// block run at every position (what `encode` computed before), for the
    /// value, each parameter's gradient and the input's gradient, at 0, 1
    /// and 2 layers.
    #[test]
    fn readout_only_last_block_equals_the_full_stacks_last_row() {
        let (d, max_len) = (32, 50);
        for layers in [0, 1, 2] {
            for heads in [1, 2] {
                let mut store = ParamStore::new();
                let mut rng = Rng::seed((layers * 2 + heads) as u64);
                let sasrec = SasRecEncoder::new(&mut store, d, max_len, layers, heads, &mut rng);
                let bert = Bert4RecEncoder::new(&mut store, d, max_len, layers, heads, &mut rng);
                let encoders: [(
                    &dyn SeqEncoder,
                    &PositionalEmbedding,
                    &[TransformerBlock],
                    bool,
                ); 2] = [
                    (&sasrec, &sasrec.pos, &sasrec.blocks, true),
                    (&bert, &bert.pos, &bert.blocks, false),
                ];
                for (enc, pos, blocks, causal) in encoders {
                    for b in [1, 3, 8] {
                        for t in [1, 2, 7, 50] {
                            let x = rand_seq(b, t, d, (b * 100 + t) as u64);
                            let w = rand_seq(1, b, d, t as u64).reshaped(&[b, d]);
                            let got =
                                readout_bits(&store, &x, &w, |g, bind, h| enc.encode(g, bind, h));
                            let want = readout_bits(&store, &x, &w, |g, bind, h| {
                                let mut x = pos.add_to(g, bind, h);
                                let mask = causal.then(|| g.constant(causal_mask(t)));
                                for blk in blocks {
                                    x = blk.forward(g, bind, x, mask);
                                }
                                g.select_time(x, t - 1)
                            });
                            assert!(
                                got == want,
                                "{} layers={layers} heads={heads} B={b} T={t}: the readout-only \
                                 bits differ from the full stack's",
                                enc.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn positional_embedding_rejects_overflow() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(8);
        let pos = PositionalEmbedding::new(&mut store, "p", 4, 8, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(rand_seq(1, 5, 8, 9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pos.add_to(&mut g, &bind, x)
        }));
        assert!(result.is_err());
    }
}
