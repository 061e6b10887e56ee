//! DSAN [23]: dual sparse attention network — explicit denoising via a
//! *virtual target item* whose sparse attention over the sequence zeroes out
//! (i.e. removes) irrelevant items.
//!
//! The original uses α-entmax for sparsity; here sparsity is realised as a
//! thresholded-renormalised softmax (weights below `γ / T` are cut to exactly
//! zero and the rest renormalised), which preserves the defining property —
//! exact zeros — while staying inside the substrate's op set.

use ssdrec_data::Batch;
use ssdrec_tensor::nn::{Embedding, Linear};
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Var};

use ssdrec_models::{next_item_ce, score_catalogue, RecModel};

/// The DSAN model.
pub struct Dsan {
    /// Trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    /// The learnable virtual target embedding.
    virtual_target: ssdrec_tensor::ParamRef,
    wq: Linear,
    wk: Linear,
    out: Linear,
    dim: usize,
    /// Sparsity threshold factor: weights below `gamma / T` are dropped.
    pub gamma: f32,
}

impl Dsan {
    /// Build the model.
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let virtual_target = store.add_xavier("dsan.vt", &[1, dim], &mut rng);
        let wq = Linear::new_no_bias(&mut store, "dsan.wq", dim, dim, &mut rng);
        let wk = Linear::new_no_bias(&mut store, "dsan.wk", dim, dim, &mut rng);
        let out = Linear::new(&mut store, "dsan.out", 2 * dim, dim, &mut rng);
        Dsan {
            store,
            item_emb,
            virtual_target,
            wq,
            wk,
            out,
            dim,
            gamma: 0.5,
        }
    }

    /// Sparse attention weights of the virtual target over the sequence:
    /// softmax, hard-threshold at `γ/T`, renormalise. Returns `B×T`.
    fn sparse_attention(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let (b, t, _d) = g.value(h_seq).dims3();
        let vt = bind.var(self.virtual_target); // 1×d
        let q = self.wq.forward(g, bind, vt); // 1×d
        let k = self.wk.forward(g, bind, h_seq); // B×T×d
        let kt = g.transpose_last(k); // B×d×T
        let scores = g.matmul(q, kt); // (1×d)x(B×d×T) → B×1×T
        let scores = g.scale(scores, 1.0 / (self.dim as f32).sqrt());
        let scores = g.reshape(scores, &[b, t]);
        let soft = g.softmax_last(scores);

        // Hard threshold (non-differentiable mask, like entmax's support
        // selection), then renormalise differentiably over the kept support.
        let thresh = self.gamma / t as f32;
        let sv = g.value(soft).clone();
        let mask_t = sv.map(|w| if w >= thresh { 1.0 } else { 0.0 });
        let mask = g.constant(mask_t);
        let kept = g.mul(soft, mask);
        let sums = g.sum_last(kept); // B
        let sums = g.add_scalar(sums, 1e-9);
        let denom = g.expand_last(sums, t); // B×T tiled row sums
        g.div(kept, denom)
    }

    /// The `B×d` sequence representations; `rng` enables dropout.
    fn represent(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        rng: Option<&mut Rng>,
    ) -> Var {
        let b = batch.len();
        let t = batch.seq_len;
        let mut h = self.item_emb.lookup_seq(g, bind, &batch.items, b, t);
        if let Some(rng) = rng {
            h = g.dropout(h, ssdrec_models::DROPOUT, rng);
        }
        let attn = self.sparse_attention(g, bind, h); // B×T
        let a3 = g.reshape(attn, &[b, 1, t]);
        let agg = g.matmul(a3, h); // B×1×d
        let agg = g.reshape(agg, &[b, self.dim]);
        let last = g.select_time(h, t - 1);
        let cat = g.concat_last(&[agg, last]);
        self.out.forward(g, bind, cat)
    }
}

impl RecModel for Dsan {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let h_s = self.represent(g, bind, batch, Some(rng));
        next_item_ce(g, self.item_emb.table(bind), h_s, &batch.targets)
    }

    fn eval_scores_frozen(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Var {
        let h_s = self.represent(g, bind, batch, None);
        score_catalogue(g, self.item_emb.table(bind), h_s)
    }

    fn model_name(&self) -> String {
        "DSAN".into()
    }
}

impl crate::Denoiser for Dsan {
    /// Keep score = the sparse attention weight; kept iff it survived the
    /// threshold (`w > 0`).
    fn keep(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Vec<crate::Keep> {
        let t = batch.seq_len;
        let h = self
            .item_emb
            .lookup_seq(g, bind, &batch.items, batch.len(), t);
        let attn = self.sparse_attention(g, bind, h);
        g.value(attn)
            .data()
            .chunks(t)
            .map(|row| crate::Keep {
                scores: row.to_vec(),
                kept: row.iter().map(|&w| w > 0.0).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch() -> Batch {
        Batch {
            users: vec![0, 1],
            items: vec![1, 2, 3, 4, 5, 6],
            seq_len: 3,
            targets: vec![4, 1],
            noise: None,
        }
    }

    #[test]
    fn scores_shape() {
        let m = Dsan::new(10, 8, 0);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let s = m.eval_scores(&mut g, &bind, &toy_batch());
        assert_eq!(g.value(s).shape(), &[2, 11]);
    }

    #[test]
    fn sparse_attention_rows_sum_to_one_over_support() {
        let m = Dsan::new(10, 8, 1);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m.item_emb.lookup_seq(&mut g, &bind, &[1, 2, 3, 4, 5], 1, 5);
        let a = m.sparse_attention(&mut g, &bind, h);
        let row = g.value(a).data();
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-4, "sum {s}");
    }

    #[test]
    fn high_gamma_produces_exact_zeros() {
        let mut m = Dsan::new(20, 8, 2);
        m.gamma = 1.0; // threshold 1/T: cuts the below-average half
        let ex = ssdrec_data::Example {
            user: 0,
            seq: vec![1, 5, 9, 13, 17, 3, 7, 11],
            target: 1,
            noise: None,
        };
        let support = &crate::keep_each(&m, &[ex])[0].kept;
        assert!(support.iter().any(|&k| !k), "no position was dropped");
        assert!(support.iter().any(|&k| k), "everything was dropped");
    }

    /// The per-sequence attention support and keep scores DSAN computed
    /// before the batched keep output, verbatim (two forwards): the oracle
    /// [`crate::Denoiser::keep`] is walled against.
    fn oracle_attention_support(m: &Dsan, seq: &[usize]) -> Vec<bool> {
        let batch = Batch {
            users: vec![0],
            items: seq.to_vec(),
            seq_len: seq.len(),
            targets: vec![seq[seq.len() - 1]],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m
            .item_emb
            .lookup_seq(&mut g, &bind, &batch.items, 1, batch.seq_len);
        let attn = m.sparse_attention(&mut g, &bind, h);
        g.value(attn).data().iter().map(|&w| w > 0.0).collect()
    }

    fn oracle_keep_scores(m: &Dsan, seq: &[usize], _user: usize) -> Vec<f32> {
        let batch = Batch {
            users: vec![0],
            items: seq.to_vec(),
            seq_len: seq.len(),
            targets: vec![seq[seq.len() - 1]],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m
            .item_emb
            .lookup_seq(&mut g, &bind, &batch.items, 1, batch.seq_len);
        let attn = m.sparse_attention(&mut g, &bind, h);
        g.value(attn).data().to_vec()
    }

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        for gamma in [0.5, 1.0] {
            let mut m = Dsan::new(10, 8, 3);
            m.gamma = gamma;
            crate::wall::assert_keep_matches(&m, &crate::wall::mixed_examples(4, 10), |seq, u| {
                (
                    oracle_keep_scores(&m, seq, u),
                    oracle_attention_support(&m, seq),
                )
            });
        }
    }

    #[test]
    fn loss_backprops_through_sparse_attention() {
        let m = Dsan::new(10, 8, 4);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let loss = m.loss(&mut g, &bind, &toy_batch(), &mut rng);
        let grads = g.backward(loss);
        assert!(grads.get(bind.var(m.virtual_target)).is_some());
    }
}
