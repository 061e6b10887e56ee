//! FMLP-Rec [28]: implicit sequence denoising with learnable frequency-domain
//! filters ("filter-enhanced MLP is all you need").
//!
//! Each layer applies `x → iFFT(FFT(x) ⊙ W)` along time, a residual + layer
//! norm, and a feed-forward block. Denoising is *implicit*: noisy items are
//! attenuated in the representation, never removed — which is exactly the
//! limitation the paper's Table IV exposes.
//!
//! The frequency filter needs a fixed sequence length, so batches are
//! left-padded to `max_len` with the padding item (as in RecBole's FMLP).

use ssdrec_data::Batch;
use ssdrec_tensor::nn::{DftFilter, Embedding, FeedForward, LayerNorm};
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Var};

use ssdrec_models::{next_item_ce, score_catalogue, RecModel};

struct FmlpLayer {
    filter: DftFilter,
    ln1: LayerNorm,
    ffn: FeedForward,
    ln2: LayerNorm,
}

/// The FMLP-Rec model.
pub struct FmlpRec {
    /// Trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    layers: Vec<FmlpLayer>,
    max_len: usize,
}

impl FmlpRec {
    /// Build with `layers` filter layers over sequences padded to `max_len`.
    pub fn new(num_items: usize, dim: usize, max_len: usize, layers: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let layers = (0..layers)
            .map(|i| FmlpLayer {
                filter: DftFilter::new(&mut store, &format!("fmlp.{i}.filter"), max_len, dim),
                ln1: LayerNorm::new(&mut store, &format!("fmlp.{i}.ln1"), dim),
                ffn: FeedForward::new(&mut store, &format!("fmlp.{i}.ffn"), dim, dim * 4, &mut rng),
                ln2: LayerNorm::new(&mut store, &format!("fmlp.{i}.ln2"), dim),
            })
            .collect();
        FmlpRec {
            store,
            item_emb,
            layers,
            max_len,
        }
    }

    /// Left-pad a batch's IDs to `max_len` (truncating from the front if
    /// longer).
    fn padded_ids(&self, batch: &Batch) -> Vec<usize> {
        let b = batch.len();
        let mut ids = vec![0usize; b * self.max_len];
        for i in 0..b {
            let seq = batch.seq(i);
            let keep = seq.len().min(self.max_len);
            let src = &seq[seq.len() - keep..];
            let dst_start = (i + 1) * self.max_len - keep;
            ids[dst_start..(i + 1) * self.max_len].copy_from_slice(src);
        }
        ids
    }

    /// The `B×d` sequence representations; `rng` enables dropout.
    fn represent(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        rng: Option<&mut Rng>,
    ) -> Var {
        let ids = self.padded_ids(batch);
        let b = batch.len();
        let mut h = self.item_emb.lookup_seq(g, bind, &ids, b, self.max_len);
        if let Some(rng) = rng {
            h = g.dropout(h, ssdrec_models::DROPOUT, rng);
        }
        for layer in &self.layers {
            let f = layer.filter.forward(g, bind, h);
            let r1 = g.add(h, f);
            let n1 = layer.ln1.forward(g, bind, r1);
            let ff = layer.ffn.forward(g, bind, n1);
            let r2 = g.add(n1, ff);
            h = layer.ln2.forward(g, bind, r2);
        }
        g.select_time(h, self.max_len - 1)
    }
}

impl RecModel for FmlpRec {
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
        "FMLP-Rec".into()
    }
}

impl crate::Denoiser for FmlpRec {
    /// FMLP denoises implicitly at the representation level: it never drops
    /// an item, so every position is kept (maximal under-denoising by
    /// construction — the paper's critique).
    fn keep(&self, _: &mut Graph, _: &Binding, batch: &Batch, _: &[Var]) -> Vec<crate::Keep> {
        crate::Keep::all(batch)
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
    fn forward_shape_and_finite() {
        let m = FmlpRec::new(10, 8, 12, 2, 0);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let s = m.eval_scores(&mut g, &bind, &toy_batch());
        assert_eq!(g.value(s).shape(), &[2, 11]);
        assert!(!g.value(s).has_non_finite());
    }

    #[test]
    fn left_padding_puts_sequence_at_end() {
        let m = FmlpRec::new(10, 8, 6, 1, 0);
        let ids = m.padded_ids(&toy_batch());
        assert_eq!(&ids[..6], &[0, 0, 0, 1, 2, 3]);
        assert_eq!(&ids[6..], &[0, 0, 0, 4, 5, 6]);
    }

    #[test]
    fn long_sequences_truncate_from_front() {
        let m = FmlpRec::new(10, 8, 2, 1, 0);
        let ids = m.padded_ids(&toy_batch());
        assert_eq!(&ids[..2], &[2, 3]);
    }

    /// The per-sequence keep decisions FMLP-Rec reported before the batched
    /// keep output, verbatim, with the trait's default all-ones scores:
    /// the oracle [`crate::Denoiser::keep`] is walled against.
    fn oracle_keep_decisions(seq: &[usize], _user: usize) -> Vec<bool> {
        vec![true; seq.len()]
    }

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        let m = FmlpRec::new(10, 8, 12, 1, 0);
        crate::wall::assert_keep_matches(&m, &crate::wall::mixed_examples(4, 10), |seq, user| {
            let kept = oracle_keep_decisions(seq, user);
            let scores = kept.iter().map(|&k| if k { 1.0 } else { 0.0 }).collect();
            (scores, kept)
        });
    }

    #[test]
    fn loss_backprops() {
        let m = FmlpRec::new(10, 8, 12, 1, 1);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let loss = m.loss(&mut g, &bind, &toy_batch(), &mut rng);
        assert!(g.value(loss).item().is_finite());
        let grads = g.backward(loss);
        assert!(grads.get(bind.var(m.item_emb.weight())).is_some());
    }
}
