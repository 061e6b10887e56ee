//! DCRec [41]: debiased contrastive learning for sequential recommendation.
//!
//! DCRec is the paper's strongest non-denoising baseline: a transformer
//! encoder trained with (a) the usual next-item loss and (b) a contrastive
//! loss between two stochastic views of each sequence, *down-weighted for
//! conformity* — interactions on popular items are treated as conformity
//! rather than genuine interest, debiasing the contrastive signal.

use ssdrec_data::Batch;
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

use ssdrec_models::{next_item_ce, score_catalogue, RecModel, SasRecEncoder, SeqEncoder};

/// Contrastive temperature τ of the InfoNCE between the two views.
const CL_TAU: f32 = 0.5;
/// Dropout used both for regularisation and for view generation.
const DROPOUT: f32 = 0.2;

/// The DCRec model.
pub struct DcRec {
    /// Trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    encoder: SasRecEncoder,
    /// Item conformity in `[0,1]` (popularity, normalised by the max).
    conformity: Vec<f32>,
    /// Weight of the contrastive term.
    pub beta: f32,
}

impl DcRec {
    /// Build the model. `item_freq[i]` is the training frequency of item `i`
    /// (index 0 = pad), from which conformity weights are derived.
    pub fn new(
        num_items: usize,
        dim: usize,
        max_len: usize,
        item_freq: &[usize],
        seed: u64,
    ) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let encoder = SasRecEncoder::new(&mut store, dim, max_len, 2, 2, &mut rng);
        let max_f = item_freq.iter().copied().max().unwrap_or(1).max(1) as f32;
        let mut conformity: Vec<f32> = item_freq.iter().map(|&f| f as f32 / max_f).collect();
        conformity.resize(num_items + 1, 0.0);
        DcRec {
            store,
            item_emb,
            encoder,
            conformity,
            beta: 0.2,
        }
    }

    fn encode_view(
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
            h = g.dropout(h, DROPOUT, rng);
        }
        self.encoder.encode(g, bind, h)
    }

    /// Conformity-weighted InfoNCE between two views `z1, z2` (`B×d`):
    /// positives are the diagonal of `z1 z2ᵀ / τ`, negatives in-batch.
    fn contrastive_loss(&self, g: &mut Graph, z1: Var, z2: Var, targets: &[usize]) -> Var {
        let b = g.value(z1).shape()[0];
        let z2t = g.transpose_last(z2);
        let sim = g.matmul(z1, z2t); // B×B
        let sim = g.scale(sim, 1.0 / CL_TAU);
        let logp = g.log_softmax_last(sim);
        let diag: Vec<usize> = (0..b).collect();
        let pos = g.pick_per_row(logp, &diag); // B
                                               // Debias: weight each example by 1 − conformity(target).
        let w: Vec<f32> = targets.iter().map(|&t| 1.0 - self.conformity[t]).collect();
        let wv = g.constant(Tensor::new(w, &[b]));
        let weighted = g.mul(pos, wv);
        let mean = g.mean_all(weighted);
        g.neg(mean)
    }
}

impl RecModel for DcRec {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let z1 = self.encode_view(g, bind, batch, Some(rng));
        let ce = next_item_ce(g, self.item_emb.table(bind), z1, &batch.targets);
        if batch.len() >= 2 && self.beta > 0.0 {
            let z2 = self.encode_view(g, bind, batch, Some(rng));
            let cl = self.contrastive_loss(g, z1, z2, &batch.targets);
            let wcl = g.scale(cl, self.beta);
            g.add(ce, wcl)
        } else {
            ce
        }
    }

    fn eval_scores_frozen(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Var {
        let z = self.encode_view(g, bind, batch, None);
        score_catalogue(g, self.item_emb.table(bind), z)
    }

    fn model_name(&self) -> String {
        "DCRec".into()
    }
}

impl crate::Denoiser for DcRec {
    /// DCRec debiases rather than denoises: it never removes items.
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

    fn freq() -> Vec<usize> {
        vec![0, 10, 5, 3, 2, 1, 1, 1, 1, 1, 1]
    }

    #[test]
    fn conformity_normalised() {
        let m = DcRec::new(10, 8, 20, &freq(), 0);
        assert_eq!(m.conformity[1], 1.0);
        assert!((m.conformity[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn loss_with_and_without_contrast() {
        let mut m = DcRec::new(10, 8, 20, &freq(), 1);
        let mut rng = Rng::seed(0);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let with_var = m.loss(&mut g, &bind, &toy_batch(), &mut rng);
        let with = g.value(with_var).item();
        m.beta = 0.0;
        let mut g2 = Graph::new();
        let bind2 = m.store.bind_all(&mut g2);
        let without_var = m.loss(&mut g2, &bind2, &toy_batch(), &mut rng);
        let without = g2.value(without_var).item();
        assert!(with.is_finite() && without.is_finite());
        assert_ne!(with, without);
    }

    #[test]
    fn single_example_batch_skips_contrast() {
        let m = DcRec::new(10, 8, 20, &freq(), 2);
        let batch = Batch {
            users: vec![0],
            items: vec![1, 2, 3],
            seq_len: 3,
            targets: vec![4],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(3);
        let loss = m.loss(&mut g, &bind, &batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
    }

    #[test]
    fn popular_targets_get_lower_contrast_weight() {
        let m = DcRec::new(10, 8, 20, &freq(), 4);
        // Item 1 is the most popular → weight 0; item 10 rare → weight near 1.
        assert!(1.0 - m.conformity[1] < 1.0 - m.conformity[10]);
    }

    /// The per-sequence keep decisions DCRec reported before the batched
    /// keep output, verbatim, with the trait's default all-ones scores:
    /// the oracle [`crate::Denoiser::keep`] is walled against.
    fn oracle_keep_decisions(seq: &[usize], _user: usize) -> Vec<bool> {
        vec![true; seq.len()]
    }

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        let m = DcRec::new(10, 8, 50, &freq(), 5);
        crate::wall::assert_keep_matches(&m, &crate::wall::mixed_examples(4, 10), |seq, user| {
            let kept = oracle_keep_decisions(seq, user);
            let scores = kept.iter().map(|&k| if k { 1.0 } else { 0.0 }).collect();
            (scores, kept)
        });
    }

    #[test]
    fn eval_shape() {
        let m = DcRec::new(10, 8, 20, &freq(), 6);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let s = m.eval_scores(&mut g, &bind, &toy_batch());
        assert_eq!(g.value(s).shape(), &[2, 11]);
    }
}
