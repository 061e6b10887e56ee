//! MGSD-WSS: multi-granularity sequence denoising with a weakly supervised
//! noise signal (PAPERS.md, 2025) — the newest method in the workload zoo.
//!
//! Two noise signals at different granularities are learned per position:
//!
//! 1. **item level** — the position's own coherence, scored by the shared
//!    [`HsdCore`] signals (Bi-LSTM sequentiality × user interest);
//! 2. **segment level** — mean-pooled windows of [`SEG_WIDTH`] consecutive
//!    positions are scored as a whole, so a *burst* of noise (which looks
//!    locally self-consistent and fools item-level scoring) is caught by
//!    its segment standing out from the sequence.
//!
//! The keep probability is the product of both granularities. During
//! training the sequence representation is attenuated by the calibrated
//! keep probability (a soft, fully differentiable mask — no sampling, so
//! the loss draws nothing from the RNG stream beyond dropout); at
//! evaluation the workspace's relative-keep rule hardens the decision.
//!
//! **Weak supervision:** when a batch carries ground-truth noise flags
//! (synthetic data, or an `.ssdc` file with a NOIS section), the combined
//! keep probability is regressed onto them directly — the "weakly
//! supervised signal". Without labels it falls back to HSD's correlation
//! targets (relevance to the next interaction), so the model also trains
//! on unlabelled data.

use ssdrec_data::Batch;
use ssdrec_tensor::nn::{Embedding, Linear};
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

use ssdrec_models::{next_item_ce, score_catalogue, RecModel, SasRecEncoder, SeqEncoder};

use crate::hsd::HsdCore;

/// Segment width of the coarse granularity.
pub const SEG_WIDTH: usize = 4;

/// The MGSD-WSS model.
pub struct Mgsd {
    /// Trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    user_emb: Embedding,
    /// Item-granularity scorer (shared denoising core).
    pub core: HsdCore,
    w_seg: Linear,
    backbone: SasRecEncoder,
    /// Weight of the (weak) noise-supervision loss.
    pub ws_weight: f32,
}

impl Mgsd {
    /// Build MGSD-WSS for a catalogue of `num_items` items and `num_users`
    /// users.
    pub fn new(num_users: usize, num_items: usize, dim: usize, max_len: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let user_emb = Embedding::new(&mut store, "user", num_users, dim, &mut rng);
        let core = HsdCore::new(&mut store, "mgsd", dim, &mut rng);
        let w_seg = Linear::new(&mut store, "mgsd.w_seg", dim, 1, &mut rng);
        let backbone = SasRecEncoder::new(&mut store, dim, max_len, 2, 2, &mut rng);
        Mgsd {
            store,
            item_emb,
            user_emb,
            core,
            w_seg,
            backbone,
            ws_weight: 1.0,
        }
    }

    /// Segment boundaries for a sequence of length `t`: `⌈t/w⌉` contiguous
    /// windows of `w` = [`SEG_WIDTH`], the last one possibly short.
    fn segments(t: usize) -> Vec<(usize, usize)> {
        let w = SEG_WIDTH;
        (0..t.div_ceil(w))
            .map(|s| (s * w, ((s + 1) * w).min(t) - s * w))
            .collect()
    }

    /// Segment-granularity keep probabilities broadcast back to `B×T`:
    /// mean-pool `h` (`B×T×d`) per segment, score each pooled vector with a
    /// linear head (+ the same conservative keep prior the item signal
    /// uses), and expand each segment's σ-score over its positions.
    pub fn segment_keep_probs(&self, g: &mut Graph, bind: &Binding, h: Var) -> Var {
        const KEEP_PRIOR: f32 = 1.0;
        let (b, t, d) = g.value(h).dims3();
        let segs = Self::segments(t);
        let s = segs.len();
        // Pool matrix T×S: column j holds 1/len(j) over segment j's rows.
        let mut pool = Tensor::zeros(&[t, s]);
        for (j, &(start, len)) in segs.iter().enumerate() {
            for ti in start..start + len {
                pool.data_mut()[ti * s + j] = 1.0 / len as f32;
            }
        }
        let ht = g.transpose_last(h); // B×d×T
        let pv = g.constant(pool);
        let pooled_t = g.matmul(ht, pv); // B×d×S
        let pooled = g.transpose_last(pooled_t); // B×S×d
        let score = self.w_seg.forward(g, bind, pooled); // B×S×1
        let score = g.reshape(score, &[b, s]);
        let score = g.add_scalar(score, KEEP_PRIOR);
        let score = g.sigmoid(score); // B×S
                                      // Expand matrix S×T: row j is 1 over segment j's positions.
        let mut expand = Tensor::zeros(&[s, t]);
        for (j, &(start, len)) in segs.iter().enumerate() {
            for ti in start..start + len {
                expand.data_mut()[j * t + ti] = 1.0;
            }
        }
        let ev = g.constant(expand);
        let _ = d;
        g.matmul(score, ev) // B×T
    }

    /// Combined multi-granularity keep probability `B×T`: item-level ×
    /// segment-level.
    pub fn keep_probs_multi(&self, g: &mut Graph, bind: &Binding, h: Var, user: Var) -> Var {
        let item = self.core.keep_probs(g, bind, h, user);
        let seg = self.segment_keep_probs(g, bind, h);
        g.mul(item, seg)
    }

    /// The weak-supervision target for `probs` (`B×T`): ground-truth keep
    /// flags when the batch carries noise labels, HSD correlation targets
    /// otherwise. Always detached.
    fn supervision_targets(&self, g: &mut Graph, bind: &Binding, batch: &Batch, h: Var) -> Var {
        if let Some(noise) = &batch.noise {
            let y: Vec<f32> = noise.iter().map(|&n| if n { 0.0 } else { 1.0 }).collect();
            g.constant(Tensor::new(y, &[batch.len(), batch.seq_len]))
        } else {
            let tgt = self.item_emb.lookup(g, bind, &batch.targets);
            self.core.correlation_targets(g, h, tgt)
        }
    }

    /// The embedded batch `B×T×d` and its multi-granularity keep
    /// probabilities `B×T`.
    fn batch_keep_probs(&self, g: &mut Graph, bind: &Binding, batch: &Batch) -> (Var, Var) {
        let h = self
            .item_emb
            .lookup_seq(g, bind, &batch.items, batch.len(), batch.seq_len);
        let u = self.user_emb.lookup(g, bind, &batch.users);
        (h, self.keep_probs_multi(g, bind, h, u))
    }
}

impl RecModel for Mgsd {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let b = batch.len();
        let t = batch.seq_len;
        let h = self.item_emb.lookup_seq(g, bind, &batch.items, b, t);
        let h = g.dropout(h, ssdrec_models::DROPOUT, rng);
        let u = self.user_emb.lookup(g, bind, &batch.users);
        let probs = self.keep_probs_multi(g, bind, h, u);
        // Soft, differentiable denoising: attenuate each position by its
        // calibrated keep probability (no mask sampling — the relative
        // rule's calibration keeps average-coherence items near 1).
        let cal = self.core.calibrate(
            g,
            probs,
            crate::RELATIVE_KEEP_BETA,
            crate::RELATIVE_KEEP_KAPPA,
        );
        let mask3 = g.reshape(cal, &[b, t, 1]);
        let h_masked = self.core.apply_mask(g, h, mask3);
        let h_s = self.backbone.encode(g, bind, h_masked);
        let ce = next_item_ce(g, self.item_emb.table(bind), h_s, &batch.targets);
        // Weak supervision of the multi-granularity gate.
        let y = self.supervision_targets(g, bind, batch, h);
        let ws = self.core.gate_loss(g, probs, y);
        let ws = g.scale(ws, self.ws_weight);
        g.add(ce, ws)
    }

    fn eval_scores_frozen(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Var {
        let (h, probs) = self.batch_keep_probs(g, bind, batch);
        let mask = self.core.hard_mask(g, probs);
        let h_masked = self.core.apply_mask(g, h, mask);
        let h_s = self.backbone.encode(g, bind, h_masked);
        score_catalogue(g, self.item_emb.table(bind), h_s)
    }

    fn model_name(&self) -> String {
        "MGSD-WSS".into()
    }
}

impl crate::Denoiser for Mgsd {
    fn keep(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Vec<crate::Keep> {
        let (_, probs) = self.batch_keep_probs(g, bind, batch);
        crate::Keep::relative_rows(
            g.value(probs).data(),
            batch.seq_len,
            crate::RELATIVE_KEEP_BETA,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(noise: Option<Vec<bool>>) -> Batch {
        Batch {
            users: vec![0, 1],
            items: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2],
            seq_len: 6,
            targets: vec![4, 1],
            noise,
        }
    }

    #[test]
    fn segments_cover_the_sequence() {
        let segs = Mgsd::segments(10);
        assert_eq!(segs, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(Mgsd::segments(3), vec![(0, 3)]);
        assert_eq!(Mgsd::segments(1), vec![(0, 1)]);
    }

    #[test]
    fn combined_keep_probs_in_unit_interval() {
        let m = Mgsd::new(4, 10, 8, 20, 1);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m.item_emb.lookup_seq(&mut g, &bind, &[1, 2, 3, 4, 5], 1, 5);
        let u = m.user_emb.lookup(&mut g, &bind, &[0]);
        let p = m.keep_probs_multi(&mut g, &bind, h, u);
        assert_eq!(g.value(p).shape(), &[1, 5]);
        assert!(g.value(p).data().iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn segment_scores_are_constant_within_a_segment() {
        let m = Mgsd::new(4, 10, 8, 20, 2);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m
            .item_emb
            .lookup_seq(&mut g, &bind, &[1, 2, 3, 4, 5, 6, 7, 8], 1, 8);
        let s = m.segment_keep_probs(&mut g, &bind, h);
        let v = g.value(s).data();
        assert_eq!(v.len(), 8);
        for seg in v.chunks(SEG_WIDTH) {
            for &x in seg {
                assert_eq!(x.to_bits(), seg[0].to_bits(), "segment not constant: {v:?}");
            }
        }
    }

    #[test]
    fn labelled_loss_uses_ground_truth() {
        let m = Mgsd::new(4, 10, 8, 20, 3);
        let noise = vec![
            false, false, true, false, false, true, // user 0
            true, false, false, false, true, false, // user 1
        ];
        let mut rng = Rng::seed(0);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let with_var = m.loss(&mut g, &bind, &toy_batch(Some(noise)), &mut rng);
        let with = g.value(with_var).item();
        let mut rng2 = Rng::seed(0);
        let mut g2 = Graph::new();
        let bind2 = m.store.bind_all(&mut g2);
        let without_var = m.loss(&mut g2, &bind2, &toy_batch(None), &mut rng2);
        let without = g2.value(without_var).item();
        assert!(with.is_finite() && without.is_finite());
        assert_ne!(with, without, "noise labels must change the loss");
    }

    #[test]
    fn end_to_end_loss_and_grads() {
        let m = Mgsd::new(4, 10, 8, 20, 4);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(5);
        let loss = m.loss(&mut g, &bind, &toy_batch(None), &mut rng);
        assert!(g.value(loss).item().is_finite());
        let grads = g.backward(loss);
        assert!(grads.get(bind.var(m.item_emb.weight())).is_some());
        assert!(grads.get(bind.var(m.user_emb.weight())).is_some());
        assert!(grads.get(bind.var(m.w_seg.weight())).is_some());
    }

    /// The per-sequence keep scores MGSD computed before the batched keep
    /// output, verbatim: the oracle [`crate::Denoiser::keep`] is walled
    /// against.
    fn oracle_keep_scores(m: &Mgsd, seq: &[usize], user: usize) -> Vec<f32> {
        if seq.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m.item_emb.lookup_seq(&mut g, &bind, seq, 1, seq.len());
        let u = m.user_emb.lookup(&mut g, &bind, &[user]);
        let probs = m.keep_probs_multi(&mut g, &bind, h, u);
        g.value(probs).data().to_vec()
    }

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        let m = Mgsd::new(4, 10, 8, 50, 6);
        crate::wall::assert_keep_matches(&m, &crate::wall::mixed_examples(4, 10), |seq, user| {
            let scores = oracle_keep_scores(&m, seq, user);
            let kept = crate::relative_keep(&scores, crate::RELATIVE_KEEP_BETA);
            (scores, kept)
        });
    }

    #[test]
    fn eval_scores_deterministic_and_shaped() {
        let m = Mgsd::new(4, 10, 8, 20, 7);
        let run = || {
            let mut g = Graph::new();
            let bind = m.store.bind_all(&mut g);
            let s = m.eval_scores(&mut g, &bind, &toy_batch(None));
            g.value(s).data().to_vec()
        };
        assert_eq!(run(), run());
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let s = m.eval_scores(&mut g, &bind, &toy_batch(None));
        assert_eq!(g.value(s).shape(), &[2, 11]);
    }
}
