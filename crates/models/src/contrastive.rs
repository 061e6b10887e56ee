//! CL4SRec-style contrastive self-supervision on the SASRec backbone.
//!
//! Two stochastic *views* of every sequence — produced by seeded crop /
//! reorder / mask operators — are encoded by the shared backbone and pulled
//! together with an InfoNCE loss over in-batch negatives, added to the
//! usual next-item cross-entropy with weight `cl_weight` (the CLI's
//! `--cl-weight`).
//!
//! ## The RNG stream contract for views
//!
//! View generation must be deterministic **per (seed, user)**, independent
//! of batch composition, batch order and thread count. The trainer's RNG
//! stream therefore contributes exactly **one** `u64` draw per batch (the
//! *salt*); each example then derives its own private generator from
//! `(salt, user)` via SplitMix-style mixing. Reordering examples within a
//! batch, changing the batch size, or running on a different thread count
//! cannot change any view — the properties `prop_contrastive.rs` enforces.
//!
//! All view operators are **length-preserving** (batches are
//! length-homogeneous and unpadded, so a view must keep its row's `T`):
//!
//! - **crop** keeps a contiguous window and left-pads with the pad item 0,
//! - **reorder** shuffles a contiguous sub-window in place,
//! - **mask** replaces a fixed fraction of positions with the pad item 0.
//!
//! For sequences of length ≥ 2 the two views are guaranteed to differ: if
//! the independently drawn views collide, one deterministic position flip
//! (pad ↔ original item) is applied to the second view.

use ssdrec_data::Batch;
use ssdrec_tensor::{Binding, Graph, Rng, Var};

use crate::encoder::BackboneKind;
use crate::model::{RecModel, SeqRec};

/// Default weight of the contrastive term (`--cl-weight`).
pub const DEFAULT_CL_WEIGHT: f32 = 0.1;
/// Default InfoNCE temperature (`--cl-tau`).
pub const DEFAULT_CL_TAU: f32 = 0.5;
/// Default augmentation strength (`--aug-rate`): the fraction of a
/// sequence a view operator touches.
pub const DEFAULT_AUG_RATE: f32 = 0.4;

/// Derive the private view generator for one `(salt, user)` pair. This is
/// the *whole* coupling between the trainer's RNG stream and a view: the
/// trainer contributes `salt` (one draw per batch), the example contributes
/// its user id, and everything downstream is a pure function of the two.
pub fn view_rng(salt: u64, user: usize) -> Rng {
    Rng::seed(salt ^ (user as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Apply one randomly chosen view operator (crop / reorder / mask) to
/// `seq`, drawing from `rng`. Always returns a vector of `seq.len()` items
/// (see the module docs for why views are length-preserving).
pub fn augment_view(seq: &[usize], rng: &mut Rng, aug_rate: f32) -> Vec<usize> {
    let t = seq.len();
    if t == 0 {
        return Vec::new();
    }
    let rate = aug_rate.clamp(0.0, 1.0);
    match rng.below(3) {
        // Crop: keep a contiguous window of ⌈(1−rate)·T⌉ items, left-pad
        // with the pad item so the final positions (the ones the encoder
        // reads hardest) hold real history.
        0 => {
            let keep = (((1.0 - rate) * t as f32).round() as usize).clamp(1, t);
            let start = rng.below(t - keep + 1);
            let mut v = vec![0usize; t - keep];
            v.extend_from_slice(&seq[start..start + keep]);
            v
        }
        // Reorder: shuffle a contiguous sub-window of ⌈rate·T⌉ items.
        1 => {
            let w = ((rate * t as f32).round() as usize).clamp(1, t);
            let start = rng.below(t - w + 1);
            let mut v = seq.to_vec();
            rng.shuffle(&mut v[start..start + w]);
            v
        }
        // Mask: replace ⌈rate·T⌉ distinct positions with the pad item.
        _ => {
            let n = ((rate * t as f32).round() as usize).clamp(1, t);
            let mut idx: Vec<usize> = (0..t).collect();
            rng.shuffle(&mut idx);
            let mut v = seq.to_vec();
            for &p in &idx[..n] {
                v[p] = 0;
            }
            v
        }
    }
}

/// Generate the two contrastive views of `seq` for `user` under `salt` —
/// deterministic per `(salt, user, seq)`, length-preserving, and guaranteed
/// distinct whenever `seq.len() ≥ 2`.
pub fn augment_views(
    seq: &[usize],
    user: usize,
    salt: u64,
    aug_rate: f32,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = view_rng(salt, user);
    let v1 = augment_view(seq, &mut rng, aug_rate);
    let mut v2 = augment_view(seq, &mut rng, aug_rate);
    if v1 == v2 && seq.len() >= 2 {
        // Deterministic tie-break: flip one position between pad and the
        // original item. Real item ids are ≥ 1, so the flip always changes
        // the view.
        let p = rng.below(seq.len());
        v2[p] = if v2[p] == 0 { seq[p].max(1) } else { 0 };
    }
    (v1, v2)
}

/// InfoNCE between two view representations `z1, z2` (`B×d`): positives
/// are the diagonal of `z1 z2ᵀ / τ`, negatives the rest of the batch.
/// `−mean_i log_softmax(sim)[i, i]` is the cross-entropy node over given
/// logits ([`Graph::softmax_ce`]) with the diagonal as the targets.
pub fn info_nce(g: &mut Graph, z1: Var, z2: Var, tau: f32) -> Var {
    let b = g.value(z1).shape()[0];
    let z2t = g.transpose_last(z2);
    let sim = g.matmul(z1, z2t); // B×B
    let sim = g.scale(sim, 1.0 / tau);
    let diag: Vec<usize> = (0..b).collect();
    g.softmax_ce(sim, &diag)
}

/// The contrastive training scenario: a [`SeqRec`] backbone whose loss is
/// joint next-item cross-entropy + `cl_weight` · InfoNCE between two
/// augmented views. Evaluation and serving are exactly the backbone's — the
/// contrastive head only shapes training.
pub struct ContrastiveSeqRec {
    /// The wrapped backbone recommender (owns every parameter, so
    /// checkpoints are plain [`SeqRec`] checkpoints).
    pub base: SeqRec,
    /// Weight of the InfoNCE term (`--cl-weight`).
    pub cl_weight: f32,
    /// InfoNCE temperature.
    pub cl_tau: f32,
    /// View operator strength.
    pub aug_rate: f32,
}

impl ContrastiveSeqRec {
    /// Build the scenario on a backbone of the given kind (the paper line
    /// uses SASRec).
    pub fn new(
        kind: BackboneKind,
        num_items: usize,
        dim: usize,
        max_len: usize,
        seed: u64,
    ) -> Self {
        ContrastiveSeqRec {
            base: SeqRec::new(kind, num_items, dim, max_len, seed),
            cl_weight: DEFAULT_CL_WEIGHT,
            cl_tau: DEFAULT_CL_TAU,
            aug_rate: DEFAULT_AUG_RATE,
        }
    }

    /// Materialize the two view batches for `batch` under `salt`. The view
    /// batches share users / targets / `seq_len` with the original (views
    /// are length-preserving), only the item rows differ.
    pub fn view_batches(&self, batch: &Batch, salt: u64) -> (Batch, Batch) {
        let mut items1 = Vec::with_capacity(batch.items.len());
        let mut items2 = Vec::with_capacity(batch.items.len());
        for i in 0..batch.len() {
            let (v1, v2) = augment_views(batch.seq(i), batch.users[i], salt, self.aug_rate);
            items1.extend_from_slice(&v1);
            items2.extend_from_slice(&v2);
        }
        let mk = |items: Vec<usize>| Batch {
            users: batch.users.clone(),
            items,
            seq_len: batch.seq_len,
            targets: batch.targets.clone(),
            noise: None,
        };
        (mk(items1), mk(items2))
    }

    /// Encode one view to its `B×d` representation — the backbone's
    /// embedding + encoder, without dropout (the view operators are the
    /// stochasticity here).
    fn encode_view(&self, g: &mut Graph, bind: &Binding, view: &Batch) -> Var {
        let h = self.base.embed_batch(g, bind, view);
        self.base.encoder.encode(g, bind, h)
    }
}

impl RecModel for ContrastiveSeqRec {
    fn store(&self) -> &ssdrec_tensor::ParamStore {
        &self.base.store
    }

    fn store_mut(&mut self) -> &mut ssdrec_tensor::ParamStore {
        &mut self.base.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let ce = self.base.ce_loss(g, bind, batch, rng);
        // InfoNCE needs in-batch negatives; a single-example batch (or a
        // disabled head) trains on CE alone.
        if batch.len() < 2 || self.cl_weight <= 0.0 {
            return ce;
        }
        let salt = rng.next_u64();
        let (view1, view2) = self.view_batches(batch, salt);
        let z1 = self.encode_view(g, bind, &view1);
        let z2 = self.encode_view(g, bind, &view2);
        let nce = info_nce(g, z1, z2, self.cl_tau);
        let weighted = g.scale(nce, self.cl_weight);
        g.add(ce, weighted)
    }

    fn precompute_frozen(&self, g: &mut Graph, bind: &Binding) -> Vec<Var> {
        self.base.precompute_frozen(g, bind)
    }

    fn eval_scores_frozen(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        frozen: &[Var],
    ) -> Var {
        self.base.eval_scores_frozen(g, bind, batch, frozen)
    }

    fn model_name(&self) -> String {
        "CL4SRec".into()
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
    fn views_preserve_length() {
        let seq = vec![3, 1, 4, 1, 5, 9, 2, 6];
        for salt in 0..16u64 {
            let (v1, v2) = augment_views(&seq, 7, salt, 0.4);
            assert_eq!(v1.len(), seq.len());
            assert_eq!(v2.len(), seq.len());
        }
    }

    #[test]
    fn views_are_deterministic() {
        let seq = vec![5, 2, 8, 1, 9];
        assert_eq!(
            augment_views(&seq, 3, 42, 0.4),
            augment_views(&seq, 3, 42, 0.4)
        );
    }

    #[test]
    fn views_differ_for_len_ge_2() {
        for salt in 0..64u64 {
            let seq = vec![2, 2, 2, 2]; // all-identical is the hard case
            let (v1, v2) = augment_views(&seq, 0, salt, 0.4);
            assert_ne!(v1, v2, "salt {salt}");
        }
    }

    #[test]
    fn loss_with_and_without_contrast_differ() {
        let mut m = ContrastiveSeqRec::new(BackboneKind::SasRec, 10, 8, 20, 1);
        let mut rng = Rng::seed(0);
        let mut g = Graph::new();
        let bind = m.base.store.bind_all(&mut g);
        let with = {
            let l = m.loss(&mut g, &bind, &toy_batch(), &mut rng);
            g.value(l).item()
        };
        m.cl_weight = 0.0;
        let mut g2 = Graph::new();
        let bind2 = m.base.store.bind_all(&mut g2);
        let mut rng2 = Rng::seed(0);
        let without = {
            let l = m.loss(&mut g2, &bind2, &toy_batch(), &mut rng2);
            g2.value(l).item()
        };
        assert!(with.is_finite() && without.is_finite());
        assert_ne!(with, without);
    }

    #[test]
    fn single_example_batch_skips_contrast() {
        let m = ContrastiveSeqRec::new(BackboneKind::SasRec, 10, 8, 20, 2);
        let batch = Batch {
            users: vec![0],
            items: vec![1, 2, 3],
            seq_len: 3,
            targets: vec![4],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.base.store.bind_all(&mut g);
        let mut rng = Rng::seed(3);
        let loss = m.loss(&mut g, &bind, &batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
    }

    #[test]
    fn eval_matches_backbone() {
        let m = ContrastiveSeqRec::new(BackboneKind::SasRec, 10, 8, 20, 4);
        let mut g = Graph::new();
        let bind = m.base.store.bind_all(&mut g);
        let a = m.eval_scores(&mut g, &bind, &toy_batch());
        let b = m.base.eval_scores(&mut g, &bind, &toy_batch());
        assert_eq!(g.value(a).data(), g.value(b).data());
    }
}
