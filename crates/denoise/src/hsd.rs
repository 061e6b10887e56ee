//! HSD [27]: hierarchical item-inconsistency signal learning for sequence
//! denoising — the strongest explicit-denoising baseline and the `f_den`
//! SSDRec plugs into its third stage (paper Eq. 14).
//!
//! HSD learns two inconsistency signals per position:
//!
//! 1. **sequentiality** — how well the item fits its bidirectional context,
//!    scored from `h^L_t ⊙ h^R_t ⊙ h_t` of a Bi-LSTM (the same "strictest
//!    condition" SSDRec's Eq. 9 uses), and
//! 2. **user interest** — the item's affinity to the user representation.
//!
//! Their product is the keep-probability; a binary Gumbel-Softmax makes the
//! keep/drop decision differentiable. Dropped items are masked (zeroed) in
//! the representation sequence — batch-friendly removal.

use ssdrec_data::Batch;
use ssdrec_tensor::nn::{gumbel_softmax, BiLstm, Embedding, Linear};
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

use ssdrec_models::{next_item_ce, score_catalogue, Bert4RecEncoder, RecModel, SeqEncoder};

/// The reusable denoising core: inconsistency signals + differentiable
/// keep/drop masking. SSDRec's hierarchical denoising module instantiates
/// this directly.
pub struct HsdCore {
    bilstm: BiLstm,
    w_seq: Linear,
    dim: usize,
}

impl HsdCore {
    /// Build a core for representation width `d`.
    pub fn new(store: &mut ParamStore, name: &str, d: usize, rng: &mut Rng) -> Self {
        HsdCore {
            bilstm: BiLstm::new(store, &format!("{name}.bilstm"), d, d, rng),
            w_seq: Linear::new(store, &format!("{name}.w_seq"), d, 1, rng),
            dim: d,
        }
    }

    /// Keep probabilities `B×T` in `(0,1)`: sequentiality × user interest.
    ///
    /// Both signal logits carry a constant `+2` *conservative keep prior*:
    /// at initialisation each sigmoid sits near 0.73, so the product starts
    /// just above the keep threshold and the model must learn evidence to
    /// drop an item.
    /// Without the prior the product of two centred sigmoids starts at 0.25
    /// and the denoiser drops almost everything before learning anything —
    /// the curriculum idea behind HSD's temperature schedule.
    pub fn keep_probs(&self, g: &mut Graph, bind: &Binding, h_seq: Var, user: Var) -> Var {
        const KEEP_PRIOR: f32 = 1.0;
        let (b, t, d) = g.value(h_seq).dims3();
        // Sequentiality: σ(w · (h^L ⊙ h^R ⊙ h) + prior).
        let (hl, hr) = self.bilstm.forward(g, bind, h_seq);
        let p1 = g.mul(hl, hr);
        let p2 = g.mul(p1, h_seq);
        let s1 = self.w_seq.forward(g, bind, p2); // B×T×1
        let s1 = g.reshape(s1, &[b, t]);
        let s1 = g.add_scalar(s1, KEEP_PRIOR);
        let s1 = g.sigmoid(s1);
        // User interest: σ(h_t · e_u / √d + prior).
        let u3 = g.reshape(user, &[b, d, 1]);
        let dots = g.matmul(h_seq, u3); // B×T×1
        let dots = g.reshape(dots, &[b, t]);
        let dots = g.scale(dots, 1.0 / (d as f32).sqrt());
        let dots = g.add_scalar(dots, KEEP_PRIOR);
        let s2 = g.sigmoid(dots);
        g.mul(s1, s2)
    }

    /// Per-row calibration of raw keep scores into usable keep
    /// probabilities: `p_cal = σ(κ·(p / mean_row(p) − β))`.
    ///
    /// The raw score (a product of sigmoids, possibly multiplied by a graph
    /// prior) is a *ranking* signal whose absolute level drifts with its
    /// factors; sampling a Bernoulli mask from it directly would drop most
    /// of every sequence. Calibration recentres each sequence so that
    /// average-coherence items keep with high probability while items a
    /// fraction `β` below their sequence mean fall towards dropping — the
    /// same rule [`crate::relative_keep`] applies at decision time
    /// (`p_cal > 0.5 ⇔ p > β·mean`). Differentiable in `p`.
    pub fn calibrate(&self, g: &mut Graph, probs: Var, beta: f32, kappa: f32) -> Var {
        let t = g.value(probs).shape()[1];
        let sums = g.sum_last(probs); // B
        let means = g.scale(sums, 1.0 / t as f32);
        let means = g.add_scalar(means, 1e-9);
        let denom = g.expand_last(means, t); // B×T
        let ratio = g.div(probs, denom);
        let centred = g.add_scalar(ratio, -beta);
        let scaled = g.scale(centred, kappa);
        g.sigmoid(scaled)
    }

    /// Sample a straight-through binary keep mask `B×T×1` from keep
    /// probabilities via a two-class Gumbel-Softmax at temperature `tau`.
    pub fn sample_mask(&self, g: &mut Graph, rng: &mut Rng, probs: Var, tau: f32) -> Var {
        let (b, t) = {
            let s = g.value(probs).shape();
            (s[0], s[1])
        };
        let p3 = g.reshape(probs, &[b, t, 1]);
        let one = g.constant(Tensor::ones(&[b, t, 1]));
        let q3 = g.sub(one, p3);
        let cat = g.concat_last(&[p3, q3]); // B×T×2
        let gs = gumbel_softmax(g, rng, cat, tau);
        g.slice_last(gs, 0, 1) // B×T×1
    }

    /// Deterministic keep mask as a constant `B×T×1` tensor — used at
    /// inference, where HSD denoises without sampling. Uses the workspace's
    /// relative keep rule (drop positions well below the sequence's mean
    /// keep probability), which is invariant to score calibration.
    pub fn hard_mask(&self, g: &mut Graph, probs: Var) -> Var {
        self.hard_mask_with(g, probs, crate::RELATIVE_KEEP_BETA)
    }

    /// [`HsdCore::hard_mask`] with an explicit relative threshold `beta`.
    pub fn hard_mask_with(&self, g: &mut Graph, probs: Var, beta: f32) -> Var {
        let pv = g.value(probs).clone();
        let (b, t) = (pv.shape()[0], pv.shape()[1]);
        let mut m = Tensor::zeros(&[b, t, 1]);
        for bi in 0..b {
            let row = &pv.data()[bi * t..(bi + 1) * t];
            let kept = crate::relative_keep(row, beta);
            for (ti, &k) in kept.iter().enumerate() {
                m.data_mut()[bi * t + ti] = if k { 1.0 } else { 0.0 };
            }
        }
        g.constant(m)
    }

    /// Zero out dropped positions: `h_seq ⊙ expand(mask)`.
    pub fn apply_mask(&self, g: &mut Graph, h_seq: Var, mask: Var) -> Var {
        let (b, t, _) = g.value(mask).dims3();
        let flat = g.reshape(mask, &[b, t]);
        let expanded = g.expand_last(flat, self.dim); // B×T×d
        g.mul(h_seq, expanded)
    }

    /// The correlation supervision behind explicit denoising (paper §I:
    /// "each item is relevant with the sequence's next interaction"): a
    /// detached soft label per position, `y_t = σ(h_t · h_target / √d)`,
    /// that the keep probability is regressed onto during training. Without
    /// this signal the gate only learns through high-variance mask-sampling
    /// gradients and never separates noise from clean items.
    pub fn correlation_targets(&self, g: &mut Graph, h_seq: Var, target_emb: Var) -> Var {
        let (b, t, d) = g.value(h_seq).dims3();
        let tgt = g.reshape(target_emb, &[b, d, 1]);
        let dots = g.matmul(h_seq, tgt); // B×T×1
        let dots = g.reshape(dots, &[b, t]);
        let dots = g.scale(dots, 1.0 / (d as f32).sqrt());
        let y = g.sigmoid(dots);
        g.detach(y)
    }

    /// Mean squared error between keep probabilities and the correlation
    /// targets — the auxiliary gate loss.
    pub fn gate_loss(&self, g: &mut Graph, probs: Var, y: Var) -> Var {
        let d = g.sub(probs, y);
        let sq = g.mul(d, d);
        g.mean_all(sq)
    }
}

/// τ's multiplicative decay per anneal.
pub const TAU_DECAY: f32 = 0.98;
/// Optimisation steps between anneals (paper: every 40 batches).
pub const TAU_ANNEAL_EVERY: u64 = 40;
/// The floor τ never anneals below.
pub const TAU_MIN: f32 = 0.1;

/// The Gumbel temperature schedule HSD and SSDRec share: τ starts at
/// `tau0`, and every [`TAU_ANNEAL_EVERY`] optimisation steps it is
/// multiplied by [`TAU_DECAY`], floored at [`TAU_MIN`]. The step counter
/// and the current τ are the model's only hidden training state, so
/// [`TauSchedule::state`] is what its [`RecModel::train_state`] persists
/// for a bit-identical resume.
#[derive(Clone, Copy, Debug)]
pub struct TauSchedule {
    /// Current temperature.
    pub tau: f32,
    steps: u64,
}

impl TauSchedule {
    /// A schedule at step 0, starting at `tau0`.
    pub fn new(tau0: f32) -> Self {
        TauSchedule {
            tau: tau0,
            steps: 0,
        }
    }

    /// Count one optimisation step, annealing τ on every
    /// [`TAU_ANNEAL_EVERY`]-th.
    pub fn after_step(&mut self) {
        self.steps += 1;
        if self.steps.is_multiple_of(TAU_ANNEAL_EVERY) {
            self.tau = (self.tau * TAU_DECAY).max(TAU_MIN);
        }
    }

    /// `[steps, tau_bits]`.
    pub fn state(&self) -> Vec<u64> {
        vec![self.steps, self.tau.to_bits() as u64]
    }

    /// Restore [`TauSchedule::state`]; `model` names the owner in the error
    /// on a malformed state.
    pub fn restore(&mut self, state: &[u64], model: &str) -> Result<(), String> {
        let &[steps, tau_bits] = state else {
            return Err(format!(
                "{model} training state must be [steps, tau_bits], got {} words",
                state.len()
            ));
        };
        self.steps = steps;
        self.tau = f32::from_bits(tau_bits as u32);
        Ok(())
    }
}

/// The full HSD model: embeddings + core + BERT4Rec backbone (as in the
/// original paper's experiments).
pub struct Hsd {
    /// Trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    user_emb: Embedding,
    /// The reusable denoising core.
    pub core: HsdCore,
    backbone: Bert4RecEncoder,
    /// The Gumbel temperature, annealed during training.
    pub tau: TauSchedule,
}

impl Hsd {
    /// Build HSD for a catalogue of `num_items` items and `num_users` users.
    pub fn new(num_users: usize, num_items: usize, dim: usize, max_len: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let user_emb = Embedding::new(&mut store, "user", num_users, dim, &mut rng);
        let core = HsdCore::new(&mut store, "hsd", dim, &mut rng);
        let backbone = Bert4RecEncoder::new(&mut store, dim, max_len, 2, 2, &mut rng);
        Hsd {
            store,
            item_emb,
            user_emb,
            core,
            backbone,
            tau: TauSchedule::new(1.0),
        }
    }

    /// The embedded batch `B×T×d` and its keep probabilities `B×T`.
    fn keep_probs(&self, g: &mut Graph, bind: &Binding, batch: &Batch) -> (Var, Var) {
        let h = self
            .item_emb
            .lookup_seq(g, bind, &batch.items, batch.len(), batch.seq_len);
        let u = self.user_emb.lookup(g, bind, &batch.users);
        (h, self.core.keep_probs(g, bind, h, u))
    }
}

impl RecModel for Hsd {
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
        let probs = self.core.keep_probs(g, bind, h, u);
        let cal = self.core.calibrate(
            g,
            probs,
            crate::RELATIVE_KEEP_BETA,
            crate::RELATIVE_KEEP_KAPPA,
        );
        let mask = self.core.sample_mask(g, rng, cal, self.tau.tau);
        let h_masked = self.core.apply_mask(g, h, mask);
        let h_s = self.backbone.encode(g, bind, h_masked);
        let ce = next_item_ce(g, self.item_emb.table(bind), h_s, &batch.targets);
        // Correlation supervision of the keep gate (see HsdCore docs).
        let tgt = self.item_emb.lookup(g, bind, &batch.targets);
        let y = self.core.correlation_targets(g, h, tgt);
        let gl = self.core.gate_loss(g, probs, y);
        g.add(ce, gl)
    }

    fn eval_scores_frozen(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Var {
        let (h, probs) = self.keep_probs(g, bind, batch);
        let mask = self.core.hard_mask(g, probs);
        let h = self.core.apply_mask(g, h, mask);
        let h_s = self.backbone.encode(g, bind, h);
        score_catalogue(g, self.item_emb.table(bind), h_s)
    }

    fn after_step(&mut self) {
        self.tau.after_step();
    }

    fn train_state(&self) -> Vec<u64> {
        self.tau.state()
    }

    fn restore_train_state(&mut self, state: &[u64]) -> Result<(), String> {
        self.tau.restore(state, "HSD")
    }

    fn model_name(&self) -> String {
        "HSD".into()
    }
}

impl crate::Denoiser for Hsd {
    fn keep(&self, g: &mut Graph, bind: &Binding, batch: &Batch, _: &[Var]) -> Vec<crate::Keep> {
        let (_, probs) = self.keep_probs(g, bind, batch);
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
    fn keep_probs_in_unit_interval() {
        let m = Hsd::new(4, 10, 8, 20, 0);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m.item_emb.lookup_seq(&mut g, &bind, &[1, 2, 3, 4], 1, 4);
        let u = m.user_emb.lookup(&mut g, &bind, &[0]);
        let p = m.core.keep_probs(&mut g, &bind, h, u);
        assert_eq!(g.value(p).shape(), &[1, 4]);
        assert!(g.value(p).data().iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn sampled_mask_is_binary() {
        let m = Hsd::new(4, 10, 8, 20, 1);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let h = m.item_emb.lookup_seq(&mut g, &bind, &[1, 2, 3, 4, 5], 1, 5);
        let u = m.user_emb.lookup(&mut g, &bind, &[0]);
        let p = m.core.keep_probs(&mut g, &bind, h, u);
        let mask = m.core.sample_mask(&mut g, &mut rng, p, 1.0);
        for &v in g.value(mask).data() {
            assert!(v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6, "mask value {v}");
        }
    }

    #[test]
    fn masking_zeroes_dropped_rows() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(2);
        let core = HsdCore::new(&mut store, "c", 4, &mut rng);
        let mut g = Graph::new();
        let _bind = store.bind_all(&mut g);
        let h = g.constant(Tensor::ones(&[1, 3, 4]));
        let mask = g.constant(Tensor::new(vec![1.0, 0.0, 1.0], &[1, 3, 1]));
        let out = core.apply_mask(&mut g, h, mask);
        let v = g.value(out).data();
        assert_eq!(&v[0..4], &[1.0; 4]);
        assert_eq!(&v[4..8], &[0.0; 4]);
        assert_eq!(&v[8..12], &[1.0; 4]);
    }

    #[test]
    fn calibrate_matches_relative_rule() {
        // σ(κ(p/mean − β)) > 0.5 ⇔ p > β·mean — the hard mask and the
        // calibrated sampling probabilities must agree on the decision
        // boundary.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let core = HsdCore::new(&mut store, "c", 4, &mut rng);
        let mut g = Graph::new();
        let _bind = store.bind_all(&mut g);
        let raw = vec![0.5f32, 0.5, 0.1, 0.4, 0.55];
        let p = g.constant(Tensor::new(raw.clone(), &[1, 5]));
        let cal = core.calibrate(
            &mut g,
            p,
            crate::RELATIVE_KEEP_BETA,
            crate::RELATIVE_KEEP_KAPPA,
        );
        let rule = crate::relative_keep(&raw, crate::RELATIVE_KEEP_BETA);
        for (cv, keep) in g.value(cal).data().iter().zip(rule) {
            assert_eq!(
                *cv > 0.5,
                keep,
                "calibrated {cv} disagrees with rule {keep}"
            );
        }
    }

    #[test]
    fn calibrate_is_scale_invariant() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(1);
        let core = HsdCore::new(&mut store, "c", 4, &mut rng);
        let mut g = Graph::new();
        let _bind = store.bind_all(&mut g);
        let raw = vec![0.5f32, 0.2, 0.9, 0.4];
        let a = g.constant(Tensor::new(raw.clone(), &[1, 4]));
        let b = g.constant(Tensor::new(raw.iter().map(|x| x * 0.01).collect(), &[1, 4]));
        let ca = core.calibrate(&mut g, a, 0.6, 8.0);
        let cb = core.calibrate(&mut g, b, 0.6, 8.0);
        for (x, y) in g.value(ca).data().iter().zip(g.value(cb).data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn correlation_targets_are_detached_soft_labels() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(2);
        let core = HsdCore::new(&mut store, "c", 4, &mut rng);
        let mut g = Graph::new();
        let _bind = store.bind_all(&mut g);
        let h = g.param(Tensor::ones(&[1, 3, 4]));
        let tgt = g.param(Tensor::ones(&[1, 4]));
        let y = core.correlation_targets(&mut g, h, tgt);
        assert!(g.value(y).data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Detached: supervising on y must not push gradients into h or tgt
        // through the label side.
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads.get(h).is_none());
        assert!(grads.get(tgt).is_none());
    }

    #[test]
    fn tau_anneals_after_steps() {
        let mut m = Hsd::new(4, 10, 8, 20, 3);
        let t0 = m.tau.tau;
        for _ in 1..TAU_ANNEAL_EVERY {
            m.after_step();
        }
        assert_eq!(m.tau.tau, t0);
        m.after_step();
        assert_eq!(m.tau.tau, t0 * TAU_DECAY);
    }

    #[test]
    fn end_to_end_loss_and_grads() {
        let m = Hsd::new(4, 10, 8, 20, 4);
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(5);
        let loss = m.loss(&mut g, &bind, &toy_batch(), &mut rng);
        assert!(g.value(loss).item().is_finite());
        let grads = g.backward(loss);
        // Gradients must reach both the denoising core and the embeddings.
        assert!(grads.get(bind.var(m.item_emb.weight())).is_some());
        assert!(grads.get(bind.var(m.user_emb.weight())).is_some());
    }

    /// The per-sequence keep scores HSD computed before the batched keep
    /// output, verbatim: the oracle [`crate::Denoiser::keep`] is walled
    /// against.
    fn oracle_keep_scores(m: &Hsd, seq: &[usize], user: usize) -> Vec<f32> {
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let h = m.item_emb.lookup_seq(&mut g, &bind, seq, 1, seq.len());
        let u = m.user_emb.lookup(&mut g, &bind, &[user]);
        let probs = m.core.keep_probs(&mut g, &bind, h, u);
        g.value(probs).data().to_vec()
    }

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        let m = Hsd::new(4, 10, 8, 50, 6);
        crate::wall::assert_keep_matches(&m, &crate::wall::mixed_examples(4, 10), |seq, user| {
            let scores = oracle_keep_scores(&m, seq, user);
            let kept = crate::relative_keep(&scores, crate::RELATIVE_KEEP_BETA);
            (scores, kept)
        });
    }

    #[test]
    fn eval_scores_deterministic() {
        let m = Hsd::new(4, 10, 8, 20, 7);
        let run = || {
            let mut g = Graph::new();
            let bind = m.store.bind_all(&mut g);
            let s = m.eval_scores(&mut g, &bind, &toy_batch());
            g.value(s).data().to_vec()
        };
        assert_eq!(run(), run());
    }
}
