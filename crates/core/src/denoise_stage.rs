//! Stage 3: the hierarchical denoising module (paper §III-E, Eq. 13–14).
//!
//! First, the *same position-selector machinery* (with its own parameters
//! `Θ_hdm`) re-scores the augmented sequence and attenuates inserted items
//! whose inconsistency exceeds the uniform level — removing false
//! augmentations (Eq. 13). Then any denoising model `f_den` — here HSD's
//! core, as in the paper's experiments — consumes the refined sequence and
//! pinpoints all noise in the *raw* positions (Eq. 14).

use ssdrec_denoise::HsdCore;
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Var};

use crate::augment::{Augmented, SelfAugmenter};

/// The hierarchical denoiser: HDM scorer + `f_den` (HSD core).
pub struct HierarchicalDenoiser {
    /// `Θ_hdm`: an independent instance of the position-selector scorer.
    pub hdm: SelfAugmenter,
    /// `f_den`: HSD's inconsistency-signal denoiser.
    pub hsd: HsdCore,
    /// Relative keep threshold β (see `ssdrec_denoise::relative_keep`).
    pub keep_beta: f32,
    /// Calibration sharpness κ (see `HsdCore::calibrate`).
    pub keep_kappa: f32,
    dim: usize,
}

impl HierarchicalDenoiser {
    /// Build for representation width `d` with the workspace-default keep
    /// rule (β = `ssdrec_denoise::RELATIVE_KEEP_BETA`, κ =
    /// `ssdrec_denoise::RELATIVE_KEEP_KAPPA`).
    pub fn new(store: &mut ParamStore, name: &str, d: usize, rng: &mut Rng) -> Self {
        Self::with_keep_rule(
            store,
            name,
            d,
            ssdrec_denoise::RELATIVE_KEEP_BETA,
            ssdrec_denoise::RELATIVE_KEEP_KAPPA,
            rng,
        )
    }

    /// Build with an explicit keep rule (for the β/κ ablation).
    pub fn with_keep_rule(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        keep_beta: f32,
        keep_kappa: f32,
        rng: &mut Rng,
    ) -> Self {
        HierarchicalDenoiser {
            hdm: SelfAugmenter::new(store, &format!("{name}.hdm"), d, rng),
            hsd: HsdCore::new(store, &format!("{name}.hsd"), d, rng),
            keep_beta,
            keep_kappa,
            dim: d,
        }
    }

    /// Eq. 13: rebuild `H''_S` from the augmentation, gating each inserted
    /// row by `σ(κ·(1/(T+2) − r̂_row))` — rows more inconsistent than uniform
    /// are squashed toward zero. Returns `(H''_S, left gate, right gate)`,
    /// the gates of shape `[B]`.
    pub fn refine(
        &self,
        g: &mut Graph,
        bind: &Binding,
        h_seq: Var,
        aug: &Augmented,
    ) -> (Var, Var, Var) {
        let (b, t2, d) = g.value(aug.h_aug).dims3();
        let r = self.hdm.inconsistency_scores(g, bind, aug.h_aug); // B×T2 (>0)

        // Normalise to a distribution.
        let sums = g.sum_last(r); // B
        let sums = g.add_scalar(sums, 1e-9);
        let denom = g.expand_last(sums, t2); // B×T2
        let rn = g.div(r, denom);

        let uniform = 1.0 / t2 as f32;
        let kappa = 4.0 * t2 as f32;
        let gate_at = |g: &mut Graph, place: Var| -> Var {
            let rn3 = g.reshape(rn, &[b, 1, t2]);
            let v = g.matmul(rn3, place); // B×1×1
            let v = g.reshape(v, &[b]);
            let v = g.scale(v, -kappa);
            let v = g.add_scalar(v, kappa * uniform);
            g.sigmoid(v) // B, in (0,1)
        };
        let gate_l = gate_at(g, aug.place_left);
        let gate_r = gate_at(g, aug.place_right);

        // Rebuild: base copy + gated insertions.
        let base = g.matmul(aug.copy_matrix, h_seq);
        let gl = g.expand_last(gate_l, d); // B×d
        let gr = g.expand_last(gate_r, d);
        let hl = g.mul(aug.h_left, gl);
        let hr = g.mul(aug.h_right, gr);
        let hl3 = g.reshape(hl, &[b, 1, d]);
        let hr3 = g.reshape(hr, &[b, 1, d]);
        let addl = g.matmul(aug.place_left, hl3);
        let addr = g.matmul(aug.place_right, hr3);
        let part = g.add(base, addl);
        let refined = g.add(part, addr);
        (refined, gate_l, gate_r)
    }

    /// Eq. 14 (training): compute keep probabilities on the *context*
    /// sequence (augmented-refined when available), project them back to raw
    /// positions via the copy matrix, Gumbel-sample a binary mask and apply
    /// it to the raw sequence. Returns `(H⁻_S, keep probs B×T)`.
    /// `prior`, when given, is a `B×T` constant in `(0,1)` derived from the
    /// multi-relation graph (stage-1 prior knowledge); it multiplies the
    /// learned keep probabilities before sampling.
    #[allow(clippy::too_many_arguments)]
    pub fn denoise_train(
        &self,
        g: &mut Graph,
        bind: &Binding,
        rng: &mut Rng,
        h_raw: Var,
        h_ctx: Var,
        copy_matrix: Option<Var>,
        user: Var,
        tau: f32,
        prior: Option<Var>,
    ) -> (Var, Var) {
        let mut probs_raw = self.raw_keep_probs(g, bind, h_ctx, copy_matrix, user);
        if let Some(p) = prior {
            probs_raw = g.mul(probs_raw, p);
        }
        let cal = self
            .hsd
            .calibrate(g, probs_raw, self.keep_beta, self.keep_kappa);
        let mask = self.hsd.sample_mask(g, rng, cal, tau);
        let denoised = self.hsd.apply_mask(g, h_raw, mask);
        (denoised, probs_raw)
    }

    /// Eq. 14 (inference): deterministic thresholded denoising on the raw
    /// sequence (no augmentation at test time, §III-F).
    pub fn denoise_eval(
        &self,
        g: &mut Graph,
        bind: &Binding,
        h_raw: Var,
        user: Var,
        prior: Option<Var>,
    ) -> (Var, Var) {
        let mut probs = self.hsd.keep_probs(g, bind, h_raw, user);
        if let Some(p) = prior {
            probs = g.mul(probs, p);
        }
        let mask = self.hsd.hard_mask_with(g, probs, self.keep_beta);
        let denoised = self.hsd.apply_mask(g, h_raw, mask);
        (denoised, probs)
    }

    /// Keep probabilities over raw positions, optionally computed from an
    /// augmented context and projected back through the copy matrix.
    pub fn raw_keep_probs(
        &self,
        g: &mut Graph,
        bind: &Binding,
        h_ctx: Var,
        copy_matrix: Option<Var>,
        user: Var,
    ) -> Var {
        let probs_ctx = self.hsd.keep_probs(g, bind, h_ctx, user); // B×T'
        match copy_matrix {
            None => probs_ctx,
            Some(cm) => {
                let (b, t2, t) = g.value(cm).dims3();
                let p3 = g.reshape(probs_ctx, &[b, 1, t2]);
                let praw = g.matmul(p3, cm); // B×1×T
                g.reshape(praw, &[b, t])
            }
        }
    }

    /// Representation width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::SelfAugmenter;
    use ssdrec_tensor::Tensor;

    fn rand_seq(b: usize, t: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed(seed);
        Tensor::new(
            (0..b * t * d).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            &[b, t, d],
        )
    }

    fn setup(d: usize) -> (ParamStore, SelfAugmenter, HierarchicalDenoiser) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let aug = SelfAugmenter::new(&mut store, "aug", d, &mut rng);
        let hd = HierarchicalDenoiser::new(&mut store, "hd", d, &mut rng);
        (store, aug, hd)
    }

    #[test]
    fn refine_keeps_shape_and_gates_in_unit_interval() {
        let (store, aug, hd) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(1);
        let h = g.constant(rand_seq(2, 4, 8, 2));
        let table = g.constant(rand_seq(1, 10, 8, 3).reshaped(&[10, 8]));
        let a = aug.augment(&mut g, &bind, &mut rng, h, table, 1.0);
        let (refined, gl, gr) = hd.refine(&mut g, &bind, h, &a);
        assert_eq!(g.value(refined).shape(), &[2, 6, 8]);
        for &v in g.value(gl).data().iter().chain(g.value(gr).data()) {
            assert!(v > 0.0 && v < 1.0, "gate {v}");
        }
    }

    #[test]
    fn projected_probs_align_with_raw_positions() {
        let (store, aug, hd) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(4);
        let h = g.constant(rand_seq(1, 5, 8, 5));
        let table = g.constant(rand_seq(1, 10, 8, 6).reshaped(&[10, 8]));
        let a = aug.augment(&mut g, &bind, &mut rng, h, table, 1.0);
        let u = g.constant(rand_seq(1, 1, 8, 7).reshaped(&[1, 8]));
        // Probs over the augmented sequence:
        let probs_ctx = hd.hsd.keep_probs(&mut g, &bind, a.h_aug, u);
        let praw = hd.raw_keep_probs(&mut g, &bind, a.h_aug, Some(a.copy_matrix), u);
        assert_eq!(g.value(praw).shape(), &[1, 5]);
        // Raw position i maps to augmented position j; values must match.
        let p = a.positions[0];
        let ctx = g.value(probs_ctx).data().to_vec();
        let raw = g.value(praw).data().to_vec();
        for (i, &rv) in raw.iter().enumerate().take(5) {
            let j = if i < p {
                i
            } else if i == p {
                i + 1
            } else {
                i + 2
            };
            assert!((rv - ctx[j]).abs() < 1e-6, "i={i} j={j}");
        }
    }

    #[test]
    fn denoise_train_masks_raw_sequence() {
        let (store, _aug, hd) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(8);
        let h = g.constant(rand_seq(2, 4, 8, 9));
        let u = g.constant(rand_seq(1, 2, 8, 10).reshaped(&[2, 8]));
        let (den, probs) = hd.denoise_train(&mut g, &bind, &mut rng, h, h, None, u, 1.0, None);
        assert_eq!(g.value(den).shape(), &[2, 4, 8]);
        assert_eq!(g.value(probs).shape(), &[2, 4]);
    }

    #[test]
    fn denoise_eval_is_deterministic() {
        let (store, _aug, hd) = setup(8);
        let run = || {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let h = g.constant(rand_seq(1, 6, 8, 11));
            let u = g.constant(rand_seq(1, 1, 8, 12).reshaped(&[1, 8]));
            let (den, _) = hd.denoise_eval(&mut g, &bind, h, u, None);
            g.value(den).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gradients_flow_through_refinement() {
        let (store, aug, hd) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(13);
        let h = g.param(rand_seq(1, 4, 8, 14));
        let table = g.constant(rand_seq(1, 10, 8, 15).reshaped(&[10, 8]));
        let a = aug.augment(&mut g, &bind, &mut rng, h, table, 1.0);
        let (refined, _, _) = hd.refine(&mut g, &bind, h, &a);
        let sq = g.mul(refined, refined);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        assert!(grads.get(h).is_some());
    }
}
