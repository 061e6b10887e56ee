//! The full SSDRec model: three-stage self-augmented sequence denoising
//! wrapped around any backbone (paper §III, Fig. 2).
//!
//! Training path: embeddings → **stage 1** global relation encoding →
//! per-sequence representations `h_t = h_v + h_u/n_i` → **stage 2**
//! self-augmentation (short sequences only, training only, §III-F) →
//! **stage 3** hierarchical denoising (refine augmentations, mask noise in
//! the raw sequence) → backbone `f_seq` → full-catalogue scoring against the
//! relation-encoded item table.
//!
//! Each stage can be ablated independently (Table V's variants).

use ssdrec_data::{Batch, Example};
use ssdrec_denoise::{Keep, TauSchedule};
use ssdrec_graph::MultiRelationGraph;
use ssdrec_models::{
    build_encoder, next_item_ce, pad_mask, BackboneKind, FrozenPass, RecModel, SeqEncoder,
};
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

use crate::augment::SelfAugmenter;
use crate::denoise_stage::HierarchicalDenoiser;
use crate::relation_encoder::{GlobalRelationEncoder, RelationAdjacency};

/// SSDRec hyper-parameters.
#[derive(Clone, Debug)]
pub struct SsdRecConfig {
    /// Embedding width `d`.
    pub dim: usize,
    /// Maximum sequence length the backbone must support.
    pub max_len: usize,
    /// The backbone `f_seq` (paper plugs in all six of Table III).
    pub backbone: BackboneKind,
    /// Initial Gumbel temperature τ (paper searches 1e-2 … 1e3, Fig. 5);
    /// [`TauSchedule`] anneals it.
    pub tau: f32,
    /// Only sequences shorter than this are augmented (the paper inserts
    /// "if the sequence is short").
    pub aug_short_len: usize,
    /// Stage-1 toggle (global relation encoder).
    pub stage1: bool,
    /// Use Eq. 2's directed attention in the relation encoder (`false` =
    /// untyped mean aggregation, the `ext-encoder` ablation).
    pub relation_attention: bool,
    /// Stage-2 toggle (self-augmentation).
    pub stage2: bool,
    /// Stage-3 toggle (hierarchical denoising).
    pub stage3: bool,
    /// Fraction of training epochs before stage-2 augmentation activates.
    pub aug_warmup_frac: f64,
    /// Context window for the graph-coherence prior (stage-1 knowledge
    /// injected into the stage-3 gate).
    pub coherence_window: usize,
    /// Sharpness of the coherence prior `σ(κ·(c/mean − 1))`.
    pub coherence_kappa: f32,
    /// Relative keep threshold β for the stage-3 gate (drop positions with
    /// score below `β · sequence mean`).
    pub keep_beta: f32,
    /// Calibration sharpness κ for the stage-3 gate.
    pub keep_kappa: f32,
    /// Parameter-init / sampling seed.
    pub seed: u64,
}

impl Default for SsdRecConfig {
    fn default() -> Self {
        SsdRecConfig {
            dim: 32,
            max_len: 50,
            backbone: BackboneKind::SasRec,
            tau: 1.0,
            aug_short_len: 25,
            stage1: true,
            relation_attention: true,
            stage2: true,
            stage3: true,
            aug_warmup_frac: 0.34,
            coherence_window: 3,
            coherence_kappa: 2.0,
            keep_beta: ssdrec_denoise::RELATIVE_KEEP_BETA,
            keep_kappa: ssdrec_denoise::RELATIVE_KEEP_KAPPA,
            seed: 20_24,
        }
    }
}

/// The assembled SSDRec model.
pub struct SsdRec {
    /// All trainable parameters.
    pub store: ParamStore,
    item_emb: Embedding,
    user_emb: Embedding,
    relation: Option<GlobalRelationEncoder>,
    augmenter: SelfAugmenter,
    denoiser: HierarchicalDenoiser,
    backbone: Box<dyn SeqEncoder>,
    /// The multi-relation graph, retained for the stage-1 coherence prior
    /// (present iff `cfg.stage1`).
    coherence_graph: Option<MultiRelationGraph>,
    /// Configuration used to build the model.
    pub cfg: SsdRecConfig,
    /// The Gumbel temperature, annealed during training.
    pub tau: TauSchedule,
    num_items: usize,
    num_users: usize,
    /// Whether stage-2 augmentation is currently active (it warms up after
    /// `cfg.aug_warmup_frac` of training so the selectors operate on
    /// meaningful representations).
    aug_active: bool,
}

/// Pieces of the training forward pass the gate-supervision loss consumes.
struct GateInfo {
    /// Keep probabilities over raw positions (`B×T`).
    probs: Var,
    /// The raw sequence representations (`B×T×d`).
    h_seq: Var,
    /// The graph-coherence prior, if stage 1 is active.
    prior: Option<Var>,
}

/// A per-example trace for the paper's Fig. 4 case study.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// The raw sequence.
    pub seq: Vec<usize>,
    /// Chosen augmentation position (None if the sequence was not short).
    pub position: Option<usize>,
    /// Inserted (left, right) item IDs.
    pub inserted: Option<(usize, usize)>,
    /// Final keep decision per raw position.
    pub kept: Vec<bool>,
    /// Score of the target item on the raw (un-denoised) sequence.
    pub raw_score: f32,
    /// Score of the target item on the augmented sequence (pre-denoising).
    pub augmented_score: f32,
    /// Score of the target item after denoising.
    pub denoised_score: f32,
}

impl SsdRec {
    /// Build SSDRec over a multi-relation graph built from the training data.
    pub fn new(mg: &MultiRelationGraph, cfg: SsdRecConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(cfg.seed);
        let d = cfg.dim;
        let item_emb = Embedding::new(&mut store, "item", mg.num_items + 1, d, &mut rng);
        let user_emb = Embedding::new(&mut store, "user", mg.num_users.max(1), d, &mut rng);
        let relation = cfg.stage1.then(|| {
            GlobalRelationEncoder::with_attention(
                &mut store,
                d,
                RelationAdjacency::from_graph(mg),
                cfg.relation_attention,
                &mut rng,
            )
        });
        let augmenter = SelfAugmenter::new(&mut store, "ssdrec.aug", d, &mut rng);
        let denoiser = HierarchicalDenoiser::with_keep_rule(
            &mut store,
            "ssdrec.den",
            d,
            cfg.keep_beta,
            cfg.keep_kappa,
            &mut rng,
        );
        let backbone = build_encoder(cfg.backbone, &mut store, d, cfg.max_len + 2, &mut rng);
        let tau = TauSchedule::new(cfg.tau);
        let coherence_graph = cfg.stage1.then(|| mg.clone());
        SsdRec {
            store,
            item_emb,
            user_emb,
            relation,
            augmenter,
            denoiser,
            backbone,
            coherence_graph,
            cfg,
            tau,
            num_items: mg.num_items,
            num_users: mg.num_users.max(1),
            aug_active: false,
        }
    }

    /// Number of real items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of rows in the user-embedding table (valid user IDs are
    /// `0..num_users`); serving validates requests against this.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The graph-coherence keep prior for a batch (`B×T` constant in
    /// `(0,1)`), or `None` when stage 1 is ablated. Per sequence, each
    /// position's transitional coherence `c_t` (see
    /// [`MultiRelationGraph::sequence_coherence`]) is normalised by the
    /// sequence mean and squashed: `σ(κ·(c_t/mean − 1))` — items much less
    /// coherent with their context than the sequence average get a low
    /// prior. Sequences with zero coherence everywhere get a neutral 0.5.
    fn coherence_prior(&self, g: &mut Graph, batch: &Batch) -> Option<Var> {
        let graph = self.coherence_graph.as_ref()?;
        let b = batch.len();
        let t = batch.seq_len;
        let kappa = self.cfg.coherence_kappa;
        let mut data = Vec::with_capacity(b * t);
        for i in 0..b {
            let c = graph.sequence_coherence(batch.seq(i), self.cfg.coherence_window);
            let mean: f32 = c.iter().sum::<f32>() / t.max(1) as f32;
            if mean <= 1e-9 {
                data.extend(std::iter::repeat_n(0.5, t));
            } else {
                data.extend(
                    c.iter()
                        .map(|&ct| ssdrec_tensor::math::sigmoid(kappa * (ct / mean - 1.0))),
                );
            }
        }
        Some(g.constant(Tensor::new(data, &[b, t])))
    }

    /// Stage 1: relation-encoded (or raw) node tables.
    fn tables(&self, g: &mut Graph, bind: &Binding) -> (Var, Var) {
        let it = self.item_emb.table(bind);
        let ut = self.user_emb.table(bind);
        match &self.relation {
            Some(enc) => {
                let out = enc.forward(g, bind, it, ut);
                (out.items, out.users)
            }
            None => (it, ut),
        }
    }

    /// Build the informative item-representation sequence `H_S` with
    /// `h_t = h_v + h_u / n_i` (paper §III-D).
    fn sequence_reprs(&self, g: &mut Graph, items: Var, users: Var, batch: &Batch) -> (Var, Var) {
        let b = batch.len();
        let t = batch.seq_len;
        let hv = g.embedding(items, &batch.items); // (B·T)×d
        let hv = g.reshape(hv, &[b, t, self.cfg.dim]);
        let hu = g.embedding(users, &batch.users); // B×d
        let hu_scaled = g.scale(hu, 1.0 / t as f32);
        let hu3 = g.stack_time(&vec![hu_scaled; t]);
        let h_seq = g.add(hv, hu3);
        (h_seq, hu)
    }

    /// Whether stage 2 augments a sequence of length `t`: only short ones
    /// (the paper inserts "if the sequence is short"), and only where there
    /// are two positions to insert around. Training also waits for the
    /// `aug_active` warm-up; the case study does not.
    fn augments(&self, t: usize) -> bool {
        self.cfg.stage2 && (2..self.cfg.aug_short_len).contains(&t)
    }

    /// The backbone over `h_in`, scored against the frozen transposed item
    /// table with the pad item masked: the eval pass's `B×(V+1)` logits.
    fn frozen_logits(&self, g: &mut Graph, bind: &Binding, h_in: Var, frozen: &[Var]) -> Var {
        let [_, _, items_t, pad_mask] = unfreeze(frozen);
        let h_s = self.backbone.encode(g, bind, h_in);
        let logits = g.matmul(h_s, items_t);
        g.add_bcast(logits, pad_mask)
    }

    /// Training forward: full three-stage pipeline; returns the backbone's
    /// sequence representations `h_s` plus the pieces the gate-supervision
    /// loss needs (keep probs, the raw sequence representations, and the
    /// item table, which also scores `h_s`).
    fn forward_train(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (Var, Option<GateInfo>, Var) {
        let (items, users) = self.tables(g, bind);
        let (h_seq, hu) = self.sequence_reprs(g, items, users, batch);
        let h_seq = g.dropout(h_seq, ssdrec_models::DROPOUT, rng);
        let tau = self.tau.tau;

        let prior = self.coherence_prior(g, batch);
        let do_aug = self.aug_active && self.augments(batch.seq_len);
        let mut gate = None;
        let h_in = if do_aug {
            let aug = self.augmenter.augment(g, bind, rng, h_seq, items, tau);
            if self.cfg.stage3 {
                let (refined, _gl, _gr) = self.denoiser.refine(g, bind, h_seq, &aug);
                let (denoised, probs) = self.denoiser.denoise_train(
                    g,
                    bind,
                    rng,
                    h_seq,
                    refined,
                    Some(aug.copy_matrix),
                    hu,
                    tau,
                    prior,
                );
                gate = Some(GateInfo {
                    probs,
                    h_seq,
                    prior,
                });
                denoised
            } else {
                // w/o stage 3: the refined/augmented sequence feeds the
                // backbone directly (no noise removal).
                let (refined, _, _) = self.denoiser.refine(g, bind, h_seq, &aug);
                refined
            }
        } else if self.cfg.stage3 {
            let (denoised, probs) = self
                .denoiser
                .denoise_train(g, bind, rng, h_seq, h_seq, None, hu, tau, prior);
            gate = Some(GateInfo {
                probs,
                h_seq,
                prior,
            });
            denoised
        } else {
            h_seq
        };

        (self.backbone.encode(g, bind, h_in), gate, items)
    }

    /// Fig. 4 case-study traces for `examples` (non-empty histories), in
    /// order, under one [`FrozenPass`]: stage 1 runs once for the whole
    /// list. Each example runs alone (B = 1), so stage 2's Gumbel draws
    /// consume `rng` in example order.
    pub fn explain(&self, examples: &[Example], rng: &mut Rng) -> Vec<CaseStudy> {
        let mut g = Graph::new();
        let mut pass = FrozenPass::new(self, &mut g);
        examples
            .iter()
            .map(|ex| pass.run(|g, bind, frozen| self.explain_one(g, bind, frozen, ex, rng)))
            .collect()
    }

    /// One example's trace on the frozen pass.
    fn explain_one(
        &self,
        g: &mut Graph,
        bind: &Binding,
        frozen: &[Var],
        ex: &Example,
        rng: &mut Rng,
    ) -> CaseStudy {
        let [items, users, ..] = unfreeze(frozen);
        let batch = Batch {
            users: vec![ex.user],
            items: ex.seq.clone(),
            seq_len: ex.seq.len(),
            targets: vec![ex.target],
            noise: None,
        };
        let (h_seq, hu) = self.sequence_reprs(g, items, users, &batch);
        let target_score = |g: &mut Graph, h_in: Var| {
            let logits = self.frozen_logits(g, bind, h_in, frozen);
            g.value(logits).data()[ex.target]
        };
        let raw_score = target_score(g, h_seq);

        // Augmented score (stage 2, pre-denoising).
        let (position, inserted, augmented_score) = if self.augments(ex.seq.len()) {
            let aug = self
                .augmenter
                .augment(g, bind, rng, h_seq, items, self.tau.tau);
            (
                Some(aug.positions[0]),
                Some((aug.left_items[0], aug.right_items[0])),
                target_score(g, aug.h_aug),
            )
        } else {
            (None, None, raw_score)
        };

        // Denoised score (stage 3).
        let prior = self.coherence_prior(g, &batch);
        let (den, probs) = self.denoiser.denoise_eval(g, bind, h_seq, hu, prior);
        let denoised_score = target_score(g, den);
        let kept = ssdrec_denoise::relative_keep(g.value(probs).data(), self.cfg.keep_beta);

        CaseStudy {
            seq: ex.seq.clone(),
            position,
            inserted,
            kept,
            raw_score,
            augmented_score,
            denoised_score,
        }
    }
}

/// The four nodes [`SsdRec`]'s `precompute_frozen` returns.
fn unfreeze(frozen: &[Var]) -> [Var; 4] {
    frozen.try_into().unwrap_or_else(|_| {
        panic!(
            "SSDRec freezes [items, users, itemsᵀ, pad mask], got {} nodes",
            frozen.len()
        )
    })
}

impl RecModel for SsdRec {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let (h_s, gate, items) = self.forward_train(g, bind, batch, rng);
        let ce = next_item_ce(g, items, h_s, &batch.targets);
        match gate {
            Some(GateInfo {
                probs,
                h_seq,
                prior,
            }) => {
                // Gate supervision: regress the keep probability onto the
                // graph-coherence prior (stage-1 knowledge) when available,
                // else onto HSD's intra-sequence correlation signal.
                let y = match prior {
                    Some(p) => p,
                    None => {
                        let tgt = g.embedding(items, &batch.targets);
                        self.denoiser.hsd.correlation_targets(g, h_seq, tgt)
                    }
                };
                let gl = self.denoiser.hsd.gate_loss(g, probs, y);
                g.add(ce, gl)
            }
            None => ce,
        }
    }

    /// `[items, users, itemsᵀ, pad mask]`: stage 1's relation-encoded (raw,
    /// when stage 1 is ablated) item `(V+1)×d` and user tables — the
    /// expensive, input-independent part of the eval pass (paper §III-F) —
    /// the tied-weight scorer transposed to `d×(V+1)`, and the pad-masking
    /// row.
    fn precompute_frozen(&self, g: &mut Graph, bind: &Binding) -> Vec<Var> {
        let (items, users) = self.tables(g, bind);
        let items_t = g.transpose_last(items);
        vec![items, users, items_t, pad_mask(g, self.num_items + 1)]
    }

    /// Per batch: no augmentation (paper §III-F) and deterministic
    /// denoising over the frozen tables.
    fn eval_scores_frozen(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        frozen: &[Var],
    ) -> Var {
        let [items, users, ..] = unfreeze(frozen);
        let (h_seq, hu) = self.sequence_reprs(g, items, users, batch);
        let prior = self.coherence_prior(g, batch);
        let h_in = if self.cfg.stage3 {
            let (denoised, _) = self.denoiser.denoise_eval(g, bind, h_seq, hu, prior);
            denoised
        } else {
            h_seq
        };
        self.frozen_logits(g, bind, h_in, frozen)
    }

    fn on_epoch_start(&mut self, epoch: usize, total: usize) {
        // Warm-up curriculum: the position/item selectors only act once the
        // embeddings and relation encoder have had a fraction of training
        // to become meaningful; inserting items selected from random
        // representations corrupts early learning.
        self.aug_active = (epoch as f64) >= self.cfg.aug_warmup_frac * total as f64;
    }

    fn after_step(&mut self) {
        self.tau.after_step();
    }

    // Resume support: the τ schedule is the only hidden training state
    // (`aug_active` is recomputed by `on_epoch_start`).
    fn train_state(&self) -> Vec<u64> {
        self.tau.state()
    }

    fn restore_train_state(&mut self, state: &[u64]) -> Result<(), String> {
        self.tau.restore(state, "SSDRec")
    }

    fn model_name(&self) -> String {
        let mut name = format!("SSDRec[{}]", self.cfg.backbone.name());
        if !self.cfg.stage1 {
            name.push_str("-w/o1");
        }
        if !self.cfg.stage2 {
            name.push_str("-w/o2");
        }
        if !self.cfg.stage3 {
            name.push_str("-w/o3");
        }
        name
    }
}

impl ssdrec_denoise::Denoiser for SsdRec {
    /// Stage 3's keep probabilities over the raw sequence, times the
    /// stage-1 coherence prior, decided by the relative rule at
    /// `cfg.keep_beta`.
    fn keep(&self, g: &mut Graph, bind: &Binding, batch: &Batch, frozen: &[Var]) -> Vec<Keep> {
        let [items, users, ..] = unfreeze(frozen);
        let (h_seq, hu) = self.sequence_reprs(g, items, users, batch);
        let mut probs = self.denoiser.raw_keep_probs(g, bind, h_seq, None, hu);
        if let Some(p) = self.coherence_prior(g, batch) {
            probs = g.mul(probs, p);
        }
        Keep::relative_rows(g.value(probs).data(), batch.seq_len, self.cfg.keep_beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;
    use ssdrec_graph::{build_graph, GraphConfig};

    fn toy_model(cfg_mod: impl Fn(&mut SsdRecConfig)) -> SsdRec {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let mg = build_graph(&ds, &GraphConfig::default());
        let mut cfg = SsdRecConfig {
            dim: 8,
            max_len: 50,
            ..SsdRecConfig::default()
        };
        cfg_mod(&mut cfg);
        SsdRec::new(&mg, cfg)
    }

    fn toy_batch(num_items: usize) -> Batch {
        let pick = |i: usize| (i % num_items) + 1;
        Batch {
            users: vec![0, 1],
            items: (0..10).map(pick).collect(),
            seq_len: 5,
            targets: vec![pick(11), pick(12)],
            noise: None,
        }
    }

    #[test]
    fn train_loss_finite_with_all_stages() {
        let m = toy_model(|_| {});
        let batch = toy_batch(m.num_items());
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let loss = m.loss(&mut g, &bind, &batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
    }

    #[test]
    fn eval_scores_shape_and_determinism() {
        let m = toy_model(|_| {});
        let batch = toy_batch(m.num_items());
        let run = || {
            let mut g = Graph::new();
            let bind = m.store.bind_all(&mut g);
            let s = m.eval_scores(&mut g, &bind, &batch);
            g.value(s).data().to_vec()
        };
        let a = run();
        assert_eq!(a.len(), 2 * (m.num_items() + 1));
        assert_eq!(a, run());
    }

    #[test]
    fn every_ablation_variant_trains() {
        for (s1, s2, s3) in [
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let m = toy_model(|c| {
                c.stage1 = s1;
                c.stage2 = s2;
                c.stage3 = s3;
            });
            let batch = toy_batch(m.num_items());
            let mut g = Graph::new();
            let bind = m.store.bind_all(&mut g);
            let mut rng = Rng::seed(1);
            let loss = m.loss(&mut g, &bind, &batch, &mut rng);
            assert!(g.value(loss).item().is_finite(), "variant ({s1},{s2},{s3})");
            let grads = g.backward(loss);
            assert!(grads.get(bind.var(m.item_emb.weight())).is_some());
        }
    }

    #[test]
    fn long_sequences_skip_augmentation() {
        let m = toy_model(|c| c.aug_short_len = 3);
        // seq_len 5 ≥ aug_short_len 3 → no augmentation path; still works.
        let batch = toy_batch(m.num_items());
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let mut rng = Rng::seed(2);
        let loss = m.loss(&mut g, &bind, &batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
    }

    #[test]
    fn explain_produces_trace() {
        let m = toy_model(|_| {});
        let mut rng = Rng::seed(3);
        let seq: Vec<usize> = (1..=6).map(|i| (i % m.num_items()) + 1).collect();
        let ex = Example {
            user: 0,
            seq,
            target: 1,
            noise: None,
        };
        let cs = &m.explain(&[ex], &mut rng)[0];
        assert_eq!(cs.kept.len(), 6);
        assert!(cs.position.is_some());
        assert!(cs.inserted.is_some());
        assert!(cs.raw_score.is_finite());
        assert!(cs.denoised_score.is_finite());
    }

    /// A history at or past `aug_short_len` is not short: the case study,
    /// like training, leaves it unaugmented and draws nothing from `rng`.
    #[test]
    fn explain_does_not_augment_long_sequences() {
        let m = toy_model(|c| c.aug_short_len = 5);
        let seq: Vec<usize> = (1..=5).map(|i| (i % m.num_items()) + 1).collect();
        let ex = Example {
            user: 0,
            seq,
            target: 1,
            noise: None,
        };
        let mut rng = Rng::seed(3);
        let cs = &m.explain(&[ex], &mut rng)[0];
        assert_eq!((cs.position, cs.inserted), (None, None));
        assert_eq!(cs.augmented_score.to_bits(), cs.raw_score.to_bits());
        assert_eq!(rng.next_u64(), Rng::seed(3).next_u64());
    }

    #[test]
    fn tau_anneals() {
        let mut m = toy_model(|_| {});
        let t0 = m.tau.tau;
        for _ in 1..ssdrec_denoise::hsd::TAU_ANNEAL_EVERY {
            m.after_step();
        }
        assert_eq!(m.tau.tau, t0, "annealed before the 40th step");
        m.after_step();
        assert!(m.tau.tau < t0);
    }

    #[test]
    fn model_name_encodes_ablation() {
        let m = toy_model(|c| c.stage2 = false);
        assert!(m.model_name().contains("w/o2"));
    }
}

#[cfg(test)]
mod curriculum_tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;
    use ssdrec_graph::{build_graph, GraphConfig};
    use ssdrec_models::RecModel;

    fn model_with(cfg_mod: impl Fn(&mut SsdRecConfig)) -> SsdRec {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let mg = build_graph(&ds, &GraphConfig::default());
        let mut cfg = SsdRecConfig {
            dim: 8,
            max_len: 50,
            ..SsdRecConfig::default()
        };
        cfg_mod(&mut cfg);
        SsdRec::new(&mg, cfg)
    }

    #[test]
    fn augmentation_respects_warmup_schedule() {
        let mut m = model_with(|c| c.aug_warmup_frac = 0.5);
        assert!(!m.aug_active, "augmentation must start inactive");
        m.on_epoch_start(0, 10);
        assert!(!m.aug_active);
        m.on_epoch_start(4, 10);
        assert!(!m.aug_active);
        m.on_epoch_start(5, 10);
        assert!(
            m.aug_active,
            "augmentation must activate after the warm-up fraction"
        );
    }

    #[test]
    fn zero_warmup_activates_immediately() {
        let mut m = model_with(|c| c.aug_warmup_frac = 0.0);
        m.on_epoch_start(0, 10);
        assert!(m.aug_active);
    }

    /// A full augmented step runs three Bi-LSTMs — the augmenter's (shared
    /// by both selectors), the HDM re-scorer's and `f_den`'s — so six LSTM
    /// directions sit on the tape; without augmentation only `f_den`'s two.
    #[test]
    fn augmented_loss_runs_three_bilstms() {
        let mut m = model_with(|c| c.aug_warmup_frac = 0.0);
        let batch = Batch {
            users: vec![0, 1],
            items: (0..10).map(|i| (i % m.num_items()) + 1).collect(),
            seq_len: 5,
            targets: vec![1, 2],
            noise: None,
        };
        for (augmenting, directions) in [(false, 2), (true, 6)] {
            if augmenting {
                m.on_epoch_start(0, 10);
            }
            assert_eq!(m.aug_active, augmenting);
            let mut g = Graph::new();
            let bind = m.store.bind_all(&mut g);
            m.loss(&mut g, &bind, &batch, &mut Rng::seed(0));
            assert_eq!(g.lstm_seq_nodes(), directions);
        }
    }

    #[test]
    fn coherence_prior_present_iff_stage1() {
        let with = model_with(|_| {});
        let without = model_with(|c| c.stage1 = false);
        let batch = Batch {
            users: vec![0],
            items: (1..=5).map(|i| (i % with.num_items()) + 1).collect(),
            seq_len: 5,
            targets: vec![1],
            noise: None,
        };
        let mut g = Graph::new();
        assert!(with.coherence_prior(&mut g, &batch).is_some());
        let batch2 = Batch {
            users: vec![0],
            items: (1..=5).map(|i| (i % without.num_items()) + 1).collect(),
            seq_len: 5,
            targets: vec![1],
            noise: None,
        };
        assert!(without.coherence_prior(&mut g, &batch2).is_none());
    }

    #[test]
    fn coherence_prior_values_in_unit_interval() {
        let m = model_with(|_| {});
        let batch = Batch {
            users: vec![0, 1],
            items: (0..12).map(|i| (i % m.num_items()) + 1).collect(),
            seq_len: 6,
            targets: vec![1, 2],
            noise: None,
        };
        let mut g = Graph::new();
        let prior = m.coherence_prior(&mut g, &batch).unwrap();
        assert_eq!(g.value(prior).shape(), &[2, 6]);
        assert!(g.value(prior).data().iter().all(|&p| p > 0.0 && p < 1.0));
    }
}

/// The oracle wall of the batched analysis path: keep output, offline
/// top-K and case-study traces against SSDRec's per-sequence code as it
/// stood before they moved onto the frozen eval pass, kept verbatim here.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;
    use ssdrec_denoise::keep_each;
    use ssdrec_graph::{build_graph, GraphConfig};
    use ssdrec_models::recommend_each;

    /// The default model and stage 1 ablated.
    fn variants() -> Vec<SsdRec> {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let mg = build_graph(&ds, &GraphConfig::default());
        let tweaks: [fn(&mut SsdRecConfig); 2] = [|_| {}, |c| c.stage1 = false];
        tweaks
            .iter()
            .map(|tweak| {
                let mut cfg = SsdRecConfig {
                    dim: 8,
                    max_len: 50,
                    ..SsdRecConfig::default()
                };
                tweak(&mut cfg);
                SsdRec::new(&mg, cfg)
            })
            .collect()
    }

    /// Histories of every length in {0, 1, 2, 3, 7, 12, 50}, nine of them
    /// of length 7 (one whole 8-row panel and a partial one).
    fn mixed_examples(m: &SsdRec) -> Vec<Example> {
        let mut lens = vec![1, 2, 7, 7, 7, 3, 7, 12, 0, 7, 7, 50];
        lens.extend([7; 3]);
        lens.iter()
            .enumerate()
            .map(|(i, &len)| Example {
                user: (i * 5) % m.num_users(),
                seq: (0..len)
                    .map(|j| (i * 7 + j * 3) % m.num_items() + 1)
                    .collect(),
                target: (i * 11) % m.num_items() + 1,
                noise: None,
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    // ---- Per-sequence code before the batched path, verbatim. ----

    fn oracle_pad_mask(m: &SsdRec, g: &mut Graph) -> Var {
        let mut mask = Tensor::zeros(&[m.num_items + 1]);
        mask.data_mut()[0] = -1e9;
        g.constant(mask)
    }

    fn oracle_score_repr(m: &SsdRec, g: &mut Graph, items_table: Var, h_s: Var) -> Var {
        let tt = g.transpose_last(items_table);
        let logits = g.matmul(h_s, tt);
        let mv = oracle_pad_mask(m, g);
        g.add_bcast(logits, mv)
    }

    fn oracle_keep_scores_for(m: &SsdRec, seq: &[usize], user: usize) -> Vec<f32> {
        let batch = Batch {
            users: vec![user],
            items: seq.to_vec(),
            seq_len: seq.len(),
            targets: vec![seq[seq.len() - 1]],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let (items, users) = m.tables(&mut g, &bind);
        let (h_seq, hu) = m.sequence_reprs(&mut g, items, users, &batch);
        let mut probs = m.denoiser.raw_keep_probs(&mut g, &bind, h_seq, None, hu);
        if let Some(p) = m.coherence_prior(&mut g, &batch) {
            probs = g.mul(probs, p);
        }
        g.value(probs).data().to_vec()
    }

    fn oracle_keep_decisions_for(m: &SsdRec, seq: &[usize], user: usize) -> Vec<bool> {
        ssdrec_denoise::relative_keep(&oracle_keep_scores_for(m, seq, user), m.cfg.keep_beta)
    }

    fn oracle_recommend(m: &SsdRec, user: usize, seq: &[usize], k: usize) -> Vec<(usize, f32)> {
        assert!(!seq.is_empty(), "cannot recommend from an empty history");
        let batch = Batch {
            users: vec![user],
            items: seq.to_vec(),
            seq_len: seq.len(),
            targets: vec![seq[seq.len() - 1]],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store().bind_all(&mut g);
        let scores = m.eval_scores(&mut g, &bind, &batch);
        ssdrec_metrics::par_top_k(g.value(scores).data(), k)
    }

    fn oracle_explain(
        m: &SsdRec,
        seq: &[usize],
        user: usize,
        target: usize,
        rng: &mut Rng,
    ) -> CaseStudy {
        let batch = Batch {
            users: vec![user],
            items: seq.to_vec(),
            seq_len: seq.len(),
            targets: vec![target],
            noise: None,
        };
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let (items, users) = m.tables(&mut g, &bind);
        let (h_seq, hu) = m.sequence_reprs(&mut g, items, users, &batch);

        // Raw score.
        let h_raw = m.backbone.encode(&mut g, &bind, h_seq);
        let raw_logits = oracle_score_repr(m, &mut g, items, h_raw);
        let raw_score = g.value(raw_logits).data()[target];

        // Augmented score (stage 2, pre-denoising).
        let (position, inserted, augmented_score) = if m.cfg.stage2 && seq.len() >= 2 {
            let aug = m
                .augmenter
                .augment(&mut g, &bind, rng, h_seq, items, m.tau.tau);
            let h_a = m.backbone.encode(&mut g, &bind, aug.h_aug);
            let a_logits = oracle_score_repr(m, &mut g, items, h_a);
            let s = g.value(a_logits).data()[target];
            (
                Some(aug.positions[0]),
                Some((aug.left_items[0], aug.right_items[0])),
                s,
            )
        } else {
            (None, None, raw_score)
        };

        // Denoised score (stage 3).
        let prior = m.coherence_prior(&mut g, &batch);
        let (den, probs) = m.denoiser.denoise_eval(&mut g, &bind, h_seq, hu, prior);
        let h_d = m.backbone.encode(&mut g, &bind, den);
        let d_logits = oracle_score_repr(m, &mut g, items, h_d);
        let denoised_score = g.value(d_logits).data()[target];
        let kept = ssdrec_denoise::relative_keep(g.value(probs).data(), m.cfg.keep_beta);

        CaseStudy {
            seq: seq.to_vec(),
            position,
            inserted,
            kept,
            raw_score,
            augmented_score,
            denoised_score,
        }
    }

    // ---- The wall. ----

    #[test]
    fn batched_keep_matches_the_per_sequence_oracle() {
        for m in variants() {
            let examples = mixed_examples(&m);
            let rows = keep_each(&m, &examples);
            for (ex, row) in examples.iter().zip(&rows) {
                if ex.seq.is_empty() {
                    assert!(row.scores.is_empty() && row.kept.is_empty());
                    continue;
                }
                let want = oracle_keep_scores_for(&m, &ex.seq, ex.user);
                assert_eq!(
                    bits(&row.scores),
                    bits(&want),
                    "{} {:?}",
                    m.model_name(),
                    ex.seq
                );
                assert_eq!(row.kept, oracle_keep_decisions_for(&m, &ex.seq, ex.user));
            }
        }
    }

    #[test]
    fn recommendations_match_the_per_sequence_oracle() {
        for m in variants() {
            let examples = mixed_examples(&m);
            let lists = recommend_each(&m, &examples, 7);
            for (ex, list) in examples.iter().zip(&lists) {
                if ex.seq.is_empty() {
                    assert!(list.is_empty());
                    continue;
                }
                let want = oracle_recommend(&m, ex.user, &ex.seq, 7);
                let as_bits = |l: &[(usize, f32)]| -> Vec<(usize, u32)> {
                    l.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                };
                assert_eq!(as_bits(list), as_bits(&want), "{:?}", ex.seq);
                assert_eq!(as_bits(&m.recommend(ex.user, &ex.seq, 7)), as_bits(&want));
            }
        }
    }

    /// Every field of every trace, with one `rng` seed across the list.
    /// Histories shorter than `aug_short_len` only: the oracle also
    /// augmented long ones, which was the bug `augments` fixes.
    #[test]
    fn explain_matches_the_per_sequence_oracle() {
        for m in variants() {
            let examples: Vec<Example> = mixed_examples(&m)
                .into_iter()
                .filter(|ex| (1..m.cfg.aug_short_len).contains(&ex.seq.len()))
                .collect();
            let traces = m.explain(&examples, &mut Rng::seed(9));
            let mut rng = Rng::seed(9);
            for (ex, cs) in examples.iter().zip(&traces) {
                let want = oracle_explain(&m, &ex.seq, ex.user, ex.target, &mut rng);
                assert_eq!(cs.seq, want.seq);
                assert_eq!(cs.position, want.position, "{:?}", ex.seq);
                assert_eq!(cs.inserted, want.inserted);
                assert_eq!(cs.kept, want.kept);
                assert_eq!(cs.raw_score.to_bits(), want.raw_score.to_bits());
                assert_eq!(cs.augmented_score.to_bits(), want.augmented_score.to_bits());
                assert_eq!(cs.denoised_score.to_bits(), want.denoised_score.to_bits());
            }
        }
    }

    /// Past `aug_short_len` the trace differs from the oracle only in the
    /// augmentation it no longer runs.
    #[test]
    fn explain_of_a_long_history_matches_the_oracle_but_for_augmentation() {
        let m = &variants()[0];
        let ex = mixed_examples(m)
            .into_iter()
            .find(|e| e.seq.len() >= m.cfg.aug_short_len)
            .expect("a long history");
        let cs = &m.explain(std::slice::from_ref(&ex), &mut Rng::seed(1))[0];
        let want = oracle_explain(m, &ex.seq, ex.user, ex.target, &mut Rng::seed(1));
        assert_eq!((cs.position, cs.inserted), (None, None));
        assert_eq!(cs.augmented_score.to_bits(), cs.raw_score.to_bits());
        assert_eq!(cs.kept, want.kept);
        assert_eq!(cs.raw_score.to_bits(), want.raw_score.to_bits());
        assert_eq!(cs.denoised_score.to_bits(), want.denoised_score.to_bits());
    }
}
