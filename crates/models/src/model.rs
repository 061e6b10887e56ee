//! [`SeqRec`]: a complete sequential recommender = item embeddings + a
//! backbone encoder + a tied-weight full-catalogue scorer, plus the
//! [`RecModel`] trait every trainable model in the workspace implements.

use ssdrec_data::{Batch, Example};
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

use crate::backbones::{
    Bert4RecEncoder, CaserEncoder, Gru4RecEncoder, NarmEncoder, SasRecEncoder, StampEncoder,
};
use crate::encoder::{BackboneKind, SeqEncoder};

/// Build a boxed backbone encoder of the given kind.
///
/// Transformer backbones use 2 layers × 2 heads; Caser uses 16 filters per
/// height — scaled-down analogues of the paper's settings.
pub fn build_encoder(
    kind: BackboneKind,
    store: &mut ParamStore,
    d: usize,
    max_len: usize,
    rng: &mut Rng,
) -> Box<dyn SeqEncoder> {
    match kind {
        BackboneKind::Gru4Rec => Box::new(Gru4RecEncoder::new(store, d, rng)),
        BackboneKind::Narm => Box::new(NarmEncoder::new(store, d, rng)),
        BackboneKind::Stamp => Box::new(StampEncoder::new(store, d, rng)),
        BackboneKind::Caser => Box::new(CaserEncoder::new(store, d, 16, rng)),
        BackboneKind::SasRec => Box::new(SasRecEncoder::new(store, d, max_len, 2, 2, rng)),
        BackboneKind::Bert4Rec => Box::new(Bert4RecEncoder::new(store, d, max_len, 2, 2, rng)),
    }
}

/// The `[rows]` additive row with `−1e9` at the pad index 0, which keeps
/// the pad item out of every softmax and every top-K.
pub fn pad_mask(g: &mut Graph, rows: usize) -> Var {
    let mut mask = Tensor::zeros(&[rows]);
    mask.data_mut()[0] = -1e9;
    g.constant(mask)
}

/// The tied-weight scorer every model shares: sequence representations
/// `h_s` (`B×d`) against a `(V+1)×d` item table, `h_s · tableᵀ` with the pad
/// item masked by [`pad_mask`].
pub fn score_catalogue(g: &mut Graph, table: Var, h_s: Var) -> Var {
    let tt = g.transpose_last(table);
    let logits = g.matmul(h_s, tt);
    let rows = g.value(table).shape()[0];
    let mask = pad_mask(g, rows);
    g.add_bcast(logits, mask)
}

/// The next-item cross-entropy every model trains on: the mean over the
/// batch of `−log softmax(logits)[target]`, full catalogue, for the logits
/// [`score_catalogue`] gives `h_s` against `table`. One tape node
/// ([`Graph::catalogue_ce`]), bit-identical to the reference chain
/// `crates/tensor/tests/ce_node.rs` writes out: that scorer's logits, the
/// oracle's row log-softmax, then pick the target, mean and negate.
pub fn next_item_ce(g: &mut Graph, table: Var, h_s: Var, targets: &[usize]) -> Var {
    let rows = g.value(table).shape()[0];
    let mask = pad_mask(g, rows);
    g.catalogue_ce(h_s, table, mask, targets)
}

/// Anything the shared trainer can optimise and evaluate.
pub trait RecModel {
    /// The parameter store (for binding/optimizer steps).
    fn store(&self) -> &ParamStore;
    /// Mutable access to the parameter store.
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Training loss for one batch (stochastic parts enabled).
    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var;
    /// The frozen half of the eval forward: the nodes that depend on the
    /// parameters but on no batch, built once on `g` below a
    /// [`Graph::mark`] that [`FrozenPass`](crate::FrozenPass)
    /// [`truncate`](Graph::truncate)s back to before every batch. Every eval
    /// pass, every analysis pass and every serving engine makes this call
    /// once, then [`RecModel::eval_scores_frozen`] per batch. The default
    /// freezes nothing.
    fn precompute_frozen(&self, _g: &mut Graph, _bind: &Binding) -> Vec<Var> {
        Vec::new()
    }

    /// A batch's full-catalogue `B×(V+1)` logits (deterministic) given what
    /// [`RecModel::precompute_frozen`] returned on the same graph — or the
    /// same values bound as constants on another.
    fn eval_scores_frozen(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        frozen: &[Var],
    ) -> Var;

    /// [`RecModel::eval_scores_frozen`] after this graph's own
    /// [`RecModel::precompute_frozen`]: one batch's logits on a graph that
    /// holds nothing frozen yet.
    fn eval_scores(&self, g: &mut Graph, bind: &Binding, batch: &Batch) -> Var {
        let frozen = self.precompute_frozen(g, bind);
        self.eval_scores_frozen(g, bind, batch, &frozen)
    }

    /// Hook called after every optimisation step (e.g. τ annealing).
    fn after_step(&mut self) {}
    /// Hook called at the start of each epoch with `(epoch, total_epochs)`
    /// — used for curricula such as SSDRec's augmentation warm-up.
    fn on_epoch_start(&mut self, _epoch: usize, _total: usize) {}
    /// Display name.
    fn model_name(&self) -> String;

    /// Opaque model-side training state beyond the parameter store, as raw
    /// `u64` words — anything [`RecModel::after_step`] or
    /// [`RecModel::on_epoch_start`] mutates (step counters, annealed
    /// temperatures). Persisted in training checkpoints so `--resume`
    /// continues bit-identically. Stateless models return an empty vec.
    fn train_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state captured by [`RecModel::train_state`]. A state of the
    /// wrong length (a checkpoint of another model, or a forged file) is an
    /// `Err`; the default (stateless) implementation accepts only an empty
    /// one.
    fn restore_train_state(&mut self, state: &[u64]) -> Result<(), String> {
        if state.is_empty() {
            return Ok(());
        }
        Err(format!(
            "checkpoint carries {} words of model training state but {} is stateless",
            state.len(),
            self.model_name()
        ))
    }

    /// Recommend the top-`k` items for a user given their history, as
    /// `(item, score)` pairs in descending score order: the one-example call
    /// of [`recommend_each`](crate::recommend_each), the offline side of
    /// every serving parity check.
    fn recommend(&self, user: usize, seq: &[usize], k: usize) -> Vec<(usize, f32)> {
        assert!(!seq.is_empty(), "cannot recommend from an empty history");
        let example = Example {
            user,
            seq: seq.to_vec(),
            target: seq[seq.len() - 1],
            noise: None,
        };
        let mut lists = crate::recommend_each(self, std::slice::from_ref(&example), k);
        lists.pop().expect("one list per example")
    }
}

/// Dropout probability on embedded sequences during training, shared by
/// every model that does not state its own.
pub const DROPOUT: f32 = 0.1;

/// A vanilla sequential recommender: embeddings → encoder → tied scorer.
pub struct SeqRec {
    /// Trainable parameters.
    pub store: ParamStore,
    /// The `V+1 × d` item table (row 0 = padding).
    pub item_emb: Embedding,
    /// The backbone.
    pub encoder: Box<dyn SeqEncoder>,
    /// Embedding width.
    pub dim: usize,
    num_items: usize,
}

impl SeqRec {
    /// Build a recommender with the given backbone.
    pub fn new(
        kind: BackboneKind,
        num_items: usize,
        dim: usize,
        max_len: usize,
        seed: u64,
    ) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(seed);
        let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
        let encoder = build_encoder(kind, &mut store, dim, max_len, &mut rng);
        SeqRec {
            store,
            item_emb,
            encoder,
            dim,
            num_items,
        }
    }

    /// Number of real items (catalogue size).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Embed a batch's item IDs into `B×T×d`.
    pub fn embed_batch(&self, g: &mut Graph, bind: &Binding, batch: &Batch) -> Var {
        self.item_emb
            .lookup_seq(g, bind, &batch.items, batch.len(), batch.seq_len)
    }

    /// A batch's `B×d` sequence representations; `rng` enables dropout
    /// (training mode).
    pub fn represent(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        rng: Option<&mut Rng>,
    ) -> Var {
        let mut h = self.embed_batch(g, bind, batch);
        if let Some(rng) = rng {
            h = g.dropout(h, DROPOUT, rng);
        }
        self.encoder.encode(g, bind, h)
    }

    /// Full forward for a batch; `rng` enables dropout (training mode).
    pub fn forward(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        rng: Option<&mut Rng>,
    ) -> Var {
        let h_s = self.represent(g, bind, batch, rng);
        score_catalogue(g, self.item_emb.table(bind), h_s)
    }

    /// The next-item cross-entropy of a batch (dropout on).
    pub fn ce_loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let h_s = self.represent(g, bind, batch, Some(rng));
        next_item_ce(g, self.item_emb.table(bind), h_s, &batch.targets)
    }
}

impl RecModel for SeqRec {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        self.ce_loss(g, bind, batch, rng)
    }

    /// `[Eᵀ, pad mask]`: the transposed tied-weight scorer (`d×(V+1)`) and
    /// the pad-masking row, once per pass.
    fn precompute_frozen(&self, g: &mut Graph, bind: &Binding) -> Vec<Var> {
        let table_t = g.transpose_last(self.item_emb.table(bind));
        vec![table_t, pad_mask(g, self.num_items + 1)]
    }

    fn eval_scores_frozen(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        frozen: &[Var],
    ) -> Var {
        let &[table_t, pad_mask] = frozen else {
            panic!("SeqRec freezes [Eᵀ, pad mask], got {} nodes", frozen.len());
        };
        let h = self.embed_batch(g, bind, batch);
        let h_s = self.encoder.encode(g, bind, h);
        let logits = g.matmul(h_s, table_t);
        g.add_bcast(logits, pad_mask)
    }

    fn model_name(&self) -> String {
        self.encoder.name().to_string()
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
    fn forward_scores_have_catalogue_width() {
        let model = SeqRec::new(BackboneKind::Gru4Rec, 10, 8, 20, 0);
        let mut g = Graph::new();
        let bind = model.store.bind_all(&mut g);
        let s = model.forward(&mut g, &bind, &toy_batch(), None);
        assert_eq!(g.value(s).shape(), &[2, 11]);
    }

    #[test]
    fn pad_item_never_recommended() {
        let model = SeqRec::new(BackboneKind::SasRec, 10, 8, 20, 1);
        let mut g = Graph::new();
        let bind = model.store.bind_all(&mut g);
        let s = model.forward(&mut g, &bind, &toy_batch(), None);
        for row in g.value(s).data().chunks(11) {
            assert!(row[0] < -1e8, "pad score {}", row[0]);
        }
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let model = SeqRec::new(BackboneKind::Narm, 10, 8, 20, 2);
        let mut g = Graph::new();
        let bind = model.store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let loss = model.loss(&mut g, &bind, &toy_batch(), &mut rng);
        let lv = g.value(loss).item();
        assert!(lv.is_finite() && lv > 0.0, "loss {lv}");
    }

    #[test]
    fn eval_is_deterministic() {
        let model = SeqRec::new(BackboneKind::Stamp, 10, 8, 20, 3);
        let run = || {
            let mut g = Graph::new();
            let bind = model.store.bind_all(&mut g);
            let s = model.eval_scores(&mut g, &bind, &toy_batch());
            g.value(s).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recommend_returns_sorted_topk_without_pad() {
        let model = SeqRec::new(BackboneKind::SasRec, 10, 8, 20, 5);
        let recs = model.recommend(0, &[1, 2, 3], 5);
        assert_eq!(recs.len(), 5);
        assert!(recs.iter().all(|&(i, _)| (1..=10).contains(&i)));
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {recs:?}");
        }
    }

    /// The per-sequence `recommend` every model shared before it became
    /// the one-example call of `recommend_each`, verbatim: the oracle the
    /// batched top-K is walled against.
    fn oracle_recommend(m: &SeqRec, user: usize, seq: &[usize], k: usize) -> Vec<(usize, f32)> {
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

    /// Histories of every length in {0, 1, 2, 3, 7, 12, 50}, nine of length
    /// 7 (one whole 8-row panel and a partial one), for every backbone.
    #[test]
    fn recommendations_match_the_per_sequence_oracle() {
        let mut lens = vec![1, 2, 7, 7, 7, 3, 7, 12, 0, 7, 7, 50];
        lens.extend([7; 3]);
        let examples: Vec<Example> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Example {
                user: i,
                seq: (0..len).map(|j| (i * 7 + j * 3) % 10 + 1).collect(),
                target: 1,
                noise: None,
            })
            .collect();
        let as_bits = |l: &[(usize, f32)]| -> Vec<(usize, u32)> {
            l.iter().map(|&(i, s)| (i, s.to_bits())).collect()
        };
        for kind in BackboneKind::all() {
            let model = SeqRec::new(kind, 10, 8, 50, 8);
            let lists = crate::recommend_each(&model, &examples, 4);
            for (ex, list) in examples.iter().zip(&lists) {
                if ex.seq.is_empty() {
                    assert!(list.is_empty());
                    continue;
                }
                let want = as_bits(&oracle_recommend(&model, ex.user, &ex.seq, 4));
                assert_eq!(as_bits(list), want, "{kind:?} {:?}", ex.seq);
                assert_eq!(as_bits(&model.recommend(ex.user, &ex.seq, 4)), want);
            }
        }
    }

    #[test]
    fn recommend_k_larger_than_catalogue_is_clamped() {
        let model = SeqRec::new(BackboneKind::Gru4Rec, 4, 8, 20, 6);
        let recs = model.recommend(0, &[1, 2], 100);
        assert_eq!(recs.len(), 4);
    }

    #[test]
    #[should_panic]
    fn recommend_rejects_empty_history() {
        let model = SeqRec::new(BackboneKind::Gru4Rec, 4, 8, 20, 7);
        model.recommend(0, &[], 3);
    }

    #[test]
    fn example_roundtrip_through_batching() {
        let examples = vec![Example {
            user: 0,
            seq: vec![1, 2],
            target: 3,
            noise: None,
        }];
        let batches = ssdrec_data::make_batches(&examples, 8, 0);
        let model = SeqRec::new(BackboneKind::Caser, 5, 8, 20, 4);
        let mut g = Graph::new();
        let bind = model.store.bind_all(&mut g);
        let s = model.eval_scores(&mut g, &bind, &batches[0]);
        assert_eq!(g.value(s).shape(), &[1, 6]);
    }
}
