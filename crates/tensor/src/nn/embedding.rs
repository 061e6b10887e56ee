//! ID-to-vector embedding table (paper Eq. 1).

use crate::graph::{Graph, Var};
use crate::optim::{Binding, ParamRef, ParamStore};
use ssdrec_base::Rng;

/// A `V×d` embedding look-up table.
pub struct Embedding {
    w: ParamRef,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// A new Xavier-initialised table for `vocab` IDs of width `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add_xavier(format!("{name}.weight"), &[vocab, dim], rng);
        Embedding { w, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying weight parameter (e.g. for tied output projections).
    pub fn weight(&self) -> ParamRef {
        self.w
    }

    /// Gather a flat list of IDs, yielding `N×d`.
    pub fn lookup(&self, g: &mut Graph, bind: &Binding, ids: &[usize]) -> Var {
        let w = bind.var(self.w);
        g.embedding(w, ids)
    }

    /// Gather a batch of padded sequences, yielding `B×T×d`.
    ///
    /// `ids` is row-major `B×T`; the caller supplies a padding ID that must
    /// be a valid row (conventionally row 0).
    pub fn lookup_seq(
        &self,
        g: &mut Graph,
        bind: &Binding,
        ids: &[usize],
        batch: usize,
        time: usize,
    ) -> Var {
        assert_eq!(ids.len(), batch * time, "lookup_seq id count");
        let flat = self.lookup(g, bind, ids);
        g.reshape(flat, &[batch, time, self.dim])
    }

    /// The full table as a graph value (`V×d`), e.g. for scoring against the
    /// entire item universe.
    pub fn table(&self, bind: &Binding) -> Var {
        bind.var(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn lookup_gathers_rows() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let out = emb.lookup(&mut g, &bind, &[4, 0]);
        assert_eq!(g.value(out).shape(), &[2, 3]);
        assert_eq!(g.value(out).row(0), store.get(emb.weight()).row(4));
    }

    #[test]
    fn lookup_seq_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let out = emb.lookup_seq(&mut g, &bind, &[1, 2, 3, 4, 5, 6], 2, 3);
        assert_eq!(g.value(out).shape(), &[2, 3, 4]);
    }

    /// Embeddings must receive sparse gradients: only looked-up rows move.
    #[test]
    fn only_touched_rows_update() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(2);
        let emb = Embedding::new(&mut store, "e", 4, 2, &mut rng);
        let before = store.get(emb.weight()).clone();
        let mut opt = Adam::new(0.1);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let out = emb.lookup(&mut g, &bind, &[1]);
        let sq = g.mul(out, out);
        let loss = g.sum_all(sq);
        let mut grads = g.backward(loss);
        opt.step(&mut store, &bind, &mut grads);
        let after = store.get(emb.weight());
        assert_eq!(after.row(0), before.row(0));
        assert_eq!(after.row(3), before.row(3));
        assert_ne!(after.row(1), before.row(1));
    }

    #[test]
    fn repeated_ids_accumulate_grads() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(3);
        let emb = Embedding::new(&mut store, "e", 3, 1, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let out = emb.lookup(&mut g, &bind, &[2, 2]);
        let loss = g.sum_all(out);
        let grads = g.backward(loss);
        let gw = grads.get(bind.var(emb.weight())).unwrap();
        assert_eq!(gw.data()[2], 2.0);
    }

    #[test]
    #[should_panic]
    fn out_of_vocab_panics() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let emb = Embedding::new(&mut store, "e", 3, 2, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        emb.lookup(&mut g, &bind, &[3]);
    }
}
