//! Stage 2: the self-augmentation module (paper §III-D, Eq. 9–12).
//!
//! A **position selector** detects the most inconsistent position in each
//! sequence from two signals — sequentiality (Bi-LSTM strict agreement,
//! Eq. 9) and similarity (mean pairwise affinity, Eq. 10) — combined and
//! hardened through a Gumbel-Softmax (Eq. 11). An **item selector** then
//! ranks the entire item universe against the chosen position's
//! bidirectional context and hard-selects two items (Eq. 12), which are
//! inserted before and after the position.
//!
//! Batched insertion at per-sequence positions is realised with constant
//! scatter matrices: `H'_S = G·H_S + P_L·h^L + P_R·h^R`, where `G`
//! (`B×(T+2)×T`) copies original rows to their shifted slots and `P_L`/`P_R`
//! (`B×(T+2)×1`) place the inserted representations. Gradients flow to the
//! inserted item representations via the straight-through Gumbel samples.

use ssdrec_tensor::nn::{gumbel_softmax, BiLstm};
use ssdrec_tensor::{Binding, Graph, ParamStore, Rng, Tensor, Var};

/// The position + item selector pair. Per the paper's parameter analysis
/// (`|Θ₂| = |Θ_L| = |Θ_R|`), both selectors share one Bi-LSTM.
pub struct SelfAugmenter {
    bilstm: BiLstm,
    dim: usize,
}

/// What the augmenter produced for one batch.
pub struct Augmented {
    /// The augmented representation sequence `B×(T+2)×d` (`H'_S`).
    pub h_aug: Var,
    /// Row-copy matrix `G` (`B×(T+2)×T`) mapping original → new positions.
    pub copy_matrix: Var,
    /// Chosen inconsistent position per sequence (original indexing).
    pub positions: Vec<usize>,
    /// Hard-selected left-insert item IDs per sequence.
    pub left_items: Vec<usize>,
    /// Hard-selected right-insert item IDs per sequence.
    pub right_items: Vec<usize>,
    /// Placement one-hots `P_L`, `P_R` (`B×(T+2)×1`).
    pub place_left: Var,
    /// See `place_left`.
    pub place_right: Var,
    /// The inserted representations (`B×d` each), straight-through.
    pub h_left: Var,
    /// See `h_left`.
    pub h_right: Var,
}

impl SelfAugmenter {
    /// Build for representation width `d`.
    pub fn new(store: &mut ParamStore, name: &str, d: usize, rng: &mut Rng) -> Self {
        SelfAugmenter {
            bilstm: BiLstm::new(store, &format!("{name}.bilstm"), d, d, rng),
            dim: d,
        }
    }

    /// Eq. 9 + Eq. 10: the combined inconsistency distribution `r_S`
    /// (`B×T`, positive, unnormalised product of the two softmaxes).
    pub fn inconsistency_scores(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var {
        let context = self.bilstm.forward(g, bind, h_seq);
        Self::scores_in_context(g, h_seq, context)
    }

    /// [`SelfAugmenter::inconsistency_scores`] given the Bi-LSTM states
    /// `(H^L, H^R)` of `h_seq`.
    fn scores_in_context(g: &mut Graph, h_seq: Var, (hl, hr): (Var, Var)) -> Var {
        let (_b, t, _d) = g.value(h_seq).dims3();
        // Sequentiality (Eq. 9): softmax_t( Σ_d h^L ⊙ h^R ⊙ h ).
        let p = g.mul(hl, hr);
        let p = g.mul(p, h_seq);
        let s = g.sum_last(p); // B×T
        let r1 = g.softmax_last(s);
        // Similarity (Eq. 10): softmax_t( Σ_i h_t·h_i / (n−1) ).
        let ht = g.transpose_last(h_seq); // B×d×T
        let sim = g.matmul(h_seq, ht); // B×T×T
        let sims = g.sum_last(sim); // B×T
        let denom = (t.max(2) - 1) as f32;
        let sims = g.scale(sims, 1.0 / denom);
        let r2 = g.softmax_last(sims);
        // Joint distribution r_S = r' ⊙ r''.
        g.mul(r1, r2)
    }

    /// Eq. 11: hard position choice via Gumbel-Softmax. Returns the
    /// straight-through one-hot (`B×T`) and the chosen indices.
    pub fn select_positions(
        &self,
        g: &mut Graph,
        rng: &mut Rng,
        r_s: Var,
        tau: f32,
    ) -> (Var, Vec<usize>) {
        let onehot = gumbel_softmax(g, rng, r_s, tau);
        let (b, t) = {
            let s = g.value(onehot).shape();
            (s[0], s[1])
        };
        let v = g.value(onehot);
        let positions = (0..b)
            .map(|i| {
                v.data()[i * t..(i + 1) * t]
                    .iter()
                    .position(|&x| x > 0.5)
                    .expect("hard gumbel emits a one-hot")
            })
            .collect();
        (onehot, positions)
    }

    /// Eq. 12: select the two insert items against the full item table
    /// `H_v` (`(V+1)×d`), given the sequence's Bi-LSTM states `(H^L, H^R)`
    /// (`B×T×d` each). Returns `(h_L, h_R, left IDs, right IDs)`.
    ///
    /// The pad row (item 0) is excluded from the ranking.
    pub fn select_items(
        &self,
        g: &mut Graph,
        rng: &mut Rng,
        (hl, hr): (Var, Var),
        pos_onehot: Var,
        item_table: Var,
        tau: f32,
    ) -> (Var, Var, Vec<usize>, Vec<usize>) {
        let (b, t, d) = g.value(hl).dims3();
        let vocab = g.value(item_table).dims2().0;
        // Bidirectional queries at the chosen position: qᴸ/qᴿ = one-hot · H.
        let sel = g.reshape(pos_onehot, &[b, 1, t]);
        let ql = g.matmul(sel, hl); // B×1×d
        let ql = g.reshape(ql, &[b, d]);
        let qr = g.matmul(sel, hr);
        let qr = g.reshape(qr, &[b, d]);

        // Rank the item universe: k = q·H_vᵀ, pad masked out.
        let tt = g.transpose_last(item_table); // d×V
        let padv = ssdrec_models::pad_mask(g, vocab);

        let pick = |g: &mut Graph, rng: &mut Rng, q: Var| -> (Var, Vec<usize>) {
            let k = g.matmul(q, tt); // B×V
            let k = g.scale(k, 1.0 / (d as f32).sqrt());
            let k = g.add_bcast(k, padv);
            let probs = g.softmax_last(k);
            let khat = gumbel_softmax(g, rng, probs, tau); // B×V one-hot
            let ids = {
                let v = g.value(khat);
                (0..b)
                    .map(|i| {
                        v.data()[i * vocab..(i + 1) * vocab]
                            .iter()
                            .position(|&x| x > 0.5)
                            .expect("hard gumbel emits a one-hot")
                    })
                    .collect()
            };
            let h = g.matmul(khat, item_table); // B×d, straight-through
            (h, ids)
        };
        let (h_left, left_items) = pick(g, rng, ql);
        let (h_right, right_items) = pick(g, rng, qr);
        (h_left, h_right, left_items, right_items)
    }

    /// Build the constant insertion operators for per-sequence positions.
    /// Returns `(G, P_L, P_R)` with shapes `B×(T+2)×T`, `B×(T+2)×1` ×2.
    ///
    /// New layout per sequence with position `p`:
    /// `[s_1 … s_{p-1}, h^L, s_p, h^R, s_{p+1} … s_T]`.
    pub fn insertion_operators(
        b: usize,
        t: usize,
        positions: &[usize],
    ) -> (Tensor, Tensor, Tensor) {
        let t2 = t + 2;
        let mut gmat = Tensor::zeros(&[b, t2, t]);
        let mut pl = Tensor::zeros(&[b, t2, 1]);
        let mut pr = Tensor::zeros(&[b, t2, 1]);
        for (bi, &p) in positions.iter().enumerate() {
            assert!(p < t, "position {p} out of sequence length {t}");
            for i in 0..t {
                // Original row i lands at: i (if i < p), i+1 (if i == p),
                // i+2 (if i > p).
                let j = if i < p {
                    i
                } else if i == p {
                    i + 1
                } else {
                    i + 2
                };
                gmat.data_mut()[(bi * t2 + j) * t + i] = 1.0;
            }
            pl.data_mut()[bi * t2 + p] = 1.0;
            pr.data_mut()[bi * t2 + p + 2] = 1.0;
        }
        (gmat, pl, pr)
    }

    /// Full stage-2 pass: select a position, select two items, insert them.
    /// Both selectors read one Bi-LSTM pass over `h_seq`.
    pub fn augment(
        &self,
        g: &mut Graph,
        bind: &Binding,
        rng: &mut Rng,
        h_seq: Var,
        item_table: Var,
        tau: f32,
    ) -> Augmented {
        let (b, t, d) = g.value(h_seq).dims3();
        let context = self.bilstm.forward(g, bind, h_seq);
        let r_s = Self::scores_in_context(g, h_seq, context);
        let (onehot, positions) = self.select_positions(g, rng, r_s, tau);
        let (h_left, h_right, left_items, right_items) =
            self.select_items(g, rng, context, onehot, item_table, tau);

        let (gm, pl, pr) = Self::insertion_operators(b, t, &positions);
        let gmv = g.constant(gm);
        let plv = g.constant(pl);
        let prv = g.constant(pr);
        let base = g.matmul(gmv, h_seq); // B×(T+2)×d
        let hl3 = g.reshape(h_left, &[b, 1, d]);
        let hr3 = g.reshape(h_right, &[b, 1, d]);
        let addl = g.matmul(plv, hl3);
        let addr = g.matmul(prv, hr3);
        let part = g.add(base, addl);
        let h_aug = g.add(part, addr);

        Augmented {
            h_aug,
            copy_matrix: gmv,
            positions,
            left_items,
            right_items,
            place_left: plv,
            place_right: prv,
            h_left,
            h_right,
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

    fn setup(d: usize) -> (ParamStore, SelfAugmenter) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let aug = SelfAugmenter::new(&mut store, "aug", d, &mut rng);
        (store, aug)
    }

    fn rand_seq(b: usize, t: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed(seed);
        Tensor::new(
            (0..b * t * d).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            &[b, t, d],
        )
    }

    #[test]
    fn inconsistency_scores_positive() {
        let (store, aug) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let h = g.constant(rand_seq(2, 5, 8, 1));
        let r = aug.inconsistency_scores(&mut g, &bind, h);
        assert_eq!(g.value(r).shape(), &[2, 5]);
        assert!(g.value(r).data().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn insertion_operators_reorder_correctly() {
        // T=3, p=1: new layout [s1, hL, s2, hR, s3].
        let (gm, pl, pr) = SelfAugmenter::insertion_operators(1, 3, &[1]);
        let h = Tensor::new(vec![1.0, 2.0, 3.0], &[1, 3, 1]);
        let base = ssdrec_tensor::kernels::matmul(&gm, &h);
        assert_eq!(base.data(), &[1.0, 0.0, 2.0, 0.0, 3.0]);
        assert_eq!(pl.data(), &[0.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(pr.data(), &[0.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn insertion_at_boundaries() {
        for p in [0usize, 3] {
            let (gm, pl, pr) = SelfAugmenter::insertion_operators(1, 4, &[p]);
            // Each original row appears exactly once.
            let col_sums: Vec<f32> = (0..4)
                .map(|i| (0..6).map(|j| gm.data()[j * 4 + i]).sum())
                .collect();
            assert_eq!(col_sums, vec![1.0; 4], "p={p}");
            assert_eq!(pl.data().iter().sum::<f32>(), 1.0);
            assert_eq!(pr.data().iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn augment_lengthens_by_two_and_preserves_originals() {
        let (store, aug) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(2);
        let h0 = rand_seq(2, 4, 8, 3);
        let h = g.constant(h0.clone());
        let table = g.constant(rand_seq(1, 12, 8, 4).reshaped(&[12, 8]));
        let out = aug.augment(&mut g, &bind, &mut rng, h, table, 1.0);
        let hv = g.value(out.h_aug);
        assert_eq!(hv.shape(), &[2, 6, 8]);
        // Original rows must appear (shifted) in the augmented sequence.
        for bi in 0..2 {
            let p = out.positions[bi];
            for i in 0..4 {
                let j = if i < p {
                    i
                } else if i == p {
                    i + 1
                } else {
                    i + 2
                };
                let orig = &h0.data()[(bi * 4 + i) * 8..(bi * 4 + i + 1) * 8];
                let moved = &hv.data()[(bi * 6 + j) * 8..(bi * 6 + j + 1) * 8];
                assert_eq!(orig, moved, "b={bi} i={i}");
            }
        }
        // Inserted IDs never the pad item.
        assert!(out.left_items.iter().all(|&i| i > 0));
        assert!(out.right_items.iter().all(|&i| i > 0));
    }

    /// Both selectors read one Bi-LSTM pass: two LSTM directions on the
    /// tape, not four.
    #[test]
    fn augment_runs_its_bilstm_once() {
        let (store, aug) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let h = g.constant(rand_seq(2, 4, 8, 3));
        let table = g.constant(rand_seq(1, 12, 8, 4).reshaped(&[12, 8]));
        aug.augment(&mut g, &bind, &mut Rng::seed(2), h, table, 1.0);
        assert_eq!(g.lstm_seq_nodes(), 2);
    }

    #[test]
    fn gradients_flow_to_item_table_through_selection() {
        let (store, aug) = setup(8);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(5);
        let h = g.constant(rand_seq(1, 3, 8, 6));
        let table = g.param(rand_seq(1, 10, 8, 7).reshaped(&[10, 8]));
        let out = aug.augment(&mut g, &bind, &mut rng, h, table, 1.0);
        let sq = g.mul(out.h_aug, out.h_aug);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        assert!(grads.get(table).is_some(), "no grad to item table");
    }

    #[test]
    fn positions_match_onehots() {
        let (store, aug) = setup(4);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(8);
        let h = g.constant(rand_seq(3, 6, 4, 9));
        let r = aug.inconsistency_scores(&mut g, &bind, h);
        let (onehot, pos) = aug.select_positions(&mut g, &mut rng, r, 0.5);
        let v = g.value(onehot);
        for (bi, &p) in pos.iter().enumerate() {
            assert!((v.data()[bi * 6 + p] - 1.0).abs() < 1e-6);
        }
    }
}
