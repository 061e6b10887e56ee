//! Stage 1: the global relation encoder (paper §III-C, Eq. 2–8).
//!
//! Encodes the five relation types of the multi-relation graph into
//! multi-relation representations `h_v` / `h_u` for every item and user:
//!
//! * **transitional** (Eq. 2–3): attention over incoming vs outgoing
//!   directed neighbourhoods, fused with the ego embedding by a 2×1
//!   convolution (two scalar filter taps + bias),
//! * **incompatible** (Eq. 4): undirected aggregation + the same conv form,
//! * **interactional** (Eq. 5): LightGCN-style one-hop propagation,
//! * **similar / dissimilar users** (Eq. 6–7): conv aggregation,
//! * **fusion** (Eq. 8): two feed-forward layers per node type.
//!
//! Message passing multiplies by seven constant sparse operators
//! ([`CsrMatrix`]): each relation keeps at most its top-k neighbours per
//! node, so an operator stores O(k·N) weights where a dense one would store
//! N², and a product costs O(k·N·d). They are built once per model and
//! shared with every tape node by reference count, so a step or an eval
//! batch neither copies nor re-binds them.

use ssdrec_graph::{Csr, MultiRelationGraph};
use ssdrec_tensor::nn::Linear;
use ssdrec_tensor::{
    Activation, Binding, CsrMatrix, Graph, ParamRef, ParamStore, Rng, Tensor, Var,
};

use crate::util::{add_scalar_var, scale_by_scalar};

/// The paper's `f(x‖e | Θ)` aggregator: a convolution with a 2×1 filter over
/// the stacked `[aggregate; ego]` pair — two scalar taps and a scalar bias.
pub struct PairConv {
    w: ParamRef,
    b: ParamRef,
}

impl PairConv {
    /// New conv with taps initialised to average the two inputs.
    pub fn new(store: &mut ParamStore, name: &str) -> Self {
        let w = store.add(format!("{name}.w"), Tensor::new(vec![0.5, 0.5], &[2]));
        let b = store.add_zeros(format!("{name}.b"), &[1]);
        PairConv { w, b }
    }

    /// `out = w₀·agg + w₁·ego + b` (element-wise over `N×d`).
    pub fn forward(&self, g: &mut Graph, bind: &Binding, agg: Var, ego: Var) -> Var {
        let w = bind.var(self.w);
        let w0 = g.slice_last(w, 0, 1);
        let w1 = g.slice_last(w, 1, 1);
        let a = scale_by_scalar(g, agg, w0);
        let e = scale_by_scalar(g, ego, w1);
        let s = g.add(a, e);
        add_scalar_var(g, s, bind.var(self.b))
    }
}

/// Constant sparse adjacency operators derived from the multi-relation
/// graph.
pub struct RelationAdjacency {
    /// `(V+1)×(V+1)` incoming transitional weights (`row v ← its sources`).
    pub trans_in: CsrMatrix,
    /// `(V+1)×(V+1)` outgoing transitional weights.
    pub trans_out: CsrMatrix,
    /// `(V+1)×(V+1)` incompatible weights.
    pub incompatible: CsrMatrix,
    /// `(V+1)×U` item←user interaction weights.
    pub item_user: CsrMatrix,
    /// `U×(V+1)` user←item interaction weights.
    pub user_item: CsrMatrix,
    /// `U×U` similar-user weights.
    pub similar: CsrMatrix,
    /// `U×U` dissimilar-user weights.
    pub dissimilar: CsrMatrix,
}

impl RelationAdjacency {
    /// Build the seven operators once, at model-build time.
    pub fn from_graph(mg: &MultiRelationGraph) -> Self {
        let v = mg.num_items + 1;
        let u = mg.num_users;
        RelationAdjacency {
            trans_in: operator(&mg.trans_in, v, v),
            trans_out: operator(&mg.trans_out, v, v),
            incompatible: operator(&mg.incompatible, v, v),
            item_user: operator(&mg.item_user, v, u),
            user_item: operator(&mg.user_item, u, v),
            similar: operator(&mg.similar, u, u),
            dissimilar: operator(&mg.dissimilar, u, u),
        }
    }
}

/// The `rows×cols` operator `out[i][j] = w(i→j)` of a CSR relation.
fn operator(csr: &Csr, rows: usize, cols: usize) -> CsrMatrix {
    assert_eq!(csr.num_nodes(), rows, "relation rows");
    CsrMatrix::from_rows(rows, cols, |i| csr.neighbors(i).iter().copied())
}

/// Stage 1: the global relation encoder.
pub struct GlobalRelationEncoder {
    /// Attention projections for incoming/outgoing transitional messages
    /// (Eq. 2's `W⁺_{v_i v}` and `W⁺_{v v_j}`).
    w_att_in: Linear,
    w_att_out: Linear,
    conv_trans: PairConv,
    conv_incomp: PairConv,
    conv_sim: PairConv,
    conv_dissim: PairConv,
    /// Fusion FFNs (Eq. 8): two feed-forward layers per node type.
    fuse_v1: Linear,
    fuse_v2: Linear,
    fuse_u1: Linear,
    fuse_u2: Linear,
    adj: RelationAdjacency,
    /// Whether Eq. 2's directed attention is used; `false` replaces it with
    /// an untyped mean of incoming/outgoing messages (the `ext-encoder`
    /// ablation).
    use_attention: bool,
}

/// The encoder's outputs: multi-relation representations for every node.
pub struct RelationOutput {
    /// `(V+1)×d` item representations `h_v`.
    pub items: Var,
    /// `U×d` user representations `h_u`.
    pub users: Var,
}

impl GlobalRelationEncoder {
    /// Build the encoder for representation width `d`.
    pub fn new(store: &mut ParamStore, d: usize, adj: RelationAdjacency, rng: &mut Rng) -> Self {
        Self::with_attention(store, d, adj, true, rng)
    }

    /// Build with the directed-attention toggle explicit.
    pub fn with_attention(
        store: &mut ParamStore,
        d: usize,
        adj: RelationAdjacency,
        use_attention: bool,
        rng: &mut Rng,
    ) -> Self {
        GlobalRelationEncoder {
            w_att_in: Linear::new_no_bias(store, "gre.att_in", d, d, rng),
            w_att_out: Linear::new_no_bias(store, "gre.att_out", d, d, rng),
            conv_trans: PairConv::new(store, "gre.conv_trans"),
            conv_incomp: PairConv::new(store, "gre.conv_incomp"),
            conv_sim: PairConv::new(store, "gre.conv_sim"),
            conv_dissim: PairConv::new(store, "gre.conv_dissim"),
            fuse_v1: Linear::new(store, "gre.fuse_v1", 3 * d, d, rng),
            fuse_v2: Linear::new(store, "gre.fuse_v2", d, d, rng),
            fuse_u1: Linear::new(store, "gre.fuse_u1", 3 * d, d, rng),
            fuse_u2: Linear::new(store, "gre.fuse_u2", d, d, rng),
            adj,
            use_attention,
        }
    }

    /// Encode all nodes. `item_table` is the `(V+1)×d` embedding table,
    /// `user_table` the `U×d` one.
    pub fn forward(
        &self,
        g: &mut Graph,
        bind: &Binding,
        item_table: Var,
        user_table: Var,
    ) -> RelationOutput {
        let (v, _d) = g.value(item_table).dims2();

        // --- item transitional (Eq. 2–3) ---------------------------------
        let msg_in = g.spmm(&self.adj.trans_in, item_table); // Σ w⁺ e_{v_i}
        let msg_out = g.spmm(&self.adj.trans_out, item_table); // Σ w⁺ e_{v_j}
        let agg_t = if self.use_attention {
            // α = ρ( σ(e_v W_in · msg_in) ‖ σ(e_v W_out · msg_out) ) per node.
            let q_in = self.w_att_in.forward(g, bind, item_table);
            let q_out = self.w_att_out.forward(g, bind, item_table);
            let qi = g.mul(q_in, msg_in);
            let s_in = g.sum_last(qi); // V
            let s_in = g.sigmoid(s_in);
            let qo = g.mul(q_out, msg_out);
            let s_out = g.sum_last(qo);
            let s_out = g.sigmoid(s_out);
            let si = g.reshape(s_in, &[v, 1]);
            let so = g.reshape(s_out, &[v, 1]);
            let scores = g.concat_last(&[si, so]); // V×2
            let alpha = g.softmax_last(scores);
            let a_i = g.slice_last(alpha, 0, 1); // V×1
            let a_j = g.slice_last(alpha, 1, 1);
            // Weighted directed aggregate: α_i·msg_in + α_j·msg_out.
            let d = g.value(item_table).dims2().1;
            let a_i = g.reshape(a_i, &[v]);
            let a_j = g.reshape(a_j, &[v]);
            let ai_e = g.expand_last(a_i, d);
            let aj_e = g.expand_last(a_j, d);
            let win = g.mul(ai_e, msg_in);
            let wout = g.mul(aj_e, msg_out);
            g.add(win, wout)
        } else {
            // Ablation: untyped mean, direction ignored.
            let s = g.add(msg_in, msg_out);
            g.scale(s, 0.5)
        };
        let h_v_plus = self.conv_trans.forward(g, bind, agg_t, item_table);

        // --- item incompatible (Eq. 4) ------------------------------------
        let msg_inc = g.spmm(&self.adj.incompatible, item_table);
        let h_v_minus = self.conv_incomp.forward(g, bind, msg_inc, item_table);

        // --- interactional (Eq. 5, LightGCN-style) ------------------------
        let h_v_int = g.spmm(&self.adj.item_user, user_table);
        let h_u_int = g.spmm(&self.adj.user_item, item_table);

        // --- user similar / dissimilar (Eq. 6–7) --------------------------
        let msg_sim = g.spmm(&self.adj.similar, user_table);
        let h_u_plus = self.conv_sim.forward(g, bind, msg_sim, user_table);
        let msg_dis = g.spmm(&self.adj.dissimilar, user_table);
        let h_u_minus = self.conv_dissim.forward(g, bind, msg_dis, user_table);

        // --- fusion (Eq. 8) -------------------------------------------------
        let vcat = g.concat_last(&[h_v_plus, h_v_minus, h_v_int]);
        let v1 = self.fuse_v1.forward_act(g, bind, vcat, Activation::Relu);
        let hv = self.fuse_v2.forward(g, bind, v1);
        // Residual keeps raw ID semantics available downstream.
        let items = g.add(hv, item_table);

        let ucat = g.concat_last(&[h_u_plus, h_u_minus, h_u_int]);
        let u1 = self.fuse_u1.forward_act(g, bind, ucat, Activation::Relu);
        let hu = self.fuse_u2.forward(g, bind, u1);
        let users = g.add(hu, user_table);

        RelationOutput { items, users }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;
    use ssdrec_graph::{build_graph, GraphConfig};
    use ssdrec_tensor::nn::Embedding;

    fn setup() -> (
        ParamStore,
        Embedding,
        Embedding,
        GlobalRelationEncoder,
        usize,
        usize,
    ) {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let mg = build_graph(&ds, &GraphConfig::default());
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let d = 8;
        let item_emb = Embedding::new(&mut store, "item", mg.num_items + 1, d, &mut rng);
        let user_emb = Embedding::new(&mut store, "user", mg.num_users, d, &mut rng);
        let adj = RelationAdjacency::from_graph(&mg);
        let enc = GlobalRelationEncoder::new(&mut store, d, adj, &mut rng);
        (store, item_emb, user_emb, enc, mg.num_items, mg.num_users)
    }

    #[test]
    fn output_shapes_cover_all_nodes() {
        let (store, item_emb, user_emb, enc, num_items, num_users) = setup();
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let it = item_emb.table(&bind);
        let ut = user_emb.table(&bind);
        let out = enc.forward(&mut g, &bind, it, ut);
        assert_eq!(g.value(out.items).shape(), &[num_items + 1, 8]);
        assert_eq!(g.value(out.users).shape(), &[num_users, 8]);
        assert!(!g.value(out.items).has_non_finite());
    }

    #[test]
    fn gradients_reach_embeddings_and_convs() {
        let (store, item_emb, user_emb, enc, _, _) = setup();
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let it = item_emb.table(&bind);
        let ut = user_emb.table(&bind);
        let out = enc.forward(&mut g, &bind, it, ut);
        let si = g.sum_all(out.items);
        let su = g.sum_all(out.users);
        let loss = g.add(si, su);
        let grads = g.backward(loss);
        assert!(grads.get(bind.var(item_emb.weight())).is_some());
        assert!(grads.get(bind.var(user_emb.weight())).is_some());
        assert!(grads.get(bind.var(enc.conv_trans.w)).is_some());
    }

    #[test]
    fn relations_change_representations() {
        // The encoder must produce something different from raw embeddings
        // for nodes that actually have edges.
        let (store, item_emb, user_emb, enc, num_items, _) = setup();
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let it = item_emb.table(&bind);
        let ut = user_emb.table(&bind);
        let out = enc.forward(&mut g, &bind, it, ut);
        let raw = g.value(it).clone();
        let enc_v = g.value(out.items);
        let mut changed = 0;
        for i in 1..=num_items {
            if raw.row(i) != enc_v.row(i) {
                changed += 1;
            }
        }
        assert!(changed > num_items / 2, "only {changed} items changed");
    }

    #[test]
    fn mean_aggregation_variant_runs_and_differs() {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let mg = build_graph(&ds, &GraphConfig::default());
        let d = 8;
        let run = |use_att: bool| {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed(0);
            let item_emb = Embedding::new(&mut store, "item", mg.num_items + 1, d, &mut rng);
            let user_emb = Embedding::new(&mut store, "user", mg.num_users, d, &mut rng);
            let adj = RelationAdjacency::from_graph(&mg);
            let enc = GlobalRelationEncoder::with_attention(&mut store, d, adj, use_att, &mut rng);
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let it = item_emb.table(&bind);
            let ut = user_emb.table(&bind);
            let out = enc.forward(&mut g, &bind, it, ut);
            g.value(out.items).data().to_vec()
        };
        let with_att = run(true);
        let without = run(false);
        assert_ne!(with_att, without, "attention toggle has no effect");
        assert!(without.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pair_conv_identity_when_weights_are_1_0() {
        let mut store = ParamStore::new();
        let pc = PairConv::new(&mut store, "pc");
        store.get_mut(pc.w).data_mut().copy_from_slice(&[0.0, 1.0]);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let agg = g.constant(Tensor::full(&[2, 3], 9.0));
        let ego = g.constant(Tensor::new((0..6).map(|x| x as f32).collect(), &[2, 3]));
        let out = pc.forward(&mut g, &bind, agg, ego);
        assert_eq!(g.value(out).data(), g.value(ego).data());
    }
}
