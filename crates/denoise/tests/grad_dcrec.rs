//! DCRec's training loss — next-item CE on the first dropout view plus the
//! conformity-weighted InfoNCE between two views — through every
//! parameter: a finite-difference check, and the loss and gradients held
//! bit for bit to the contrastive term's old tape chain. Both batches'
//! targets include the most popular item, whose contrastive weight is 0.

/// The tensor crate's kernel oracle, for the row-major log-softmax the
/// old chain ran.
#[path = "../../tensor/tests/oracle/mod.rs"]
#[allow(dead_code)]
mod oracle;

use ssdrec_data::Batch;
use ssdrec_denoise::DcRec;
use ssdrec_models::{next_item_ce, RecModel, SasRecEncoder, SeqEncoder};
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{math, Binding, Graph, ParamStore, Rng, Tensor, Var};
use ssdrec_testkit::fd_check_all_params;

#[test]
fn dcrec_loss_gradients() {
    // Item 1 is the most frequent: conformity 1, contrastive weight 0.
    let freq = [0, 10, 5, 3, 2, 1, 1, 1, 1];
    let mut model = DcRec::new(8, 4, 6, &freq, 21);
    let batch = Batch {
        users: vec![0, 1, 2],
        items: vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 3, 5, 7],
        seq_len: 4,
        targets: vec![1, 5, 8],
        noise: None,
    };
    // `loss` reads parameters only through the graph binding, so the store
    // can be moved out of the model for the duration of the check. The RNG
    // is reseeded per call, so both views' dropout masks are identical
    // across FD perturbations. Some inits put FFN pre-activations near the
    // ReLU kink: the init seed is one where no central difference
    // straddles a kink (verified stable across eps ∈ [5e-4, 2e-3] and
    // dropout seeds 3, 9 and 17).
    let mut store = std::mem::replace(&mut model.store, ParamStore::new());
    fd_check_all_params(&mut store, 1e-3, 2e-3, |g, bind: &Binding| {
        let mut rng = Rng::seed(17);
        model.loss(g, bind, &batch, &mut rng)
    });
    model.store = store;
}

/// DCRec's contrastive term as the tape chain it was before it became the
/// weighted cross-entropy node, verbatim: `log_softmax_last` of the `B×B`
/// similarities (here the oracle's rows), `pick_per_row` of the diagonal,
/// `mul` by the weights, `mean_all`, `neg`, then each op's backward as the
/// graph ran it. Returns the term and its gradient w.r.t. the similarities
/// for a term gradient `gout`.
#[allow(clippy::neg_multiply)] // `neg` multiplied by −1
fn old_contrastive_chain(sim: &[f32], b: usize, w: &[f32], gout: f32) -> (f32, Vec<f32>) {
    let mut logp = vec![0.0; b * b];
    oracle::log_softmax_rows(sim, &mut logp, b);
    let pos: Vec<f32> = (0..b).map(|i| logp[i * b + i]).collect();
    let weighted: Vec<f32> = pos.iter().zip(w).map(|(&x, &y)| x * y).collect();
    let mean = weighted.iter().sum::<f32>() / b as f32;
    let loss = mean * -1.0;
    // neg: `g·c`; mean_all: `g / n`; mul: `g·w`; pick_per_row: the value
    // at the diagonal, `+0` elsewhere.
    let g = gout * -1.0 / b as f32;
    let mut dsim = vec![0.0f32; b * b];
    for i in 0..b {
        let mut gpick = vec![0.0f32; b];
        gpick[i] = g * w[i];
        // log_softmax_last's backward: `dy − exp(y) · Σ dy` per row.
        let gsum: f32 = gpick.iter().sum();
        for j in 0..b {
            dsim[i * b + j] = gpick[j] - math::exp(logp[i * b + j]) * gsum;
        }
    }
    (loss, dsim)
}

/// `(loss bits, every parameter's gradient bits)` of one graph.
fn loss_and_grads(
    store: &ParamStore,
    g: &Graph,
    bind: &Binding,
    loss: Var,
) -> (u32, Vec<Vec<u32>>) {
    let grads = g.backward(loss);
    let per_param = (0..store.num_tensors())
        .map(|i| {
            let v = bind.var(ParamStore::param_ref_by_index(i));
            let grad = grads.get(v).expect("every parameter gets a gradient");
            grad.data().iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    (g.value(loss).item().to_bits(), per_param)
}

#[test]
fn contrastive_node_is_the_old_chain_bit_for_bit() {
    let (num_items, dim, max_len, seed) = (10, 8, 20, 7);
    let freq = [0, 10, 5, 3, 2, 1, 1, 1, 1, 1, 1];
    let m = DcRec::new(num_items, dim, max_len, &freq, seed);
    // Item 1 is the most popular (weight 0); items 4, 7 and 10 weigh 0.8,
    // 0.9 and 0.9. Five rows, so `1/B` is inexact.
    let batch = Batch {
        users: vec![0, 1, 2, 3, 4],
        items: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 4, 6, 3, 5, 8],
        seq_len: 3,
        targets: vec![1, 4, 10, 1, 7],
        noise: None,
    };
    let b = batch.len();
    let node = {
        let mut g = Graph::new();
        let bind = m.store.bind_all(&mut g);
        let loss = m.loss(&mut g, &bind, &batch, &mut Rng::seed(9));
        loss_and_grads(&m.store, &g, &bind, loss)
    };

    // The model's layers as `DcRec::new` builds them, in a second store
    // that must hold the same parameters in the same order.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(seed);
    let item_emb = Embedding::new(&mut store, "item", num_items + 1, dim, &mut rng);
    let encoder = SasRecEncoder::new(&mut store, dim, max_len, 2, 2, &mut rng);
    assert_eq!(store.num_tensors(), m.store.num_tensors());
    for i in 0..store.num_tensors() {
        let p = ParamStore::param_ref_by_index(i);
        assert_eq!(store.name(p), m.store.name(p));
        assert_eq!(
            store.get(p).data(),
            m.store.get(p).data(),
            "{}",
            store.name(p)
        );
    }
    // Its dropout view, as the model encodes one for training.
    let view = |g: &mut Graph, bind: &Binding, rng: &mut Rng| {
        let h = item_emb.lookup_seq(g, bind, &batch.items, b, batch.seq_len);
        let h = g.dropout(h, 0.2, rng);
        encoder.encode(g, bind, h)
    };
    let max_f = 10.0f32;
    let w: Vec<f32> = batch
        .targets
        .iter()
        .map(|&t| 1.0 - freq[t] as f32 / max_f)
        .collect();
    let beta = 0.2f32;
    let chain = {
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(9);
        let z1 = view(&mut g, &bind, &mut rng);
        let ce = next_item_ce(&mut g, item_emb.table(&bind), z1, &batch.targets);
        let z2 = view(&mut g, &bind, &mut rng);
        let z2t = g.transpose_last(z2);
        let sim = g.matmul(z1, z2t);
        let sim = g.scale(sim, 1.0 / 0.5);
        // `scale(cl, β)` hands the term `1·β`.
        let (cl, dsim) = old_contrastive_chain(g.value(sim).data(), b, &w, beta);
        // `Σ sim ⊙ dsim` sends exactly `1·dsim` back into `sim`, and its
        // nodes sit where the chain's did on the tape.
        let d = g.constant(Tensor::new(dsim, &[b, b]));
        let tap = g.mul(sim, d);
        let tap = g.sum_all(tap);
        let root = g.add(ce, tap);
        let (_, grads) = loss_and_grads(&store, &g, &bind, root);
        let loss = g.value(ce).item() + cl * beta;
        (loss.to_bits(), grads)
    };
    assert_eq!(node.0, chain.0, "loss");
    for (i, (got, want)) in node.1.iter().zip(&chain.1).enumerate() {
        let p = ParamStore::param_ref_by_index(i);
        assert_eq!(got, want, "gradient of {}", store.name(p));
    }
}
