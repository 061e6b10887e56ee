//! Finite-difference gradient verification of the contrastive head: the
//! InfoNCE loss in isolation, and the full joint CE + InfoNCE training loss
//! of [`ContrastiveSeqRec`], so the matmul / log-softmax backward paths the
//! loss is built from are verified against finite differences.

use ssdrec_data::Batch;
use ssdrec_models::{info_nce, BackboneKind, ContrastiveSeqRec, RecModel};
use ssdrec_tensor::{Binding, ParamStore, Rng, Tensor};
use ssdrec_testkit::fd_check_all_params;

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), shape)
}

#[test]
fn info_nce_gradients() {
    // Both view representations registered as store parameters, so the
    // check covers d/dz1 (the picked-row side) and d/dz2 (the transposed
    // negatives side) of the similarity matrix.
    let mut store = ParamStore::new();
    let z1 = store.add("z1", rand_tensor(&[4, 3], 1));
    let z2 = store.add("z2", rand_tensor(&[4, 3], 2));
    fd_check_all_params(&mut store, 1e-2, 1e-3, |g, bind: &Binding| {
        let a = bind.var(z1);
        let b = bind.var(z2);
        info_nce(g, a, b, 0.5, None)
    });
}

#[test]
fn contrastive_joint_loss_gradients() {
    // The full training loss — CE on the dropout forward plus weighted
    // InfoNCE between two seeded views — through a real (tiny) SASRec
    // backbone. The internal RNG is reseeded on every call, so the dropout
    // masks and the view salt are identical across FD perturbations. The
    // views left-pad with item 0, which pushes some FFN pre-activations
    // near the ReLU kink for unlucky inits: the seed and the small step
    // are chosen so no central difference straddles a kink (verified
    // stable across eps ∈ [5e-4, 2e-3]).
    let mut model = ContrastiveSeqRec::new(BackboneKind::SasRec, 8, 4, 6, 13);
    model.cl_weight = 0.5;
    let batch = Batch {
        users: vec![0, 1, 2],
        items: vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 3, 5, 7],
        seq_len: 4,
        targets: vec![5, 2, 8],
        noise: None,
    };
    // `loss` reads parameters only through the graph binding, so the store
    // can be moved out of the model for the duration of the check.
    let mut store = std::mem::replace(&mut model.base.store, ParamStore::new());
    fd_check_all_params(&mut store, 1e-3, 2e-3, |g, bind: &Binding| {
        let mut rng = Rng::seed(9);
        model.loss(g, bind, &batch, &mut rng)
    });
    model.base.store = store;
}
