//! Finite-difference gradient verification of the relation encoder's
//! `PairConv` aggregator (the paper's 2×1 conv over `[aggregate; ego]`),
//! via the testkit checker bridged through `fd_check_all_params`.

use ssdrec_core::relation_encoder::PairConv;
use ssdrec_tensor::{Binding, ParamStore, Rng, Tensor};
use ssdrec_testkit::fd_check_all_params;

#[test]
fn pair_conv_gradients() {
    let mut store = ParamStore::new();
    let conv = PairConv::new(&mut store, "pc");
    let mut rng = Rng::seed(40);
    let n = 4 * 3;
    let agg = store.add(
        "agg",
        Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[4, 3]),
    );
    let ego = store.add(
        "ego",
        Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[4, 3]),
    );
    let w0 = Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[4, 3]);
    let worst = fd_check_all_params(&mut store, 1e-2, 1e-3, |g, bind: &Binding| {
        let a = bind.var(agg);
        let e = bind.var(ego);
        let y = conv.forward(g, bind, a, e);
        let w = g.constant(w0.clone());
        let t = g.tanh(y);
        let p = g.mul(t, w);
        g.sum_all(p)
    });
    assert!(worst <= 1e-3);
}
