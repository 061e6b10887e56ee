//! Finite-difference gradient verification of the Caser convolutional
//! encoder (horizontal conv heights {2,3} + vertical component), via the
//! testkit checker bridged through `fd_check_all_params`.

use ssdrec_models::backbones::CaserEncoder;
use ssdrec_models::SeqEncoder;
use ssdrec_tensor::{Binding, ParamStore, Rng, Tensor};
use ssdrec_testkit::fd_check_all_params;

#[test]
fn caser_conv_gradients() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(31);
    let caser = CaserEncoder::new(&mut store, 3, 2, &mut rng);
    let n = 2 * 4 * 3;
    let mut xr = Rng::seed(32);
    let x0 = Tensor::new((0..n).map(|_| xr.uniform(-1.0, 1.0)).collect(), &[2, 4, 3]);
    let x = store.add("input", x0);
    let w0 = {
        let mut wr = Rng::seed(33);
        Tensor::new((0..2 * 3).map(|_| wr.uniform(-1.0, 1.0)).collect(), &[2, 3])
    };
    // ReLU + max-over-time kinks: use a small step so central differences
    // stay on one side of each kink (near-ties between pooled windows flip
    // the argmax under larger steps).
    fd_check_all_params(&mut store, 5e-4, 1e-3, |g, bind: &Binding| {
        let xv = bind.var(x);
        let h = caser.encode(g, bind, xv);
        let w = g.constant(w0.clone());
        let t = g.tanh(h);
        let p = g.mul(t, w);
        g.sum_all(p)
    });
}
