//! Affine layers and layer normalisation.

use crate::backend::Activation;
use crate::graph::{Graph, Var};
use crate::optim::{Binding, ParamRef, ParamStore};
use ssdrec_base::Rng;

/// A fully-connected layer `y = x·W (+ b)`.
///
/// Accepts 2-D (`B×in`) or 3-D (`B×T×in`) inputs; the weight is broadcast
/// over the batch for 3-D inputs.
pub struct Linear {
    w: ParamRef,
    b: Option<ParamRef>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// A new Xavier-initialised layer with bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add_xavier(format!("{name}.w"), &[in_dim, out_dim], rng);
        let b = Some(store.add_zeros(format!("{name}.b"), &[out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// A new Xavier-initialised layer without bias.
    pub fn new_no_bias(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add_xavier(format!("{name}.w"), &[in_dim, out_dim], rng);
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter (for tying or inspection).
    pub fn weight(&self) -> ParamRef {
        self.w
    }

    /// The bias parameter, if the layer has one.
    pub fn bias(&self) -> Option<ParamRef> {
        self.b
    }

    /// Apply the layer.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let w = bind.var(self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = bind.var(b);
                g.add_bcast(y, bv)
            }
            None => y,
        }
    }

    /// Apply the layer followed by an activation, fusing bias-add and
    /// activation into one [`Graph::bias_act`] node when a bias exists.
    /// Bit-identical to `forward` followed by the unfused activation node.
    pub fn forward_act(&self, g: &mut Graph, bind: &Binding, x: Var, act: Activation) -> Var {
        let w = bind.var(self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = bind.var(b);
                g.bias_act(y, bv, act)
            }
            None => g.activation(y, act),
        }
    }
}

/// Layer normalisation over the last dimension with learnable gain/shift.
pub struct LayerNorm {
    gamma: ParamRef,
    beta: ParamRef,
}

impl LayerNorm {
    /// A new layer-norm for feature width `dim` (gain 1, shift 0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add_ones(format!("{name}.gamma"), &[dim]);
        let beta = store.add_zeros(format!("{name}.beta"), &[dim]);
        LayerNorm { gamma, beta }
    }

    /// Apply the normalisation.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let gamma = bind.var(self.gamma);
        let beta = bind.var(self.beta);
        g.layer_norm(x, gamma, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x2 = g.constant(Tensor::ones(&[2, 4]));
        let y2 = lin.forward(&mut g, &bind, x2);
        assert_eq!(g.value(y2).shape(), &[2, 3]);
        let x3 = g.constant(Tensor::ones(&[2, 5, 4]));
        let y3 = lin.forward(&mut g, &bind, x3);
        assert_eq!(g.value(y3).shape(), &[2, 5, 3]);
    }

    /// A linear layer must be able to fit the identity function.
    #[test]
    fn linear_learns_identity() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(1);
        let lin = Linear::new(&mut store, "l", 2, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        let x0 = Tensor::new(vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5, -1.0, 2.0], &[4, 2]);
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let x = g.constant(x0.clone());
            let y = lin.forward(&mut g, &bind, x);
            let d = g.sub(y, x);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            final_loss = g.value(loss).item();
            let mut grads = g.backward(loss);
            opt.step(&mut store, &bind, &mut grads);
        }
        assert!(final_loss < 1e-3, "loss {final_loss}");
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(Tensor::new(vec![10.0, 20.0, 30.0, 40.0], &[1, 4]));
        let y = ln.forward(&mut g, &bind, x);
        let mean: f32 = g.value(y).data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }
}
