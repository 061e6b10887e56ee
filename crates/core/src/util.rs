//! Small graph-composition helpers shared across SSDRec's stages.
//!
//! The learnable-scalar gates are broadcast nodes, not `N×1 · 1×1` gemms;
//! per-row broadcasts elsewhere use `Graph::expand_last`, never a product
//! with a ones matrix.

use ssdrec_tensor::{Graph, Var};

/// Multiply every element of `a` by a *learnable scalar* `s` (shape `[1]`),
/// keeping the gradient path to `s`: one `[n,1] ⊙ [1]` broadcast node, off
/// the gemm path.
pub fn scale_by_scalar(g: &mut Graph, a: Var, s: Var) -> Var {
    let shape = g.value(a).shape().to_vec();
    let n = g.value(a).len();
    let flat = g.reshape(a, &[n, 1]);
    let y = g.mul_bcast(flat, s);
    g.reshape(y, &shape)
}

/// Add a *learnable scalar* `b` (shape `[1]`) to every element of `a`: one
/// `[n,1] + [1]` broadcast node.
pub fn add_scalar_var(g: &mut Graph, a: Var, b: Var) -> Var {
    let shape = g.value(a).shape().to_vec();
    let n = g.value(a).len();
    let flat = g.reshape(a, &[n, 1]);
    let y = g.add_bcast(flat, b);
    g.reshape(y, &shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_tensor::Tensor;

    #[test]
    fn scale_by_scalar_grads_flow_to_scalar() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let s = g.param(Tensor::scalar(3.0));
        let y = scale_by_scalar(&mut g, a, s);
        assert_eq!(g.value(y).data(), &[3.0, 6.0, 9.0, 12.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(s).unwrap().item(), 10.0);
    }

    #[test]
    fn add_scalar_var_tiles() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::zeros(&[2, 3]));
        let b = g.param(Tensor::scalar(0.5));
        let y = add_scalar_var(&mut g, a, b);
        assert_eq!(g.value(y).data(), &[0.5; 6]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(b).unwrap().item(), 6.0);
    }
}
