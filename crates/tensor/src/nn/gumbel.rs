//! Gumbel-Softmax reparameterisation (paper Eq. 11, following [47]).
//!
//! Used by SSDRec's position selector and item selector, and by HSD's subset
//! selection, to make discrete choices differentiable.

use crate::backend::per_isa;
use crate::graph::{Graph, Var};
use crate::math;
use crate::tensor::Tensor;
use ssdrec_base::Rng;

/// Sample a straight-through Gumbel-Softmax over the last dimension of
/// `probs` (paper Eq. 11–12): the forward value is the one-hot of each
/// row's argmax of the relaxed sample `softmax((log p + g)/τ)`, and the
/// backward pass is that relaxation's gradient.
///
/// `probs` holds (unnormalised, non-negative) probabilities; logs are taken
/// internally with clamping, matching the paper's
/// `exp((log r + g)/τ) / Σ exp((log r + g)/τ)` formulation.
pub fn gumbel_softmax(g: &mut Graph, rng: &mut Rng, probs: Var, tau: f32) -> Var {
    let soft = relaxed(g, rng, probs, tau);
    // One-hot of the per-row argmax of the soft sample.
    let sv = g.value(soft);
    let shape = sv.shape().to_vec();
    let last = *shape.last().unwrap();
    let rows = sv.len() / last;
    let mut hard = Tensor::zeros(&shape);
    for r in 0..rows {
        let row = &sv.data()[r * last..(r + 1) * last];
        let mut best = 0;
        let mut bv = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > bv {
                bv = v;
                best = i;
            }
        }
        hard.data_mut()[r * last + best] = 1.0;
    }
    let hc = g.constant(hard);
    let det = g.detach(soft);
    let diff = g.sub(hc, det);
    g.add(diff, soft)
}

/// The soft relaxation `softmax((log p + g)/τ)` of [`gumbel_softmax`], one
/// Gumbel draw from `rng` per element of `probs`.
fn relaxed(g: &mut Graph, rng: &mut Rng, probs: Var, tau: f32) -> Var {
    assert!(tau > 0.0, "gumbel temperature must be positive");
    let shape = g.value(probs).shape().to_vec();
    let n: usize = shape.iter().product();
    // The uniforms `Rng::gumbel` draws, in its order, then its transform
    // in one pass at the vector width.
    let mut noise = crate::pool::take(n);
    for u in noise.iter_mut() {
        *u = f32::EPSILON.max(rng.next_f32());
    }
    gumbel_from_uniform(&mut noise);
    let noise = Tensor::new(noise, &shape);

    let logp = g.ln(probs);
    let gn = g.constant(noise);
    let z = g.add(logp, gn);
    // Fused 1/τ scale + softmax; the noise add stays a separate node
    // because `(a + b)·s` and `a·s + b` differ bitwise.
    g.scaled_masked_softmax(z, 1.0 / tau, None)
}

/// `u ← −ln(−ln u)`: standard Gumbel noise from uniforms in `(0, 1)`.
#[inline(always)]
fn gumbel_from_uniform_in(u: &mut [f32]) {
    for v in u {
        *v = -math::ln(-math::ln(*v));
    }
}

per_isa! {
    /// [`gumbel_from_uniform_in`] in the active build.
    fn gumbel_from_uniform(u: &mut [f32]) = |_W| gumbel_from_uniform_in(u);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_rows_sum_to_one() {
        let mut g = Graph::new();
        let mut rng = Rng::seed(0);
        let p = g.constant(Tensor::new(vec![0.2, 0.3, 0.5, 0.9, 0.05, 0.05], &[2, 3]));
        let s = relaxed(&mut g, &mut rng, p, 1.0);
        for row in g.value(s).data().chunks(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn hard_is_one_hot_in_forward() {
        let mut g = Graph::new();
        let mut rng = Rng::seed(1);
        let p = g.constant(Tensor::new(vec![0.1, 0.1, 0.8], &[1, 3]));
        let s = gumbel_softmax(&mut g, &mut rng, p, 0.5);
        let row = g.value(s).data();
        let ones = row.iter().filter(|&&v| (v - 1.0).abs() < 1e-6).count();
        let zeros = row.iter().filter(|&&v| v.abs() < 1e-6).count();
        assert_eq!((ones, zeros), (1, 2), "row {row:?}");
    }

    #[test]
    fn hard_passes_gradients_straight_through() {
        let mut g = Graph::new();
        let mut rng = Rng::seed(2);
        let x = g.param(Tensor::new(vec![0.4, 0.6], &[1, 2]));
        let s = gumbel_softmax(&mut g, &mut rng, x, 1.0);
        let w = g.constant(Tensor::new(vec![1.0, 2.0], &[1, 2]));
        let sw = g.mul(s, w);
        let loss = g.sum_all(sw);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_some(), "straight-through gradient missing");
    }

    #[test]
    fn low_temperature_concentrates_on_argmax() {
        // With a strongly peaked distribution and tiny τ, the hard sample
        // should pick the dominant category nearly always.
        let mut hits = 0;
        for seed in 0..200 {
            let mut g = Graph::new();
            let mut rng = Rng::seed(seed);
            let p = g.constant(Tensor::new(vec![0.01, 0.01, 0.98], &[1, 3]));
            let s = gumbel_softmax(&mut g, &mut rng, p, 0.1);
            if g.value(s).data()[2] > 0.5 {
                hits += 1;
            }
        }
        assert!(hits > 150, "argmax hit only {hits}/200");
    }

    /// The noise takes `Rng::gumbel`'s draws in its order, one per element,
    /// so the stream after a sample is the stream after that many draws.
    #[test]
    fn noise_draws_the_stream_rng_gumbel_draws() {
        let (mut a, mut b) = (Rng::seed(9), Rng::seed(9));
        let mut g = Graph::new();
        let p = g.constant(Tensor::new((1..=15).map(|v| v as f32).collect(), &[3, 5]));
        gumbel_softmax(&mut g, &mut a, p, 0.7);
        for _ in 0..15 {
            b.gumbel();
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn samples_follow_categorical_distribution() {
        // Empirical frequencies of the hard sample approximate the underlying
        // categorical distribution (the defining property of the Gumbel trick).
        let probs = [0.2f32, 0.3, 0.5];
        let mut counts = [0usize; 3];
        for seed in 0..3000 {
            let mut g = Graph::new();
            let mut rng = Rng::seed(seed);
            let p = g.constant(Tensor::new(probs.to_vec(), &[1, 3]));
            let s = gumbel_softmax(&mut g, &mut rng, p, 1.0);
            let row = g.value(s).data();
            counts[row.iter().position(|&v| v > 0.5).unwrap()] += 1;
        }
        for (i, &p) in probs.iter().enumerate() {
            let f = counts[i] as f32 / 3000.0;
            assert!((f - p).abs() < 0.05, "cat {i}: freq {f} vs p {p}");
        }
    }
}
