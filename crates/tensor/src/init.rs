//! Weight initialisation schemes.
//!
//! The paper initialises embeddings and weights with Xavier/Glorot init [44].

use crate::tensor::Tensor;
use ssdrec_base::Rng;

fn fan_in_out(shape: &[usize]) -> (usize, usize) {
    match shape {
        [n] => (*n, *n),
        [i, o] => (*i, *o),
        // Higher-rank weights: treat trailing dims as receptive field.
        [i, o, rest @ ..] => {
            let r: usize = rest.iter().product();
            (i * r, o * r)
        }
        [] => (1, 1),
    }
}

/// Xavier/Glorot uniform: `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(shape: &[usize], rng: &mut Rng) -> Tensor {
    let (fi, fo) = fan_in_out(shape);
    let a = (6.0 / (fi + fo) as f32).sqrt();
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(-a, a)).collect(), shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_within_bound() {
        let mut rng = Rng::seed(0);
        let t = xavier_uniform(&[64, 64], &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= a));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = xavier_uniform(&[8, 8], &mut Rng::seed(77));
        let b = xavier_uniform(&[8, 8], &mut Rng::seed(77));
        assert_eq!(a, b);
    }
}
