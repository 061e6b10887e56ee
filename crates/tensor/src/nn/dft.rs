//! Learnable frequency-domain filter — the core of FMLP-Rec [28].
//!
//! FMLP-Rec applies `x → iFFT(FFT(x) ⊙ W)` along the time axis, with a
//! learnable complex filter `W`. Here the transform is realised as an exact
//! DFT via constant matrices, so it is a linear operator the autograd engine
//! differentiates for free. Sequence lengths in this domain are ≤ 200, so the
//! O(T²) matrix form is cheap and avoids a bespoke FFT kernel.

use crate::graph::{Graph, Var};
use crate::optim::{Binding, ParamRef, ParamStore};
use crate::tensor::Tensor;

/// A per-(frequency, channel) complex filter applied in the DFT domain.
pub struct DftFilter {
    w_re: ParamRef,
    w_im: ParamRef,
    /// Forward DFT matrices (constants), `T×T`.
    f_re: Tensor,
    f_im: Tensor,
    /// Inverse DFT matrices (constants, includes the 1/T factor), `T×T`.
    inv_re: Tensor,
    inv_im: Tensor,
    t_len: usize,
}

/// Build the `T×T` real/imag DFT matrices `F[k][n] = e^{-2πi k n / T}`.
pub fn dft_matrices(t: usize) -> (Tensor, Tensor) {
    let mut re = Tensor::zeros(&[t, t]);
    let mut im = Tensor::zeros(&[t, t]);
    for k in 0..t {
        for n in 0..t {
            let ang = -2.0 * std::f64::consts::PI * (k * n) as f64 / t as f64;
            re.data_mut()[k * t + n] = ang.cos() as f32;
            im.data_mut()[k * t + n] = ang.sin() as f32;
        }
    }
    (re, im)
}

impl DftFilter {
    /// A new filter for sequences of length `t_len` with `dim` channels.
    ///
    /// The filter is initialised close to identity (re = 1, im = 0) so early
    /// training behaves like a pass-through.
    pub fn new(store: &mut ParamStore, name: &str, t_len: usize, dim: usize) -> Self {
        let w_re = store.add_ones(format!("{name}.w_re"), &[t_len, dim]);
        let w_im = store.add_zeros(format!("{name}.w_im"), &[t_len, dim]);
        let (f_re, f_im) = dft_matrices(t_len);
        // Inverse DFT: conj(F)/T.
        let inv_re = f_re.map(|x| x / t_len as f32);
        let inv_im = f_im.map(|x| -x / t_len as f32);
        DftFilter {
            w_re,
            w_im,
            f_re,
            f_im,
            inv_re,
            inv_im,
            t_len,
        }
    }

    /// Sequence length the filter was built for.
    pub fn t_len(&self) -> usize {
        self.t_len
    }

    /// Apply the filter to `x` of shape `B×T×d` (T must equal `t_len`).
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let (_b, t, _d) = g.value(x).dims3();
        assert_eq!(
            t, self.t_len,
            "DftFilter built for T={}, got {t}",
            self.t_len
        );

        let fre = g.constant(self.f_re.clone());
        let fim = g.constant(self.f_im.clone());
        // Forward DFT along time (input is real): X = F x.
        let xre = g.matmul(fre, x);
        let xim = g.matmul(fim, x);

        // Complex multiply with the learnable filter, broadcast over batch.
        let wre = bind.var(self.w_re);
        let wim = bind.var(self.w_im);
        let rr = g.mul_bcast(xre, wre);
        let ii = g.mul_bcast(xim, wim);
        let yre = g.sub(rr, ii);
        let ri = g.mul_bcast(xre, wim);
        let ir = g.mul_bcast(xim, wre);
        let yim = g.add(ri, ir);

        // Inverse DFT, keeping the real part: x' = Re(F⁻¹ Y).
        let ire = g.constant(self.inv_re.clone());
        let iim = g.constant(self.inv_im.clone());
        let a = g.matmul(ire, yre);
        let b = g.matmul(iim, yim);
        g.sub(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_base::Rng;

    #[test]
    fn identity_filter_is_passthrough() {
        let mut store = ParamStore::new();
        let f = DftFilter::new(&mut store, "f", 6, 3);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let mut rng = Rng::seed(0);
        let x0 = Tensor::new(
            (0..2 * 6 * 3).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            &[2, 6, 3],
        );
        let x = g.constant(x0.clone());
        let y = f.forward(&mut g, &bind, x);
        for (a, b) in g.value(y).data().iter().zip(x0.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn dft_matrices_orthogonality() {
        // F⁻¹ F = I (checked on a delta signal).
        let t = 8;
        let (re, im) = dft_matrices(t);
        let inv_re = re.map(|x| x / t as f32);
        let inv_im = im.map(|x| -x / t as f32);
        // delta at position 3
        let mut x = vec![0.0f32; t];
        x[3] = 1.0;
        // X = F x (complex), then x' = Re(F⁻¹ X)
        let mut xr = vec![0.0f32; t];
        let mut xi = vec![0.0f32; t];
        for k in 0..t {
            for (n, &xn) in x.iter().enumerate() {
                xr[k] += re.data()[k * t + n] * xn;
                xi[k] += im.data()[k * t + n] * xn;
            }
        }
        for (n, _) in x.iter().enumerate() {
            let mut acc = 0.0f32;
            for k in 0..t {
                acc += inv_re.data()[n * t + k] * xr[k] - inv_im.data()[n * t + k] * xi[k];
            }
            let expect = if n == 3 { 1.0 } else { 0.0 };
            assert!((acc - expect).abs() < 1e-5, "pos {n}: {acc}");
        }
    }

    #[test]
    fn zero_filter_annihilates_signal() {
        let mut store = ParamStore::new();
        let f = DftFilter::new(&mut store, "f", 4, 2);
        store.get_mut(f.w_re).data_mut().fill(0.0);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(Tensor::ones(&[1, 4, 2]));
        let y = f.forward(&mut g, &bind, x);
        assert!(g.value(y).data().iter().all(|v| v.abs() < 1e-5));
    }

    #[test]
    fn filter_gradients_flow() {
        let mut store = ParamStore::new();
        let f = DftFilter::new(&mut store, "f", 4, 2);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(Tensor::ones(&[1, 4, 2]));
        let y = f.forward(&mut g, &bind, x);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        assert!(grads.get(bind.var(f.w_re)).is_some());
    }
}
