//! Dense, row-major, contiguous `f32` tensor value type.
//!
//! [`Tensor`] is the plain value carried through the autograd graph. It has no
//! gradient machinery of its own; see [`crate::graph`] for differentiation.

use std::fmt;

/// A dense, row-major tensor of `f32` values with up to four dimensions.
///
/// All model state (embeddings, weights, activations) in this workspace flows
/// through this type. The representation is deliberately simple — a contiguous
/// `Vec<f32>` plus a shape — so that kernels are cache-friendly loops and the
/// autograd tape can clone values cheaply when needed.
///
/// Constructors ([`Tensor::zeros`], [`Tensor::full`], [`Tensor::map`],
/// `clone`) draw their storage from the step-scoped buffer pool
/// ([`crate::pool`]); dropping a tensor frees the buffer normally, but
/// step-scoped owners ([`crate::graph::Graph`],
/// [`crate::graph::Gradients`], the optimizers) recycle buffers back into
/// the pool instead.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = crate::pool::take(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Every tensor returns its storage to the step-scoped pool, so
        // temporaries (kernel intermediates, model-code scratch) recirculate
        // instead of leaking pool inventory each step. [`Tensor::into_data`]
        // empties `data` first, so callers that keep the buffer are exempt;
        // recycling an empty Vec is a no-op.
        crate::pool::recycle(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 12 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, …; {}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?} (= {n})",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// An all-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            data: crate::pool::take_zeroed(n),
            shape: shape.to_vec(),
        }
    }

    /// An all-ones tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = crate::pool::take(n);
        data.fill(value);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A 0-dimensional-like scalar represented as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self::full(&[1], value)
    }

    /// Borrow the underlying data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the underlying buffer (it is *not* recycled; the
    /// caller owns it — see the [`Drop`] impl).
    pub fn into_data(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// The scalar value of a single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor does not hold exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor of shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Reinterpret the same buffer under a new shape with equal element count.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            n,
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// For a matrix (2-D tensor), the `(rows, cols)` pair.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.ndim(), 2, "dims2 on shape {:?}", self.shape);
        (self.shape[0], self.shape[1])
    }

    /// For a 3-D tensor, the `(batch, rows, cols)` triple.
    pub fn dims3(&self) -> (usize, usize, usize) {
        assert_eq!(self.ndim(), 3, "dims3 on shape {:?}", self.shape);
        (self.shape[0], self.shape[1], self.shape[2])
    }

    /// Row `i` of a 2-D tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        let (r, c) = self.dims2();
        assert!(i < r, "row {i} out of {r}");
        &self.data[i * c..(i + 1) * c]
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = crate::pool::take(self.data.len());
        for (o, &x) in data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scale by a constant.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element (ties resolve to the first).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut bv = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > bv {
                bv = v;
                best = i;
            }
        }
        best
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_shape() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.dims2(), (2, 2));
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_bad_shape() {
        Tensor::new(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).reshaped(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn argmax_first_tie() {
        let t = Tensor::new(vec![1.0, 3.0, 3.0, 0.0], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::new(vec![1.0, 2.0], &[2]);
        a.add_assign(&Tensor::new(vec![3.0, 4.0], &[2]));
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[8.0, 12.0]);
    }

    #[test]
    fn non_finite_detection() {
        let t = Tensor::new(vec![1.0, f32::NAN], &[2]);
        assert!(t.has_non_finite());
        assert!(!Tensor::ones(&[2]).has_non_finite());
    }
}
