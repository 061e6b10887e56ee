//! Parameter storage and optimizers.
//!
//! Long-lived trainable parameters live in a [`ParamStore`] outside the
//! per-step autograd [`Graph`](crate::graph::Graph). Each training step a
//! module calls [`ParamStore::bind_all`] to register every parameter as a
//! graph leaf; after `backward` the returned [`Binding`] maps gradients back
//! to their slots so the optimizer can apply an update.

use crate::graph::{Gradients, Graph, Var};
use crate::tensor::Tensor;
use ssdrec_base::Rng;

/// Handle to a parameter slot inside a [`ParamStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamRef(usize);

struct Slot {
    name: String,
    value: Tensor,
    /// Adam first-moment estimate.
    m: Tensor,
    /// Adam second-moment estimate.
    v: Tensor,
}

/// Owns all trainable tensors of a model plus their optimizer state.
#[derive(Default)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

/// Maps [`ParamRef`]s to the leaf [`Var`]s registered for one graph.
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// The graph leaf corresponding to a parameter.
    pub fn var(&self, p: ParamRef) -> Var {
        self.vars[p.0]
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamRef {
        let m = Tensor::zeros(value.shape());
        let v = Tensor::zeros(value.shape());
        self.slots.push(Slot {
            name: name.into(),
            value,
            m,
            v,
        });
        ParamRef(self.slots.len() - 1)
    }

    /// Register a parameter initialised with Xavier/Glorot uniform init.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        shape: &[usize],
        rng: &mut Rng,
    ) -> ParamRef {
        self.add(name, crate::init::xavier_uniform(shape, rng))
    }

    /// Register a zero-initialised parameter (e.g. biases).
    pub fn add_zeros(&mut self, name: impl Into<String>, shape: &[usize]) -> ParamRef {
        self.add(name, Tensor::zeros(shape))
    }

    /// Register a ones-initialised parameter (e.g. LayerNorm gains).
    pub fn add_ones(&mut self, name: impl Into<String>, shape: &[usize]) -> ParamRef {
        self.add(name, Tensor::ones(shape))
    }

    /// Current value of a parameter.
    pub fn get(&self, p: ParamRef) -> &Tensor {
        &self.slots[p.0].value
    }

    /// Mutable access (used by tests and by manual weight surgery).
    pub fn get_mut(&mut self, p: ParamRef) -> &mut Tensor {
        &mut self.slots[p.0].value
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, p: ParamRef) -> &str {
        &self.slots[p.0].name
    }

    /// Number of parameters tensors.
    pub fn num_tensors(&self) -> usize {
        self.slots.len()
    }

    /// The [`ParamRef`] of the `i`-th registered parameter (registration
    /// order), used for iteration and checkpoint I/O.
    pub fn param_ref_by_index(i: usize) -> ParamRef {
        ParamRef(i)
    }

    /// Total number of scalar parameters (the paper's |Θ|).
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Register every parameter as a leaf of `g`, returning the binding.
    pub fn bind_all(&self, g: &mut Graph) -> Binding {
        let vars = self
            .slots
            .iter()
            .map(|s| g.param(s.value.clone()))
            .collect();
        Binding { vars }
    }

    /// True if any parameter contains NaN/inf (training-divergence guard).
    pub fn any_non_finite(&self) -> bool {
        self.slots.iter().any(|s| s.value.has_non_finite())
    }

    /// The Adam moment estimates `(m, v)` of a parameter, for checkpointing.
    pub fn moments(&self, p: ParamRef) -> (&Tensor, &Tensor) {
        let slot = &self.slots[p.0];
        (&slot.m, &slot.v)
    }

    /// Restore the Adam moment estimates of a parameter (resume-from-
    /// checkpoint path).
    ///
    /// # Panics
    /// Panics if either tensor's shape differs from the parameter's.
    pub fn set_moments(&mut self, p: ParamRef, m: Tensor, v: Tensor) {
        let slot = &mut self.slots[p.0];
        assert_eq!(
            m.shape(),
            slot.value.shape(),
            "moment m shape mismatch for {}",
            slot.name
        );
        assert_eq!(
            v.shape(),
            slot.value.shape(),
            "moment v shape mismatch for {}",
            slot.name
        );
        slot.m = m;
        slot.v = v;
    }

    /// Snapshot all parameter values (e.g. for early-stopping restore).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.slots.iter().map(|s| s.value.clone()).collect()
    }

    /// Restore parameter values from a [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's layout.
    pub fn restore(&mut self, snap: &[Tensor]) {
        assert_eq!(snap.len(), self.slots.len(), "snapshot layout mismatch");
        for (slot, t) in self.slots.iter_mut().zip(snap) {
            assert_eq!(
                slot.value.shape(),
                t.shape(),
                "snapshot shape mismatch for {}",
                slot.name
            );
            slot.value = t.clone();
        }
    }
}

/// Adam optimizer with optional decoupled L2 regularisation and global
/// gradient-norm clipping (the paper trains everything with Adam, lr 1e-3).
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 regularisation coefficient (paper searches {0, 1e-3, 1e-4}).
    pub weight_decay: f32,
    /// If set, gradients are rescaled so their global L2 norm is at most this.
    pub clip_norm: Option<f32>,
    step: u64,
}

impl Adam {
    /// Adam with the paper's defaults (lr 1e-3, β₁ 0.9, β₂ 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
            step: 0,
        }
    }

    /// Builder-style weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Restore the update counter from a checkpoint. Bias correction depends
    /// on it, so a resumed run must set it before the first `step`.
    pub fn set_steps(&mut self, steps: u64) {
        self.step = steps;
    }

    /// Apply one update from the gradients of a completed backward pass.
    ///
    /// Parameters that did not participate in the loss (no gradient) are
    /// left untouched, as are their moment estimates.
    pub fn step(&mut self, store: &mut ParamStore, binding: &Binding, grads: &mut Gradients) {
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        // Collect (slot index, grad) pairs first so we can clip globally.
        let mut pairs: Vec<(usize, Tensor)> = Vec::new();
        for (i, _slot) in store.slots.iter().enumerate() {
            if let Some(gt) = grads.take(binding.vars[i]) {
                pairs.push((i, gt));
            }
        }
        if let Some(maxn) = self.clip_norm {
            let total: f32 = pairs
                .iter()
                .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
                .sum();
            let norm = total.sqrt();
            if norm > maxn {
                let s = maxn / norm;
                for (_, g) in pairs.iter_mut() {
                    g.scale_assign(s);
                }
            }
        }

        for (i, g) in pairs {
            let slot = &mut store.slots[i];
            for j in 0..slot.value.len() {
                let mut gj = g.data()[j];
                if !gj.is_finite() {
                    gj = 0.0;
                }
                if self.weight_decay > 0.0 {
                    gj += self.weight_decay * slot.value.data()[j];
                }
                let m = &mut slot.m.data_mut()[j];
                *m = self.beta1 * *m + (1.0 - self.beta1) * gj;
                let v = &mut slot.v.data_mut()[j];
                *v = self.beta2 * *v + (1.0 - self.beta2) * gj * gj;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                slot.value.data_mut()[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            crate::pool::recycle(g.into_data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = (w - 3)² with Adam; must converge near 3.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let mut g = Graph::new();
            let b = store.bind_all(&mut g);
            let wv = b.var(w);
            let c = g.constant(Tensor::scalar(3.0));
            let d = g.sub(wv, c);
            let sq = g.mul(d, d);
            let loss = g.sum_all(sq);
            let mut grads = g.backward(loss);
            opt.step(&mut store, &b, &mut grads);
        }
        assert!(
            (store.get(w).item() - 3.0).abs() < 1e-2,
            "w = {}",
            store.get(w).item()
        );
    }

    #[test]
    fn clip_norm_caps_updates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(1.0);
        opt.clip_norm = Some(1e-3);
        let mut g = Graph::new();
        let b = store.bind_all(&mut g);
        let wv = b.var(w);
        let big = g.scale(wv, 1e6);
        let c = g.add_scalar(big, 1.0);
        let loss = g.sum_all(c);
        let mut grads = g.backward(loss);
        opt.step(&mut store, &b, &mut grads);
        // Even with a huge gradient, clipped Adam moves at most ~lr.
        assert!(store.get(w).item().abs() <= 1.001);
    }

    #[test]
    fn unused_params_untouched() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(1.5));
        let u = store.add("unused", Tensor::scalar(9.0));
        let mut opt = Adam::new(0.1);
        let mut g = Graph::new();
        let b = store.bind_all(&mut g);
        let wv = b.var(w);
        let sq = g.mul(wv, wv);
        let loss = g.sum_all(sq);
        let mut grads = g.backward(loss);
        opt.step(&mut store, &b, &mut grads);
        assert_eq!(store.get(u).item(), 9.0);
        assert_ne!(store.get(w).item(), 1.5);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(4.0));
        let mut opt = Adam::new(0.05).with_weight_decay(1e-1);
        for _ in 0..200 {
            let mut g = Graph::new();
            let b = store.bind_all(&mut g);
            let wv = b.var(w);
            // loss independent of w except through decay: constant grad 0
            let z = g.scale(wv, 0.0);
            let loss = g.sum_all(z);
            let mut grads = g.backward(loss);
            opt.step(&mut store, &b, &mut grads);
        }
        assert!(store.get(w).item() < 4.0);
    }

    #[test]
    fn param_store_counts() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(&[3, 4]));
        store.add("b", Tensor::zeros(&[5]));
        assert_eq!(store.num_tensors(), 2);
        assert_eq!(store.num_scalars(), 17);
    }
}
