//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation eagerly (forward values are computed at
//! build time) and can then back-propagate from any scalar node. Nodes are
//! referenced by lightweight [`Var`] handles; creation order is a valid
//! topological order, so the backward pass is a single reverse sweep.
//!
//! The tape is built per training step; long-lived parameters live outside
//! the graph (see [`crate::optim`]) and are re-registered as leaves each
//! step via [`Graph::param`]. Step loops keep **one** long-lived `Graph`
//! and call [`Graph::reset`] between steps: the node `Vec` keeps its
//! capacity and every node's value buffer returns to the buffer pool
//! ([`crate::pool`]), so steady-state steps allocate (almost) nothing.
//! Likewise [`Graph::backward_into`] reuses a caller-owned [`Gradients`]
//! workspace instead of allocating one per step.

use crate::backend::Activation;
use crate::kernels;
use crate::math;
use crate::pool;
use crate::sparse::CsrMatrix;
use crate::tensor::Tensor;
use ssdrec_base::Rng;

/// Handle to a node in a [`Graph`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw node index (useful for mapping parameter gradients back).
    pub fn id(self) -> usize {
        self.0
    }
}

/// The recorded operation for one node. Stored so the backward pass can
/// dispatch without closures.
#[derive(Debug)]
enum Op {
    /// Leaf (constant or parameter); no parents.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    /// `a + broadcast(b)` where `b`'s shape is a suffix of `a`'s.
    AddBcast(Var, Var),
    /// `a * broadcast(b)` where `b`'s shape is a suffix of `a`'s.
    MulBcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Exp(Var),
    /// Natural log of `max(x, LN_CLAMP)`.
    Ln(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Sqrt(Var),
    /// Element-wise maximum; gradient routes to the larger input (ties → lhs).
    Max2(Var, Var),
    /// Matrix product supporting 2×2, 3×3 (batched), 3×2 and 2×3 operand ranks.
    Matmul(Var, Var),
    /// Constant sparse operator times a 2-D input (see [`Graph::spmm`]).
    Spmm(CsrMatrix, Var),
    /// Swap the last two dimensions (2-D or 3-D input).
    TransposeLast(Var),
    SoftmaxLast(Var),
    LogSoftmaxLast(Var),
    /// Fused `−mean_i log_softmax(h · tableᵀ + mask)[i, targets[i]]` (see
    /// [`Graph::catalogue_ce`]), keeping the logits and row log-sum-exps.
    CatalogueCe {
        h: Var,
        table: Var,
        saved: kernels::CeSaved,
    },
    /// Fused `−mean_i log_softmax(logits)[i, targets[i]]` (see
    /// [`Graph::softmax_ce`]).
    SoftmaxCe(Var, kernels::CeSaved),
    /// Fused `act(a + broadcast(bias))` — one backend pass replacing an
    /// [`Op::AddBcast`] followed by an activation node, bit-identical to
    /// that chain.
    BiasAct(Var, Var, Activation),
    /// Fused `softmax_last(a·scale + broadcast(mask))` — one backend pass
    /// replacing [`Op::Scale`] → add-mask → [`Op::SoftmaxLast`],
    /// bit-identical to that chain.
    ScaledMaskedSoftmax(Var, Option<Var>, f32),
    /// Layer normalisation over the last dimension: `(x, gamma, beta)`.
    LayerNorm(Var, Var, Var),
    SumAll(Var),
    MeanAll(Var),
    /// Sum over the last dimension (drops it; scalars become shape `[1]`).
    SumLast(Var),
    /// Sum over the time axis: `B×T×d → B×d`.
    SumTime(Var),
    /// Concatenate along the last dimension.
    ConcatLast(Vec<Var>),
    /// Slice `[start, start+len)` of the last dimension.
    SliceLast(Var, usize, usize),
    /// Slice `[start, start+len)` of the time axis of a `B×T×d` tensor.
    SliceTime(Var, usize, usize),
    /// Pick time step `t` from `B×T×d`, yielding `B×d`.
    SelectTime(Var, usize),
    /// Stack `T` tensors of shape `B×d` into `B×T×d`.
    StackTime(Vec<Var>),
    /// Row gather from a `V×d` weight by indices, yielding `N×d`.
    Embedding(Var, Vec<usize>),
    /// Pick one column per row of a 2-D tensor, yielding shape `[B]`.
    PickPerRow(Var, Vec<usize>),
    Reshape(Var),
    /// Multiply by a fixed 0/1 (already scaled) dropout mask.
    Dropout(Var, Vec<f32>),
    /// Repeat along a new last axis (`S → S×n`); the inverse of
    /// [`Op::SumLast`].
    ExpandLast(Var),
    /// One direction of an LSTM over a whole sequence (see
    /// [`Graph::lstm_seq`]). `saved` is the pool buffer of activations the
    /// in-node BPTT reads, recycled with the node like a dropout mask.
    LstmSeq {
        x: Var,
        wx: Var,
        u: Var,
        b: Var,
        reversed: bool,
        saved: Vec<f32>,
    },
    /// Identity with severed gradient.
    Detach,
}

struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// Gradients produced by [`Graph::backward`] / filled by
/// [`Graph::backward_into`], indexed by [`Var::id`].
///
/// # Lifetime
///
/// The entries are indexed by node id and are only meaningful for the
/// backward pass that produced them: once the graph is
/// [`reset`](Graph::reset) or truncated, the same `Var` ids name different
/// nodes, so a `Gradients` held across a reset is stale. A reusable
/// workspace handed back to [`Graph::backward_into`] is safe — every pass
/// first clears all stale entries (recycling their buffers) and resizes the
/// table to the current tape, so a leftover gradient can never be observed
/// through [`Gradients::get`]/[`Gradients::take`] on a later step.
#[derive(Default)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// An empty workspace, ready to be passed to [`Graph::backward_into`].
    pub fn new() -> Self {
        Gradients::default()
    }

    /// The gradient of the loss w.r.t. `v`, if it participated in the loss.
    ///
    /// `v` must come from the same graph state as the backward pass that
    /// filled this workspace (see the type-level lifetime note).
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of the gradient for `v`.
    ///
    /// Taking leaves the slot empty but does **not** shrink the table; the
    /// table is re-sized to the live tape by the next
    /// [`Graph::backward_into`] (or [`Gradients::clear`]).
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }

    /// Number of node slots (the tape length of the producing backward
    /// pass; 0 for a fresh workspace).
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the workspace holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Drop every entry (recycling gradient buffers into the pool) and
    /// shrink the slot table to zero, keeping its capacity.
    pub fn clear(&mut self) {
        self.reset_to(0);
    }

    /// Recycle every remaining gradient and resize to `n` empty slots.
    fn reset_to(&mut self, n: usize) {
        for slot in self.grads.iter_mut() {
            if let Some(t) = slot.take() {
                pool::recycle(t.into_data());
            }
        }
        self.grads.resize_with(n, || None);
    }
}

impl Drop for Gradients {
    fn drop(&mut self) {
        // Un-taken gradients (e.g. parameters excluded from an update) go
        // back to the pool rather than to the allocator.
        self.reset_to(0);
    }
}

/// An eagerly-evaluated autograd tape.
pub struct Graph {
    nodes: Vec<Node>,
    /// Whether operations are recorded for backprop. Inference graphs
    /// (see [`Graph::inference`]) store only forward values — no ops, no
    /// gradient bookkeeping — making every node a frozen constant.
    record: bool,
    /// Highest node count ever seen on this graph; survives
    /// [`Graph::reset`]/[`Graph::truncate`] so callers can pre-size the
    /// next graph (or step) from the previous high-water mark.
    hwm: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // One-shot graphs (single-sequence recommend paths, tests) return
        // their buffers to the pool on drop, so they feed the long-lived
        // step loops' inventory instead of starving it.
        self.recycle_from(0);
    }
}

/// Lower bound applied inside [`Graph::ln`] to keep logs finite.
pub const LN_CLAMP: f32 = 1e-12;

impl Graph {
    /// Default node capacity used by [`Graph::new`]/[`Graph::inference`]
    /// when the caller has no better estimate (see
    /// [`Graph::with_capacity`]).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty graph with [`Graph::DEFAULT_CAPACITY`] node slots reserved.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty graph with `capacity` node slots reserved. Step loops that
    /// rebuild the tape repeatedly should size this from the previous
    /// step's [`Graph::high_water`] to avoid re-growing the node `Vec`.
    pub fn with_capacity(capacity: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(capacity),
            record: true,
            hwm: 0,
        }
    }

    /// An empty *inference* graph: forward values are computed by exactly
    /// the same kernels as a recording graph (results are bit-identical),
    /// but no operation tape is kept — nodes store only their value, every
    /// node is gradient-free, and [`Graph::backward`] panics. Combined with
    /// [`Graph::mark`]/[`Graph::truncate`] this is the frozen forward path
    /// used by the serving subsystem: parameters are bound once below the
    /// mark, and each request appends (then truncates) only its own
    /// activation nodes, so no per-request tape is ever allocated.
    pub fn inference() -> Self {
        Self::inference_with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty inference graph (see [`Graph::inference`]) with `capacity`
    /// node slots reserved.
    pub fn inference_with_capacity(capacity: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(capacity),
            record: false,
            hwm: 0,
        }
    }

    /// The largest node count this graph has ever held. Unlike
    /// [`Graph::len`], this survives [`Graph::reset`] and
    /// [`Graph::truncate`], making it the right pre-sizing hint for the
    /// next step or the next worker's graph.
    pub fn high_water(&self) -> usize {
        self.hwm
    }

    /// Clear the tape for the next step: every node is dropped, each value
    /// buffer (and any dropout mask or saved LSTM activations) returns to
    /// the buffer pool, and the node `Vec` keeps its capacity. The
    /// recording mode and [`Graph::high_water`] are preserved. All previously issued [`Var`]s
    /// become invalid; node ids restart at 0, so a step rebuilt after a
    /// reset produces bit-identical values and ids to one built on a fresh
    /// graph.
    pub fn reset(&mut self) {
        self.recycle_from(0);
    }

    /// Drop nodes `start..` into the pool, keeping the `Vec` allocation.
    fn recycle_from(&mut self, start: usize) {
        for node in self.nodes.drain(start..) {
            recycle_op(node.op);
            pool::recycle(node.value.into_data());
        }
    }

    /// Whether this graph records an autograd tape (false for
    /// [`Graph::inference`] graphs).
    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// The current node count, usable as a checkpoint for
    /// [`Graph::truncate`].
    pub fn mark(&self) -> usize {
        self.nodes.len()
    }

    /// Drop every node pushed after `mark` (from [`Graph::mark`]), keeping
    /// the allocated node buffer and recycling the dropped nodes' value
    /// buffers into the pool. [`Var`]s issued before the mark stay valid
    /// (their values are untouched); later ones must not be used again.
    ///
    /// # Panics
    /// Panics if `mark` exceeds the current node count.
    pub fn truncate(&mut self, mark: usize) {
        assert!(
            mark <= self.nodes.len(),
            "truncate past the end of the graph"
        );
        self.recycle_from(mark);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        let (op, requires_grad) = if self.record {
            (op, requires_grad)
        } else {
            // Inference graphs keep no tape: every node degenerates to a
            // gradient-free leaf holding only its forward value.
            recycle_op(op);
            (Op::Leaf, false)
        };
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        self.hwm = self.hwm.max(self.nodes.len());
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Register a constant leaf (no gradient).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Register a trainable-parameter leaf (gradient will be produced).
    pub fn param(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    // ----- element-wise binary ------------------------------------------------

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::zip(self.value(a), self.value(b), |x, y| x + y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Add(a, b), rg)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::zip(self.value(a), self.value(b), |x, y| x - y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Sub(a, b), rg)
    }

    /// `a * b` element-wise (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::zip(self.value(a), self.value(b), |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Mul(a, b), rg)
    }

    /// `a / b` element-wise (same shape).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::zip(self.value(a), self.value(b), |x, y| x / y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Div(a, b), rg)
    }

    /// `a + broadcast(b)`, where `b.shape` must be a suffix of `a.shape`.
    pub fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::bcast_zip(self.value(a), self.value(b), |x, y| x + y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::AddBcast(a, b), rg)
    }

    /// `a * broadcast(b)`, where `b.shape` must be a suffix of `a.shape`.
    pub fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::bcast_zip(self.value(a), self.value(b), |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::MulBcast(a, b), rg)
    }

    // ----- element-wise unary -------------------------------------------------

    /// `a * c` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let t = self.value(a).map(|x| x * c);
        let rg = self.rg(a);
        self.push(t, Op::Scale(a, c), rg)
    }

    /// `a + c` for a scalar constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let t = self.value(a).map(|x| x + c);
        let rg = self.rg(a);
        self.push(t, Op::AddScalar(a), rg)
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        let t = self.value(a).map(math::exp);
        let rg = self.rg(a);
        self.push(t, Op::Exp(a), rg)
    }

    /// `ln(max(a, LN_CLAMP))` — clamped for numerical safety.
    pub fn ln(&mut self, a: Var) -> Var {
        let t = self.value(a).map(|x| math::ln(x.max(LN_CLAMP)));
        let rg = self.rg(a);
        self.push(t, Op::Ln(a), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = self.value(a).map(math::sigmoid);
        let rg = self.rg(a);
        self.push(t, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t = self.value(a).map(math::tanh);
        let rg = self.rg(a);
        self.push(t, Op::Tanh(a), rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let t = self.value(a).map(|x| x.max(0.0));
        let rg = self.rg(a);
        self.push(t, Op::Relu(a), rg)
    }

    /// `sqrt(a)` (inputs must be non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let t = self.value(a).map(f32::sqrt);
        let rg = self.rg(a);
        self.push(t, Op::Sqrt(a), rg)
    }

    /// Element-wise maximum of two same-shape tensors.
    pub fn max2(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::zip(self.value(a), self.value(b), f32::max);
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Max2(a, b), rg)
    }

    // ----- linear algebra -------------------------------------------------

    /// Matrix multiplication with rank promotion:
    /// `2×2`, `3×3` (batched, equal batch), `3×2` (rhs broadcast over batch),
    /// and `2×3` (lhs broadcast over batch).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t = kernels::matmul(self.value(a), self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(t, Op::Matmul(a, b), rg)
    }

    /// `a · x` for a constant sparse operator `a` (`rows×cols`) and a 2-D
    /// `x` (`cols×d`). The node holds a shared handle on `a`, never a copy.
    /// Values and the gradient w.r.t. `x` are bit-equal to
    /// [`Graph::matmul`] with the densified `a` as a constant.
    pub fn spmm(&mut self, a: &CsrMatrix, x: Var) -> Var {
        let t = kernels::spmm(a, self.value(x));
        let rg = self.rg(x);
        self.push(t, Op::Spmm(a.clone(), x), rg)
    }

    /// Swap the last two dimensions of a 2-D or 3-D tensor.
    pub fn transpose_last(&mut self, a: Var) -> Var {
        let t = kernels::transpose_last(self.value(a));
        let rg = self.rg(a);
        self.push(t, Op::TransposeLast(a), rg)
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let t = kernels::softmax_last(self.value(a));
        let rg = self.rg(a);
        self.push(t, Op::SoftmaxLast(a), rg)
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_last(&mut self, a: Var) -> Var {
        let t = kernels::log_softmax_last(self.value(a));
        let rg = self.rg(a);
        self.push(t, Op::LogSoftmaxLast(a), rg)
    }

    /// The mean cross-entropy of a catalogue's scores as one node:
    /// `−mean_i log_softmax(h · tableᵀ + mask)[i, targets[i]]` for `h`
    /// `B×d`, `table` `n×d` and a constant `[n]` `mask`. The loss and both
    /// gradients are bit-identical to `transpose_last → matmul → add_bcast
    /// → log_softmax_last → pick_per_row → mean_all → neg`; the node keeps
    /// only the `B×n` logits and one log-sum-exp per row
    /// ([`kernels::catalogue_ce`]).
    pub fn catalogue_ce(&mut self, h: Var, table: Var, mask: Var, targets: &[usize]) -> Var {
        assert!(!self.rg(mask), "catalogue_ce: the mask is a constant");
        let (loss, saved) =
            kernels::catalogue_ce(self.value(h), self.value(table), self.value(mask), targets);
        let rg = self.rg(h) || self.rg(table);
        self.push(
            Tensor::scalar(loss),
            Op::CatalogueCe { h, table, saved },
            rg,
        )
    }

    /// `−mean_i log_softmax(logits)[i, targets[i]]` over `B×n` logits as
    /// one node, bit-identical to `log_softmax_last → pick_per_row →
    /// mean_all → neg` ([`kernels::softmax_ce`]).
    pub fn softmax_ce(&mut self, logits: Var, targets: &[usize]) -> Var {
        let (loss, saved) = kernels::softmax_ce(self.value(logits), targets);
        let rg = self.rg(logits);
        self.push(Tensor::scalar(loss), Op::SoftmaxCe(logits, saved), rg)
    }

    /// Fused `act(a + broadcast(bias))` where `bias`'s shape is a suffix of
    /// `a`'s — one tape node (and one backend pass) replacing
    /// [`Graph::add_bcast`] followed by the activation node, with
    /// bit-identical forward values and gradients.
    pub fn bias_act(&mut self, a: Var, bias: Var, act: Activation) -> Var {
        let t = kernels::bias_act(self.value(a), self.value(bias), act);
        let rg = self.rg(a) || self.rg(bias);
        self.push(t, Op::BiasAct(a, bias, act), rg)
    }

    /// Apply an [`Activation`] as its unfused node ([`Graph::relu`] and
    /// friends); `Identity` is a no-op returning `a` itself.
    pub fn activation(&mut self, a: Var, act: Activation) -> Var {
        match act {
            Activation::Identity => a,
            Activation::Relu => self.relu(a),
            Activation::Sigmoid => self.sigmoid(a),
            Activation::Tanh => self.tanh(a),
        }
    }

    /// Fused `softmax_last(a·scale + broadcast(mask))` — one tape node
    /// replacing [`Graph::scale`] → mask add → [`Graph::softmax_last`],
    /// with bit-identical forward values and gradients. `mask`'s shape
    /// (when present) must be a suffix of `a`'s shape.
    pub fn scaled_masked_softmax(&mut self, a: Var, scale: f32, mask: Option<Var>) -> Var {
        let t = kernels::scaled_masked_softmax(self.value(a), scale, mask.map(|mv| self.value(mv)));
        let rg = self.rg(a) || mask.is_some_and(|mv| self.rg(mv));
        self.push(t, Op::ScaledMaskedSoftmax(a, mask, scale), rg)
    }

    /// Layer normalisation over the last dimension, with learnable scale
    /// `gamma` and shift `beta` (both of the last-dimension length).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let t = kernels::layer_norm(self.value(x), self.value(gamma), self.value(beta));
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push(t, Op::LayerNorm(x, gamma, beta), rg)
    }

    // ----- reductions / shape ----------------------------------------------

    /// Sum of all elements (shape `[1]`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = Tensor::scalar(self.value(a).sum());
        let rg = self.rg(a);
        self.push(t, Op::SumAll(a), rg)
    }

    /// Mean of all elements (shape `[1]`).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len() as f32;
        let t = Tensor::scalar(self.value(a).sum() / n);
        let rg = self.rg(a);
        self.push(t, Op::MeanAll(a), rg)
    }

    /// Sum over the last dimension, dropping it (`[B]` stays `[1]`-safe).
    pub fn sum_last(&mut self, a: Var) -> Var {
        let t = kernels::sum_last(self.value(a));
        let rg = self.rg(a);
        self.push(t, Op::SumLast(a), rg)
    }

    /// Sum over the time axis: `B×T×d → B×d`.
    pub fn sum_time(&mut self, a: Var) -> Var {
        let t = kernels::sum_time(self.value(a));
        let rg = self.rg(a);
        self.push(t, Op::SumTime(a), rg)
    }

    /// Mean over the time axis: `B×T×d → B×d`.
    pub fn mean_time(&mut self, a: Var) -> Var {
        let t_len = self.value(a).dims3().1 as f32;
        let s = self.sum_time(a);
        self.scale(s, 1.0 / t_len)
    }

    /// Concatenate tensors along the last dimension (equal leading dims).
    pub fn concat_last(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_last of nothing");
        let vals: Vec<&Tensor> = parts.iter().map(|v| self.value(*v)).collect();
        let t = kernels::concat_last(&vals);
        let rg = parts.iter().any(|v| self.rg(*v));
        self.push(t, Op::ConcatLast(parts.to_vec()), rg)
    }

    /// Slice `[start, start+len)` of the last dimension.
    pub fn slice_last(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = kernels::slice_last(self.value(a), start, len);
        let rg = self.rg(a);
        self.push(t, Op::SliceLast(a, start, len), rg)
    }

    /// Slice `[start, start+len)` of the time axis of a `B×T×d` tensor.
    pub fn slice_time(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = kernels::slice_time(self.value(a), start, len);
        let rg = self.rg(a);
        self.push(t, Op::SliceTime(a, start, len), rg)
    }

    /// Select a single time step from `B×T×d`, yielding `B×d`.
    pub fn select_time(&mut self, a: Var, t_idx: usize) -> Var {
        let t = kernels::select_time(self.value(a), t_idx);
        let rg = self.rg(a);
        self.push(t, Op::SelectTime(a, t_idx), rg)
    }

    /// Stack `T` tensors of identical shape `B×d` into `B×T×d`.
    pub fn stack_time(&mut self, steps: &[Var]) -> Var {
        assert!(!steps.is_empty(), "stack_time of nothing");
        let vals: Vec<&Tensor> = steps.iter().map(|v| self.value(*v)).collect();
        let t = kernels::stack_time(&vals);
        let rg = steps.iter().any(|v| self.rg(*v));
        self.push(t, Op::StackTime(steps.to_vec()), rg)
    }

    /// Gather rows of a `V×d` embedding table, yielding `N×d`.
    pub fn embedding(&mut self, weight: Var, indices: &[usize]) -> Var {
        let t = kernels::gather_rows(self.value(weight), indices);
        let rg = self.rg(weight);
        self.push(t, Op::Embedding(weight, indices.to_vec()), rg)
    }

    /// For a `B×V` tensor, pick `a[i, idx[i]]` per row, yielding shape `[B]`.
    pub fn pick_per_row(&mut self, a: Var, idx: &[usize]) -> Var {
        let t = kernels::pick_per_row(self.value(a), idx);
        let rg = self.rg(a);
        self.push(t, Op::PickPerRow(a, idx.to_vec()), rg)
    }

    /// Reinterpret under a new shape with equal element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let t = self.value(a).clone().reshaped(shape);
        let rg = self.rg(a);
        self.push(t, Op::Reshape(a), rg)
    }

    /// Inverted dropout at rate `p`, its mask drawn from `rng`
    /// ([`Rng::dropout_mask`]); `p == 0` returns `a` and draws nothing.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut Rng) -> Var {
        if p == 0.0 {
            return a;
        }
        let mask = rng.dropout_mask(self.value(a).len(), p);
        self.dropout_with_mask(a, mask)
    }

    /// Inverted dropout with keep-prob scaling; `mask[i] ∈ {0, 1/(1-p)}`.
    pub fn dropout_with_mask(&mut self, a: Var, mask: Vec<f32>) -> Var {
        assert_eq!(mask.len(), self.value(a).len(), "dropout mask length");
        let t = {
            let v = self.value(a);
            let mut data = pool::take(v.len());
            for ((o, &x), &m) in data.iter_mut().zip(v.data()).zip(mask.iter()) {
                *o = x * m;
            }
            Tensor::new(data, v.shape())
        };
        let rg = self.rg(a);
        self.push(t, Op::Dropout(a, mask), rg)
    }

    /// Repeat every element `n` times along a new last axis (`S → S×n`,
    /// e.g. a per-row scalar `[B]` broadcast to `B×n`); backward is
    /// [`Graph::sum_last`]'s forward.
    pub fn expand_last(&mut self, a: Var, n: usize) -> Var {
        let t = kernels::expand_last(self.value(a), n);
        let rg = self.rg(a);
        self.push(t, Op::ExpandLast(a), rg)
    }

    /// One direction of an LSTM over `x` (`B×T×d`) as a single tape node,
    /// returning every hidden state (`B×T×h`, aligned to input positions;
    /// `reversed` runs the recurrence right to left). `wx` (`d×4h`), `u`
    /// (`h×4h`) and `b` (`[4h]`) hold the input, forget, output and
    /// candidate gates side by side.
    ///
    /// Forward values are bit-equal to the per-timestep chain of gate
    /// matmuls, adds and activations. Gradients are not — back-propagation
    /// through time runs inside the node on whole-sequence gemms — and are
    /// held to that chain by a relative bound instead (`backend_parity`).
    pub fn lstm_seq(&mut self, x: Var, wx: Var, u: Var, b: Var, reversed: bool) -> Var {
        let (t, saved) = kernels::lstm_seq(
            self.value(x),
            self.value(wx),
            self.value(u),
            self.value(b),
            reversed,
        );
        if !self.record {
            // Nothing will walk back through an inference graph.
            pool::recycle(saved);
            return self.push(t, Op::Leaf, false);
        }
        let rg = self.rg(x) || self.rg(wx) || self.rg(u) || self.rg(b);
        let op = Op::LstmSeq {
            x,
            wx,
            u,
            b,
            reversed,
            saved,
        };
        self.push(t, op, rg)
    }

    /// How many [`Graph::lstm_seq`] nodes the tape holds.
    pub fn lstm_seq_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::LstmSeq { .. }))
            .count()
    }

    /// Identity in value, but blocks gradient flow.
    pub fn detach(&mut self, a: Var) -> Var {
        let t = self.value(a).clone();
        self.push(t, Op::Detach, false)
    }

    // ----- backward ---------------------------------------------------------

    /// Back-propagate from a scalar `loss` node, returning per-node gradients.
    ///
    /// Step loops should prefer [`Graph::backward_into`] with a reusable
    /// [`Gradients`] workspace; this convenience wrapper allocates a fresh
    /// workspace per call.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor, or if this is an
    /// inference graph (no tape to walk).
    pub fn backward(&self, loss: Var) -> Gradients {
        let mut ws = Gradients::new();
        self.backward_into(loss, &mut ws);
        ws
    }

    /// Back-propagate from a scalar `loss` node into a caller-owned,
    /// reusable [`Gradients`] workspace.
    ///
    /// Any stale entries in `ws` (from a previous step, even on a
    /// different tape length) are recycled into the pool and the slot
    /// table is resized to this graph before the sweep, so the results are
    /// bit-identical to a fresh [`Graph::backward`] call.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor, or if this is an
    /// inference graph (no tape to walk).
    pub fn backward_into(&self, loss: Var, ws: &mut Gradients) {
        assert!(self.record, "backward on an inference graph");
        assert_eq!(self.value(loss).len(), 1, "backward from non-scalar node");
        ws.reset_to(self.nodes.len());
        let grads = &mut ws.grads;
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for id in (0..=loss.0).rev() {
            let node = &self.nodes[id];
            if grads[id].is_none() || !node.requires_grad {
                if let Some(t) = grads[id].take() {
                    // A gradient reached a node that does not require one
                    // (e.g. below a detach); recycle rather than drop it.
                    pool::recycle(t.into_data());
                }
                continue;
            }
            if matches!(node.op, Op::Leaf) {
                // Keep leaf (parameter) gradients for the caller.
                continue;
            }
            let gout = grads[id].take().expect("checked above");
            self.backprop_node(node, &gout, grads);
            pool::recycle(gout.into_data());
        }
    }

    fn accum(&self, grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
        if !self.rg(v) {
            pool::recycle(g.into_data());
            return;
        }
        match &mut grads[v.0] {
            Some(acc) => {
                acc.add_assign(&g);
                pool::recycle(g.into_data());
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Graph::accum`] for a kernel that computed only the gradients its
    /// `need` flags (`rg` of each input) asked for.
    fn accum_requested<const N: usize>(
        &self,
        grads: &mut [Option<Tensor>],
        inputs: [Var; N],
        gs: [Option<Tensor>; N],
    ) {
        for (v, g) in inputs.into_iter().zip(gs) {
            if let Some(g) = g {
                self.accum(grads, v, g);
            }
        }
    }

    fn backprop_node(&self, node: &Node, gout: &Tensor, grads: &mut [Option<Tensor>]) {
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accum(grads, *a, gout.clone());
                self.accum(grads, *b, gout.clone());
            }
            Op::Sub(a, b) => {
                self.accum(grads, *a, gout.clone());
                self.accum(grads, *b, gout.map(|x| -x));
            }
            Op::Mul(a, b) => {
                if self.rg(*a) {
                    self.accum(grads, *a, kernels::zip(gout, self.value(*b), |g, y| g * y));
                }
                if self.rg(*b) {
                    self.accum(grads, *b, kernels::zip(gout, self.value(*a), |g, x| g * x));
                }
            }
            Op::Div(a, b) => {
                let bv = self.value(*b);
                if self.rg(*a) {
                    self.accum(grads, *a, kernels::zip(gout, bv, |g, y| g / y));
                }
                if self.rg(*b) {
                    let av = self.value(*a);
                    let mut g = Tensor::zeros(bv.shape());
                    for i in 0..g.len() {
                        g.data_mut()[i] =
                            -gout.data()[i] * av.data()[i] / (bv.data()[i] * bv.data()[i]);
                    }
                    self.accum(grads, *b, g);
                }
            }
            Op::AddBcast(a, b) => {
                self.accum(grads, *a, gout.clone());
                if self.rg(*b) {
                    self.accum(
                        grads,
                        *b,
                        kernels::reduce_to_suffix(gout, self.value(*b).shape()),
                    );
                }
            }
            Op::MulBcast(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                if self.rg(*a) {
                    self.accum(grads, *a, kernels::bcast_zip(gout, bv, |g, y| g * y));
                }
                if self.rg(*b) {
                    let prod = kernels::zip(gout, av, |g, x| g * x);
                    self.accum(grads, *b, kernels::reduce_to_suffix(&prod, bv.shape()));
                }
            }
            Op::Scale(a, c) => self.accum(grads, *a, gout.map(|g| g * c)),
            Op::AddScalar(a) => self.accum(grads, *a, gout.clone()),
            Op::Exp(a) => {
                self.accum(grads, *a, kernels::zip(gout, &node.value, |g, y| g * y));
            }
            Op::Ln(a) => {
                let av = self.value(*a);
                self.accum(
                    grads,
                    *a,
                    kernels::zip(gout, av, |g, x| g / x.max(LN_CLAMP)),
                );
            }
            Op::Sigmoid(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::zip(gout, &node.value, |g, y| g * y * (1.0 - y)),
                );
            }
            Op::Tanh(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::zip(gout, &node.value, |g, y| g * (1.0 - y * y)),
                );
            }
            Op::Relu(a) => {
                let av = self.value(*a);
                self.accum(
                    grads,
                    *a,
                    kernels::zip(gout, av, |g, x| if x > 0.0 { g } else { 0.0 }),
                );
            }
            Op::Sqrt(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::zip(
                        gout,
                        &node.value,
                        |g, y| if y > 0.0 { g / (2.0 * y) } else { 0.0 },
                    ),
                );
            }
            Op::Max2(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                if self.rg(*a) {
                    let mut g = Tensor::zeros(av.shape());
                    for i in 0..g.len() {
                        if av.data()[i] >= bv.data()[i] {
                            g.data_mut()[i] = gout.data()[i];
                        }
                    }
                    self.accum(grads, *a, g);
                }
                if self.rg(*b) {
                    let mut g = Tensor::zeros(bv.shape());
                    for i in 0..g.len() {
                        if bv.data()[i] > av.data()[i] {
                            g.data_mut()[i] = gout.data()[i];
                        }
                    }
                    self.accum(grads, *b, g);
                }
            }
            Op::Matmul(a, b) => {
                let inputs = [*a, *b];
                let gs = kernels::matmul_backward(
                    self.value(*a),
                    self.value(*b),
                    gout,
                    inputs.map(|v| self.rg(v)),
                );
                self.accum_requested(grads, inputs, gs);
            }
            Op::Spmm(a, x) => self.accum(grads, *x, kernels::spmm_backward(a, gout)),
            Op::TransposeLast(a) => {
                self.accum(grads, *a, kernels::transpose_last(gout));
            }
            Op::SoftmaxLast(a) => {
                self.accum(grads, *a, kernels::softmax_last_backward(&node.value, gout));
            }
            Op::LogSoftmaxLast(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::log_softmax_last_backward(&node.value, gout),
                );
            }
            Op::CatalogueCe { h, table, saved } => {
                let inputs = [*h, *table];
                let gs = kernels::catalogue_ce_backward(
                    self.value(*h),
                    self.value(*table),
                    saved,
                    gout.item(),
                    inputs.map(|v| self.rg(v)),
                );
                self.accum_requested(grads, inputs, gs);
            }
            Op::SoftmaxCe(a, saved) => {
                self.accum(grads, *a, kernels::softmax_ce_backward(saved, gout.item()));
            }
            Op::BiasAct(a, bias, act) => {
                // Gradient through the activation via the fused output,
                // then the AddBcast split — the exact unfused chain.
                let gact = kernels::act_backward(gout, &node.value, *act);
                if self.rg(*bias) {
                    self.accum(
                        grads,
                        *bias,
                        kernels::reduce_to_suffix(&gact, self.value(*bias).shape()),
                    );
                }
                self.accum(grads, *a, gact);
            }
            Op::ScaledMaskedSoftmax(a, mask, scale) => {
                // Softmax backward, then the unfused chain's mask-add split
                // (clone for a same-shape add, suffix reduction for a
                // broadcast add) and the scale backward.
                let gs = kernels::softmax_last_backward(&node.value, gout);
                if let Some(mv) = mask {
                    if self.rg(*mv) {
                        let mshape = self.value(*mv).shape();
                        let gm = if mshape == gs.shape() {
                            gs.clone()
                        } else {
                            kernels::reduce_to_suffix(&gs, mshape)
                        };
                        self.accum(grads, *mv, gm);
                    }
                }
                let c = *scale;
                self.accum(grads, *a, gs.map(|g| g * c));
                pool::recycle(gs.into_data());
            }
            Op::LayerNorm(x, gamma, beta) => {
                let (gx, gg, gb) =
                    kernels::layer_norm_backward(self.value(*x), self.value(*gamma), gout);
                if self.rg(*x) {
                    self.accum(grads, *x, gx);
                }
                if self.rg(*gamma) {
                    self.accum(grads, *gamma, gg);
                }
                if self.rg(*beta) {
                    self.accum(grads, *beta, gb);
                }
            }
            Op::SumAll(a) => {
                let g = gout.item();
                self.accum(grads, *a, Tensor::full(self.value(*a).shape(), g));
            }
            Op::MeanAll(a) => {
                let n = self.value(*a).len() as f32;
                let g = gout.item() / n;
                self.accum(grads, *a, Tensor::full(self.value(*a).shape(), g));
            }
            Op::SumLast(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::sum_last_backward(self.value(*a).shape(), gout),
                );
            }
            Op::SumTime(a) => {
                self.accum(
                    grads,
                    *a,
                    kernels::sum_time_backward(self.value(*a).shape(), gout),
                );
            }
            Op::ConcatLast(parts) => {
                let shapes: Vec<&[usize]> = parts.iter().map(|v| self.value(*v).shape()).collect();
                let gs = kernels::concat_last_backward(&shapes, gout);
                for (v, g) in parts.iter().zip(gs) {
                    self.accum(grads, *v, g);
                }
            }
            Op::SliceLast(a, start, _len) => {
                self.accum(
                    grads,
                    *a,
                    kernels::slice_last_backward(self.value(*a).shape(), *start, gout),
                );
            }
            Op::SliceTime(a, start, _len) => {
                self.accum(
                    grads,
                    *a,
                    kernels::slice_time_backward(self.value(*a).shape(), *start, gout),
                );
            }
            Op::SelectTime(a, t) => {
                self.accum(
                    grads,
                    *a,
                    kernels::select_time_backward(self.value(*a).shape(), *t, gout),
                );
            }
            Op::StackTime(steps) => {
                for (t, v) in steps.iter().enumerate() {
                    if self.rg(*v) {
                        self.accum(grads, *v, kernels::select_time(gout, t));
                    }
                }
            }
            Op::Embedding(w, idx) => {
                if self.rg(*w) {
                    self.accum(
                        grads,
                        *w,
                        kernels::scatter_rows(self.value(*w).shape(), idx, gout),
                    );
                }
            }
            Op::PickPerRow(a, idx) => {
                let shape = self.value(*a).shape();
                let mut g = Tensor::zeros(shape);
                let cols = shape[1];
                for (i, &j) in idx.iter().enumerate() {
                    g.data_mut()[i * cols + j] = gout.data()[i];
                }
                self.accum(grads, *a, g);
            }
            Op::Reshape(a) => {
                let ash = self.value(*a).shape().to_vec();
                self.accum(grads, *a, gout.clone().reshaped(&ash));
            }
            Op::Dropout(a, mask) => {
                let mut data = pool::take(gout.len());
                for ((o, &g), &m) in data.iter_mut().zip(gout.data()).zip(mask.iter()) {
                    *o = g * m;
                }
                self.accum(grads, *a, Tensor::new(data, gout.shape()));
            }
            Op::ExpandLast(a) => self.accum(grads, *a, kernels::sum_last(gout)),
            Op::LstmSeq {
                x,
                wx,
                u,
                b,
                reversed,
                saved,
            } => {
                let inputs = [*x, *wx, *u, *b];
                let gs = kernels::lstm_seq_backward(
                    self.value(*x),
                    self.value(*wx),
                    self.value(*u),
                    &node.value,
                    saved,
                    gout,
                    *reversed,
                    inputs.map(|v| self.rg(v)),
                );
                self.accum_requested(grads, inputs, gs);
            }
            Op::Detach => {}
        }
    }
}

/// Return the buffers an op owns beside its node's value to the pool.
fn recycle_op(op: Op) {
    match op {
        Op::Dropout(_, buf) | Op::LstmSeq { saved: buf, .. } => pool::recycle(buf),
        Op::CatalogueCe { saved, .. } | Op::SoftmaxCe(_, saved) => saved.recycle(),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d loss / d x[i]` for every input
    /// element, against the autograd gradient.
    fn check_grad(build: impl Fn(&mut Graph, Var) -> Var, x0: Tensor, tol: f32) {
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let loss = build(&mut g, x);
        let grads = g.backward(loss);
        let analytic = grads.get(x).expect("no grad").clone();

        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut xp = x0.clone();
            xp.data_mut()[i] += eps;
            let mut gp = Graph::new();
            let vp = gp.param(xp);
            let lp_var = build(&mut gp, vp);
            let lp = gp.value(lp_var).item();

            let mut xm = x0.clone();
            xm.data_mut()[i] -= eps;
            let mut gm = Graph::new();
            let vm = gm.param(xm);
            let lm_var = build(&mut gm, vm);
            let lm = gm.value(lm_var).item();

            let num = (lp - lm) / (2.0 * eps);
            let ana = analytic.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::new(v.to_vec(), s)
    }

    #[test]
    fn grad_add_mul_chain() {
        check_grad(
            |g, x| {
                let y = g.mul(x, x);
                let z = g.add(y, x);
                g.sum_all(z)
            },
            t(&[0.5, -1.2, 2.0], &[3]),
            1e-2,
        );
    }

    #[test]
    fn grad_div() {
        check_grad(
            |g, x| {
                let c = g.constant(t(&[2.0, 4.0, -3.0], &[3]));
                let q = g.div(x, c);
                let q2 = g.div(c, x);
                let s = g.add(q, q2);
                g.sum_all(s)
            },
            t(&[1.5, -2.0, 0.7], &[3]),
            2e-2,
        );
    }

    #[test]
    fn grad_activations() {
        check_grad(
            |g, x| {
                let a = g.sigmoid(x);
                let b = g.tanh(x);
                let c = g.relu(x);
                let e = g.exp(x);
                let ab = g.add(a, b);
                let ce = g.add(c, e);
                let s = g.add(ab, ce);
                g.sum_all(s)
            },
            t(&[0.3, -0.8, 1.1, 0.01], &[4]),
            1e-2,
        );
    }

    #[test]
    fn grad_ln_sqrt() {
        check_grad(
            |g, x| {
                let l = g.ln(x);
                let s = g.sqrt(x);
                let y = g.add(l, s);
                g.sum_all(y)
            },
            t(&[0.5, 1.5, 3.0], &[3]),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_2x2() {
        let b0 = t(&[1.0, -2.0, 0.5, 3.0, 1.0, -1.0], &[3, 2]);
        check_grad(
            move |g, x| {
                let b = g.param(b0.clone());
                let y = g.matmul(x, b);
                g.sum_all(y)
            },
            t(&[0.2, 0.4, -0.6, 1.0, 2.0, -1.0], &[2, 3]),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_batched() {
        let b0 = t(
            &(0..12).map(|i| 0.1 * i as f32 - 0.5).collect::<Vec<_>>(),
            &[2, 3, 2],
        );
        check_grad(
            move |g, x| {
                let b = g.param(b0.clone());
                let y = g.matmul(x, b);
                g.sum_all(y)
            },
            t(
                &(0..12).map(|i| 0.05 * i as f32).collect::<Vec<_>>(),
                &[2, 2, 3],
            ),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_mixed_3x2() {
        let b0 = t(&[0.5, -0.2, 0.1, 0.9, -1.0, 0.3], &[3, 2]);
        check_grad(
            move |g, x| {
                let b = g.param(b0.clone());
                let y = g.matmul(x, b); // (2,2,3)x(3,2)
                g.sum_all(y)
            },
            t(
                &(0..12).map(|i| 0.07 * i as f32 - 0.3).collect::<Vec<_>>(),
                &[2, 2, 3],
            ),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_mixed_2x3() {
        // lhs 2-D broadcast over the rhs batch.
        let x0 = t(&[0.3, -0.1, 0.2, 0.5, 0.7, -0.4], &[2, 3]);
        check_grad(
            move |g, x| {
                let b = g.constant(t(
                    &(0..18).map(|i| 0.05 * i as f32 - 0.4).collect::<Vec<_>>(),
                    &[3, 3, 2],
                ));
                let y = g.matmul(x, b); // (2,3)x(3,3,2) -> (3,2,2)
                g.sum_all(y)
            },
            x0,
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_logsoftmax() {
        check_grad(
            |g, x| {
                let s = g.softmax_last(x);
                let l = g.log_softmax_last(x);
                let w = g.constant(t(&[1.0, -2.0, 0.5, 0.3, 2.0, -0.7], &[2, 3]));
                let sw = g.mul(s, w);
                let lw = g.mul(l, w);
                let y = g.add(sw, lw);
                g.sum_all(y)
            },
            t(&[0.1, 0.9, -0.5, 1.2, 0.0, 0.4], &[2, 3]),
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let gamma0 = t(&[1.2, 0.8, 1.0], &[3]);
        let beta0 = t(&[0.1, -0.2, 0.0], &[3]);
        check_grad(
            move |g, x| {
                let gamma = g.param(gamma0.clone());
                let beta = g.param(beta0.clone());
                let y = g.layer_norm(x, gamma, beta);
                let w = g.constant(t(&[1.0, -1.0, 0.5, 0.2, 0.7, -0.3], &[2, 3]));
                let yw = g.mul(y, w);
                g.sum_all(yw)
            },
            t(&[0.5, -0.1, 0.8, 1.0, 2.0, -0.5], &[2, 3]),
            3e-2,
        );
    }

    #[test]
    fn grad_bcast_ops() {
        let b0 = t(&[0.5, -0.3], &[2]);
        check_grad(
            move |g, x| {
                let b = g.param(b0.clone());
                let y = g.add_bcast(x, b);
                let z = g.mul_bcast(y, b);
                g.sum_all(z)
            },
            t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        check_grad(
            |g, x| {
                let a = g.slice_last(x, 0, 2);
                let b = g.slice_last(x, 2, 2);
                let c = g.concat_last(&[b, a]);
                let sq = g.mul(c, c);
                g.sum_all(sq)
            },
            t(&[1.0, -2.0, 3.0, 0.5, 0.1, 0.2, 0.3, 0.4], &[2, 4]),
            1e-2,
        );
    }

    #[test]
    fn grad_expand_last() {
        check_grad(
            |g, x| {
                let wide = g.expand_last(x, 3); // 2×2×3
                assert_eq!(g.value(wide).shape(), &[2, 2, 3]);
                let w = g.constant(t(
                    &(0..12).map(|i| 0.3 * i as f32 - 1.5).collect::<Vec<_>>(),
                    &[2, 2, 3],
                ));
                let y = g.mul(wide, w);
                let sq = g.mul(y, wide);
                g.sum_all(sq)
            },
            t(&[0.5, -1.2, 2.0, 0.7], &[2, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_time_ops() {
        check_grad(
            |g, x| {
                let s0 = g.select_time(x, 0);
                let s1 = g.select_time(x, 1);
                let restacked = g.stack_time(&[s1, s0]);
                let st = g.sum_time(restacked);
                let sq = g.mul(st, st);
                g.sum_all(sq)
            },
            t(
                &(0..12).map(|i| 0.3 * i as f32 - 1.0).collect::<Vec<_>>(),
                &[2, 2, 3],
            ),
            1e-2,
        );
    }

    #[test]
    fn grad_embedding_pick() {
        check_grad(
            |g, w| {
                let e = g.embedding(w, &[2, 0, 2]);
                let sq = g.mul(e, e);
                g.sum_all(sq)
            },
            t(
                &(0..8).map(|i| 0.25 * i as f32 - 1.0).collect::<Vec<_>>(),
                &[4, 2],
            ),
            1e-2,
        );
        check_grad(
            |g, x| {
                let p = g.pick_per_row(x, &[1, 0]);
                let sq = g.mul(p, p);
                g.sum_all(sq)
            },
            t(&[0.3, -0.4, 0.9, 1.5], &[2, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_transpose_and_reshape() {
        check_grad(
            |g, x| {
                let xt = g.transpose_last(x);
                let y = g.matmul(x, xt);
                let r = g.reshape(y, &[4]);
                let sq = g.mul(r, r);
                g.sum_all(sq)
            },
            t(&[0.3, 0.7, -0.2, 0.5, 1.0, -0.8], &[2, 3]),
            2e-2,
        );
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 2.0], &[2]));
        let d = g.detach(x);
        let y = g.mul(d, d);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_none(), "gradient leaked through detach");
    }

    #[test]
    fn straight_through_passes_gradient() {
        // out = hard - detach(soft) + soft ⇒ d out/d soft = identity.
        let mut g = Graph::new();
        let x = g.param(t(&[0.2, 0.8], &[2]));
        let soft = g.softmax_last(x);
        let hard = g.constant(t(&[0.0, 1.0], &[2]));
        let det = g.detach(soft);
        let hm = g.sub(hard, det);
        let out = g.add(hm, soft);
        let w = g.constant(t(&[1.0, 3.0], &[2]));
        let ow = g.mul(out, w);
        let loss = g.sum_all(ow);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_some());
    }

    #[test]
    fn grad_max2_routing() {
        let mut g = Graph::new();
        let a = g.param(t(&[1.0, 5.0], &[2]));
        let b = g.param(t(&[3.0, 2.0], &[2]));
        let m = g.max2(a, b);
        let loss = g.sum_all(m);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[0.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn dropout_mask_applies_in_both_directions() {
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 2.0, 3.0], &[3]));
        let y = g.dropout_with_mask(x, vec![2.0, 0.0, 2.0]);
        assert_eq!(g.value(y).data(), &[2.0, 0.0, 6.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn mean_all_grad_is_uniform() {
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 2.0, 3.0, 4.0], &[4]));
        let m = g.mean_all(x);
        let grads = g.backward(m);
        assert_eq!(grads.get(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // loss = sum(x) + sum(x) must give gradient 2 everywhere.
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 1.0], &[2]));
        let s1 = g.sum_all(x);
        let s2 = g.sum_all(x);
        let loss = g.add(s1, s2);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn grad_slice_time() {
        check_grad(
            |g, x| {
                let mid = g.slice_time(x, 1, 2);
                let sq = g.mul(mid, mid);
                g.sum_all(sq)
            },
            t(
                &(0..18).map(|i| 0.2 * i as f32 - 1.0).collect::<Vec<_>>(),
                &[2, 3, 3],
            ),
            1e-2,
        );
    }

    #[test]
    fn inference_matches_recording_bitwise() {
        let build = |g: &mut Graph| {
            let x = g.param(t(&[0.3, -1.2, 0.8, 2.0, -0.5, 0.1], &[2, 3]));
            let w = g.constant(t(
                &(0..9).map(|i| 0.1 * i as f32 - 0.4).collect::<Vec<_>>(),
                &[3, 3],
            ));
            let y = g.matmul(x, w);
            let s = g.softmax_last(y);
            let l = g.ln(s);
            let z = g.tanh(l);
            g.value(z).data().to_vec()
        };
        let mut rec = Graph::new();
        let mut inf = Graph::inference();
        assert_eq!(build(&mut rec), build(&mut inf));
        assert!(rec.is_recording() && !inf.is_recording());
    }

    #[test]
    fn inference_truncate_keeps_leaves_valid() {
        let mut g = Graph::inference();
        let w = g.param(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let mark = g.mark();
        for _ in 0..3 {
            g.truncate(mark);
            let y = g.matmul(w, w);
            assert_eq!(g.value(y).data(), &[7.0, 10.0, 15.0, 22.0]);
            assert_eq!(g.mark(), mark + 1, "one activation node per pass");
        }
        assert_eq!(g.value(w).data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "backward on an inference graph")]
    fn inference_backward_panics() {
        let mut g = Graph::inference();
        let x = g.param(t(&[1.0], &[1]));
        let y = g.mul(x, x);
        g.backward(y);
    }

    #[test]
    fn reset_then_rebuild_is_bit_identical() {
        let build = |g: &mut Graph| -> (Vec<f32>, Vec<f32>) {
            let x = g.param(t(&[0.3, -1.2, 0.8, 2.0], &[2, 2]));
            let w = g.constant(t(&[0.5, -0.1, 0.2, 0.9], &[2, 2]));
            let y = g.matmul(x, w);
            let s = g.softmax_last(y);
            let l = g.ln(s);
            let loss = g.sum_all(l);
            let grads = g.backward(loss);
            (
                g.value(loss).data().to_vec(),
                grads.get(x).unwrap().data().to_vec(),
            )
        };
        let mut fresh = Graph::new();
        let want = build(&mut fresh);

        let mut reused = Graph::new();
        for _ in 0..3 {
            reused.reset();
            let got = build(&mut reused);
            assert_eq!(
                got.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                got.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reset_preserves_capacity_and_high_water() {
        let mut g = Graph::new();
        for i in 0..10 {
            let x = g.param(t(&[i as f32], &[1]));
            g.mul(x, x);
        }
        assert_eq!(g.high_water(), 20);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.high_water(), 20, "high-water mark survives reset");
        assert!(g.is_recording());
        let x = g.param(t(&[1.0], &[1]));
        assert_eq!(x.id(), 0, "node ids restart at 0 after reset");
    }

    #[test]
    fn backward_into_reuses_workspace_across_tape_sizes() {
        let mut ws = Gradients::new();

        // Big graph first so the workspace grows.
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 2.0, 3.0, 4.0], &[4]));
        let mut y = g.mul(x, x);
        for _ in 0..5 {
            y = g.add(y, x);
        }
        let loss = g.sum_all(y);
        g.backward_into(loss, &mut ws);
        let big_len = ws.len();
        assert!(ws.get(x).is_some());

        // Smaller graph into the same workspace: table shrinks, stale
        // high-id entries are gone, result matches a fresh backward.
        g.reset();
        let x2 = g.param(t(&[0.5, -1.5], &[2]));
        let y2 = g.mul(x2, x2);
        let loss2 = g.sum_all(y2);
        g.backward_into(loss2, &mut ws);
        assert!(ws.len() < big_len, "workspace resized to the live tape");
        assert_eq!(ws.len(), g.len());
        assert_eq!(ws.get(x2).unwrap().data(), &[1.0, -3.0]);
        // An id from the dead tape is out of bounds now, not stale data.
        assert!(ws.get(Var(ws.len() + 1)).is_none());
    }

    #[test]
    fn gradients_clear_empties_table() {
        let mut g = Graph::new();
        let x = g.param(t(&[2.0], &[1]));
        let y = g.mul(x, x);
        let mut ws = g.backward(y);
        assert!(ws.get(x).is_some());
        ws.clear();
        assert!(ws.is_empty());
        assert!(ws.get(x).is_none());
    }

    #[test]
    fn truncate_recycles_and_keeps_lower_nodes() {
        let mut g = Graph::new();
        let x = g.param(t(&[1.0, 2.0], &[2]));
        let mark = g.mark();
        for _ in 0..4 {
            let y = g.mul(x, x);
            let loss = g.sum_all(y);
            let grads = g.backward(loss);
            assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0]);
            g.truncate(mark);
            assert_eq!(g.value(x).data(), &[1.0, 2.0], "below-mark value intact");
        }
    }

    #[test]
    fn grad_sum_last_3d() {
        check_grad(
            |g, x| {
                let s = g.sum_last(x); // B×T
                let sq = g.mul(s, s);
                g.sum_all(sq)
            },
            t(
                &(0..12).map(|i| 0.1 * i as f32).collect::<Vec<_>>(),
                &[2, 3, 2],
            ),
            1e-2,
        );
    }
}
