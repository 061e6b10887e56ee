//! Recurrent layers: GRU (GRU4Rec, NARM) and LSTM / Bi-LSTM (SSDRec's
//! context-aware encoder, paper Eq. 9 and Eq. 12).
//!
//! The GRU is unrolled on the tape step by step. An LSTM direction is one
//! tape node, [`Graph::lstm_seq`]: the whole recurrence runs inside it on
//! gate-packed weights — one input gemm for every timestep, one recurrent
//! gemm and one fused gate pass per step — and back-propagation through
//! time happens inside the node's backward. The gate and BPTT passes are
//! compiled per instruction set and run a register's worth of hidden units
//! at once, each lane the scalar [`crate::math::lstm_cell`]. Its forward
//! values are bit-equal to the unrolled per-gate chain (kept as the oracle
//! in `tests/backend_parity.rs`) in every build; its gradients agree with
//! that chain to rounding, not to the bit. Parameters stay twelve
//! separately named tensors per direction, packed by `concat_last` nodes on
//! every call, so checkpoints keep their names, shapes and byte layout.

use crate::graph::{Graph, Var};
use crate::optim::{Binding, ParamStore};
use crate::rng::Rng;
use crate::tensor::Tensor;

use super::linear::Linear;

/// One GRU step.
pub struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
    hidden: usize,
}

impl GruCell {
    /// A new cell mapping `in_dim` inputs to `hidden` state units.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        GruCell {
            wz: Linear::new(store, &format!("{name}.wz"), in_dim, hidden, rng),
            uz: Linear::new_no_bias(store, &format!("{name}.uz"), hidden, hidden, rng),
            wr: Linear::new(store, &format!("{name}.wr"), in_dim, hidden, rng),
            ur: Linear::new_no_bias(store, &format!("{name}.ur"), hidden, hidden, rng),
            wh: Linear::new(store, &format!("{name}.wh"), in_dim, hidden, rng),
            uh: Linear::new_no_bias(store, &format!("{name}.uh"), hidden, hidden, rng),
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// `h' = (1−z)⊙h + z⊙ĥ` for input `x` (`B×in`) and state `h` (`B×hidden`).
    pub fn step(&self, g: &mut Graph, bind: &Binding, x: Var, h: Var) -> Var {
        let zx = self.wz.forward(g, bind, x);
        let zh = self.uz.forward(g, bind, h);
        let zs = g.add(zx, zh);
        let z = g.sigmoid(zs);

        let rx = self.wr.forward(g, bind, x);
        let rh = self.ur.forward(g, bind, h);
        let rs = g.add(rx, rh);
        let r = g.sigmoid(rs);

        let hx = self.wh.forward(g, bind, x);
        let rh2 = g.mul(r, h);
        let hh = self.uh.forward(g, bind, rh2);
        let hs = g.add(hx, hh);
        let hcand = g.tanh(hs);

        let one = g.constant(Tensor::ones(g.value(z).shape()));
        let omz = g.sub(one, z);
        let keep = g.mul(omz, h);
        let new = g.mul(z, hcand);
        g.add(keep, new)
    }
}

/// A unidirectional GRU over `B×T×in` sequences.
pub struct Gru {
    cell: GruCell,
}

impl Gru {
    /// A new GRU layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        Gru {
            cell: GruCell::new(store, &format!("{name}.cell"), in_dim, hidden, rng),
        }
    }

    /// Run over a full sequence; returns `(all_states B×T×hidden, last B×hidden)`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> (Var, Var) {
        let (b, t, _d) = g.value(x).dims3();
        let mut h = g.constant(Tensor::zeros(&[b, self.cell.hidden()]));
        let mut states = Vec::with_capacity(t);
        for ti in 0..t {
            let xt = g.select_time(x, ti);
            h = self.cell.step(g, bind, xt, h);
            states.push(h);
        }
        let all = g.stack_time(&states);
        (all, h)
    }
}

/// The parameters of one LSTM direction: per gate (input, forget, output,
/// candidate) an input projection with bias and a bias-free recurrent
/// projection — twelve tensors named `{name}.w{i,f,o,c}.{w,b}` and
/// `{name}.u{i,f,o,c}.w`.
pub struct LstmCell {
    wx: [Linear; 4],
    u: [Linear; 4],
    hidden: usize,
}

impl LstmCell {
    /// A new cell mapping `in_dim` inputs to `hidden` state units.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        // Registration order (w, then u, gate by gate) is the checkpoint
        // layout and the initialisation RNG order.
        let mut gate = |g: &str| {
            (
                Linear::new(store, &format!("{name}.w{g}"), in_dim, hidden, rng),
                Linear::new_no_bias(store, &format!("{name}.u{g}"), hidden, hidden, rng),
            )
        };
        let (wi, ui) = gate("i");
        let (wf, uf) = gate("f");
        let (wo, uo) = gate("o");
        let (wc, uc) = gate("c");
        LstmCell {
            wx: [wi, wf, wo, wc],
            u: [ui, uf, uo, uc],
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The gates side by side as [`Graph::lstm_seq`] takes them:
    /// `(Wx d×4h, U h×4h, b [4h])`. Packing is three `concat_last` nodes,
    /// whose backward splits the gradient columns back onto the twelve
    /// tensors.
    fn pack(&self, g: &mut Graph, bind: &Binding) -> (Var, Var, Var) {
        let wx = self.wx.each_ref().map(|l| bind.var(l.weight()));
        let u = self.u.each_ref().map(|l| bind.var(l.weight()));
        let b = self
            .wx
            .each_ref()
            .map(|l| bind.var(l.bias().expect("input projections carry the bias")));
        (g.concat_last(&wx), g.concat_last(&u), g.concat_last(&b))
    }
}

/// A unidirectional LSTM over `B×T×in` sequences.
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// A new LSTM layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        Lstm {
            cell: LstmCell::new(store, &format!("{name}.cell"), in_dim, hidden, rng),
        }
    }

    /// Run left→right; returns all hidden states `B×T×hidden`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        self.run(g, bind, x, false)
    }

    /// Run right→left, with outputs re-aligned to input positions.
    pub fn forward_reversed(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        self.run(g, bind, x, true)
    }

    fn run(&self, g: &mut Graph, bind: &Binding, x: Var, reversed: bool) -> Var {
        let (wx, u, b) = self.cell.pack(g, bind);
        g.lstm_seq(x, wx, u, b, reversed)
    }
}

/// The paper's context-aware encoder: a bi-directional LSTM whose two
/// directional state sequences `H^L` (left→right) and `H^R` (right→left) are
/// returned separately, as required by Eq. 9 (`H^L ⊙ H^R ⊙ H_S`).
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
}

impl BiLstm {
    /// A new Bi-LSTM with `hidden` units per direction.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(store, &format!("{name}.l"), in_dim, hidden, rng),
            bwd: Lstm::new(store, &format!("{name}.r"), in_dim, hidden, rng),
        }
    }

    /// Returns `(H^L, H^R)`, each `B×T×hidden`, aligned by position.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> (Var, Var) {
        let hl = self.fwd.forward(g, bind, x);
        let hr = self.bwd.forward_reversed(g, bind, x);
        (hl, hr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn seq_tensor(b: usize, t: usize, d: usize, f: impl Fn(usize, usize, usize) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(b * t * d);
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..d {
                    data.push(f(bi, ti, di));
                }
            }
        }
        Tensor::new(data, &[b, t, d])
    }

    #[test]
    fn gru_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(0);
        let gru = Gru::new(&mut store, "g", 3, 5, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(seq_tensor(2, 4, 3, |b, t, d| (b + t + d) as f32 * 0.1));
        let (all, last) = gru.forward(&mut g, &bind, x);
        assert_eq!(g.value(all).shape(), &[2, 4, 5]);
        assert_eq!(g.value(last).shape(), &[2, 5]);
    }

    #[test]
    fn lstm_reversed_aligns_positions() {
        // With a single time step, forward and reversed runs must agree.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(1);
        let lstm = Lstm::new(&mut store, "l", 2, 3, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(seq_tensor(1, 1, 2, |_, _, d| d as f32 + 0.5));
        let f = lstm.forward(&mut g, &bind, x);
        let r = lstm.forward_reversed(&mut g, &bind, x);
        assert_eq!(g.value(f).data(), g.value(r).data());
    }

    #[test]
    fn bilstm_directions_differ_on_asymmetric_input() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(2);
        let bi = BiLstm::new(&mut store, "bi", 2, 3, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x = g.constant(seq_tensor(1, 4, 2, |_, t, _| t as f32));
        let (hl, hr) = bi.forward(&mut g, &bind, x);
        assert_ne!(g.value(hl).data(), g.value(hr).data());
        assert_eq!(g.value(hl).shape(), &[1, 4, 3]);
    }

    /// A GRU must be able to learn to remember the first token of a sequence
    /// — a task a memoryless model cannot solve.
    #[test]
    fn gru_learns_first_token_recall() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(3);
        let gru = Gru::new(&mut store, "g", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        // Sequences [x, 0, 0, 0], target x.
        let xs = [0.9f32, -0.7, 0.3, -0.2];
        let mut final_loss = f32::INFINITY;
        for _ in 0..300 {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let mut data = Vec::new();
            for &x in &xs {
                data.extend_from_slice(&[x, 0.0, 0.0, 0.0]);
            }
            let x = g.constant(Tensor::new(data, &[4, 4, 1]));
            let (_, last) = gru.forward(&mut g, &bind, x);
            let pred = head.forward(&mut g, &bind, last);
            let target = g.constant(Tensor::new(xs.to_vec(), &[4, 1]));
            let d = g.sub(pred, target);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            final_loss = g.value(loss).item();
            let mut grads = g.backward(loss);
            opt.step(&mut store, &bind, &mut grads);
        }
        assert!(final_loss < 0.01, "loss {final_loss}");
    }

    #[test]
    fn lstm_gradient_flows_to_all_steps() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(4);
        let lstm = Lstm::new(&mut store, "l", 2, 3, &mut rng);
        let mut g = Graph::new();
        let bind = store.bind_all(&mut g);
        let x0 = seq_tensor(1, 5, 2, |_, t, d| (t * 2 + d) as f32 * 0.1);
        let x = g.param(x0);
        let out = lstm.forward(&mut g, &bind, x);
        let last = g.select_time(out, 4);
        let loss = g.sum_all(last);
        let grads = g.backward(loss);
        let gx = grads.get(x).expect("input grad");
        // Every timestep influences the last hidden state.
        for t in 0..5 {
            let slice = &gx.data()[t * 2..(t + 1) * 2];
            assert!(slice.iter().any(|&v| v != 0.0), "no grad at t={t}");
        }
    }
}
