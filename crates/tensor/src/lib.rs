//! # ssdrec-tensor
//!
//! A compact, pure-Rust deep-learning substrate: dense `f32` tensors,
//! constant sparse (CSR) operators, a tape-based reverse-mode autograd
//! engine, standard neural layers (Linear, Embedding, GRU/LSTM/Bi-LSTM,
//! multi-head attention, transformer blocks, Gumbel-Softmax,
//! frequency-domain filtering) and optimizers (Adam, SGD).
//!
//! This crate exists because the SSDRec reproduction (ICDE 2024) needs a DL
//! framework and the Rust ecosystem does not ship one suited to this
//! workload; see `DESIGN.md` at the workspace root for the substitution
//! rationale. Gradients are verified against central finite differences in
//! the `graph` test module.
//!
//! ## Quick example
//!
//! ```
//! use ssdrec_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.param(Tensor::new(vec![1.0, 2.0], &[2]));
//! let y = g.mul(x, x);           // y = x²
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0]); // dy/dx = 2x
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod gradtest;
pub mod graph;
pub mod init;
pub mod kernels;
pub mod math;
pub mod nn;
pub mod optim;
pub mod persist;
pub mod pool;
pub mod rng;
pub mod sparse;
pub mod tensor;

pub use backend::{
    backend_kind, set_backend, with_backend, with_each_backend, Activation, Backend, BackendKind,
};
pub use gradtest::fd_check_all_params;
pub use graph::{Gradients, Graph, Var};
pub use optim::{Adam, Binding, ParamRef, ParamStore, Sgd};
pub use persist::{load_params, save_params};
pub use rng::Rng;
pub use sparse::CsrMatrix;
pub use tensor::Tensor;
