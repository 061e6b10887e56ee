//! # ssdrec-tensor
//!
//! A compact, pure-Rust deep-learning substrate: dense `f32` tensors,
//! constant sparse (CSR) operators, a tape-based reverse-mode autograd
//! engine, standard neural layers (Linear, Embedding, GRU/LSTM/Bi-LSTM,
//! multi-head attention, transformer blocks, Gumbel-Softmax,
//! frequency-domain filtering) and the Adam optimizer.
//!
//! This crate exists because the SSDRec reproduction (ICDE 2024) needs a DL
//! framework and the Rust ecosystem does not ship one suited to this
//! workload; see `DESIGN.md` at the workspace root for the substitution
//! rationale. Gradients are verified against central finite differences:
//! each autograd op in the `graph` test module, each NN layer in
//! `tests/grad_layers.rs`. All randomness (init, dropout, Gumbel noise)
//! draws from [`Rng`], the workspace generator from `ssdrec-base`.
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
pub mod graph;
pub mod init;
pub mod kernels;
pub mod math;
pub mod nn;
pub mod optim;
pub mod persist;
pub mod pool;
pub mod sparse;
pub mod tensor;

pub use backend::Activation;
pub use graph::{Gradients, Graph, Var};
pub use optim::{Adam, Binding, ParamRef, ParamStore};
pub use persist::{load_params, save_params};
pub use sparse::CsrMatrix;
pub use ssdrec_base::Rng;
pub use tensor::Tensor;
