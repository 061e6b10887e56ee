//! Neural-network layers built on the autograd [`Graph`](crate::graph::Graph).
//!
//! Layers own [`ParamRef`](crate::optim::ParamRef)s into a shared
//! [`ParamStore`](crate::optim::ParamStore); their `forward` methods take the
//! per-step graph and binding.

mod attention;
mod dft;
mod embedding;
mod gumbel;
mod linear;
mod rnn;

pub use attention::{causal_mask, padding_mask, FeedForward, MultiHeadAttention, TransformerBlock};
pub use dft::DftFilter;
pub use embedding::Embedding;
pub use gumbel::gumbel_softmax;
pub use linear::{LayerNorm, Linear};
pub use rnn::{BiLstm, Gru, GruCell, Lstm, LstmCell};
