//! `dbcopilot-nn` — the neural substrate for the DBCopilot reproduction.
//!
//! The paper's schema router is a T5-base differentiable search index; this
//! crate provides the minimal machinery to train an equivalent (much smaller)
//! seq2seq model from scratch, offline, in pure Rust:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` matrices with cheap clones;
//! * [`tape::Tape`] — reverse-mode autodiff with sparse embedding gradients;
//! * [`layers`] — `Linear`, `Embedding`, `GruCell`, each with a tape-free
//!   inference path for beam search;
//! * [`optim`] — `ParamStore`, `AdamW` (lazy sparse updates);
//! * [`math`] — first-party `exp` / `sigmoid` / `tanh` / `ln`, scalar and
//!   AVX2 bit-identical;
//! * [`init`] — seeded Xavier initialization;
//! * `gradcheck` (test-only) — finite-difference validation of this crate's
//!   backward implementations;
//! * [`quant`] — read-only per-row i8 quantization of a frozen `ParamStore`
//!   with i32-accumulating dot/matvec kernels for the serving hot path;
//! * [`codec`] — the `DBC1` binary container (compact, versioned, bit-exact);
//! * [`serialize`] — persistence entry points over that one format.
//!
//! ```
//! use dbcopilot_nn::tensor::Tensor;
//!
//! let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(t.shape(), (2, 2));
//! assert_eq!(t.get(1, 0), 3.0);
//! ```

pub mod codec;
#[cfg(test)]
mod gradcheck;
pub mod init;
pub mod layers;
pub mod math;
pub mod optim;
#[cfg(test)]
mod oracle;
pub mod quant;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use layers::{Embedding, GruCell, GruScratch, Linear};
pub use optim::{AdamW, GradShard, Jobs, ParamId, ParamStore};
pub use quant::{QuantEntry, QuantizedMatrix, QuantizedStore, QuantizedVec};
pub use tape::{Grad, Tape, ValId};
pub use tensor::Tensor;
