//! # fae-nn — minimal CPU neural-network substrate
//!
//! The FAE paper trains recommendation models whose dense parts are plain
//! multi-layer perceptrons (plus an attention head in TBSM). This crate
//! provides the complete numeric substrate those models need, in pure Rust:
//!
//! * [`Tensor`] — a row-major 2-D `f32` matrix with the linear-algebra ops
//!   used by MLP training (matmul, transpose, broadcast bias, Hadamard),
//! * [`lanes`] — manually 8-wide unrolled `f32` kernels (`axpy`, `dot`,
//!   …) shared by the matmul inner loops, the interaction head, and the
//!   sparse-embedding update path (DESIGN.md §14),
//! * [`layers`] — differentiable layers ([`layers::Linear`],
//!   [`layers::Relu`], [`layers::Sigmoid`]) with explicit forward/backward,
//! * [`Mlp`] — a sequential container mirroring the paper's
//!   `bottom MLP` / `top MLP` blocks,
//! * [`loss`] — binary cross-entropy (the click-through-rate objective of
//!   DLRM/TBSM) and MSE,
//! * [`gradcheck`] — finite-difference gradient checking used throughout
//!   the test suites.
//!
//! Everything is deterministic given a seed; the only threads are scoped ones
//! splitting large products' output rows (see [`tensor`]), bit-exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod gradcheck;
pub mod init;
pub mod lanes;
pub mod layers;
pub mod loss;
pub mod mlp;
pub mod tensor;

pub use layers::{Layer, Linear, Relu, Sigmoid};
pub use loss::{bce_loss, bce_loss_backward, mse_loss, mse_loss_backward};
pub use mlp::{Activation, Mlp};
pub use tensor::Tensor;
