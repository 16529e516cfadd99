//! # fae-nn — minimal CPU neural-network substrate
//!
//! The FAE paper trains recommendation models whose dense parts are plain
//! multi-layer perceptrons (plus an attention head in TBSM). This crate
//! provides the complete numeric substrate those models need, in pure Rust:
//!
//! * [`Tensor`] — a row-major 2-D `f32` matrix with the linear-algebra ops
//!   used by MLP training (matmul and its transposed forms, transpose),
//! * [`lanes`] — manually 8-wide unrolled `f32` kernels (`axpy`,
//!   `block_dots`, …) shared by the matmul inner loops, the interaction head, and the
//!   sparse-embedding update path (DESIGN.md §14),
//! * [`Mlp`] — the paper's `bottom MLP` / `top MLP` blocks: linear layers
//!   with ReLU between them and a ReLU, sigmoid or no final activation,
//!   owning their parameters and an activation tape that is sized on the
//!   first batch and reused, so a steady-state step allocates nothing in
//!   them. [`Layer`] is its allocating `Tensor`-in, `Tensor`-out face,
//! * [`loss`] — binary cross-entropy (the click-through-rate objective of
//!   DLRM/TBSM) and MSE,
//! * [`gradcheck`] — finite-difference gradient checking used throughout
//!   the test suites.
//!
//! Everything is deterministic given a seed; large products split their
//! output rows across scoped threads (see [`tensor`]), bit-exact. Those
//! threads, and every other compute thread in the workspace, start in
//! [`cores::fan_out`], which gives each task its share of the cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod cores;
pub mod gradcheck;
pub mod init;
pub mod lanes;
pub mod loss;
pub mod mlp;
pub mod tensor;

pub use loss::{bce_loss, bce_loss_backward, mse_loss, mse_loss_backward};
pub use mlp::{Activation, Layer, Mlp};
pub use tensor::Tensor;
