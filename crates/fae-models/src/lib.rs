//! # fae-models — DLRM and TBSM on the fae-nn / fae-embed substrates
//!
//! Implements the two open-source recommendation models the paper trains
//! (Table I):
//!
//! * [`Dlrm`] — bottom MLP over dense features, per-table embedding bags,
//!   the pairwise dot-product feature interaction, and a sigmoid top MLP,
//! * [`Tbsm`] — the time-based sequence model: item/category behaviour
//!   sequences attended against a user+context query, on top of the same
//!   embedding machinery.
//!
//! Both models look up embeddings through the [`EmbeddingSource`] trait so
//! that exactly the same model code runs against the CPU master tables
//! (baseline / cold mini-batches) or against the replicated hot bags
//! (FAE hot mini-batches) — mirroring how the paper reuses the PyTorch
//! model graph across placements.
//!
//! [`bridge::profile_for`] converts a workload spec into the
//! `fae-sysmodel` cost profile so the *same* model shapes drive both the
//! numeric experiments (Fig 12) and the performance model (Figs 13–15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod attention;
pub mod bridge;
pub mod dlrm;
pub mod interaction;
pub mod source;
pub mod tbsm;
pub mod train;

pub use dlrm::Dlrm;
pub use source::{EmbeddingSource, MasterEmbeddings};
pub use tbsm::Tbsm;
pub use train::{evaluate, forward_backward, predict, train_step, EvalReport, RecModel};
