//! # fae-embed — embedding-table substrate
//!
//! Embedding tables are the memory-bound half of a recommendation model and
//! the object the FAE paper partitions into *hot* and *cold* halves. This
//! crate provides:
//!
//! * [`EmbeddingTable`] — a dense `rows × dim` table with CSR-style bag
//!   lookups (sum pooling), sparse gradient accumulation and sparse SGD,
//! * [`AccessCounter`] — per-row access statistics (the paper's *embedding
//!   logger* writes into one of these),
//! * [`HotColdPartition`] — the hot/cold row split induced by an access
//!   threshold, with global→hot-local index remapping,
//! * [`TieredTable`] — a table whose cold rows are stored int8 with a
//!   per-row affine scale while its hot rows stay exact f32,
//! * [`DeferredSparse`] — the stale-skip pool of deferred cold-row
//!   gradients,
//! * [`sparse::SparseGrad`] — coalesced sparse gradients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deferred;
pub mod partition;
pub mod quant;
pub mod sparse;
pub mod stats;
pub mod table;

pub use deferred::{DeferredSparse, SkipStats};
pub use partition::{HotColdPartition, RowClass};
pub use quant::{dequantize, quantize_row, TieredTable};
pub use sparse::{RowwiseAdagrad, SparseGrad};
pub use stats::AccessCounter;
pub use table::EmbeddingTable;
