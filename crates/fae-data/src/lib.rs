//! # fae-data — synthetic recommendation workloads
//!
//! The paper evaluates on Criteo Kaggle, Criteo Terabyte and Taobao
//! (Alibaba). Those datasets are not redistributable, so this crate builds
//! the closest synthetic equivalents: Zipf-skewed sparse datasets whose
//! *shape* (table count, row counts, feature counts, embedding dimensions,
//! access skew) matches Table I and Fig 2 of the paper, with labels planted
//! by a hidden ground-truth model so accuracy experiments are meaningful.
//!
//! * [`WorkloadSpec`] — the shape of one workload; `rmc1_taobao()`,
//!   `rmc2_kaggle()`, `rmc3_terabyte()` give laptop-scaled variants and the
//!   `*_paper()` constructors give the full published shapes (used only by
//!   the cost model, never materialised),
//! * [`generate`] — deterministic dataset synthesis with per-table Zipf
//!   popularity and shuffled id spaces,
//! * [`Dataset`] / [`TableIndices`] / [`MiniBatch`] — CSR-style storage,
//! * [`mod@format`] — the *FAE format*: a binary container for the
//!   preprocessed hot/cold mini-batch stream, written once per dataset and
//!   reloaded on subsequent training runs (§III-B),
//! * [`codec`] — the bounds-checked little-endian reader, writers and
//!   CRC-32 under the FAE format, the checkpoint and the wire frame.

#![forbid(unsafe_code)]
pub mod codec;
pub mod dataset;
pub mod format;
pub mod gen;
pub mod minibatch;
pub mod spec;
pub mod stats;
pub mod zipf;

pub use dataset::{Dataset, TableIndices};
pub use gen::{generate, GenOptions};
pub use minibatch::{BatchKind, MiniBatch};
pub use spec::{TableSpec, WorkloadKind, WorkloadSpec};
pub use zipf::ZipfSampler;
