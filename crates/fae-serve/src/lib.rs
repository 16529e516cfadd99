//! # fae-serve — hot-embedding inference
//!
//! Serving-side counterpart of the FAE training pipeline (DESIGN.md §10):
//! a frozen model + embeddings loaded from a v2 [`TrainCheckpoint`]
//! answer lookup→MLP inference requests through
//!
//! * a **deadline-aware micro-batcher** ([`batcher::MicroBatcher`]) —
//!   bounded queue, batches close at `max_batch` requests or `max_delay`
//!   seconds, whichever comes first,
//! * a **frequency-aware hot-embedding cache** ([`cache::ServeCache`]) —
//!   seeded from the calibrator's hot partition (pinned, never evicted)
//!   with a dynamic cold tier admitting/evicting rows by windowed access
//!   counts; hits cost a GPU gather, misses a CPU fetch + PCIe transfer,
//!   both charged to the `fae-sysmodel` [`Timeline`],
//! * a **worker pool** ([`engine::ServeEngine`]) reusing the execution
//!   engine's fan-out, with per-worker Chrome-trace lanes.
//!
//! Exactly like training, the split is *real numerics on a simulated
//! clock*: request latencies, queueing and cache hit/miss costs all come
//! from the deterministic discrete-event simulation, while the actual
//! MLP forward passes run on real threads for real scores.
//!
//! [`TrainCheckpoint`]: fae_core::TrainCheckpoint
//! [`Timeline`]: fae_sysmodel::Timeline

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod engine;
pub mod loadgen;
pub mod request;

pub use batcher::{BatcherConfig, CloseReason, ClosedBatch, MicroBatcher};
pub use cache::{CacheAccess, CacheStats, FreqCache, LruCache, ServeCache};
pub use engine::{CheckpointMismatch, ServeConfig, ServeEngine, ServeReport};
pub use loadgen::{open_loop_requests, saturation_sweep, sweep_json, SweepPoint, SweepReport};
pub use request::{InferRequest, RequestTrace, ServeLoad};

use fae_core::{classify_tables, Calibrator, CalibratorConfig, Telemetry};
use fae_data::Dataset;
use fae_embed::HotColdPartition;

/// Runs the calibrator pipeline (sample → log → converge → classify) on
/// `ds` and returns the per-table hot/cold partitions that seed the
/// serve cache's pinned tier. Identical to what `pipeline::prepare` does
/// at preprocess time, so a checkpoint trained from the same dataset and
/// calibrator config sees the same hot rows at serve time.
pub fn calibrate_partitions(ds: &Dataset, cfg: CalibratorConfig) -> Vec<HotColdPartition> {
    let (cal, counters) = Calibrator::new(cfg).calibrate_with(ds, &Telemetry::disabled());
    classify_tables(&ds.spec, &counters, &cal)
}
