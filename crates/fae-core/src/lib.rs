//! # fae-core — the FAE framework
//!
//! The paper's contribution (§III), end to end:
//!
//! * [`calibrator`] — the static profiling pipeline: the **sparse input
//!   sampler** (5% of inputs), the **embedding logger** (per-row access
//!   counts), the **Rand-Em Box** (CLT-based hot-size estimation from 35
//!   random 1024-row chunks at 99.9% confidence) and the **statistical
//!   optimizer** that walks a threshold ladder until the hot bag fits the
//!   GPU memory budget `L`,
//! * [`classifier`] — one-pass tagging of hot embedding rows per table,
//! * [`input_processor`] — parallel hot/cold classification of sparse
//!   inputs and packing into *pure* hot / *pure* cold mini-batches,
//!   persisted in the FAE format,
//! * [`replicator`] — the hot-embedding source replicated per GPU, with
//!   the one residency-masked CPU↔GPU sync per direction that schedule
//!   transitions and the lookahead oracle both drive,
//! * [`exec`] — the parallel execution engine: per-device worker threads
//!   over contiguous batch shards with deterministic gradient reduction,
//! * [`oracle`] — the BagPipe-style lookahead cache: exact next-K-batch
//!   access sets over the known mini-batch stream, driving prefetch and
//!   eviction of hot rows at the schedule transitions,
//! * [`scheduler`] — the **Shuffle Scheduler**'s adaptive hot/cold
//!   interleaving rate (Eq. 7),
//! * [`trainer`] — baseline and FAE training loops combining real
//!   numerics (loss/accuracy, Fig 12) with the `fae-sysmodel` cost model
//!   (latency/power, Figs 13–15, Tables IV–VI); both are short schedules
//!   over one run state with one `step`, one `sync` and one `finish`,
//! * [`simsched`] — the same schedule priced by the cost model alone, for
//!   the paper-scale sweeps no host could train,
//! * [`artifacts`] — calibration + partitions persisted next to the FAE
//!   batch container,
//! * [`pipeline`] — one-call convenience wrappers used by the examples
//!   and the experiment harness, plus the double-buffered mini-batch
//!   prefetcher that decodes FAE-format blocks on a background thread,
//! * [`faults`] — deterministic, seed-driven fault injection (device
//!   loss, replication OOM, sync failure, artifact corruption, transient
//!   I/O) with bounded-backoff retry plumbing,
//! * [`checkpoint`] — binary training checkpoints (atomic write, CRC-32
//!   verified) that make an interrupted run resume bit-identically.

#![forbid(unsafe_code)]
pub mod artifacts;
pub mod calibrator;
pub mod checkpoint;
pub mod classifier;
pub mod exec;
pub mod faults;
pub mod input_processor;
pub mod oracle;
pub mod pipeline;
pub mod replicator;
pub mod scheduler;
pub mod simsched;
pub mod trainer;

pub use calibrator::{CalibrationResult, Calibrator, CalibratorConfig, RandEmBox, RandEmEstimate};
pub use checkpoint::{latest_in, CheckpointError, TableSnapshot, TrainCheckpoint};
pub use checkpoint::{master_digest, model_digest};
pub use classifier::classify_tables;
pub use exec::{compute_shard, reduce_shards, NetEvents, ParallelEngine, ShardOutput, StepEngine};
pub use fae_telemetry::Telemetry;
pub use faults::{
    retry_with_backoff, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanError,
    InjectedFault, RecoveryAction, RetryPolicy,
};
pub use input_processor::{preprocess_inputs, PreprocessConfig, Preprocessed};
pub use oracle::{plan_decisions, AccessSet, LookaheadOracle, OracleStats, StepDecision};
pub use pipeline::{prefetch_fae_blocks, Prefetcher};
pub use replicator::HotEmbeddings;
pub use scheduler::{Rate, SchedulerState, ShuffleScheduler};
pub use trainer::{
    train_baseline, train_fae, train_fae_resilient, train_fae_with_engine, AnyModel, EvalPoint,
    ResilienceOptions, TrainConfig, TrainReport,
};
