//! Training engines: the CPU+GPU hybrid baseline and the FAE schedule.
//!
//! Both engines train with *real* numerics (the loss/accuracy results of
//! Fig 12 and Table III come out of actual SGD on the synthetic data) and
//! simultaneously charge every mini-batch to the `fae-sysmodel` cost model
//! (the latency/power results of Figs 13–15 and Tables IV–VI come out of
//! the accumulated [`Timeline`]).
//!
//! The FAE engine follows §III-C: lead with cold batches, issue blocks of
//! `rate%` cold then `rate%` hot, synchronise the hot bags CPU↔GPU at
//! every transition (charged via [`fae_sysmodel::sync_cost`]), evaluate
//! after each round and let the [`ShuffleScheduler`] adapt the rate.
//!
//! # Structure
//!
//! The loops in this file own a schedule and nothing else. Everything a
//! run mutates lives in one private run state (`run::Run`) with exactly
//! one `step`, one `sync`, one `charge`/`recover` pair and one `finish`;
//! the baseline is the same run with an empty hot set. A new execution
//! mode is an input to `step` or `sync`, never a new arm of a loop
//! (DESIGN.md §9).
//!
//! # Resilience
//!
//! [`train_fae_resilient`] extends the FAE engine with fault injection,
//! periodic checkpoints and graceful degradation (see [`crate::faults`]
//! and [`crate::checkpoint`]):
//!
//! * **device loss** — the data-parallel group shrinks to the survivors;
//!   re-sharding (communicator re-init, dense-parameter broadcast,
//!   hot-bag re-replication) is charged to the timeline via
//!   [`fae_sysmodel::reshard_cost`], and training continues at the N−1
//!   cost model. Losing the last GPU falls back to CPU-only cold
//!   execution.
//! * **replication OOM** — the aborted replication is charged, then the
//!   run degrades to CPU-only cold execution: hot batches train against
//!   the master tables at hybrid cost, with no further sync traffic.
//! * **sync failure** — the failed sync attempts are retried with
//!   bounded exponential backoff; each failed attempt still moves the
//!   bytes (charged) and the backoff waits are charged to `Framework`.
//! * **checkpoints** — written at schedule-round boundaries (where the
//!   master tables are authoritative), atomically, with a CRC trailer.
//!   Saving charges *zero* simulated time, so a checkpointed run's cost
//!   is identical to an unmonitored one. Per-epoch shuffle orders come
//!   from RNGs derived as `mix(seed, epoch)` rather than one continuous
//!   stream, so a resumed run replays the exact batch order — resumption
//!   is bit-identical to never having stopped.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fae_data::{BatchKind, Dataset, MiniBatch, WorkloadKind, WorkloadSpec};
use fae_embed::{DeferredSparse, HotColdPartition, SkipStats, SparseGrad};
use fae_models::{Dlrm, EmbeddingSource, EvalReport, MasterEmbeddings, RecModel, Tbsm};
use fae_nn::{Mlp, Tensor};
use fae_sysmodel::Timeline;
use fae_telemetry::{StepMode, Telemetry};

use crate::checkpoint::{latest_in, TrainCheckpoint};
use crate::exec::{ParallelEngine, StepEngine};
use crate::faults::{FaultKind, FaultPlan, InjectedFault, RecoveryAction};
use crate::input_processor::Preprocessed;
use crate::oracle::{LookaheadOracle, OracleStats};
use crate::scheduler::{Rate, ShuffleScheduler};

mod run;
use run::{Lookahead, Run, SyncDir};

/// Trainer configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// SGD learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Global mini-batch size (scaled with GPUs under weak scaling by the
    /// caller).
    pub minibatch_size: usize,
    /// Simulated GPU count (affects only the cost model).
    pub num_gpus: usize,
    /// Initial shuffle-scheduler rate (paper: 50).
    pub initial_rate: u32,
    /// Test mini-batches per evaluation.
    pub eval_batches: usize,
    /// Baseline: evaluate every this many steps.
    pub eval_interval: usize,
    /// Seed for model init and batch-order shuffles.
    pub seed: u64,
    /// Execution-engine worker threads (one model replica each). `1` is
    /// the one-shard case: its scale is exactly 1.0, which
    /// `forward_backward` skips, and `reduce_shards` returns a lone output
    /// unchanged, so it is bit-identical to the pre-engine trainer; any
    /// fixed value is bit-identical run to run.
    pub workers: usize,
    /// Store the cold rows of the master tables as int8 (per-row affine
    /// scale+min, DESIGN.md §14), shrinking the cold majority ~4× while
    /// the calibrator-pinned hot rows stay exact f32. Off by default. A
    /// distributed run keeps the tier on the coordinator: workers read
    /// only exact-f32 hot rows. (The vendored serde shim has no field
    /// attributes, so absent-field defaulting is not available; no
    /// persisted `TrainConfig` JSON exists, only `config_seed`.)
    pub quantize_cold: bool,
    /// Lookahead-oracle window K in batches (0 disables). With K ≥ 1 the
    /// cold→hot refresh moves only the union of the next `min(K, block)`
    /// hot access sets, the window slides during the block (the entering
    /// set prefetched K−1 steps early, its transfer hidden behind
    /// compute), and the hot→cold write-back moves only resident rows;
    /// in-process these moves are counted and charged, not copied.
    /// Transfer costs change; numerics do not — any K produces the same
    /// model digest as K = 0. A distributed run plans on the coordinator
    /// and still ships workers the full hot bag.
    pub lookahead: usize,
    /// Stale-skip threshold in weight-delta units (0.0 disables). Cold-row
    /// sparse updates are deferred until `lr·‖accumulated‖∞` crosses the
    /// threshold, the row is about to be read, or a checkpoint flushes
    /// them; updates still pending at the end of the run are dropped —
    /// the elided stale updates of arXiv 2404.04270. A distributed run
    /// keeps the pool on the coordinator, beside the master.
    pub stale_skip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            epochs: 1,
            minibatch_size: 64,
            num_gpus: 1,
            initial_rate: 50,
            eval_batches: 4,
            eval_interval: 50,
            seed: 0xF00D,
            workers: 1,
            quantize_cold: false,
            lookahead: 0,
            stale_skip: 0.0,
        }
    }
}

/// Fault-injection, checkpointing and resume options for
/// [`train_fae_resilient`]. The default is a no-op: no faults, no
/// checkpoints — [`train_fae`] semantics.
#[derive(Clone, Debug, Default)]
pub struct ResilienceOptions {
    /// Faults to inject, with their trigger steps and determinism seed.
    pub plan: FaultPlan,
    /// Where to write checkpoints (`None` disables checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many schedule rounds (0 disables).
    pub checkpoint_every_rounds: usize,
    /// Resume from the latest checkpoint in `checkpoint_dir`, if any.
    pub resume: bool,
    /// Abort training once this many steps have run (crash simulation
    /// for resume tests; the report comes back `interrupted`).
    pub halt_after_steps: Option<usize>,
    /// Telemetry sink: metrics, per-step journal, progress echo. The
    /// default ([`Telemetry::disabled`]) records nothing at zero cost.
    pub telemetry: Telemetry,
}

/// One evaluation snapshot along the training run (Fig 12's curves).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Training steps completed when this evaluation ran.
    pub iteration: usize,
    /// Test-set BCE loss.
    pub test_loss: f64,
    /// Test-set accuracy.
    pub test_accuracy: f64,
    /// Scheduler rate after this round (FAE only).
    pub rate: Option<u32>,
    /// Cumulative pure-GPU hot steps when this evaluation ran, so
    /// accuracy can be correlated with the hot/cold schedule.
    pub hot_steps: usize,
    /// Cumulative hybrid (cold) steps when this evaluation ran.
    pub cold_steps: usize,
    /// Cumulative simulated seconds when this evaluation ran.
    pub sim_seconds: f64,
}

/// Everything a training run produces.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Evaluation snapshots over training.
    pub history: Vec<EvalPoint>,
    /// Final held-out metrics.
    pub final_test: EvalReport,
    /// Final train-subset metrics (paper Table III reports both).
    pub final_train: EvalReport,
    /// Simulated phase-tagged time.
    pub timeline: Timeline,
    /// Simulated wall-clock seconds (== `timeline.total()`).
    pub simulated_seconds: f64,
    /// Simulated average per-GPU power (Table VI).
    pub avg_gpu_power_w: f64,
    /// Steps executed in pure-GPU hot mode.
    pub hot_steps: usize,
    /// Steps executed in hybrid (baseline/cold) mode.
    pub cold_steps: usize,
    /// Hot↔cold transitions (each charged an embedding sync).
    pub transitions: usize,
    /// Final scheduler rate (FAE only).
    pub final_rate: Option<u32>,
    /// Faults injected during the run, in firing order.
    pub faults: Vec<InjectedFault>,
    /// Recovery actions taken in response (including resume itself).
    pub recoveries: Vec<RecoveryAction>,
    /// True when the run was halted early (`halt_after_steps`).
    pub interrupted: bool,
    /// CRC-32 digest over the final model state (dense parameters +
    /// master embedding tables; see [`crate::checkpoint::model_digest`]).
    /// Two runs that trained the same model report the same digest, no
    /// matter where the shards were computed — this is the acceptance
    /// check for the distributed engine.
    pub model_digest: u32,
    /// Lookahead-oracle counters (all zero when `lookahead == 0`).
    pub oracle: OracleStats,
    /// Stale-skip counters (all zero when `stale_skip == 0`).
    pub skip: SkipStats,
}

/// A recommendation model of either family, chosen by the workload spec.
pub enum AnyModel {
    /// DLRM (RMC2/RMC3).
    Dlrm(Box<Dlrm>),
    /// TBSM (RMC1).
    Tbsm(Box<Tbsm>),
}

impl AnyModel {
    /// Builds the model family the spec calls for.
    pub fn from_spec(spec: &WorkloadSpec, rng: &mut impl Rng) -> Self {
        match spec.kind {
            WorkloadKind::Dlrm => AnyModel::Dlrm(Box::new(Dlrm::from_spec(spec, rng))),
            WorkloadKind::Tbsm => AnyModel::Tbsm(Box::new(Tbsm::from_spec(spec, rng))),
        }
    }
}

impl RecModel for AnyModel {
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor {
        match self {
            AnyModel::Dlrm(m) => m.forward(batch, emb),
            AnyModel::Tbsm(m) => m.forward(batch, emb),
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        match self {
            AnyModel::Dlrm(m) => m.backward(grad),
            AnyModel::Tbsm(m) => m.backward(grad),
        }
    }

    fn mlps(&self) -> [&Mlp; 2] {
        match self {
            AnyModel::Dlrm(m) => m.mlps(),
            AnyModel::Tbsm(m) => m.mlps(),
        }
    }

    fn mlps_mut(&mut self) -> [&mut Mlp; 2] {
        match self {
            AnyModel::Dlrm(m) => m.mlps_mut(),
            AnyModel::Tbsm(m) => m.mlps_mut(),
        }
    }
}

/// Splits the head of a test dataset into evaluation mini-batches.
pub fn make_test_batches(test: &Dataset, batch_size: usize, max_batches: usize) -> Vec<MiniBatch> {
    let n = test.len();
    (0..n)
        .collect::<Vec<_>>()
        .chunks(batch_size)
        .take(max_batches)
        .map(|c| MiniBatch::gather(test, c, BatchKind::Unclassified))
        .collect()
}

/// Derives the shuffle seed for one epoch (SplitMix64 finalizer).
///
/// Each epoch's batch order comes from its own RNG rather than a stream
/// threaded through training, so a resumed run can regenerate the exact
/// order of any epoch without replaying the ones before it.
fn shuffle_seed(seed: u64, epoch: usize) -> u64 {
    let mut z = seed.wrapping_add((epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trains the baseline: every mini-batch in hybrid CPU-GPU mode — the
/// FAE runtime with an empty hot set, so every step is a cold step.
pub fn train_baseline(
    spec: &WorkloadSpec,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = AnyModel::from_spec(spec, &mut rng);
    let master = MasterEmbeddings::from_spec(spec, &mut rng);
    let partitions: Vec<HotColdPartition> =
        spec.tables.iter().map(|t| HotColdPartition::all_cold(t.rows)).collect();
    let make_engine = |model| ParallelEngine::from_model(model, spec, cfg.seed, cfg.workers);
    let opts = ResilienceOptions::default();
    // No skip pool, whatever `cfg.stale_skip` says: `pipeline::compare`
    // hands one config to both runs, and the reference must not move.
    let mut run = Run::new(spec, cfg, &partitions, model, master, make_engine, None, test, &opts);

    let mut order: Vec<usize> = (0..train.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.minibatch_size) {
            let mb = MiniBatch::gather(train, chunk, BatchKind::Unclassified);
            run.step(&mb, StepMode::Cold, None);
            if run.steps.is_multiple_of(cfg.eval_interval) {
                run.evaluate(|_| None);
            }
        }
    }
    let train_batches = make_test_batches(train, cfg.minibatch_size, cfg.eval_batches);
    let mut report = run.finish(&train_batches, None);
    // The baseline's curve ends on its final held-out evaluation.
    report.history.push(EvalPoint {
        iteration: report.cold_steps,
        test_loss: report.final_test.loss,
        test_accuracy: report.final_test.accuracy,
        rate: None,
        hot_steps: 0,
        cold_steps: report.cold_steps,
        sim_seconds: report.simulated_seconds,
    });
    report
}

/// Trains with the FAE framework over a preprocessed hot/cold stream.
///
/// Equivalent to [`train_fae_resilient`] with default (no-op)
/// [`ResilienceOptions`].
pub fn train_fae(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    train_fae_resilient(spec, pre, test, cfg, &ResilienceOptions::default())
}

/// Trains with the FAE framework under fault injection, periodic
/// checkpointing and graceful degradation (see the module docs).
///
/// With default options this is exactly [`train_fae`]. With
/// `checkpoint_dir` + `resume`, a run killed at any step and restarted
/// produces a [`TrainReport`] bit-identical to one that never stopped.
pub fn train_fae_resilient(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    opts: &ResilienceOptions,
) -> TrainReport {
    train_fae_with_engine(spec, pre, test, cfg, opts, |model| {
        ParallelEngine::from_model(model, spec, cfg.seed, cfg.workers)
    })
}

/// The checkpoint a `resume` run continues from: the latest readable one
/// in the checkpoint directory, if any. An unreadable checkpoint or
/// directory is reported and the run starts fresh.
fn load_resume_checkpoint(opts: &ResilienceOptions, seed: u64) -> Option<TrainCheckpoint> {
    let dir = opts.checkpoint_dir.as_ref().filter(|_| opts.resume)?;
    let path = match latest_in(dir) {
        Ok(found) => found?,
        Err(e) => {
            eprintln!("fae: cannot scan checkpoint dir: {e}; starting fresh");
            return None;
        }
    };
    match TrainCheckpoint::load(&path) {
        Ok(ck) => {
            assert_eq!(
                ck.config_seed,
                seed,
                "checkpoint {} was written by a run with seed {}, not {seed}",
                path.display(),
                ck.config_seed,
            );
            Some(ck)
        }
        Err(e) => {
            eprintln!(
                "fae: ignoring unreadable checkpoint {}: {e}; starting fresh",
                path.display()
            );
            None
        }
    }
}

/// The FAE training loop, generic over the step executor: pass the
/// in-process [`ParallelEngine`] (what [`train_fae_resilient`] does) or
/// a networked engine that fans shards out to worker processes. The
/// closure receives the freshly built (or checkpoint-restored) model and
/// must wrap it as replica 0.
///
/// The loop owns only the schedule — epoch order, block lengths, where
/// faults and checkpoints land. Every step, sync, charge and the report
/// go through the private run state (see the module docs).
pub fn train_fae_with_engine<En, F>(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    opts: &ResilienceOptions,
    make_engine: F,
) -> TrainReport
where
    En: StepEngine,
    F: FnOnce(AnyModel) -> En,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    // The tiered constructor draws the RNG in the same order as the
    // untiered one, so the model stream and the hot rows are bit-identical
    // either way; only cold rows differ (quantized at init, never
    // materialized in f32).
    let mut master = if cfg.quantize_cold {
        MasterEmbeddings::from_spec_tiered(spec, &pre.partitions, &mut rng)
    } else {
        MasterEmbeddings::from_spec(spec, &mut rng)
    };
    let mut scheduler = ShuffleScheduler::new(Rate::new(cfg.initial_rate));
    let resumed = load_resume_checkpoint(opts, cfg.seed);
    if let Some(ck) = &resumed {
        model.read_params(&ck.dense_params);
        master = ck.restore_master();
        if cfg.quantize_cold {
            master.quantize_cold_tier(&pre.partitions);
        }
        scheduler = ShuffleScheduler::from_state(&ck.scheduler);
    }
    scheduler.set_telemetry(opts.telemetry.clone());

    // Stale-skip state: deferred cold-row gradients (DESIGN.md §15).
    let skip = (cfg.stale_skip > 0.0)
        .then(|| DeferredSparse::new(master.num_tables(), master.dim(), cfg.stale_skip, cfg.lr));
    let mut run =
        Run::new(spec, cfg, &pre.partitions, model, master, make_engine, skip, test, opts);
    let start_epoch = resumed.as_ref().map_or(0, |ck| ck.epoch as usize);
    let mut resume_cursors =
        resumed.as_ref().map(|ck| (ck.hot_cursor as usize, ck.cold_cursor as usize));
    if let Some(ck) = resumed {
        run.restore(ck);
    }
    run.start(spec, resume_cursors.is_some());

    let num_tables = pre.partitions.len();
    let n_hot = pre.hot_batches.len();
    let n_cold = pre.cold_batches.len();
    let mut rounds_done = 0usize;

    'epochs: for epoch in start_epoch..cfg.epochs {
        // Each epoch's order comes from a derived seed (see
        // `shuffle_seed`), so a resumed run regenerates it exactly.
        let mut ep_rng = StdRng::seed_from_u64(shuffle_seed(cfg.seed, epoch));
        let mut hot_order: Vec<usize> = (0..n_hot).collect();
        let mut cold_order: Vec<usize> = (0..n_cold).collect();
        hot_order.shuffle(&mut ep_rng);
        cold_order.shuffle(&mut ep_rng);
        let (mut hp, mut cp) = resume_cursors.take().unwrap_or((0, 0));

        // The epoch's oracle: a cursor over the hot stream in the order
        // just drawn. A resumed run fast-forwards to the hot cursor; a
        // degraded (cold-only) run has no hot bags to manage, so no oracle.
        let mut oracle = (cfg.lookahead > 0 && !run.cold_only).then(|| {
            let mut o = LookaheadOracle::new(&pre.hot_batches, &hot_order, cfg.lookahead);
            o.skip(hp);
            o
        });

        // §III-C: "The scheduler always begins with training on cold
        // inputs", then alternates rate-sized blocks.
        while hp < n_hot || cp < n_cold {
            if run.injector.fire(FaultKind::DeviceLoss, run.steps as u64).is_some() {
                run.lose_device();
            }
            let rate = scheduler.rate();
            run.rate = rate.pct();
            // Cold block on the CPU master tables.
            if cp < n_cold {
                let k = rate.block_len(n_cold).min(n_cold - cp);
                for &b in &cold_order[cp..cp + k] {
                    if run.step(&pre.cold_batches[b], StepMode::Cold, None) {
                        break 'epochs;
                    }
                }
                cp += k;
            }
            // Hot block on the replicated GPU bags, bracketed by syncs.
            if hp < n_hot {
                let k = rate.block_len(n_hot).min(n_hot - hp);
                if !run.cold_only
                    && run.injector.fire(FaultKind::ReplicationOom, run.steps as u64).is_some()
                {
                    // The aborted attempt still moved (some of) the bytes:
                    // charge it, then degrade.
                    run.sync(SyncDir::AbortedReplication, None);
                    run.fall_back_to_cold("hot-bag replication aborted (OOM)");
                }
                let mut plan = None;
                let mode = if run.cold_only {
                    // Degraded: hot inputs are still *trained* — on the
                    // master tables at hybrid cost, with no sync traffic
                    // and no hot bags for the oracle to manage.
                    oracle = None;
                    StepMode::Cold
                } else {
                    if let Some(f) = run.injector.fire(FaultKind::SyncFailure, run.steps as u64) {
                        run.retry_sync(&f);
                    }
                    plan = oracle.as_mut().map(|o| o.block_plan(k, num_tables));
                    run.sync(SyncDir::Refresh, plan.as_deref());
                    StepMode::Hot
                };
                for (j, &b) in hot_order[hp..hp + k].iter().enumerate() {
                    let ahead = oracle.as_mut().map(|o| Lookahead { oracle: o, pos: j, block: k });
                    if run.step(&pre.hot_batches[b], mode, ahead) {
                        break 'epochs;
                    }
                }
                hp += k;
                if mode == StepMode::Hot {
                    run.sync(SyncDir::WriteBack, plan.as_deref());
                }
            }
            // Evaluate on the (synchronised) master copy and adapt.
            run.evaluate(|loss| Some(scheduler.observe_test_loss(loss).pct()));
            rounds_done += 1;
            if let Some(dir) = &opts.checkpoint_dir {
                if opts.checkpoint_every_rounds > 0
                    && rounds_done.is_multiple_of(opts.checkpoint_every_rounds)
                {
                    run.checkpoint(dir, epoch, (hp, cp), &scheduler);
                }
            }
        }
    }

    let train_sample: Vec<MiniBatch> = pre
        .hot_batches
        .iter()
        .take(cfg.eval_batches / 2 + 1)
        .chain(pre.cold_batches.iter().take(cfg.eval_batches / 2 + 1))
        .cloned()
        .collect();
    run.finish(&train_sample, Some(scheduler.rate().pct()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrator::Calibrator;
    use crate::classifier::classify_tables;
    use crate::input_processor::{preprocess_inputs, PreprocessConfig};
    use fae_data::{generate, GenOptions};

    fn small_run() -> (WorkloadSpec, Dataset, Dataset, Preprocessed, TrainConfig) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(77, 6_000));
        let (train, test) = ds.split(0.2);
        let cal = Calibrator::default().calibrate(&train);
        // Force partial hotness: recalibrate table cutoffs so cold inputs
        // exist even though tiny tables are all under 1 MB.
        let all: Vec<usize> = (0..train.len()).collect();
        let counters = crate::calibrator::log_accesses(&train, &all);
        let mut cal2 = cal;
        for (t, tc) in cal2.tables.iter_mut().enumerate() {
            tc.de_facto_hot = false;
            tc.cutoff = (counters[t].total() / counters[t].rows() as u64).max(2);
        }
        let parts = classify_tables(&spec, &counters, &cal2);
        let pre =
            preprocess_inputs(&train, parts, &PreprocessConfig { minibatch_size: 64, seed: 5 });
        let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
        (spec, train, test, pre, cfg)
    }

    #[test]
    fn baseline_trains_and_reports() {
        let (spec, train, test, _, cfg) = small_run();
        let r = train_baseline(&spec, &train, &test, &cfg);
        assert_eq!(r.cold_steps, train.len().div_ceil(64));
        assert_eq!(r.hot_steps, 0);
        assert!(r.simulated_seconds > 0.0);
        assert!(r.final_test.accuracy > 0.5, "accuracy {}", r.final_test.accuracy);
        assert!(!r.history.is_empty());
        assert!(r.avg_gpu_power_w > 50.0);
        assert!(r.faults.is_empty() && r.recoveries.is_empty() && !r.interrupted);
    }

    #[test]
    fn fae_trains_matches_baseline_accuracy_and_is_faster() {
        let (spec, train, test, pre, cfg) = small_run();
        assert!(!pre.hot_batches.is_empty(), "need hot batches for this test");
        assert!(!pre.cold_batches.is_empty(), "need cold batches for this test");
        let base = train_baseline(&spec, &train, &test, &cfg);
        let fae = train_fae(&spec, &pre, &test, &cfg);
        assert!(fae.hot_steps > 0 && fae.cold_steps > 0);
        assert!(fae.transitions >= 2);
        // Accuracy parity (Table III): within 3 points on this tiny run.
        assert!(
            (fae.final_test.accuracy - base.final_test.accuracy).abs() < 0.03,
            "accuracy diverged: fae {} vs base {}",
            fae.final_test.accuracy,
            base.final_test.accuracy
        );
        // Speed: FAE's simulated time must beat the baseline's.
        assert!(
            fae.simulated_seconds < base.simulated_seconds,
            "fae {}s !< baseline {}s",
            fae.simulated_seconds,
            base.simulated_seconds
        );
        assert!(fae.final_rate.is_some());
    }

    #[test]
    fn fae_with_no_hot_batches_degenerates_to_baseline_schedule() {
        let (spec, _train, test, mut pre, cfg) = small_run();
        pre.cold_batches.extend(pre.hot_batches.drain(..).map(|mut b| {
            b.kind = BatchKind::Cold;
            b
        }));
        let r = train_fae(&spec, &pre, &test, &cfg);
        assert_eq!(r.hot_steps, 0);
        assert!(r.cold_steps > 0);
    }

    #[test]
    fn more_gpus_at_fixed_tiny_batch_only_adds_coordination_cost() {
        // Holding the (tiny) batch fixed, extra GPUs cannot help — they
        // only add per-step coordination overhead, charged to AllReduce.
        // (The real weak-scaling sweep lives in the fig13 harness, where
        // the batch grows with the GPU count.)
        let (spec, _train, test, pre, mut cfg) = small_run();
        let r1 = train_fae(&spec, &pre, &test, &cfg);
        cfg.num_gpus = 4;
        let r4 = train_fae(&spec, &pre, &test, &cfg);
        assert!(r4.simulated_seconds > r1.simulated_seconds);
        let extra = r4.simulated_seconds - r1.simulated_seconds;
        let allreduce_delta = r4.timeline.get(fae_sysmodel::Phase::AllReduce)
            - r1.timeline.get(fae_sysmodel::Phase::AllReduce);
        assert!(
            allreduce_delta > 0.6 * extra,
            "coordination cost should dominate the 4-GPU overhead: {allreduce_delta} of {extra}"
        );
    }

    #[test]
    fn quantized_cold_tier_matches_f32_accuracy() {
        // Fig 12-style parity: the int8 cold tier must not cost accuracy.
        // Hot rows are exact f32 in both runs; only cold rows carry
        // quantization error, bounded by half an affine step per touch.
        let (spec, _train, test, pre, cfg) = small_run();
        let f32_run = train_fae(&spec, &pre, &test, &cfg);
        let q_cfg = TrainConfig { quantize_cold: true, ..cfg };
        let q_run = train_fae(&spec, &pre, &test, &q_cfg);
        assert!(
            (q_run.final_test.accuracy - f32_run.final_test.accuracy).abs() < 0.02,
            "quantized accuracy diverged: {} vs {}",
            q_run.final_test.accuracy,
            f32_run.final_test.accuracy
        );
        // The simulated schedule does not depend on the numeric tier.
        assert_eq!(q_run.hot_steps, f32_run.hot_steps);
        assert_eq!(q_run.cold_steps, f32_run.cold_steps);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let (spec, _train, test, pre, cfg) = small_run();
        let a = train_fae(&spec, &pre, &test, &cfg);
        let b = train_fae(&spec, &pre, &test, &cfg);
        assert_eq!(a.final_test.loss.to_bits(), b.final_test.loss.to_bits());
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn explicit_zero_lookahead_and_skip_reproduce_the_seed_trainer() {
        // The seed-trainer contract: `--lookahead 0 --stale-skip 0` must
        // be the defaults, byte for byte — same digest, same cost.
        let (spec, _train, test, pre, cfg) = small_run();
        let base = train_fae(&spec, &pre, &test, &cfg);
        let zeroed = TrainConfig { lookahead: 0, stale_skip: 0.0, ..cfg };
        let z = train_fae(&spec, &pre, &test, &zeroed);
        assert_eq!(z.model_digest, base.model_digest);
        assert_eq!(z.simulated_seconds.to_bits(), base.simulated_seconds.to_bits());
        assert_eq!(z.skip, SkipStats::default());
        assert_eq!(z.oracle, OracleStats::default());
    }

    #[test]
    fn a_run_halted_mid_hot_block_digests_the_rows_its_hot_steps_trained() {
        // Halt two steps into the first hot block. The twin loses its
        // hot-bag replication before that block and trains the same
        // batches in the same order as cold steps on the master (the
        // digest every full run shares), so the two digests agree only if
        // the halted run's report covers its hot steps' row updates.
        let (spec, _train, test, pre, cfg) = small_run();
        let halt = Rate::new(cfg.initial_rate).block_len(pre.cold_batches.len()) + 2;
        let halted = |plan: &str| {
            let opts = ResilienceOptions {
                plan: FaultPlan::parse(plan).expect("plan parses"),
                halt_after_steps: Some(halt),
                ..Default::default()
            };
            train_fae_resilient(&spec, &pre, &test, &cfg, &opts)
        };
        let hot = halted("");
        let cold = halted("replication-oom@0");
        assert!(hot.interrupted && cold.interrupted);
        assert_eq!((hot.hot_steps, hot.transitions), (2, 1), "not two steps into a hot block");
        assert_eq!((cold.hot_steps, cold.transitions), (0, 0));
        assert_eq!(hot.model_digest, cold.model_digest);
        assert_eq!(hot.final_test.loss.to_bits(), cold.final_test.loss.to_bits());
    }

    #[test]
    fn lookahead_changes_transfer_costs_but_not_numerics() {
        // The oracle's core guarantee: the master is frozen during a hot
        // block, so partial syncs read/write exactly the bytes the full
        // syncs would — any K gives the digest of K = 0; only the moved
        // bytes (and thus EmbedSync seconds) shrink.
        let (spec, _train, test, pre, cfg) = small_run();
        let full = train_fae(&spec, &pre, &test, &cfg);
        for k in [1usize, 4, 64] {
            let la = TrainConfig { lookahead: k, ..cfg.clone() };
            let r = train_fae(&spec, &pre, &test, &la);
            assert_eq!(r.model_digest, full.model_digest, "digest changed at K={k}");
            assert_eq!(r.hot_steps, full.hot_steps);
            assert_eq!(r.final_test.loss.to_bits(), full.final_test.loss.to_bits());
            assert_eq!(r.oracle.misses, 0, "exact oracle must never demand-fetch (K={k})");
            assert!(r.oracle.hits > 0);
            assert!(r.oracle.prefetched_rows > 0);
            assert!(
                r.oracle.moved_bytes < r.oracle.full_bytes,
                "partial syncs should move fewer bytes: {} vs {} (K={k})",
                r.oracle.moved_bytes,
                r.oracle.full_bytes
            );
            // Simulated time only wins once K covers the block: the sync
            // *count* then matches the full path while the bytes shrink.
            // Small K on a tiny bag trades bytes for per-transfer latency
            // (many small PCIe fetches) and can honestly lose.
            if k >= 64 {
                assert!(
                    r.simulated_seconds < full.simulated_seconds,
                    "block-covering lookahead must be cheaper: {} vs {} (K={k})",
                    r.simulated_seconds,
                    full.simulated_seconds
                );
            }
        }
    }

    #[test]
    fn stale_skip_defers_updates_and_keeps_accuracy() {
        // Fig 12-style parity for the stale-skip mode at the default
        // CLI threshold: deferred + dropped cold updates must not cost
        // accuracy beyond noise.
        let (spec, _train, test, pre, cfg) = small_run();
        let eager = train_fae(&spec, &pre, &test, &cfg);
        let skip_cfg = TrainConfig { stale_skip: 1e-4, ..cfg };
        let s = train_fae(&spec, &pre, &test, &skip_cfg);
        assert!(s.skip.deferred > 0, "threshold 1e-4 should defer some cold rows");
        assert!(
            s.skip.flushed_threshold + s.skip.flushed_access + s.skip.dropped > 0,
            "deferred rows must eventually flush or drop"
        );
        assert!(
            (s.final_test.accuracy - eager.final_test.accuracy).abs() < 0.02,
            "stale-skip accuracy diverged: {} vs {}",
            s.final_test.accuracy,
            eager.final_test.accuracy
        );
        // Skipping sparse-optimizer work can only shrink simulated time.
        assert!(s.simulated_seconds <= eager.simulated_seconds);
    }

    #[test]
    fn stale_skip_checkpoint_resume_stays_bit_identical() {
        // flush-on-checkpoint: a run killed mid-stream and resumed must
        // reproduce the uninterrupted checkpointed run bit for bit.
        let dir = std::env::temp_dir().join("fae-trainer-skip-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create ckpt dir");
        let (spec, _train, test, pre, cfg) = small_run();
        let skip_cfg = TrainConfig { stale_skip: 1e-4, ..cfg };
        let opts_full = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..Default::default()
        };
        let full = train_fae_resilient(&spec, &pre, &test, &skip_cfg, &opts_full);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("recreate ckpt dir");
        let halted = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &skip_cfg,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                halt_after_steps: Some(30),
                ..Default::default()
            },
        );
        assert!(halted.interrupted);
        let resumed = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &skip_cfg,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every_rounds: 1,
                resume: true,
                ..Default::default()
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resumed.model_digest, full.model_digest);
        assert_eq!(resumed.final_test.loss.to_bits(), full.final_test.loss.to_bits());
    }

    #[test]
    fn lookahead_and_skip_compose() {
        let (spec, _train, test, pre, cfg) = small_run();
        let combo = TrainConfig { lookahead: 4, stale_skip: 1e-4, ..cfg.clone() };
        let plain = train_fae(&spec, &pre, &test, &cfg);
        let r = train_fae(&spec, &pre, &test, &combo);
        assert!(r.skip.deferred > 0 && r.oracle.prefetched_rows > 0);
        assert_eq!(r.oracle.misses, 0);
        assert!(r.simulated_seconds < plain.simulated_seconds);
        assert!((r.final_test.accuracy - plain.final_test.accuracy).abs() < 0.02);
    }

    #[test]
    fn halt_after_steps_interrupts_mid_run() {
        let (spec, _train, test, pre, cfg) = small_run();
        let opts = ResilienceOptions { halt_after_steps: Some(10), ..Default::default() };
        let r = train_fae_resilient(&spec, &pre, &test, &cfg, &opts);
        assert!(r.interrupted);
        assert_eq!(r.hot_steps + r.cold_steps, 10);
    }
}
