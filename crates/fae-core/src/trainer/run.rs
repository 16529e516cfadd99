//! The state of one training run and the four operations every loop is
//! made of: [`Run::step`], [`Run::sync`], [`Run::recover`] (with
//! [`Run::charge`]) and [`Run::finish`].
//!
//! The loops in [`super`] own a batch order and a schedule; everything
//! that trains, costs, journals or reports goes through here, so a timer,
//! a digest or a new execution mode has exactly one place to go. A new
//! mode is an input to `step` or `sync`, never a new arm of a loop.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use fae_data::{Dataset, MiniBatch, WorkloadSpec};
use fae_embed::{DeferredSparse, HotColdPartition, SparseGrad};
use fae_models::{bridge, evaluate, EmbeddingSource, MasterEmbeddings, RecModel};
use fae_sysmodel::power::average_gpu_power;
use fae_sysmodel::{
    cold_sparse_optimizer_cost, reshard_cost, step_cost, sync_cost, ExecMode, ModelProfile, Phase,
    SystemConfig, Timeline,
};
use fae_telemetry::{JournalEvent, PhaseSeconds, SpanGuard, StepMode, Telemetry};

use super::{make_test_batches, AnyModel, EvalPoint, ResilienceOptions, TrainConfig, TrainReport};
use crate::checkpoint::{master_digest, TrainCheckpoint};
use crate::exec::StepEngine;
use crate::faults::{
    retry_with_backoff, FaultInjector, FaultKind, InjectedFault, RecoveryAction, RetryPolicy,
};
use crate::oracle::{LookaheadOracle, OracleStats};
use crate::replicator::HotEmbeddings;
use crate::scheduler::ShuffleScheduler;

/// Memoised per-step costs: `step_cost` is pure in `(mode, batch)`, and an
/// epoch reuses two batch sizes (full + remainder). The model owns the
/// system description because graceful degradation re-shapes the machine
/// mid-run: after a device loss the surviving GPU count changes every
/// per-step and sync cost, so the memo must be rebuilt.
pub(super) struct CostModel {
    profile: ModelProfile,
    sys: SystemConfig,
    // Lookup-only (never iterated), so iteration order cannot reach
    // the digest — which is what lets this be a HashMap under the
    // flow-aware det-taint rule.
    memo: HashMap<(StepMode, usize), Timeline>,
}

impl CostModel {
    fn new(profile: ModelProfile, num_gpus: usize) -> Self {
        Self { profile, sys: SystemConfig::paper_server(num_gpus), memo: HashMap::new() }
    }

    /// Re-shapes the machine to `num_gpus` survivors: every memoised cost
    /// is stale, so the memo is dropped.
    fn set_gpus(&mut self, num_gpus: usize) {
        self.sys = SystemConfig::paper_server(num_gpus);
        self.memo.clear();
    }

    fn step(&mut self, mode: StepMode, batch: usize) -> &Timeline {
        let exec = match mode {
            StepMode::Hot => ExecMode::FaeHotGpu,
            StepMode::Cold => ExecMode::BaselineHybrid,
        };
        self.memo
            .entry((mode, batch))
            .or_insert_with(|| step_cost(&self.profile, &self.sys, exec, batch))
    }

    /// Charges one step. When the sparse optimizer applied only `applied`
    /// of the `produced` row-updates (the rest deferred by the stale-skip
    /// pool, or flushed extras when `applied > produced`), the CPU
    /// sparse-SGD term — the paper's headline cold bottleneck — is
    /// rescaled by `applied / produced`; every other phase is unchanged
    /// (the forward/backward still ran in full). Eager steps pass `0, 0`.
    fn charge_step(
        &mut self,
        timeline: &mut Timeline,
        mode: StepMode,
        batch: usize,
        produced: u64,
        applied: u64,
    ) {
        if produced == 0 || applied == produced {
            timeline.merge(self.step(mode, batch));
            return;
        }
        let sparse = cold_sparse_optimizer_cost(&self.profile, &self.sys, batch);
        let delta = sparse * (applied as f64 / produced as f64 - 1.0);
        let entry = self.step(mode, batch);
        let mut adjusted = Timeline::new();
        for phase in Phase::ALL {
            let mut secs = entry.get(phase);
            if phase == Phase::Optimizer {
                secs = (secs + delta).max(0.0);
            }
            adjusted.add(phase, secs);
        }
        adjusted.add_cpu_resident((entry.cpu_resident() + delta).max(0.0));
        timeline.merge(&adjusted);
    }
}

fn rows_in(grads: &[SparseGrad]) -> u64 {
    grads.iter().map(|g| g.nnz_rows() as u64).sum()
}

/// Which CPU↔GPU movement of the hot bags a [`Run::sync`] performs.
#[derive(Clone, Copy)]
pub(super) enum SyncDir {
    /// First replication of the bags onto the GPUs.
    Initial,
    /// Cold→hot transition: master rows into the bags.
    Refresh,
    /// Hot→cold transition: resident bag rows into the master.
    WriteBack,
    /// This many failed attempts of the coming refresh: each moved the
    /// bytes before dying, none moved any data.
    Retry(u32),
    /// A replication attempt that ran out of device memory part-way.
    AbortedReplication,
}

/// The lookahead input of one hot step: the epoch's oracle and where in
/// its `block`-step hot block the step sits.
pub(super) struct Lookahead<'o> {
    pub oracle: &'o mut LookaheadOracle,
    pub pos: usize,
    pub block: usize,
}

/// Everything one training run owns between its first step and its
/// [`TrainReport`].
pub(super) struct Run<'a, En: StepEngine> {
    cfg: &'a TrainConfig,
    partitions: &'a [HotColdPartition],
    engine: En,
    master: MasterEmbeddings,
    hot: HotEmbeddings,
    /// Stale-skip state: deferred cold-row gradients (DESIGN.md §15).
    skip: Option<DeferredSparse>,
    costs: CostModel,
    timeline: Timeline,
    /// The timeline as of the last journalled event: every mutation is
    /// journalled as the delta against this snapshot, so the journal's
    /// phase seconds sum exactly to `TrainReport::simulated_seconds`.
    journalled: Timeline,
    telem: Telemetry,
    span: SpanGuard,
    sim_at_start: f64,
    test_batches: Vec<MiniBatch>,
    pub(super) injector: FaultInjector,
    retry: RetryPolicy,
    net_faults: Vec<InjectedFault>,
    recoveries: Vec<RecoveryAction>,
    history: Vec<EvalPoint>,
    oracle_stats: OracleStats,
    pub(super) steps: usize,
    hot_steps: usize,
    cold_steps: usize,
    transitions: usize,
    gpus_active: usize,
    /// Degraded to CPU-only cold execution: no GPU can host the hot bags.
    pub(super) cold_only: bool,
    /// The scheduler rate of the current round, journalled on every step.
    pub(super) rate: u32,
    halt_at: usize,
    interrupted: bool,
}

impl<'a, En: StepEngine> Run<'a, En> {
    /// Builds the run around a freshly built (or checkpoint-restored)
    /// model and master; `make_engine` wraps the model as replica 0.
    /// `skip` is the stale-skip pool of an FAE run; the baseline passes
    /// `None` whatever `cfg.stale_skip` says, so the reference of a
    /// baseline-vs-FAE comparison never moves with the FAE run's knobs.
    #[allow(clippy::too_many_arguments)] // the inputs of one training run
    pub(super) fn new(
        spec: &WorkloadSpec,
        cfg: &'a TrainConfig,
        partitions: &'a [HotColdPartition],
        model: AnyModel,
        master: MasterEmbeddings,
        make_engine: impl FnOnce(AnyModel) -> En,
        skip: Option<DeferredSparse>,
        test: &Dataset,
        opts: &ResilienceOptions,
    ) -> Self {
        let telem = opts.telemetry.clone();
        let span = telem.span("train");
        let mut injector = FaultInjector::new(opts.plan.clone());
        injector.set_telemetry(telem.clone());
        // The execution engine owns the model replicas from here on. A
        // checkpoint restore only touched replica 0, so re-broadcast its
        // parameters before the first step.
        let mut engine = make_engine(model);
        engine.broadcast_params();
        engine.set_telemetry(telem.clone());
        let mut hot = HotEmbeddings::build(&master, partitions.to_vec());
        hot.set_telemetry(telem.clone());
        let profile = bridge::profile_for(spec, hot.hot_bytes() as f64);
        let gpus_active = cfg.num_gpus.max(1);
        Self {
            cfg,
            partitions,
            engine,
            master,
            hot,
            skip,
            costs: CostModel::new(profile, gpus_active),
            timeline: Timeline::new(),
            journalled: Timeline::new(),
            telem,
            span,
            sim_at_start: 0.0,
            test_batches: make_test_batches(test, cfg.minibatch_size, cfg.eval_batches),
            injector,
            retry: RetryPolicy::default(),
            net_faults: Vec::new(),
            recoveries: Vec::new(),
            history: Vec::new(),
            oracle_stats: OracleStats::default(),
            steps: 0,
            hot_steps: 0,
            cold_steps: 0,
            transitions: 0,
            gpus_active,
            cold_only: false,
            rate: 0,
            halt_at: opts.halt_after_steps.unwrap_or(usize::MAX),
            interrupted: false,
        }
    }

    /// Adopts the bookkeeping of a checkpoint whose model and master the
    /// run was built from.
    pub(super) fn restore(&mut self, ck: TrainCheckpoint) {
        self.timeline = ck.timeline;
        self.history = ck.history;
        self.steps = ck.steps as usize;
        self.hot_steps = ck.hot_steps as usize;
        self.cold_steps = ck.cold_steps as usize;
        self.transitions = ck.transitions as usize;
        self.gpus_active = ck.gpus_active as usize;
        self.costs.set_gpus(self.gpus_active);
        self.cold_only = ck.cold_only;
        self.injector.restore(ck.faults);
        self.recoveries = ck.recoveries;
        self.recoveries.push(RecoveryAction::ResumedFromCheckpoint { step: ck.steps });
        self.engine.on_master_restored(&self.master);
    }

    /// Opens the journal: `RunStart`, then either the resume record or
    /// the initial replication of the hot bags onto the GPUs.
    pub(super) fn start(&mut self, spec: &WorkloadSpec, resumed: bool) {
        let cfg = self.cfg;
        self.telem.emit(&JournalEvent::RunStart {
            workload: spec.name.clone(),
            seed: cfg.seed,
            num_gpus: self.gpus_active,
            workers: self.engine.workers(),
            epochs: cfg.epochs,
            minibatch_size: cfg.minibatch_size,
            initial_rate: cfg.initial_rate,
            lookahead: cfg.lookahead as u64,
            stale_skip: cfg.stale_skip as f64,
        });
        self.telem.gauge_set("train.gpus_active", self.gpus_active as f64);
        self.sim_at_start = self.timeline.total();
        self.journalled = self.timeline.clone();
        if !resumed {
            self.sync(SyncDir::Initial, None);
        } else {
            let step = self.steps as u64;
            self.telem.emit(&JournalEvent::Recovery {
                step,
                action: "resumed-from-checkpoint".into(),
                detail: format!("replaying from step {step}"),
            });
            // The checkpoint carried simulated time accumulated before the
            // resume; journal it so the sums-to-total invariant holds for
            // resumed runs too.
            self.telem.emit(&JournalEvent::Charge {
                step,
                label: "resumed-prior-timeline".into(),
                phases: PhaseSeconds::delta(&Timeline::new(), &self.timeline),
            });
            self.telem.counter_add("train.resumes", 1);
        }
    }

    /// Runs one training step — the only place a mini-batch meets the
    /// engine. `Cold` trains against the CPU master tables at hybrid cost
    /// (cold batches, and hot batches of a degraded run); `Hot` trains
    /// against the replicated bags at pure-GPU cost, `ahead` sliding the
    /// lookahead window first. Returns true once the run must halt.
    pub(super) fn step(
        &mut self,
        mb: &MiniBatch,
        mode: StepMode,
        ahead: Option<Lookahead<'_>>,
    ) -> bool {
        let (lr, at) = (self.cfg.lr, self.steps as u64);
        if let Some(ahead) = ahead {
            self.slide_window(ahead, mb.len());
        }
        let loss = match mode {
            StepMode::Hot => {
                let (loss, grads) = self.engine.engine_step(&self.hot, mb, at, mode, lr);
                self.hot.apply_shared(&grads, lr);
                self.costs.charge_step(&mut self.timeline, mode, mb.len(), 0, 0);
                self.hot_steps += 1;
                loss
            }
            StepMode::Cold => {
                // Stale-skip: flush the pending rows this batch is about
                // to read, so the forward pass never sees starved weights.
                let mut flushed = 0u64;
                if let Some(pool) = self.skip.as_mut() {
                    // Raw CSR indices, duplicates and all —
                    // `take_for_access` tolerates them, and skipping the
                    // sort/dedup keeps this off the step's critical path.
                    let access: Vec<&[u32]> =
                        mb.sparse.iter().map(|c| c.indices.as_slice()).collect();
                    if let Some((flush, n)) = pool.take_for_access(&access) {
                        self.master.apply_sparse_grads(&flush, lr);
                        flushed = n;
                    }
                }
                let (loss, grads) = self.engine.engine_step(&self.master, mb, at, mode, lr);
                // Under stale-skip, cold-row updates are deferred into the
                // pool and the sparse-optimizer charge shrinks to the
                // fraction applied. Flushed rows are real optimizer work
                // done this step, so they count toward it (possibly
                // pushing the fraction past 1).
                let (mut produced, mut applied) = (0, 0);
                let grads = match self.skip.as_mut() {
                    Some(pool) => {
                        produced = rows_in(&grads);
                        let (apply, _) = pool.absorb(&grads, self.partitions);
                        applied = rows_in(&apply) + flushed;
                        apply
                    }
                    None => grads,
                };
                self.master.apply_sparse_grads(&grads, lr);
                self.costs.charge_step(&mut self.timeline, mode, mb.len(), produced, applied);
                self.cold_steps += 1;
                loss
            }
        };
        self.steps += 1;
        self.absorb_net();
        let rate = self.rate;
        self.journal(|step, phases| JournalEvent::Step {
            step,
            mode,
            rate,
            loss: loss as f64,
            phases,
        });
        let counter = match mode {
            StepMode::Hot => "train.steps_hot",
            StepMode::Cold => "train.steps_cold",
        };
        self.telem.counter_add(counter, 1);
        self.telem.observe("train.step_loss", loss as f64);
        self.interrupted = self.steps >= self.halt_at;
        self.interrupted
    }

    /// Slides the lookahead window before a hot step: the access set
    /// entering it is fetched K−1 steps before it executes, so its
    /// transfer overlaps K−1 steps of compute; only the non-hidden excess
    /// is charged. Sets past this block are left to the next block's plan
    /// — the master thaws between blocks, so bytes fetched across the
    /// boundary would go stale.
    fn slide_window(&mut self, ahead: Lookahead<'_>, batch: usize) {
        let Lookahead { oracle, pos, block } = ahead;
        let window = oracle.window();
        if pos > 0 && pos + window - 1 < block {
            if let Some(entering) = oracle.peek(window - 1) {
                let (rows, bytes) = self.hot.fetch_missing(&self.master, &entering.per_table);
                if rows > 0 {
                    self.oracle_stats.prefetched_rows += rows;
                    self.oracle_stats.moved_bytes += bytes;
                    let hidden =
                        (window - 1) as f64 * self.costs.step(StepMode::Hot, batch).total();
                    let transfer = sync_cost(&self.costs.sys, bytes as f64).total();
                    self.timeline.add(Phase::EmbedSync, (transfer - hidden).max(0.0));
                }
            }
        }
        // Demand self-check: with an exact oracle this step's rows are
        // already resident, so misses stay 0; a nonzero count is a planner
        // bug the fetch below keeps from corrupting training.
        if let Some(cur) = oracle.advance() {
            let accessed = cur.rows() as u64;
            let (miss_rows, miss_bytes) = self.hot.fetch_missing(&self.master, &cur.per_table);
            if miss_rows > 0 {
                self.oracle_stats.misses += miss_rows;
                self.oracle_stats.moved_bytes += miss_bytes;
                self.timeline.merge(&sync_cost(&self.costs.sys, miss_bytes as f64));
            }
            self.oracle_stats.hits += accessed - miss_rows;
        }
    }

    /// Moves (or, for the fault directions, only pays for) hot-bag bytes
    /// across PCIe, charges `sync_cost` of them and journals the one
    /// `Sync` event. `plan` is the oracle's residency plan for the hot
    /// block being entered or left: a refresh copies only the planned
    /// rows and evicts the rest (free — the master already holds them),
    /// a write-back only rows that were resident; `None` means the whole
    /// bag is resident.
    pub(super) fn sync(&mut self, dir: SyncDir, plan: Option<&[Vec<u32>]>) {
        let full = self.hot.sync_bytes() as u64;
        let (direction, bytes, attempts) = match dir {
            SyncDir::Initial => ("initial", full, 1),
            SyncDir::AbortedReplication => ("aborted-replication", full, 1),
            SyncDir::Retry(failures) => ("retry", full, failures),
            SyncDir::Refresh => {
                let (moved, evicted) = self.hot.refresh(&self.master, plan);
                let planned = plan.map_or(0, |p| p.iter().map(|r| r.len() as u64).sum());
                self.oracle_stats.prefetched_rows += planned;
                self.oracle_stats.evicted_rows += evicted;
                ("refresh", moved, 1)
            }
            SyncDir::WriteBack => ("write-back", self.hot.write_back_resident(&mut self.master), 1),
        };
        if plan.is_some() {
            self.oracle_stats.moved_bytes += bytes;
            self.oracle_stats.full_bytes += full;
        }
        let cost = sync_cost(&self.costs.sys, bytes as f64);
        for _ in 0..attempts {
            self.timeline.merge(&cost);
        }
        let step = self.steps as u64;
        match dir {
            SyncDir::Refresh => {
                self.transitions += 1;
                self.engine.on_refresh(step, &self.master, &self.hot);
                self.absorb_net();
            }
            SyncDir::WriteBack => {
                self.transitions += 1;
                self.engine.on_write_back(step, &self.master);
                self.absorb_net();
            }
            _ => {}
        }
        let bytes = bytes * attempts as u64;
        self.journal(|step, phases| JournalEvent::Sync {
            step,
            direction: direction.into(),
            bytes,
            phases,
        });
        self.telem.counter_add("replicator.sync_bytes", bytes);
    }

    /// Absorbs the engine's transport side effects into the run's
    /// bookkeeping. `step_charges` fold into the surrounding journal
    /// delta; `event_charges` advance the snapshot too, because the
    /// drained journal events already carry those phase seconds.
    fn absorb_net(&mut self) {
        let net = self.engine.drain_net();
        if net.is_empty() {
            return;
        }
        self.timeline.merge(&net.step_charges);
        self.timeline.merge(&net.event_charges);
        self.journalled.merge(&net.event_charges);
        for ev in &net.journal {
            self.telem.emit(ev);
        }
        self.net_faults.extend(net.faults);
        self.recoveries.extend(net.recoveries);
    }

    /// Journals the event `make` builds from the current step count and
    /// the per-phase seconds charged since the last event, advancing the
    /// snapshot. Every timeline mutation is journalled through here, which
    /// keeps the journal's invariant (its phase seconds sum to
    /// `Timeline::total`) and makes a disabled sink cost one branch: no
    /// delta, no snapshot clone, no event strings.
    fn journal(&mut self, make: impl FnOnce(u64, PhaseSeconds) -> JournalEvent) {
        if self.telem.enabled() {
            let phases = PhaseSeconds::delta(&self.journalled, &self.timeline);
            self.journalled.clone_from(&self.timeline);
            self.telem.emit(&make(self.steps as u64, phases));
        }
    }

    /// Journals whatever the timeline gained since the last event as a
    /// `Charge` under `label`.
    fn charge(&mut self, label: &str) {
        self.journal(|step, phases| JournalEvent::Charge { step, label: label.into(), phases });
    }

    /// Records what the run did about a fault: the report entry, the
    /// simulated time it cost (already on the timeline, journalled here
    /// under `charge_label`) and the journal's `Recovery` event.
    fn recover(
        &mut self,
        taken: RecoveryAction,
        charge_label: Option<&str>,
        action: &str,
        detail: String,
    ) {
        self.recoveries.push(taken);
        if let Some(label) = charge_label {
            self.charge(label);
        }
        self.telem.emit(&JournalEvent::Recovery {
            step: self.steps as u64,
            action: action.into(),
            detail,
        });
    }

    /// Device loss manifests at the round boundary (the allreduce after
    /// it would time out): shrink to the survivors, pay the re-shard,
    /// continue at the N−1 cost model. Losing the last GPU leaves nothing
    /// to host the hot bags: CPU-only cold execution for the rest of the
    /// run.
    pub(super) fn lose_device(&mut self) {
        let step = self.steps as u64;
        if self.gpus_active > 1 {
            let from = self.gpus_active;
            self.gpus_active -= 1;
            self.costs.set_gpus(self.gpus_active);
            let dense_bytes = self.engine.primary_ref().dense_param_count() as f64 * 4.0;
            let hot_bytes = self.hot.hot_bytes() as f64;
            self.timeline.merge(&reshard_cost(&self.costs.sys, dense_bytes, hot_bytes));
            self.recover(
                RecoveryAction::ShrankReplicas {
                    step,
                    from: from as u32,
                    to: self.gpus_active as u32,
                },
                Some("reshard"),
                "shrank-replicas",
                format!("{from} -> {}", self.gpus_active),
            );
            self.telem.gauge_set("train.gpus_active", self.gpus_active as f64);
        } else if !self.cold_only {
            self.fall_back_to_cold("last GPU lost; CPU-only cold execution");
        }
    }

    /// Degrades to CPU-only cold execution: every remaining batch trains
    /// against the master tables.
    pub(super) fn fall_back_to_cold(&mut self, why: &str) {
        let step = self.steps as u64;
        self.cold_only = true;
        self.engine.on_cold_only(step);
        self.recover(RecoveryAction::ColdFallback { step }, None, "cold-fallback", why.into());
    }

    /// Sync failure: a deterministic number of failed attempts in
    /// `[1, max_attempts)`, each moving the bytes before dying and each
    /// backoff wait stalling the framework. One journal entry covers
    /// them all: the re-moved bytes plus the Framework-phase stalls.
    pub(super) fn retry_sync(&mut self, fault: &InjectedFault) {
        let spread = (self.retry.max_attempts - 1) as u64;
        let failures = 1 + self.injector.variation(fault, spread) as u32;
        let mut waited = 0.0;
        for attempt in 1..=failures {
            let d = self.retry.backoff_delay(attempt);
            self.timeline.add(Phase::Framework, d);
            waited += d;
        }
        self.sync(SyncDir::Retry(failures), None);
        self.recover(
            RecoveryAction::SyncRetried {
                step: self.steps as u64,
                attempts: failures + 1,
                waited_s: waited,
            },
            None,
            "sync-retried",
            format!("{} attempts, {waited:.3}s backoff", failures + 1),
        );
    }

    /// Evaluates on the (synchronised) master copy; `adapt` turns the
    /// test loss into the scheduler's next rate (`None` for a run with no
    /// scheduler).
    pub(super) fn evaluate(&mut self, adapt: impl FnOnce(f64) -> Option<u32>) {
        let e = evaluate(self.engine.primary(), &self.master, &self.test_batches);
        let rate = adapt(e.loss);
        self.history.push(EvalPoint {
            iteration: self.steps,
            test_loss: e.loss,
            test_accuracy: e.accuracy,
            rate,
            hot_steps: self.hot_steps,
            cold_steps: self.cold_steps,
            sim_seconds: self.timeline.total(),
        });
        self.telem.emit(&JournalEvent::Eval {
            step: self.steps as u64,
            test_loss: e.loss,
            test_accuracy: e.accuracy,
            rate,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            sim_seconds: self.timeline.total(),
        });
    }

    /// Checkpoints at a round boundary: master tables are authoritative
    /// and the scheduler has just adapted. Saving charges no simulated
    /// time — a monitored run costs the same as an unmonitored one —
    /// unless injected transient I/O makes the first attempts fail, which
    /// the bounded-backoff retry absorbs.
    pub(super) fn checkpoint(
        &mut self,
        dir: &Path,
        epoch: usize,
        (hot_cursor, cold_cursor): (usize, usize),
        scheduler: &ShuffleScheduler,
    ) {
        // Flush deferred updates into the master before snapshotting: the
        // checkpoint must carry no hidden state for resume to stay
        // bit-identical (a resumed run restarts with an empty pool, and
        // the continuing run also flushed here — same state either way).
        if let Some((flush, _)) = self.skip.as_mut().and_then(DeferredSparse::flush_all) {
            self.master.apply_sparse_grads(&flush, self.cfg.lr);
        }
        let mut dense_params = Vec::new();
        self.engine.primary_ref().write_params(&mut dense_params);
        let step = self.steps as u64;
        let ck = TrainCheckpoint {
            config_seed: self.cfg.seed,
            epoch: epoch as u32,
            hot_cursor: hot_cursor as u64,
            cold_cursor: cold_cursor as u64,
            steps: step,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            transitions: self.transitions as u64,
            gpus_active: self.gpus_active as u32,
            cold_only: self.cold_only,
            scheduler: scheduler.state(),
            timeline: self.timeline.clone(),
            history: self.history.clone(),
            faults: self.injector.log().to_vec(),
            recoveries: self.recoveries.clone(),
            dense_params,
            tables: TrainCheckpoint::snapshot_master(&self.master),
        };
        let spread = (self.retry.max_attempts - 1) as u64;
        let io_failures = self
            .injector
            .fire(FaultKind::TransientIo, step)
            .map_or(0, |f| 1 + self.injector.variation(&f, spread) as u32);
        let saved = retry_with_backoff(&self.retry, |attempt| {
            if attempt <= io_failures {
                Err(io::Error::other("injected transient i/o failure"))
            } else {
                ck.save(dir).map_err(|e| io::Error::other(e.to_string()))
            }
        });
        match saved {
            Ok(r) => {
                if r.attempts > 1 {
                    self.timeline.add(Phase::Framework, r.waited_s);
                    self.recover(
                        RecoveryAction::RetriedIo { attempts: r.attempts, waited_s: r.waited_s },
                        Some("checkpoint-io"),
                        "retried-io",
                        format!("{} attempts, {:.3}s backoff", r.attempts, r.waited_s),
                    );
                }
                self.telem.counter_add("train.checkpoints_saved", 1);
            }
            // Checkpointing is best-effort: losing one snapshot must not
            // kill the training run.
            Err((e, attempts, _)) => {
                eprintln!("fae: checkpoint save failed after {attempts} attempts: {e}")
            }
        }
    }

    /// Closes the run: final evaluations (held-out, and `train_sample`),
    /// the journal's tail, the end-of-run gauges and the model digest.
    pub(super) fn finish(
        mut self,
        train_sample: &[MiniBatch],
        final_rate: Option<u32>,
    ) -> TrainReport {
        // Whatever the skip pool still holds is dropped — these are the
        // elided stale updates of arXiv 2404.04270. The final evaluation
        // (and the digest) see the master without them.
        if let Some(pool) = self.skip.as_mut() {
            pool.drop_pending();
        }
        let skip = self.skip.as_ref().map(DeferredSparse::stats).unwrap_or_default();
        let oracle = self.oracle_stats;
        let final_test = evaluate(self.engine.primary(), &self.master, &self.test_batches);
        let final_train = evaluate(self.engine.primary(), &self.master, train_sample);
        self.absorb_net();
        let telem = self.telem.clone();
        let (steps, total) = (self.steps, self.timeline.total());
        // Any transport charges drained after the last step have no Step
        // event to absorb them; journal the residual so the phase seconds
        // still sum to the final timeline.
        if PhaseSeconds::delta(&self.journalled, &self.timeline).total() > 0.0 {
            self.charge("net-drain");
        }
        if self.skip.is_some() {
            telem.counter_add("skip.deferred", skip.deferred);
            telem.counter_add("skip.flushed_threshold", skip.flushed_threshold);
            telem.counter_add("skip.flushed_access", skip.flushed_access);
            telem.counter_add("skip.flushed_checkpoint", skip.flushed_checkpoint);
            telem.counter_add("skip.dropped", skip.dropped);
        }
        if self.cfg.lookahead > 0 {
            telem.counter_add("oracle.prefetched_rows", oracle.prefetched_rows);
            telem.counter_add("oracle.evicted_rows", oracle.evicted_rows);
            telem.counter_add("oracle.hits", oracle.hits);
            telem.counter_add("oracle.misses", oracle.misses);
            telem.counter_add("oracle.moved_bytes", oracle.moved_bytes);
            telem.counter_add(
                "oracle.saved_bytes",
                oracle.full_bytes.saturating_sub(oracle.moved_bytes),
            );
        }
        telem.emit(&JournalEvent::RunEnd {
            steps: steps as u64,
            hot_steps: self.hot_steps as u64,
            cold_steps: self.cold_steps as u64,
            transitions: self.transitions as u64,
            simulated_seconds: total,
            final_accuracy: final_test.accuracy,
            final_rate,
            interrupted: self.interrupted,
        });
        telem.gauge_set("train.simulated_seconds", total);
        telem.gauge_set("train.final_accuracy", final_test.accuracy);
        telem
            .gauge_set("train.steps_per_sec", if total > 0.0 { steps as f64 / total } else { 0.0 });
        telem.gauge_set(
            "train.hot_step_share",
            if steps > 0 { self.hot_steps as f64 / steps as f64 } else { 0.0 },
        );
        self.span.add_sim(total - self.sim_at_start);
        drop(self.span);
        let mut final_dense = Vec::new();
        self.engine.primary_ref().write_params(&mut final_dense);
        let digest = master_digest(&final_dense, &self.master);
        let mut faults = self.injector.log().to_vec();
        if !self.net_faults.is_empty() {
            faults.extend(self.net_faults);
            faults.sort_by_key(|f| f.step);
        }
        TrainReport {
            history: self.history,
            final_test,
            final_train,
            simulated_seconds: total,
            avg_gpu_power_w: average_gpu_power(&self.timeline),
            timeline: self.timeline,
            hot_steps: self.hot_steps,
            cold_steps: self.cold_steps,
            transitions: self.transitions,
            final_rate,
            faults,
            recoveries: self.recoveries,
            interrupted: self.interrupted,
            model_digest: digest,
            oracle,
            skip,
        }
    }
}
