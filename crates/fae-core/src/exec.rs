//! The parallel execution engine: per-device worker threads with
//! deterministic gradient reduction.
//!
//! The trainer used to execute every simulated device's step serially on
//! one thread, so only the *simulated* clock sped up with more GPUs. This
//! engine holds `W` bit-identical model replicas and runs each
//! mini-batch's contiguous sample shards on `W` worker threads (one per
//! simulated device; worker 0 is the caller's), then reduces the dense
//! gradients in worker-index order and applies the identical reduced
//! gradient to every replica — the synchronous data-parallel SGD of the
//! paper's §II-B, but actually concurrent.
//!
//! # Determinism contract
//!
//! For a *fixed* worker count the engine is bit-identical run to run (and
//! across checkpoint/resume):
//!
//! * batch sharding is a pure function of `(batch_len, W)`
//!   ([`fae_data::MiniBatch::shards`]);
//! * worker `w` scales its loss gradient by `n_w / N` before
//!   backpropagation, so summing worker gradients reproduces the
//!   full-batch mean-loss gradient;
//! * dense gradients are summed in **worker-index order** on the calling
//!   thread — never in completion order — so float summation order is
//!   fixed regardless of thread scheduling;
//! * sparse gradients are merged per table in the same worker-index
//!   order, and applied by the caller from one thread, after the worker
//!   threads are joined (to the master tables, or to the hot bags through
//!   [`HotEmbeddings::apply_shared`]);
//! * every replica loads the *same* reduced gradient via
//!   [`RecModel::read_grads`] and steps, so replicas never drift — there
//!   is no parameter broadcast after step 0.
//!
//! Different worker counts may differ in the last float bit (summation
//! order changes), exactly like real data-parallel training. `W = 1` is
//! the one-shard case: its scale is exactly 1.0, which
//! [`forward_backward`] skips, and [`reduce_shards`] returns a lone output
//! unchanged, so it is arithmetic-for-arithmetic identical to the serial
//! [`fae_models::train_step`] path, which is what keeps the pre-engine
//! golden results valid. The shards run through [`fan_out`]: shard 0 on
//! the calling thread, so a lone shard spawns nothing and keeps every
//! core for its products, and each of `W` shards computes on `1/W` of
//! the caller's cores.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fae_data::{MiniBatch, WorkloadSpec};
use fae_embed::SparseGrad;
use fae_models::{forward_backward, EmbeddingSource, MasterEmbeddings, RecModel};
use fae_nn::cores::fan_out;
use fae_sysmodel::Timeline;
use fae_telemetry::{JournalEvent, StepMode, Telemetry};

use crate::faults::{InjectedFault, RecoveryAction};
use crate::replicator::HotEmbeddings;
use crate::trainer::AnyModel;

/// `W` bit-identical model replicas plus the scoped-thread step executor.
pub struct ParallelEngine {
    replicas: Vec<AnyModel>,
    telemetry: Telemetry,
}

/// What one worker — a local thread or a remote node — produces for the
/// deterministic reduction.
pub struct ShardOutput {
    /// Shard-mean BCE loss, already grad-scaled by the worker.
    pub loss: f32,
    /// Samples in the shard (`n_w`).
    pub samples: usize,
    /// Dense gradients extracted via [`RecModel::write_grads`].
    pub dense: Vec<f32>,
    /// Per-table sparse embedding gradients.
    pub sparse: Vec<SparseGrad>,
}

/// Runs one shard's forward/backward on `replica`, scaling the loss
/// gradient by `shard.len() / total` so that summing worker gradients
/// reproduces the full-batch mean-loss gradient. This is the exact
/// per-worker arithmetic of [`ParallelEngine::step`], exposed so a
/// networked engine can run the *same* computation for shards whose
/// owning node is unreachable.
pub fn compute_shard<E>(
    replica: &mut AnyModel,
    emb: &E,
    shard: &MiniBatch,
    total: usize,
) -> ShardOutput
where
    E: EmbeddingSource + Sync,
{
    let scale = shard.len() as f32 / total as f32;
    let (loss, sparse) = forward_backward(replica, emb, shard, scale);
    let mut dense = Vec::new();
    replica.write_grads(&mut dense);
    ShardOutput { loss, samples: shard.len(), dense, sparse }
}

/// Reduces worker outputs strictly in worker-index order — never in
/// completion or arrival order — returning `(loss, dense, sparse)`.
/// Skipped shards (`None`) contribute nothing; float summation order is
/// therefore a pure function of which indices produced output. Every
/// non-empty shard must have an output, so a lone output holds the whole
/// batch and comes back exactly as it is: merging it onto zeroed
/// gradients would turn a `-0.0` into `+0.0`.
pub fn reduce_shards(
    outputs: Vec<Option<ShardOutput>>,
    total: usize,
    num_tables: usize,
    dim: usize,
) -> (f32, Vec<f32>, Vec<SparseGrad>) {
    let mut outputs: Vec<ShardOutput> = outputs.into_iter().flatten().collect();
    if outputs.len() == 1 {
        let ShardOutput { loss, dense, sparse, .. } = outputs.remove(0);
        return (loss, dense, sparse);
    }
    let mut loss = 0.0f32;
    let mut combined: Vec<f32> = Vec::new();
    let mut merged: Vec<SparseGrad> = (0..num_tables).map(|_| SparseGrad::new(dim)).collect();
    for out in outputs {
        loss += out.loss * (out.samples as f32 / total as f32);
        if combined.is_empty() {
            combined = out.dense;
        } else {
            for (c, &g) in combined.iter_mut().zip(&out.dense) {
                *c += g;
            }
        }
        for (m, s) in merged.iter_mut().zip(&out.sparse) {
            m.merge(s);
        }
    }
    (loss, combined, merged)
}

impl ParallelEngine {
    /// Wraps an already-built model as replica 0 and clones `workers - 1`
    /// further replicas by re-seeding the model RNG — [`AnyModel`]
    /// construction consumes a deterministic prefix of the seed stream,
    /// so every replica is bit-identical to the first.
    pub fn from_model(model: AnyModel, spec: &WorkloadSpec, seed: u64, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut replicas = Vec::with_capacity(workers);
        replicas.push(model);
        for _ in 1..workers {
            let mut rng = StdRng::seed_from_u64(seed);
            replicas.push(AnyModel::from_spec(spec, &mut rng));
        }
        Self { replicas, telemetry: Telemetry::disabled() }
    }

    /// Executes one training step: shards `batch` across the replicas
    /// (shard 0 on the calling thread), reduces, and applies the dense
    /// update to every replica.
    /// Returns the mini-batch mean BCE loss and the merged per-table
    /// sparse gradients (keyed as the embedding source keys them); the
    /// caller applies those to its embedding source — which is what lets
    /// the same engine drive both the CPU master tables (cold steps) and
    /// the hot bags (hot steps).
    pub fn step<E>(&mut self, emb: &E, batch: &MiniBatch, lr: f32) -> (f32, Vec<SparseGrad>)
    where
        E: EmbeddingSource + Sync,
    {
        assert!(!batch.is_empty(), "cannot train on an empty mini-batch");
        let n = batch.len();
        let shards = batch.shards(self.replicas.len());
        let telemetry = &self.telemetry;
        let work = self.replicas.iter_mut().zip(&shards).enumerate().collect();
        let outputs = fan_out(work, |(k, (replica, shard))| {
            if shard.is_empty() {
                return None;
            }
            let _span = telemetry.enabled().then(|| telemetry.span(&format!("train/worker{k}")));
            Some(compute_shard(replica, emb, shard, n))
        });

        // Reduce on the calling thread, strictly in worker-index order.
        let (loss, combined, merged) = reduce_shards(outputs, n, emb.num_tables(), emb.dim());
        // Replicas that sat out (empty shard) overwrite their stale grads too.
        self.apply_combined(&combined, lr);
        (loss, merged)
    }

    /// Mutable access to replica `k` — a networked engine computing an
    /// unreachable node's shard locally runs the exact per-worker
    /// arithmetic ([`compute_shard`]) against this replica.
    pub fn replica_mut(&mut self, k: usize) -> &mut AnyModel {
        &mut self.replicas[k]
    }

    /// Applies an already-reduced dense gradient to every replica and
    /// steps — the second half of [`ParallelEngine::step`], exposed so a
    /// networked engine can reduce remote [`ShardOutput`]s itself and
    /// still update the local replicas identically.
    pub fn apply_combined(&mut self, combined: &[f32], lr: f32) {
        for r in &mut self.replicas {
            r.read_grads(combined);
            r.sgd_step(lr);
        }
    }
}

/// Side effects a [`StepEngine`] accumulated since the last
/// [`StepEngine::drain_net`] — simulated-time charges, journal events,
/// injected faults and recovery actions produced by the transport layer
/// rather than the training loop itself. The purely local
/// [`ParallelEngine`] never produces any.
pub struct NetEvents {
    /// Charges to fold into the *surrounding* step's journal delta (the
    /// trainer merges these into the timeline only, so the next `Step` /
    /// `Sync` journal event absorbs them into its phase seconds).
    pub step_charges: Timeline,
    /// Charges already covered by a phase-carrying event in `journal`
    /// (the trainer merges these into both the timeline and its journal
    /// snapshot, so they are not double-counted).
    pub event_charges: Timeline,
    /// Journal events to emit (membership changes, reshard phases, …).
    /// Their phase seconds must sum to `event_charges`.
    pub journal: Vec<JournalEvent>,
    /// Faults the transport injected, for the run report.
    pub faults: Vec<InjectedFault>,
    /// Recovery actions the transport took, for the run report.
    pub recoveries: Vec<RecoveryAction>,
}

impl Default for NetEvents {
    fn default() -> Self {
        Self {
            step_charges: Timeline::new(),
            event_charges: Timeline::new(),
            journal: Vec::new(),
            faults: Vec::new(),
            recoveries: Vec::new(),
        }
    }
}

impl NetEvents {
    /// True when there is nothing to absorb.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
            && self.faults.is_empty()
            && self.recoveries.is_empty()
            && self.step_charges.total() == 0.0
            && self.event_charges.total() == 0.0
    }
}

/// A training-step executor the FAE trainer can drive: the in-process
/// [`ParallelEngine`], or a networked engine fanning shards out to
/// worker processes (`fae-net`). The trainer is generic over this trait
/// ([`crate::trainer::train_fae_with_engine`]), so the schedule, cost
/// model, fault handling and checkpointing are written once.
///
/// The contract mirrors [`ParallelEngine`]'s determinism guarantees: for
/// a fixed worker count, `engine_step` must return bit-identical results
/// to `ParallelEngine::step` with the same replicas — regardless of
/// where the shards were computed.
pub trait StepEngine {
    /// Executes one training step over `batch` against `emb` and returns
    /// the mean loss plus merged per-table sparse gradients (the caller
    /// applies those to its embedding source). `step` and `mode` let a
    /// networked engine tag wire messages; the local engine ignores them.
    fn engine_step<E>(
        &mut self,
        emb: &E,
        batch: &MiniBatch,
        step: u64,
        mode: StepMode,
        lr: f32,
    ) -> (f32, Vec<SparseGrad>)
    where
        E: EmbeddingSource + Sync;

    /// Logical worker (shard) count.
    fn workers(&self) -> usize;

    /// Replica 0, for evaluation and checkpointing.
    fn primary(&mut self) -> &mut AnyModel;

    /// Immutable replica 0.
    fn primary_ref(&self) -> &AnyModel;

    /// Re-broadcasts replica 0's dense parameters to every replica
    /// (after a checkpoint restore).
    fn broadcast_params(&mut self);

    /// Attaches a telemetry handle.
    fn set_telemetry(&mut self, telemetry: Telemetry);

    /// The trainer just refreshed the hot bags from the master tables; a
    /// networked engine ships the refreshed rows to its workers here.
    fn on_refresh(&mut self, _step: u64, _master: &MasterEmbeddings, _hot: &HotEmbeddings) {}

    /// The trainer just wrote the hot bags back into the master tables.
    fn on_write_back(&mut self, _step: u64, _master: &MasterEmbeddings) {}

    /// The run degraded to CPU-only cold execution; no further hot
    /// shards will be fanned out.
    fn on_cold_only(&mut self, _step: u64) {}

    /// A checkpoint restore replaced the master tables (and replica 0's
    /// parameters, already re-broadcast) before the first step.
    fn on_master_restored(&mut self, _master: &MasterEmbeddings) {}

    /// Drains transport side effects accumulated since the last call;
    /// the trainer absorbs them into the timeline, journal and report.
    fn drain_net(&mut self) -> NetEvents {
        NetEvents::default()
    }
}

impl StepEngine for ParallelEngine {
    fn engine_step<E>(
        &mut self,
        emb: &E,
        batch: &MiniBatch,
        _step: u64,
        _mode: StepMode,
        lr: f32,
    ) -> (f32, Vec<SparseGrad>)
    where
        E: EmbeddingSource + Sync,
    {
        self.step(emb, batch, lr)
    }

    fn workers(&self) -> usize {
        self.replicas.len()
    }

    fn primary(&mut self) -> &mut AnyModel {
        &mut self.replicas[0]
    }

    fn primary_ref(&self) -> &AnyModel {
        &self.replicas[0]
    }

    fn broadcast_params(&mut self) {
        let mut params = Vec::new();
        self.replicas[0].write_params(&mut params);
        for r in self.replicas.iter_mut().skip(1) {
            r.read_params(&params);
        }
    }

    /// Each shard's compute then records real wall-clock seconds under a
    /// `train/worker<k>` span.
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, BatchKind, Dataset, GenOptions};
    use fae_models::MasterEmbeddings;

    impl ParallelEngine {
        /// Maximum absolute dense-parameter divergence across replicas
        /// (must stay exactly 0.0).
        fn max_divergence(&self) -> f32 {
            let mut p0 = Vec::new();
            self.replicas[0].write_params(&mut p0);
            let mut worst = 0.0f32;
            for r in &self.replicas[1..] {
                let mut p = Vec::new();
                r.write_params(&mut p);
                for (a, b) in p0.iter().zip(&p) {
                    worst = worst.max((a - b).abs());
                }
            }
            worst
        }
    }

    fn setup(seed: u64) -> (WorkloadSpec, Dataset) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(21, 1_000));
        let _ = seed;
        (spec, ds)
    }

    fn engine(
        spec: &WorkloadSpec,
        seed: u64,
        workers: usize,
    ) -> (ParallelEngine, MasterEmbeddings) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = AnyModel::from_spec(spec, &mut rng);
        let master = MasterEmbeddings::from_spec(spec, &mut rng);
        (ParallelEngine::from_model(model, spec, seed, workers), master)
    }

    fn run_steps(workers: usize, steps: usize) -> Vec<f32> {
        let (spec, ds) = setup(3);
        let (mut eng, mut master) = engine(&spec, 3, workers);
        let mut losses = Vec::new();
        for s in 0..steps {
            let ids: Vec<usize> = (s * 64..(s + 1) * 64).collect();
            let mb = MiniBatch::gather(&ds, &ids, BatchKind::Unclassified);
            let (loss, grads) = eng.step(&master, &mb, 0.05);
            master.apply_sparse_grads(&grads, 0.05);
            losses.push(loss);
        }
        assert_eq!(eng.max_divergence(), 0.0, "replicas drifted at W={workers}");
        losses
    }

    #[test]
    fn single_worker_matches_serial_train_step_bitwise() {
        let (spec, ds) = setup(3);
        let (mut eng, mut master_eng) = engine(&spec, 3, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = AnyModel::from_spec(&spec, &mut rng);
        let mut master = MasterEmbeddings::from_spec(&spec, &mut rng);
        for s in 0..4 {
            let ids: Vec<usize> = (s * 64..(s + 1) * 64).collect();
            let mb = MiniBatch::gather(&ds, &ids, BatchKind::Unclassified);
            let serial_loss = fae_models::train_step(&mut model, &mut master, &mb, 0.05);
            let (loss, grads) = eng.step(&master_eng, &mb, 0.05);
            master_eng.apply_sparse_grads(&grads, 0.05);
            assert_eq!(loss.to_bits(), serial_loss.to_bits(), "step {s}");
        }
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        model.write_params(&mut pa);
        eng.primary_ref().write_params(&mut pb);
        assert_eq!(pa, pb, "engine W=1 must be bit-identical to train_step");
    }

    #[test]
    fn fixed_worker_count_is_bit_identical_across_runs() {
        for w in [2usize, 4] {
            let a = run_steps(w, 3);
            let b = run_steps(w, 3);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "W={w} not deterministic");
        }
    }

    #[test]
    fn multi_worker_stays_close_to_serial_sgd() {
        // Different float summation order, same mathematics: the W=4 loss
        // trajectory must track W=1 tightly.
        let a = run_steps(1, 5);
        let b = run_steps(4, 5);
        for (s, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() < 1e-3, "step {s}: {x} vs {y}");
        }
        assert!(b[4] < b[0], "training with W=4 must still reduce loss");
    }

    #[test]
    fn more_workers_than_samples_leaves_idle_workers_consistent() {
        let (spec, ds) = setup(3);
        let (mut eng, mut master) = engine(&spec, 3, 4);
        let mb = MiniBatch::gather(&ds, &[0, 1], BatchKind::Unclassified);
        let (loss, grads) = eng.step(&master, &mb, 0.05);
        master.apply_sparse_grads(&grads, 0.05);
        assert!(loss.is_finite());
        assert_eq!(eng.max_divergence(), 0.0);
    }

    #[test]
    fn a_lone_output_comes_back_bit_for_bit() {
        let sparse =
            SparseGrad::from_ascending_rows(2, &[3], vec![-0.0, 1.5]).into_iter().collect();
        let out = ShardOutput { loss: 0.25, samples: 4, dense: vec![-0.0, 2.0], sparse };
        let (loss, dense, grads) = reduce_shards(vec![None, Some(out), None], 4, 1, 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss.to_bits(), 0.25f32.to_bits());
        assert_eq!(bits(&dense), bits(&[-0.0, 2.0]));
        let rows: Vec<(u32, Vec<u32>)> = grads[0].iter().map(|(r, v)| (r, bits(v))).collect();
        assert_eq!(rows, [(3, bits(&[-0.0, 1.5]))], "the -0.0 entry must survive");
    }

    #[test]
    fn broadcast_params_resyncs_replicas() {
        let (spec, _) = setup(3);
        let (mut eng, _) = engine(&spec, 3, 3);
        // Simulate a checkpoint restore touching only replica 0.
        let n = eng.primary_ref().dense_param_count();
        eng.primary().read_params(&vec![0.125f32; n]);
        assert!(eng.max_divergence() > 0.0);
        eng.broadcast_params();
        assert_eq!(eng.max_divergence(), 0.0);
    }
}
