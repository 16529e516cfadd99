//! The training replay: the FAE schedule of `fae_core::train_fae`
//! (cold block, refresh, hot block, write-back, evaluate, adapt) driven
//! from here through the crates' public functions, with a span around
//! every call into a layer. Fault injection, checkpoints and the
//! lookahead oracle are left out: none of them changes the numerics, so
//! a faithful replay must reproduce `train_fae`'s model digest bit for
//! bit — that equality is the replay's output check.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fae_core::input_processor::Preprocessed;
use fae_core::oracle::AccessSet;
use fae_core::trainer::{AnyModel, TrainConfig};
use fae_core::{model_digest, HotEmbeddings, Rate, ShuffleScheduler, StepEngine, TrainCheckpoint};
use fae_data::{MiniBatch, WorkloadKind, WorkloadSpec};
use fae_embed::DeferredSparse;
use fae_models::interaction::Interaction;
use fae_models::{evaluate, EmbeddingSource, MasterEmbeddings, RecModel};
use fae_nn::{bce_loss, bce_loss_backward, Activation, Layer, Mlp, Tensor};
use fae_telemetry::StepMode;

use crate::trace::{Open, Tracer};

/// Everything a replay needs: the inputs of one `train_fae` call.
pub struct Job<'a> {
    /// Workload shape.
    pub spec: &'a WorkloadSpec,
    /// The preprocessed hot/cold stream.
    pub pre: &'a Preprocessed,
    /// Evaluation mini-batches (`make_test_batches` of the test set).
    pub test_batches: &'a [MiniBatch],
    /// The trainer configuration the CLI line maps to.
    pub cfg: &'a TrainConfig,
    /// First evaluation at or above this accuracy sets `steps_to_target`.
    pub accuracy_floor: f64,
}

/// What a replay measured.
pub struct Replayed {
    /// CRC digest of the final model, as `train_fae` computes it.
    pub digest: u32,
    /// Per step: `(hot?, seconds)` of engine step + sparse apply.
    pub steps: Vec<(bool, f64)>,
    /// Seconds inside steps, syncs, evaluations and the digest: the part
    /// of the wall the layer calls explain.
    pub explained_s: f64,
    /// Hot↔cold transitions.
    pub transitions: usize,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Steps run when an evaluation first reached the accuracy floor
    /// (all steps when none did).
    pub steps_to_target: usize,
    /// Mean sparse lookups per probed step.
    pub lookups_per_step: f64,
    /// Mean distinct embedding rows per probed step.
    pub rows_touched_per_step: f64,
    /// Embedding bytes the lookup probes read.
    pub lookup_bytes: f64,
}

/// Derives the shuffle seed for one epoch — the SplitMix64 finalizer of
/// `fae_core::trainer` (private there), without which the replay would
/// visit the batches in another order and the digests could not match.
fn shuffle_seed(seed: u64, epoch: usize) -> u64 {
    let mut z = seed.wrapping_add((epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `max_batches` mini-batches of a stream, hot and cold in
/// their original proportion (at least one of each kind that exists).
pub fn truncate(pre: &Preprocessed, max_batches: usize) -> Preprocessed {
    let total = pre.total_batches();
    if max_batches == 0 || total <= max_batches {
        return pre.clone();
    }
    let share = |n: usize| (n * max_batches).div_ceil(total).min(n);
    Preprocessed {
        hot_batches: pre.hot_batches[..share(pre.hot_batches.len())].to_vec(),
        cold_batches: pre.cold_batches[..share(pre.cold_batches.len())].to_vec(),
        hot_input_fraction: pre.hot_input_fraction,
        partitions: pre.partitions.clone(),
    }
}

/// Harness-owned objects of the workload's shapes on which the calls
/// inside `RecModel::forward/backward` are re-issued as probe spans.
pub struct Probes {
    model: AnyModel,
    bottom: Mlp,
    top: Mlp,
    top_input: Tensor,
    params: Vec<f32>,
    tbsm: bool,
    /// Probe every this many steps (1 = every step).
    pub every: usize,
    lookups: usize,
    rows: usize,
    probed: usize,
    lookup_bytes: f64,
}

impl Probes {
    /// Builds the probe model and MLPs for `spec` at mini-batch `batch`.
    pub fn new(spec: &WorkloadSpec, batch: usize, every: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(0x9E0B);
        let top_in = match spec.kind {
            WorkloadKind::Dlrm => Interaction::out_width(spec.tables.len() + 1, spec.embedding_dim),
            WorkloadKind::Tbsm => 2 * spec.embedding_dim,
        };
        let mut top_sizes = spec.top_mlp.clone();
        top_sizes[0] = top_in;
        let mut next = 0x2545_F491_4F6C_DD1Du64;
        let top_input = Tensor::from_fn(batch, top_in, |_, _| {
            // xorshift: any dense, sign-mixed input of the right shape.
            next ^= next << 13;
            next ^= next >> 7;
            next ^= next << 17;
            (next >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        });
        Self {
            model: AnyModel::from_spec(spec, &mut rng),
            bottom: Mlp::new(&spec.bottom_mlp, Activation::Relu, &mut rng),
            top: Mlp::new(&top_sizes, Activation::Sigmoid, &mut rng),
            top_input,
            params: Vec::new(),
            tbsm: spec.kind == WorkloadKind::Tbsm,
            every: every.max(1),
            lookups: 0,
            rows: 0,
            probed: 0,
            lookup_bytes: 0.0,
        }
    }

    /// Multiply-accumulates of one training step's MLP work at `batch`
    /// rows: forward once, backward twice (dW and dX) per linear layer.
    pub fn mlp_macs_per_step(&self, batch: usize) -> f64 {
        let macs = |m: &Mlp| m.sizes().windows(2).map(|w| w[0] * w[1]).sum::<usize>();
        3.0 * batch as f64 * (macs(&self.bottom) + macs(&self.top)) as f64
    }

    /// Re-issues, as probe spans, the calls one engine step just made:
    /// the model's forward, loss, backward and dense SGD (children of
    /// `engine_span`), then the lookups and MLP passes inside forward
    /// and backward (children of those). The probe model and MLPs first
    /// load the engine's current parameters, so value-dependent kernels
    /// (zero-skipping) see the activations the real step saw.
    #[allow(clippy::too_many_arguments)] // one step's context, passed through by two callers
    fn run<E: EmbeddingSource>(
        &mut self,
        tr: &mut Tracer,
        engine_span: Open,
        primary: &AnyModel,
        emb: &E,
        mb: &MiniBatch,
        lr: f32,
        hot: bool,
        id: u64,
    ) {
        self.params.clear();
        primary.write_params(&mut self.params);
        self.model.read_params(&self.params);
        let n = self.bottom.read_params(&self.params);
        self.top.read_params(&self.params[n..]);
        self.model.zero_grad();

        let fwd = tr.begin_probe("fae-models", "forward", id);
        let pred = self.model.forward(mb, emb);
        tr.end(fwd);
        let target = Tensor::from_vec(mb.len(), 1, mb.labels.clone());
        let loss = tr.begin_probe("fae-nn", "loss", id);
        std::hint::black_box(bce_loss(&pred, &target));
        let grad = bce_loss_backward(&pred, &target);
        tr.end(loss);
        let bwd = tr.begin_probe("fae-models", "backward", id);
        std::hint::black_box(self.model.backward(&grad));
        tr.end(bwd);
        let sgd = tr.begin_probe("fae-nn", "dense_sgd", id);
        self.model.sgd_step(lr);
        tr.end(sgd);
        for child in [fwd, loss, bwd, sgd] {
            tr.adopt(engine_span, child);
        }

        // Inside forward: the embedding lookups and both MLPs.
        let lookup =
            tr.begin_probe("fae-embed", if hot { "hot_lookup" } else { "master_lookup" }, id);
        for (t, csr) in mb.sparse.iter().enumerate() {
            // TBSM reads its item sequence one row per step, not pooled.
            if self.tbsm && t == 0 {
                let unit: Vec<usize> = (0..=csr.indices.len()).collect();
                std::hint::black_box(emb.lookup(t, &csr.indices, &unit));
            } else {
                std::hint::black_box(emb.lookup(t, &csr.indices, &csr.offsets));
            }
        }
        tr.end(lookup);
        let dense = Tensor::from_vec(mb.len(), mb.dense_width, mb.dense.clone());
        let top_in = if self.top_input.rows() == mb.len() {
            self.top_input.clone()
        } else {
            Tensor::from_fn(mb.len(), self.top_input.cols(), |r, c| self.top_input.get(r, c))
        };
        self.bottom.zero_grad();
        self.top.zero_grad();
        let bottom_fwd = tr.begin_probe("fae-nn", "bottom_fwd", id);
        let bottom_out = self.bottom.forward(&dense);
        tr.end(bottom_fwd);
        let top_fwd = tr.begin_probe("fae-nn", "top_fwd", id);
        let top_out = self.top.forward(&top_in);
        tr.end(top_fwd);
        for child in [lookup, bottom_fwd, top_fwd] {
            tr.adopt(fwd, child);
        }

        // Inside backward: both MLPs again (the scatter into sparse
        // gradients and the interaction stay in backward's self time).
        let top_bwd = tr.begin_probe("fae-nn", "top_bwd", id);
        std::hint::black_box(self.top.backward(&top_out.map(|v| v - 0.5)));
        tr.end(top_bwd);
        let bottom_bwd = tr.begin_probe("fae-nn", "bottom_bwd", id);
        std::hint::black_box(self.bottom.backward(&bottom_out.map(|v| v * 0.01)));
        tr.end(bottom_bwd);
        for child in [top_bwd, bottom_bwd] {
            tr.adopt(bwd, child);
        }

        self.probed += 1;
        self.lookups += mb.total_lookups();
        self.rows += AccessSet::of(mb).rows();
        self.lookup_bytes += (mb.total_lookups() * emb.dim() * 4) as f64;
    }
}

struct Loop<'a, 'p, En: StepEngine> {
    job: &'a Job<'a>,
    engine: En,
    master: MasterEmbeddings,
    skip: Option<DeferredSparse>,
    tr: &'a mut Tracer,
    probes: Option<&'p mut Probes>,
    steps: Vec<(bool, f64)>,
    explained_s: f64,
}

impl<En: StepEngine> Loop<'_, '_, En> {
    /// Times `f` under a span and adds it to the explained seconds.
    fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.steps.len() as u64;
        let span = self.tr.begin(layer, name, id);
        let t0 = std::time::Instant::now();
        let r = f(self);
        self.explained_s += t0.elapsed().as_secs_f64();
        self.tr.end(span);
        r
    }

    fn probe_due(&self) -> bool {
        self.tr.enabled()
            && self.probes.as_ref().is_some_and(|p| self.steps.len().is_multiple_of(p.every))
    }

    /// One cold step on the master tables, with the stale-skip pool when
    /// the job has one — the body of the trainer's `cold_step_with_skip`.
    fn cold_step(&mut self, mb: &MiniBatch) {
        let (lr, id) = (self.job.cfg.lr, self.steps.len() as u64);
        let step = self.tr.begin("fae-core", "cold_step", id);
        let t0 = std::time::Instant::now();
        if let Some(pool) = self.skip.as_mut() {
            let access: Vec<&[u32]> = mb.sparse.iter().map(|c| c.indices.as_slice()).collect();
            if let Some((flush, _)) = pool.take_for_access(&access) {
                let s = self.tr.begin("fae-embed", "master_apply", id);
                self.master.apply_sparse_grads(&flush, lr);
                self.tr.end(s);
            }
        }
        let engine_span = self.tr.begin("fae-core", "engine_step", id);
        let (_, grads) = self.engine.engine_step(&self.master, mb, id, StepMode::Cold, lr);
        self.tr.end(engine_span);
        let grads = match self.skip.as_mut() {
            Some(pool) => {
                let s = self.tr.begin("fae-embed", "deferred_absorb", id);
                let (apply, _) = pool.absorb(&grads, &self.job.pre.partitions);
                self.tr.end(s);
                apply
            }
            None => grads,
        };
        let s = self.tr.begin("fae-embed", "master_apply", id);
        self.master.apply_sparse_grads(&grads, lr);
        self.tr.end(s);
        let secs = t0.elapsed().as_secs_f64();
        self.tr.end(step);
        if self.probe_due() {
            if let Some(p) = self.probes.as_mut() {
                p.run(
                    self.tr,
                    engine_span,
                    self.engine.primary_ref(),
                    &self.master,
                    mb,
                    lr,
                    false,
                    id,
                );
            }
        }
        self.explained_s += secs;
        self.steps.push((false, secs));
        let _ = self.engine.drain_net();
    }

    /// One hot step on the replicated bags.
    fn hot_step(&mut self, hot: &HotEmbeddings, mb: &MiniBatch) {
        let (lr, id) = (self.job.cfg.lr, self.steps.len() as u64);
        let step = self.tr.begin("fae-core", "hot_step", id);
        let t0 = std::time::Instant::now();
        let engine_span = self.tr.begin("fae-core", "engine_step", id);
        let (_, grads) = self.engine.engine_step(hot, mb, id, StepMode::Hot, lr);
        self.tr.end(engine_span);
        let s = self.tr.begin("fae-embed", "hot_apply", id);
        hot.apply_shared(&grads, lr);
        self.tr.end(s);
        let secs = t0.elapsed().as_secs_f64();
        self.tr.end(step);
        if self.probe_due() {
            if let Some(p) = self.probes.as_mut() {
                p.run(self.tr, engine_span, self.engine.primary_ref(), hot, mb, lr, true, id);
            }
        }
        self.explained_s += secs;
        self.steps.push((true, secs));
        let _ = self.engine.drain_net();
    }
}

/// Replays the job's FAE schedule through `make_engine`'s engine, at
/// most `max_steps` steps (0 = all; a capped replay's digest is not
/// comparable). Spans go to `tr`; probes run when given and `tr` records.
pub fn replay<En: StepEngine>(
    job: &Job<'_>,
    make_engine: impl FnOnce(AnyModel) -> En,
    tr: &mut Tracer,
    probes: Option<&mut Probes>,
    max_steps: usize,
) -> Replayed {
    let (cfg, pre) = (job.cfg, job.pre);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = AnyModel::from_spec(job.spec, &mut rng);
    let master = if cfg.quantize_cold {
        MasterEmbeddings::from_spec_tiered(job.spec, &pre.partitions, &mut rng)
    } else {
        MasterEmbeddings::from_spec(job.spec, &mut rng)
    };
    let mut scheduler = ShuffleScheduler::new(Rate::new(cfg.initial_rate));
    let mut engine = make_engine(model);
    engine.broadcast_params();
    let mut hot = HotEmbeddings::build(&master, pre.partitions.to_vec());
    let skip = (cfg.stale_skip > 0.0)
        .then(|| DeferredSparse::new(master.num_tables(), master.dim(), cfg.stale_skip, cfg.lr));
    let limit = if max_steps == 0 { usize::MAX } else { max_steps };

    let mut lp =
        Loop { job, engine, master, skip, tr, probes, steps: Vec::new(), explained_s: 0.0 };
    let (n_hot, n_cold) = (pre.hot_batches.len(), pre.cold_batches.len());
    let mut transitions = 0usize;
    let mut steps_to_target = None;

    'epochs: for epoch in 0..cfg.epochs {
        let mut ep_rng = StdRng::seed_from_u64(shuffle_seed(cfg.seed, epoch));
        let mut hot_order: Vec<usize> = (0..n_hot).collect();
        let mut cold_order: Vec<usize> = (0..n_cold).collect();
        hot_order.shuffle(&mut ep_rng);
        cold_order.shuffle(&mut ep_rng);
        let (mut hp, mut cp) = (0usize, 0usize);
        while hp < n_hot || cp < n_cold {
            let rate = scheduler.rate();
            if cp < n_cold {
                let k = rate.block_len(n_cold).min(n_cold - cp);
                for &b in &cold_order[cp..cp + k] {
                    lp.cold_step(&pre.cold_batches[b]);
                    if lp.steps.len() >= limit {
                        break 'epochs;
                    }
                }
                cp += k;
            }
            if hp < n_hot {
                let k = rate.block_len(n_hot).min(n_hot - hp);
                lp.timed("fae-core", "hot_refresh", |lp| hot.refresh_from(&lp.master));
                transitions += 1;
                let at = lp.steps.len() as u64;
                lp.engine.on_refresh(at, &lp.master, &hot);
                let _ = lp.engine.drain_net();
                for &b in &hot_order[hp..hp + k] {
                    lp.hot_step(&hot, &pre.hot_batches[b]);
                    if lp.steps.len() >= limit {
                        break 'epochs;
                    }
                }
                hp += k;
                lp.timed("fae-core", "hot_writeback", |lp| hot.write_back(&mut lp.master));
                transitions += 1;
                let at = lp.steps.len() as u64;
                lp.engine.on_write_back(at, &lp.master);
                let _ = lp.engine.drain_net();
            }
            let e = lp.timed("fae-core", "eval", |lp| {
                evaluate(lp.engine.primary(), &lp.master, job.test_batches)
            });
            scheduler.observe_test_loss(e.loss);
            if steps_to_target.is_none() && e.accuracy >= job.accuracy_floor {
                steps_to_target = Some(lp.steps.len());
            }
        }
    }

    if let Some(pool) = lp.skip.as_mut() {
        pool.drop_pending();
    }
    let final_test = lp.timed("fae-core", "eval", |lp| {
        evaluate(lp.engine.primary(), &lp.master, job.test_batches)
    });
    // The trainer also evaluates a train-side sample before it returns.
    let half = cfg.eval_batches / 2 + 1;
    let train_sample: Vec<MiniBatch> = pre
        .hot_batches
        .iter()
        .take(half)
        .chain(pre.cold_batches.iter().take(half))
        .cloned()
        .collect();
    lp.timed("fae-core", "eval", |lp| evaluate(lp.engine.primary(), &lp.master, &train_sample));
    let digest = lp.timed("fae-core", "digest", |lp| {
        let mut dense = Vec::new();
        lp.engine.primary_ref().write_params(&mut dense);
        model_digest(&dense, &TrainCheckpoint::snapshot_master(&lp.master))
    });

    let total_steps = lp.steps.len();
    let (lookups, rows, bytes) = lp.probes.as_ref().map_or((0.0, 0.0, 0.0), |p| {
        let n = p.probed.max(1) as f64;
        (p.lookups as f64 / n, p.rows as f64 / n, p.lookup_bytes)
    });
    Replayed {
        digest,
        steps: lp.steps,
        explained_s: lp.explained_s,
        transitions,
        final_accuracy: final_test.accuracy,
        steps_to_target: steps_to_target.unwrap_or(total_steps),
        lookups_per_step: lookups,
        rows_touched_per_step: rows,
        lookup_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_core::trainer::make_test_batches;
    use fae_core::{pipeline, train_fae, CalibratorConfig, ParallelEngine, PreprocessConfig};
    use fae_data::{generate, GenOptions};

    fn tiny() -> (WorkloadSpec, Preprocessed, Vec<MiniBatch>, fae_data::Dataset) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(131, 5_000));
        // A shrunken budget, so the tiny tables split into hot and cold.
        let art = pipeline::prepare(
            &ds,
            CalibratorConfig {
                gpu_budget_bytes: 40 << 10,
                small_table_bytes: 2 << 10,
                ..Default::default()
            },
            &PreprocessConfig { minibatch_size: 64, seed: 3 },
        );
        let test = generate(&spec, &GenOptions::sized(7, 600));
        let batches = make_test_batches(&test, 64, 4);
        (spec, art.preprocessed, batches, test)
    }

    fn check_matches_train_fae(cfg: TrainConfig) {
        let (spec, pre, test_batches, test) = tiny();
        assert!(!pre.hot_batches.is_empty() && !pre.cold_batches.is_empty());
        let reference = train_fae(&spec, &pre, &test, &cfg);
        let job = Job {
            spec: &spec,
            pre: &pre,
            test_batches: &test_batches,
            cfg: &cfg,
            accuracy_floor: 0.0,
        };
        let mut tr = Tracer::new();
        let mut probes = Probes::new(&spec, cfg.minibatch_size, 3);
        let workers = cfg.workers;
        let out = replay(
            &job,
            |m| ParallelEngine::from_model(m, &spec, cfg.seed, workers),
            &mut tr,
            Some(&mut probes),
            0,
        );
        assert_eq!(out.digest, reference.model_digest, "replay must reproduce train_fae");
        assert_eq!(out.steps.len(), reference.hot_steps + reference.cold_steps);
        assert_eq!(out.transitions, reference.transitions);
        assert_eq!(out.final_accuracy, reference.final_test.accuracy);
        tr.well_formed().unwrap();
        assert!(tr.self_seconds().iter().all(|&t| t >= 0.0));
        assert!(!tr.seconds_of("fae-models", "forward").is_empty());
        assert!(out.explained_s > 0.0);
    }

    #[test]
    fn replay_reproduces_the_trainer_digest() {
        check_matches_train_fae(TrainConfig {
            minibatch_size: 64,
            initial_rate: 25,
            ..Default::default()
        });
    }

    #[test]
    fn replay_reproduces_the_digest_with_workers_and_modes() {
        check_matches_train_fae(TrainConfig {
            minibatch_size: 64,
            workers: 2,
            ..Default::default()
        });
        check_matches_train_fae(TrainConfig {
            minibatch_size: 64,
            quantize_cold: true,
            lookahead: 4,
            stale_skip: 1e-4,
            ..Default::default()
        });
    }

    #[test]
    fn truncate_keeps_proportion_and_partitions() {
        let (_, pre, _, _) = tiny();
        let cut = truncate(&pre, 8);
        assert!(cut.total_batches() <= 9 && cut.total_batches() >= 2);
        assert!(!cut.hot_batches.is_empty() && !cut.cold_batches.is_empty());
        assert_eq!(cut.partitions.len(), pre.partitions.len());
        assert_eq!(truncate(&pre, 0).total_batches(), pre.total_batches());
    }
}
