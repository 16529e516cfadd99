//! Probes outside the training replay: the static pipeline stage by
//! stage, the FAE container, the serving path one micro-batch at a time,
//! the wire one frame at a time, and the small per-step helpers
//! (cost-model evaluation, journal emit, stale-skip pool, oracle plan,
//! tiered tables). Each wraps the public call it names in a span.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fae_core::calibrator::{log_accesses, sample_inputs};
use fae_core::input_processor::Preprocessed;
use fae_core::oracle::{plan_decisions, AccessSet};
use fae_core::pipeline::StaticArtifacts;
use fae_core::trainer::AnyModel;
use fae_core::{
    artifacts, classify_tables, preprocess_inputs, Calibrator, CalibratorConfig, PreprocessConfig,
};
use fae_data::format::FaeStreamReader;
use fae_data::{BatchKind, Dataset, MiniBatch, WorkloadSpec};
use fae_embed::{DeferredSparse, HotColdPartition, SparseGrad};
use fae_models::{bridge, forward_backward, predict, EmbeddingSource, MasterEmbeddings, RecModel};
use fae_net::deadline::{recv_frame, send_frame};
use fae_net::{Frame, Message};
use fae_serve::{BatcherConfig, MicroBatcher, ServeCache, ServeConfig, ServeEngine, ServeLoad};
use fae_sysmodel::{step_cost, ExecMode, SystemConfig};
use fae_telemetry::{JournalEvent, PhaseSeconds, StepMode, Telemetry};

use perf_common::workloads::Workload;

use crate::trace::Tracer;

/// The calibrator configuration the `fae` CLI derives from a spec.
pub fn cli_calibrator_config(spec: &WorkloadSpec, sample_rate: f64) -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: spec.embedding_bytes() / 8,
        small_table_bytes: 8 << 10,
        sample_rate,
        ..Default::default()
    }
}

/// The static pipeline, stage by stage — the body of
/// `fae_core::pipeline::prepare_with` with a span per stage.
pub fn static_stages(
    tr: &mut Tracer,
    ds: &Dataset,
    cal_cfg: CalibratorConfig,
    pre_cfg: &PreprocessConfig,
) -> StaticArtifacts {
    let calibrator = Calibrator::new(cal_cfg);
    let mut rng: StdRng = SeedableRng::seed_from_u64(calibrator.config.seed);
    let samples = tr.time("fae-core", "sample", 0, || {
        sample_inputs(ds, calibrator.config.sample_rate, &mut rng)
    });
    let counters = tr.time("fae-core", "log_accesses", 0, || log_accesses(ds, &samples));
    let mut calibration =
        tr.time("fae-core", "converge", 0, || calibrator.converge(ds, &counters, &mut rng));
    calibration.sampled_inputs = samples.len();
    let partitions =
        tr.time("fae-core", "classify", 0, || classify_tables(&ds.spec, &counters, &calibration));
    let preprocessed =
        tr.time("fae-core", "preprocess", 0, || preprocess_inputs(ds, partitions, pre_cfg));
    StaticArtifacts { calibration, preprocessed }
}

/// What the container probe measured.
pub struct StreamProbe {
    /// Encoded container size.
    pub stream_bytes: usize,
    /// Mini-batches encoded.
    pub encoded_batches: usize,
    /// Mini-batches the stream reader handed back.
    pub decoded_batches: usize,
    /// Samples the decoded mini-batches hold.
    pub decoded_samples: usize,
    /// True when `artifacts::load` returned the stream that was saved.
    pub load_round_trips: bool,
}

/// Encodes the stream (`FaeFile::encode`), drains it back through
/// `FaeStreamReader::next_batch`, and saves + loads it as the artifact
/// pair `fae train` reads (`artifacts::load`).
pub fn stream_round_trip(
    tr: &mut Tracer,
    art: &StaticArtifacts,
    workload: &str,
    file: &Path,
) -> Result<StreamProbe, String> {
    let pre = &art.preprocessed;
    let fae_file = pre.to_fae_file(workload);
    let bytes = tr.time("fae-data", "encode", 0, || fae_file.encode());
    let (mut decoded_batches, mut decoded_samples) = (0usize, 0usize);
    let drain = tr.begin("fae-data", "decode", 0);
    let mut reader = FaeStreamReader::open(&bytes).map_err(|e| format!("open stream: {e}"))?;
    while let Some(b) = reader.next_batch().map_err(|e| format!("decode stream: {e}"))? {
        decoded_batches += 1;
        decoded_samples += b.len();
    }
    tr.end(drain);

    artifacts::save(art, workload, file).map_err(|e| format!("save artifacts: {e}"))?;
    let loaded = tr.time("fae-core", "artifact_load", 0, || artifacts::load(file));
    let (loaded, name) = loaded.map_err(|e| format!("load artifacts: {e}"))?;
    Ok(StreamProbe {
        stream_bytes: bytes.len(),
        encoded_batches: pre.total_batches(),
        decoded_batches,
        decoded_samples,
        load_round_trips: name == workload
            && loaded.preprocessed.total_batches() == pre.total_batches()
            && loaded.preprocessed.total_samples() == pre.total_samples(),
    })
}

/// 32-row index lists walking the dataset, one per micro-batch.
fn micro_batch_ids(ds_len: usize, count: usize) -> impl Iterator<Item = Vec<usize>> {
    (0..count).map(move |i| (0..32).map(|j| (i * 37 + j * 101) % ds_len).collect())
}

/// What the serving probes measured.
pub struct ServeProbe {
    /// Cache hit rate of the in-process `serve()` run.
    pub hit_rate: f64,
    /// Its mean micro-batch size.
    pub mean_batch_size: f64,
    /// Requests it rejected.
    pub rejected: u64,
    /// Requests it completed.
    pub completed: u64,
    /// Its wall seconds.
    pub serve_wall_s: f64,
    /// Micro-batches it dispatched.
    pub batches: u64,
}

/// The serving path, outside-in: `micro_batches` times gather → cache →
/// predict on 32-row micro-batches (one `trace_id` each), the batcher's
/// `push` in blocks of 32, the engine build, and one in-process
/// `ServeEngine::serve` of the workload's `serve_probe_requests`
/// closed-loop requests.
pub fn serve_path(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    ds: &Dataset,
    partitions: &[HotColdPartition],
    seed: u64,
    micro_batches: usize,
    w: &Workload,
) -> ServeProbe {
    let (requests, clients) = (w.serve_probe_requests, w.clients);
    let cfg = ServeConfig { seed, ..ServeConfig::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let master = MasterEmbeddings::from_spec(spec, &mut rng);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    let mut cache = ServeCache::new(partitions, cfg.cold_cache_rows, cfg.freq_window);
    for (i, ids) in micro_batch_ids(ds.len(), micro_batches).enumerate() {
        let id = i as u64;
        let whole = tr.begin("fae-serve", "micro_batch", id);
        let mb = tr.time("fae-data", "gather", id, || {
            MiniBatch::gather(ds, &ids, BatchKind::Unclassified)
        });
        tr.time("fae-serve", "cache_access", id, || std::hint::black_box(cache.access_batch(&mb)));
        tr.time("fae-models", "predict", id, || {
            std::hint::black_box(predict(&mut model, &master, &mb))
        });
        tr.end(whole);
    }

    let bcfg = BatcherConfig {
        max_batch: cfg.max_batch,
        max_delay_s: cfg.max_delay_s,
        queue_cap: cfg.queue_cap,
    };
    let mut batcher = MicroBatcher::new(bcfg);
    for block in 0..micro_batches {
        let s = tr.begin("fae-serve", "batcher_push_x32", block as u64);
        for j in 0..32 {
            std::hint::black_box(batcher.push(block * 32 + j, block as f64 * 1e-3));
        }
        tr.end(s);
    }

    let engine = tr.time("fae-serve", "engine_build", 0, || {
        ServeEngine::untrained(spec.clone(), partitions.to_vec(), cfg)
    });
    let load = ServeLoad::Closed { clients, per_client: (requests / clients).max(1) };
    let t0 = Instant::now();
    let report = tr.time("fae-serve", "serve", 0, || engine.serve(ds, &load));
    ServeProbe {
        hit_rate: report.hit_rate,
        mean_batch_size: report.mean_batch_size,
        rejected: report.rejected,
        completed: report.completed,
        serve_wall_s: t0.elapsed().as_secs_f64(),
        batches: report.batches,
    }
}

/// One gradient-sized `Grads` message for `mb`: what a worker ships back
/// per step, built from a real forward/backward.
pub fn gradient_message(spec: &WorkloadSpec, master: &MasterEmbeddings, mb: &MiniBatch) -> Message {
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    let (loss, sparse) = forward_backward(&mut model, master, mb, 1.0);
    let mut dense = Vec::new();
    model.write_grads(&mut dense);
    Message::Grads { loss, samples: mb.len() as u32, dense, sparse }
}

/// Bytes one training step puts on the wire at one worker: the `Task`
/// carrying the shard, the `Grads` reply and the `Apply` broadcast, each
/// as its encoded frame length.
pub fn wire_bytes_per_step(mb: &MiniBatch, grads: &Message) -> usize {
    let frame = |msg: Message| Frame { node: 0, epoch: 0, seq: 0, step: 0, msg }.encode().len();
    let Message::Grads { dense, sparse, .. } = grads else { return 0 };
    frame(Message::Task { total: mb.len() as u32, mode: StepMode::Cold, shard: mb.clone() })
        + frame(grads.clone())
        + frame(Message::Apply {
            mode: StepMode::Hot,
            lr: 0.05,
            dense: dense.clone(),
            sparse: sparse.clone(),
        })
}

/// Up to `max_frames` times, or until `budget_s` seconds have passed:
/// encode a gradient-sized frame, echo it over a loopback TCP connection
/// through `deadline::send_frame/recv_frame`, decode it — one `trace_id`
/// per frame. The round trip includes the echo side's decode and
/// re-encode. Returns `(frames echoed, encoded frame length)`.
pub fn frame_echo(
    tr: &mut Tracer,
    msg: &Message,
    max_frames: usize,
    budget_s: f64,
) -> Result<(usize, usize), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (mut s, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // Echo until the client hangs up.
        while let Ok(f) = recv_frame(&mut s, 5_000) {
            send_frame(&mut s, &f, 5_000).map_err(|e| format!("echo send: {e}"))?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (mut done, mut encoded_len) = (0usize, 0usize);
    let mut failure = None;
    while done < max_frames && (done < 10 || t0.elapsed().as_secs_f64() < budget_s) {
        let id = done as u64;
        let frame = Frame { node: 0, epoch: 0, seq: id, step: id, msg: msg.clone() };
        let whole = tr.begin("fae-net", "frame", id);
        let bytes = tr.time("fae-net", "frame_encode", id, || frame.encode());
        let rtt = tr.begin("fae-net", "loopback_rtt", id);
        let back =
            send_frame(&mut stream, &frame, 5_000).and_then(|()| recv_frame(&mut stream, 5_000));
        tr.end(rtt);
        // `decode` takes everything after the 4-byte length prefix.
        let decoded = tr.time("fae-net", "frame_decode", id, || Frame::decode(&bytes[4..]));
        tr.end(whole);
        encoded_len = bytes.len();
        match (back, decoded) {
            (Ok(b), Ok(d)) if b.seq == id && d.seq == id => done += 1,
            (Err(e), _) | (_, Err(e)) => failure = Some(format!("frame {done}: {e}")),
            _ => failure = Some(format!("frame {done}: echoed out of order")),
        }
        if failure.is_some() {
            break;
        }
    }
    drop(stream);
    let echoed = echo.join().map_err(|_| "echo thread panicked".to_string())?;
    match failure {
        Some(f) => Err(f),
        None => echoed.map(|()| (done, encoded_len)),
    }
}

/// Evaluates the cost model `calls` times, alternating hot and cold
/// steps at the workload's batch size (what the trainer's cost cache
/// does on a miss), one span each.
pub fn cost_model_evals(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    batch: usize,
    gpus: usize,
    calls: usize,
) {
    let profile = bridge::profile_for(spec, (spec.embedding_bytes() / 8) as f64);
    let sys = SystemConfig::paper_server(gpus);
    for i in 0..calls {
        let mode = if i % 2 == 0 { ExecMode::FaeHotGpu } else { ExecMode::BaselineHybrid };
        tr.time("fae-sysmodel", "step_cost", i as u64, || {
            std::hint::black_box(step_cost(&profile, &sys, mode, batch - i % 2))
        });
    }
}

/// Emits `events` `Step` records to a JSONL journal at `path`, one span
/// each.
pub fn journal_emits(tr: &mut Tracer, path: &Path, events: usize) -> Result<(), String> {
    let telem = Telemetry::builder()
        .journal_path(path)
        .try_build()
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
    for i in 0..events {
        let ev = JournalEvent::Step {
            step: i as u64 + 1,
            mode: if i % 3 == 0 { StepMode::Cold } else { StepMode::Hot },
            rate: 50,
            loss: 0.69 - i as f64 * 1e-5,
            phases: PhaseSeconds([1e-3, 2e-3, 0.0, 4e-4, 0.0, 1e-4, 0.0, 3e-4]),
        };
        tr.time("fae-telemetry", "journal_emit", i as u64, || telem.emit(&ev));
    }
    Ok(())
}

/// The mode helpers on `batches` of the stream: `AccessSet::of` +
/// `plan_decisions` (oracle planning, per batch), `DeferredSparse::
/// absorb` on each batch's real gradients, and lookup + apply on a
/// tiered (int8-cold) master.
pub fn mode_helpers(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    batches: &[&MiniBatch],
    lr: f32,
) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = AnyModel::from_spec(spec, &mut rng);
    let mut tiered = MasterEmbeddings::from_spec_tiered(spec, &pre.partitions, &mut rng);
    let mut pool = DeferredSparse::new(tiered.num_tables(), tiered.dim(), 1e-4, lr);

    // Oracle planning: access sets of a window of batches, then the
    // pure planner over them; reported per batch planned.
    for (w, window) in batches.chunks(32).enumerate() {
        let s = tr.begin("fae-core", "oracle_plan_window", w as u64);
        let sets: Vec<AccessSet> = window.iter().map(|b| AccessSet::of(b)).collect();
        std::hint::black_box(plan_decisions(&sets, window.len()));
        tr.end(s);
    }

    for (i, mb) in batches.iter().enumerate() {
        let id = i as u64;
        tr.time("fae-embed", "tiered_lookup", id, || {
            for (t, csr) in mb.sparse.iter().enumerate() {
                std::hint::black_box(tiered.lookup(t, &csr.indices, &csr.offsets));
            }
        });
        let (_, grads): (f32, Vec<SparseGrad>) = forward_backward(&mut model, &tiered, mb, 1.0);
        let (apply, _) =
            tr.time("fae-embed", "deferred_absorb", id, || pool.absorb(&grads, &pre.partitions));
        std::hint::black_box(apply);
        tr.time("fae-embed", "tiered_apply", id, || tiered.apply_sparse_grads(&grads, lr));
    }
}
