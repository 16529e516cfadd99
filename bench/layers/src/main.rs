//! `perf-layers` — the traced half of the benchmark.
//!
//! ```text
//! perf-layers --workload W --seed N --seconds S --out-dir D [--smoke 1]
//!     regenerates W's inputs in-process, drives them through each
//!     crate's public functions with a span around every call, writes
//!     D/trace-W.json (Chrome trace) and prints every per-layer metric;
//!     the last line of standard output is the result object.
//! perf-layers --e2e-prep 1 --workload prep_static --seed N --seconds S [--smoke 1]
//!     the one end-to-end job that links the crates: warm, in-process
//!     rounds of the static pipeline with spans off (see the README).
//! ```

mod probes;
mod replay;
mod trace;

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fae_core::faults::FaultPlan;
use fae_core::input_processor::Preprocessed;
use fae_core::trainer::{make_test_batches, AnyModel, TrainConfig, TrainReport};
use fae_core::{
    pipeline, train_baseline, train_fae, train_fae_resilient, ParallelEngine, PreprocessConfig,
    ResilienceOptions,
};
use fae_data::{generate, Dataset, GenOptions, MiniBatch, WorkloadSpec};
use fae_models::MasterEmbeddings;
use fae_net::{run_node, NetConfig, NodeConfig, RemoteEngine};
use fae_telemetry::Telemetry;
use perf_common::metrics::PER_LAYER;
use perf_common::report::Outcome;
use perf_common::stats::{median, percentile};
use perf_common::workloads::{self, Kind, Workload};
use perf_common::{setup_due, Flags, RUN_SECONDS, SETUP_REPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use crate::probes::cli_calibrator_config;
use crate::replay::{replay, truncate, Job, Probes, Replayed};
use crate::trace::Tracer;

/// Test inputs `fae train` generates when `--test-inputs` is not given.
const TEST_INPUTS: usize = 5_000;

fn spec_of(w: &Workload) -> WorkloadSpec {
    match w.spec {
        "taobao" => WorkloadSpec::rmc1_taobao(),
        "tiny" => WorkloadSpec::tiny_test(),
        _ => WorkloadSpec::rmc2_kaggle(),
    }
}

/// The `TrainConfig` the workload's `fae train` line maps to (the CLI
/// leaves `seed` at its default; `--seed` only seeds the data).
fn train_config(w: &Workload) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        minibatch_size: w.batch,
        num_gpus: 2,
        workers: if w.distributed > 0 { w.distributed } else { w.workers },
        lr: w.lr,
        quantize_cold: w.quantize_cold,
        lookahead: w.lookahead,
        stale_skip: w.stale_skip,
        ..Default::default()
    }
}

fn pre_config(w: &Workload, seed: u64) -> PreprocessConfig {
    PreprocessConfig { minibatch_size: w.batch, seed }
}

/// One warm round of the static pipeline: prepare → encode → stream the
/// container back through the prefetcher. Returns
/// `(hot_input_fraction, encoded batches, decoded batches, samples)`.
fn prep_round(w: &Workload, ds: &Dataset, seed: u64) -> Result<(f64, usize, usize, usize), String> {
    let spec = &ds.spec;
    let art =
        pipeline::prepare(ds, cli_calibrator_config(spec, w.sample_rate), &pre_config(w, seed));
    let pre = &art.preprocessed;
    let bytes = pre.to_fae_file(&spec.name).encode();
    let (_, stream) =
        pipeline::prefetch_fae_blocks(bytes.to_vec()).map_err(|e| format!("prefetch: {e}"))?;
    let (mut batches, mut samples) = (0usize, 0usize);
    for b in stream {
        let b = b.map_err(|e| format!("decode: {e}"))?;
        batches += 1;
        samples += b.len();
    }
    Ok((pre.hot_input_fraction, pre.total_batches(), batches, samples))
}

/// `--e2e-prep`: timed warm rounds until `seconds` have passed (at least
/// three; one in a smoke run), with the set-up — generate + one warm-up
/// round — repeated between them as `setup_due` schedules it. Prints one
/// JSON object; the parent process adds peak RSS.
fn e2e_prep(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<(), String> {
    let spec = spec_of(w);
    let (reps, min_rounds) = if smoke { (1, 1) } else { (SETUP_REPS, 3) };
    let mut setup_s = Vec::new();
    let mut set_up = || -> Result<Dataset, String> {
        let t0 = Instant::now();
        let fresh = generate(&spec, &GenOptions::sized(seed, w.inputs));
        prep_round(w, &fresh, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(fresh)
    };
    let mut ds = set_up()?;
    let mut rounds = Vec::new();
    let t_measure = Instant::now();
    let mut reps_done = 1;
    loop {
        let elapsed = t_measure.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && (smoke || elapsed >= seconds) {
            break;
        }
        if setup_due(reps_done, reps, elapsed, seconds) {
            // Drop the old dataset first: two at once would raise the peak RSS.
            drop(ds);
            ds = set_up()?;
            reps_done += 1;
        }
        let t0 = Instant::now();
        let (hot_fraction, encoded, decoded, samples) = prep_round(w, &ds, seed)?;
        rounds.push(json!({
            "wall_s": t0.elapsed().as_secs_f64(),
            "hot_input_fraction": hot_fraction,
            "encoded_batches": encoded,
            "decoded_batches": decoded,
            "samples": samples,
        }));
    }
    let line = json!({"inputs": w.inputs, "setup_s": setup_s, "rounds": rounds});
    println!("{}", serde_json::to_string(&line).expect("Value serialization cannot fail"));
    Ok(())
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Drives the job's steps through `RemoteEngine` and one `run_node`
/// thread on loopback — the wire path of `fae train --distributed 1`.
fn remote_replay(job: &Job<'_>, max_steps: usize) -> Result<Replayed, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let node = std::thread::spawn(move || {
        run_node(NodeConfig {
            addr,
            node_id: 0,
            workers: 1,
            net: NetConfig::default(),
            plan: FaultPlan::none(),
        })
    });
    let (spec, cfg) = (job.spec, job.cfg);
    let out = replay(
        job,
        |model| {
            RemoteEngine::new(
                model,
                spec,
                cfg.seed,
                1,
                cfg.num_gpus,
                listener,
                NetConfig::default(),
                FaultPlan::none(),
            )
            .expect("coordinator binds before the node dials, so it always starts")
        },
        &mut Tracer::disabled(),
        None,
        max_steps,
    );
    match node.join() {
        Ok(Ok(())) => Ok(out),
        Ok(Err(e)) => Err(format!("node exited with: {e}")),
        Err(_) => Err("node thread panicked".into()),
    }
}

fn ms_p50(v: &[f64]) -> f64 {
    median(v) * 1e3
}

fn us_p50(v: &[f64]) -> f64 {
    median(v) * 1e6
}

fn mib_per_s(bytes: f64, seconds: &[f64]) -> f64 {
    bytes / (1u64 << 20) as f64 / seconds.iter().sum::<f64>()
}

/// The traced run of one workload.
fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    // A smoke run exercises every probe once over, at a tenth of the
    // samples, and repeats nothing to fill a window.
    let scale = |n: usize| if smoke { n / 10 } else { n };
    let seconds = if smoke { 0.0 } else { seconds };
    let t_run = Instant::now();
    let mut o = Outcome::default();
    let mut tr = Tracer::new();
    let spec = spec_of(w);
    let cfg = train_config(w);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    // Inputs, exactly as the CLI line generates them.
    let ds =
        tr.time("fae-data", "generate", 0, || generate(&spec, &GenOptions::sized(seed, w.inputs)));
    let test = generate(&spec, &GenOptions::sized(seed, TEST_INPUTS));
    let test_batches = make_test_batches(&test, cfg.minibatch_size, cfg.eval_batches);

    // Static pipeline, stage by stage, then the container round trip.
    let art = probes::static_stages(
        &mut tr,
        &ds,
        cli_calibrator_config(&spec, w.sample_rate),
        &pre_config(w, seed),
    );
    let whole = &art.preprocessed;
    o.check(whole.total_samples() == w.inputs, || {
        format!("preprocess kept {} of {} inputs", whole.total_samples(), w.inputs)
    });
    let stream_file = out_dir.join(format!("stream-{}.fae", w.name));
    let stream = probes::stream_round_trip(&mut tr, &art, &spec.name, &stream_file)?;
    o.check(
        stream.decoded_batches == stream.encoded_batches
            && stream.decoded_samples == w.inputs
            && stream.load_round_trips,
        || format!("FAE container round trip lost data on {}", w.name),
    );

    // The training job the replay covers: the whole stream where the
    // end-to-end job trains, a short prefix of it otherwise.
    let pre: Preprocessed = truncate(whole, w.replay_batches);
    let job = Job {
        spec: &spec,
        pre: &pre,
        test_batches: &test_batches,
        cfg: &cfg,
        accuracy_floor: w.accuracy_floor,
    };

    // Reference: the library call `fae train` makes, untraced.
    let (reference, fae_wall): (TrainReport, f64) = timed(|| train_fae(&spec, &pre, &test, &cfg));
    let total_steps = reference.hot_steps + reference.cold_steps;

    // Traced replay with probes, then the same replay timing whole
    // steps only: the difference is what recording spans costs.
    let mut step_probes = Probes::new(&spec, w.batch, total_steps.div_ceil(200));
    let local = |m: AnyModel| ParallelEngine::from_model(m, &spec, cfg.seed, cfg.workers);
    let traced_run = replay(&job, local, &mut tr, Some(&mut step_probes), 0);
    let plain_run = replay(&job, local, &mut Tracer::disabled(), None, 0);
    for (what, run) in [("traced", &traced_run), ("untraced", &plain_run)] {
        o.check(run.digest == reference.model_digest, || {
            format!(
                "{what} replay digest {:08x} != train_fae digest {:08x}",
                run.digest, reference.model_digest
            )
        });
    }
    o.check(
        traced_run.transitions == reference.transitions
            && traced_run.final_accuracy == reference.final_test.accuracy
            && traced_run.steps.len() == total_steps,
        || "replay and train_fae disagree on steps, transitions or accuracy".to_string(),
    );
    o.check(reference.final_test.accuracy >= w.accuracy_floor, || {
        format!(
            "test accuracy {:.4} below floor {}",
            reference.final_test.accuracy, w.accuracy_floor
        )
    });

    // Baseline, journalled FAE and plain FAE on the real and the
    // simulated clock, interleaved so that each ratio is taken between
    // neighbours in time. The baseline trains on as many raw inputs as
    // the replayed stream holds.
    let raw = if pre.total_samples() == ds.len() {
        None
    } else {
        Some(generate(&spec, &GenOptions::sized(seed, pre.total_samples())))
    };
    let raw = raw.as_ref().unwrap_or(&ds);
    let journal = out_dir.join(format!("journal-{}.jsonl", w.name));
    let mut fae_walls = vec![fae_wall];
    let mut base_walls = Vec::new();
    let mut journal_overheads = Vec::new();
    let mut base_sim = 0.0;
    for _ in 0..3 {
        let (base, base_wall) = timed(|| train_baseline(&spec, raw, &test, &cfg));
        base_walls.push(base_wall);
        base_sim = base.simulated_seconds;
        let telemetry = Telemetry::builder()
            .journal_path(&journal)
            .try_build()
            .map_err(|e| format!("{}: {e}", journal.display()))?;
        let opts = ResilienceOptions { telemetry, ..Default::default() };
        let (journalled, journal_wall) =
            timed(|| train_fae_resilient(&spec, &pre, &test, &cfg, &opts));
        o.check(journalled.model_digest == reference.model_digest, || {
            "journalling changed the model digest".to_string()
        });
        let plain_wall = timed(|| train_fae(&spec, &pre, &test, &cfg)).1;
        fae_walls.push(plain_wall);
        journal_overheads.push((journal_wall - plain_wall) / plain_wall);
        // Further triples only while the measurement window has room.
        let triple = base_wall + journal_wall + plain_wall;
        if t_run.elapsed().as_secs_f64() + triple > seconds {
            break;
        }
    }
    let emit_file = out_dir.join(format!("emit-{}.jsonl", w.name));
    probes::journal_emits(&mut tr, &emit_file, scale(2_000))?;

    // The wire: frames one at a time, then whole steps through
    // RemoteEngine and one node thread.
    let master = MasterEmbeddings::from_spec(&spec, &mut StdRng::seed_from_u64(cfg.seed));
    let any_batch: &MiniBatch =
        pre.cold_batches.first().or(pre.hot_batches.first()).ok_or("empty stream")?;
    let grads = probes::gradient_message(&spec, &master, any_batch);
    let (max_frames, frame_budget_s) =
        if w.distributed > 0 { (scale(2_000), 4.0) } else { (scale(200), 0.8) };
    let (frames, frame_len) = probes::frame_echo(&mut tr, &grads, max_frames, frame_budget_s)?;
    let remote = remote_replay(&job, w.net_probe_steps)?;
    if w.net_probe_steps == 0 {
        o.check(remote.digest == reference.model_digest, || {
            format!(
                "RemoteEngine digest {:08x} != in-process digest {:08x}",
                remote.digest, reference.model_digest
            )
        });
    }
    let remote_s: f64 = remote.steps.iter().map(|s| s.1).sum();
    let local_s: f64 = plain_run.steps.iter().take(remote.steps.len()).map(|s| s.1).sum();

    // Serving, outside-in.
    let micro_batches = scale(if w.kind == Kind::Serve { 2_000 } else { 300 });
    let served = probes::serve_path(&mut tr, &spec, &ds, &whole.partitions, seed, micro_batches, w);
    let issued = (w.serve_probe_requests / w.clients).max(1) * w.clients;
    o.check(served.rejected == 0 && served.completed as usize == issued, || {
        format!("serve probe completed {} and rejected {}", served.completed, served.rejected)
    });

    // Per-step helpers.
    probes::cost_model_evals(&mut tr, &spec, w.batch, cfg.num_gpus, scale(2_000));
    let helper_batches: Vec<&MiniBatch> =
        pre.cold_batches.iter().chain(pre.hot_batches.iter()).take(scale(64).max(2)).collect();
    probes::mode_helpers(&mut tr, &spec, &pre, &helper_batches, cfg.lr);

    tr.well_formed().map_err(|e| format!("span tree: {e}"))?;

    // ---- metrics ----
    let sec = |layer: &str, name: &str| tr.seconds_of(layer, name);
    let one = |layer: &str, name: &str| tr.seconds_of(layer, name).iter().sum::<f64>();
    let hot: Vec<f64> = plain_run.steps.iter().filter(|s| s.0).map(|s| s.1).collect();
    let cold: Vec<f64> = plain_run.steps.iter().filter(|s| !s.0).map(|s| s.1).collect();
    // Every workload's stream has both kinds of batch, hence both kinds
    // of step and both syncs. One without would leave the hot (or cold)
    // metrics with nothing to measure; that fails the run here (and again
    // per metric: the median of no samples is not a number) rather than
    // letting the other kind stand in under the wrong name.
    o.check(!hot.is_empty() && !cold.is_empty(), || {
        format!("{} hot and {} cold steps replayed: both kinds are needed", hot.len(), cold.len())
    });
    let nn = ["bottom_fwd", "bottom_bwd", "top_fwd", "top_bwd"];
    let nn_s: f64 = nn.iter().map(|n| median(&sec("fae-nn", n))).sum();
    let macs = step_probes.mlp_macs_per_step(w.batch);
    let lookup_s: f64 = one("fae-embed", "hot_lookup") + one("fae-embed", "master_lookup");
    let hot_lookup = sec("fae-embed", "hot_lookup");
    let hot_apply = sec("fae-embed", "hot_apply");
    let fwd_self = tr.self_seconds_of("fae-models", "forward");
    let bwd_self = tr.self_seconds_of("fae-models", "backward");
    let predict = sec("fae-models", "predict");
    let plan_per_batch: Vec<f64> = sec("fae-core", "oracle_plan_window")
        .iter()
        .zip(helper_batches.chunks(32))
        .map(|(s, c)| s / c.len() as f64)
        .collect();
    let push_ns: Vec<f64> =
        sec("fae-serve", "batcher_push_x32").iter().map(|s| s / 32.0 * 1e9).collect();
    // What the hot step's pieces add up to, against the step itself.
    let hot_parts = nn_s
        + median(&fwd_self)
        + median(&bwd_self)
        + median(&sec("fae-nn", "dense_sgd"))
        + median(&sec("fae-nn", "loss"))
        + median(&hot_lookup)
        + median(&hot_apply);

    let values: Vec<(&str, f64)> = vec![
        ("fae-nn.bottom_fwd_ms_p50", ms_p50(&sec("fae-nn", "bottom_fwd"))),
        ("fae-nn.bottom_bwd_ms_p50", ms_p50(&sec("fae-nn", "bottom_bwd"))),
        ("fae-nn.top_fwd_ms_p50", ms_p50(&sec("fae-nn", "top_fwd"))),
        ("fae-nn.top_bwd_ms_p50", ms_p50(&sec("fae-nn", "top_bwd"))),
        ("fae-nn.dense_sgd_ms_p50", ms_p50(&sec("fae-nn", "dense_sgd"))),
        ("fae-nn.loss_us_p50", us_p50(&sec("fae-nn", "loss"))),
        ("fae-nn.mlp_macs_per_step", macs),
        ("fae-nn.mlp_gflops", 2.0 * macs / nn_s / 1e9),
        ("fae-embed.master_lookup_ms_p50", ms_p50(&sec("fae-embed", "master_lookup"))),
        ("fae-embed.master_apply_ms_p50", ms_p50(&sec("fae-embed", "master_apply"))),
        ("fae-embed.hot_lookup_ms_p50", ms_p50(&hot_lookup)),
        ("fae-embed.hot_apply_ms_p50", ms_p50(&hot_apply)),
        ("fae-embed.tiered_lookup_ms_p50", ms_p50(&sec("fae-embed", "tiered_lookup"))),
        ("fae-embed.tiered_apply_ms_p50", ms_p50(&sec("fae-embed", "tiered_apply"))),
        ("fae-embed.deferred_absorb_us_p50", us_p50(&sec("fae-embed", "deferred_absorb"))),
        ("fae-embed.lookups_per_step", traced_run.lookups_per_step),
        ("fae-embed.rows_touched_per_step", traced_run.rows_touched_per_step),
        ("fae-embed.lookup_mib_per_s", traced_run.lookup_bytes / (1u64 << 20) as f64 / lookup_s),
        ("fae-models.forward_ms_p50", ms_p50(&sec("fae-models", "forward"))),
        ("fae-models.backward_ms_p50", ms_p50(&sec("fae-models", "backward"))),
        ("fae-models.forward_self_ms_p50", ms_p50(&fwd_self)),
        ("fae-models.backward_self_ms_p50", ms_p50(&bwd_self)),
        ("fae-models.predict_ms_p50", ms_p50(&predict)),
        ("fae-models.predict_ms_p99", percentile(&predict, 99.0) * 1e3),
        ("fae-models.test_accuracy", reference.final_test.accuracy),
        ("fae-core.hot_step_ms_p50", ms_p50(&hot)),
        ("fae-core.cold_step_ms_p50", ms_p50(&cold)),
        ("fae-core.hot_step_ms_p99", percentile(&hot, 99.0) * 1e3),
        ("fae-core.cold_step_ms_p99", percentile(&cold, 99.0) * 1e3),
        ("fae-core.hot_refresh_ms_p50", ms_p50(&sec("fae-core", "hot_refresh"))),
        ("fae-core.hot_writeback_ms_p50", ms_p50(&sec("fae-core", "hot_writeback"))),
        ("fae-core.eval_ms_p50", ms_p50(&sec("fae-core", "eval"))),
        ("fae-core.digest_ms", one("fae-core", "digest") * 1e3),
        ("fae-core.artifact_load_s", one("fae-core", "artifact_load")),
        ("fae-core.oracle_plan_us_p50", us_p50(&plan_per_batch)),
        ("fae-core.hot_steps", reference.hot_steps as f64),
        ("fae-core.cold_steps", reference.cold_steps as f64),
        ("fae-core.transitions", reference.transitions as f64),
        ("fae-core.steps_to_target", traced_run.steps_to_target as f64),
        ("fae-core.loop_residual_share", 1.0 - plain_run.explained_s / median(&fae_walls)),
        ("fae-core.fae_over_baseline_wall_x", median(&base_walls) / median(&fae_walls)),
        ("fae-core.sample_s", one("fae-core", "sample")),
        ("fae-core.log_accesses_s", one("fae-core", "log_accesses")),
        ("fae-core.converge_s", one("fae-core", "converge")),
        ("fae-core.classify_s", one("fae-core", "classify")),
        ("fae-core.preprocess_s", one("fae-core", "preprocess")),
        ("fae-core.hot_input_fraction", whole.hot_input_fraction),
        ("fae-core.hot_batches", whole.hot_batches.len() as f64),
        ("fae-core.cold_batches", whole.cold_batches.len() as f64),
        ("fae-data.generate_s", one("fae-data", "generate")),
        (
            "fae-data.encode_mib_per_s",
            mib_per_s(stream.stream_bytes as f64, &sec("fae-data", "encode")),
        ),
        (
            "fae-data.decode_mib_per_s",
            mib_per_s(stream.stream_bytes as f64, &sec("fae-data", "decode")),
        ),
        ("fae-data.stream_bytes", stream.stream_bytes as f64),
        ("fae-data.gather_us_p50", us_p50(&sec("fae-data", "gather"))),
        ("fae-sysmodel.step_cost_us_p50", us_p50(&sec("fae-sysmodel", "step_cost"))),
        ("fae-sysmodel.sim_speedup_x", base_sim / reference.simulated_seconds),
        (
            "fae-sysmodel.sim_ms_per_step",
            reference.simulated_seconds * 1e3 / total_steps.max(1) as f64,
        ),
        ("fae-telemetry.journal_emit_us_p50", us_p50(&sec("fae-telemetry", "journal_emit"))),
        ("fae-telemetry.journal_overhead_share", median(&journal_overheads)),
        ("fae-serve.batcher_push_ns_p50", median(&push_ns)),
        ("fae-serve.cache_access_us_p50", us_p50(&sec("fae-serve", "cache_access"))),
        ("fae-serve.engine_build_s", one("fae-serve", "engine_build")),
        ("fae-serve.hit_rate", served.hit_rate),
        ("fae-serve.mean_batch_size", served.mean_batch_size),
        ("fae-serve.rejected", served.rejected as f64),
        ("fae-serve.forward_share", median(&predict) * served.batches as f64 / served.serve_wall_s),
        (
            "fae-net.frame_encode_mib_per_s",
            mib_per_s((frame_len * frames) as f64, &sec("fae-net", "frame_encode")),
        ),
        (
            "fae-net.frame_decode_mib_per_s",
            mib_per_s((frame_len * frames) as f64, &sec("fae-net", "frame_decode")),
        ),
        ("fae-net.loopback_rtt_us_p50", us_p50(&sec("fae-net", "loopback_rtt"))),
        ("fae-net.loopback_rtt_us_p99", percentile(&sec("fae-net", "loopback_rtt"), 99.0) * 1e6),
        (
            "fae-net.remote_step_ms_p50",
            ms_p50(&remote.steps.iter().map(|s| s.1).collect::<Vec<_>>()),
        ),
        ("fae-net.bytes_per_step", probes::wire_bytes_per_step(any_batch, &grads) as f64),
        ("fae-net.wire_overhead_x", remote_s / local_s),
        (
            "trace.overhead_share",
            (traced_run.explained_s - plain_run.explained_s) / plain_run.explained_s,
        ),
        ("trace.spans", tr.spans().len() as f64),
        (
            "trace.step_explained_share",
            hot_parts / median(&sec("fae-core", "hot_step")),
        ),
    ];
    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    let doc =
        serde_json::to_string(&tr.chrome_trace(w.name)).expect("Value serialization cannot fail");
    std::fs::write(&trace_path, doc).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let meta = stream_file.with_extension("fae.meta.json");
    for scratch in [stream_file, meta, journal, emit_file] {
        let _ = std::fs::remove_file(scratch);
    }

    println!(
        "== per-layer metrics: {} (seed {seed}, {} spans, {:.1} s) ==",
        w.name,
        tr.spans().len(),
        t_run.elapsed().as_secs_f64()
    );
    // A catalogue name missing from `values` reads as NaN, which
    // `Outcome::metric` counts as a failed operation.
    for m in PER_LAYER {
        let v = values.iter().find(|(n, _)| *n == m.name).map_or(f64::NAN, |(_, v)| *v);
        o.metric(m.name, v);
        println!("{:<42} {:>16.6} {}", m.name, v, m.unit);
    }
    println!(
        "samples: {} hot + {} cold steps, {} probed, {} predict micro-batches, {} frames, {} FAE / {} baseline runs",
        hot.len(), cold.len(), sec("fae-models", "forward").len(), predict.len(), frames, fae_walls.len(), base_walls.len()
    );
    println!("trace written to {}", trace_path.display());
    Ok(o)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&argv)?;
    let name = flags.get("workload").ok_or("--workload required")?;
    let mut w = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let smoke = flags.num("smoke", 0u8)? != 0;
    if smoke {
        w = w.smoke();
    }
    let seed: u64 = flags.num("seed", 11)?;
    let seconds: f64 = flags.num("seconds", RUN_SECONDS as f64)?;
    if flags.num("e2e-prep", 0u8)? != 0 {
        e2e_prep(&w, seed, seconds, smoke)?;
        return Ok(true);
    }
    let out_dir: PathBuf = flags.path("out-dir")?;
    let o = traced(&w, seed, seconds, smoke, &out_dir)?;
    for f in &o.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", o.result_line());
    Ok(o.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run emits exactly the catalogue's per-layer metrics, in
    /// order, all finite, with every check passing — on the smoke sizes.
    #[test]
    fn traced_run_emits_every_per_layer_metric() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-layers-{}", std::process::id()));
        for name in ["train_hot_mlp", "train_seq_modes"] {
            let w = workloads::find(name).unwrap().smoke();
            let o = traced(&w, 3, 12.0, true, &out).unwrap();
            assert!(o.correct(), "{name}: {:?}", o.failures);
            let emitted: Vec<&str> = o.metrics.iter().map(|(n, _)| *n).collect();
            let catalogue: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(emitted, catalogue);
            assert!(out.join(format!("trace-{name}.json")).exists());
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
