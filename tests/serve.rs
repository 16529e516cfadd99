//! End-to-end serving tests: train → checkpoint → serve, plus the
//! record/replay contract `serve-smoke` CI leans on.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use std::fs;
use std::path::PathBuf;

use fae::core::{
    latest_in, pipeline, train_fae_resilient, CalibratorConfig, PreprocessConfig,
    ResilienceOptions, TrainCheckpoint, TrainConfig,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::serve::{
    calibrate_partitions, open_loop_requests, CheckpointMismatch, RequestTrace, ServeConfig,
    ServeEngine, ServeLoad,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-serve-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn paper_calibrator(spec: &WorkloadSpec) -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: spec.embedding_bytes() / 8,
        small_table_bytes: 8 << 10,
        ..Default::default()
    }
}

#[test]
fn trained_checkpoint_serves_with_hot_cache_hit_rate() {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(1, 6_000));
    let (train, test) = ds.clone().split(0.2);
    let art = pipeline::prepare(
        &train,
        paper_calibrator(&spec),
        &PreprocessConfig { minibatch_size: 64, seed: 1 },
    );
    let dir = tmpdir("ckpt");
    train_fae_resilient(
        &spec,
        &art.preprocessed,
        &test,
        &TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() },
        &ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..Default::default()
        },
    );
    let ck_path = latest_in(&dir).unwrap().expect("training must leave a checkpoint");
    let ck = TrainCheckpoint::load(&ck_path).unwrap();
    fs::remove_dir_all(&dir).ok();

    let engine = ServeEngine::from_checkpoint(
        spec.clone(),
        &ck,
        art.preprocessed.partitions.clone(),
        ServeConfig::default(),
    )
    .expect("the checkpoint fits its own workload");
    let reqs = open_loop_requests(600, 2_000.0, ds.len(), 11);
    let report = engine.serve(&ds, &ServeLoad::Open(reqs));

    assert_eq!(report.completed, 600, "every request must complete");
    assert_eq!(report.rejected, 0);
    assert!(report.batches > 0);
    assert!(report.p50_ms > 0.0);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
    assert!(report.throughput_rps > 0.0);
    // The paper's core claim, at serving time: the calibrated hot tier
    // plus a small dynamic cache absorbs the great majority of lookups.
    assert!(
        report.hit_rate >= 0.75,
        "hot-cache hit rate {:.4} below the 0.75 floor",
        report.hit_rate
    );
    // Trained model scores are probabilities from a sigmoid head.
    assert!(report.mean_score.is_finite());
    assert!(report.mean_score > 0.0 && report.mean_score < 1.0);
}

#[test]
fn a_checkpoint_that_does_not_fit_the_workload_is_refused() {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(1, 2_000));
    let pre = PreprocessConfig { minibatch_size: 64, seed: 1 };
    let art = pipeline::prepare(&ds, paper_calibrator(&spec), &pre);
    let dir = tmpdir("mismatch");
    train_fae_resilient(
        &spec,
        &art.preprocessed,
        &ds,
        &TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() },
        &ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..Default::default()
        },
    );
    let ck_path = latest_in(&dir).unwrap().expect("training must leave a checkpoint");
    let ck = TrainCheckpoint::load(&ck_path).unwrap();
    fs::remove_dir_all(&dir).ok();
    let refusal = |ck: &TrainCheckpoint| {
        let parts = art.preprocessed.partitions.clone();
        ServeEngine::from_checkpoint(spec.clone(), ck, parts, ServeConfig::default()).err()
    };
    assert_eq!(refusal(&ck), None);

    // The table count stays the workload's: only a shape inside it differs.
    let (rows, dim) = (spec.tables[1].rows, spec.embedding_dim);
    let mut more_rows = ck.clone();
    more_rows.tables[1].rows += 1;
    more_rows.tables[1].weights.extend(vec![0.0; dim]);
    assert_eq!(refusal(&more_rows), Some(CheckpointMismatch::Rows(1, rows + 1, rows)));

    let mut wider = ck.clone();
    wider.tables[0].dim += 1;
    wider.tables[0].weights.extend(vec![0.0; spec.tables[0].rows]);
    assert_eq!(refusal(&wider), Some(CheckpointMismatch::Dim(0, dim + 1, dim)));

    let n = ck.dense_params.len();
    let mut short = ck.clone();
    short.dense_params.pop();
    assert_eq!(refusal(&short), Some(CheckpointMismatch::DenseParams(n - 1, n)));

    let mut fewer = ck;
    fewer.tables.pop();
    let tables = spec.tables.len();
    assert_eq!(refusal(&fewer), Some(CheckpointMismatch::Tables(tables - 1, tables)));
}

fn untrained_engine(seed: u64) -> (Dataset, ServeEngine) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(seed, 2_000));
    let parts = calibrate_partitions(&ds, paper_calibrator(&spec));
    (ds, ServeEngine::untrained(spec, parts, ServeConfig::default()))
}

#[test]
fn recorded_trace_replays_bit_identically() {
    let data_seed = 1u64;
    let (ds, engine) = untrained_engine(data_seed);
    let reqs = open_loop_requests(300, 3_000.0, ds.len(), 5);
    let original = engine.serve(&ds, &ServeLoad::Open(reqs));

    let dir = tmpdir("trace");
    let path = dir.join("requests.jsonl");
    let trace = RequestTrace {
        workload: "tiny-test".into(),
        data_seed,
        requests: original.requests.clone(),
    };
    trace.save(&path).unwrap();

    let loaded = RequestTrace::load(&path).unwrap();
    loaded.validate("tiny-test", data_seed, ds.len()).unwrap();
    assert_eq!(loaded.requests, original.requests);

    // Replay through a *fresh* engine: the simulated clock makes the
    // whole serve run a pure function of (engine state, trace).
    let (_, engine2) = untrained_engine(data_seed);
    let replay = engine2.serve(&ds, &ServeLoad::Open(loaded.requests));
    fs::remove_dir_all(&dir).ok();

    assert_eq!(replay.completed, original.completed);
    assert_eq!(replay.batches, original.batches);
    assert_eq!(replay.p50_ms.to_bits(), original.p50_ms.to_bits());
    assert_eq!(replay.p99_ms.to_bits(), original.p99_ms.to_bits());
    assert_eq!(replay.simulated_seconds.to_bits(), original.simulated_seconds.to_bits());
    assert_eq!(replay.hit_rate.to_bits(), original.hit_rate.to_bits());
    assert_eq!(replay.mean_score.to_bits(), original.mean_score.to_bits());
}

#[test]
fn trace_validation_rejects_foreign_datasets() {
    let (ds, engine) = untrained_engine(1);
    let reqs = open_loop_requests(50, 5_000.0, ds.len(), 9);
    let report = engine.serve(&ds, &ServeLoad::Open(reqs));
    let trace =
        RequestTrace { workload: "tiny-test".into(), data_seed: 1, requests: report.requests };
    assert!(trace.validate("tiny-test", 1, ds.len()).is_ok());
    assert!(trace.validate("kaggle", 1, ds.len()).is_err(), "wrong workload must fail");
    assert!(trace.validate("tiny-test", 2, ds.len()).is_err(), "wrong data seed must fail");
    assert!(trace.validate("tiny-test", 1, 1).is_err(), "out-of-range inputs must fail");
}
