//! Integration tests for the parallel execution engine's determinism
//! contract: for a *fixed* worker count, training is bit-identical run
//! to run — same `EvalPoint` stream, same checkpoint digest — including
//! across a checkpoint/resume boundary.

use std::fs;
use std::path::PathBuf;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    latest_in, pipeline, train_fae, train_fae_resilient, CalibratorConfig, EvalPoint,
    RecoveryAction, ResilienceOptions, TrainCheckpoint, TrainConfig,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};

/// Shrunken calibrator budget so the tiny workload has both hot and
/// cold batches (same trick as the end-to-end suite).
fn forced_partial_calibrator() -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    }
}

fn setup(workers: usize) -> (WorkloadSpec, Preprocessed, Dataset, TrainConfig) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(131, 8_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 3 },
    );
    let cfg = TrainConfig {
        epochs: 2,
        minibatch_size: 64,
        initial_rate: 25,
        workers,
        ..Default::default()
    };
    (spec, artifacts.preprocessed, test, cfg)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-par-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn checkpointing(dir: PathBuf) -> ResilienceOptions {
    ResilienceOptions {
        checkpoint_dir: Some(dir),
        checkpoint_every_rounds: 1,
        ..Default::default()
    }
}

/// Every float in the eval stream compared by bits, not by `==`.
fn assert_history_bit_identical(a: &[EvalPoint], b: &[EvalPoint], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: eval-point counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.iteration, y.iteration, "{ctx}: eval {i} iteration");
        assert_eq!(x.test_loss.to_bits(), y.test_loss.to_bits(), "{ctx}: eval {i} loss bits");
        assert_eq!(
            x.test_accuracy.to_bits(),
            y.test_accuracy.to_bits(),
            "{ctx}: eval {i} accuracy bits"
        );
        assert_eq!(x.rate, y.rate, "{ctx}: eval {i} rate");
        assert_eq!(x.hot_steps, y.hot_steps, "{ctx}: eval {i} hot steps");
        assert_eq!(x.cold_steps, y.cold_steps, "{ctx}: eval {i} cold steps");
        assert_eq!(x.sim_seconds.to_bits(), y.sim_seconds.to_bits(), "{ctx}: eval {i} sim bits");
    }
}

#[test]
fn fixed_worker_count_gives_bit_identical_eval_stream_and_checkpoint_digest() {
    for workers in [1usize, 2, 4] {
        let (spec, pre, test, cfg) = setup(workers);
        let dir_a = tmpdir(&format!("digest-a-w{workers}"));
        let dir_b = tmpdir(&format!("digest-b-w{workers}"));

        let a = train_fae_resilient(&spec, &pre, &test, &cfg, &checkpointing(dir_a.clone()));
        let b = train_fae_resilient(&spec, &pre, &test, &cfg, &checkpointing(dir_b.clone()));

        assert_history_bit_identical(&a.history, &b.history, &format!("W={workers}"));
        assert_eq!(a.final_test.loss.to_bits(), b.final_test.loss.to_bits(), "W={workers}");
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits(), "W={workers}");

        // The full training state fingerprints identically too.
        let ck_a = TrainCheckpoint::load(&latest_in(&dir_a).unwrap().expect("ckpt a")).unwrap();
        let ck_b = TrainCheckpoint::load(&latest_in(&dir_b).unwrap().expect("ckpt b")).unwrap();
        assert_eq!(ck_a.steps, ck_b.steps, "W={workers}: checkpoint steps");
        assert_eq!(
            ck_a.digest(),
            ck_b.digest(),
            "W={workers}: checkpoint digests must match bit for bit"
        );
        fs::remove_dir_all(&dir_a).ok();
        fs::remove_dir_all(&dir_b).ok();
    }
}

#[test]
fn multi_worker_resume_is_bit_identical_to_uninterrupted_run() {
    for workers in [2usize, 4] {
        let (spec, pre, test, cfg) = setup(workers);
        let dir_ref = tmpdir(&format!("resume-ref-w{workers}"));
        let dir = tmpdir(&format!("resume-w{workers}"));

        // Reference: checkpointed but never interrupted, so its final
        // checkpoint digest can be compared against the resumed run's.
        let reference =
            train_fae_resilient(&spec, &pre, &test, &cfg, &checkpointing(dir_ref.clone()));
        let total_steps = reference.hot_steps + reference.cold_steps;

        let halted = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &cfg,
            &ResilienceOptions {
                halt_after_steps: Some(total_steps / 3),
                ..checkpointing(dir.clone())
            },
        );
        assert!(halted.interrupted, "W={workers}: halted run must report interruption");

        let resumed = train_fae_resilient(
            &spec,
            &pre,
            &test,
            &cfg,
            &ResilienceOptions { resume: true, ..checkpointing(dir.clone()) },
        );
        assert!(
            resumed
                .recoveries
                .iter()
                .any(|r| matches!(r, RecoveryAction::ResumedFromCheckpoint { .. })),
            "W={workers}: resume must restore a checkpoint, not start fresh"
        );

        assert_history_bit_identical(
            &resumed.history,
            &reference.history,
            &format!("W={workers} resume"),
        );
        assert_eq!(
            resumed.final_test.loss.to_bits(),
            reference.final_test.loss.to_bits(),
            "W={workers}: resumed final loss must be bit-identical"
        );
        assert_eq!(resumed.simulated_seconds.to_bits(), reference.simulated_seconds.to_bits());

        let ck_ref = TrainCheckpoint::load(&latest_in(&dir_ref).unwrap().unwrap()).unwrap();
        let ck_res = TrainCheckpoint::load(&latest_in(&dir).unwrap().unwrap()).unwrap();
        assert_eq!(ck_ref.steps, ck_res.steps, "W={workers}: final checkpoint steps");
        assert_eq!(
            ck_ref.digest(),
            ck_res.digest(),
            "W={workers}: resumed run's final checkpoint must fingerprint identically"
        );
        fs::remove_dir_all(&dir_ref).ok();
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn worker_counts_agree_on_training_quality() {
    // Different worker counts legally differ in float summation order,
    // so bits may differ — but the learned model must be equally good.
    let (spec, pre, test, cfg1) = setup(1);
    let r1 = train_fae(&spec, &pre, &test, &cfg1);
    let cfg4 = TrainConfig { workers: 4, ..cfg1 };
    let r4 = train_fae(&spec, &pre, &test, &cfg4);
    assert_eq!(r1.hot_steps + r1.cold_steps, r4.hot_steps + r4.cold_steps);
    assert!(
        (r1.final_test.accuracy - r4.final_test.accuracy).abs() < 0.02,
        "W=4 accuracy {} strayed from W=1 accuracy {}",
        r4.final_test.accuracy,
        r1.final_test.accuracy
    );
    // The simulated cost model is independent of the real thread count.
    assert_eq!(r1.simulated_seconds.to_bits(), r4.simulated_seconds.to_bits());
}
