//! Integration tests for the resilience layer: checkpoint/resume
//! bit-identity, graceful degradation under injected faults, and
//! retry-with-backoff cost accounting.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use std::fs;
use std::path::PathBuf;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    latest_in, pipeline, train_fae, train_fae_resilient, CalibratorConfig, FaultPlan,
    RecoveryAction, ResilienceOptions, Telemetry, TrainCheckpoint, TrainConfig,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::sysmodel::Phase;
use fae::telemetry::JournalEvent;

/// Tiny-test tables are all under 1 MB; shrink the budget so the
/// calibrator actually produces a hot/cold split (same trick as the
/// end-to-end suite).
fn forced_partial_calibrator() -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    }
}

/// A small workload with both hot and cold batches and a 2-epoch run —
/// enough rounds for checkpoints and faults to land mid-stream.
fn setup() -> (WorkloadSpec, Preprocessed, Dataset, TrainConfig) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(211, 10_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 3 },
    );
    let cfg = TrainConfig { epochs: 2, minibatch_size: 64, initial_rate: 25, ..Default::default() };
    (spec, artifacts.preprocessed, test, cfg)
}

/// A fresh scratch directory under the system temp dir.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-ft-{name}"));
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

#[test]
fn resume_reproduces_uninterrupted_run_exactly() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("resume");

    // Reference: same seed, no checkpointing, never interrupted.
    let reference = train_fae(&spec, &pre, &test, &cfg);
    let total_steps = reference.hot_steps + reference.cold_steps;

    // Crash roughly a third of the way through (past the first round,
    // so at least one checkpoint exists on disk).
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
    assert!(halted.interrupted, "halted run must report interruption");
    assert!(
        latest_in(&dir).unwrap().is_some(),
        "at least one checkpoint must exist after the crash"
    );

    let resumed = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { resume: true, ..checkpointing(dir) },
    );
    assert!(
        resumed
            .recoveries
            .iter()
            .any(|r| matches!(r, RecoveryAction::ResumedFromCheckpoint { .. })),
        "resume must actually restore a checkpoint, not start fresh"
    );
    assert!(!resumed.interrupted);

    // Bit-identical final state: losses, accuracy, simulated time,
    // step counts, schedule and eval history all match the
    // uninterrupted run exactly.
    assert_eq!(
        resumed.final_test.loss.to_bits(),
        reference.final_test.loss.to_bits(),
        "final test loss must be bit-identical after resume"
    );
    assert_eq!(resumed.final_test.accuracy.to_bits(), reference.final_test.accuracy.to_bits());
    assert_eq!(resumed.final_train.loss.to_bits(), reference.final_train.loss.to_bits());
    assert_eq!(
        resumed.simulated_seconds.to_bits(),
        reference.simulated_seconds.to_bits(),
        "checkpoint saves must charge zero simulated time"
    );
    assert_eq!(resumed.hot_steps, reference.hot_steps);
    assert_eq!(resumed.cold_steps, reference.cold_steps);
    assert_eq!(resumed.transitions, reference.transitions);
    assert_eq!(resumed.final_rate, reference.final_rate);
    assert_eq!(resumed.history, reference.history);
}

#[test]
fn device_loss_and_replication_failure_degrade_gracefully() {
    let (spec, pre, test, mut cfg) = setup();
    cfg.num_gpus = 4;

    let clean = train_fae(&spec, &pre, &test, &cfg);

    // Lose a device early, then fail hot replication later: the run
    // must finish (degraded), not die.
    let plan = FaultPlan::parse("device-loss@5,replication-oom@40").unwrap();
    let faulted = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { plan, ..Default::default() },
    );

    assert_eq!(faulted.faults.len(), 2, "both planned faults must fire");
    assert!(
        faulted
            .recoveries
            .iter()
            .any(|r| matches!(r, RecoveryAction::ShrankReplicas { from: 4, to: 3, .. })),
        "device loss must shrink the replica group 4 -> 3: {:?}",
        faulted.recoveries
    );
    assert!(
        faulted.recoveries.iter().any(|r| matches!(r, RecoveryAction::ColdFallback { .. })),
        "replication failure must fall back to cold-only execution"
    );

    // Recovery cost is visible in the timeline. Both runs execute the
    // same number of steps, so the per-step framework overhead cancels
    // and the difference is the re-shard: communicator re-init charged
    // to Framework plus the parameter re-broadcast on AllReduce. (The
    // degraded run is not necessarily slower *overall* — cold fallback
    // also skips all later hot<->cold syncs — so total time ordering is
    // deliberately not asserted.)
    let framework_delta =
        faulted.timeline.get(Phase::Framework) - clean.timeline.get(Phase::Framework);
    assert!(
        framework_delta >= 0.74,
        "communicator re-init (0.75 s) must be charged to the framework \
         phase, got a delta of {framework_delta} s"
    );
    // After the fallback, would-be-hot batches run cold.
    assert!(faulted.hot_steps < clean.hot_steps);
    assert_eq!(
        faulted.hot_steps + faulted.cold_steps,
        clean.hot_steps + clean.cold_steps,
        "degradation must not drop or duplicate training steps"
    );
    // Still trains: numerics survive the mode changes.
    assert!(
        faulted.final_test.accuracy > 0.55,
        "degraded run must still learn, got {}",
        faulted.final_test.accuracy
    );
}

#[test]
fn sync_failure_is_retried_as_pure_cost() {
    let (spec, pre, test, cfg) = setup();

    let clean = train_fae(&spec, &pre, &test, &cfg);

    let plan = FaultPlan::parse("sync-failure@10").unwrap();
    let faulted = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { plan, ..Default::default() },
    );

    assert_eq!(faulted.faults.len(), 1);
    let retried = faulted
        .recoveries
        .iter()
        .find_map(|r| match r {
            RecoveryAction::SyncRetried { attempts, waited_s, .. } => Some((*attempts, *waited_s)),
            _ => None,
        })
        .expect("sync failure must be recovered by retrying");
    assert!(retried.0 >= 2, "at least one failed attempt plus the success");
    assert!(retried.1 > 0.0, "backoff waits must be accounted");

    // The retry re-pays the sync and waits out the backoff...
    assert!(faulted.timeline.get(Phase::EmbedSync) > clean.timeline.get(Phase::EmbedSync));
    assert!(faulted.timeline.get(Phase::Framework) > clean.timeline.get(Phase::Framework));
    // ...but never touches the numerics.
    assert_eq!(
        faulted.final_test.loss.to_bits(),
        clean.final_test.loss.to_bits(),
        "sync retries are pure cost; the trained model must be unchanged"
    );
}

#[test]
fn checkpoints_written_during_training_round_trip() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("roundtrip");

    let report = train_fae_resilient(&spec, &pre, &test, &cfg, &checkpointing(dir.clone()));
    assert!(!report.interrupted);

    let path = latest_in(&dir)
        .unwrap()
        .expect("a full run with every-round checkpointing must leave files");
    let ck = TrainCheckpoint::load(&path).expect("checkpoint written mid-run must load");
    assert_eq!(ck.config_seed, cfg.seed);
    assert!(ck.steps > 0);
    // Every file in the directory is a valid checkpoint — no temp
    // residue, no torn writes.
    for entry in fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        assert!(
            TrainCheckpoint::load(&p).is_ok(),
            "stray or corrupt file left behind: {}",
            p.display()
        );
    }
}

#[test]
fn corrupted_checkpoint_falls_back_to_a_fresh_start() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("corrupt");

    let reference = train_fae(&spec, &pre, &test, &cfg);
    let total_steps = reference.hot_steps + reference.cold_steps;

    // Crash mid-run, then corrupt the newest checkpoint on disk.
    let halted = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions {
            halt_after_steps: Some(total_steps / 2),
            ..checkpointing(dir.clone())
        },
    );
    assert!(halted.interrupted);
    let path = latest_in(&dir).unwrap().expect("checkpoint exists");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    assert!(TrainCheckpoint::load(&path).is_err(), "the CRC trailer must reject the flipped byte");

    // Resume cannot trust the corrupt file; it must restart from
    // scratch and still converge to the reference bits.
    let resumed = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { resume: true, ..checkpointing(dir) },
    );
    assert!(
        !resumed
            .recoveries
            .iter()
            .any(|r| matches!(r, RecoveryAction::ResumedFromCheckpoint { .. })),
        "a corrupt checkpoint must not be resumed from"
    );
    assert_eq!(
        resumed.final_test.loss.to_bits(),
        reference.final_test.loss.to_bits(),
        "fresh restart must still match the reference run"
    );
}

#[test]
fn transient_io_during_checkpointing_is_retried_and_reported() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("transient-io");

    let plan = FaultPlan::parse("transient-io@0").unwrap();
    let report = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { plan, ..checkpointing(dir.clone()) },
    );
    assert!(!report.interrupted, "transient I/O must not kill the run");
    let retried = report
        .recoveries
        .iter()
        .find_map(|r| match r {
            RecoveryAction::RetriedIo { attempts, waited_s } => Some((*attempts, *waited_s)),
            _ => None,
        })
        .expect("the injected I/O fault must surface as a retry recovery");
    assert!(retried.0 >= 2);
    assert!(retried.1 > 0.0);

    // Despite the flaky writes, the surviving checkpoints are valid.
    let path = latest_in(&dir).unwrap().expect("checkpoints were written");
    assert!(TrainCheckpoint::load(&path).is_ok());
}

#[test]
fn sync_bytes_counter_equals_the_journalled_sync_bytes_under_faults() {
    // Failed sync attempts and an aborted replication move bytes too:
    // every `sync` event the journal carries must be in the counter.
    let (spec, pre, test, cfg) = setup();
    let telemetry = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
    let plan = FaultPlan::parse("sync-failure@10,replication-oom@120").unwrap();
    let report = train_fae_resilient(
        &spec,
        &pre,
        &test,
        &cfg,
        &ResilienceOptions { plan, telemetry: telemetry.clone(), ..Default::default() },
    );
    assert_eq!(report.faults.len(), 2, "both planned faults must fire");

    let mut directions = Vec::new();
    let mut journalled = 0u64;
    for t in telemetry.events() {
        if let JournalEvent::Sync { direction, bytes, .. } = t.event {
            directions.push(direction);
            journalled += bytes;
        }
    }
    for expected in ["initial", "retry", "refresh", "write-back", "aborted-replication"] {
        assert!(directions.iter().any(|d| d == expected), "no {expected} sync in {directions:?}");
    }
    assert_eq!(telemetry.metrics().counter("replicator.sync_bytes"), journalled);
}
