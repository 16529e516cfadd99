//! Integration tests for the telemetry layer: the journal-sums-to-
//! simulated-seconds invariant (including across resume), the journal →
//! `fae report` round trip, and byte-level determinism of the Chrome
//! trace export.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use std::fs;
use std::path::PathBuf;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    pipeline, train_fae_resilient, CalibratorConfig, FaultPlan, ResilienceOptions, Telemetry,
    TrainConfig,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::telemetry::{chrome_trace, read_tagged_journal, summarize, JournalEvent, TaggedEvent};

/// Shrunken budget so the tiny workload actually splits hot/cold.
fn forced_partial_calibrator() -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    }
}

fn setup() -> (WorkloadSpec, Preprocessed, Dataset, TrainConfig) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(977, 10_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 5 },
    );
    let cfg = TrainConfig { epochs: 2, minibatch_size: 64, num_gpus: 2, ..Default::default() };
    (spec, artifacts.preprocessed, test, cfg)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-telemetry-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Sum of every journalled per-phase second.
fn journalled_seconds(events: &[TaggedEvent]) -> f64 {
    events.iter().filter_map(|t| t.event.phases()).map(|p| p.total()).sum()
}

#[test]
fn journal_phase_seconds_sum_to_simulated_seconds() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("sums");
    let journal = dir.join("run.jsonl");
    let telem = Telemetry::builder()
        .journal_path(&journal)
        .retain_events(true)
        .try_build()
        .expect("telemetry");
    let opts = ResilienceOptions {
        plan: FaultPlan::parse_seeded("sync-failure@40,device-loss@90", 11).unwrap(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every_rounds: 1,
        telemetry: telem.clone(),
        ..Default::default()
    };
    let report = train_fae_resilient(&spec, &pre, &test, &cfg, &opts);

    // In-memory stream and on-disk journal agree.
    let retained = telem.events();
    let from_disk = read_tagged_journal(&journal).expect("journal parses");
    assert_eq!(retained, from_disk);

    // The headline invariant: journalled per-phase seconds account for
    // every simulated second the run reports.
    let sum = journalled_seconds(&retained);
    assert!(
        (sum - report.simulated_seconds).abs() < 1e-6,
        "journalled {sum} vs reported {}",
        report.simulated_seconds
    );

    // The eval trail carries the scheduling context: step counters are
    // monotone and end at the run's totals, simulated time is monotone.
    let evals: Vec<_> = report.history.iter().collect();
    assert!(!evals.is_empty());
    for w in evals.windows(2) {
        assert!(w[1].hot_steps >= w[0].hot_steps);
        assert!(w[1].cold_steps >= w[0].cold_steps);
        assert!(w[1].sim_seconds >= w[0].sim_seconds);
    }
    let last = evals.last().unwrap();
    assert_eq!(last.hot_steps, report.hot_steps);
    assert_eq!(last.cold_steps, report.cold_steps);

    // Metrics agree with the report's own accounting.
    let m = telem.metrics();
    assert_eq!(m.counter("train.steps_hot"), report.hot_steps as u64);
    assert_eq!(m.counter("train.steps_cold"), report.cold_steps as u64);
    assert_eq!(m.counter("faults.injected.sync-failure"), 1);
    assert_eq!(m.counter("faults.injected.device-loss"), 1);
}

#[test]
fn journal_sums_hold_across_resume() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("resume");

    // First leg: halt mid-run with checkpointing on. The halt point is
    // past the first schedule round so at least one checkpoint exists.
    let first = ResilienceOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every_rounds: 1,
        halt_after_steps: Some(150),
        ..Default::default()
    };
    let r1 = train_fae_resilient(&spec, &pre, &test, &cfg, &first);
    assert!(r1.interrupted);
    assert!(fae::core::latest_in(&dir).unwrap().is_some(), "no checkpoint before resume");

    // Second leg: resume with a journal attached. The resumed run must
    // journal the checkpoint's prior timeline as a charge so its event
    // stream still accounts for the *total* simulated seconds.
    let telem = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
    let second = ResilienceOptions {
        checkpoint_dir: Some(dir),
        checkpoint_every_rounds: 1,
        resume: true,
        telemetry: telem.clone(),
        ..Default::default()
    };
    let r2 = train_fae_resilient(&spec, &pre, &test, &cfg, &second);
    assert!(!r2.interrupted);
    let events = telem.events();
    assert!(events.iter().any(|t| matches!(
        &t.event,
        JournalEvent::Recovery { action, .. } if action == "resumed-from-checkpoint"
    )));
    let sum = journalled_seconds(&events);
    assert!(
        (sum - r2.simulated_seconds).abs() < 1e-6,
        "journalled {sum} vs reported {} after resume",
        r2.simulated_seconds
    );
}

#[test]
fn report_summary_matches_run() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("report");
    let journal = dir.join("run.jsonl");
    let telem = Telemetry::builder().journal_path(&journal).try_build().expect("telemetry");
    let opts = ResilienceOptions { telemetry: telem, ..Default::default() };
    let report = train_fae_resilient(&spec, &pre, &test, &cfg, &opts);

    let events = read_tagged_journal(&journal).expect("journal parses");
    let summary = summarize(&events);
    assert_eq!(
        summary.hot_steps + summary.cold_steps,
        (report.hot_steps + report.cold_steps) as u64
    );
    assert!((summary.journalled_seconds() - report.simulated_seconds).abs() < 1e-6);
    assert!((summary.reported_simulated_seconds.unwrap() - report.simulated_seconds).abs() < 1e-12);

    let rendered = fae::telemetry::render(&summary);
    assert!(rendered.contains("framework"), "rendered:\n{rendered}");
    assert!(rendered.contains("all-reduce"), "rendered:\n{rendered}");
    assert!(rendered.contains(&format!("{} hot", report.hot_steps)), "rendered:\n{rendered}");
}

#[test]
fn chrome_trace_is_deterministic_for_same_seed() {
    let (spec, pre, test, cfg) = setup();
    let run = || {
        let telem = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
        let opts = ResilienceOptions {
            plan: FaultPlan::parse_seeded("sync-failure@40", 7).unwrap(),
            telemetry: telem.clone(),
            ..Default::default()
        };
        train_fae_resilient(&spec, &pre, &test, &cfg, &opts);
        chrome_trace(&telem.events()).expect("render")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed runs must export byte-identical traces");

    // The trace is valid JSON of the Trace-Event shape Perfetto loads.
    let v: serde_json::Value = serde_json::from_str(&a).expect("trace parses");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(events.len() > 10);
    assert!(events.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
}

/// Satellite of the fae-lint PR: the determinism contract the linter
/// enforces (no wall clock, no ambient RNG, no hash-order iteration in
/// the five deterministic crates) is observable end to end — two
/// same-seed runs must write byte-identical journal *files*, not just
/// equal in-memory event streams.
#[test]
fn same_seed_runs_write_byte_identical_journals() {
    let (spec, pre, test, cfg) = setup();
    let dir = tmpdir("byte-identity");
    let run = |name: &str| -> Vec<u8> {
        let path = dir.join(name);
        let telem = Telemetry::builder().journal_path(&path).try_build().expect("telemetry");
        let opts = ResilienceOptions {
            plan: FaultPlan::parse_seeded("sync-failure@40,device-loss@90", 11).unwrap(),
            telemetry: telem,
            ..Default::default()
        };
        train_fae_resilient(&spec, &pre, &test, &cfg, &opts);
        fs::read(&path).expect("journal file")
    };
    let a = run("a.jsonl");
    let b = run("b.jsonl");
    assert!(!a.is_empty(), "journal must not be empty");
    assert_eq!(a, b, "same-seed runs must write byte-identical journals");
}
