//! Cross-crate integration tests: the full FAE pipeline from dataset
//! synthesis through calibration, classification, preprocessing, disk
//! round-trip and training — the flow of the paper's Fig 5.

use fae::core::calibrator::{log_accesses, sample_inputs};
use fae::core::classifier::classify_tables;
use fae::core::input_processor::{preprocess_inputs, PreprocessConfig};
use fae::core::{pipeline, train_baseline, train_fae, CalibratorConfig, TrainConfig};
use fae::data::format::FaeFile;
use fae::data::{generate, BatchKind, GenOptions, WorkloadSpec};
use fae::models::MasterEmbeddings;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn forced_partial_calibrator() -> CalibratorConfig {
    // tiny-test tables are all under 1 MB; shrink the small-table rule so
    // the threshold path is actually exercised.
    CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_produces_pure_batches_and_trains() {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(101, 10_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 1 },
    );
    let pre = &artifacts.preprocessed;
    assert!(pre.hot_input_fraction > 0.3 && pre.hot_input_fraction < 0.99);
    assert!(!pre.hot_batches.is_empty() && !pre.cold_batches.is_empty());
    // Purity invariant across the whole stream.
    for b in &pre.hot_batches {
        for (t, csr) in b.sparse.iter().enumerate() {
            assert!(csr.indices.iter().all(|&i| pre.partitions[t].is_hot(i)));
        }
    }
    // Coverage invariant: no sample lost or duplicated.
    assert_eq!(pre.total_samples(), train.len());

    let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
    let fae = train_fae(&spec, pre, &test, &cfg);
    assert!(fae.hot_steps > 0 && fae.cold_steps > 0);
    assert!(fae.final_test.accuracy > 0.55, "accuracy {}", fae.final_test.accuracy);
}

#[test]
fn fae_matches_baseline_accuracy_and_beats_its_time() {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(103, 12_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 2 },
    );
    let cfg = TrainConfig { epochs: 2, minibatch_size: 64, ..Default::default() };
    let base = train_baseline(&spec, &train, &test, &cfg);
    let fae = train_fae(&spec, &artifacts.preprocessed, &test, &cfg);
    // Table III: accuracy parity.
    assert!(
        (base.final_test.accuracy - fae.final_test.accuracy).abs() < 0.025,
        "accuracy gap: base {} vs fae {}",
        base.final_test.accuracy,
        fae.final_test.accuracy
    );
    // Fig 13: FAE wins on time.
    assert!(fae.simulated_seconds < base.simulated_seconds);
    // Table VI: FAE draws less GPU power.
    assert!(fae.avg_gpu_power_w < base.avg_gpu_power_w);
}

#[test]
fn preprocessed_stream_survives_disk_round_trip_and_trains_identically() {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(107, 8_000));
    let (train, test) = ds.split(0.25);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
        &PreprocessConfig { minibatch_size: 64, seed: 3 },
    );
    let path = std::env::temp_dir().join("fae-e2e-roundtrip.fae");
    artifacts.preprocessed.to_fae_file(&spec.name).write_file(&path).expect("write");
    let reloaded = FaeFile::read_file(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.workload, spec.name);
    assert_eq!(reloaded.hot_count(), artifacts.preprocessed.hot_batches.len());
    assert_eq!(reloaded.cold_count(), artifacts.preprocessed.cold_batches.len());

    // Rebuild a Preprocessed from disk and verify training matches the
    // in-memory stream exactly (same seeds, same batches).
    let (hot, cold): (Vec<_>, Vec<_>) =
        reloaded.batches.into_iter().partition(|b| b.kind == BatchKind::Hot);
    let from_disk = fae::core::Preprocessed {
        hot_batches: hot,
        cold_batches: cold,
        hot_input_fraction: artifacts.preprocessed.hot_input_fraction,
        partitions: artifacts.preprocessed.partitions.clone(),
    };
    let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
    let a = train_fae(&spec, &artifacts.preprocessed, &test, &cfg);
    let b = train_fae(&spec, &from_disk, &test, &cfg);
    assert_eq!(a.final_test.accuracy, b.final_test.accuracy);
    assert_eq!(a.final_test.loss, b.final_test.loss);
}

#[test]
fn calibrator_components_compose_manually() {
    // Drive the calibrator's pieces by hand (as the figure harnesses do)
    // and verify they agree with the packaged pipeline.
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(109, 10_000));
    let cfg = forced_partial_calibrator();
    let calibrator = fae::core::Calibrator::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let samples = sample_inputs(&ds, cfg.sample_rate, &mut rng);
    let counters = log_accesses(&ds, &samples);
    let cal = calibrator.converge(&ds, &counters, &mut rng);
    let parts = classify_tables(&spec, &counters, &cal);
    let pre = preprocess_inputs(&ds, parts, &PreprocessConfig { minibatch_size: 64, seed: 4 });

    let packaged = pipeline::prepare(&ds, cfg, &PreprocessConfig { minibatch_size: 64, seed: 4 });
    assert_eq!(cal.threshold, packaged.calibration.threshold);
    assert_eq!(pre.hot_batches.len(), packaged.preprocessed.hot_batches.len());
    assert_eq!(pre.cold_batches.len(), packaged.preprocessed.cold_batches.len());
}

#[test]
fn tbsm_pipeline_end_to_end() {
    let mut spec = WorkloadSpec::rmc1_taobao();
    spec.tables[0].rows = 3_000;
    spec.tables[1].rows = 150;
    spec.tables[2].rows = 800;
    let ds = generate(&spec, &GenOptions::sized(113, 6_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: 80 << 10,
            small_table_bytes: 2 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: 64, seed: 5 },
    );
    let cfg = TrainConfig { epochs: 1, minibatch_size: 64, lr: 0.03, ..Default::default() };
    let r = train_fae(&spec, &artifacts.preprocessed, &test, &cfg);
    assert!(r.final_test.accuracy > 0.5, "TBSM accuracy {}", r.final_test.accuracy);
    assert!(r.final_test.loss.is_finite());
}

#[test]
fn int8_master_is_under_half_the_f32_master_on_scaled_kaggle() {
    // The memory side of `--quantize-cold` on the workload it is for
    // (accuracy parity is `quantized_cold_tier_matches_f32_accuracy`):
    // with the partition the calibrator picks at the CLI's default
    // budget, hot f32 + cold int8 + per-row metadata must stay under
    // half of the f32 tables.
    let mut spec = WorkloadSpec::rmc2_kaggle();
    spec.num_inputs = 60_000;
    let ds = generate(&spec, &GenOptions::sized(0xBE9C, spec.num_inputs));
    let (train, _) = ds.split(0.15);
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: spec.embedding_bytes() / 8,
            small_table_bytes: 8 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: 256, seed: 7 },
    );
    let f32_bytes = MasterEmbeddings::from_spec(&spec, &mut StdRng::seed_from_u64(1)).total_bytes();
    let int8_bytes = MasterEmbeddings::from_spec_tiered(
        &spec,
        &artifacts.preprocessed.partitions,
        &mut StdRng::seed_from_u64(1),
    )
    .total_bytes();
    assert_eq!(f32_bytes, spec.embedding_bytes());
    assert!(2 * int8_bytes < f32_bytes, "int8 tier too large: {int8_bytes} B vs f32 {f32_bytes} B");
}
