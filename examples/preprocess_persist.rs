//! Preprocess once, train many times: the FAE on-disk format.
//!
//! §III-B: the calibrator and input processor run *once* per dataset; the
//! pure hot/cold mini-batch stream is persisted "in the FAE format for any
//! subsequent training runs". This example writes the container, reloads
//! it in a fresh "session", and trains from the reloaded stream.
//!
//! ```sh
//! cargo run --release --example preprocess_persist
//! ```

#![expect(clippy::expect_used, reason = "an example stops at the first failed step")]

use fae::core::{pipeline, CalibratorConfig, PreprocessConfig, Preprocessed, TrainConfig};
use fae::data::format::FaeFile;
use fae::data::{generate, BatchKind, GenOptions, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::tiny_test();
    let dataset = generate(&spec, &GenOptions::sized(8, 8_000));
    let (train, test) = dataset.split(0.2);

    // ---- Session 1: static preprocessing, persisted to disk. ----
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig::default(),
        &PreprocessConfig { minibatch_size: 64, seed: 9 },
    );
    let path = std::env::temp_dir().join("fae-demo-stream.fae");
    let file = artifacts.preprocessed.to_fae_file(&spec.name);
    file.write_file(&path).expect("write FAE container");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "wrote {} batches ({} hot / {} cold) -> {} ({:.1} KiB)",
        file.batches.len(),
        file.hot_count(),
        file.cold_count(),
        path.display(),
        bytes as f64 / 1024.0
    );

    // ---- Session 2: reload and train without re-running the static phase. ----
    let reloaded = FaeFile::read_file(&path).expect("read FAE container");
    println!("reloaded workload '{}' with {} batches", reloaded.workload, reloaded.batches.len());
    let (hot, cold): (Vec<_>, Vec<_>) =
        reloaded.batches.into_iter().partition(|b| b.kind == BatchKind::Hot);
    let pre = Preprocessed {
        hot_batches: hot,
        cold_batches: cold,
        hot_input_fraction: 0.0, // informational only; not needed to train
        partitions: artifacts.preprocessed.partitions.clone(),
    };

    let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
    let report = fae::core::train_fae(&spec, &pre, &test, &cfg);
    println!(
        "trained from reloaded stream: test acc {:.2}%, {:.2}s simulated, {} syncs",
        report.final_test.accuracy * 100.0,
        report.simulated_seconds,
        report.transitions
    );
    std::fs::remove_file(&path).ok();
}
