//! One-call pipelines assembling the full FAE flow of Fig 5:
//! generate/load data → calibrate → classify → preprocess → train —
//! plus [`prefetch_fae_blocks`], which streams an FAE container held in
//! memory back one mini-batch at a time. A saved file is read through
//! one window instead ([`FaeStreamReader::open_file`], what
//! [`artifacts::load`](crate::artifacts::load) uses), never whole.

use fae_data::format::{FaeStreamReader, FormatError};
use fae_data::{Dataset, WorkloadSpec};
use fae_telemetry::{metric, Telemetry};

use crate::calibrator::{CalibrationResult, Calibrator, CalibratorConfig};
use crate::classifier::classify_tables;
use crate::input_processor::{preprocess_inputs, PreprocessConfig, Preprocessed};
use crate::trainer::{train_baseline, train_fae, TrainConfig, TrainReport};

/// Opens a FAE container held in `bytes` and streams its mini-batches,
/// each decoded on the caller's thread when it asks for the next one. The
/// header is validated here (a corrupt or foreign file errors at open, and
/// its batch count is held to the length of `bytes`); a body error — a
/// torn or corrupt batch, or a byte after the last — is the stream's last
/// item. Returns the container's workload name and the batch stream.
pub fn prefetch_fae_blocks(
    bytes: Vec<u8>,
) -> Result<(String, FaeStreamReader<Vec<u8>>), FormatError> {
    let stream = FaeStreamReader::open(bytes)?;
    Ok((stream.workload().to_string(), stream))
}

/// Output of the static (one-time per dataset) half of the framework.
#[derive(Clone)]
pub struct StaticArtifacts {
    /// The calibrator's threshold decision.
    pub calibration: CalibrationResult,
    /// The preprocessed hot/cold mini-batch stream.
    pub preprocessed: Preprocessed,
}

/// Runs calibration, classification and input processing in one go.
pub fn prepare(
    train: &Dataset,
    calibrator_cfg: CalibratorConfig,
    pre_cfg: &PreprocessConfig,
) -> StaticArtifacts {
    prepare_with(train, calibrator_cfg, pre_cfg, &Telemetry::disabled())
}

/// [`prepare`] with a telemetry handle: every static-pipeline stage runs
/// under a span (`prepare/sample` → `prepare/log` → `prepare/converge` →
/// `prepare/classify` → `prepare/preprocess`) and the hot/cold split is
/// exported as counters and gauges.
pub fn prepare_with(
    train: &Dataset,
    calibrator_cfg: CalibratorConfig,
    pre_cfg: &PreprocessConfig,
    telemetry: &Telemetry,
) -> StaticArtifacts {
    let _span = telemetry.span("prepare");
    let (calibration, counters) = Calibrator::new(calibrator_cfg).calibrate_with(train, telemetry);
    let partitions = {
        let _s = telemetry.span("prepare/classify");
        classify_tables(&train.spec, &counters, &calibration)
    };
    let preprocessed = {
        let _s = telemetry.span("prepare/preprocess");
        preprocess_inputs(train, partitions, pre_cfg)
    };
    telemetry.counter_add(metric!("calibrator.sampled_inputs"), calibration.sampled_inputs as u64);
    telemetry.gauge_set(metric!("calibrator.threshold"), calibration.threshold);
    telemetry.gauge_set(metric!("calibrator.est_hot_bytes"), calibration.est_hot_bytes);
    telemetry.counter_add(metric!("preprocess.hot_batches"), preprocessed.hot_batches.len() as u64);
    telemetry
        .counter_add(metric!("preprocess.cold_batches"), preprocessed.cold_batches.len() as u64);
    telemetry.gauge_set(metric!("preprocess.hot_input_fraction"), preprocessed.hot_input_fraction);
    StaticArtifacts { calibration, preprocessed }
}

/// End-to-end comparison: trains the same workload under the baseline and
/// under FAE, returning `(baseline, fae)` reports.
pub fn compare(
    spec: &WorkloadSpec,
    train: &Dataset,
    test: &Dataset,
    artifacts: &StaticArtifacts,
    cfg: &TrainConfig,
) -> (TrainReport, TrainReport) {
    let base = train_baseline(spec, train, test, cfg);
    let fae = train_fae(spec, &artifacts.preprocessed, test, cfg);
    (base, fae)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, GenOptions};

    #[test]
    fn prefetch_fae_blocks_rejects_a_garbage_header_at_open() {
        assert!(prefetch_fae_blocks(vec![0u8; 16]).is_err());
    }

    #[test]
    fn prepare_produces_consistent_artifacts() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(19, 8_000));
        let art = prepare(
            &ds,
            CalibratorConfig::default(),
            &PreprocessConfig { minibatch_size: 64, seed: 1 },
        );
        assert!(art.calibration.sampled_inputs > 0);
        assert_eq!(art.preprocessed.total_samples(), ds.len());
        assert_eq!(art.preprocessed.partitions.len(), spec.tables.len());
    }

    #[test]
    fn compare_runs_both_modes() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(23, 4_000));
        let (train, test) = ds.split(0.25);
        let art = prepare(
            &train,
            CalibratorConfig::default(),
            &PreprocessConfig { minibatch_size: 64, seed: 2 },
        );
        let cfg = TrainConfig { epochs: 1, minibatch_size: 64, ..Default::default() };
        let (base, fae) = compare(&spec, &train, &test, &art, &cfg);
        assert!(base.simulated_seconds > 0.0);
        assert!(fae.simulated_seconds > 0.0);
        // Tiny tables are all de-facto hot, so FAE runs everything hot and
        // wins outright.
        assert!(fae.simulated_seconds < base.simulated_seconds);
    }
}
