//! The Calibrator (§III-A): chooses the access threshold that makes the
//! hot-embedding bag fit the GPU memory budget, using sampling at both
//! ends (inputs and embedding rows) to stay cheap.
//!
//! Pipeline: [`sample_inputs`] (the *sparse input sampler*, x = 5%) →
//! [`log_accesses`] (the *embedding logger*) → the *statistical optimizer*
//! ([`Calibrator::calibrate`]) which walks a descending threshold ladder,
//! invoking the [`RandEmBox`] per large table, and keeps the smallest
//! threshold whose estimated hot size fits `L`.

mod randem;

pub use randem::{RandEmBox, RandEmEstimate};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fae_data::Dataset;
use fae_embed::AccessCounter;
use fae_telemetry::Telemetry;

/// Calibrator configuration (all defaults follow §III-A).
#[derive(Clone, Debug)]
pub struct CalibratorConfig {
    /// Fraction of inputs sampled by the sparse input sampler (paper: 5%).
    pub sample_rate: f64,
    /// GPU memory allocated to hot embeddings, bytes (paper: L = 256 MB).
    pub gpu_budget_bytes: usize,
    /// Rand-Em Box sampling parameters.
    pub randem: RandEmBox,
    /// Descending ladder of access thresholds, as fractions of a table's
    /// total sampled accesses (the knob of Fig 6).
    pub threshold_ladder: Vec<f64>,
    /// Tables smaller than this many bytes are de-facto hot (paper: 1 MB).
    pub small_table_bytes: usize,
    /// RNG seed for both samplers.
    pub seed: u64,
}

impl Default for CalibratorConfig {
    fn default() -> Self {
        Self {
            sample_rate: 0.05,
            gpu_budget_bytes: 256 << 20,
            randem: RandEmBox::default(),
            threshold_ladder: vec![
                1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6, 1e-6,
            ],
            small_table_bytes: 1 << 20,
            seed: 0xCA11B,
        }
    }
}

/// Per-table calibration outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TableCalibration {
    /// Absolute access cutoff (`H_zt = t × total_accesses`); 0 means the
    /// whole table is hot (small table).
    pub cutoff: u64,
    /// Estimated hot rows (upper confidence bound).
    pub est_hot_rows: f64,
    /// Whether the table was classified wholesale as hot (< 1 MB).
    pub de_facto_hot: bool,
}

/// The calibrator's final answer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CalibrationResult {
    /// The chosen threshold `t` (fraction of total accesses).
    pub threshold: f64,
    /// Per-table cutoffs and estimates.
    pub tables: Vec<TableCalibration>,
    /// Estimated total hot-bag bytes (upper confidence bound).
    pub est_hot_bytes: f64,
    /// Whether the estimate fits the budget (false only when even the
    /// largest ladder threshold overflows `L`).
    pub fits_budget: bool,
    /// How many inputs the sparse input sampler drew.
    pub sampled_inputs: usize,
}

/// The sparse input sampler (§III-A.1): draws `rate` of the dataset's
/// input indices uniformly at random, preserving order.
pub fn sample_inputs(ds: &Dataset, rate: f64, rng: &mut impl Rng) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&rate), "sample rate out of range");
    (0..ds.len()).filter(|_| rng.gen_bool(rate)).collect()
}

/// The embedding logger (§III-A.2): per-row access counts over the given
/// input indices, one counter per table.
pub fn log_accesses(ds: &Dataset, samples: &[usize]) -> Vec<AccessCounter> {
    let mut counters: Vec<AccessCounter> =
        ds.spec.tables.iter().map(|t| AccessCounter::new(t.rows)).collect();
    for &s in samples {
        for (t, bag) in ds.bags_of(s) {
            counters[t].record_all(bag);
        }
    }
    counters
}

/// The calibrator.
#[derive(Clone, Debug, Default)]
pub struct Calibrator {
    /// Configuration knobs.
    pub config: CalibratorConfig,
}

impl Calibrator {
    /// Creates a calibrator with the given config.
    pub fn new(config: CalibratorConfig) -> Self {
        Self { config }
    }

    /// Runs the calibrator on a dataset: sample → log → converge on a
    /// threshold.
    pub fn calibrate(&self, ds: &Dataset) -> CalibrationResult {
        self.calibrate_with(ds, &Telemetry::disabled()).0
    }

    /// [`Self::calibrate`], each stage under its span of `telemetry`
    /// (`prepare/sample` → `prepare/log` → `prepare/converge`), also
    /// returning the logged counters [`crate::classify_tables`] reads.
    pub fn calibrate_with(
        &self,
        ds: &Dataset,
        telemetry: &Telemetry,
    ) -> (CalibrationResult, Vec<AccessCounter>) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let span = telemetry.span("prepare/sample");
        let samples = sample_inputs(ds, self.config.sample_rate, &mut rng);
        drop(span);
        let span = telemetry.span("prepare/log");
        let counters = log_accesses(ds, &samples);
        drop(span);
        let span = telemetry.span("prepare/converge");
        let result = self.converge(ds, &counters, &mut rng);
        drop(span);
        (CalibrationResult { sampled_inputs: samples.len(), ..result }, counters)
    }

    /// The statistical optimizer (§III-A.3): walks the threshold ladder
    /// from the largest threshold (smallest hot set) downwards, keeping
    /// the smallest threshold whose Rand-Em-estimated hot size fits `L`.
    #[expect(
        clippy::expect_used,
        reason = "ladder is asserted non-empty above and every branch of the first loop iteration seeds `best`"
    )]
    pub fn converge(
        &self,
        ds: &Dataset,
        counters: &[AccessCounter],
        rng: &mut StdRng,
    ) -> CalibrationResult {
        let spec = &ds.spec;
        assert_eq!(counters.len(), spec.tables.len(), "one counter per table");
        let row_bytes = spec.embedding_dim * std::mem::size_of::<f32>();

        let mut ladder = self.config.threshold_ladder.clone();
        ladder.sort_by(|a, b| b.total_cmp(a));
        assert!(!ladder.is_empty(), "threshold ladder may not be empty");

        // Small tables ride along for free.
        let small: Vec<bool> = (0..spec.tables.len())
            .map(|t| spec.table_bytes(t) < self.config.small_table_bytes)
            .collect();
        let small_bytes: f64 = small
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(t, _)| spec.table_bytes(t) as f64)
            .sum();

        let evaluate = |t_frac: f64, rng: &mut StdRng| -> (Vec<TableCalibration>, f64) {
            let mut tables = Vec::with_capacity(spec.tables.len());
            let mut bytes = small_bytes;
            for (z, counter) in counters.iter().enumerate() {
                if small[z] {
                    tables.push(TableCalibration {
                        cutoff: 0,
                        est_hot_rows: spec.tables[z].rows as f64,
                        de_facto_hot: true,
                    });
                    continue;
                }
                let cutoff = ((t_frac * counter.total() as f64).ceil() as u64).max(1);
                let est = self.config.randem.estimate(counter, cutoff, rng);
                bytes += est.hot_rows_upper * row_bytes as f64;
                tables.push(TableCalibration {
                    cutoff,
                    est_hot_rows: est.hot_rows_upper,
                    de_facto_hot: false,
                });
            }
            (tables, bytes)
        };

        let budget = self.config.gpu_budget_bytes as f64;
        let mut best: Option<CalibrationResult> = None;
        for &t_frac in &ladder {
            let (tables, bytes) = evaluate(t_frac, rng);
            if bytes <= budget {
                best = Some(CalibrationResult {
                    threshold: t_frac,
                    tables,
                    est_hot_bytes: bytes,
                    fits_budget: true,
                    sampled_inputs: 0,
                });
            } else if best.is_some() {
                // Estimates grow as the threshold falls; once we overflow
                // after having fit, smaller thresholds only overflow more.
                break;
            } else {
                // Even this threshold overflows; remember it as a fallback
                // (the largest threshold gives the smallest hot set).
                best.get_or_insert(CalibrationResult {
                    threshold: t_frac,
                    tables,
                    est_hot_bytes: bytes,
                    fits_budget: false,
                    sampled_inputs: 0,
                });
                break;
            }
        }
        best.expect("ladder is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, GenOptions, WorkloadSpec};

    fn dataset() -> Dataset {
        generate(&WorkloadSpec::tiny_test(), &GenOptions::sized(21, 20_000))
    }

    #[test]
    fn sampler_draws_expected_fraction() {
        let ds = dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_inputs(&ds, 0.05, &mut rng);
        let frac = s.len() as f64 / ds.len() as f64;
        assert!((0.04..0.06).contains(&frac), "sampled {frac}");
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sample must be ordered+unique");
    }

    #[test]
    fn sampled_profile_tracks_full_profile() {
        // Fig 7: a 5% sample reproduces the access signature.
        let ds = dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let all: Vec<usize> = (0..ds.len()).collect();
        let full = log_accesses(&ds, &all);
        let sample = sample_inputs(&ds, 0.05, &mut rng);
        let sampled = log_accesses(&ds, &sample);
        // Compare hot-row share at the ~1% most-accessed level.
        let full_share = full[0].access_share_at_or_above(
            *full[0].sorted_profile().get(full[0].rows() / 100).unwrap_or(&1),
        );
        let cutoff = *sampled[0].sorted_profile().get(sampled[0].rows() / 100).unwrap_or(&1);
        let sampled_share = sampled[0].access_share_at_or_above(cutoff.max(1));
        assert!(
            (full_share - sampled_share).abs() < 0.12,
            "profiles diverge: full {full_share} vs sampled {sampled_share}"
        );
    }

    #[test]
    fn logger_counts_every_lookup() {
        let ds = dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let counters = log_accesses(&ds, &all);
        for (t, c) in counters.iter().enumerate() {
            let expected: usize = (0..ds.len()).map(|i| ds.sparse[t].bag(i).len()).sum();
            assert_eq!(c.total() as usize, expected, "table {t}");
        }
    }

    #[test]
    fn calibrate_fits_budget_and_orders_thresholds() {
        let ds = dataset();
        // Tiny budget forces a high threshold; large budget a low one.
        let tight =
            Calibrator::new(CalibratorConfig { gpu_budget_bytes: 20 << 10, ..Default::default() })
                .calibrate(&ds);
        let loose =
            Calibrator::new(CalibratorConfig { gpu_budget_bytes: 64 << 20, ..Default::default() })
                .calibrate(&ds);
        assert!(loose.threshold <= tight.threshold);
        assert!(loose.fits_budget);
        assert!(loose.est_hot_bytes <= (64 << 20) as f64);
        assert!(loose.sampled_inputs > 0);
    }

    #[test]
    fn small_tables_are_de_facto_hot() {
        let ds = dataset();
        let r = Calibrator::default().calibrate(&ds);
        // tiny_test tables are all < 1 MB (max 2000 rows × 32 B).
        assert!(r.tables.iter().all(|t| t.de_facto_hot));
        assert!(r.fits_budget);
        assert!((r.est_hot_bytes - ds.spec.embedding_bytes() as f64).abs() < 1.0);
    }

    #[test]
    fn impossible_budget_reports_not_fitting() {
        let ds = dataset();
        let r = Calibrator::new(CalibratorConfig { gpu_budget_bytes: 16, ..Default::default() })
            .calibrate(&ds);
        assert!(!r.fits_budget);
        // Fallback must be the largest (most selective) threshold.
        assert_eq!(r.threshold, 1e-2);
    }
}
