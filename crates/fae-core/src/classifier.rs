//! The Embedding Classifier (§III-B): one pass per table tagging the rows
//! that meet the calibrated access cutoff.

use fae_data::WorkloadSpec;
use fae_embed::{AccessCounter, HotColdPartition};

use crate::calibrator::CalibrationResult;

/// Builds the hot/cold partition of every table from the logged access
/// counters and the calibrator's per-table cutoffs. Small tables
/// (`de_facto_hot`) become entirely hot.
pub fn classify_tables(
    spec: &WorkloadSpec,
    counters: &[AccessCounter],
    calibration: &CalibrationResult,
) -> Vec<HotColdPartition> {
    assert_eq!(counters.len(), spec.tables.len(), "one counter per table");
    assert_eq!(calibration.tables.len(), spec.tables.len(), "one calibration per table");
    counters
        .iter()
        .zip(&calibration.tables)
        .zip(&spec.tables)
        .map(|((counter, cal), tspec)| {
            if cal.de_facto_hot {
                HotColdPartition::all_hot(tspec.rows)
            } else {
                HotColdPartition::from_counts(counter, cal.cutoff)
            }
        })
        .collect()
}

/// Actual bytes the hot bags occupy per GPU at embedding width `dim` (the
/// number the Rand-Em Box estimated; exact once classification has run).
/// Every hot-bag size in the program is this sum.
pub fn hot_bytes(partitions: &[HotColdPartition], dim: usize) -> usize {
    partitions.iter().map(|p| p.hot_bytes(dim)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrator::Calibrator;
    use crate::calibrator::{log_accesses, sample_inputs};
    use fae_data::{generate, GenOptions, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classification_respects_cutoffs_and_small_table_rule() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(5, 20_000));
        let mut rng = StdRng::seed_from_u64(9);
        let samples = sample_inputs(&ds, 0.05, &mut rng);
        let counters = log_accesses(&ds, &samples);
        let cal = Calibrator::default().calibrate(&ds);
        let parts = classify_tables(&spec, &counters, &cal);
        assert_eq!(parts.len(), spec.tables.len());
        for ((p, c), t) in parts.iter().zip(&cal.tables).zip(&spec.tables) {
            if c.de_facto_hot {
                assert_eq!(p.hot_count(), t.rows);
            } else {
                // Every hot row really meets the cutoff.
                for &id in p.hot_ids() {
                    assert!(counters[0].count(id) >= c.cutoff);
                }
            }
        }
        assert_eq!(
            hot_bytes(&parts, spec.embedding_dim),
            parts.iter().map(|p| p.hot_count() * spec.embedding_dim * 4).sum::<usize>()
        );
    }

    #[test]
    fn forced_cutoff_produces_partial_partitions() {
        // Bypass the calibrator: force a real cutoff on table 0.
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(6, 30_000));
        let all: Vec<usize> = (0..ds.len()).collect();
        let counters = log_accesses(&ds, &all);
        let mut cal = Calibrator::default().calibrate(&ds);
        cal.tables[0].de_facto_hot = false;
        cal.tables[0].cutoff = 30; // only genuinely hot rows pass
        let parts = classify_tables(&spec, &counters, &cal);
        assert!(parts[0].hot_count() > 0, "no hot rows at cutoff 30");
        assert!(
            parts[0].hot_count() < spec.tables[0].rows / 2,
            "cutoff 30 should exclude the cold tail"
        );
        // The hot rows must capture the majority of accesses (Fig 2).
        let share = counters[0].access_share_at_or_above(30);
        assert!(share > 0.5, "hot rows capture only {share}");
    }
}
