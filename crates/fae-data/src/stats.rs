//! Dataset access-skew statistics.
//!
//! The quantities behind Fig 2 and the paper's motivating claims: how
//! concentrated are accesses per table (top-k shares, Gini coefficient).
//! Works on raw per-row access counts, so both full scans and sampled logs
//! can be summarised.

use serde::{Deserialize, Serialize};

/// Concentration summary of one table's access counts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TableSkew {
    /// Rows in the table.
    pub rows: usize,
    /// Rows with at least one access.
    pub touched_rows: usize,
    /// Total accesses.
    pub total_accesses: u64,
    /// Fraction of accesses captured by the top 1% of rows.
    pub top1pct_share: f64,
    /// Fraction captured by the top 10% of rows.
    pub top10pct_share: f64,
    /// Gini coefficient of the access distribution (0 = uniform,
    /// → 1 = maximally concentrated).
    pub gini: f64,
}

/// Computes the skew summary from per-row access counts.
pub fn table_skew(counts: &[u64]) -> TableSkew {
    let rows = counts.len();
    let total: u64 = counts.iter().sum();
    let touched = counts.iter().filter(|&&c| c > 0).count();
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let share = |top: usize| -> f64 {
        if total == 0 {
            return 0.0;
        }
        let k = top.max(1).min(rows);
        sorted[..k].iter().sum::<u64>() as f64 / total as f64
    };
    TableSkew {
        rows,
        touched_rows: touched,
        total_accesses: total,
        top1pct_share: share(rows / 100),
        top10pct_share: share(rows / 10),
        gini: gini(&sorted),
    }
}

/// Gini coefficient over (descending-sorted) counts.
fn gini(sorted_desc: &[u64]) -> f64 {
    let n = sorted_desc.len();
    let total: u64 = sorted_desc.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    // With x sorted ascending: G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n.
    let mut weighted = 0.0f64;
    for (i, &x) in sorted_desc.iter().rev().enumerate() {
        weighted += (i + 1) as f64 * x as f64;
    }
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts_have_zero_gini() {
        let s = table_skew(&[5; 100]);
        assert!(s.gini.abs() < 1e-9, "gini {}", s.gini);
        assert_eq!(s.touched_rows, 100);
        assert!((s.top1pct_share - 0.01).abs() < 1e-9);
        assert!((s.top10pct_share - 0.10).abs() < 1e-9);
    }

    #[test]
    fn single_hot_row_has_extreme_gini() {
        let mut counts = vec![0u64; 1000];
        counts[123] = 1_000;
        let s = table_skew(&counts);
        assert!(s.gini > 0.99, "gini {}", s.gini);
        assert_eq!(s.touched_rows, 1);
        assert!((s.top1pct_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_like_counts_are_concentrated() {
        // counts[i] ∝ 1/(i+1): top 1% should grab a large share.
        let counts: Vec<u64> = (0..10_000).map(|i| (100_000 / (i + 1)) as u64).collect();
        let s = table_skew(&counts);
        assert!(s.top1pct_share > 0.4, "top 1% only {}", s.top1pct_share);
        assert!(s.gini > 0.7, "gini {}", s.gini);
    }

    #[test]
    fn empty_and_zero_are_safe() {
        let s = table_skew(&[]);
        assert_eq!(s.gini, 0.0);
        let z = table_skew(&[0, 0, 0]);
        assert_eq!(z.total_accesses, 0);
        assert_eq!(z.top10pct_share, 0.0);
    }
}
