//! Order statistics used for every reported number: medians over
//! rounds, nearest-rank percentiles over span durations, and the
//! quartile spread the noise guard compares against a metric's bound.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 100]; NaN for an empty slice.
/// With fewer than `100 / (100 - p)` samples this is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the one the acceptance rule measures. Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// `(Q3 - Q1) / median`: the run-to-run spread as a share of the median.
/// Zero when fewer than two values exist or the median is zero.
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// How far the third-fastest sample lies above the fastest, as a share
/// of the fastest (the slowest stands in when there are only two): small
/// when two more samples bear the fastest one out, so that it is not a
/// fluke. Zero when fewer than two values exist or the minimum is zero.
pub fn fastest_gap_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.get(2).or(v.get(1)) {
        Some(third) if v[0] != 0.0 => (third - v[0]) / v[0].abs(),
        _ => 0.0,
    }
}

/// The summary printed beside every timed value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// `(Q3 - Q1) / median`.
    pub iqr_share: f64,
}

impl Summary {
    /// Summarises `values` (all-NaN fields for an empty slice).
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Self {
            n: v.len(),
            median: median(&v),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            iqr_share: iqr_share(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Few samples: the tail percentile degrades to the maximum.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 99.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fastest_gap_is_measured_up_to_the_third_fastest() {
        // Seven rounds, three of them quiet.
        let rounds = [2.2, 1.57, 2.1, 2.3, 1.55, 1.60, 2.25];
        assert!((fastest_gap_share(&rounds) - 0.05 / 1.55).abs() < 1e-12);
        // Only two quiet ones: the fastest is not borne out.
        let rounds = [2.2, 1.57, 2.1, 2.3, 1.55, 2.2, 2.25];
        assert!((fastest_gap_share(&rounds) - 0.55 / 1.55).abs() < 1e-12);
        assert!((fastest_gap_share(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(fastest_gap_share(&[7.0]), 0.0);
    }

    #[test]
    fn iqr_share_and_summary() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
        let s = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
    }
}
