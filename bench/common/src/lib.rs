//! Shared pieces of the wall-clock benchmark (see `bench/README.md`):
//! the workload table, the metric catalogue, order statistics, the cold
//! child runner and the parsers for what the `fae` CLI prints. Depends
//! on the standard library and the vendored `serde_json` only, so the
//! end-to-end harness builds even when a layer probe does not.

#![deny(unsafe_code)]
pub mod child;
pub mod metrics;
pub mod parse;
pub mod report;
pub mod stats;
pub mod sys;
pub mod workloads;

use std::path::PathBuf;

/// Seconds one driver run measures: `run_seconds` of `BENCHMARK.json`,
/// and the default of every `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Set-up runs of one measured run; `setup_s` is the fastest of them.
pub const SETUP_REPS: usize = 7;

/// True when the next set-up run is due: run `k` of `reps` starts once
/// `k / reps` of the measurement window has passed, so the runs are
/// spread evenly between the timed rounds. Interference on the reference
/// host comes in stretches of ten to twenty seconds; set-up runs bunched
/// at the start would all sit in one of them.
pub fn setup_due(done: usize, reps: usize, elapsed_s: f64, window_s: f64) -> bool {
    done < reps && elapsed_s >= done as f64 * window_s / reps as f64
}

/// Flattens `(flag, value)` pairs into the argument list of a child.
pub fn flag_args(pairs: &[(&str, String)]) -> Vec<String> {
    pairs.iter().flat_map(|(k, v)| [k.to_string(), v.clone()]).collect()
}

/// `--flag value` pairs, the same shape the `fae` CLI parses.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `--flag value ...`; a bare word or a missing value is an
    /// error.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("expected --flag, got '{k}'"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.push((key.to_string(), v.clone()));
        }
        Ok(Self(flags))
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The parsed value of `--key`, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    /// The value of `--key` as a path, or an error naming the flag.
    pub fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from).ok_or_else(|| format!("--{key} required"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_runs_spread_over_the_window() {
        // The first is due at once, the k-th after k/7 of the window,
        // none after the last.
        assert!(setup_due(0, 7, 0.0, 14.0));
        assert!(!setup_due(1, 7, 1.9, 14.0) && setup_due(1, 7, 2.0, 14.0));
        assert!(setup_due(6, 7, 12.0, 14.0) && !setup_due(7, 7, 99.0, 14.0));
        // A smoke run sets up once.
        assert!(setup_due(0, 1, 0.0, 0.0) && !setup_due(1, 1, 5.0, 0.0));
    }

    #[test]
    fn flags_parse_pairs_and_reject_the_rest() {
        let argv: Vec<String> =
            ["--seed", "12", "--workload", "prep_static"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse(&argv).unwrap();
        assert_eq!(f.num("seed", 11u64), Ok(12));
        assert_eq!(f.num("seconds", 10.0f64), Ok(10.0));
        assert_eq!(f.get("workload"), Some("prep_static"));
        assert!(f.num::<u64>("workload", 0).is_err());
        assert!(f.path("fae").is_err());
        assert!(Flags::parse(&["seed".to_string()]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
    }
}
