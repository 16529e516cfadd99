//! # fae-bench — experiment harness
//!
//! One binary per paper figure/table, ablation and extension (see
//! DESIGN.md §4 for the index):
//!
//! ```sh
//! cargo run --release -p fae-bench --bin fig13_speedup
//! ```
//!
//! Each binary prints the regenerated rows/series next to the paper's
//! published values and writes a JSON record under `results/`. Every
//! training speed-up here is on the simulated clock (`fae-sysmodel`);
//! the wall clock of training, serving and the wire is measured by the
//! `bench/` workspace and nowhere else. Shared machinery lives here:
//! the three benchmark workloads with their measured hot fractions,
//! text-table rendering, and JSON output.

#![forbid(unsafe_code)]
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use fae_core::calibrator::{log_accesses, sample_inputs};
use fae_core::classifier::classify_tables;
use fae_core::input_processor::classify_inputs;
use fae_core::{Calibrator, CalibratorConfig};
use fae_data::{generate, Dataset, GenOptions, WorkloadSpec};

/// One benchmark workload wired for experiments: the laptop-scale spec
/// (real training + measurement) and the paper-scale spec (cost model).
pub struct Workload {
    /// Display name matching the paper ("Criteo Kaggle", ...).
    pub label: &'static str,
    /// Scaled spec for real runs.
    pub scaled: WorkloadSpec,
    /// Published-size spec for the cost model.
    pub paper: WorkloadSpec,
    /// Per-GPU mini-batch size of the paper's main experiments.
    pub per_gpu_batch: usize,
    /// GPU memory budget for hot embeddings at paper scale.
    pub budget_bytes: usize,
    /// Inputs to synthesise when measuring hotness on the scaled spec —
    /// sized so the 5% input sample covers each table's head region as
    /// densely as the paper's ≥500k-input samples cover the real one.
    pub measure_inputs: usize,
}

/// The three workloads in the order the paper's result figures use.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            label: "Criteo Kaggle",
            scaled: WorkloadSpec::rmc2_kaggle(),
            paper: WorkloadSpec::rmc2_kaggle_paper(),
            per_gpu_batch: 1024,
            budget_bytes: 256 << 20,
            measure_inputs: 120_000,
        },
        Workload {
            label: "Taobao Alibaba",
            scaled: WorkloadSpec::rmc1_taobao(),
            paper: WorkloadSpec::rmc1_taobao_paper(),
            per_gpu_batch: 256,
            budget_bytes: 256 << 20,
            measure_inputs: 120_000,
        },
        Workload {
            label: "Criteo Terabyte",
            scaled: WorkloadSpec::rmc3_terabyte(),
            paper: WorkloadSpec::rmc3_terabyte_paper(),
            per_gpu_batch: 1024,
            budget_bytes: 256 << 20,
            measure_inputs: 400_000,
        },
    ]
}

/// Measured hotness statistics of a workload, obtained by running the real
/// calibrator + classifier + input processor on a scaled dataset.
pub struct HotnessStats {
    /// Fraction of inputs whose every lookup is hot.
    pub hot_input_fraction: f64,
    /// Fraction of embedding *rows* classified hot.
    pub hot_row_fraction: f64,
    /// Fraction of all accesses served by hot rows.
    pub hot_access_share: f64,
    /// The threshold the calibrator converged on.
    pub threshold: f64,
}

/// Generates a smaller instance of `spec` and measures its hotness under
/// a GPU budget scaled proportionally to the dataset shrink factor.
pub fn measure_hotness(spec: &WorkloadSpec, inputs: usize, budget_bytes: usize) -> HotnessStats {
    let ds = generate(spec, &GenOptions::sized(0xBEEF, inputs));
    let calibrator = Calibrator::new(CalibratorConfig {
        gpu_budget_bytes: budget_bytes,
        small_table_bytes: 16 << 10,
        ..Default::default()
    });
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(calibrator.config.seed);
    let samples = sample_inputs(&ds, calibrator.config.sample_rate, &mut rng);
    let counters = log_accesses(&ds, &samples);
    let cal = calibrator.converge(&ds, &counters, &mut rng);
    let parts = classify_tables(spec, &counters, &cal);
    let hot = classify_inputs(&ds, &parts);
    let hot_inputs = hot.iter().filter(|&&h| h).count();
    let hot_rows: usize = parts.iter().map(|p| p.hot_count()).sum();
    let total_rows: usize = spec.tables.iter().map(|t| t.rows).sum();
    // Access share measured on the full (not sampled) access counts.
    let all: Vec<usize> = (0..ds.len()).collect();
    let full = log_accesses(&ds, &all);
    let mut hot_accesses = 0u64;
    let mut total_accesses = 0u64;
    for (c, p) in full.iter().zip(&parts) {
        total_accesses += c.total();
        for &id in p.hot_ids() {
            hot_accesses += c.count(id);
        }
    }
    HotnessStats {
        hot_input_fraction: hot_inputs as f64 / ds.len() as f64,
        hot_row_fraction: hot_rows as f64 / total_rows as f64,
        hot_access_share: hot_accesses as f64 / total_accesses.max(1) as f64,
        threshold: cal.threshold,
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Appends a JSON experiment record under `results/<name>.json`.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return; // results dir is best-effort (read-only checkouts)
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = fs::write(&path, s);
        println!("\n[saved {}]", path.display());
    }
}

/// Builds a train/test pair for real-training experiments.
pub fn train_test(spec: &WorkloadSpec, inputs: usize, seed: u64) -> (Dataset, Dataset) {
    generate(spec, &GenOptions::sized(seed, inputs)).split(0.15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_paper_order_and_shapes() {
        let w = workloads();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].label, "Criteo Kaggle");
        assert_eq!(w[0].per_gpu_batch, 1024);
        assert_eq!(w[1].per_gpu_batch, 256);
        assert!(w[2].paper.embedding_bytes() > 40 << 30);
    }

    #[test]
    fn hotness_measurement_shows_skew() {
        let mut spec = WorkloadSpec::rmc2_kaggle();
        spec.num_inputs = 30_000;
        let stats = measure_hotness(&spec, 30_000, 2 << 20);
        // The paper's core claim: few rows, most accesses.
        assert!(stats.hot_row_fraction < 0.6, "hot rows {}", stats.hot_row_fraction);
        assert!(stats.hot_access_share > 0.5, "hot access share {}", stats.hot_access_share);
        assert!(stats.hot_input_fraction > 0.05, "hot inputs {}", stats.hot_input_fraction);
    }

    #[test]
    fn timed_measures_something() {
        let (v, secs) = timed(|| (0..100_000u64).sum::<u64>());
        assert_eq!(v, 4999950000);
        assert!(secs >= 0.0);
    }
}
