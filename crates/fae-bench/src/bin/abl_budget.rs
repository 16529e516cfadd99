//! Ablation: the GPU memory budget `L` (paper: 256 MB "suffices and
//! caters to all types of GPUs"). Sweeps L and reports the calibrated
//! threshold, hot sizes, hot-input fraction and the resulting paper-scale
//! speedup — the capacity/performance trade-off behind Fig 6.

use fae_bench::{print_table, save_json};
use fae_core::classifier::{classify_tables, hot_bytes};
use fae_core::input_processor::classify_inputs;
use fae_core::scheduler::Rate;
use fae_core::simsched::{simulate_baseline, simulate_fae, SimConfig};
use fae_core::{Calibrator, CalibratorConfig, Telemetry};
use fae_data::{generate, GenOptions, WorkloadSpec};
use fae_models::bridge::profile_for;

fn main() {
    let mut spec = WorkloadSpec::rmc2_kaggle();
    spec.num_inputs = 120_000;
    let ds = generate(&spec, &GenOptions::seeded(0xBEEF));
    let paper = WorkloadSpec::rmc2_kaggle_paper();
    let shrink = paper.embedding_bytes() as f64 / spec.embedding_bytes() as f64;

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for budget_kb in [64usize, 256, 1024, 4096, 16384] {
        let calibrator = Calibrator::new(CalibratorConfig {
            gpu_budget_bytes: budget_kb << 10,
            small_table_bytes: 16 << 10,
            ..Default::default()
        });
        let (cal, counters) = calibrator.calibrate_with(&ds, &Telemetry::disabled());
        let parts = classify_tables(&spec, &counters, &cal);
        let actual_hot = hot_bytes(&parts, spec.embedding_dim);
        let hot_frac =
            classify_inputs(&ds, &parts).iter().filter(|&&h| h).count() as f64 / ds.len() as f64;

        // Paper-scale speedup at this hot fraction.
        let profile = profile_for(&paper, actual_hot as f64 * shrink);
        let cfg = SimConfig {
            total_inputs: paper.num_inputs,
            batch: 4096,
            hot_fraction: hot_frac,
            rate: Rate::new(50),
            epochs: 1,
            num_gpus: 4,
        };
        let speedup =
            simulate_baseline(&profile, &cfg).total() / simulate_fae(&profile, &cfg).total();
        rows.push(vec![
            format!("{budget_kb} KiB"),
            format!("{:.0e}", cal.threshold),
            format!("{:.0}", actual_hot as f64 / 1024.0),
            format!("{}", cal.fits_budget),
            format!("{:.1}%", hot_frac * 100.0),
            format!("{speedup:.2}x"),
        ]);
        json.push(serde_json::json!({
            "budget_kb": budget_kb, "threshold": cal.threshold,
            "hot_kib": actual_hot as f64 / 1024.0, "fits": cal.fits_budget,
            "hot_input_fraction": hot_frac, "speedup_4gpu": speedup,
        }));
    }
    print_table(
        "Ablation: GPU memory budget L (Kaggle-shaped, scaled; speedup at paper scale)",
        &["budget", "threshold", "hot size (KiB)", "fits", "hot inputs", "4-GPU speedup"],
        &rows,
    );
    println!(
        "\nexpected: larger budgets admit lower thresholds, more hot inputs and higher \
         speedup with diminishing returns — the paper's L = 256 MB sits on the flat part"
    );
    save_json("abl_budget", &serde_json::Value::Array(json));
}
