//! Fig 6: (a) hot-embedding size and (b) hot-input percentage as the
//! access threshold varies — the calibrator's capacity/performance knob.
//!
//! The paper's observation: lowering the threshold grows the hot *table*
//! much faster than it grows the hot *input* share (diminishing returns).

use fae_bench::{print_table, save_json};
use fae_core::calibrator::log_accesses;
use fae_core::classifier::{classify_tables, hot_bytes};
use fae_core::input_processor::classify_inputs;
use fae_core::{Calibrator, CalibratorConfig};
use fae_data::{generate, GenOptions, WorkloadSpec};

fn main() {
    let mut spec = WorkloadSpec::rmc2_kaggle();
    spec.num_inputs = 60_000;
    let ds = generate(&spec, &GenOptions::seeded(6));
    let all: Vec<usize> = (0..ds.len()).collect();
    let counters = log_accesses(&ds, &all);

    let ladder = [1e-3, 5e-4, 2e-4, 1e-4, 5e-5, 2e-5, 1e-5];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut prev_bytes = 0.0f64;
    let mut prev_inputs = 0.0f64;
    for &t in &ladder {
        // Force the pure-threshold classification (small-table rule off) so
        // the knob's effect is visible end to end.
        let calibrator = Calibrator::new(CalibratorConfig {
            threshold_ladder: vec![t],
            small_table_bytes: 0,
            gpu_budget_bytes: usize::MAX >> 1,
            ..Default::default()
        });
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(7);
        let cal = calibrator.converge(&ds, &counters, &mut rng);
        let parts = classify_tables(&spec, &counters, &cal);
        let hot_bytes = hot_bytes(&parts, spec.embedding_dim);
        let hot_inputs =
            classify_inputs(&ds, &parts).iter().filter(|&&h| h).count() as f64 / ds.len() as f64;
        let growth_b = if prev_bytes > 0.0 { hot_bytes as f64 / prev_bytes } else { f64::NAN };
        let growth_i = if prev_inputs > 0.0 { hot_inputs / prev_inputs } else { f64::NAN };
        rows.push(vec![
            format!("{t:.0e}"),
            format!("{:.1}", hot_bytes as f64 / 1024.0),
            format!("{:.1}%", hot_inputs * 100.0),
            if growth_b.is_nan() { "-".into() } else { format!("{growth_b:.2}x") },
            if growth_i.is_nan() { "-".into() } else { format!("{growth_i:.2}x") },
        ]);
        json.push(serde_json::json!({
            "threshold": t, "hot_bytes": hot_bytes, "hot_input_fraction": hot_inputs,
        }));
        prev_bytes = hot_bytes as f64;
        prev_inputs = hot_inputs;
    }
    print_table(
        "Fig 6: threshold sweep (Criteo-Kaggle-shaped, scaled)",
        &["threshold", "hot size (KiB)", "hot inputs", "size growth", "input growth"],
        &rows,
    );
    println!("\npaper: hot size grows much faster than hot-input share as the threshold falls");
    save_json("fig06_threshold_sweep", &serde_json::Value::Array(json));
}
