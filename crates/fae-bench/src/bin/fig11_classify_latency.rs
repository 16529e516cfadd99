//! Fig 11: input-processor latency — classifying every sparse input as
//! hot or cold, across access thresholds. The op is embarrassingly
//! parallel (here one sequential pass over inputs); lower thresholds mean
//! larger hot sets but the per-input work is constant, so latency stays
//! flat-ish.

use fae_bench::{print_table, save_json, timed};
use fae_core::calibrator::log_accesses;
use fae_core::input_processor::classify_inputs;
use fae_data::{generate, GenOptions, WorkloadSpec};
use fae_embed::HotColdPartition;

fn main() {
    let mut spec = WorkloadSpec::rmc2_kaggle();
    spec.num_inputs = 200_000;
    let ds = generate(&spec, &GenOptions::seeded(14));
    let all: Vec<usize> = (0..ds.len()).collect();
    let counters = log_accesses(&ds, &all);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for t in [1e-3f64, 1e-4, 1e-5, 1e-6] {
        let parts: Vec<HotColdPartition> = counters
            .iter()
            .map(|c| {
                let cutoff = ((t * c.total() as f64).ceil() as u64).max(1);
                HotColdPartition::from_counts(c, cutoff)
            })
            .collect();
        let reps = 3;
        let (hot, secs) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..reps {
                last = classify_inputs(&ds, &parts);
            }
            last
        });
        let hot_frac = hot.iter().filter(|&&h| h).count() as f64 / ds.len() as f64;
        rows.push(vec![
            format!("{t:.0e}"),
            format!("{:.1}", secs * 1e3 / reps as f64),
            format!("{:.1}%", hot_frac * 100.0),
        ]);
        json.push(serde_json::json!({
            "threshold": t,
            "latency_ms": secs * 1e3 / reps as f64,
            "hot_input_fraction": hot_frac,
        }));
    }
    print_table(
        "Fig 11: input-processor classification latency (200k inputs, 26 tables)",
        &["threshold", "latency (ms)", "hot inputs"],
        &rows,
    );
    println!(
        "\npaper: at most 110 s for 45M inputs on 32 threads; \
         scaled here to 200k inputs — throughput is what matters"
    );
    save_json("fig11_classify_latency", &serde_json::Value::Array(json));
}
