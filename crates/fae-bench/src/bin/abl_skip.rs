//! Ablation: oracle lookahead and stale-update skipping (DESIGN.md §15).
//! Plain FAE vs `lookahead = 32` vs `lookahead = 32` + `stale_skip =
//! 1e-4` on one prepared scaled-Kaggle stream, in process, on the
//! simulated clock — the deltas between these modes are a few
//! milliseconds of elided sparse applies, which only the modelled
//! timeline resolves. What the modes cost on the wall is `bench/`'s
//! `train_seq_modes` against `train_seq_embed`.

use fae_bench::{print_table, save_json, train_test};
use fae_core::{pipeline, train_fae, CalibratorConfig, PreprocessConfig, TrainConfig};
use fae_data::WorkloadSpec;

fn main() {
    let mut spec = WorkloadSpec::rmc2_kaggle();
    spec.num_inputs = 60_000;
    let (train, test) = train_test(&spec, spec.num_inputs, 0xBE9C);
    let cfg = TrainConfig { epochs: 1, minibatch_size: 256, num_gpus: 2, ..Default::default() };
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: spec.embedding_bytes() / 8,
            small_table_bytes: 8 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: cfg.minibatch_size, seed: 7 },
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut sim_steps_per_sec = Vec::new();
    for (mode, lookahead, stale_skip) in
        [("off", 0, 0.0), ("lookahead", 32, 0.0), ("lookahead+skip", 32, 1e-4)]
    {
        let run_cfg = TrainConfig { lookahead, stale_skip, ..cfg.clone() };
        let r = train_fae(&spec, &artifacts.preprocessed, &test, &run_cfg);
        let steps = r.hot_steps + r.cold_steps;
        let sps = steps as f64 / r.simulated_seconds;
        // Of the cold-row updates that reached the deferral pool, the
        // share whose optimizer apply was elided: coalesced into a later
        // flush or dropped at end of run.
        let s = r.skip;
        let elided = s.deferred.saturating_sub(s.flushed_access + s.flushed_checkpoint);
        let skipped = elided as f64 / ((s.deferred + s.flushed_threshold).max(1)) as f64;
        let saved_bytes = r.oracle.full_bytes.saturating_sub(r.oracle.moved_bytes);
        rows.push(vec![
            mode.to_string(),
            format!("{sps:.3}"),
            format!("{:.4}", r.simulated_seconds),
            format!("{skipped:.3}"),
            s.dropped.to_string(),
            format!("{:.1}", saved_bytes as f64 / (1 << 20) as f64),
            format!("{:.4}", r.final_test.accuracy),
        ]);
        json.push(serde_json::json!({
            "mode": mode, "lookahead": lookahead, "stale_skip": stale_skip, "steps": steps,
            "simulated_seconds": r.simulated_seconds, "sim_steps_per_sec": sps,
            "accuracy": r.final_test.accuracy, "skipped_update_fraction": skipped,
            "skip_deferred": s.deferred, "skip_flushed_threshold": s.flushed_threshold,
            "skip_flushed_access": s.flushed_access,
            "skip_flushed_checkpoint": s.flushed_checkpoint, "skip_dropped": s.dropped,
            "oracle_prefetched_rows": r.oracle.prefetched_rows, "oracle_hits": r.oracle.hits,
            "oracle_misses": r.oracle.misses, "oracle_moved_bytes": r.oracle.moved_bytes,
            "oracle_saved_bytes": saved_bytes,
        }));
        sim_steps_per_sec.push(sps);
    }
    print_table(
        "Ablation: oracle lookahead + stale-skip (scaled Kaggle, 2 GPUs, simulated clock)",
        &["mode", "steps/s (sim)", "sim (s)", "skipped frac", "dropped", "saved (MiB)", "accuracy"],
        &rows,
    );
    // The ablation's contract: lookahead moves fewer bytes and skip
    // elides cold applies, both deterministic on the simulated timeline.
    let speedup = sim_steps_per_sec[2] / sim_steps_per_sec[0];
    println!("\nlookahead+skip vs off: simulated {speedup:.4}x");
    assert!(speedup > 1.0, "lookahead+skip must beat plain fae in simulated steps/s");
    save_json("abl_skip", &serde_json::Value::Array(json));
}
