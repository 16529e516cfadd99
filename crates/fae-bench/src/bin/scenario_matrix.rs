//! CI scenario matrix: {baseline, fae, fae+skip} × {stationary Zipf,
//! long-tail α→1.0} on the tiny workload.
//!
//! Each cell is a real end-to-end run (calibrate → classify → preprocess
//! → train) small enough for CI, with its journal written under
//! `results/scenario_matrix/` so the CI job can upload the artifacts.
//! The matrix asserts
//!
//! * an accuracy floor per cell, and accuracy parity of both FAE
//!   configurations with the baseline, and
//! * the speedup ordering on the stationary Zipf stream: FAE (and FAE
//!   with lookahead + stale-skip) must finish in no more simulated time
//!   than the baseline.
//!
//! On the long-tail stream (α → 1.0) the hot set covers far less of the
//! access mass, so FAE's advantage can invert — the paper's own framing
//! (§II-B) is that skew is what FAE monetises. The matrix *records* the
//! crossover honestly instead of asserting a win there.
//!
//! Exits nonzero when any assertion fails, so the CI job gates on it.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "a binary dies loudly on a broken setup; only library code owes typed errors"
)]

use std::path::PathBuf;

use fae_bench::{print_table, save_json, timed};
use fae_core::{pipeline, CalibratorConfig, PreprocessConfig, ResilienceOptions, TrainConfig};
use fae_data::{generate, GenOptions, WorkloadSpec};
use fae_telemetry::Telemetry;

/// One trained cell of the matrix.
struct Cell {
    scenario: &'static str,
    mode: &'static str,
    accuracy: f64,
    simulated_seconds: f64,
    wall_seconds: f64,
    steps: usize,
    skipped: u64,
    /// Journal path, for the FAE cells. The baseline trainer has no
    /// telemetry hooks — it models the conventional loop untouched.
    journal: Option<PathBuf>,
}

fn journal_dir() -> PathBuf {
    let dir = PathBuf::from("results/scenario_matrix");
    std::fs::create_dir_all(&dir).expect("create results/scenario_matrix");
    dir
}

/// Runs one (scenario, mode) cell on a prepared dataset.
fn run_cell(
    scenario: &'static str,
    mode: &'static str,
    spec: &WorkloadSpec,
    train: &fae_data::Dataset,
    test: &fae_data::Dataset,
    art: &pipeline::StaticArtifacts,
) -> Cell {
    let base_cfg = TrainConfig { epochs: 1, minibatch_size: 64, num_gpus: 2, ..Default::default() };
    let cfg = match mode {
        "baseline" | "fae" => base_cfg,
        "fae-skip" => TrainConfig { lookahead: 64, stale_skip: 1e-4, ..base_cfg },
        other => panic!("unknown mode `{other}`"),
    };
    let mut journal = None;
    let (report, wall) = timed(|| {
        if mode == "baseline" {
            fae_core::train_baseline(spec, train, test, &cfg)
        } else {
            let path = journal_dir().join(format!("{scenario}-{mode}.jsonl"));
            let telemetry = Telemetry::builder()
                .journal_path(&path)
                .try_build()
                .expect("journal under results/ is writable");
            journal = Some(path);
            let opts = ResilienceOptions { telemetry, ..Default::default() };
            fae_core::train_fae_resilient(spec, &art.preprocessed, test, &cfg, &opts)
        }
    });
    Cell {
        scenario,
        mode,
        accuracy: report.final_test.accuracy,
        simulated_seconds: report.simulated_seconds,
        wall_seconds: wall,
        steps: report.hot_steps + report.cold_steps,
        skipped: report.skip.deferred,
        journal,
    }
}

/// Runs one scenario row: prepare once, train all three modes on it.
fn run_scenario(scenario: &'static str, spec: &WorkloadSpec) -> Vec<Cell> {
    let ds = generate(spec, &GenOptions::sized(0x5CE2, 12_000));
    let (train, test) = ds.split(0.2);
    // The forced-partial budget keeps both hot and cold batches in play
    // on the tiny tables (an all-hot run would trivialise the matrix).
    let art = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: 40 << 10,
            small_table_bytes: 2 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: 64, seed: 5 },
    );
    ["baseline", "fae", "fae-skip"]
        .into_iter()
        .map(|mode| run_cell(scenario, mode, spec, &train, &test, &art))
        .collect()
}

fn main() {
    let zipf_spec = WorkloadSpec::tiny_test();
    let longtail_spec = {
        let mut s = WorkloadSpec::tiny_test();
        s.zipf_exponent = 1.0; // α → 1.0: the long tail carries the mass
        s
    };
    let zipf = run_scenario("zipf", &zipf_spec);
    let longtail = run_scenario("longtail", &longtail_spec);

    let rows: Vec<Vec<String>> = zipf
        .iter()
        .chain(&longtail)
        .map(|c| {
            vec![
                c.scenario.to_string(),
                c.mode.to_string(),
                c.steps.to_string(),
                format!("{:.4}", c.accuracy),
                format!("{:.4}", c.simulated_seconds),
                format!("{:.2}", c.wall_seconds),
                c.skipped.to_string(),
            ]
        })
        .collect();
    print_table(
        "scenario matrix: {baseline, fae, fae+skip} x {zipf, longtail}",
        &["scenario", "mode", "steps", "accuracy", "sim (s)", "wall (s)", "deferred"],
        &rows,
    );

    // --- Gates ------------------------------------------------------
    let mut violations: Vec<String> = Vec::new();
    let floor = |cells: &[Cell], floor: f64| {
        cells
            .iter()
            .filter(|c| c.accuracy < floor)
            .map(|c| {
                format!(
                    "{}/{}: accuracy {:.4} below floor {floor:.2}",
                    c.scenario, c.mode, c.accuracy
                )
            })
            .collect::<Vec<_>>()
    };
    violations.extend(floor(&zipf, 0.55));
    violations.extend(floor(&longtail, 0.50));
    for cells in [&zipf, &longtail] {
        let base = &cells[0];
        for c in &cells[1..] {
            let delta = (c.accuracy - base.accuracy).abs();
            if delta > 0.05 {
                violations.push(format!(
                    "{}/{}: accuracy {:.4} not at parity with baseline {:.4} (|delta| {delta:.4} > 0.05)",
                    c.scenario, c.mode, c.accuracy, base.accuracy
                ));
            }
        }
    }
    // Speedup ordering holds on the skewed stream only.
    let zipf_base = zipf[0].simulated_seconds;
    for c in &zipf[1..] {
        if c.simulated_seconds > zipf_base {
            violations.push(format!(
                "zipf/{}: simulated {:.4}s slower than baseline {:.4}s — FAE must win on the skewed stream",
                c.mode, c.simulated_seconds, zipf_base
            ));
        }
    }
    let longtail_base = longtail[0].simulated_seconds;
    let longtail_fae_wins = longtail[1].simulated_seconds <= longtail_base;
    println!(
        "\nlongtail crossover: fae {:.4}s vs baseline {:.4}s — {}",
        longtail[1].simulated_seconds,
        longtail_base,
        if longtail_fae_wins {
            "fae still ahead (tail not flat enough to invert)"
        } else {
            "baseline ahead, as expected when the skew flattens"
        }
    );

    let cell_json = |c: &Cell| {
        serde_json::json!({
            "scenario": c.scenario,
            "mode": c.mode,
            "steps": c.steps,
            "accuracy": c.accuracy,
            "simulated_seconds": c.simulated_seconds,
            "wall_seconds": c.wall_seconds,
            "skip_deferred": c.skipped,
            "journal": c.journal.as_ref().map(|p| p.display().to_string()),
        })
    };
    save_json(
        "scenario_matrix",
        &serde_json::json!({
            "cells": zipf.iter().chain(&longtail).map(cell_json).collect::<Vec<_>>(),
            "zipf_speedup_fae": zipf_base / zipf[1].simulated_seconds,
            "zipf_speedup_fae_skip": zipf_base / zipf[2].simulated_seconds,
            "longtail_speedup_fae": longtail_base / longtail[1].simulated_seconds,
            "longtail_fae_wins": longtail_fae_wins,
            "violations": violations.clone(),
        }),
    );

    if !violations.is_empty() {
        eprintln!("\nscenario matrix FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("scenario matrix OK: accuracy floors, parity, and zipf speedup ordering all hold");
}
