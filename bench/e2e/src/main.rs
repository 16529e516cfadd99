//! `perf-e2e` — the end-to-end half of the benchmark, tracing off.
//!
//! ```text
//! perf-e2e run --workload W --seed N --seconds S --fae BIN --layers BIN --work-dir D [--smoke 1]
//!     set-up several times, then cold child rounds of the release `fae`
//!     binary for S seconds; checks every round's output; the last line
//!     of standard output is the result object.
//! perf-e2e suite --fae BIN --layers BIN --out-dir D [--seed N] [--seconds S] [--repeat R] [--smoke 1]
//!     every workload, end-to-end then traced; prints every metric and
//!     writes D/<run-id>/result.json (+ trace-<workload>.json).
//! perf-e2e manifest      prints BENCHMARK.json from the catalogue
//! perf-e2e list          prints the workload table with its CLI lines
//! ```

mod measure;
mod suite;

use std::path::Path;
use std::process::ExitCode;

use perf_common::metrics::{E2E, PER_LAYER};
use perf_common::workloads::{self, Kind, WORKLOADS};
use perf_common::{Flags, RUN_SECONDS};
use serde_json::{json, Value};

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (a test in perf-common compares them field by field).
fn manifest() -> Value {
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|w| json!({"name": w.name, "why": w.why})).collect();
    let e2e: Vec<Value> = E2E
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound}))
        .collect();
    let layers: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    json!({
        "command": ["bash", "bench/run.sh"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": e2e,
        "per_layer": layers,
    })
}

fn list() {
    let stream = Path::new("bench/out/<run>/stream.fae");
    println!(
        "sizing: 2 cores, <= 2 runnable threads, workloads run one at a time, seed 11 by default\n"
    );
    for w in WORKLOADS {
        println!("{} ({} {} per round)", w.name, w.items_per_round(), w.item_name());
        println!("  why:    {}", w.why);
        match w.kind {
            Kind::Prep => println!(
                "  round:  in-process: pipeline::prepare -> to_fae_file().encode() -> prefetch_fae_blocks, {} kaggle inputs",
                w.inputs
            ),
            _ => {
                println!("  set-up: fae {}", w.setup_args(11, stream).join(" "));
                println!("  round:  fae {}", w.round_args(11, stream).join(" "));
            }
        }
        if w.accuracy_floor > 0.0 {
            println!("  check:  test accuracy >= {}", w.accuracy_floor);
        }
    }
    println!("\nend-to-end metrics:");
    for m in E2E {
        let floor =
            if m.abs_floor > 0.0 { format!(" or {} {}", m.abs_floor, m.unit) } else { String::new() };
        println!(
            "  {:<18} {:<6} {:<7} bound {:.2}{floor}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.definition
        );
    }
    println!("\nper-layer metrics and what each should move:");
    for m in PER_LAYER {
        println!("  {:<42} {:<8} -> {}", m.name, m.unit, m.moves);
    }
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) =
        argv.split_first().ok_or("usage: perf-e2e <run|suite|manifest|list> [--flag value]...")?;
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "manifest" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&manifest()).expect("Value serialization cannot fail")
            );
            Ok(true)
        }
        "list" => {
            list();
            Ok(true)
        }
        "run" => {
            let name = flags.get("workload").ok_or("--workload required")?;
            let mut w =
                workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let smoke = flags.num("smoke", 0u8)? != 0;
            if smoke {
                w = w.smoke();
            }
            let plan = measure::Plan {
                seed: flags.num("seed", 11)?,
                seconds: flags.num("seconds", RUN_SECONDS as f64)?,
                smoke,
                fae: flags.path("fae")?,
                layers: flags.path("layers")?,
                work_dir: flags.path("work-dir")?,
            };
            let measured = measure::measure(&w, &plan)?;
            measured.print(&w);
            println!("{}", measured.outcome.result_line());
            Ok(measured.outcome.correct())
        }
        "suite" => suite::run(&flags),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let m = manifest();
        let keys: Vec<&str> = m.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!((1..=60).contains(&m.get("run_seconds").and_then(Value::as_u64).unwrap()));
        // 4 + 22 runs per workload must fit the driver's 3420 s with
        // room for two builds (under a minute each). A run is its window
        // (set-up runs included) plus the round under way when it closes,
        // the reference run of net_loopback and two no-op cargo builds.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 3) + 300 < 3420);
    }
}
