//! The whole suite in one go: every workload end to end (tracing off),
//! then every workload's traced replay, one after the other on the two
//! cores; `--repeat 2` runs the end-to-end half twice and holds the two
//! sets of values against each metric's bound.

use std::path::{Path, PathBuf};

use perf_common::child::run_child;
use perf_common::metrics::{Better, E2eMetric, E2E};
use perf_common::report::provenance;
use perf_common::workloads::{Workload, WORKLOADS};
use perf_common::{flag_args, Flags, RUN_SECONDS};
use serde_json::{json, Map, Value};

use crate::measure::{measure, Measured, Plan};

/// Verdict of the noise guard for one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is not worse than the first by more than the bound.
    Pass,
    /// It is.
    Fail,
    /// The samples behind one of the two values spread wider than the
    /// bound (`Measured::own_spread`): the values cannot be told apart,
    /// so the pair is reported as unresolved, never as unchanged.
    Unresolved,
}

/// Relative change of `second` against `first`, signed so that positive
/// means worse.
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The bound a pair is held to, as a share of the first value: the
/// metric's relative bound, or its absolute floor where that is the
/// larger (`setup_s`: 25 % or 0.1 s — an 80 ms set-up child moves by
/// tens of milliseconds from one run to the next).
pub fn effective_bound(def: &E2eMetric, first: f64) -> f64 {
    def.bound.max(def.abs_floor / first.abs())
}

/// The noise guard's rule.
pub fn verdict(worse_by: f64, own_spread: f64, bound: f64) -> Verdict {
    if own_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// Runs the traced replay of `w` as a child and returns its result
/// object (the last line it prints).
fn traced(w: &Workload, plan: &Plan, smoke: bool, out_dir: &Path) -> Result<(Value, bool), String> {
    let args = flag_args(&[
        ("--workload", w.name.to_string()),
        ("--seed", plan.seed.to_string()),
        ("--seconds", plan.seconds.to_string()),
        ("--out-dir", out_dir.display().to_string()),
        ("--smoke", u8::from(smoke).to_string()),
    ]);
    std::fs::create_dir_all(&plan.work_dir)
        .map_err(|e| format!("{}: {e}", plan.work_dir.display()))?;
    let run = run_child(&plan.layers, &args, &plan.work_dir)
        .map_err(|e| format!("spawn perf-layers: {e}"))?;
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    let (table, line) =
        run.stdout.trim_end().rsplit_once('\n').unwrap_or(("", run.stdout.trim_end()));
    println!("{table}");
    if !run.stderr.trim().is_empty() {
        println!("{}", run.stderr.trim());
    }
    let doc: Value = serde_json::from_str(line)
        .map_err(|e| format!("perf-layers {} ({}): {e}", w.name, run.status_text()))?;
    Ok((doc, run.ok()))
}

/// `perf-e2e suite`.
pub fn run(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.num("smoke", 0u8)? != 0;
    let repeat: usize = flags.num("repeat", 1usize)?.max(1);
    let out_root: PathBuf = flags.path("out-dir")?;
    let run_id = format!("run-{}-{}", std::process::id(), flags.num("seed", 11u64)?);
    let out_dir = out_root.join(&run_id);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let plan = Plan {
        seed: flags.num("seed", 11)?,
        seconds: flags.num("seconds", RUN_SECONDS as f64)?,
        smoke,
        fae: flags.path("fae")?,
        layers: flags.path("layers")?,
        work_dir: out_dir.join("work"),
    };
    let workloads: Vec<Workload> =
        WORKLOADS.iter().map(|w| if smoke { w.smoke() } else { *w }).collect();

    let mut all_ok = true;
    let mut sets: Vec<Vec<Measured>> = Vec::new();
    for pass in 0..repeat {
        println!("\n#### end-to-end pass {} of {repeat} (tracing off) ####", pass + 1);
        let mut set = Vec::new();
        for w in &workloads {
            let m = measure(w, &plan)?;
            m.print(w);
            all_ok &= m.outcome.correct();
            set.push(m);
        }
        sets.push(set);
    }

    let mut doc = Map::new();
    doc.insert("provenance".into(), provenance(plan.seed));
    doc.insert("smoke".into(), json!(smoke));
    doc.insert("seconds".into(), json!(plan.seconds));

    if repeat > 1 && !smoke {
        println!("\n#### noise guard: pass 1 vs pass {repeat} ####");
        println!(
            "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
            "workload", "metric", "first", "second", "worse by", "spread", "bound"
        );
        let mut rows = Vec::new();
        for (i, w) in workloads.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[repeat - 1][i]);
            for def in E2E {
                let value = |m: &Measured| {
                    m.outcome
                        .metrics
                        .iter()
                        .find(|(n, _)| *n == def.name)
                        .map_or(f64::NAN, |(_, v)| *v)
                };
                let (first, second) = (value(a), value(b));
                let worse_by = worsening(first, second, def.better);
                let spread = a.own_spread(def.name).max(b.own_spread(def.name));
                let bound = effective_bound(&def, first);
                let v = verdict(worse_by, spread, bound);
                all_ok &= v == Verdict::Pass;
                println!(
                    "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {:>6.0}%  {}",
                    w.name,
                    def.name,
                    first,
                    second,
                    worse_by * 100.0,
                    spread * 100.0,
                    bound * 100.0,
                    match v {
                        Verdict::Pass => "PASS",
                        Verdict::Fail => "FAIL",
                        Verdict::Unresolved => "unresolved",
                    }
                );
                rows.push(json!({
                    "workload": w.name, "metric": def.name, "first": first, "second": second,
                    "worse_by": worse_by, "own_spread": spread, "bound": bound,
                    "verdict": format!("{v:?}"),
                }));
            }
            // Determinism is exact, not within a bound.
            let same = a.facts == b.facts;
            all_ok &= same;
            println!(
                "{:<18} {:<18} {}",
                w.name,
                "facts (digest, ...)",
                if same { "identical" } else { "DIFFER" }
            );
        }
        doc.insert("noise_guard".into(), Value::Array(rows));
    }

    println!("\n#### traced replay (per-layer metrics) ####");
    let mut per_workload = Map::new();
    for (i, w) in workloads.iter().enumerate() {
        let (layers, ok) = traced(w, &plan, smoke, &out_dir)?;
        all_ok &= ok;
        let passes: Vec<Value> = sets.iter().map(|s| s[i].to_json()).collect();
        per_workload.insert(
            w.name.into(),
            json!({"why": w.why, "end_to_end": passes, "per_layer": layers}),
        );
    }
    doc.insert("workloads".into(), Value::Object(per_workload));
    doc.insert("correct".into(), json!(all_ok));

    let path = out_dir.join("result.json");
    let text =
        serde_json::to_string_pretty(&Value::Object(doc)).expect("Value serialization cannot fail");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nresult written to {} — {}",
        path.display(),
        if all_ok { "all checks passed" } else { "CHECKS FAILED" }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn setup_bound_has_an_absolute_floor() {
        let setup = E2E.iter().find(|m| m.name == "setup_s").unwrap();
        // 25 % of a long set-up, 0.1 s of a short one.
        assert_eq!(effective_bound(setup, 2.0), 0.25);
        assert!((effective_bound(setup, 0.08) - 1.25).abs() < 1e-12);
        let items = E2E.iter().find(|m| m.name == "items_per_s").unwrap();
        assert_eq!(effective_bound(items, 5.0), items.bound);
    }

    #[test]
    fn verdict_reports_unresolved_before_pass_or_fail() {
        assert_eq!(verdict(0.02, 0.01, 0.10), Verdict::Pass);
        assert_eq!(verdict(-0.30, 0.01, 0.10), Verdict::Pass, "an improvement passes");
        assert_eq!(verdict(0.12, 0.01, 0.10), Verdict::Fail);
        assert_eq!(verdict(0.02, 0.20, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.50, 0.20, 0.10), Verdict::Unresolved);
    }
}
