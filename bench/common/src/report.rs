//! The run's bookkeeping: operations attempted and failed, the metric
//! values, the one-line JSON result the driver reads, and the hardware
//! stamp that makes a recorded number comparable later.

use std::process::Command;

use serde_json::{json, Map, Value};

use crate::metrics::unit_of;

/// Operations counted, checks failed and metrics measured so far.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: child rounds and output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the human report.
    pub failures: Vec<String>,
    /// Metric values in emission order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric. A value that is not a finite number cannot be
    /// reported and counts as a failed operation.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.check(value.is_finite(), || format!("metric {name} is not a finite number"));
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics as `{name: {"value": v, "unit": u}}`.
    pub fn metrics_json(&self) -> Value {
        let mut m = Map::new();
        for (name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("?");
            m.insert(name.to_string(), json!({"value": *value, "unit": unit}));
        }
        Value::Object(m)
    }

    /// The single-line result object the driver parses: exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let v = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": self.metrics_json(),
        });
        serde_json::to_string(&v).expect("Value serialization cannot fail")
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what the numbers were measured.
pub fn provenance(seed: u64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "cores": cores,
        "ram": proc_field("/proc/meminfo", "MemTotal"),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        "rustc": first_line_of("rustc", &["-V"]),
        "git_commit": first_line_of("git", &["rev-parse", "HEAD"]),
        "seed": seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.metric("setup_s", 0.8127);
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(!o.result_line().contains('\n'));
    }

    #[test]
    fn failures_and_non_finite_values_are_counted() {
        let mut o = Outcome::default();
        o.check(false, || "digest differs".into());
        o.metric("items_per_s", f64::NAN);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert_eq!(o.failures.len(), 2);
    }

    #[test]
    fn provenance_is_stamped() {
        let p = provenance(11);
        assert_eq!(p.get("seed").and_then(Value::as_u64), Some(11));
        assert!(p.get("cores").and_then(Value::as_u64).unwrap() >= 1);
        assert!(p.get("rustc").and_then(Value::as_str).unwrap().starts_with("rustc"));
    }
}
