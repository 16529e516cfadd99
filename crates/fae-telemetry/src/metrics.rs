//! The metrics registry: counters, gauges and fixed-bucket log-scale
//! histograms, all behind plain `String` names.
//!
//! The registry is deliberately zero-dependency (std collections only;
//! serde is used solely to snapshot it to JSON). Names follow a
//! dot-separated hierarchy — `scheduler.rate`, `replicator.sync_bytes`,
//! `faults.injected.device-loss` — documented in DESIGN.md §8.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Number of histogram buckets. Bucket `i` covers
/// `[2^(i + MIN_EXP), 2^(i + MIN_EXP + 1))`; the first and last buckets
/// additionally absorb underflow and overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent of the lower bound of bucket 0 (`2^-40 ≈ 9.1e-13`), chosen so
/// sub-nanosecond durations and multi-megasecond simulated times both
/// land inside the range.
pub const HISTOGRAM_MIN_EXP: i32 = -40;

/// A fixed-bucket log₂-scale histogram.
///
/// Observations are binned by `floor(log2(v))`; the bucket layout is
/// fixed at construction so histograms from different runs (or shards)
/// [`merge`](Histogram::merge) bucket-by-bucket without rebinning.
/// Non-positive and non-finite observations clamp into the underflow
/// bucket (0); values beyond the top bound clamp into the last bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket an observation falls into.
    pub fn bucket_index(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let exp = v.log2().floor() as i64 - HISTOGRAM_MIN_EXP as i64;
        exp.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// `[lower, upper)` value bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        let lo = 2f64.powi(HISTOGRAM_MIN_EXP + i as i32);
        (lo, lo * 2.0)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) of the observed values:
    /// walks the buckets to the one holding the ⌈q·count⌉-th observation
    /// and interpolates linearly inside it, clamped to the observed
    /// `[min, max]` so the log₂ bucket bounds never widen the estimate
    /// past real data. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let within = (rank - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * within;
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Merges another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bucket layouts must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One completed span occurrence, aggregated by path.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Times this span path was entered.
    pub count: u64,
    /// Total real (host wall-clock) seconds across occurrences.
    pub real_s: f64,
    /// Total simulated seconds attributed across occurrences.
    pub sim_s: f64,
}

/// A metric name that is valid by construction: lowercase letters,
/// digits, `.` and `_`, starting with a letter, with no doubled `.` and
/// no trailing separator. The Prometheus exposition maps every other
/// byte to `_`, so a looser name could collide with another one after
/// that mapping or churn the scrape schema.
///
/// Build one with [`metric!`](crate::metric), which checks the name at
/// compile time.
#[derive(Clone, Copy, Debug)]
pub struct Metric(&'static str);

impl Metric {
    /// Checks `name` against the rule above. [`metric!`](crate::metric)
    /// calls this in a `const` block, where a bad name fails the build;
    /// called at run time it panics instead.
    pub const fn new(name: &'static str) -> Self {
        let b = name.as_bytes();
        assert!(!b.is_empty() && b[0].is_ascii_lowercase(), "a metric name starts with [a-z]");
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            let ok = c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'.' || c == b'_';
            assert!(ok, "a metric name is made of [a-z0-9._]");
            assert!(!(c == b'.' && i > 0 && b[i - 1] == b'.'), "a metric name has no `..`");
            i += 1;
        }
        let last = b[b.len() - 1];
        assert!(last != b'.' && last != b'_', "a metric name does not end with `.` or `_`");
        Metric(name)
    }

    /// The name as recorded in the registry.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

/// A [`Metric`] whose name is checked at compile time.
///
/// ```
/// let steps = fae_telemetry::metric!("train.steps_hot");
/// assert_eq!(steps.name(), "train.steps_hot");
/// ```
///
/// Each name below breaks the rule, so none of these builds:
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!("Train.Steps"); // uppercase
/// ```
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!("serve hit rate"); // spaces
/// ```
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!("serve-latency"); // dashes
/// ```
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!("net..joins"); // doubled separator
/// ```
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!(".joins"); // leading separator
/// ```
///
/// ```compile_fail,E0080
/// let _ = fae_telemetry::metric!("net.joins_"); // trailing separator
/// ```
#[macro_export]
macro_rules! metric {
    ($name:literal) => {
        const { $crate::Metric::new($name) }
    };
}

/// The registry: three name-keyed maps plus the span aggregate.
///
/// `BTreeMap` keeps snapshots deterministically ordered, so two runs with
/// the same metric activity serialize identically (modulo wall-clock
/// values).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (created at 0).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records an observation into the histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Records one completed span occurrence under `path`.
    pub fn span_record(&mut self, path: &str, real_s: f64, sim_s: f64) {
        let s = self.spans.entry(path.to_string()).or_default();
        s.count += 1;
        s.real_s += real_s;
        s.sim_s += sim_s;
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The aggregated span stats under `path`.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Merges another registry into this one (counters add, gauges take
    /// the other's value, histograms and spans merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.spans {
            let s = self.spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.real_s += v.real_s;
            s.sim_s += v.sim_s;
        }
    }

    /// Snapshots the registry as a JSON value tree.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), serde_json::to_value(v));
        }
        let mut gauges = Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), serde_json::to_value(v));
        }
        let mut histograms = Map::new();
        for (k, h) in &self.histograms {
            // Sparse bucket encoding: only non-empty buckets, as
            // [index, lower_bound, count] triples.
            let buckets: Vec<Value> = h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    Value::Array(vec![
                        serde_json::to_value(&(i as u64)),
                        serde_json::to_value(&Histogram::bucket_bounds(i).0),
                        serde_json::to_value(&c),
                    ])
                })
                .collect();
            let mut m = Map::new();
            m.insert("count".into(), serde_json::to_value(&h.count));
            m.insert("sum".into(), serde_json::to_value(&h.sum));
            m.insert("mean".into(), serde_json::to_value(&h.mean()));
            m.insert("min".into(), serde_json::to_value(&h.min));
            m.insert("max".into(), serde_json::to_value(&h.max));
            m.insert("buckets".into(), Value::Array(buckets));
            histograms.insert(k.clone(), Value::Object(m));
        }
        let mut spans = Map::new();
        for (k, s) in &self.spans {
            let mut m = Map::new();
            m.insert("count".into(), serde_json::to_value(&s.count));
            m.insert("real_s".into(), serde_json::to_value(&s.real_s));
            m.insert("sim_s".into(), serde_json::to_value(&s.sim_s));
            spans.insert(k.clone(), Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("counters".into(), Value::Object(counters));
        root.insert("gauges".into(), Value::Object(gauges));
        root.insert("histograms".into(), Value::Object(histograms));
        root.insert("spans".into(), Value::Object(spans));
        Value::Object(root)
    }

    /// Snapshots the registry in the Prometheus text exposition format
    /// (version 0.0.4). Dot-separated fae names map to underscore form
    /// (`net.nodes_lost` → `fae_net_nodes_lost`); histograms expose
    /// cumulative `_bucket{le=...}` series over the non-empty log₂
    /// buckets plus `_sum`/`_count`; spans expose `_count`, `_real
    /// _seconds` and `_sim_seconds` series. Output order is the maps'
    /// deterministic BTreeMap order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", prom_f64(*v)));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let (_, hi) = Histogram::bucket_bounds(i);
                out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", prom_f64(hi)));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", prom_f64(h.sum)));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        for (k, s) in &self.spans {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name}_count counter\n{name}_count {}\n", s.count));
            out.push_str(&format!(
                "# TYPE {name}_real_seconds counter\n{name}_real_seconds {}\n",
                prom_f64(s.real_s)
            ));
            out.push_str(&format!(
                "# TYPE {name}_sim_seconds counter\n{name}_sim_seconds {}\n",
                prom_f64(s.sim_s)
            ));
        }
        out
    }
}

/// Maps a fae metric name to a valid Prometheus metric name: the `fae_`
/// namespace prefix, with every character outside `[a-zA-Z0-9_]`
/// (dots, dashes, slashes) folded to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("fae_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an f64 the way Prometheus expects (no exponent surprises for
/// integral values, `+Inf`/`-Inf`/`NaN` spellings).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_is_monotone_and_clamped_to_observations() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone");
        assert!(p50 >= h.min && p99 <= h.max, "quantiles clamped to [min, max]");
        // The log₂ buckets bound the error to one octave.
        assert!((0.25..=1.0).contains(&p50), "p50 of U(0,1] ≈ 0.5, got {p50}");
        assert!(p99 > 0.5, "p99 of U(0,1] must exceed the median, got {p99}");
    }

    #[test]
    fn quantile_of_singleton_is_the_value() {
        let mut h = Histogram::new();
        h.observe(0.125);
        assert_eq!(h.quantile(0.0), 0.125);
        assert_eq!(h.quantile(0.5), 0.125);
        assert_eq!(h.quantile(1.0), 0.125);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 1.0 = 2^0 → bucket -MIN_EXP; the lower bound is inclusive,
        // the upper bound exclusive.
        let one = (-HISTOGRAM_MIN_EXP) as usize;
        assert_eq!(Histogram::bucket_index(1.0), one);
        assert_eq!(Histogram::bucket_index(1.999), one);
        assert_eq!(Histogram::bucket_index(2.0), one + 1);
        assert_eq!(Histogram::bucket_index(0.5), one - 1);
        let (lo, hi) = Histogram::bucket_bounds(one);
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 2.0);
    }

    #[test]
    fn bucket_underflow_and_overflow_clamp() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e-300), 0);
        assert_eq!(Histogram::bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn every_bucket_bound_maps_back_to_its_bucket() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, _hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of bucket {i}");
            // The bucket midpoint stays inside (probing one ulp under the
            // upper bound is not robust: log2 rounds it up to the bound).
            assert_eq!(Histogram::bucket_index(lo * 1.5), i, "midpoint of bucket {i}");
        }
    }

    #[test]
    fn observe_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        h.observe(1.0);
        h.observe(4.0);
        h.observe(0.25);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 5.25);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_bucket_by_bucket() {
        let mut a = Histogram::new();
        a.observe(1.0);
        a.observe(1.5);
        let mut b = Histogram::new();
        b.observe(1.0);
        b.observe(1024.0);
        a.merge(&b);
        assert_eq!(a.count, 4);
        let one = (-HISTOGRAM_MIN_EXP) as usize;
        assert_eq!(a.counts[one], 3);
        assert_eq!(a.counts[one + 10], 1);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 1024.0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        r.observe("h", 1.0);
        r.span_record("pipeline/train", 0.5, 100.0);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(2.5));
        assert_eq!(r.histogram("h").unwrap().count, 1);
        assert_eq!(r.span("pipeline/train").unwrap().sim_s, 100.0);
    }

    #[test]
    fn registry_merge_combines_all_kinds() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe("h", 1.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 7.0);
        b.observe("h", 2.0);
        b.span_record("s", 1.0, 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.histogram("h").unwrap().count, 2);
        assert_eq!(a.span("s").unwrap().count, 1);
    }

    #[test]
    fn prometheus_exposition_covers_all_kinds() {
        let mut r = MetricsRegistry::new();
        r.counter_add("net.joins", 2);
        r.gauge_set("scheduler.rate", 25.0);
        r.observe("serve.latency", 0.5);
        r.observe("serve.latency", 0.25);
        r.span_record("pipeline/train", 1.5, 100.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE fae_net_joins counter\nfae_net_joins 2\n"));
        assert!(text.contains("# TYPE fae_scheduler_rate gauge\nfae_scheduler_rate 25\n"));
        assert!(text.contains("# TYPE fae_serve_latency histogram\n"));
        assert!(text.contains("fae_serve_latency_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("fae_serve_latency_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("fae_serve_latency_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("fae_serve_latency_sum 0.75\n"));
        assert!(text.contains("fae_serve_latency_count 2\n"));
        assert!(text.contains("fae_pipeline_train_count 1\n"));
        assert!(text.contains("fae_pipeline_train_sim_seconds 100\n"));
        // No raw dots or slashes survive in metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad prom name in line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_exposition_is_deterministic() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        let a = r.to_prometheus();
        let b = r.clone().to_prometheus();
        assert_eq!(a, b);
        assert!(a.find("fae_a").unwrap() < a.find("fae_b").unwrap());
    }

    #[test]
    fn json_snapshot_is_deterministically_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 1);
        r.observe("lat", 0.5);
        let text = serde_json::to_string(&r.to_json()).unwrap();
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
        assert!(text.contains("\"buckets\""));
    }
}
