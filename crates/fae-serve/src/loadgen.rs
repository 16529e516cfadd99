//! Load generation: open-loop Poisson arrivals and saturation sweeps.
//!
//! Two load shapes, matching the two classic serving-benchmark modes:
//!
//! * **Open loop** — arrivals are a Poisson process at a fixed offered
//!   rate, independent of completions. Drives the system past saturation
//!   and exposes queueing delay honestly (no coordinated omission).
//! * **Closed loop** — a fixed client pool where each client waits for
//!   its response before issuing the next request; self-pacing, so it
//!   measures service latency at the system's natural throughput.
//!
//! [`saturation_sweep`] runs a closed-loop baseline plus a ladder of
//! open-loop points at fractions of the engine's nominal capacity
//! (workers × max_batch ÷ estimated batch seconds), from comfortable to
//! past saturation — the shape `fae bench-serve` plots.

use fae_data::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{ServeEngine, ServeReport};
use crate::request::{InferRequest, ServeLoad};

/// Offered-rate fractions of nominal capacity swept by
/// [`saturation_sweep`]: two comfortable points, one near saturation,
/// one past it.
const SWEEP_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.9, 1.5];

/// Generates `n` open-loop requests: Poisson arrivals at `rate_rps`
/// (exponential inter-arrival gaps) with inputs drawn uniformly from
/// `0..num_inputs`. Deterministic in `seed`.
pub fn open_loop_requests(
    n: usize,
    rate_rps: f64,
    num_inputs: usize,
    seed: u64,
) -> Vec<InferRequest> {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    assert!(num_inputs > 0, "need at least one dataset input");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|i| {
            let u: f64 = rng.gen_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate_rps;
            InferRequest { id: i as u64, arrival_s: at, input: rng.gen_range(0..num_inputs) }
        })
        .collect()
}

/// One measured point of a saturation sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `"closed"` for the self-paced baseline, `"open"` for rate-driven
    /// points.
    pub mode: String,
    /// Offered arrival rate, requests/s (0 for the closed-loop baseline).
    pub offered_rps: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at the bounded queue.
    pub rejected: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Achieved throughput, requests/s.
    pub throughput_rps: f64,
    /// GPU-side share of embedding lookups.
    pub hit_rate: f64,
    /// Mean requests per dispatched micro-batch.
    pub mean_batch_size: f64,
}

impl SweepPoint {
    fn from_report(mode: &str, offered_rps: f64, r: &ServeReport) -> Self {
        Self {
            mode: mode.to_string(),
            offered_rps,
            completed: r.completed,
            rejected: r.rejected,
            p50_ms: r.p50_ms,
            p95_ms: r.p95_ms,
            p99_ms: r.p99_ms,
            throughput_rps: r.throughput_rps,
            hit_rate: r.hit_rate,
            mean_batch_size: r.mean_batch_size,
        }
    }
}

/// A full sweep: the engine's nominal capacity plus every measured point.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Workload the sweep ran against.
    pub workload: String,
    /// Nominal capacity the open-loop rates are fractions of,
    /// requests/s.
    pub capacity_rps: f64,
    /// Measured points: closed baseline first, then open-loop in
    /// ascending offered rate.
    pub points: Vec<SweepPoint>,
}

/// Runs a saturation sweep: one closed-loop baseline, then open-loop
/// points at 25/50/90/150% of the engine's nominal capacity, each
/// offering `requests_per_point` requests. Deterministic in the
/// engine's seed.
pub fn saturation_sweep(
    engine: &ServeEngine,
    ds: &Dataset,
    requests_per_point: usize,
) -> SweepReport {
    assert!(requests_per_point > 0, "sweep needs at least one request per point");
    let cfg = *engine.config();
    let capacity_rps =
        cfg.workers as f64 * cfg.max_batch as f64 / engine.estimated_batch_seconds().max(1e-9);
    let mut points = Vec::with_capacity(1 + SWEEP_FRACTIONS.len());

    let clients = (cfg.workers * 2).max(1);
    let per_client = (requests_per_point / clients).max(1);
    let closed = engine.serve(ds, &ServeLoad::Closed { clients, per_client });
    points.push(SweepPoint::from_report("closed", 0.0, &closed));

    for (i, frac) in SWEEP_FRACTIONS.iter().enumerate() {
        let rate = capacity_rps * frac;
        let reqs =
            open_loop_requests(requests_per_point, rate, ds.len(), cfg.seed ^ (i as u64 + 1));
        let report = engine.serve(ds, &ServeLoad::Open(reqs));
        points.push(SweepPoint::from_report("open", rate, &report));
    }

    SweepReport { workload: engine.spec().name.clone(), capacity_rps, points }
}

/// Serializes a sweep (what `fae bench-serve --out` writes).
pub fn sweep_json(sweep: &SweepReport) -> serde_json::Value {
    let points: Vec<serde_json::Value> = sweep
        .points
        .iter()
        .map(|p| {
            serde_json::json!({
                "mode": p.mode,
                "offered_rps": p.offered_rps,
                "completed": p.completed,
                "rejected": p.rejected,
                "p50_ms": p.p50_ms,
                "p95_ms": p.p95_ms,
                "p99_ms": p.p99_ms,
                "throughput_rps": p.throughput_rps,
                "hit_rate": p.hit_rate,
                "mean_batch_size": p.mean_batch_size,
            })
        })
        .collect();
    serde_json::json!({
        "workload": sweep.workload,
        "capacity_rps": sweep.capacity_rps,
        "points": points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate_partitions;
    use crate::engine::ServeConfig;
    use fae_core::CalibratorConfig;
    use fae_data::{generate, GenOptions, WorkloadSpec};

    #[test]
    fn open_loop_is_deterministic_and_ordered() {
        let a = open_loop_requests(64, 1000.0, 128, 7);
        let b = open_loop_requests(64, 1000.0, 128, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for w in a.windows(2) {
            assert!(w[1].arrival_s > w[0].arrival_s, "arrivals must be strictly increasing");
        }
        assert!(a.iter().all(|r| r.input < 128));
        let c = open_loop_requests(64, 1000.0, 128, 8);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn open_loop_rate_is_roughly_honored() {
        let reqs = open_loop_requests(2000, 500.0, 16, 3);
        let span = reqs.last().unwrap().arrival_s;
        let rate = 2000.0 / span;
        assert!((rate / 500.0 - 1.0).abs() < 0.15, "empirical rate {rate} far from 500");
    }

    #[test]
    fn sweep_covers_closed_baseline_and_open_ladder() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(1, 256));
        let parts = calibrate_partitions(
            &ds,
            CalibratorConfig {
                gpu_budget_bytes: spec.embedding_bytes() / 8,
                small_table_bytes: 8 << 10,
                ..CalibratorConfig::default()
            },
        );
        let engine = ServeEngine::untrained(spec, parts, ServeConfig::default());
        let sweep = saturation_sweep(&engine, &ds, 80);
        assert_eq!(sweep.points.len(), 1 + SWEEP_FRACTIONS.len());
        assert!(sweep.capacity_rps > 0.0);
        assert_eq!(sweep.points[0].mode, "closed");
        assert!(sweep.points[1..].iter().all(|p| p.mode == "open"));
        for w in sweep.points[1..].windows(2) {
            assert!(w[1].offered_rps > w[0].offered_rps);
        }
        assert!(sweep.points.iter().all(|p| p.completed > 0));
        let json = sweep_json(&sweep);
        let text = serde_json::to_string(&json).unwrap();
        assert!(text.contains("\"points\""));
        assert!(text.contains("\"capacity_rps\""));
    }
}
