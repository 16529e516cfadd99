//! The serving engine (DESIGN.md §10): batcher → cache → worker pool.
//!
//! Serving runs in two passes, mirroring the trainer's "real numerics on
//! a simulated clock" split:
//!
//! 1. **Discrete-event simulation** — arrivals (from a recorded trace, an
//!    open-loop generator or closed-loop clients) flow through the
//!    [`MicroBatcher`]; each closed batch is assigned to the earliest-free
//!    worker, its embedding lookups run through the [`ServeCache`], and
//!    its service time is charged phase by phase to a
//!    [`Timeline`]: GPU gathers for cached rows,
//!    CPU gathers + a PCIe transfer for misses, a V100 dense forward, and
//!    a fixed dispatch overhead. Request latencies, queue depths, and the
//!    makespan all come from this pass, so a same-seed serve run is
//!    bit-identical.
//! 2. **Real compute** — the dispatched batches re-run as actual MLP
//!    forwards ([`fae_models::predict`]) on scoped worker threads, one
//!    model replica per worker, producing real click scores. Wall-clock
//!    spans are recorded per worker but never feed back into the
//!    simulated timing.

use std::collections::BinaryHeap;

use fae_core::{AnyModel, TrainCheckpoint};
use fae_data::{BatchKind, Dataset, MiniBatch, WorkloadSpec};
use fae_embed::HotColdPartition;
use fae_models::bridge::profile_for;
use fae_models::{predict, MasterEmbeddings, RecModel};
use fae_sysmodel::{ModelProfile, Phase, SystemConfig, Timeline};
use fae_telemetry::journal::PhaseSeconds;
use fae_telemetry::{JournalEvent, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batcher::{BatcherConfig, CloseReason, ClosedBatch, MicroBatcher};
use crate::cache::{CacheStats, ServeCache};
use crate::request::{InferRequest, ServeLoad};

/// Fixed per-dispatch framework overhead. The trainer's
/// `PER_STEP_FIXED_S` (11 ms) models a full optimizer-step framework
/// round trip; an inference dispatch skips the optimizer, gradient and
/// host-side bookkeeping almost entirely, so it gets its own, much
/// smaller constant.
const SERVE_DISPATCH_S: f64 = 50e-6;

/// Serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Micro-batcher close threshold (requests).
    pub max_batch: usize,
    /// Micro-batcher deadline, seconds.
    pub max_delay_s: f64,
    /// Bounded-queue admission cap: arrivals are rejected while this many
    /// requests are queued or in flight.
    pub queue_cap: usize,
    /// Worker pool size.
    pub workers: usize,
    /// Dynamic (cold-tier) cache slots, spread across tables.
    pub cold_cache_rows: usize,
    /// Cache aging window (cold accesses between count halvings).
    pub freq_window: usize,
    /// Seed for closed-loop input draws and the untrained-model fallback.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay_s: 2e-3,
            queue_cap: 1024,
            workers: 2,
            cold_cache_rows: 4096,
            freq_window: 4096,
            seed: 1,
        }
    }
}

/// One arrival in the event heap, ordered earliest-first with `(time,
/// seq)` ties broken in insertion order — deterministic regardless of
/// float coincidences.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    at: f64,
    seq: u64,
    input: usize,
    client: Option<usize>,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.at.total_cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// One batch after simulated dispatch (pass 1), awaiting real compute.
struct Dispatched {
    worker: usize,
    end_s: f64,
    members: Vec<usize>,
    batch: MiniBatch,
    phases: PhaseSeconds,
}

/// What a serve run reports.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests that completed.
    pub completed: u64,
    /// Requests rejected at the bounded queue.
    pub rejected: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Worst request latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Simulated makespan (serve start to last batch completion).
    pub simulated_seconds: f64,
    /// GPU-side share of embedding lookups.
    pub hit_rate: f64,
    /// Cache counters summed across tables.
    pub cache: CacheStats,
    /// Phase-tagged busy time summed across workers.
    pub timeline: Timeline,
    /// Mean predicted click probability over completed requests (real
    /// numerics from pass 2).
    pub mean_score: f64,
    /// Every arrival the run saw (admitted and rejected), arrival order —
    /// what `--record` persists for later replay.
    pub requests: Vec<InferRequest>,
}

impl ServeReport {
    /// Exact `q`-quantile of `sorted` (ascending): `sorted[⌈q·n⌉-1]`.
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// The serving engine: frozen model + embeddings + partitions + knobs.
pub struct ServeEngine {
    spec: WorkloadSpec,
    partitions: Vec<HotColdPartition>,
    master: MasterEmbeddings,
    dense_params: Vec<f32>,
    cfg: ServeConfig,
    telemetry: Telemetry,
}

impl ServeEngine {
    /// Loads the frozen model + embeddings from a training checkpoint.
    /// The partitions must be the ones the checkpointed run was
    /// calibrated with (the preprocessed sidecar's, or a re-run of the
    /// calibrator on the same dataset) for the pinned tier to line up.
    pub fn from_checkpoint(
        spec: WorkloadSpec,
        ck: &TrainCheckpoint,
        partitions: Vec<HotColdPartition>,
        cfg: ServeConfig,
    ) -> Self {
        Self {
            spec,
            partitions,
            master: ck.restore_master(),
            dense_params: ck.dense_params.clone(),
            cfg,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A freshly initialised (untrained) engine — latency and cache
    /// behaviour are identical to a trained one, only the scores are
    /// meaningless. The fallback when no checkpoint is available.
    pub fn untrained(
        spec: WorkloadSpec,
        partitions: Vec<HotColdPartition>,
        cfg: ServeConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let master = MasterEmbeddings::from_spec(&spec, &mut rng);
        let model = AnyModel::from_spec(&spec, &mut rng);
        let mut dense_params = Vec::new();
        model.write_params(&mut dense_params);
        Self { spec, partitions, master, dense_params, cfg, telemetry: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle (metrics + journal events).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Re-stores the master's cold rows as int8 (DESIGN.md §14). The
    /// calibrator-pinned rows — exactly the set the cache serves
    /// GPU-side — stay exact f32, so hot lookups score bit-identically;
    /// cold-row scores move by at most one quantization step per
    /// element while the cold majority shrinks ~4×. Gauges the new
    /// footprint as `serve.master_bytes`.
    pub fn quantize_cold_tier(&mut self) {
        self.master.quantize_cold_tier(&self.partitions);
        self.telemetry.gauge_set("serve.master_bytes", self.master.total_bytes() as f64);
    }

    /// Resident bytes of the master tables the engine serves from
    /// (shrinks after [`ServeEngine::quantize_cold_tier`]).
    pub fn master_bytes(&self) -> usize {
        self.master.total_bytes()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The workload this engine serves.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The partitions seeding the cache's pinned tier.
    pub fn partitions(&self) -> &[HotColdPartition] {
        &self.partitions
    }

    fn profile(&self) -> ModelProfile {
        let hot_bytes: usize =
            self.partitions.iter().map(|p| p.hot_bytes(self.spec.embedding_dim)).sum();
        profile_for(&self.spec, hot_bytes as f64)
    }

    /// Estimated service seconds of one full all-hot batch — the unit the
    /// load generator's default arrival rate is derived from.
    pub fn estimated_batch_seconds(&self) -> f64 {
        let profile = self.profile();
        let lookups: usize = self.spec.tables.iter().map(|t| t.lookups_per_input).sum();
        batch_cost(
            &profile,
            &SystemConfig::paper_server(1),
            self.spec.embedding_dim,
            self.cfg.max_batch,
            self.cfg.max_batch * lookups,
            0,
        )
        .total()
    }

    /// Runs the load through the engine (both passes) and reports.
    pub fn serve(&self, ds: &Dataset, load: &ServeLoad) -> ServeReport {
        assert!(self.cfg.workers >= 1, "need at least one serving worker");
        assert_eq!(
            self.partitions.len(),
            self.spec.tables.len(),
            "one partition per table (serve against the calibrated workload)"
        );
        let telem = &self.telemetry;
        telem.emit(&JournalEvent::ServeStart {
            workload: self.spec.name.clone(),
            seed: self.cfg.seed,
            workers: self.cfg.workers,
            max_batch: self.cfg.max_batch,
            max_delay_us: (self.cfg.max_delay_s * 1e6).round() as u64,
            queue_cap: self.cfg.queue_cap,
        });

        let profile = self.profile();
        let sys = SystemConfig::paper_server(1);
        let mut cache =
            ServeCache::new(&self.partitions, self.cfg.cold_cache_rows, self.cfg.freq_window);
        let mut batcher = MicroBatcher::new(BatcherConfig {
            max_batch: self.cfg.max_batch,
            max_delay_s: self.cfg.max_delay_s,
            queue_cap: self.cfg.queue_cap,
        });
        let mut free_at = vec![0.0f64; self.cfg.workers];
        let mut dispatched: Vec<Dispatched> = Vec::new();
        let mut requests: Vec<InferRequest> = Vec::new();
        let mut client_of: Vec<Option<usize>> = Vec::new();
        let mut latency: Vec<Option<f64>> = Vec::new();
        let mut rejected = 0u64;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        let mut heap: BinaryHeap<Arrival> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut budgets: Vec<usize> = Vec::new();
        match load {
            ServeLoad::Open(reqs) => {
                for r in reqs {
                    assert!(r.input < ds.len(), "request input {} out of range", r.input);
                    heap.push(Arrival { at: r.arrival_s, seq, input: r.input, client: None });
                    seq += 1;
                }
            }
            ServeLoad::Closed { clients, per_client } => {
                assert!(*clients >= 1, "closed loop needs at least one client");
                budgets = vec![*per_client; *clients];
                for (c, budget) in budgets.iter_mut().enumerate() {
                    if *budget > 0 {
                        *budget -= 1;
                        // Microsecond stagger: client starts are ordered
                        // but effectively simultaneous.
                        heap.push(Arrival {
                            at: c as f64 * 1e-6,
                            seq,
                            input: rng.gen_range(0..ds.len()),
                            client: Some(c),
                        });
                        seq += 1;
                    }
                }
            }
        }

        // Pass 1: discrete-event simulation on the simulated clock.
        let dim = self.spec.embedding_dim;
        let dispatch = |b: ClosedBatch,
                        free_at: &mut Vec<f64>,
                        cache: &mut ServeCache,
                        requests: &[InferRequest],
                        latency: &mut Vec<Option<f64>>,
                        dispatched: &mut Vec<Dispatched>|
         -> (f64, Vec<usize>) {
            // Earliest-free worker, lowest index on ties.
            let worker = free_at
                .iter()
                .enumerate()
                .min_by(|(ai, at), (bi, bt)| at.total_cmp(bt).then(ai.cmp(bi)))
                .map_or(0, |(i, _)| i);
            let start_s = b.close_s.max(free_at[worker]);
            let inputs: Vec<usize> = b.members.iter().map(|&m| requests[m].input).collect();
            let batch = MiniBatch::gather(ds, &inputs, BatchKind::Unclassified);
            let access = cache.access_batch(&batch);
            let cost =
                batch_cost(&profile, &sys, dim, batch.len(), access.gpu_rows, access.cpu_rows);
            let end_s = start_s + cost.total();
            free_at[worker] = end_s;
            for &m in &b.members {
                let l = end_s - requests[m].arrival_s;
                latency[m] = Some(l);
                telem.observe("serve.latency_s", l);
            }
            telem.observe("serve.batch_size", b.members.len() as f64);
            telem.counter_add("serve.cache_hits", access.gpu_rows as u64);
            telem.counter_add("serve.cache_misses", access.cpu_rows as u64);
            let phases = PhaseSeconds::delta(&Timeline::new(), &cost);
            telem.emit(&JournalEvent::ServeBatch {
                batch: dispatched.len() as u64 + 1,
                worker,
                size: b.members.len(),
                start_s,
                hits: access.gpu_rows as u64,
                misses: access.cpu_rows as u64,
                phases,
            });
            let members = b.members.clone();
            dispatched.push(Dispatched { worker, end_s, members: b.members, batch, phases });
            (end_s, members)
        };

        loop {
            let next_at = heap.peek().map(|a| a.at);
            // A pending deadline at or before the next arrival fires first;
            // with no arrivals left, it drains the final batch.
            if let Some(dl) = batcher.deadline() {
                if next_at.is_none_or(|at| dl <= at) {
                    let reason =
                        if next_at.is_some() { CloseReason::Deadline } else { CloseReason::Drain };
                    // fae-lint: allow(no-panic, reason = "deadline() is Some only while a batch is open, so flush cannot return None here")
                    let b = batcher.flush(dl, reason).expect("open batch behind a deadline");
                    let (end_s, members) = dispatch(
                        b,
                        &mut free_at,
                        &mut cache,
                        &requests,
                        &mut latency,
                        &mut dispatched,
                    );
                    // Completed closed-loop clients issue their next request.
                    for m in members {
                        if let Some(c) = client_of[m] {
                            if budgets[c] > 0 {
                                budgets[c] -= 1;
                                heap.push(Arrival {
                                    at: end_s,
                                    seq,
                                    input: rng.gen_range(0..ds.len()),
                                    client: Some(c),
                                });
                                seq += 1;
                            }
                        }
                    }
                    continue;
                }
            }
            let Some(arr) = heap.pop() else { break };
            let now = arr.at;
            // Queue depth: requests in the open batch plus requests
            // dispatched but not yet completed at `now`.
            let inflight: usize =
                dispatched.iter().filter(|d| d.end_s > now).map(|d| d.members.len()).sum();
            let depth = batcher.open_len() + inflight;
            telem.gauge_set("serve.queue_depth", depth as f64);
            if depth >= self.cfg.queue_cap {
                rejected += 1;
                telem.counter_add("serve.rejected", 1);
                requests.push(InferRequest {
                    id: requests.len() as u64,
                    arrival_s: now,
                    input: arr.input,
                });
                client_of.push(arr.client);
                latency.push(None);
                if let Some(c) = arr.client {
                    // A rejected closed-loop client backs off one deadline
                    // before issuing its next request.
                    if budgets[c] > 0 {
                        budgets[c] -= 1;
                        heap.push(Arrival {
                            at: now + self.cfg.max_delay_s,
                            seq,
                            input: rng.gen_range(0..ds.len()),
                            client: Some(c),
                        });
                        seq += 1;
                    }
                }
                continue;
            }
            let idx = requests.len();
            requests.push(InferRequest { id: idx as u64, arrival_s: now, input: arr.input });
            client_of.push(arr.client);
            latency.push(None);
            if let Some(b) = batcher.push(idx, now) {
                let (end_s, members) =
                    dispatch(b, &mut free_at, &mut cache, &requests, &mut latency, &mut dispatched);
                for m in members {
                    if let Some(c) = client_of[m] {
                        if budgets[c] > 0 {
                            budgets[c] -= 1;
                            heap.push(Arrival {
                                at: end_s,
                                seq,
                                input: rng.gen_range(0..ds.len()),
                                client: Some(c),
                            });
                            seq += 1;
                        }
                    }
                }
            }
        }

        self.finish(dispatched, requests, latency, rejected, cache.stats())
    }

    /// Pass 2 (real compute on worker threads) + report assembly.
    fn finish(
        &self,
        dispatched: Vec<Dispatched>,
        requests: Vec<InferRequest>,
        latency: Vec<Option<f64>>,
        rejected: u64,
        cache: CacheStats,
    ) -> ServeReport {
        let telem = &self.telemetry;

        // Real forward passes, one replica per worker, batches in
        // dispatch order. Scores never feed back into the timing.
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); self.cfg.workers];
        for (i, d) in dispatched.iter().enumerate() {
            per_worker[d.worker].push(i);
        }
        let (score_sum, score_n) = std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .iter()
                .enumerate()
                .filter(|(_, batches)| !batches.is_empty())
                .map(|(w, batches)| {
                    let telemetry = telem.clone();
                    let dispatched = &dispatched;
                    let master = &self.master;
                    let spec = &self.spec;
                    let params = &self.dense_params;
                    let seed = self.cfg.seed;
                    scope.spawn(move || {
                        let _span = telemetry.span(&format!("serve/worker{w}"));
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut model = AnyModel::from_spec(spec, &mut rng);
                        model.read_params(params);
                        let mut sum = 0.0f64;
                        let mut n = 0usize;
                        for &bi in batches {
                            let pred = predict(&mut model, master, &dispatched[bi].batch);
                            sum += pred.as_slice().iter().map(|&v| v as f64).sum::<f64>();
                            n += pred.as_slice().len();
                        }
                        (sum, n)
                    })
                })
                .collect();
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for h in handles {
                let (s, c) = match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                sum += s;
                n += c;
            }
            (sum, n)
        });
        let mean_score = if score_n > 0 { score_sum / score_n as f64 } else { 0.0 };

        let mut timeline = Timeline::new();
        for d in &dispatched {
            for (i, phase) in Phase::ALL.iter().enumerate() {
                timeline.add(*phase, d.phases.0[i]);
            }
        }
        let mut lats: Vec<f64> = latency.iter().flatten().copied().collect();
        lats.sort_by(f64::total_cmp);
        let completed = lats.len() as u64;
        let simulated_seconds = dispatched.iter().map(|d| d.end_s).fold(0.0f64, f64::max);
        let throughput_rps =
            if simulated_seconds > 0.0 { completed as f64 / simulated_seconds } else { 0.0 };
        let total_lookups = cache.pinned_hits + cache.hits + cache.misses;
        let hit_rate = if total_lookups > 0 {
            (cache.pinned_hits + cache.hits) as f64 / total_lookups as f64
        } else {
            0.0
        };
        let batches = dispatched.len() as u64;
        let mean_batch_size = if batches > 0 { completed as f64 / batches as f64 } else { 0.0 };
        let report = ServeReport {
            completed,
            rejected,
            batches,
            mean_batch_size,
            p50_ms: ServeReport::quantile(&lats, 0.50) * 1e3,
            p95_ms: ServeReport::quantile(&lats, 0.95) * 1e3,
            p99_ms: ServeReport::quantile(&lats, 0.99) * 1e3,
            mean_ms: if lats.is_empty() {
                0.0
            } else {
                lats.iter().sum::<f64>() / lats.len() as f64 * 1e3
            },
            max_ms: lats.last().copied().unwrap_or(0.0) * 1e3,
            throughput_rps,
            simulated_seconds,
            hit_rate,
            cache,
            timeline,
            mean_score,
            requests,
        };
        telem.counter_add("serve.completed", report.completed);
        telem.gauge_set("serve.hit_rate", report.hit_rate);
        telem.emit(&JournalEvent::ServeEnd {
            completed: report.completed,
            rejected: report.rejected,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            throughput_rps: report.throughput_rps,
            hit_rate: report.hit_rate,
            simulated_seconds: report.simulated_seconds,
        });
        report
    }
}

/// Simulated cost of serving one micro-batch on a paper-server worker.
fn batch_cost(
    profile: &ModelProfile,
    sys: &SystemConfig,
    dim: usize,
    size: usize,
    gpu_rows: usize,
    cpu_rows: usize,
) -> Timeline {
    let row_bytes = (dim * std::mem::size_of::<f32>()) as f64;
    let mut t = Timeline::new();
    // Cached rows gather on the GPU.
    t.add(Phase::EmbedForward, sys.gpu.gather_rows_time(gpu_rows as f64, row_bytes));
    if cpu_rows > 0 {
        // Misses fetch from the CPU master copy and cross PCIe.
        t.add(Phase::EmbedForward, sys.cpu.gather_rows_time(cpu_rows as f64, row_bytes));
        t.add(Phase::Transfer, sys.pcie.transfer_time(cpu_rows as f64 * row_bytes));
    }
    t.add(
        Phase::DenseForward,
        sys.gpu.compute_time(profile.forward_flops(size), profile.ops_per_forward()),
    );
    t.add(Phase::Framework, SERVE_DISPATCH_S);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate_partitions;
    use fae_core::CalibratorConfig;
    use fae_data::{generate, GenOptions, WorkloadSpec};

    fn setup() -> (WorkloadSpec, Dataset, Vec<HotColdPartition>) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(1, 512));
        let parts = calibrate_partitions(
            &ds,
            CalibratorConfig {
                gpu_budget_bytes: spec.embedding_bytes() / 8,
                small_table_bytes: 8 << 10,
                ..CalibratorConfig::default()
            },
        );
        (spec, ds, parts)
    }

    fn engine(cfg: ServeConfig) -> (Dataset, ServeEngine) {
        let (spec, ds, parts) = setup();
        (ds, ServeEngine::untrained(spec, parts, cfg))
    }

    fn open_load(n: usize, gap_s: f64, ds_len: usize) -> ServeLoad {
        ServeLoad::Open(
            (0..n)
                .map(|i| InferRequest {
                    id: i as u64,
                    arrival_s: i as f64 * gap_s,
                    input: (i * 7) % ds_len,
                })
                .collect(),
        )
    }

    #[test]
    fn open_loop_completes_every_request() {
        let (ds, eng) = engine(ServeConfig { workers: 2, ..ServeConfig::default() });
        let n = ds.len();
        let report = eng.serve(&ds, &open_load(200, 1e-4, n));
        assert_eq!(report.completed, 200);
        assert_eq!(report.rejected, 0);
        assert!(report.batches > 0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
        assert!(report.simulated_seconds > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!((report.timeline.total() - report.batches as f64 * 0.0).abs() >= 0.0);
        assert_eq!(report.requests.len(), 200);
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = ServeConfig { workers: 3, ..ServeConfig::default() };
        let (ds, eng_a) = engine(cfg);
        let (_, eng_b) = engine(cfg);
        let n = ds.len();
        let a = eng_a.serve(&ds, &open_load(300, 5e-5, n));
        let b = eng_b.serve(&ds, &open_load(300, 5e-5, n));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.p50_ms, b.p50_ms);
        assert_eq!(a.p99_ms, b.p99_ms);
        assert_eq!(a.hit_rate, b.hit_rate);
        assert_eq!(a.simulated_seconds, b.simulated_seconds);
        assert_eq!(a.mean_score, b.mean_score);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn quantized_master_serves_with_smaller_footprint_and_close_scores() {
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let (ds, eng_f32) = engine(cfg);
        let (_, mut eng_q) = engine(cfg);
        let before = eng_q.master_bytes();
        eng_q.quantize_cold_tier();
        assert!(
            eng_q.master_bytes() < before,
            "int8 cold tier must shrink the master: {} -> {}",
            before,
            eng_q.master_bytes()
        );
        let n = ds.len();
        let a = eng_f32.serve(&ds, &open_load(200, 1e-4, n));
        let b = eng_q.serve(&ds, &open_load(200, 1e-4, n));
        // Timing and cache behaviour never read embedding values: the
        // simulated side of the report is bit-identical.
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.p99_ms, b.p99_ms);
        assert_eq!(a.hit_rate, b.hit_rate);
        // Scores move only by cold-row quantization error.
        assert!(
            (a.mean_score - b.mean_score).abs() < 0.05,
            "quantized scores drifted: {} vs {}",
            a.mean_score,
            b.mean_score
        );
    }

    #[test]
    fn bounded_queue_rejects_overload() {
        // Everything arrives at t=0 against a tiny queue: most must bounce.
        let (ds, eng) = engine(ServeConfig {
            workers: 1,
            queue_cap: 8,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let n = ds.len();
        let load = ServeLoad::Open(
            (0..100).map(|i| InferRequest { id: i as u64, arrival_s: 0.0, input: i % n }).collect(),
        );
        let report = eng.serve(&ds, &load);
        assert!(report.rejected > 0, "tiny queue under burst must reject");
        assert!(report.completed > 0);
        assert_eq!(report.completed + report.rejected, 100);
    }

    #[test]
    fn closed_loop_issues_full_budget() {
        let (ds, eng) = engine(ServeConfig { workers: 2, ..ServeConfig::default() });
        let report = eng.serve(&ds, &ServeLoad::Closed { clients: 4, per_client: 25 });
        assert_eq!(report.completed + report.rejected, 100);
        assert_eq!(report.rejected, 0, "default queue cap fits 4 clients");
        // Closed loop self-paces: latency stays near the service time.
        assert!(report.p99_ms < 1e3);
    }

    #[test]
    fn hot_requests_hit_the_pinned_tier() {
        let (ds, eng) = engine(ServeConfig::default());
        let n = ds.len();
        let report = eng.serve(&ds, &open_load(400, 1e-4, n));
        let total = report.cache.pinned_hits + report.cache.hits + report.cache.misses;
        assert!(total > 0);
        // tiny_test is Zipf-skewed with strong popularity correlation:
        // the calibrated pinned tier plus the dynamic tier must absorb
        // the paper's 75%+ of lookups.
        assert!(
            report.hit_rate >= 0.75,
            "hit rate {} below the paper's hot-access floor",
            report.hit_rate
        );
    }

    #[test]
    fn cost_model_charges_misses_to_cpu_and_pcie() {
        let (spec, _, _) = setup();
        let profile = profile_for(&spec, 0.0);
        let sys = SystemConfig::paper_server(1);
        let all_hot = batch_cost(&profile, &sys, spec.embedding_dim, 32, 128, 0);
        let half_cold = batch_cost(&profile, &sys, spec.embedding_dim, 32, 64, 64);
        assert_eq!(all_hot.get(Phase::Transfer), 0.0);
        assert!(half_cold.get(Phase::Transfer) > 0.0);
        assert!(half_cold.total() > all_hot.total(), "misses must cost more");
        assert!(all_hot.get(Phase::DenseForward) > 0.0);
        assert_eq!(all_hot.get(Phase::Framework), SERVE_DISPATCH_S);
    }
}
