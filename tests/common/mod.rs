//! Harness shared by `tests/distributed.rs` and `tests/observability.rs`:
//! the shrunken tiny workload and a run over real localhost TCP, with
//! worker threads executing the same `run_node` supervisor the
//! `fae node` binary runs.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    pipeline, trainer::train_fae_with_engine, CalibratorConfig, FaultPlan, ResilienceOptions,
    TrainConfig, TrainReport,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::net::{NetConfig, NodeConfig, RemoteEngine};
use fae::telemetry::Telemetry;

/// The tiny workload under a shrunken calibrator budget, so that it
/// actually splits into hot and cold batches.
pub fn setup(workers: usize) -> (WorkloadSpec, Preprocessed, Dataset, TrainConfig) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(131, 6_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        CalibratorConfig {
            gpu_budget_bytes: 40 << 10,
            small_table_bytes: 2 << 10,
            ..Default::default()
        },
        &PreprocessConfig { minibatch_size: 64, seed: 3 },
    );
    let cfg = TrainConfig {
        epochs: 1,
        minibatch_size: 64,
        initial_rate: 25,
        workers,
        ..Default::default()
    };
    (spec, artifacts.preprocessed, test, cfg)
}

/// Trains over real localhost TCP: `workers` node threads against a
/// [`RemoteEngine`] coordinator reporting to `telem`. `plan` is handed
/// to every node (each derives deterministically whether it is a crash
/// victim) and drives the coordinator's own fault bookkeeping — it must
/// be the same plan for the two sides to agree.
pub fn train_distributed(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    workers: usize,
    plan: &FaultPlan,
    telem: &Telemetry,
) -> TrainReport {
    train_dialing_late(spec, pre, test, cfg, workers, plan, telem, &[])
}

/// [`train_distributed`] with node `k` dialling `late_ms[k]` ms after
/// the others start (no delay past the slice's end).
#[expect(clippy::too_many_arguments, reason = "train_distributed's inputs plus the dial delays")]
#[expect(
    clippy::disallowed_methods,
    reason = "each node runs on its own thread, as a process would"
)]
pub fn train_dialing_late(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    workers: usize,
    plan: &FaultPlan,
    telem: &Telemetry,
    late_ms: &[u64],
) -> TrainReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handles: Vec<_> = (0..workers)
        .map(|k| {
            let node = NodeConfig {
                addr: addr.clone(),
                node_id: k as u32,
                workers: workers as u32,
                // A restarted node redials within a few steps' wall time:
                // these runs last tens of milliseconds, and the default
                // 50 ms backoff would let them end before the rejoin the
                // crash tests assert on.
                net: NetConfig { reconnect_base_ms: 2, ..NetConfig::default() },
                plan: plan.clone(),
            };
            let late = Duration::from_millis(late_ms.get(k).copied().unwrap_or(0));
            thread::spawn(move || {
                thread::sleep(late);
                fae::net::run_node(node)
            })
        })
        .collect();
    let seed = cfg.seed;
    let num_gpus = cfg.num_gpus;
    let coordinator_plan = plan.clone();
    let opts = ResilienceOptions { telemetry: telem.clone(), ..Default::default() };
    let report = train_fae_with_engine(spec, pre, test, cfg, &opts, move |model| {
        RemoteEngine::new(
            model,
            spec,
            seed,
            workers,
            num_gpus,
            listener,
            NetConfig::default(),
            coordinator_plan,
        )
        .expect("coordinator start")
    });
    for h in handles {
        h.join().expect("node thread").expect("node exit");
    }
    report
}
