//! Integration tests for multi-node training over the fae-net wire
//! protocol: the acceptance contract is that moving shard computation
//! onto worker processes changes *where* the arithmetic runs and
//! nothing else — same eval stream, same final model digest as the
//! in-process [`ParallelEngine`] with the same worker count — and that
//! a worker crash mid-run recovers (reshard + rejoin) to the same
//! digest.
//!
//! Workers here run as threads executing the same [`run_node`]
//! supervisor the `fae node` binary runs; the transport is real localhost
//! TCP either way.

use std::net::TcpListener;
use std::thread;

use fae::core::input_processor::{PreprocessConfig, Preprocessed};
use fae::core::{
    pipeline, train_fae_resilient, trainer::train_fae_with_engine, CalibratorConfig, FaultPlan,
    RecoveryAction, ResilienceOptions, TrainConfig, TrainReport,
};
use fae::data::{generate, Dataset, GenOptions, WorkloadSpec};
use fae::net::{NetConfig, NodeConfig, RemoteEngine};

/// Shrunken calibrator budget so the tiny workload has both hot and
/// cold batches (same trick as the parallel/end-to-end suites).
fn forced_partial_calibrator() -> CalibratorConfig {
    CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    }
}

fn setup(workers: usize) -> (WorkloadSpec, Preprocessed, Dataset, TrainConfig) {
    let spec = WorkloadSpec::tiny_test();
    let ds = generate(&spec, &GenOptions::sized(131, 6_000));
    let (train, test) = ds.split(0.2);
    let artifacts = pipeline::prepare(
        &train,
        forced_partial_calibrator(),
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
/// [`RemoteEngine`] coordinator. `worker_plan` is handed to every node
/// (each derives deterministically whether it is a crash victim);
/// `coordinator_plan` drives the coordinator's own fault bookkeeping
/// and must be the same plan for the two sides to agree.
fn train_distributed(
    spec: &WorkloadSpec,
    pre: &Preprocessed,
    test: &Dataset,
    cfg: &TrainConfig,
    workers: usize,
    plan: &FaultPlan,
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
            thread::spawn(move || fae::net::run_node(node))
        })
        .collect();
    let seed = cfg.seed;
    let num_gpus = cfg.num_gpus;
    let coordinator_plan = plan.clone();
    let report =
        train_fae_with_engine(spec, pre, test, cfg, &ResilienceOptions::default(), move |model| {
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

#[test]
fn two_remote_workers_match_the_in_process_engine_bit_for_bit() {
    // 4 nodes as well as 2: the shard split and the reduce order differ,
    // the contract does not.
    for workers in [2, 4] {
        let (spec, pre, test, cfg) = setup(workers);
        let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
        let remote = train_distributed(&spec, &pre, &test, &cfg, workers, &FaultPlan::default());

        assert_eq!(
            local.model_digest, remote.model_digest,
            "{workers} nodes: distributed training must be bit-identical to the in-process engine"
        );
        assert_eq!(local.history.len(), remote.history.len());
        for (a, b) in local.history.iter().zip(&remote.history) {
            assert_eq!(a.test_loss.to_bits(), b.test_loss.to_bits(), "eval loss bits diverged");
        }
        assert_eq!(local.hot_steps, remote.hot_steps);
        assert_eq!(local.cold_steps, remote.cold_steps);
    }
}

#[test]
fn a_crashed_worker_is_reshard_around_and_rejoins_to_the_same_digest() {
    let (spec, pre, test, cfg) = setup(2);
    let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());

    let plan = FaultPlan::parse_seeded("worker-crash@6", 41).expect("plan");
    let remote = train_distributed(&spec, &pre, &test, &cfg, 2, &plan);

    assert!(
        remote.recoveries.iter().any(|r| matches!(r, RecoveryAction::ReshardedToSurvivors { .. })),
        "the coordinator must reshard around the crashed worker, got {:?}",
        remote.recoveries
    );
    assert!(
        remote.recoveries.iter().any(|r| matches!(r, RecoveryAction::NodeRejoined { .. })),
        "the crashed worker must rejoin, got {:?}",
        remote.recoveries
    );
    assert_eq!(
        local.model_digest, remote.model_digest,
        "crash + reshard + rejoin must not change a single bit of the model"
    );
    assert!(!remote.faults.is_empty(), "the injected crash must be reported");
}

#[test]
fn a_partition_near_the_end_reshards_and_every_node_exits_cleanly() {
    // A net-partition severs the victim's socket late enough in the run
    // that the coordinator often finishes before the victim can rejoin.
    // The victim must then observe the closed listener and exit cleanly
    // (run over, not an error) — and the digest must still match the
    // in-process engine, rejoin or no rejoin. `train_distributed`
    // asserts the clean exit via each node thread's `Result`.
    let (spec, pre, test, cfg) = setup(2);
    let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());

    let plan = FaultPlan::parse_seeded("net-partition@20", 7).expect("plan");
    let remote = train_distributed(&spec, &pre, &test, &cfg, 2, &plan);

    assert!(
        remote.recoveries.iter().any(|r| matches!(r, RecoveryAction::ReshardedToSurvivors { .. })),
        "the coordinator must reshard around the partitioned worker, got {:?}",
        remote.recoveries
    );
    assert_eq!(
        local.model_digest, remote.model_digest,
        "partition + reshard must not change a single bit of the model"
    );
    assert!(!remote.faults.is_empty(), "the injected partition must be reported");
}

#[test]
fn a_single_remote_worker_matches_the_serial_fast_path() {
    let (spec, pre, test, cfg) = setup(1);
    let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
    let remote = train_distributed(&spec, &pre, &test, &cfg, 1, &FaultPlan::default());
    assert_eq!(local.model_digest, remote.model_digest);
}
