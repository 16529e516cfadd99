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

mod common;

use common::{setup, train_distributed};
use fae::core::{train_fae_resilient, FaultPlan, RecoveryAction, ResilienceOptions};
use fae::telemetry::Telemetry;

#[test]
fn two_remote_workers_match_the_in_process_engine_bit_for_bit() {
    // 4 nodes as well as 2: the shard split and the reduce order differ,
    // the contract does not.
    let (clean, off) = (FaultPlan::default(), Telemetry::disabled());
    for workers in [2, 4] {
        let (spec, pre, test, cfg) = setup(workers);
        let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
        let remote = train_distributed(&spec, &pre, &test, &cfg, workers, &clean, &off);

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
    let remote = train_distributed(&spec, &pre, &test, &cfg, 2, &plan, &Telemetry::disabled());

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
    let remote = train_distributed(&spec, &pre, &test, &cfg, 2, &plan, &Telemetry::disabled());

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
    let (clean, off) = (FaultPlan::default(), Telemetry::disabled());
    let remote = train_distributed(&spec, &pre, &test, &cfg, 1, &clean, &off);
    assert_eq!(local.model_digest, remote.model_digest);
}
