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
#[path = "common/fnv.rs"]
mod fnv;

use common::{setup, train_dialing_late, train_distributed};
use fae::core::{train_fae_resilient, FaultPlan, RecoveryAction, ResilienceOptions, TrainConfig};
use fae::telemetry::{JournalEvent, StepMode, Telemetry};
use fnv::fnv1a;

/// `cfg` plain, then with the int8 cold tier, the lookahead oracle,
/// stale-skip, and all three: every mode lives on the coordinator, so a
/// distributed run of each must match its in-process twin.
fn with_modes(cfg: TrainConfig) -> [(&'static str, TrainConfig); 5] {
    let all = TrainConfig { quantize_cold: true, lookahead: 4, stale_skip: 1e-4, ..cfg.clone() };
    [
        ("int8", TrainConfig { lookahead: 0, stale_skip: 0.0, ..all.clone() }),
        ("lookahead 4", TrainConfig { quantize_cold: false, stale_skip: 0.0, ..all.clone() }),
        ("stale-skip 1e-4", TrainConfig { quantize_cold: false, lookahead: 0, ..all.clone() }),
        ("all three", all),
        ("plain", cfg),
    ]
}

#[test]
fn two_remote_workers_match_the_in_process_engine_bit_for_bit() {
    // 4 nodes as well as 2: the shard split and the reduce order differ,
    // the contract does not.
    let (clean, off) = (FaultPlan::default(), Telemetry::disabled());
    for workers in [2, 4] {
        let (spec, pre, test, cfg) = setup(workers);
        for (mode, cfg) in with_modes(cfg) {
            let local =
                train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
            let remote = train_distributed(&spec, &pre, &test, &cfg, workers, &clean, &off);

            assert_eq!(
                local.model_digest, remote.model_digest,
                "{workers} nodes, {mode}: distributed training must be bit-identical to the in-process engine"
            );
            assert_eq!(local.history.len(), remote.history.len());
            for (a, b) in local.history.iter().zip(&remote.history) {
                assert_eq!(a.test_loss.to_bits(), b.test_loss.to_bits(), "eval loss bits diverged");
            }
            assert_eq!(local.hot_steps, remote.hot_steps);
            assert_eq!(local.cold_steps, remote.cold_steps);
        }
    }
}

#[test]
fn nodes_are_admitted_in_node_id_order_whatever_order_they_dial_in() {
    // Node 1 dials about 50 ms before node 0. Every admission bumps the
    // membership epoch, so admitting in accept order would hand node 1
    // the first epoch and make the journal depend on a thread race.
    let (spec, pre, test, cfg) = setup(2);
    let telem = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
    train_dialing_late(&spec, &pre, &test, &cfg, 2, &FaultPlan::default(), &telem, &[50]);
    let joins: Vec<(u64, u64)> = telem
        .events()
        .iter()
        .filter_map(|t| match t.event {
            JournalEvent::NodeJoin { node, epoch, .. } => Some((node, epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(joins, vec![(0, 1), (1, 2)], "node-join:0 must carry epoch 1");
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
    let (clean, off) = (FaultPlan::default(), Telemetry::disabled());
    for (mode, cfg) in with_modes(cfg) {
        let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
        let remote = train_distributed(&spec, &pre, &test, &cfg, 1, &clean, &off);
        assert_eq!(local.model_digest, remote.model_digest, "{mode}");
    }
}

/// FNV-1a over the coordinator journal's charges (each event's step and
/// phase-second bits, in emission order) and the run's simulated seconds.
fn charges_hash(telem: &Telemetry, simulated_seconds: f64) -> u64 {
    let mut bytes = Vec::new();
    for tagged in telem.events() {
        if let Some(phases) = tagged.event.phases() {
            bytes.extend(tagged.event.step().to_le_bytes());
            phases.0.iter().for_each(|s| bytes.extend(s.to_bits().to_le_bytes()));
        }
    }
    bytes.extend(simulated_seconds.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

/// The engine step of the first `mode` step after another `mode` step
/// that no heartbeat or telemetry poll shares (neither runs off a
/// multiple of 4), so an armed `net-drop` or `net-duplicate` lands on
/// that step's own traffic: the `Task` of a hot step, the `Apply` of a
/// cold one.
#[expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]
fn quiet_step(telem: &Telemetry, mode: StepMode) -> u64 {
    let modes: Vec<(u64, StepMode)> = telem
        .events()
        .iter()
        .filter_map(|t| match t.event {
            // A Step event carries the engine step + 1.
            JournalEvent::Step { step, mode, .. } => Some((step - 1, mode)),
            _ => None,
        })
        .collect();
    modes
        .windows(2)
        .find(|w| w[0].1 == mode && w[1].1 == mode && w[1].0 % 4 != 0)
        .map(|w| w[1].0)
        .expect("the run has two such steps in a row")
}

#[test]
fn dropped_and_duplicated_frames_keep_the_digest_and_the_charged_phases() {
    // (workers, hot step, cold step, then the charges hash of the clean
    // run and of a drop and a duplicate at the hot and the cold step).
    const PINNED: [(usize, u64, u64, [u64; 5]); 2] = [
        (
            1,
            6,
            1,
            [
                0xc4633f0a512d4cfb,
                0x4be812bdf1b33466,
                0xfebd835ba5b8566c,
                0xa8e4d31cb91dbe5e,
                0xc4633f0a512d4cfb,
            ],
        ),
        (
            2,
            6,
            1,
            [
                0xc9682026d23e150e,
                0x53ae65d9df8a6305,
                0xfcd8fcf7d31226eb,
                0xdb6ba24b712bb96d,
                0xc9682026d23e150e,
            ],
        ),
    ];
    for (workers, hot_at, cold_at, pinned) in PINNED {
        let (spec, pre, test, cfg) = setup(workers);
        let local = train_fae_resilient(&spec, &pre, &test, &cfg, &ResilienceOptions::default());
        let plans = [
            String::new(),
            format!("net-drop@{hot_at}"),
            format!("net-duplicate@{hot_at}"),
            format!("net-drop@{cold_at}"),
            format!("net-duplicate@{cold_at}"),
        ];
        let mut got = [0u64; 5];
        for (i, text) in plans.iter().enumerate() {
            let plan = if text.is_empty() {
                FaultPlan::default()
            } else {
                FaultPlan::parse_seeded(text, 5).expect("plan")
            };
            let telem = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
            let remote = train_distributed(&spec, &pre, &test, &cfg, workers, &plan, &telem);
            assert_eq!(local.model_digest, remote.model_digest, "{workers} nodes, plan '{text}'");
            assert_eq!(remote.faults.len(), usize::from(!text.is_empty()), "plan '{text}' fired");
            if text.is_empty() {
                let at = (quiet_step(&telem, StepMode::Hot), quiet_step(&telem, StepMode::Cold));
                assert_eq!(at, (hot_at, cold_at), "{workers} nodes: the quiet hot and cold steps");
            }
            got[i] = charges_hash(&telem, remote.simulated_seconds);
        }
        // A change meant to move the charges prints the row to paste in.
        eprintln!("({workers}, {hot_at}, {cold_at}, {got:#x?}),");
        assert_eq!(got, pinned, "{workers} nodes: charges under {plans:?}");
    }
}
