//! Hostile inputs for the decoders. The three binary ones —
//! `Frame::decode`, `TrainCheckpoint::decode` and the FAE container
//! (`FaeFile::decode` and `FaeStreamReader`) — go through one seeded
//! mutator, shared with `tests/wire_malformed.rs`, that forces a 32-bit
//! field to a hostile value, overwrites a few bytes, then maybe truncates
//! or pads.
//!
//! A flipped bit in a frame or a checkpoint is caught by its CRC, so the
//! unsealed mutation must fail to decode; the harness then re-seals the
//! CRC, because the structural checks behind it — element counts, CSR
//! offsets, sparse `dim × rows`, ascending rows, trailing bytes — are
//! only ever reached by bytes whose checksum vouches for their damage.
//! The FAE file carries no checksum; every strict prefix of it must fail.
//! Every binary decoder is then held to the same bound: `Ok` or its typed
//! error, never a panic, and never more than `16 × len + 4096` bytes live.
//!
//! First, the hot/cold partitions a sidecar or a `Welcome` carries (JSON,
//! `{"rows", "cutoff", "hot_ids"}` per table): hot ids out of order,
//! repeated or past `rows`, a `rows` its table does not have, a table too
//! few, and the row-sized `remap` older sidecars hold. Each makes
//! `load_or_rebuild` rebuild and a worker's bootstrap answer
//! `NetError::Protocol`; none panics.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! neighbouring test thread would show up in its peak.

#![expect(clippy::expect_used, clippy::panic, reason = "a test helper fails its test by panicking")]

#[path = "common/hostile.rs"]
mod hostile;

use std::fs;
use std::net::TcpListener;
use std::sync::OnceLock;
use std::thread;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fae::core::artifacts;
use fae::core::faults::{
    FaultInjector, FaultKind, FaultPlan, InjectedFault, RecoveryAction, RetryPolicy,
};
use fae::core::pipeline::prepare;
use fae::core::trainer::EvalPoint;
use fae::core::{
    AnyModel, CalibratorConfig, CheckpointError, PreprocessConfig, SchedulerState, TableSnapshot,
    TrainCheckpoint,
};
use fae::data::format::{FaeFile, FaeStreamReader, FormatError};
use fae::data::{generate, BatchKind, GenOptions, MiniBatch, WorkloadSpec};
use fae::models::RecModel;
use fae::net::deadline::{recv_frame, send_frame};
use fae::net::{run_worker, Frame, Message, NetConfig, NetError, NodeConfig, NodeJournal};
use fae::sysmodel::{Phase, Timeline};

use hostile::{body_and_crc, frames, heap_use, mutate, reseal, HOSTILE};

/// A checkpoint with every variable-length section non-empty and every
/// recovery record kind.
fn checkpoint() -> Vec<u8> {
    let mut timeline = Timeline::new();
    timeline.add(Phase::EmbedSync, 1.25);
    timeline.add_cpu_resident(0.5);
    TrainCheckpoint {
        config_seed: 7,
        epoch: 1,
        hot_cursor: 3,
        cold_cursor: 9,
        steps: 12,
        hot_steps: 3,
        cold_steps: 9,
        transitions: 2,
        gpus_active: 2,
        cold_only: false,
        scheduler: SchedulerState {
            rate: 50,
            prev_loss: Some(0.6),
            improving_streak: 1,
            u: 4,
            history: vec![(0.6, 50), (0.5, 25)],
        },
        timeline,
        history: vec![EvalPoint {
            iteration: 10,
            test_loss: 0.5,
            test_accuracy: 0.7,
            rate: None,
            hot_steps: 3,
            cold_steps: 7,
            sim_seconds: 1.5,
        }],
        faults: vec![InjectedFault { kind: FaultKind::DeviceLoss, at: 4, step: 5 }],
        recoveries: vec![
            RecoveryAction::ShrankReplicas { step: 5, from: 2, to: 1 },
            RecoveryAction::ColdFallback { step: 6 },
            RecoveryAction::SyncRetried { step: 7, attempts: 2, waited_s: 0.1 },
            RecoveryAction::RetriedIo { attempts: 2, waited_s: 0.2 },
            RecoveryAction::RebuiltArtifacts,
            RecoveryAction::ResumedFromCheckpoint { step: 8 },
            RecoveryAction::ReshardedToSurvivors { step: 9, node: 1, live: 1 },
            RecoveryAction::NodeRejoined { step: 10, node: 1, state_bytes: 64 },
        ],
        dense_params: vec![0.5, -0.25, 1.5],
        tables: vec![
            TableSnapshot { rows: 2, dim: 2, weights: vec![1.0, 2.0, 3.0, 4.0] },
            TableSnapshot { rows: 0, dim: 2, weights: Vec::new() },
        ],
    }
    .encode()
}

/// A container of a cold, a hot and an empty unclassified batch over the
/// tiny workload's four tables.
fn fae_file() -> Vec<u8> {
    let ds = generate(&WorkloadSpec::tiny_test(), &GenOptions::sized(5, 32));
    let batch = |ids: &[usize], kind| MiniBatch::gather(&ds, ids, kind);
    let batches = vec![
        batch(&[0, 1, 2, 3, 4, 5, 6, 7], BatchKind::Cold),
        batch(&[8, 9, 10], BatchKind::Hot),
        batch(&[], BatchKind::Unclassified),
    ];
    FaeFile::new("tiny-test", batches).encode()
}

struct Samples {
    frames: Vec<Vec<u8>>,
    checkpoint: Vec<u8>,
    fae: Vec<u8>,
}

/// Built once, before any case is measured.
fn samples() -> &'static Samples {
    static SAMPLES: OnceLock<Samples> = OnceLock::new();
    SAMPLES.get_or_init(|| Samples { frames: frames(), checkpoint: checkpoint(), fae: fae_file() })
}

const FRAME: usize = 0;
const CHECKPOINT: usize = 1;

/// Partition lists no decoder may accept for `spec`, each with whether it
/// parses on its own (is consistent within itself).
fn bad_partitions(spec: &WorkloadSpec) -> Vec<(String, bool)> {
    let part =
        |rows: usize, hot: &str| format!(r#"{{"rows":{rows},"cutoff":1,"hot_ids":[{hot}]}}"#);
    let good: Vec<String> = spec.tables.iter().map(|t| part(t.rows, "0,1")).collect();
    let rows = spec.tables[0].rows;
    let first_is = |first: String| {
        let mut parts = good.clone();
        parts[0] = first;
        format!("[{}]", parts.join(","))
    };
    vec![
        (first_is(part(rows, "1,0")), false),
        (first_is(part(rows, "1,1")), false),
        (first_is(part(rows, &format!("0,{rows}"))), false),
        (first_is(r#"{"remap":[0,1],"hot_ids":[0,1],"cutoff":1}"#.into()), false),
        (first_is(part(rows + 1, "0,1")), true),
        (format!("[{}]", good[1..].join(",")), true),
    ]
}

/// Writes each bad list into a saved sidecar: `artifacts::load` errs on
/// those that do not parse, and `load_or_rebuild`, which knows the tables,
/// rebuilds over every one.
fn sidecars_with_bad_partitions_are_rebuilt(spec: &WorkloadSpec) {
    let ds = generate(spec, &GenOptions::sized(3, 2_000));
    let pre_cfg = PreprocessConfig { minibatch_size: 64, seed: 1 };
    let art = prepare(&ds, CalibratorConfig::default(), &pre_cfg);
    let dir = std::env::temp_dir().join(format!("fae-hostile-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let (path, sidecar) = (dir.join("s.fae"), dir.join("s.fae.meta.json"));
    for (partitions, parses) in bad_partitions(spec) {
        artifacts::save(&art, &spec.name, &path).expect("save");
        let text = fs::read_to_string(&sidecar).expect("sidecar");
        let mut doc: serde_json::Value = serde_json::from_str(&text).expect("sidecar parses");
        if let serde_json::Value::Object(m) = &mut doc {
            m.insert("partitions".into(), serde_json::from_str(&partitions).expect("json"));
        }
        fs::write(&sidecar, serde_json::to_string(&doc).expect("json")).expect("write");
        assert_eq!(artifacts::load(&path).is_ok(), parses, "load: {partitions}");
        let retry = RetryPolicy::default();
        let (_, _, recoveries) =
            artifacts::load_or_rebuild(&path, spec, &mut FaultInjector::none(), &retry, || {
                art.clone()
            })
            .expect("rebuilt");
        assert_eq!(recoveries, [RecoveryAction::RebuiltArtifacts], "{partitions}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Sends each bad list to a worker in an otherwise valid, CRC-sealed
/// `Welcome`: its bootstrap answers `NetError::Protocol`.
#[expect(clippy::disallowed_methods, reason = "the worker runs on its own thread, as a node would")]
fn welcomes_with_bad_partitions_are_protocol_errors(spec: &WorkloadSpec) {
    let seed = 9;
    let mut dense = Vec::new();
    AnyModel::from_spec(spec, &mut StdRng::seed_from_u64(seed)).write_params(&mut dense);
    let spec_json = spec.to_json().expect("spec json");
    for (partitions_json, _) in bad_partitions(spec) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let node = NodeConfig {
            addr: listener.local_addr().expect("addr").to_string(),
            node_id: 0,
            workers: 1,
            net: NetConfig::default(),
            plan: FaultPlan::none(),
        };
        let worker = thread::spawn(move || {
            run_worker(&node, &mut FaultInjector::none(), &mut false, &mut NodeJournal::new(0))
        });
        let (mut link, _) = listener.accept().expect("accept");
        recv_frame(&mut link, 5_000).expect("hello");
        let msg = Message::Welcome {
            workers: 1,
            seed,
            spec_json: spec_json.clone(),
            partitions_json: partitions_json.clone(),
            dense: dense.clone(),
            hot: Vec::new(),
        };
        let welcome = Frame { node: 0, epoch: 1, seq: 0, step: 0, msg };
        send_frame(&mut link, &welcome, 5_000).expect("welcome");
        // A worker that took the frame would wait for the next one;
        // closing the link ends it either way.
        drop(link);
        match worker.join().expect("the worker does not panic") {
            Err(NetError::Protocol(_)) => {}
            other => panic!("{partitions_json}: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn every_decoder_returns_ok_or_its_typed_error_within_a_memory_bound() {
    let spec = WorkloadSpec::tiny_test();
    sidecars_with_bad_partitions_are_rebuilt(&spec);
    welcomes_with_bad_partitions_are_protocol_errors(&spec);
    binary_decoders_under_mutation();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_288))]
    fn binary_decoders_under_mutation(
        decoder in 0usize..3,
        frame in 0usize..10,
        word_at in 0usize..4096,
        word in 0usize..HOSTILE.len(),
        bytes_at in prop::collection::vec((0usize..4096, 0u8..=255), 0..4),
        cut in (0usize..2, 0usize..4096),
        grow in 0usize..3,
    ) {
        let s = samples();
        let pristine = match decoder {
            FRAME => &s.frames[frame],
            CHECKPOINT => &s.checkpoint,
            _ => &s.fae,
        };
        let trailer = if decoder == FRAME || decoder == CHECKPOINT { 4 } else { 0 };
        let mut bytes = pristine.clone();
        let (truncate, keep) = cut;
        let body_keep = if truncate == 1 { keep % (bytes.len() - trailer + 1) } else { usize::MAX };
        mutate(&mut bytes, trailer, (word_at, word), &bytes_at, body_keep, grow);

        // The checksum catches any change; a strict prefix of an FAE file
        // is an error.
        let changed = bytes != *pristine;
        match decoder {
            FRAME => prop_assert!(!changed || Frame::decode(&bytes).is_err()),
            CHECKPOINT => prop_assert!(!changed || TrainCheckpoint::decode(&bytes).is_err()),
            _ => prop_assert!(FaeFile::decode(&pristine[..keep % pristine.len()]).is_err()),
        }

        if trailer > 0 {
            reseal(&mut bytes);
        }
        let bound = 16 * bytes.len() + 4096;
        let peak = match decoder {
            FRAME => {
                let (decoded, peak, _) = heap_use(|| Frame::decode(&bytes));
                match decoded {
                    // A survivor must be a frame the encoder itself could
                    // have written: it re-encodes to the bytes it came from.
                    Ok(frame) => prop_assert_eq!(body_and_crc(&frame), bytes.clone()),
                    Err(NetError::Corrupt(_)) => {}
                    Err(other) => panic!("frame: expected Ok or Corrupt, got {other:?}"),
                }
                peak
            }
            CHECKPOINT => {
                let (decoded, peak, _) = heap_use(|| TrainCheckpoint::decode(&bytes));
                if let Err(e @ CheckpointError::Io(_)) = decoded {
                    panic!("checkpoint: expected Ok or a decode error, got {e:?}");
                }
                peak
            }
            _ => {
                let (decoded, peak, _) = heap_use(|| FaeFile::decode(&bytes));
                let (streamed, stream_peak, _) = heap_use(|| {
                    FaeStreamReader::open(&bytes).and_then(|r| r.collect::<Result<Vec<_>, _>>())
                });
                match decoded {
                    // A survivor re-encodes to its own bytes, and the
                    // stream yields the very same batches.
                    Ok(file) => {
                        prop_assert_eq!(file.encode(), bytes.clone());
                        let batches = streamed.expect("bulk decode succeeded, so streaming must");
                        prop_assert_eq!(FaeFile { batches, ..file }.encode(), bytes.clone());
                    }
                    Err(e @ FormatError::Io(_)) => panic!("fae: expected Ok or a decode error, got {e:?}"),
                    Err(_) => {}
                }
                peak.max(stream_peak)
            }
        };
        prop_assert!(peak <= bound, "decoder {decoder}: {} bytes held {peak} bytes live", bytes.len());
    }
}
