//! Hostile inputs for the decoders. The three binary ones —
//! `Frame::decode`, `TrainCheckpoint::decode` and the FAE container
//! (`FaeFile::decode` and `FaeStreamReader`, over the bytes in memory and
//! through a `Window` onto a reader that hands out 1 to 7 bytes per
//! `read`) — go through one seeded mutator, shared with
//! `tests/wire_malformed.rs`, that forces a 32-bit field to a hostile
//! value, overwrites a few bytes, then maybe truncates or pads.
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
//! `NetError::Protocol`; none panics. Then the node frames that pass
//! their CRC but do not fit the replica: a `Task` is declined with an
//! `Ack`, a `Welcome` or an `Apply` is a `NetError::Protocol`, and the
//! node thread never panics.
//!
//! Last, a well-formed Taobao-shaped stream read through a `Window`: its
//! buffer never holds more than one window plus the largest batch.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! neighbouring test thread would show up in its peak.

#![expect(clippy::expect_used, clippy::panic, reason = "a test helper fails its test by panicking")]

#[path = "common/hostile.rs"]
mod hostile;

use std::fs;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::thread::{self, JoinHandle};

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
use fae::data::format::{FaeFile, FaeStreamReader, FormatError, Window, WINDOW};
use fae::data::{generate, BatchKind, GenOptions, MiniBatch, WorkloadSpec};
use fae::embed::SparseGrad;
use fae::models::RecModel;
use fae::net::deadline::{recv_frame, send_frame};
use fae::net::{
    run_worker, Frame, Message, NetConfig, NetError, NodeConfig, NodeJournal, WorkerExit,
};
use fae::sysmodel::{Phase, Timeline};
use fae::telemetry::StepMode;

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

/// One table's partition as JSON, `hot` its listed hot ids.
fn part(rows: usize, hot: &str) -> String {
    format!(r#"{{"rows":{rows},"cutoff":1,"hot_ids":[{hot}]}}"#)
}

/// Partition lists no decoder may accept for `spec`, each with whether it
/// parses on its own (is consistent within itself).
fn bad_partitions(spec: &WorkloadSpec) -> Vec<(String, bool)> {
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

/// The seed every node bootstrap below replays.
const SEED: u64 = 9;

/// Dense parameters of the model `SEED` builds for `spec`.
fn seed_params(spec: &WorkloadSpec) -> Vec<f32> {
    let mut dense = Vec::new();
    AnyModel::from_spec(spec, &mut StdRng::seed_from_u64(SEED)).write_params(&mut dense);
    dense
}

/// Starts a node on its own thread and sends it a CRC-sealed `Welcome`
/// (epoch 1, seq 0) carrying `partitions_json` and `dense`. Returns the
/// coordinator's end of the link and the node's thread.
#[expect(clippy::disallowed_methods, reason = "the worker runs on its own thread, as a node would")]
fn welcome(
    spec: &WorkloadSpec,
    partitions_json: &str,
    dense: Vec<f32>,
) -> (TcpStream, JoinHandle<Result<WorkerExit, NetError>>) {
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
        seed: SEED,
        spec_json: spec.to_json().expect("spec json"),
        partitions_json: partitions_json.into(),
        dense,
        hot: Vec::new(),
    };
    send_frame(&mut link, &Frame { node: 0, epoch: 1, seq: 0, step: 0, msg }, 5_000)
        .expect("welcome");
    (link, worker)
}

/// Sends `msg` as request `seq` of epoch 1 and returns the node's reply.
fn ask(link: &mut TcpStream, seq: u64, msg: Message) -> Message {
    send_frame(link, &Frame { node: 0, epoch: 1, seq, step: seq, msg }, 5_000).expect("request");
    recv_frame(link, 5_000).expect("the node replies").msg
}

/// Ends a session the node should end itself with a protocol error.
fn expect_protocol_error(
    link: TcpStream,
    worker: JoinHandle<Result<WorkerExit, NetError>>,
    case: &str,
) {
    match worker.join().expect("the worker does not panic") {
        Err(NetError::Protocol(_)) => {}
        other => panic!("{case}: expected a protocol error, got {other:?}"),
    }
    drop(link);
}

/// Sends each bad list to a worker in an otherwise valid, CRC-sealed
/// `Welcome`: its bootstrap answers `NetError::Protocol`.
fn welcomes_with_bad_partitions_are_protocol_errors(spec: &WorkloadSpec) {
    for (partitions_json, _) in bad_partitions(spec) {
        let (link, worker) = welcome(spec, &partitions_json, seed_params(spec));
        expect_protocol_error(link, worker, &partitions_json);
    }
}

/// Frames that pass their CRC but do not fit the node's replica, each in a
/// session of its own. After a good `Welcome` and `HotBagSync` (rows 0 and
/// 1 of every table hot), a `Task` naming a cold row, a row past its
/// table, a table too few, a dense feature too many or more samples than
/// its total is declined with an `Ack`, and the next good `Task` still
/// gets `Grads`. A `Welcome` with a short dense vector, and an `Apply`
/// whose dense vector or sparse gradients do not fit, end the session
/// with `NetError::Protocol`.
fn node_frames_that_do_not_fit_are_declined_or_protocol_errors(spec: &WorkloadSpec) {
    let hot = spec.tables.iter().map(|t| part(t.rows, "0,1")).collect::<Vec<_>>().join(",");
    let hot = format!("[{hot}]");
    let dense = seed_params(spec);
    let ds = generate(spec, &GenOptions::sized(3, 64));
    let mut good = MiniBatch::gather(&ds, &[0, 1, 2, 3], BatchKind::Hot);
    for g in good.sparse.iter_mut().flat_map(|csr| &mut csr.indices) {
        *g %= 2;
    }
    let with = |edit: &dyn Fn(&mut MiniBatch)| {
        let mut b = good.clone();
        edit(&mut b);
        b
    };
    let past = spec.tables[3].rows as u32;
    let wider = |b: &mut MiniBatch| {
        b.dense_width += 1;
        b.dense.resize(b.len() * b.dense_width, 0.5);
    };
    let bad_tasks = [
        ("a cold row", 4, with(&|b| b.sparse[0].indices[0] = 2)),
        ("a row past its table", 4, with(&|b| b.sparse[3].indices[1] = past)),
        ("a table too few", 4, with(&|b| drop(b.sparse.pop()))),
        ("a dense feature too many", 4, with(&wider)),
        ("more samples than its total", 3, good.clone()),
    ];
    let task = |total, shard| Message::Task { total, mode: StepMode::Hot, shard };
    for (case, total, shard) in bad_tasks {
        let (mut link, worker) = welcome(spec, &hot, dense.clone());
        let sync = Message::HotBagSync { partitions_json: hot.clone(), hot: Vec::new() };
        assert!(matches!(ask(&mut link, 1, sync), Message::Ack), "{case}: sync");
        assert!(matches!(ask(&mut link, 2, task(total, shard)), Message::Ack), "{case}");
        let next = ask(&mut link, 3, task(4, good.clone()));
        assert!(matches!(next, Message::Grads { samples: 4, .. }), "{case}: then {next:?}");
        drop(link);
        let _ = worker.join().expect("the worker does not panic");
    }

    let (link, worker) = welcome(spec, &hot, dense[1..].to_vec());
    expect_protocol_error(link, worker, "a welcome with a short dense vector");
    let (tables, dim) = (spec.tables.len(), spec.embedding_dim);
    let grads = |tables: usize, dim: usize, row: u32| -> Vec<SparseGrad> {
        let one = || SparseGrad::from_ascending_rows(dim, &[row], vec![0.5; dim]).expect("a row");
        (0..tables).map(|_| one()).collect()
    };
    let apply =
        |dense: Vec<f32>, sparse| Message::Apply { mode: StepMode::Hot, lr: 0.1, dense, sparse };
    let zeros = vec![0.0; dense.len()];
    let bad_applies = [
        ("an apply with a short dense vector", apply(zeros[1..].to_vec(), grads(tables, dim, 0))),
        ("an apply a table short", apply(zeros.clone(), grads(tables - 1, dim, 0))),
        ("an apply with a narrow gradient", apply(zeros.clone(), grads(tables, dim - 1, 0))),
        ("an apply to a row past its table", apply(zeros.clone(), grads(tables, dim, past))),
    ];
    for (case, msg) in bad_applies {
        let (mut link, worker) = welcome(spec, &hot, dense.clone());
        send_frame(&mut link, &Frame { node: 0, epoch: 1, seq: 1, step: 1, msg }, 5_000)
            .expect("apply");
        expect_protocol_error(link, worker, case);
    }
}

/// A reader that hands out 1 to 7 bytes per `read`, the count cycling
/// from `phase`.
struct Trickle<'a> {
    bytes: &'a [u8],
    phase: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.phase += 1;
        let n = (1 + self.phase % 7).min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Every batch of `bytes`, read through a `Window` onto a `Trickle`.
fn windowed(bytes: &[u8], phase: usize) -> Result<Vec<MiniBatch>, FormatError> {
    let window = Window::new(Trickle { bytes, phase }, bytes.len() as u64);
    FaeStreamReader::open(window).and_then(|r| r.collect())
}

/// Taobao-shaped streams in 256- and 2,048-sample batches (at most 34 KB
/// and 264 KB: below one window, and just above it), read through a
/// `Window`: the
/// batches re-encode to the stream, and after each one the window holds
/// at most one `WINDOW` plus the largest batch's bytes.
fn a_windowed_taobao_stream_holds_a_window_and_a_batch() {
    let spec = WorkloadSpec::rmc1_taobao();
    let ds = generate(&spec, &GenOptions::sized(11, 6_000));
    for batch in [256, 2_048] {
        let art = prepare(
            &ds,
            CalibratorConfig::default(),
            &PreprocessConfig { minibatch_size: batch, seed: 11 },
        );
        let file = art.preprocessed.to_fae_file(&spec.name);
        let bytes = file.encode();
        let header = FaeFile::<MiniBatch>::new(spec.name.as_str(), Vec::new()).encode().len();
        let largest = (file.batches.iter())
            .map(|b| FaeFile::new(spec.name.as_str(), vec![*b]).encode().len() - header)
            .max()
            .expect("a batch");
        let mut reader = FaeStreamReader::open(Window::new(&bytes[..], bytes.len() as u64))
            .expect("the header opens");
        let mut got = Vec::new();
        while let Some(b) = reader.next_batch().expect("a whole batch") {
            got.push(b);
            let held = reader.source().capacity();
            assert!(
                held <= WINDOW + largest,
                "batch {batch}: {held} bytes held, largest batch {largest}"
            );
        }
        assert_eq!(FaeFile::new(spec.name.as_str(), got).encode(), bytes, "batch {batch}");
    }
}

#[test]
fn every_decoder_returns_ok_or_its_typed_error_within_a_memory_bound() {
    let spec = WorkloadSpec::tiny_test();
    sidecars_with_bad_partitions_are_rebuilt(&spec);
    welcomes_with_bad_partitions_are_protocol_errors(&spec);
    node_frames_that_do_not_fit_are_declined_or_protocol_errors(&spec);
    binary_decoders_under_mutation();
    a_windowed_taobao_stream_holds_a_window_and_a_batch();
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
                let (through_window, window_peak, _) = heap_use(|| windowed(&bytes, word_at));
                match decoded {
                    // A survivor re-encodes to its own bytes, and the
                    // stream yields the very same batches.
                    Ok(file) => {
                        prop_assert_eq!(file.encode(), bytes.clone());
                        let batches = streamed.expect("bulk decode succeeded, so streaming must");
                        prop_assert_eq!(FaeFile { batches, ..file.clone() }.encode(), bytes.clone());
                        let batches = through_window.expect("bulk decode succeeded, so the window must");
                        prop_assert_eq!(FaeFile { batches, ..file }.encode(), bytes.clone());
                    }
                    Err(e @ FormatError::Io(_)) => panic!("fae: expected Ok or a decode error, got {e:?}"),
                    // The window fails where the bytes in memory do, and
                    // the same way.
                    Err(e) => prop_assert_eq!(
                        through_window.err().map(|w| w.to_string()),
                        Some(e.to_string())
                    ),
                }
                peak.max(stream_peak).max(window_peak)
            }
        };
        prop_assert!(peak <= bound, "decoder {decoder}: {} bytes held {peak} bytes live", bytes.len());
    }
}
