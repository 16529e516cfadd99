//! Golden pins for the byte codecs: the CRC-32, the wire frame and the
//! checkpoint container are held to constants printed by the commit
//! *before* the checksum became table-driven and the frame codec
//! single-pass. Round-trip tests compare two halves of the same build,
//! so a change that moved encoder and decoder together would pass them
//! all; these constants would not move with it. A frame or checkpoint
//! written by either side of that change must stay readable by the other.

use proptest::prelude::*;

use fae::core::checkpoint::crc32;
use fae::core::faults::{FaultKind, InjectedFault, RecoveryAction};
use fae::core::scheduler::SchedulerState;
use fae::core::trainer::EvalPoint;
use fae::core::{TableSnapshot, TrainCheckpoint};
use fae::data::{BatchKind, MiniBatch, TableIndices};
use fae::embed::SparseGrad;
use fae::net::{Frame, HotEntry, Message};
use fae::sysmodel::{Phase, Timeline};
use fae::telemetry::StepMode;

/// The bit-at-a-time loop `checkpoint::crc32` was before it became
/// table-driven (IEEE 802.3, reflected, polynomial 0xEDB88320) — kept
/// here as the reference every faster implementation is held to.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64: a hash that shares no code with the CRC under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[test]
fn crc32_check_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn crc32_matches_the_bit_loop_at_every_alignment_and_remainder() {
    // Every (start offset, length) pair around the 8-byte stride of a
    // slicing-by-8 implementation, over bytes that are all distinct.
    let buf: Vec<u8> = (0..160u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect();
    for start in 0..16 {
        for len in 0..=(buf.len() - start) {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
        }
    }
}

proptest! {
    #[test]
    fn crc32_matches_the_bit_loop_on_random_buffers(
        buf in prop::collection::vec(0u8..=255, 0..=4096 + 8),
        start in 0usize..8,
    ) {
        let s = &buf[start.min(buf.len())..];
        prop_assert_eq!(crc32(s), crc32_bitwise(s));
    }
}

// ---------- wire frames ----------

fn golden_batch() -> MiniBatch {
    MiniBatch {
        kind: BatchKind::Hot,
        dense: vec![0.5, -1.25, 3.0, f32::MIN_POSITIVE, 1e-40, -7.75],
        dense_width: 2,
        sparse: vec![
            TableIndices { indices: vec![4, 9, 9, 1], offsets: vec![0, 1, 3, 4] },
            TableIndices { indices: vec![], offsets: vec![0, 0, 0, 0] },
        ],
        labels: vec![1.0, 0.0, 1.0],
    }
}

fn golden_sparse() -> Vec<SparseGrad> {
    let mut a = SparseGrad::new(3);
    a.accumulate(11, &[0.25, -0.5, 1e-39]);
    a.accumulate(2, &[f32::MAX, f32::EPSILON, -3.5]);
    a.accumulate(11, &[1.0, 1.0, 1.0]);
    a.accumulate(4_000_000, &[-1.0, 2.0, -4.0]);
    vec![a, SparseGrad::new(3)]
}

fn golden_entries() -> Vec<HotEntry> {
    vec![
        HotEntry { table: 0, row: 7, values: vec![1.0, -2.0, 0.125] },
        HotEntry { table: 1, row: 0, values: vec![] },
        HotEntry { table: 1, row: u32::MAX, values: vec![f32::MIN, 9.5, 1e-42] },
    ]
}

fn golden_frames() -> Vec<Frame> {
    let dense = vec![0.1, -0.2, 0.3, 1e-41, -65504.0];
    let msgs = vec![
        Message::Welcome {
            workers: 4,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            spec_json: "{\"name\":\"tiny\",\"tables\":[8,16]}".into(),
            partitions_json: String::new(),
            dense: dense.clone(),
            hot: golden_entries(),
        },
        Message::Task { total: 256, mode: StepMode::Hot, shard: golden_batch() },
        Message::Grads { loss: 0.693, samples: 3, dense: dense.clone(), sparse: golden_sparse() },
        Message::Apply { mode: StepMode::Hot, lr: 0.05, dense, sparse: golden_sparse() },
        Message::HotBagSync {
            partitions_json: "[{\"hot\":[7]},{\"hot\":[0]}]".into(),
            hot: golden_entries(),
        },
        Message::Telemetry {
            from: 17,
            events_jsonl: "{\"type\":\"mark\",\"node_id\":2,\"seq\":17}\n{\"type\":\"mark\",\"node_id\":2,\"seq\":18}".into(),
        },
    ];
    msgs.into_iter()
        .enumerate()
        .map(|(i, msg)| Frame {
            node: i as u32 + 1,
            epoch: 3,
            seq: 0x0102_0304_0506_0708 + i as u64,
            step: 41 + i as u64,
            msg,
        })
        .collect()
}

/// `(kind, encoded length, FNV-1a of Frame::encode())`, from the parent.
const FRAME_GOLDEN: &[(&str, usize, u64)] = &[
    ("welcome", 178, 0x66ff9ccc779274ef),
    ("task", 193, 0x6c48aff34deb5204),
    ("grads", 139, 0xca7906ce0331c64a),
    ("apply", 136, 0xe4e60dfb3f8077d7),
    ("hot-bag-sync", 132, 0x287a7d87daeb7227),
    ("telemetry", 124, 0xb8868becf4daa7a2),
];

#[test]
fn frame_bytes_match_the_parents() {
    let actual: Vec<(&str, usize, u64)> = golden_frames()
        .iter()
        .map(|f| {
            let bytes = f.encode();
            (f.msg.kind_name(), bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let table: String =
        actual.iter().map(|(k, n, h)| format!("    (\"{k}\", {n}, {h:#018x}),\n")).collect();
    assert_eq!(actual, FRAME_GOLDEN, "frame bytes moved; actual table:\n{table}");
}

#[test]
fn frames_decode_and_re_encode_to_the_same_bytes() {
    for f in golden_frames() {
        let bytes = f.encode();
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4, "{}: prefix covers body + crc", f.msg.kind_name());
        let crc = crc32_bitwise(&bytes[4..bytes.len() - 4]);
        assert_eq!(bytes[bytes.len() - 4..], crc.to_le_bytes(), "{}: trailer", f.msg.kind_name());
        let back = Frame::decode(&bytes[4..]).expect("golden frame decodes");
        assert_eq!((back.node, back.epoch, back.seq, back.step), (f.node, f.epoch, f.seq, f.step));
        assert_eq!(back.encode(), bytes, "{}: re-encode", f.msg.kind_name());
    }
}

// ---------- checkpoint container ----------

fn golden_checkpoint() -> TrainCheckpoint {
    TrainCheckpoint {
        config_seed: 0xF00D,
        epoch: 1,
        hot_cursor: 12,
        cold_cursor: 34,
        steps: 123,
        hot_steps: 60,
        cold_steps: 63,
        transitions: 8,
        gpus_active: 3,
        cold_only: false,
        scheduler: SchedulerState {
            rate: 25,
            prev_loss: Some(0.43),
            improving_streak: 2,
            u: 4,
            history: vec![(0.5, 50), (0.43, 25)],
        },
        timeline: {
            let mut t = Timeline::new();
            t.add(Phase::EmbedSync, 1.25);
            t.add(Phase::Optimizer, 0.75);
            t.add_cpu_resident(0.5);
            t
        },
        history: vec![EvalPoint {
            iteration: 50,
            test_loss: 0.5,
            test_accuracy: 0.7,
            rate: Some(50),
            hot_steps: 20,
            cold_steps: 30,
            sim_seconds: 1.75,
        }],
        faults: vec![InjectedFault { kind: FaultKind::DeviceLoss, at: 40, step: 41 }],
        recoveries: vec![
            RecoveryAction::ShrankReplicas { step: 41, from: 4, to: 3 },
            RecoveryAction::SyncRetried { step: 60, attempts: 3, waited_s: 0.15 },
            RecoveryAction::RebuiltArtifacts,
            RecoveryAction::NodeRejoined { step: 90, node: 1, state_bytes: 4096 },
        ],
        dense_params: vec![0.1, -0.2, 0.3, 1e-40],
        tables: vec![
            TableSnapshot { rows: 2, dim: 3, weights: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0] },
            TableSnapshot { rows: 0, dim: 3, weights: vec![] },
            TableSnapshot { rows: 1, dim: 3, weights: vec![-1.0, -2.0, f32::MIN_POSITIVE] },
        ],
    }
}

/// `golden_checkpoint().encode()` as the parent wrote it.
const CHECKPOINT_GOLDEN_HEX: &str = "\
4641454b020000000df0000000000000010000000c0000000000000022000000000000007b000000000000003c000000\
000000003f0000000000000008000000000000000300000000190000000185eb51b81e85db3f02000000040000000200\
0000000000000000e03f3200000085eb51b81e85db3f1900000000000000000000000000000000000000000000000000\
0000000000000000e83f00000000000000000000000000000000000000000000f43f0000000000000000000000000000\
e03f010000003200000000000000000000000000e03f666666666666e63f013200000014000000000000001e00000000\
000000000000000000fc3f01000000002800000000000000290000000000000004000000002900000000000000040000\
0003000000023c0000000000000003000000333333333333c33f04075a00000000000000010000000010000000000000\
04000000cdcccc3dcdcc4cbe9a99993ec21601000300000002000000030000000000803f000000400000404000008040\
0000a0400000c04000000000030000000100000003000000000080bf000000c0000080005c422b36";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex")).collect()
}

#[test]
fn checkpoint_bytes_written_by_the_parent_decode_and_re_encode_identically() {
    let ck = golden_checkpoint();
    let bytes = ck.encode();
    let lines: String = hex(&bytes)
        .as_bytes()
        .chunks(96)
        .map(|c| format!("{}\\\n", String::from_utf8_lossy(c)))
        .collect();
    assert_eq!(hex(&bytes), CHECKPOINT_GOLDEN_HEX, "container bytes moved; actual:\n{lines}");
    let parent_bytes = unhex(CHECKPOINT_GOLDEN_HEX);
    let back = TrainCheckpoint::decode(&parent_bytes).expect("the parent's bytes decode");
    assert_eq!(back, ck);
    assert_eq!(back.encode(), parent_bytes);
    let body = &parent_bytes[..parent_bytes.len() - 4];
    assert_eq!(parent_bytes[body.len()..], crc32_bitwise(body).to_le_bytes());
    assert_eq!(ck.digest(), crc32_bitwise(&parent_bytes));
}
