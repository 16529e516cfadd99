//! Golden pins for the byte codecs: the CRC-32, the wire frame and the
//! checkpoint container are held to constants printed by the commit
//! *before* the checksum became table-driven and the frame codec
//! single-pass; the FAE container to one printed before its decoder
//! moved onto the shared reader. Round-trip tests compare two halves of
//! the same build, so a change that moved encoder and decoder together
//! would pass them all; these constants would not move with it. A file or
//! frame written by either side of that change must stay readable by the
//! other. The static phase's output — the encoded stream of
//! `pipeline::prepare` on seeded Kaggle and Taobao inputs, and every
//! partition, also after a serde round trip — is held to hashes printed
//! while the packer still gathered sample by sample.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use proptest::prelude::*;

use fae::core::artifacts;
use fae::core::faults::{FaultKind, InjectedFault, RecoveryAction};
use fae::core::pipeline::{prefetch_fae_blocks, prepare};
use fae::core::scheduler::SchedulerState;
use fae::core::trainer::EvalPoint;
use fae::core::{CalibratorConfig, PreprocessConfig, TableSnapshot, TrainCheckpoint};
use fae::data::codec::{crc32, Crc32};
use fae::data::format::{FaeFile, FaeStreamReader, FormatError};
use fae::data::{generate, BatchKind, GenOptions, MiniBatch, TableIndices, WorkloadSpec};
use fae::embed::{HotColdPartition, SparseGrad};
use fae::net::{Frame, HotEntry, Message};
use fae::sysmodel::{Phase, Timeline};
use fae::telemetry::StepMode;

#[path = "common/fnv.rs"]
mod fnv;
use fnv::fnv1a;

/// The bit-at-a-time loop `crc32` was before it became
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
    // Lengths around whole multiples of the 2 KiB four-lane block, at
    // every start offset within one slicing-by-8 stride.
    let big: Vec<u8> =
        (0..3 * 2048 + 32u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    for k in 1..=3 {
        for len in k * 2048 - 9..=k * 2048 + 9 {
            for start in 0..8 {
                let s = &big[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }
    // Three uneven parts, the cuts inside the first and the second block.
    let whole = &big[..3 * 2048 + 17];
    for cuts in [(5, 2051), (2047, 2049), (1000, 4500), (2048, 4096)] {
        let mut h = Crc32::new();
        h.update(&whole[..cuts.0]);
        h.update(&whole[cuts.0..cuts.1]);
        h.update(&whole[cuts.1..]);
        assert_eq!(h.finish(), crc32_bitwise(whole), "cuts {cuts:?}");
    }
    // Floats fed as floats, past the update buffer's several blocks.
    let floats: Vec<f32> = (0..5_000).map(|i| (i as f32).sin() * 1e3).collect();
    let bytes: Vec<u8> = floats.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut h = Crc32::new();
    h.update_f32s(&floats);
    assert_eq!(h.finish(), crc32_bitwise(&bytes));
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

// ---------- FAE container ----------

fn golden_fae() -> FaeFile {
    let batch =
        |kind, dense, labels, sparse| MiniBatch { kind, dense, dense_width: 2, sparse, labels };
    let csr = |indices: Vec<u32>, offsets: Vec<usize>| TableIndices { indices, offsets };
    FaeFile::new(
        "kaggle-golden",
        vec![
            batch(
                BatchKind::Hot,
                vec![0.5, -0.0, 1e-40, 3.25],
                vec![1.0, 0.0],
                vec![csr(vec![3, 7, 7], vec![0, 2, 3]), csr(vec![], vec![0, 0, 0])],
            ),
            batch(
                BatchKind::Cold,
                vec![-7.75, f32::MIN_POSITIVE],
                vec![0.0],
                vec![csr(vec![u32::MAX], vec![0, 1]), csr(vec![0, 1], vec![0, 2])],
            ),
            batch(
                BatchKind::Unclassified,
                vec![f32::MAX, -1e-45],
                vec![-0.0],
                vec![csr(vec![42], vec![0, 1]), csr(vec![], vec![0, 0])],
            ),
        ],
    )
}

/// Everything a batch carries, floats as bits so `-0.0` and `0.0` differ.
fn batch_bits(b: &MiniBatch) -> (BatchKind, usize, Vec<u32>, Vec<u32>, Vec<TableIndices>) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
    (b.kind, b.dense_width, bits(&b.dense), bits(&b.labels), b.sparse.clone())
}

/// `golden_fae().encode()` as the parent wrote it.
const FAE_GOLDEN_HEX: &str = "\
46414531010000000d0000006b6167676c652d676f6c64656e02000000020000000300000000020000000000003f0000\
0080c2160100000050400000803f00000000030000000300000007000000070000000000000002000000030000000000\
000000000000000000000000000001010000000000f8c0000080000000000001000000ffffffff000000000100000002\
000000000000000100000000000000020000000201000000ffff7f7f0100008000000080010000002a00000000000000\
01000000000000000000000000000000";

#[test]
fn fae_bytes_written_by_the_parent_decode_and_stream_identically() {
    let f = golden_fae();
    let bytes = f.encode();
    let lines: String = hex(&bytes)
        .as_bytes()
        .chunks(96)
        .map(|c| format!("{}\\\n", String::from_utf8_lossy(c)))
        .collect();
    assert_eq!(hex(&bytes), FAE_GOLDEN_HEX, "container bytes moved; actual:\n{lines}");
    let parent_bytes = unhex(FAE_GOLDEN_HEX);
    let back = FaeFile::decode(&parent_bytes).expect("the parent's bytes decode");
    assert_eq!(
        (back.workload.as_str(), back.dense_width, back.num_tables),
        ("kaggle-golden", 2, 2)
    );
    let want: Vec<_> = f.batches.iter().map(batch_bits).collect();
    assert_eq!(back.batches.iter().map(batch_bits).collect::<Vec<_>>(), want);
    assert_eq!(back.encode()[..], parent_bytes[..]);

    let mut reader = FaeStreamReader::open(&parent_bytes).expect("the parent's header opens");
    assert_eq!((reader.workload(), reader.batches_remaining()), ("kaggle-golden", 3));
    let streamed: Vec<MiniBatch> =
        reader.by_ref().collect::<Result<_, _>>().expect("the parent's batches stream");
    assert_eq!(streamed.iter().map(batch_bits).collect::<Vec<_>>(), want);
    assert_eq!(reader.trailing_bytes(), 0);
}

/// Every item `prefetch_fae_blocks` yields over `bytes` (an error at
/// open is the stream's one item), and whether the drained stream stays
/// ended when asked again.
fn prefetched(bytes: &[u8]) -> (Vec<Result<MiniBatch, FormatError>>, bool) {
    match prefetch_fae_blocks(bytes.to_vec()) {
        Err(e) => (vec![Err(e)], true),
        Ok((workload, mut stream)) => {
            assert_eq!(workload, "kaggle-golden");
            let items: Vec<_> = stream.by_ref().collect();
            (items, stream.next().is_none())
        }
    }
}

#[test]
fn prefetched_fae_blocks_match_the_eager_decode_and_end_at_the_first_error() {
    let parent_bytes = unhex(FAE_GOLDEN_HEX);
    let want: Vec<_> =
        FaeFile::decode(&parent_bytes).expect("decodes").batches.iter().map(batch_bits).collect();
    let (items, ended) = prefetched(&parent_bytes);
    let got: Vec<_> = items.iter().map(|r| batch_bits(r.as_ref().expect("clean"))).collect();
    assert_eq!(got, want);
    assert!(ended);

    // Where the header ends, then where each batch ends.
    let batches = golden_fae().batches;
    let ends: Vec<usize> = (0..=batches.len())
        .map(|k| FaeFile::new("kaggle-golden", batches[..k].to_vec()).encode().len())
        .collect();
    assert_eq!(ends[batches.len()], parent_bytes.len());
    for cut in ends[0] + 1..parent_bytes.len() {
        let whole = ends[1..].iter().filter(|&&end| end <= cut).count();
        let (items, ended) = prefetched(&parent_bytes[..cut]);
        assert_eq!(items.len(), whole + 1, "cut {cut}: {whole} whole batches, then one error");
        for (item, want) in items.iter().zip(&want[..whole]) {
            assert_eq!(batch_bits(item.as_ref().expect("a whole batch")), *want, "cut {cut}");
        }
        assert!(items[whole].is_err(), "cut {cut}");
        assert!(ended, "cut {cut}: the stream ends at its error");
    }
}

/// A saved stream is `encode()`'s bytes, `artifacts::load` hands back
/// `FaeFile::decode`'s batches bit for bit (split into hot and the rest,
/// each in file order), and every strict prefix of the file is a load
/// error, never a panic.
#[test]
fn saved_streams_are_the_encoded_bytes_and_load_like_the_eager_decode() {
    let ds = generate(&WorkloadSpec::tiny_test(), &GenOptions::sized(7, 160));
    let cal = CalibratorConfig {
        gpu_budget_bytes: 40 << 10,
        small_table_bytes: 2 << 10,
        ..Default::default()
    };
    let art = prepare(&ds, cal, &PreprocessConfig { minibatch_size: 16, seed: 7 });
    let dir = std::env::temp_dir().join(format!("fae-codec-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("s.fae");
    artifacts::save(&art, "tiny-test", &path).expect("save");
    let bytes = std::fs::read(&path).expect("the saved stream");
    assert_eq!(bytes, art.preprocessed.to_fae_file("tiny-test").encode());

    let eager = FaeFile::decode(&bytes).expect("decodes");
    let (hot, rest): (Vec<_>, Vec<_>) =
        eager.batches.iter().partition(|b| b.kind == BatchKind::Hot);
    assert!(!hot.is_empty() && !rest.is_empty(), "the stream holds hot and cold batches");
    let (loaded, workload) = artifacts::load(&path).expect("loads");
    assert_eq!(workload, "tiny-test");
    let bits = |v: &[&MiniBatch]| v.iter().map(|b| batch_bits(b)).collect::<Vec<_>>();
    let pre = &loaded.preprocessed;
    assert_eq!(pre.hot_batches.iter().map(batch_bits).collect::<Vec<_>>(), bits(&hot));
    assert_eq!(pre.cold_batches.iter().map(batch_bits).collect::<Vec<_>>(), bits(&rest));

    // Cut the file from its end, one byte at a time, down to nothing.
    let file = std::fs::OpenOptions::new().write(true).open(&path).expect("the stream opens");
    for cut in (0..bytes.len()).rev() {
        file.set_len(cut as u64).expect("truncate");
        assert!(artifacts::load(&path).is_err(), "a {cut}-byte prefix loaded");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------- the static phase ----------

/// FNV-1a of every partition's remap (a cold row as `u32::MAX`), hot ids
/// and cutoff, read through the public accessors.
fn partitions_hash(parts: &[HotColdPartition]) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        for row in 0..p.rows() as u32 {
            bytes.extend(p.hot_local(row).unwrap_or(u32::MAX).to_le_bytes());
        }
        for &h in p.hot_ids() {
            bytes.extend(h.to_le_bytes());
        }
        bytes.extend(p.cutoff().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Per workload: encoded stream length and FNV-1a, hot batches, and the
/// partitions' hash — as the sample-by-sample packer wrote them.
const STATIC_GOLDEN: [(&str, usize, u64, usize, u64); 2] = [
    ("rmc2-kaggle", 5_296_862, 0x24c1_c3fa_5628_674f, 27, 0xb7df_641a_f29b_6ba8),
    ("rmc1-taobao", 2_400_574, 0x48c9_9c3c_d0dc_4ada, 55, 0xf208_bb75_58e5_7090),
];

#[test]
fn prepared_streams_and_partitions_match_the_pinned_hashes() {
    let mut got = Vec::new();
    for spec in [WorkloadSpec::rmc2_kaggle(), WorkloadSpec::rmc1_taobao()] {
        let ds = generate(&spec, &GenOptions::sized(11, 20_000));
        let cal = CalibratorConfig {
            gpu_budget_bytes: spec.embedding_bytes() / 8,
            small_table_bytes: 8 << 10,
            sample_rate: 0.05,
            ..Default::default()
        };
        let art = prepare(&ds, cal, &PreprocessConfig { minibatch_size: 256, seed: 11 });
        let pre = &art.preprocessed;
        let stream = pre.to_fae_file(&spec.name).encode();
        let hash = partitions_hash(&pre.partitions);
        // What the sidecar and the wire carry must decode to the same
        // partitions.
        let json = serde_json::to_string(&pre.partitions).expect("partitions serialise");
        let back: Vec<HotColdPartition> = serde_json::from_str(&json).expect("partitions parse");
        assert_eq!(partitions_hash(&back), hash, "{}: partitions moved in serde", spec.name);
        got.push((spec.name.clone(), stream.len(), fnv1a(&stream), pre.hot_batches.len(), hash));
    }
    let got: Vec<_> = got.iter().map(|(n, l, f, h, p)| (n.as_str(), *l, *f, *h, *p)).collect();
    assert_eq!(got, STATIC_GOLDEN, "static-phase output moved; actual: {got:#x?}");
}
