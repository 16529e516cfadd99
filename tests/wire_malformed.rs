//! Malformed frames that carry a *valid* CRC. A flipped bit is caught by
//! the checksum, so the structural checks behind it — element counts,
//! CSR offsets, sparse `dim × rows`, ascending rows, trailing bytes — are
//! only ever reached by a frame whose checksum vouches for its damage.
//! This suite mutates or truncates valid frames, re-seals the CRC, and
//! holds `Frame::decode` to: `Ok` or `Corrupt`, never a panic, and never
//! more memory than a small multiple of the frame's own length.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! neighbouring test thread would show up in its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use proptest::prelude::*;

use fae::core::checkpoint::crc32;
use fae::data::{BatchKind, MiniBatch, TableIndices};
use fae::embed::SparseGrad;
use fae::net::{Frame, HotEntry, Message, NetError};
use fae::telemetry::StepMode;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters
// beside it never touch the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(now, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most bytes that were live
/// above the starting level at any moment inside it.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(start))
}

fn samples() -> Vec<Frame> {
    let mut grad = SparseGrad::new(3);
    for row in [2u32, 11, 40, 41, 9_000] {
        grad.accumulate(row, &[0.5, -1.0, 2.0]);
    }
    let sparse = vec![grad, SparseGrad::new(3), SparseGrad::new(0)];
    let hot = vec![
        HotEntry { table: 0, row: 7, values: vec![1.0, -2.0, 0.125] },
        HotEntry { table: 1, row: 0, values: Vec::new() },
    ];
    let shard = MiniBatch {
        kind: BatchKind::Hot,
        dense: vec![0.5; 6],
        dense_width: 2,
        sparse: vec![
            TableIndices { indices: vec![4, 9, 9, 1], offsets: vec![0, 1, 3, 4] },
            TableIndices { indices: Vec::new(), offsets: vec![0; 4] },
        ],
        labels: vec![1.0, 0.0, 1.0],
    };
    let msgs = vec![
        Message::Hello,
        Message::Welcome {
            workers: 2,
            seed: 9,
            spec_json: "{\"name\":\"tiny\"}".into(),
            partitions_json: "[]".into(),
            dense: vec![0.25; 9],
            hot: hot.clone(),
        },
        Message::Task { total: 3, mode: StepMode::Hot, shard },
        Message::Grads { loss: 0.7, samples: 3, dense: vec![-0.5; 7], sparse: sparse.clone() },
        Message::Apply { mode: StepMode::Hot, lr: 0.05, dense: vec![1.5; 7], sparse },
        Message::Ack,
        Message::HotBagSync { partitions_json: "[{}]".into(), hot },
        Message::TelemetryPoll { ack: 5 },
        Message::Telemetry { from: 5, events_jsonl: "{\"type\":\"mark\"}\n{}".into() },
    ];
    msgs.into_iter()
        .enumerate()
        .map(|(i, msg)| Frame { node: 1, epoch: 2, seq: i as u64, step: 3, msg })
        .collect()
}

/// `Frame::encode()` minus its length prefix: what `decode` takes.
fn body_and_crc(frame: &Frame) -> Vec<u8> {
    frame.encode().split_off(4)
}

/// Replaces the trailer with the CRC of whatever the body now is.
fn reseal(bytes: &mut Vec<u8>) {
    let body = bytes.len().saturating_sub(4);
    bytes.truncate(body);
    let crc = crc32(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// The values a damaged count or id is most likely to break a decoder
/// with.
const HOSTILE: [u32; 6] = [u32::MAX, 0x7FFF_FFFF, 0x4000_0001, 0, 1, 0xFFFF];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn resealed_mutations_decode_or_are_corrupt_within_a_memory_bound(
        pick in 0usize..9,
        word_at in 0usize..400,
        word in 0usize..HOSTILE.len(),
        bytes_at in prop::collection::vec((0usize..400, 0u8..=255), 0..4),
        keep in 0usize..=400,
        grow in 0usize..3,
    ) {
        let frames = samples();
        let mut bytes = body_and_crc(&frames[pick % frames.len()]);
        let body = bytes.len() - 4;
        // One 32-bit field forced to a hostile value, a few stray bytes,
        // then maybe a truncation or a padded tail — all inside the body.
        let at = word_at % body.saturating_sub(3).max(1);
        if at + 4 <= body {
            bytes[at..at + 4].copy_from_slice(&HOSTILE[word].to_le_bytes());
        }
        for (at, value) in bytes_at {
            bytes[at % body] = value;
        }
        if keep < body {
            bytes.drain(keep..body);
        }
        for _ in 0..grow {
            bytes.insert(bytes.len() - 4, 0xA5);
        }
        reseal(&mut bytes);
        let bound = 16 * bytes.len() + 4096;
        let (decoded, peak) = peak_above_start(|| Frame::decode(&bytes));
        prop_assert!(peak <= bound, "decode of {} bytes held {peak} bytes live", bytes.len());
        match decoded {
            // A survivor must be a frame the encoder itself could have
            // written: it re-encodes to the bytes it was decoded from.
            Ok(frame) => prop_assert_eq!(body_and_crc(&frame), bytes),
            Err(NetError::Corrupt(_)) => {}
            Err(other) => panic!("expected Ok or Corrupt, got {other:?}"),
        }
    }
}
