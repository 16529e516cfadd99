//! Pieces shared by `tests/wire_malformed.rs`, `tests/hostile_inputs.rs`
//! and `tests/tape_allocations.rs`: a process-wide counting allocator, the
//! ten sample frames, and the one seeded mutator both decoder suites
//! damage their inputs with.
//!
//! Including this module installs the counting allocator, so a binary
//! that does so must hold one `#[test]` only: a neighbouring test thread
//! would show up in its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use fae::data::codec::crc32;
use fae::data::{BatchKind, MiniBatch, TableIndices};
use fae::embed::SparseGrad;
use fae::net::{Frame, HotEntry, Message};
use fae::telemetry::StepMode;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters
// beside it never touch the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(now, Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
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

/// Runs `f` and returns its result with what it did on the heap: the most
/// bytes that were live above the starting level at any moment inside it,
/// and how many allocations it made (a `realloc` counts as one).
pub fn heap_use<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (start, allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
    PEAK.store(start, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(start), ALLOCS.load(Relaxed) - allocs)
}

/// One sealed frame (body and CRC) of each of the ten message kinds.
pub fn frames() -> Vec<Vec<u8>> {
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
        Message::ApplyOwn { mode: StepMode::Cold, lr: 0.05 },
    ];
    msgs.into_iter()
        .enumerate()
        .map(|(i, msg)| body_and_crc(&Frame { node: 1, epoch: 2, seq: i as u64, step: 3, msg }))
        .collect()
}

/// `Frame::encode()` minus its length prefix: what `decode` takes.
pub fn body_and_crc(frame: &Frame) -> Vec<u8> {
    frame.encode().split_off(4)
}

/// Replaces the trailer with the CRC of whatever the body now is.
pub fn reseal(bytes: &mut Vec<u8>) {
    let body = bytes.len().saturating_sub(4);
    bytes.truncate(body);
    let crc = crc32(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// The values a damaged count or id is most likely to break a decoder
/// with.
pub const HOSTILE: [u32; 6] = [u32::MAX, 0x7FFF_FFFF, 0x4000_0001, 0, 1, 0xFFFF];

/// Damages the body in front of a `trailer`-byte checksum: one 32-bit
/// field at `word_at` forced to `HOSTILE[word]`, a few stray bytes, the
/// body cut short at `keep` if that falls inside it, then `grow` bytes of
/// padding.
pub fn mutate(
    bytes: &mut Vec<u8>,
    trailer: usize,
    (word_at, word): (usize, usize),
    bytes_at: &[(usize, u8)],
    keep: usize,
    grow: usize,
) {
    let body = bytes.len() - trailer;
    let at = word_at % body.saturating_sub(3).max(1);
    if at + 4 <= body {
        bytes[at..at + 4].copy_from_slice(&HOSTILE[word].to_le_bytes());
    }
    for &(at, value) in bytes_at {
        bytes[at % body] = value;
    }
    if keep < body {
        bytes.drain(keep..body);
    }
    for _ in 0..grow {
        bytes.insert(bytes.len() - trailer, 0xA5);
    }
}
