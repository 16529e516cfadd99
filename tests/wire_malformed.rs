//! Malformed frames that carry a *valid* CRC. A flipped bit is caught by
//! the checksum, so the structural checks behind it — element counts,
//! CSR offsets, sparse `dim × rows`, ascending rows, trailing bytes — are
//! only ever reached by a frame whose checksum vouches for its damage.
//! This suite mutates or truncates valid frames, re-seals the CRC, and
//! holds `Frame::decode` to: `Ok` or `Corrupt`, never a panic, and never
//! more memory than a small multiple of the frame's own length.
//! `tests/hostile_inputs.rs` holds the checkpoint and FAE decoders to the
//! same bound with the same mutator.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! neighbouring test thread would show up in its peak.

#[path = "common/hostile.rs"]
mod hostile;

use proptest::prelude::*;

use fae::net::{Frame, NetError};

use hostile::{body_and_crc, frames, heap_use, mutate, reseal, HOSTILE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn resealed_mutations_decode_or_are_corrupt_within_a_memory_bound(
        pick in 0usize..10,
        word_at in 0usize..400,
        word in 0usize..HOSTILE.len(),
        bytes_at in prop::collection::vec((0usize..400, 0u8..=255), 0..4),
        keep in 0usize..=400,
        grow in 0usize..3,
    ) {
        let frames = frames();
        let mut bytes = frames[pick % frames.len()].clone();
        mutate(&mut bytes, 4, (word_at, word), &bytes_at, keep, grow);
        reseal(&mut bytes);
        let bound = 16 * bytes.len() + 4096;
        let (decoded, peak, _) = heap_use(|| Frame::decode(&bytes));
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
