//! Hostile inputs for the three binary decoders: `Frame::decode`,
//! `TrainCheckpoint::decode` and the FAE container (`FaeFile::decode` and
//! `FaeStreamReader`). One seeded mutator, shared with
//! `tests/wire_malformed.rs`, forces a 32-bit field to a hostile value,
//! overwrites a few bytes, then maybe truncates or pads.
//!
//! A flipped bit in a frame or a checkpoint is caught by its CRC, so the
//! unsealed mutation must fail to decode; the harness then re-seals the
//! CRC, because the structural checks behind it — element counts, CSR
//! offsets, sparse `dim × rows`, ascending rows, trailing bytes — are
//! only ever reached by bytes whose checksum vouches for their damage.
//! The FAE file carries no checksum; every strict prefix of it must fail.
//! Every decoder is then held to the same bound: `Ok` or its typed error,
//! never a panic, and never more than `16 × len + 4096` bytes live.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! neighbouring test thread would show up in its peak.

#[path = "common/hostile.rs"]
mod hostile;

use std::sync::OnceLock;

use proptest::prelude::*;

use fae::core::faults::{FaultKind, InjectedFault, RecoveryAction};
use fae::core::trainer::EvalPoint;
use fae::core::{CheckpointError, SchedulerState, TableSnapshot, TrainCheckpoint};
use fae::data::format::{FaeFile, FaeStreamReader, FormatError};
use fae::data::{generate, BatchKind, GenOptions, MiniBatch, WorkloadSpec};
use fae::net::{Frame, NetError};
use fae::sysmodel::{Phase, Timeline};

use hostile::{body_and_crc, frames, mutate, peak_above_start, reseal, HOSTILE};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_288))]
    #[test]
    fn every_decoder_returns_ok_or_its_typed_error_within_a_memory_bound(
        decoder in 0usize..3,
        frame in 0usize..9,
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
                let (decoded, peak) = peak_above_start(|| Frame::decode(&bytes));
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
                let (decoded, peak) = peak_above_start(|| TrainCheckpoint::decode(&bytes));
                if let Err(e @ CheckpointError::Io(_)) = decoded {
                    panic!("checkpoint: expected Ok or a decode error, got {e:?}");
                }
                peak
            }
            _ => {
                let (decoded, peak) = peak_above_start(|| FaeFile::decode(&bytes));
                let (streamed, stream_peak) = peak_above_start(|| {
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
