//! Training checkpoints: everything needed to resume an interrupted FAE
//! run bit-identically to an uninterrupted one.
//!
//! A [`TrainCheckpoint`] snapshots, at a schedule-round boundary (the
//! point where the master embeddings are authoritative and the scheduler
//! has just adapted): the training position (epoch + hot/cold cursors),
//! the step counters, the dense model parameters, every master embedding
//! table, the [`ShuffleScheduler`](crate::ShuffleScheduler) state, the
//! accumulated [`Timeline`], the evaluation history and the fault/
//! recovery record. Together with the trainer's per-epoch *derived*
//! shuffle RNGs (`seed ⊕ f(epoch)` — no RNG state needs serialising),
//! this makes resumption exact: every subsequent mini-batch, eval and
//! cost charge replays identically.
//!
//! On disk the checkpoint is an FAE-style little-endian binary container
//! (`"FAEK"` magic, version, payload, CRC-32 trailer), written atomically
//! via write-temp-then-rename so a crash mid-write never leaves a torn
//! file that a resume could trip over. Decoding treats the bytes as
//! untrusted: the CRC is verified before any field is trusted, and every
//! read goes through [`fae_data::codec::Reader`], so each declared count
//! is checked against the bytes left before it sizes an allocation —
//! corruption yields [`CheckpointError`], never a panic.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fae_data::codec::{
    crc32, put_counted, put_f64, put_u32, put_u64, put_words, Crc32, ReadError, Reader,
};
use fae_embed::EmbeddingTable;
use fae_models::{EmbeddingSource, MasterEmbeddings};
use fae_nn::Tensor;
use fae_sysmodel::{Phase, Timeline};

use crate::faults::{FaultKind, InjectedFault, RecoveryAction};
use crate::scheduler::SchedulerState;
use crate::trainer::EvalPoint;

const MAGIC: &[u8; 4] = b"FAEK";
// Version 2 widened the eval-history record with the hot/cold step
// counters and cumulative simulated seconds `EvalPoint` now carries.
const VERSION: u32 = 2;
const FILE_PREFIX: &str = "ckpt-";
const FILE_SUFFIX: &str = ".faeck";

/// Errors producing or consuming a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The magic bytes were wrong — not a checkpoint file.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The CRC-32 trailer did not match the payload.
    BadChecksum,
    /// The buffer ended before the declared content.
    Truncated(&'static str),
    /// A structural invariant failed.
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an FAE checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Truncated(what) => write!(f, "checkpoint truncated: {what}"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => CheckpointError::Truncated(e.what()),
            ReadError::Overflow | ReadError::NotUtf8 => CheckpointError::Corrupt(e.what()),
        }
    }
}

/// One master embedding table, flattened.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSnapshot {
    /// Row count.
    pub rows: u32,
    /// Embedding dimension.
    pub dim: u32,
    /// `rows * dim` weights, row-major.
    pub weights: Vec<f32>,
}

/// Complete resumable training state at a schedule-round boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// The run's `TrainConfig::seed` (resume refuses a mismatched seed).
    pub config_seed: u64,
    /// Epoch the cursors refer to.
    pub epoch: u32,
    /// Hot batches already issued this epoch.
    pub hot_cursor: u64,
    /// Cold batches already issued this epoch.
    pub cold_cursor: u64,
    /// Total training steps completed.
    pub steps: u64,
    /// Steps executed in pure-GPU hot mode.
    pub hot_steps: u64,
    /// Steps executed in hybrid (cold) mode.
    pub cold_steps: u64,
    /// Hot↔cold transitions charged so far.
    pub transitions: u64,
    /// GPUs still in the data-parallel group (after any device losses).
    pub gpus_active: u32,
    /// Whether the run has degraded to CPU-only cold execution.
    pub cold_only: bool,
    /// Shuffle-scheduler adaptive state.
    pub scheduler: SchedulerState,
    /// Phase-tagged simulated time accumulated so far.
    pub timeline: Timeline,
    /// Evaluation snapshots so far.
    pub history: Vec<EvalPoint>,
    /// Faults that fired before the checkpoint.
    pub faults: Vec<InjectedFault>,
    /// Recovery actions taken before the checkpoint.
    pub recoveries: Vec<RecoveryAction>,
    /// Flattened dense model parameters.
    pub dense_params: Vec<f32>,
    /// Master embedding tables.
    pub tables: Vec<TableSnapshot>,
}

impl TrainCheckpoint {
    /// Flattens the master embedding tables into snapshots. A quantized
    /// (tiered) master is snapshot *dequantized*: hot rows are exact, and
    /// cold rows carry the values of their int8 grid, so restoring and
    /// re-quantizing with the same partitions reproduces the tiered state
    /// to within one code step per element.
    pub fn snapshot_master(master: &MasterEmbeddings) -> Vec<TableSnapshot> {
        (0..master.num_tables())
            .map(|t| {
                let (rows, dim) = (master.rows_in(t), master.dim());
                let mut weights = Vec::with_capacity(rows * dim);
                master.stream_table(t, |w| weights.extend_from_slice(w));
                TableSnapshot { rows: rows as u32, dim: dim as u32, weights }
            })
            .collect()
    }

    /// Rebuilds the master embeddings from this checkpoint's snapshots.
    pub fn restore_master(&self) -> MasterEmbeddings {
        let tables = self
            .tables
            .iter()
            .map(|s| {
                EmbeddingTable::from_weights(Tensor::from_vec(
                    s.rows as usize,
                    s.dim as usize,
                    s.weights.clone(),
                ))
            })
            .collect();
        MasterEmbeddings::from_tables(tables)
    }

    /// CRC-32 over the encoded container: a compact fingerprint of the
    /// *entire* training state (dense parameters, master tables,
    /// scheduler, timeline, history). Two runs whose digests match at
    /// the same step are bit-identical — the workers-determinism suite
    /// compares these across worker counts and resume boundaries.
    pub fn digest(&self) -> u32 {
        crc32(&self.encode())
    }

    /// Serialises to the binary container (payload + CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let floats =
            self.dense_params.len() + self.tables.iter().map(|t| t.weights.len()).sum::<usize>();
        let mut buf = Vec::with_capacity(4096 + floats * 4);
        let out = &mut buf;
        out.extend_from_slice(MAGIC);
        put_u32(out, VERSION);
        put_u64(out, self.config_seed);
        put_u32(out, self.epoch);
        put_u64(out, self.hot_cursor);
        put_u64(out, self.cold_cursor);
        put_u64(out, self.steps);
        put_u64(out, self.hot_steps);
        put_u64(out, self.cold_steps);
        put_u64(out, self.transitions);
        put_u32(out, self.gpus_active);
        out.push(self.cold_only as u8);
        // Scheduler.
        put_u32(out, self.scheduler.rate);
        out.push(self.scheduler.prev_loss.is_some() as u8);
        put_f64(out, self.scheduler.prev_loss.unwrap_or(0.0));
        put_u32(out, self.scheduler.improving_streak);
        put_u32(out, self.scheduler.u);
        put_u32(out, self.scheduler.history.len() as u32);
        for &(loss, rate) in &self.scheduler.history {
            put_f64(out, loss);
            put_u32(out, rate);
        }
        // Timeline: the eight phases in display order, then CPU-resident.
        for phase in Phase::ALL {
            put_f64(out, self.timeline.get(phase));
        }
        put_f64(out, self.timeline.cpu_resident());
        // Eval history.
        put_u32(out, self.history.len() as u32);
        for p in &self.history {
            put_u64(out, p.iteration as u64);
            put_f64(out, p.test_loss);
            put_f64(out, p.test_accuracy);
            out.push(p.rate.is_some() as u8);
            put_u32(out, p.rate.unwrap_or(0));
            put_u64(out, p.hot_steps as u64);
            put_u64(out, p.cold_steps as u64);
            put_f64(out, p.sim_seconds);
        }
        // Fault log.
        put_u32(out, self.faults.len() as u32);
        for f in &self.faults {
            out.push(f.kind.tag());
            put_u64(out, f.at);
            put_u64(out, f.step);
        }
        // Recovery log.
        put_u32(out, self.recoveries.len() as u32);
        for r in &self.recoveries {
            match *r {
                RecoveryAction::ShrankReplicas { step, from, to } => {
                    out.push(0);
                    put_u64(out, step);
                    put_u32(out, from);
                    put_u32(out, to);
                }
                RecoveryAction::ColdFallback { step } => {
                    out.push(1);
                    put_u64(out, step);
                }
                RecoveryAction::SyncRetried { step, attempts, waited_s } => {
                    out.push(2);
                    put_u64(out, step);
                    put_u32(out, attempts);
                    put_f64(out, waited_s);
                }
                RecoveryAction::RetriedIo { attempts, waited_s } => {
                    out.push(3);
                    put_u32(out, attempts);
                    put_f64(out, waited_s);
                }
                RecoveryAction::RebuiltArtifacts => out.push(4),
                RecoveryAction::ResumedFromCheckpoint { step } => {
                    out.push(5);
                    put_u64(out, step);
                }
                RecoveryAction::ReshardedToSurvivors { step, node, live } => {
                    out.push(6);
                    put_u64(out, step);
                    put_u32(out, node);
                    put_u32(out, live);
                }
                RecoveryAction::NodeRejoined { step, node, state_bytes } => {
                    out.push(7);
                    put_u64(out, step);
                    put_u32(out, node);
                    put_u64(out, state_bytes);
                }
            }
        }
        // Dense parameters.
        put_counted(out, &self.dense_params, f32::to_le_bytes);
        // Embedding tables.
        put_u32(out, self.tables.len() as u32);
        for t in &self.tables {
            put_u32(out, t.rows);
            put_u32(out, t.dim);
            put_words(out, &t.weights, f32::to_le_bytes);
        }
        let crc = crc32(out);
        put_u32(out, crc);
        buf
    }

    /// Parses and validates a container (magic, version, CRC, structure).
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        if data.len() < 4 {
            return Err(CheckpointError::Truncated("crc trailer"));
        }
        let (payload, trailer) = data.split_at(data.len() - 4);
        if trailer != crc32(payload).to_le_bytes() {
            return Err(CheckpointError::BadChecksum);
        }
        let r = &mut Reader::new(payload);
        if r.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let config_seed = r.u64()?;
        let epoch = r.u32()?;
        let hot_cursor = r.u64()?;
        let cold_cursor = r.u64()?;
        let steps = r.u64()?;
        let hot_steps = r.u64()?;
        let cold_steps = r.u64()?;
        let transitions = r.u64()?;
        let gpus_active = r.u32()?;
        let cold_only = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Corrupt("cold_only flag")),
        };
        // Scheduler.
        let rate = r.u32()?;
        let has_prev = r.u8()?;
        let prev_loss = flag(has_prev, r.f64()?, "prev_loss flag")?;
        let improving_streak = r.u32()?;
        let u = r.u32()?;
        let hist_len = r.count(12)?;
        let mut sched_history = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            sched_history.push((r.f64()?, r.u32()?));
        }
        // Timeline.
        let mut timeline = Timeline::new();
        for phase in Phase::ALL {
            let secs = r.f64()?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(CheckpointError::Corrupt("negative or non-finite phase time"));
            }
            timeline.add(phase, secs);
        }
        let cpu_res = r.f64()?;
        if !cpu_res.is_finite() || cpu_res < 0.0 {
            return Err(CheckpointError::Corrupt("negative or non-finite cpu-resident time"));
        }
        timeline.add_cpu_resident(cpu_res);
        // Eval history.
        let n_hist = r.count(53)?;
        let mut history = Vec::with_capacity(n_hist);
        for _ in 0..n_hist {
            let iteration = r.u64()? as usize;
            let test_loss = r.f64()?;
            let test_accuracy = r.f64()?;
            let has_rate = r.u8()?;
            let rate = flag(has_rate, r.u32()?, "eval rate flag")?;
            let hot_steps = r.u64()? as usize;
            let cold_steps = r.u64()? as usize;
            let sim_seconds = r.f64()?;
            if !sim_seconds.is_finite() || sim_seconds < 0.0 {
                return Err(CheckpointError::Corrupt("negative or non-finite eval sim time"));
            }
            history.push(EvalPoint {
                iteration,
                test_loss,
                test_accuracy,
                rate,
                hot_steps,
                cold_steps,
                sim_seconds,
            });
        }
        // Fault log.
        let n_faults = r.count(17)?;
        let mut faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let kind = FaultKind::from_tag(r.u8()?)
                .ok_or(CheckpointError::Corrupt("unknown fault kind"))?;
            faults.push(InjectedFault { kind, at: r.u64()?, step: r.u64()? });
        }
        // Recovery log: every record is at least its tag.
        let n_rec = r.count(1)?;
        let mut recoveries = Vec::with_capacity(n_rec);
        for _ in 0..n_rec {
            recoveries.push(match r.u8()? {
                0 => {
                    RecoveryAction::ShrankReplicas { step: r.u64()?, from: r.u32()?, to: r.u32()? }
                }
                1 => RecoveryAction::ColdFallback { step: r.u64()? },
                2 => RecoveryAction::SyncRetried {
                    step: r.u64()?,
                    attempts: r.u32()?,
                    waited_s: r.f64()?,
                },
                3 => RecoveryAction::RetriedIo { attempts: r.u32()?, waited_s: r.f64()? },
                4 => RecoveryAction::RebuiltArtifacts,
                5 => RecoveryAction::ResumedFromCheckpoint { step: r.u64()? },
                6 => RecoveryAction::ReshardedToSurvivors {
                    step: r.u64()?,
                    node: r.u32()?,
                    live: r.u32()?,
                },
                7 => RecoveryAction::NodeRejoined {
                    step: r.u64()?,
                    node: r.u32()?,
                    state_bytes: r.u64()?,
                },
                _ => return Err(CheckpointError::Corrupt("unknown recovery tag")),
            });
        }
        // Dense parameters.
        let dense_params = r.counted(f32::from_le_bytes)?;
        // Embedding tables.
        let n_tables = r.count(8)?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let rows = r.u32()?;
            let dim = r.u32()?;
            let weights = r
                .words((rows as usize).saturating_mul(dim as usize), f32::from_le_bytes)?
                .collect();
            tables.push(TableSnapshot { rows, dim, weights });
        }
        if r.remaining() > 0 {
            return Err(CheckpointError::Corrupt("trailing bytes before crc"));
        }
        Ok(Self {
            config_seed,
            epoch,
            hot_cursor,
            cold_cursor,
            steps,
            hot_steps,
            cold_steps,
            transitions,
            gpus_active,
            cold_only,
            scheduler: SchedulerState {
                rate,
                prev_loss,
                improving_streak,
                u,
                history: sched_history,
            },
            timeline,
            history,
            faults,
            recoveries,
            dense_params,
            tables,
        })
    }

    /// Writes the checkpoint into `dir` as `ckpt-<steps>.faeck`,
    /// atomically (temp file in the same directory, then rename).
    /// Returns the final path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(dir)?;
        let name = format!("{FILE_PREFIX}{:012}{FILE_SUFFIX}", self.steps);
        let path = dir.join(&name);
        let tmp = dir.join(format!("{name}.tmp"));
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Reads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&fs::read(path)?)
    }
}

/// Finds the most recent checkpoint (highest step count) in `dir`.
/// Returns `Ok(None)` when the directory is missing or holds none.
pub fn latest_in(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(FILE_PREFIX).and_then(|s| s.strip_suffix(FILE_SUFFIX))
        else {
            continue;
        };
        let Ok(steps) = stem.parse::<u64>() else { continue };
        if best.as_ref().is_none_or(|(b, _)| steps > *b) {
            best = Some((steps, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// A presence flag and the value written after it whether present or
/// not: `0` is `None`, `1` is `Some(value)`, anything else is corrupt.
fn flag<T>(tag: u8, value: T, what: &'static str) -> Result<Option<T>, CheckpointError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(value)),
        _ => Err(CheckpointError::Corrupt(what)),
    }
}

/// CRC-32 fingerprint of the *model* alone: flattened dense parameters
/// plus the master embedding tables. Unlike [`TrainCheckpoint::digest`]
/// it ignores scheduler/timeline/fault state, so a distributed run and a
/// single-process run that trained the same weights compare equal even
/// though their fault logs differ.
pub fn model_digest(dense_params: &[f32], tables: &[TableSnapshot]) -> u32 {
    let mut h = digest_dense(dense_params, tables.len());
    for t in tables {
        h.update(&t.rows.to_le_bytes());
        h.update(&t.dim.to_le_bytes());
        h.update_f32s(&t.weights);
    }
    h.finish()
}

/// [`model_digest`] streamed straight off the master: the same bytes in
/// the same order, without materialising a snapshot of any table.
pub fn master_digest(dense_params: &[f32], master: &MasterEmbeddings) -> u32 {
    let mut h = digest_dense(dense_params, master.num_tables());
    for t in 0..master.num_tables() {
        h.update(&(master.rows_in(t) as u32).to_le_bytes());
        h.update(&(master.dim() as u32).to_le_bytes());
        master.stream_table(t, |w| h.update_f32s(w));
    }
    h.finish()
}

/// The part of the model digest both forms share: the dense parameters
/// and the table count.
fn digest_dense(dense_params: &[f32], tables: usize) -> Crc32 {
    let mut h = Crc32::new();
    h.update(&(dense_params.len() as u32).to_le_bytes());
    h.update_f32s(dense_params);
    h.update(&(tables as u32).to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
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
                RecoveryAction::ReshardedToSurvivors { step: 70, node: 1, live: 2 },
                RecoveryAction::NodeRejoined { step: 90, node: 1, state_bytes: 4096 },
            ],
            dense_params: vec![0.1, -0.2, 0.3],
            tables: vec![
                TableSnapshot { rows: 2, dim: 3, weights: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0] },
                TableSnapshot { rows: 1, dim: 3, weights: vec![-1.0, -2.0, -3.0] },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let ck = sample();
        let bytes = ck.encode();
        let back = TrainCheckpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ck);
    }

    #[test]
    fn crc_guards_every_byte() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(TrainCheckpoint::decode(&bad).is_err(), "flipping byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                TrainCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_latest_finds_newest() {
        let dir = std::env::temp_dir().join("fae-ckpt-test");
        let _ = fs::remove_dir_all(&dir);
        assert!(latest_in(&dir).expect("missing dir is not an error").is_none());
        let mut a = sample();
        a.steps = 100;
        let mut b = sample();
        b.steps = 250;
        a.save(&dir).expect("save a");
        let pb = b.save(&dir).expect("save b");
        // No temp residue.
        let residue: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        assert_eq!(latest_in(&dir).expect("scan").as_deref(), Some(pb.as_path()));
        let loaded = TrainCheckpoint::load(&pb).expect("load");
        assert_eq!(loaded.steps, 250);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn master_snapshot_restores_identically() {
        use fae_data::WorkloadSpec;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(9);
        let master = MasterEmbeddings::from_spec(&spec, &mut rng);
        let mut ck = sample();
        ck.tables = TrainCheckpoint::snapshot_master(&master);
        let back = ck.restore_master();
        assert_eq!(TrainCheckpoint::snapshot_master(&back), ck.tables);
    }

    #[test]
    fn streamed_digest_equals_the_snapshot_digest_for_f32_and_int8_masters() {
        use fae_data::WorkloadSpec;
        use fae_embed::{AccessCounter, HotColdPartition};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = WorkloadSpec::tiny_test();
        let partitions: Vec<HotColdPartition> = spec
            .tables
            .iter()
            .map(|t| {
                let mut c = AccessCounter::new(t.rows);
                (0..t.rows).step_by(3).for_each(|r| c.record(r as u32));
                HotColdPartition::from_counts(&c, 1)
            })
            .collect();
        let dense = [0.5f32, -0.0, f32::MIN_POSITIVE, 3.25];
        let f32_master = MasterEmbeddings::from_spec(&spec, &mut StdRng::seed_from_u64(4));
        let int8_master =
            MasterEmbeddings::from_spec_tiered(&spec, &partitions, &mut StdRng::seed_from_u64(4));
        assert!(int8_master.is_tiered() && !f32_master.is_tiered());
        for master in [&f32_master, &int8_master] {
            let snapshot = TrainCheckpoint::snapshot_master(master);
            assert_eq!(master_digest(&dense, master), model_digest(&dense, &snapshot));
        }
        assert_ne!(master_digest(&dense, &f32_master), master_digest(&dense, &int8_master));
    }

    #[test]
    fn adversarial_declared_sizes_do_not_allocate_or_panic() {
        // A header that claims u32::MAX scheduler-history entries on a
        // tiny buffer must fail cleanly (Truncated), not try to allocate.
        let mut bytes = sample().encode();
        // scheduler history length sits after: magic(4)+ver(4)+seed(8)+
        // epoch(4)+cursors(16)+counters(32)+gpus(4)+cold(1)+rate(4)+
        // prev(1+8)+streak(4)+u(4) = offset 94.
        bytes[94..98].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(TrainCheckpoint::decode(&bytes), Err(CheckpointError::Truncated(_))));
    }
}
