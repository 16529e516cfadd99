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
//! untrusted: every read is bounds-checked, sizes are checked for
//! overflow, and the CRC is verified before any field is trusted —
//! corruption yields [`CheckpointError`], never a panic.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};

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
            CheckpointError::Truncated(what) => {
                write!(f, "checkpoint truncated while reading {what}")
            }
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
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.config_seed);
        buf.put_u32_le(self.epoch);
        buf.put_u64_le(self.hot_cursor);
        buf.put_u64_le(self.cold_cursor);
        buf.put_u64_le(self.steps);
        buf.put_u64_le(self.hot_steps);
        buf.put_u64_le(self.cold_steps);
        buf.put_u64_le(self.transitions);
        buf.put_u32_le(self.gpus_active);
        buf.put_u8(self.cold_only as u8);
        // Scheduler.
        buf.put_u32_le(self.scheduler.rate);
        match self.scheduler.prev_loss {
            Some(l) => {
                buf.put_u8(1);
                buf.put_f64_le(l);
            }
            None => {
                buf.put_u8(0);
                buf.put_f64_le(0.0);
            }
        }
        buf.put_u32_le(self.scheduler.improving_streak);
        buf.put_u32_le(self.scheduler.u);
        buf.put_u32_le(self.scheduler.history.len() as u32);
        for &(loss, rate) in &self.scheduler.history {
            buf.put_f64_le(loss);
            buf.put_u32_le(rate);
        }
        // Timeline: the eight phases in display order, then CPU-resident.
        for phase in Phase::ALL {
            buf.put_f64_le(self.timeline.get(phase));
        }
        buf.put_f64_le(self.timeline.cpu_resident());
        // Eval history.
        buf.put_u32_le(self.history.len() as u32);
        for p in &self.history {
            buf.put_u64_le(p.iteration as u64);
            buf.put_f64_le(p.test_loss);
            buf.put_f64_le(p.test_accuracy);
            match p.rate {
                Some(r) => {
                    buf.put_u8(1);
                    buf.put_u32_le(r);
                }
                None => {
                    buf.put_u8(0);
                    buf.put_u32_le(0);
                }
            }
            buf.put_u64_le(p.hot_steps as u64);
            buf.put_u64_le(p.cold_steps as u64);
            buf.put_f64_le(p.sim_seconds);
        }
        // Fault log.
        buf.put_u32_le(self.faults.len() as u32);
        for f in &self.faults {
            buf.put_u8(f.kind.tag());
            buf.put_u64_le(f.at);
            buf.put_u64_le(f.step);
        }
        // Recovery log.
        buf.put_u32_le(self.recoveries.len() as u32);
        for r in &self.recoveries {
            match *r {
                RecoveryAction::ShrankReplicas { step, from, to } => {
                    buf.put_u8(0);
                    buf.put_u64_le(step);
                    buf.put_u32_le(from);
                    buf.put_u32_le(to);
                }
                RecoveryAction::ColdFallback { step } => {
                    buf.put_u8(1);
                    buf.put_u64_le(step);
                }
                RecoveryAction::SyncRetried { step, attempts, waited_s } => {
                    buf.put_u8(2);
                    buf.put_u64_le(step);
                    buf.put_u32_le(attempts);
                    buf.put_f64_le(waited_s);
                }
                RecoveryAction::RetriedIo { attempts, waited_s } => {
                    buf.put_u8(3);
                    buf.put_u32_le(attempts);
                    buf.put_f64_le(waited_s);
                }
                RecoveryAction::RebuiltArtifacts => buf.put_u8(4),
                RecoveryAction::ResumedFromCheckpoint { step } => {
                    buf.put_u8(5);
                    buf.put_u64_le(step);
                }
                RecoveryAction::ReshardedToSurvivors { step, node, live } => {
                    buf.put_u8(6);
                    buf.put_u64_le(step);
                    buf.put_u32_le(node);
                    buf.put_u32_le(live);
                }
                RecoveryAction::NodeRejoined { step, node, state_bytes } => {
                    buf.put_u8(7);
                    buf.put_u64_le(step);
                    buf.put_u32_le(node);
                    buf.put_u64_le(state_bytes);
                }
            }
        }
        // Dense parameters.
        buf.put_u32_le(self.dense_params.len() as u32);
        put_f32s_le(&mut buf, &self.dense_params);
        // Embedding tables.
        buf.put_u32_le(self.tables.len() as u32);
        for t in &self.tables {
            buf.put_u32_le(t.rows);
            buf.put_u32_le(t.dim);
            put_f32s_le(&mut buf, &t.weights);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf
    }

    /// Parses and validates a container (magic, version, CRC, structure).
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        if data.len() < 4 {
            return Err(CheckpointError::Truncated("crc trailer"));
        }
        let (payload, trailer) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(payload) != stored {
            return Err(CheckpointError::BadChecksum);
        }
        let mut buf = payload;
        let buf = &mut buf;
        need(buf, 8, "header")?;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        need(buf, 8 + 4 + 8 * 6 + 4 + 1, "run state")?;
        let config_seed = buf.get_u64_le();
        let epoch = buf.get_u32_le();
        let hot_cursor = buf.get_u64_le();
        let cold_cursor = buf.get_u64_le();
        let steps = buf.get_u64_le();
        let hot_steps = buf.get_u64_le();
        let cold_steps = buf.get_u64_le();
        let transitions = buf.get_u64_le();
        let gpus_active = buf.get_u32_le();
        let cold_only = match buf.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Corrupt("cold_only flag")),
        };
        // Scheduler.
        need(buf, 4 + 1 + 8 + 4 + 4 + 4, "scheduler state")?;
        let rate = buf.get_u32_le();
        let has_prev = buf.get_u8();
        let prev_raw = buf.get_f64_le();
        let prev_loss = match has_prev {
            0 => None,
            1 => Some(prev_raw),
            _ => return Err(CheckpointError::Corrupt("prev_loss flag")),
        };
        let improving_streak = buf.get_u32_le();
        let u = buf.get_u32_le();
        let hist_len = buf.get_u32_le() as usize;
        need(buf, checked(hist_len, 12, "scheduler history")?, "scheduler history")?;
        let mut sched_history = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            let loss = buf.get_f64_le();
            let r = buf.get_u32_le();
            sched_history.push((loss, r));
        }
        // Timeline.
        need(buf, 8 * 9, "timeline")?;
        let mut timeline = Timeline::new();
        for phase in Phase::ALL {
            let secs = buf.get_f64_le();
            if !secs.is_finite() || secs < 0.0 {
                return Err(CheckpointError::Corrupt("negative or non-finite phase time"));
            }
            timeline.add(phase, secs);
        }
        let cpu_res = buf.get_f64_le();
        if !cpu_res.is_finite() || cpu_res < 0.0 {
            return Err(CheckpointError::Corrupt("negative or non-finite cpu-resident time"));
        }
        timeline.add_cpu_resident(cpu_res);
        // Eval history.
        need(buf, 4, "eval history length")?;
        let n_hist = buf.get_u32_le() as usize;
        need(buf, checked(n_hist, 53, "eval history")?, "eval history")?;
        let mut history = Vec::with_capacity(n_hist);
        for _ in 0..n_hist {
            let iteration = buf.get_u64_le() as usize;
            let test_loss = buf.get_f64_le();
            let test_accuracy = buf.get_f64_le();
            let has_rate = buf.get_u8();
            let rate_raw = buf.get_u32_le();
            let rate = match has_rate {
                0 => None,
                1 => Some(rate_raw),
                _ => return Err(CheckpointError::Corrupt("eval rate flag")),
            };
            let hot_steps = buf.get_u64_le() as usize;
            let cold_steps = buf.get_u64_le() as usize;
            let sim_seconds = buf.get_f64_le();
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
        need(buf, 4, "fault log length")?;
        let n_faults = buf.get_u32_le() as usize;
        need(buf, checked(n_faults, 17, "fault log")?, "fault log")?;
        let mut faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let kind = FaultKind::from_tag(buf.get_u8())
                .ok_or(CheckpointError::Corrupt("unknown fault kind"))?;
            let at = buf.get_u64_le();
            let step = buf.get_u64_le();
            faults.push(InjectedFault { kind, at, step });
        }
        // Recovery log.
        need(buf, 4, "recovery log length")?;
        let n_rec = buf.get_u32_le() as usize;
        let mut recoveries = Vec::with_capacity(n_rec.min(1024));
        for _ in 0..n_rec {
            need(buf, 1, "recovery tag")?;
            let action = match buf.get_u8() {
                0 => {
                    need(buf, 16, "shrank-replicas record")?;
                    RecoveryAction::ShrankReplicas {
                        step: buf.get_u64_le(),
                        from: buf.get_u32_le(),
                        to: buf.get_u32_le(),
                    }
                }
                1 => {
                    need(buf, 8, "cold-fallback record")?;
                    RecoveryAction::ColdFallback { step: buf.get_u64_le() }
                }
                2 => {
                    need(buf, 20, "sync-retried record")?;
                    RecoveryAction::SyncRetried {
                        step: buf.get_u64_le(),
                        attempts: buf.get_u32_le(),
                        waited_s: buf.get_f64_le(),
                    }
                }
                3 => {
                    need(buf, 12, "retried-io record")?;
                    RecoveryAction::RetriedIo {
                        attempts: buf.get_u32_le(),
                        waited_s: buf.get_f64_le(),
                    }
                }
                4 => RecoveryAction::RebuiltArtifacts,
                5 => {
                    need(buf, 8, "resumed record")?;
                    RecoveryAction::ResumedFromCheckpoint { step: buf.get_u64_le() }
                }
                6 => {
                    need(buf, 16, "resharded record")?;
                    RecoveryAction::ReshardedToSurvivors {
                        step: buf.get_u64_le(),
                        node: buf.get_u32_le(),
                        live: buf.get_u32_le(),
                    }
                }
                7 => {
                    need(buf, 20, "node-rejoined record")?;
                    RecoveryAction::NodeRejoined {
                        step: buf.get_u64_le(),
                        node: buf.get_u32_le(),
                        state_bytes: buf.get_u64_le(),
                    }
                }
                _ => return Err(CheckpointError::Corrupt("unknown recovery tag")),
            };
            recoveries.push(action);
        }
        // Dense parameters.
        need(buf, 4, "dense param count")?;
        let n_params = buf.get_u32_le() as usize;
        need(buf, checked(n_params, 4, "dense params")?, "dense params")?;
        let mut dense_params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            dense_params.push(buf.get_f32_le());
        }
        // Embedding tables.
        need(buf, 4, "table count")?;
        let n_tables = buf.get_u32_le() as usize;
        let mut tables = Vec::with_capacity(n_tables.min(4096));
        for _ in 0..n_tables {
            need(buf, 8, "table header")?;
            let rows = buf.get_u32_le();
            let dim = buf.get_u32_le();
            let count = checked(rows as usize, dim as usize, "table size")?;
            need(buf, checked(count, 4, "table weights")?, "table weights")?;
            let mut weights = Vec::with_capacity(count);
            for _ in 0..count {
                weights.push(buf.get_f32_le());
            }
            tables.push(TableSnapshot { rows, dim, weights });
        }
        if buf.remaining() > 0 {
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

fn need(buf: &[u8], n: usize, what: &'static str) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(CheckpointError::Truncated(what))
    } else {
        Ok(())
    }
}

fn checked(elems: usize, width: usize, what: &'static str) -> Result<usize, CheckpointError> {
    elems.checked_mul(width).ok_or(CheckpointError::Corrupt(what))
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

/// Writes `v` as little-endian bytes into `dst` (`4 * v.len()` long); on
/// a little-endian target this compiles to a plain copy.
fn fill_f32s_le(dst: &mut [u8], v: &[f32]) {
    for (d, x) in dst.chunks_exact_mut(4).zip(v) {
        d.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_f32s_le(out: &mut Vec<u8>, v: &[f32]) {
    let at = out.len();
    out.resize(at + v.len() * 4, 0);
    fill_f32s_le(&mut out[at..], v);
}

/// Bytes folded per round of the slicing-by-8 loop.
const STRIDE: usize = 8;

/// Slicing-by-8 lookup tables for the reflected polynomial 0xEDB88320:
/// `CRC_TABLES[0]` is the classic byte table, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the state with eight independent lookups.
static CRC_TABLES: [[u32; 256]; STRIDE] = {
    let mut t = [[0u32; 256]; STRIDE];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320):
/// feeding a buffer in any split gives the checksum of the whole, so a
/// digest can stream over tables it never concatenates.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(STRIDE);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Folds the little-endian bytes of `v` into the checksum, through a
    /// small stack buffer — what `update` over the encoded floats would
    /// give, without encoding them anywhere.
    pub fn update_f32s(&mut self, v: &[f32]) {
        let mut bytes = [0u8; 4096];
        for part in v.chunks(bytes.len() / 4) {
            let n = part.len() * 4;
            fill_f32s_le(&mut bytes[..n], part);
            self.update(&bytes[..n]);
        }
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `data` in one call. Public so the wire protocol (`fae-net`)
/// frames carry the same checksum the on-disk containers do.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
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
    fn crc_of_any_split_is_the_crc_of_the_whole() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
        // Floats fed as floats hash like their little-endian bytes, across
        // the stack buffer's boundary too.
        let floats: Vec<f32> = (0..2_500).map(|i| i as f32 * 0.37 - 400.0).collect();
        let bytes: Vec<u8> = floats.iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut h = Crc32::new();
        h.update_f32s(&floats);
        assert_eq!(h.finish(), crc32(&bytes));
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
