//! Frame and payload codecs for the FAE wire protocol.
//!
//! A frame on the wire is a little-endian length prefix followed by the
//! frame body and a CRC-32 trailer:
//!
//! ```text
//! u32 len        bytes after this prefix (body + crc)
//! [ body ]
//!   magic  [u8; 4]   "FAEN"
//!   version u16      protocol version (1)
//!   kind    u8       message kind tag
//!   node    u32      worker node id (sender or addressee)
//!   epoch   u32      membership generation the frame belongs to
//!   seq     u64      per-coordinator monotone sequence number
//!   step    u64      training step the frame is about
//!   payload ...      kind-specific, see [`Message`]
//! u32 crc        CRC-32 over the body (same polynomial/table as the
//!                checkpoint container, `fae_core::checkpoint::crc32`)
//! ```
//!
//! A frame is written in one pass into one buffer ([`Frame::encode_into`]:
//! length placeholder, header, payload, CRC, length patched in) and its
//! `f32` / `u32` / `u64` runs are copied as slices in both directions, so
//! the codec costs about one checksum over the bytes.
//!
//! Replies echo the request's `seq`, `epoch` and `step`, which is what
//! lets the coordinator discard stale or duplicated replies and lets the
//! worker-side [`crate::Ledger`] drop replayed state mutations. Every
//! numeric field — including each `f32` — round-trips bit-exactly, a
//! precondition for the distributed run matching the single-process model
//! digest.
//!
//! Decoding is fully bounds-checked and never panics: torn, truncated or
//! bit-flipped frames surface as [`NetError::Corrupt`], and so does a
//! frame whose checksum is right but whose structure is not (a count past
//! the payload, CSR offsets out of order, a sparse table whose rows are
//! not strictly ascending, bytes left over).

use fae_core::checkpoint::crc32;
use fae_data::{BatchKind, MiniBatch, TableIndices};
use fae_embed::SparseGrad;
use fae_telemetry::StepMode;

/// Frame magic: distinguishes protocol traffic from stray connections.
pub const MAGIC: [u8; 4] = *b"FAEN";

/// Protocol version.
pub const VERSION: u16 = 1;

/// Hard cap on a frame body — a length prefix beyond this is corruption,
/// not a giant message, and is rejected before any allocation.
pub const MAX_FRAME: usize = 256 << 20;

/// Fixed header bytes before the payload (magic + version + kind + node
/// + epoch + seq + step).
const HEADER: usize = 4 + 2 + 1 + 4 + 4 + 8 + 8;

/// Transport and protocol failures.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// A read or write missed its deadline.
    Timeout(&'static str),
    /// The peer closed the connection.
    Disconnected,
    /// A frame failed structural validation (bad magic/version/CRC,
    /// truncated payload, oversized length).
    Corrupt(String),
    /// A structurally valid frame violated the protocol (wrong kind,
    /// unparseable embedded JSON, bad node id).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Timeout(what) => write!(f, "deadline missed: {what}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One hot-bag row shipped at a refresh or in a welcome.
#[derive(Clone, Debug, PartialEq)]
pub struct HotEntry {
    /// Embedding table index.
    pub table: u32,
    /// Global row id within the table.
    pub row: u32,
    /// The row's weights.
    pub values: Vec<f32>,
}

impl HotEntry {
    /// Bytes this entry occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        4 + 4 + 4 + self.values.len() * 4
    }
}

/// The protocol's message kinds.
#[derive(Clone, Debug)]
pub enum Message {
    /// Worker → coordinator: request admission (node id in the header).
    Hello,
    /// Coordinator → worker: admission plus the state bootstrap — the
    /// worker replays the seeded RNG construction for bit-identical
    /// initial tables, then fast-forwards via `dense` and `hot`.
    Welcome {
        /// Total logical worker count (fixed for the run).
        workers: u32,
        /// Model/master construction seed.
        seed: u64,
        /// The workload spec, JSON.
        spec_json: String,
        /// Hot/cold partitions, JSON (empty until the first refresh).
        partitions_json: String,
        /// Current dense parameters of the coordinator's replicas.
        dense: Vec<f32>,
        /// Hot-bag rows as of the last refresh.
        hot: Vec<HotEntry>,
    },
    /// Coordinator → worker: compute one shard's forward/backward.
    Task {
        /// Full mini-batch sample count (the gradient scale denominator).
        total: u32,
        /// Hot (worker's hot bags) or cold (worker's master tables).
        mode: StepMode,
        /// The shard itself.
        shard: MiniBatch,
    },
    /// Worker → coordinator: the shard's output, mirror of
    /// [`fae_core::exec::ShardOutput`].
    Grads {
        /// Shard-mean loss, grad-scaled.
        loss: f32,
        /// Samples in the shard.
        samples: u32,
        /// Dense gradients.
        dense: Vec<f32>,
        /// Per-table sparse gradients.
        sparse: Vec<SparseGrad>,
    },
    /// Coordinator → worker: apply the reduced step so replicas stay
    /// bit-identical. Idempotent under the ledger.
    Apply {
        /// Which embedding source the sparse update targets.
        mode: StepMode,
        /// Learning rate.
        lr: f32,
        /// Reduced dense gradient (every replica applies it).
        dense: Vec<f32>,
        /// Merged sparse gradients (hot steps only; empty for cold).
        sparse: Vec<SparseGrad>,
    },
    /// Worker → coordinator: a state mutation was applied (or was a
    /// detected duplicate and skipped).
    Ack,
    /// Coordinator → worker: refreshed hot-bag rows (and the partitions
    /// defining them). Idempotent under the ledger.
    HotBagSync {
        /// Hot/cold partitions, JSON.
        partitions_json: String,
        /// Every hot row, refreshed from the master tables.
        hot: Vec<HotEntry>,
    },
    /// Coordinator → worker: liveness probe.
    Heartbeat,
    /// Worker → coordinator: liveness reply.
    HeartbeatAck,
    /// Coordinator → worker: the run is over, exit cleanly.
    Shutdown,
    /// Coordinator → worker: ship your journal events from sequence
    /// `ack` on. Strictly coordinator-initiated, like every other RPC —
    /// workers never push.
    TelemetryPoll {
        /// The coordinator's acknowledged cursor: the first per-node
        /// event sequence number it has *not* yet persisted.
        ack: u64,
    },
    /// Worker → coordinator: a batch of tagged journal lines (JSONL,
    /// one event per line) starting at sequence `from`. Retried polls
    /// re-ship from the same cursor; the coordinator's ship ledger
    /// drops the duplicated prefix, making delivery exactly-once.
    Telemetry {
        /// Per-node sequence number of the first line in the batch
        /// (echoes the poll's `ack`).
        from: u64,
        /// The events, newline-separated; empty when caught up.
        events_jsonl: String,
    },
}

impl Message {
    /// Stable wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello => 0,
            Message::Welcome { .. } => 1,
            Message::Task { .. } => 2,
            Message::Grads { .. } => 3,
            Message::Apply { .. } => 4,
            Message::Ack => 5,
            Message::HotBagSync { .. } => 6,
            Message::Heartbeat => 7,
            Message::HeartbeatAck => 8,
            Message::Shutdown => 9,
            Message::TelemetryPoll { .. } => 10,
            Message::Telemetry { .. } => 11,
        }
    }

    /// Human-readable kind name (journal/log labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Hello => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Task { .. } => "task",
            Message::Grads { .. } => "grads",
            Message::Apply { .. } => "apply",
            Message::Ack => "ack",
            Message::HotBagSync { .. } => "hot-bag-sync",
            Message::Heartbeat => "heartbeat",
            Message::HeartbeatAck => "heartbeat-ack",
            Message::Shutdown => "shutdown",
            Message::TelemetryPoll { .. } => "telemetry-poll",
            Message::Telemetry { .. } => "telemetry",
        }
    }

    /// True for kinds that mutate worker state and must be deduplicated
    /// by the ledger (as opposed to pure recomputation or probes).
    pub fn mutates_state(&self) -> bool {
        matches!(self, Message::Apply { .. } | Message::HotBagSync { .. })
    }
}

/// One addressed, sequenced protocol message.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Worker node id (sender for worker→coordinator, addressee for
    /// coordinator→worker).
    pub node: u32,
    /// Membership generation.
    pub epoch: u32,
    /// Coordinator-assigned sequence number (replies echo it).
    pub seq: u64,
    /// Training step this frame is about.
    pub step: u64,
    /// The payload.
    pub msg: Message,
}

impl Frame {
    /// Encodes the frame ready to send: length prefix, body, CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`Frame::encode`] into a caller-owned buffer (cleared first), so a
    /// connection that sends many frames reuses one allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        write_frame(out, self.msg.tag(), self.node, self.epoch, self.seq, self.step, |out| {
            encode_payload(&self.msg, out)
        });
    }

    /// Decodes a frame from `bytes` — everything after the length
    /// prefix, CRC trailer included.
    pub fn decode(bytes: &[u8]) -> Result<Frame, NetError> {
        if bytes.len() < HEADER + 4 {
            return Err(NetError::Corrupt(format!("frame too short: {} bytes", bytes.len())));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let got = crc32(body);
        if want != got {
            return Err(NetError::Corrupt(format!("crc mismatch: {want:#010x} != {got:#010x}")));
        }
        let mut rd = Rd { buf: body, pos: 0 };
        let magic = rd.take(4)?;
        if magic != MAGIC {
            return Err(NetError::Corrupt("bad magic".into()));
        }
        let version = rd.u16()?;
        if version != VERSION {
            return Err(NetError::Corrupt(format!("unsupported version {version}")));
        }
        let kind = rd.u8()?;
        let node = rd.u32()?;
        let epoch = rd.u32()?;
        let seq = rd.u64()?;
        let step = rd.u64()?;
        let msg = decode_payload(kind, &mut rd)?;
        if rd.pos != rd.buf.len() {
            return Err(NetError::Corrupt(format!(
                "{} trailing bytes after payload",
                rd.buf.len() - rd.pos
            )));
        }
        Ok(Frame { node, epoch, seq, step, msg })
    }
}

/// Writes one whole frame into `out` in a single pass: a length
/// placeholder, the header, whatever `payload` appends, then the length
/// patched in and the CRC of the body appended. The one place the frame
/// layout is spelled out on the encode side.
pub(crate) fn write_frame(
    out: &mut Vec<u8>,
    tag: u8,
    node: u32,
    epoch: u32,
    seq: u64,
    step: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    out.clear();
    put_u32(out, 0);
    out.extend_from_slice(&MAGIC);
    put_u16(out, VERSION);
    out.push(tag);
    put_u32(out, node);
    put_u32(out, epoch);
    put_u64(out, seq);
    put_u64(out, step);
    payload(out);
    let crc = crc32(&out[4..]);
    put_u32(out, crc);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

fn step_mode_tag(mode: StepMode) -> u8 {
    match mode {
        StepMode::Cold => 0,
        StepMode::Hot => 1,
    }
}

fn step_mode_from(tag: u8) -> Result<StepMode, NetError> {
    match tag {
        0 => Ok(StepMode::Cold),
        1 => Ok(StepMode::Hot),
        other => Err(NetError::Corrupt(format!("bad step mode tag {other}"))),
    }
}

fn batch_kind_tag(kind: BatchKind) -> u8 {
    match kind {
        BatchKind::Cold => 0,
        BatchKind::Hot => 1,
        BatchKind::Unclassified => 2,
    }
}

fn batch_kind_from(tag: u8) -> Result<BatchKind, NetError> {
    match tag {
        0 => Ok(BatchKind::Cold),
        1 => Ok(BatchKind::Hot),
        2 => Ok(BatchKind::Unclassified),
        other => Err(NetError::Corrupt(format!("bad batch kind tag {other}"))),
    }
}

pub(crate) fn encode_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello
        | Message::Ack
        | Message::Heartbeat
        | Message::HeartbeatAck
        | Message::Shutdown => {}
        Message::TelemetryPoll { ack } => {
            put_u64(out, *ack);
        }
        Message::Telemetry { from, events_jsonl } => {
            put_u64(out, *from);
            put_str(out, events_jsonl);
        }
        Message::Welcome { workers, seed, spec_json, partitions_json, dense, hot } => {
            put_u32(out, *workers);
            put_u64(out, *seed);
            put_str(out, spec_json);
            put_str(out, partitions_json);
            put_f32s(out, dense);
            put_entries(out, hot);
        }
        Message::Task { total, mode, shard } => {
            put_u32(out, *total);
            out.push(step_mode_tag(*mode));
            put_batch(out, shard);
        }
        Message::Grads { loss, samples, dense, sparse } => {
            put_f32(out, *loss);
            put_u32(out, *samples);
            put_f32s(out, dense);
            put_sparse(out, sparse);
        }
        Message::Apply { mode, lr, dense, sparse } => {
            out.push(step_mode_tag(*mode));
            put_f32(out, *lr);
            put_f32s(out, dense);
            put_sparse(out, sparse);
        }
        Message::HotBagSync { partitions_json, hot } => {
            put_str(out, partitions_json);
            put_entries(out, hot);
        }
    }
}

fn decode_payload(kind: u8, rd: &mut Rd<'_>) -> Result<Message, NetError> {
    Ok(match kind {
        0 => Message::Hello,
        1 => Message::Welcome {
            workers: rd.u32()?,
            seed: rd.u64()?,
            spec_json: rd.str_()?,
            partitions_json: rd.str_()?,
            dense: rd.f32s()?,
            hot: rd.entries()?,
        },
        2 => {
            Message::Task { total: rd.u32()?, mode: step_mode_from(rd.u8()?)?, shard: rd.batch()? }
        }
        3 => Message::Grads {
            loss: rd.f32()?,
            samples: rd.u32()?,
            dense: rd.f32s()?,
            sparse: rd.sparse()?,
        },
        4 => Message::Apply {
            mode: step_mode_from(rd.u8()?)?,
            lr: rd.f32()?,
            dense: rd.f32s()?,
            sparse: rd.sparse()?,
        },
        5 => Message::Ack,
        6 => Message::HotBagSync { partitions_json: rd.str_()?, hot: rd.entries()? },
        7 => Message::Heartbeat,
        8 => Message::HeartbeatAck,
        9 => Message::Shutdown,
        10 => Message::TelemetryPoll { ack: rd.u64()? },
        11 => Message::Telemetry { from: rd.u64()?, events_jsonl: rd.str_()? },
        other => return Err(NetError::Corrupt(format!("unknown message kind {other}"))),
    })
}

// ---- encoders --------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bulk little-endian slice codecs. `to_le_bytes` over `chunks_exact`
/// compiles to a plain copy on a little-endian target, which is what
/// makes these one pass over the bytes rather than a call per element.
macro_rules! le_slices {
    ($put:ident, $get:ident, $t:ty, $width:literal, $to:expr, $from:expr) => {
        fn $put(out: &mut Vec<u8>, v: &[$t]) {
            let at = out.len();
            out.resize(at + v.len() * $width, 0);
            for (dst, x) in out[at..].chunks_exact_mut($width).zip(v) {
                dst.copy_from_slice(&$to(*x));
            }
        }

        fn $get(bytes: &[u8]) -> impl Iterator<Item = $t> + '_ {
            bytes.chunks_exact($width).map(|b| {
                let mut word = [0u8; $width];
                word.copy_from_slice(b);
                $from(word)
            })
        }
    };
}

le_slices!(put_f32_slice, get_f32_slice, f32, 4, f32::to_le_bytes, f32::from_le_bytes);
le_slices!(put_u32_slice, get_u32_slice, u32, 4, u32::to_le_bytes, u32::from_le_bytes);
// CSR offsets travel as u64 whatever the host's pointer width.
le_slices!(put_offset_slice, get_offset_slice, usize, 8, |o| (o as u64).to_le_bytes(), |w| {
    u64::from_le_bytes(w) as usize
});

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    put_f32_slice(out, v);
}

fn put_entries(out: &mut Vec<u8>, entries: &[HotEntry]) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        put_u32(out, e.table);
        put_u32(out, e.row);
        put_f32s(out, &e.values);
    }
}

fn put_sparse(out: &mut Vec<u8>, grads: &[SparseGrad]) {
    put_u32(out, grads.len() as u32);
    for g in grads {
        put_u32(out, g.dim() as u32);
        put_u32(out, g.nnz_rows() as u32);
        for (row, values) in g.iter() {
            put_u32(out, row);
            put_f32_slice(out, values);
        }
    }
}

fn put_batch(out: &mut Vec<u8>, b: &MiniBatch) {
    out.push(batch_kind_tag(b.kind));
    put_u32(out, b.dense_width as u32);
    put_f32s(out, &b.labels);
    put_f32s(out, &b.dense);
    put_u32(out, b.sparse.len() as u32);
    for t in &b.sparse {
        put_u32(out, t.indices.len() as u32);
        put_u32_slice(out, &t.indices);
        put_u32(out, t.offsets.len() as u32);
        put_offset_slice(out, &t.offsets);
    }
}

// ---- bounds-checked reader ------------------------------------------

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Corrupt(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f32(&mut self) -> Result<f32, NetError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u32` element count and checks the elements (each at
    /// least `elem_bytes` wide) actually fit in the remaining payload —
    /// a corrupt count can therefore never trigger a huge allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(NetError::Corrupt(format!(
                "element count {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str_(&mut self) -> Result<String, NetError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Corrupt("string payload is not utf-8".into()))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, NetError> {
        let n = self.count(4)?;
        Ok(get_f32_slice(self.take(n * 4)?).collect())
    }

    fn u32s(&mut self) -> Result<Vec<u32>, NetError> {
        let n = self.count(4)?;
        Ok(get_u32_slice(self.take(n * 4)?).collect())
    }

    fn usizes(&mut self) -> Result<Vec<usize>, NetError> {
        let n = self.count(8)?;
        Ok(get_offset_slice(self.take(n * 8)?).collect())
    }

    fn entries(&mut self) -> Result<Vec<HotEntry>, NetError> {
        let n = self.count(12)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let table = self.u32()?;
            let row = self.u32()?;
            let values = self.f32s()?;
            out.push(HotEntry { table, row, values });
        }
        Ok(out)
    }

    /// Each table is a run of `(row, dim values)` records. The encoder
    /// walks [`SparseGrad::iter`], so rows arrive strictly ascending; a
    /// run that does not is corruption, and holding to that lets the
    /// values be taken over bit for bit instead of re-accumulated.
    fn sparse(&mut self) -> Result<Vec<SparseGrad>, NetError> {
        let tables = self.count(8)?;
        let mut out = Vec::with_capacity(tables);
        for _ in 0..tables {
            let dim = self.u32()? as usize;
            let record = 4 + dim * 4;
            let n = self.count(record)?;
            let run = self.take(n * record)?;
            let mut rows = Vec::with_capacity(n);
            let mut values = Vec::with_capacity(n * dim);
            for rec in run.chunks_exact(record) {
                rows.push(u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]));
                values.extend(get_f32_slice(&rec[4..]));
            }
            let grad = SparseGrad::from_ascending_rows(dim, &rows, values).ok_or_else(|| {
                NetError::Corrupt("sparse gradient rows not strictly ascending".into())
            })?;
            out.push(grad);
        }
        Ok(out)
    }

    fn batch(&mut self) -> Result<MiniBatch, NetError> {
        let kind = batch_kind_from(self.u8()?)?;
        let dense_width = self.u32()? as usize;
        let labels = self.f32s()?;
        let dense = self.f32s()?;
        if dense.len() != labels.len() * dense_width {
            return Err(NetError::Corrupt(format!(
                "dense block is {} floats, want {} samples x {} features",
                dense.len(),
                labels.len(),
                dense_width
            )));
        }
        let tables = self.count(8)?;
        let mut sparse = Vec::with_capacity(tables);
        for _ in 0..tables {
            let indices = self.u32s()?;
            let offsets = self.usizes()?;
            if offsets.len() != labels.len() + 1 {
                return Err(NetError::Corrupt(format!(
                    "csr has {} offsets for {} samples",
                    offsets.len(),
                    labels.len()
                )));
            }
            let mut prev = 0usize;
            for &o in &offsets {
                if o < prev || o > indices.len() {
                    return Err(NetError::Corrupt("csr offsets not monotone in-range".into()));
                }
                prev = o;
            }
            sparse.push(TableIndices { indices, offsets });
        }
        Ok(MiniBatch { kind, dense, dense_width, sparse, labels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, GenOptions, WorkloadSpec};
    use proptest::prop_assert_eq;

    fn sample_batch() -> MiniBatch {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(7, 200));
        MiniBatch::gather(&ds, &(0..64).collect::<Vec<_>>(), BatchKind::Hot)
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers body + crc");
        Frame::decode(&bytes[4..]).expect("clean frame decodes")
    }

    #[test]
    fn empty_payload_kinds_round_trip() {
        for msg in [
            Message::Hello,
            Message::Ack,
            Message::Heartbeat,
            Message::HeartbeatAck,
            Message::Shutdown,
        ] {
            let tag = msg.tag();
            let f = Frame { node: 3, epoch: 7, seq: 99, step: 12, msg };
            let back = roundtrip(&f);
            assert_eq!(back.msg.tag(), tag);
            assert_eq!((back.node, back.epoch, back.seq, back.step), (3, 7, 99, 12));
        }
    }

    #[test]
    fn task_round_trips_bit_exactly() {
        let f = Frame {
            node: 1,
            epoch: 2,
            seq: 3,
            step: 4,
            msg: Message::Task { total: 256, mode: StepMode::Hot, shard: sample_batch() },
        };
        let back = roundtrip(&f);
        let Message::Task { shard, total, mode } = &back.msg else { panic!("wrong kind") };
        let Message::Task { shard: orig, .. } = &f.msg else { panic!() };
        assert_eq!(*total, 256);
        assert_eq!(*mode, StepMode::Hot);
        assert_eq!(shard.labels, orig.labels);
        assert_eq!(
            shard.dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            orig.dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(shard.sparse, orig.sparse);
    }

    #[test]
    fn grads_round_trip_preserves_sparse_rows() {
        let mut g = SparseGrad::new(4);
        g.accumulate(7, &[1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        g.accumulate(2, &[0.5; 4]);
        let f = Frame {
            node: 0,
            epoch: 1,
            seq: 10,
            step: 5,
            msg: Message::Grads {
                loss: 0.693,
                samples: 64,
                dense: vec![1.5, -0.25, f32::EPSILON],
                sparse: vec![g.clone(), SparseGrad::new(4)],
            },
        };
        let back = roundtrip(&f);
        let Message::Grads { sparse, loss, .. } = back.msg else { panic!("wrong kind") };
        assert_eq!(loss.to_bits(), 0.693f32.to_bits());
        assert_eq!(sparse[0].get(7), g.get(7));
        assert_eq!(sparse[0].get(2), g.get(2));
        assert!(sparse[1].is_empty());
    }

    #[test]
    fn welcome_round_trips_state() {
        let f = Frame {
            node: 2,
            epoch: 3,
            seq: 1,
            step: 0,
            msg: Message::Welcome {
                workers: 4,
                seed: 42,
                spec_json: "{\"name\":\"x\"}".into(),
                partitions_json: String::new(),
                dense: vec![0.125; 16],
                hot: vec![HotEntry { table: 1, row: 9, values: vec![1.0, 2.0] }],
            },
        };
        let back = roundtrip(&f);
        let Message::Welcome { workers, seed, spec_json, partitions_json, dense, hot } = back.msg
        else {
            panic!("wrong kind");
        };
        assert_eq!((workers, seed), (4, 42));
        assert_eq!(spec_json, "{\"name\":\"x\"}");
        assert!(partitions_json.is_empty());
        assert_eq!(dense, vec![0.125; 16]);
        assert_eq!(hot, vec![HotEntry { table: 1, row: 9, values: vec![1.0, 2.0] }]);
    }

    #[test]
    fn telemetry_frames_round_trip_and_never_mutate_state() {
        let poll =
            Frame { node: 1, epoch: 2, seq: 3, step: 4, msg: Message::TelemetryPoll { ack: 17 } };
        let back = roundtrip(&poll);
        let Message::TelemetryPoll { ack } = back.msg else { panic!("wrong kind") };
        assert_eq!(ack, 17);
        assert!(!poll.msg.mutates_state());

        let lines = "{\"type\":\"mark\",\"node_id\":2,\"seq\":0}\n{\"type\":\"mark\",\"node_id\":2,\"seq\":1}";
        let batch = Frame {
            node: 1,
            epoch: 2,
            seq: 3,
            step: 4,
            msg: Message::Telemetry { from: 17, events_jsonl: lines.into() },
        };
        let back = roundtrip(&batch);
        let Message::Telemetry { from, events_jsonl } = back.msg else { panic!("wrong kind") };
        assert_eq!(from, 17);
        assert_eq!(events_jsonl, lines);
        assert!(!batch.msg.mutates_state());
        assert_eq!(batch.msg.kind_name(), "telemetry");
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let f = Frame {
            node: 1,
            epoch: 1,
            seq: 1,
            step: 1,
            msg: Message::Task { total: 64, mode: StepMode::Cold, shard: sample_batch() },
        };
        let bytes = f.encode();
        // Flip one byte in every position of the body: decode must error
        // (crc catches it), never panic.
        for at in 4..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(Frame::decode(&bad[4..]).is_err(), "flip at {at} accepted");
        }
        // Truncations too.
        for keep in 4..bytes.len() - 1 {
            assert!(Frame::decode(&bytes[4..keep]).is_err(), "truncation to {keep} accepted");
        }
    }

    /// A frame body + CRC around a hand-written payload: structurally
    /// whatever the test wants, with a checksum that vouches for it.
    fn sealed(tag: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, tag, 0, 0, 0, 0, payload);
        out.split_off(4)
    }

    #[test]
    fn crc_valid_frames_still_face_every_structural_check() {
        let grads_head = |out: &mut Vec<u8>| {
            put_f32(out, 0.0);
            put_u32(out, 1);
        };
        let sparse_rows = |rows: [u32; 2]| {
            move |out: &mut Vec<u8>| {
                grads_head(out);
                put_f32s(out, &[]);
                put_u32(out, 1); // one table
                put_u32(out, 2); // dim
                put_u32(out, rows.len() as u32);
                for row in rows {
                    put_u32(out, row);
                    put_f32_slice(out, &[1.0, 2.0]);
                }
            }
        };
        let task = |dense: usize, offsets: Vec<usize>| {
            move |out: &mut Vec<u8>| {
                put_u32(out, 2);
                out.push(1);
                let shard = MiniBatch {
                    kind: BatchKind::Hot,
                    dense: vec![0.5; dense],
                    dense_width: 3,
                    sparse: vec![TableIndices { indices: vec![7, 8], offsets }],
                    labels: vec![1.0, 0.0],
                };
                put_batch(out, &shard);
            }
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "exceeds remaining",
                sealed(3, |out| {
                    grads_head(out);
                    put_u32(out, u32::MAX); // dense count: absurd
                }),
            ),
            (
                "exceeds remaining",
                sealed(3, |out| {
                    grads_head(out);
                    put_f32s(out, &[]);
                    put_u32(out, 1);
                    put_u32(out, u32::MAX); // dim x rows: absurd
                    put_u32(out, 1);
                    put_u32(out, 0);
                }),
            ),
            ("not strictly ascending", sealed(3, sparse_rows([9, 4]))),
            ("not strictly ascending", sealed(3, sparse_rows([4, 4]))),
            ("trailing bytes", sealed(5, |out| out.push(0))),
            ("dense block", sealed(2, task(5, vec![0, 1, 2]))),
            ("csr has", sealed(2, task(6, vec![0, 1]))),
            ("csr offsets", sealed(2, task(6, vec![0, 2, 1]))),
            ("csr offsets", sealed(2, task(6, vec![0, 1, 3]))),
            ("bad step mode", sealed(4, |out| out.push(7))),
            ("unknown message kind", sealed(99, |_| {})),
            (
                "not utf-8",
                sealed(11, |out| {
                    put_u64(out, 0);
                    put_u32(out, 2);
                    out.extend_from_slice(&[0xC3, 0x28]);
                }),
            ),
        ];
        for (want, bytes) in cases {
            match Frame::decode(&bytes) {
                Err(NetError::Corrupt(m)) => assert!(m.contains(want), "{want}: got {m}"),
                other => panic!("{want}: expected corrupt error, got {other:?}"),
            }
        }
        // The same shapes, well-formed, decode.
        assert!(Frame::decode(&sealed(3, sparse_rows([4, 9]))).is_ok());
        assert!(Frame::decode(&sealed(2, task(6, vec![0, 1, 2]))).is_ok());
    }

    fn floats(bits: Vec<u32>) -> Vec<f32> {
        bits.into_iter().map(f32::from_bits).collect()
    }

    fn assert_bit_exact(msg: Message) {
        let bytes = Frame { node: 2, epoch: 3, seq: 4, step: 5, msg }.encode();
        let back = Frame::decode(&bytes[4..]).expect("clean frame decodes");
        assert_eq!(back.encode(), bytes, "decode kept every bit");
    }

    proptest::proptest! {
        // Raw bit patterns: NaN payloads, both zeros, subnormals and
        // infinities all have to cross the bulk slice paths untouched.
        #[test]
        fn float_slices_round_trip_bit_exactly(
            dense in proptest::collection::vec(0u32..=u32::MAX, 0..300),
            edge in proptest::collection::vec(0u32..=4, 0..40),
        ) {
            const EDGES: [u32; 5] = [0x8000_0000, 0x7FC0_1234, 0xFF80_0001, 0x0000_0001, 0x807F_FFFF];
            let mut dense = floats(dense);
            dense.extend(edge.iter().map(|&e| f32::from_bits(EDGES[e as usize])));
            assert_bit_exact(Message::Grads {
                loss: f32::from_bits(0x7FC0_0001),
                samples: 1,
                dense: dense.clone(),
                sparse: Vec::new(),
            });
            assert_bit_exact(Message::Welcome {
                workers: 1,
                seed: 2,
                spec_json: "{}".into(),
                partitions_json: String::new(),
                dense: dense.clone(),
                hot: vec![
                    HotEntry { table: 0, row: 1, values: dense.clone() },
                    HotEntry { table: 0, row: 2, values: Vec::new() },
                ],
            });
        }

        #[test]
        fn sparse_tables_round_trip_bit_exactly(
            dim in 0usize..6,
            gaps in proptest::collection::vec(1u32..1000, 0..40),
            seed in 0u32..=u32::MAX,
        ) {
            let rows: Vec<u32> = gaps.iter().scan(0u32, |at, g| { *at += g; Some(*at) }).collect();
            let values = floats(
                (0..rows.len() * dim).map(|i| seed.wrapping_mul(2_654_435_761).rotate_left(i as u32)).collect(),
            );
            let mut signed = values.clone();
            if let Some(v) = signed.first_mut() {
                *v = -0.0;
            }
            let table = |v: Vec<f32>| SparseGrad::from_ascending_rows(dim, &rows, v).expect("ascending");
            let sparse = vec![table(values), SparseGrad::new(dim), table(signed), SparseGrad::new(0)];
            let back = roundtrip(&Frame {
                node: 0,
                epoch: 0,
                seq: 0,
                step: 0,
                msg: Message::Apply { mode: StepMode::Hot, lr: 0.1, dense: Vec::new(), sparse: sparse.clone() },
            });
            let Message::Apply { sparse: got, .. } = back.msg else { panic!("wrong kind") };
            prop_assert_eq!(got.len(), sparse.len());
            for (g, s) in got.iter().zip(&sparse) {
                prop_assert_eq!(g.dim(), s.dim());
                let bits = |t: &SparseGrad| -> Vec<(u32, Vec<u32>)> {
                    t.iter().map(|(r, v)| (r, v.iter().map(|x| x.to_bits()).collect())).collect()
                };
                prop_assert_eq!(bits(g), bits(s));
            }
        }

        #[test]
        fn index_slices_round_trip_exactly(
            indices in proptest::collection::vec(0u32..=u32::MAX, 0..200),
            cuts in proptest::collection::vec(0usize..=200, 0..20),
        ) {
            let mut offsets: Vec<usize> = cuts.iter().map(|c| c.min(&indices.len()).to_owned()).collect();
            offsets.push(0);
            offsets.sort_unstable();
            let samples = offsets.len() - 1;
            let shard = MiniBatch {
                kind: BatchKind::Cold,
                dense: vec![0.25; samples * 2],
                dense_width: 2,
                sparse: vec![
                    TableIndices { indices: indices.clone(), offsets: offsets.clone() },
                    TableIndices { indices: Vec::new(), offsets: vec![0; samples + 1] },
                ],
                labels: vec![1.0; samples],
            };
            let back = roundtrip(&Frame {
                node: 0,
                epoch: 0,
                seq: 0,
                step: 0,
                msg: Message::Task { total: samples as u32, mode: StepMode::Cold, shard: shard.clone() },
            });
            let Message::Task { shard: got, .. } = back.msg else { panic!("wrong kind") };
            prop_assert_eq!(got.sparse, shard.sparse);
        }
    }
}
