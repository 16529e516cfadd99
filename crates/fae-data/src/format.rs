//! The FAE on-disk format for preprocessed hot/cold mini-batch streams.
//!
//! §III-B: "Once we have pre-processed the sparse-input data into hot and
//! cold mini-batches, we store this in the FAE format for any subsequent
//! training runs." The container is a little-endian binary layout:
//!
//! ```text
//! magic "FAE1" | version u32 | workload-name (u32 len + utf8)
//! dense_width u32 | num_tables u32 | num_batches u32
//! repeat per batch:
//!   kind u8 (0 hot, 1 cold, 2 unclassified) | batch_len u32
//!   dense:  batch_len * dense_width f32
//!   labels: batch_len f32
//!   per table: nnz u32 | indices u32[nnz] | offsets u32[batch_len + 1]
//! ```
//!
//! Decoding validates magic, version, every declared length, the CSR
//! invariant ([`TableIndices::validate`]) and trailing bytes, returning
//! [`FormatError`] instead of panicking — this file crosses process
//! boundaries, so it is treated as untrusted input. Every read goes
//! through [`codec::Reader`](crate::codec::Reader), so a declared count is
//! checked against the bytes left before anything is allocated for it.

use std::borrow::Borrow;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::codec::{put_counted, put_str, put_u32, put_words, ReadError, Reader};
use crate::dataset::TableIndices;
use crate::minibatch::{BatchKind, MiniBatch};

const MAGIC: &[u8; 4] = b"FAE1";
const VERSION: u32 = 1;

/// Errors produced while decoding an FAE container.
#[derive(Debug)]
pub enum FormatError {
    /// The magic bytes were wrong — not an FAE file.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated(&'static str),
    /// A structural invariant failed (e.g. non-monotonic offsets).
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an FAE file (bad magic)"),
            FormatError::BadVersion(v) => write!(f, "unsupported FAE version {v}"),
            FormatError::Truncated(what) => write!(f, "FAE file truncated: {what}"),
            FormatError::Corrupt(what) => write!(f, "FAE file corrupt: {what}"),
            FormatError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

impl From<ReadError> for FormatError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => FormatError::Truncated(e.what()),
            ReadError::Overflow | ReadError::NotUtf8 => FormatError::Corrupt(e.what()),
        }
    }
}

/// A preprocessed mini-batch stream plus identifying metadata. It owns
/// its batches (`B = MiniBatch`, what [`FaeFile::decode`] returns) or
/// borrows them (`B = &MiniBatch`), so a stream held elsewhere is encoded
/// without a copy.
#[derive(Clone, Debug)]
pub struct FaeFile<B = MiniBatch> {
    /// Name of the workload the stream was preprocessed from.
    pub workload: String,
    /// Dense feature width shared by all batches.
    pub dense_width: u32,
    /// Embedding-table count shared by all batches.
    pub num_tables: u32,
    /// The batches, in schedule-ready order.
    pub batches: Vec<B>,
}

impl<B: Borrow<MiniBatch>> FaeFile<B> {
    /// Wraps batches in a container. All batches must agree on dense width
    /// and table count.
    pub fn new(workload: impl Into<String>, batches: Vec<B>) -> Self {
        let first: Option<&MiniBatch> = batches.first().map(B::borrow);
        let dense_width = first.map_or(0, |b| b.dense_width as u32);
        let num_tables = first.map_or(0, |b| b.sparse.len() as u32);
        let file = Self { workload: workload.into(), dense_width, num_tables, batches };
        assert!(
            file.iter()
                .all(|b| b.dense_width as u32 == dense_width && b.sparse.len() as u32 == num_tables),
            "inconsistent batch shapes"
        );
        file
    }

    /// The batches, owned or borrowed alike.
    fn iter(&self) -> impl Iterator<Item = &MiniBatch> {
        self.batches.iter().map(B::borrow)
    }

    /// Number of hot batches.
    pub fn hot_count(&self) -> usize {
        self.iter().filter(|b| b.kind == BatchKind::Hot).count()
    }

    /// Number of cold batches.
    pub fn cold_count(&self) -> usize {
        self.iter().filter(|b| b.kind == BatchKind::Cold).count()
    }

    /// The byte length of [`Self::encode`]'s output: the header's magic,
    /// five words and name, then per batch its kind byte and 4-byte words
    /// for its length, dense rows, labels and, per table, nnz, indices and
    /// offsets.
    fn encoded_len(&self) -> usize {
        let batch = |b: &MiniBatch| {
            let csrs: usize = b.sparse.iter().map(|c| 1 + c.indices.len() + c.offsets.len()).sum();
            1 + 4 * (1 + b.dense.len() + b.labels.len() + csrs)
        };
        MAGIC.len() + 4 * 5 + self.workload.len() + self.iter().map(batch).sum::<usize>()
    }

    /// Serialises to bytes, into one buffer allocated at its exact length.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION);
        put_str(&mut buf, &self.workload);
        put_u32(&mut buf, self.dense_width);
        put_u32(&mut buf, self.num_tables);
        put_u32(&mut buf, self.batches.len() as u32);
        for b in self.iter() {
            buf.push(match b.kind {
                BatchKind::Hot => 0,
                BatchKind::Cold => 1,
                BatchKind::Unclassified => 2,
            });
            put_u32(&mut buf, b.len() as u32);
            put_words(&mut buf, &b.dense, f32::to_le_bytes);
            put_words(&mut buf, &b.labels, f32::to_le_bytes);
            for csr in &b.sparse {
                put_counted(&mut buf, &csr.indices, u32::to_le_bytes);
                put_words(&mut buf, &csr.offsets, |o| (o as u32).to_le_bytes());
            }
        }
        debug_assert_eq!(buf.len(), len, "encoded_len counts every byte encode writes");
        buf
    }

    /// Writes the container to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), FormatError> {
        fs::write(path, self.encode())?;
        Ok(())
    }
}

impl FaeFile {
    /// Parses a container from bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, FormatError> {
        let mut reader = FaeStreamReader::open(buf)?;
        let mut batches = Vec::with_capacity(reader.batches_remaining() as usize);
        while let Some(batch) = reader.next_batch()? {
            batches.push(batch);
        }
        if reader.trailing_bytes() > 0 {
            return Err(FormatError::Corrupt("trailing bytes after final batch"));
        }
        Ok(Self {
            workload: reader.workload().to_string(),
            dense_width: reader.dense_width(),
            num_tables: reader.num_tables(),
            batches,
        })
    }

    /// Reads a container from a file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        let data = fs::read(path)?;
        Self::decode(&data)
    }
}

/// Incremental decoder over an FAE container: yields one [`MiniBatch`] at
/// a time, so a training loop can stream a large preprocessed file
/// without materialising every batch up front. It reads borrowed bytes
/// (`&[u8]`) or owns them (`Vec<u8>`). The stream ends at its first
/// error: a torn or corrupt batch leaves no offset to trust for the next.
pub struct FaeStreamReader<B> {
    buf: B,
    /// Offset of the next batch in `buf`.
    pos: usize,
    workload: String,
    dense_width: u32,
    num_tables: u32,
    remaining: u32,
}

impl<B: AsRef<[u8]>> FaeStreamReader<B> {
    /// Validates the header and positions the reader at the first batch.
    pub fn open(buf: B) -> Result<Self, FormatError> {
        let mut reader = Reader::new(buf.as_ref());
        if reader.take(4)? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = reader.u32()?;
        if version != VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let workload = reader.str()?.to_owned();
        let dense_width = reader.u32()?;
        let num_tables = reader.u32()?;
        // Every batch holds at least its kind, its length and, per table,
        // an nnz and one offset: so a table count is bounded by the bytes
        // too whenever a batch is declared.
        let remaining = reader.count(5 + 8 * num_tables as usize)? as u32;
        let pos = buf.as_ref().len() - reader.remaining();
        Ok(Self { buf, pos, workload, dense_width, num_tables, remaining })
    }

    /// Workload name recorded in the header.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Dense feature width shared by all batches.
    pub fn dense_width(&self) -> u32 {
        self.dense_width
    }

    /// Embedding-table count shared by all batches.
    pub fn num_tables(&self) -> u32 {
        self.num_tables
    }

    /// Batches not yet decoded.
    pub fn batches_remaining(&self) -> u32 {
        self.remaining
    }

    /// Bytes left after the declared batches (0 for a well-formed file;
    /// only meaningful once every batch has been read).
    pub fn trailing_bytes(&self) -> usize {
        if self.remaining == 0 {
            self.buf.as_ref().len() - self.pos
        } else {
            0
        }
    }

    /// Decodes the next batch, or `Ok(None)` when the stream is done. After
    /// an `Err` the stream is done.
    pub fn next_batch(&mut self) -> Result<Option<MiniBatch>, FormatError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let rest = &self.buf.as_ref()[self.pos..];
        let mut r = Reader::new(rest);
        match self.read_batch(&mut r) {
            Ok(batch) => {
                self.pos += rest.len() - r.remaining();
                self.remaining -= 1;
                Ok(Some(batch))
            }
            Err(e) => {
                self.pos = self.buf.as_ref().len();
                self.remaining = 0;
                Err(e)
            }
        }
    }

    fn read_batch(&self, r: &mut Reader<'_>) -> Result<MiniBatch, FormatError> {
        let kind = match r.u8()? {
            0 => BatchKind::Hot,
            1 => BatchKind::Cold,
            2 => BatchKind::Unclassified,
            _ => return Err(FormatError::Corrupt("unknown batch kind")),
        };
        let (dense_width, num_tables) = (self.dense_width as usize, self.num_tables as usize);
        // A sample holds its dense row, its label and one offset per table.
        let len = r.count(4 * (dense_width + 1 + num_tables))?;
        let dense = r.words(len * dense_width, f32::from_le_bytes)?.collect();
        let labels = r.words(len, f32::from_le_bytes)?.collect();
        let mut sparse = Vec::with_capacity(num_tables);
        for _ in 0..num_tables {
            let indices = r.counted(u32::from_le_bytes)?;
            let offsets = r.words(len + 1, |w| u32::from_le_bytes(w) as usize)?.collect();
            let csr = TableIndices { indices, offsets };
            csr.validate(len).map_err(FormatError::Corrupt)?;
            sparse.push(csr);
        }
        Ok(MiniBatch { kind, dense, dense_width, sparse, labels })
    }
}

impl<B: AsRef<[u8]>> Iterator for FaeStreamReader<B> {
    type Item = Result<MiniBatch, FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) fn sample_batch(kind: BatchKind, len: usize) -> MiniBatch {
        let mut csr1 = TableIndices::new();
        let mut csr2 = TableIndices::new();
        for i in 0..len {
            csr1.push_bag(&[i as u32]);
            csr2.push_bag(&[(i * 2) as u32, (i * 2 + 1) as u32]);
        }
        MiniBatch {
            kind,
            dense: (0..len * 3).map(|v| v as f32 * 0.5).collect(),
            dense_width: 3,
            sparse: vec![csr1, csr2],
            labels: (0..len).map(|i| (i % 2) as f32).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::sample_batch;
    use super::*;

    #[test]
    fn round_trip_preserves_everything() {
        let f = FaeFile::new(
            "unit-test",
            vec![sample_batch(BatchKind::Hot, 4), sample_batch(BatchKind::Cold, 2)],
        );
        let bytes = f.encode();
        let g = FaeFile::decode(&bytes).expect("decode");
        assert_eq!(g.workload, "unit-test");
        assert_eq!(g.batches.len(), 2);
        assert_eq!(g.hot_count(), 1);
        assert_eq!(g.cold_count(), 1);
        for (a, b) in f.batches.iter().zip(&g.batches) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.dense, b.dense);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.sparse, b.sparse);
        }
    }

    #[test]
    fn borrowed_batches_encode_like_cloned_ones_into_an_exact_buffer() {
        let owned = vec![
            sample_batch(BatchKind::Cold, 3),
            sample_batch(BatchKind::Hot, 0),
            sample_batch(BatchKind::Hot, 5),
        ];
        let cloned = FaeFile::new("borrow", owned.clone()).encode();
        let borrowed = FaeFile::new("borrow", owned.iter().collect::<Vec<_>>());
        assert_eq!(borrowed.encode(), cloned);
        assert_eq!(borrowed.encoded_len(), cloned.len());
    }

    #[test]
    fn empty_container_round_trips() {
        let f = FaeFile::<MiniBatch>::new("empty", vec![]);
        let g = FaeFile::decode(&f.encode()).expect("decode");
        assert!(g.batches.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = FaeFile::<MiniBatch>::new("x", vec![]).encode();
        bytes[0] = b'X';
        assert!(matches!(FaeFile::decode(&bytes), Err(FormatError::BadMagic)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = FaeFile::<MiniBatch>::new("x", vec![]).encode();
        bytes[4] = 99;
        assert!(matches!(FaeFile::decode(&bytes), Err(FormatError::BadVersion(99))));
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Hot, 3)]).encode();
        for cut in 0..bytes.len() {
            let r = FaeFile::decode(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Cold, 1)]).encode();
        bytes.push(0);
        assert!(matches!(FaeFile::decode(&bytes), Err(FormatError::Corrupt(_))));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fae-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        let f = FaeFile::new("disk", vec![sample_batch(BatchKind::Hot, 2)]);
        f.write_file(&path).expect("write");
        let g = FaeFile::read_file(&path).expect("read");
        assert_eq!(g.workload, "disk");
        assert_eq!(g.batches.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    // Header layout for a 1-char workload name ("t"): magic 0..4,
    // version 4..8, name_len 8..12, name 12..13, dense_width 13..17,
    // num_tables 17..21, batch count 21..25; first batch kind at 25,
    // batch len at 26..30.

    #[test]
    fn huge_declared_batch_count_fails_fast_without_allocating() {
        let mut bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Hot, 1)]).encode();
        bytes[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        // Must error (the buffer holds one batch, not 4 billion) without
        // reserving u32::MAX batch slots first.
        assert!(FaeFile::decode(&bytes).is_err());
    }

    #[test]
    fn a_huge_declared_table_count_is_an_error_not_an_abort() {
        for tables in [0x4000_0001u32, u32::MAX] {
            let mut bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Hot, 1)]).encode();
            bytes[17..21].copy_from_slice(&tables.to_le_bytes());
            // Must error on the bytes at hand, not reserve `tables` CSRs.
            assert!(FaeFile::decode(&bytes).is_err(), "table count {tables:#x}");
        }
    }

    #[test]
    fn overflowing_declared_sizes_are_corrupt_not_a_panic() {
        let mut bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Hot, 1)]).encode();
        // dense_width = u32::MAX and batch len = u32::MAX: the dense block
        // byte count overflows usize — the checked math must catch it.
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(FaeFile::decode(&bytes), Err(FormatError::Corrupt(_))));
    }

    #[test]
    fn huge_declared_nnz_is_truncation_not_a_panic() {
        let mut bytes = FaeFile::new("t", vec![sample_batch(BatchKind::Hot, 1)]).encode();
        // First CSR's nnz follows the batch header (1+4), one dense row
        // (3×4) and one label (4): offset 25 + 5 + 12 + 4 = 46.
        bytes[46..50].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(FaeFile::decode(&bytes), Err(FormatError::Truncated(_))));
    }

    #[test]
    #[should_panic(expected = "inconsistent batch shapes")]
    fn new_rejects_mixed_shapes() {
        let mut odd = sample_batch(BatchKind::Hot, 1);
        odd.sparse.pop();
        let _ = FaeFile::new("bad", vec![sample_batch(BatchKind::Hot, 1), odd]);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::tests_support::sample_batch;
    use super::*;

    #[test]
    fn streaming_matches_bulk_decode() {
        let f = FaeFile::new(
            "stream",
            vec![
                sample_batch(BatchKind::Hot, 3),
                sample_batch(BatchKind::Cold, 1),
                sample_batch(BatchKind::Unclassified, 2),
            ],
        );
        let bytes = f.encode();
        let bulk = FaeFile::decode(&bytes).expect("bulk");
        let mut reader = FaeStreamReader::open(&bytes).expect("open");
        assert_eq!(reader.workload(), "stream");
        assert_eq!(reader.batches_remaining(), 3);
        let mut streamed = Vec::new();
        while let Some(b) = reader.next_batch().expect("batch") {
            streamed.push(b);
        }
        assert_eq!(streamed.len(), bulk.batches.len());
        for (a, b) in streamed.iter().zip(&bulk.batches) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.sparse, b.sparse);
        }
        assert_eq!(reader.trailing_bytes(), 0);
        assert!(reader.next_batch().expect("eof").is_none());
    }

    #[test]
    fn iterator_adapter_yields_every_batch() {
        let f = FaeFile::new("it", vec![sample_batch(BatchKind::Hot, 2); 5]);
        let bytes = f.encode();
        let reader = FaeStreamReader::open(&bytes).expect("open");
        let got: Result<Vec<_>, _> = reader.collect();
        assert_eq!(got.expect("stream").len(), 5);
    }

    #[test]
    fn the_stream_ends_at_its_first_error() {
        let f = FaeFile::new("end", vec![sample_batch(BatchKind::Hot, 2); 3]);
        let bytes = f.encode();
        let second = FaeFile::new("end", f.batches[..1].to_vec()).encode().len();
        let mut bad_kind = bytes.clone();
        bad_kind[second] = 7;
        let torn = &bytes[..second + 10];
        for (buf, unknown_kind) in [(&bad_kind[..], true), (torn, false)] {
            let mut reader = FaeStreamReader::open(buf).expect("the header is whole");
            assert!(reader.next_batch().expect("the first batch is whole").is_some());
            match reader.next_batch() {
                Err(FormatError::Corrupt("unknown batch kind")) => assert!(unknown_kind),
                Err(FormatError::Truncated(_)) => assert!(!unknown_kind),
                other => panic!("expected the second batch's error, got {other:?}"),
            }
            assert!(reader.next_batch().expect("no second error").is_none());
            assert_eq!(reader.trailing_bytes(), 0);
        }
    }
}
