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
//! checked against the bytes left before anything is allocated for it;
//! the header's batch count against the whole stream's length.
//!
//! A file is read and written through one [`WINDOW`]-sized buffer, never
//! whole: [`FaeStreamReader::open_file`] decodes batches out of a
//! [`Window`] it refills from the file, and [`FaeFile::write_to`] encodes
//! whole batches into a buffer it writes out each time it fills.

use std::borrow::Borrow;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::codec::{put_counted, put_str, put_u32, put_words, ReadError, Reader};
use crate::dataset::TableIndices;
use crate::minibatch::{BatchKind, MiniBatch};

const MAGIC: &[u8; 4] = b"FAE1";
const VERSION: u32 = 1;

/// Bytes of a container a file is read and written through at a time.
/// A [`Window`] grows past it only to hold a batch larger than itself.
pub const WINDOW: usize = 256 << 10;

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

    /// Appends the header: magic, version, workload name, dense width,
    /// table count and batch count.
    fn put_header(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC);
        put_u32(buf, VERSION);
        put_str(buf, &self.workload);
        put_u32(buf, self.dense_width);
        put_u32(buf, self.num_tables);
        put_u32(buf, self.batches.len() as u32);
    }

    /// Serialises to bytes, into one buffer allocated at its exact length.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        self.put_header(&mut buf);
        for b in self.iter() {
            put_batch(&mut buf, b);
        }
        debug_assert_eq!(buf.len(), len, "encoded_len counts every byte encode writes");
        buf
    }

    /// Writes [`Self::encode`]'s bytes to `out` without holding them all:
    /// whole batches are encoded into one buffer, written out each time it
    /// holds a [`WINDOW`].
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::with_capacity(WINDOW);
        self.put_header(&mut buf);
        for b in self.iter() {
            put_batch(&mut buf, b);
            if buf.len() >= WINDOW {
                out.write_all(&buf)?;
                buf.clear();
            }
        }
        out.write_all(&buf)
    }

    /// Writes the container to a file, through [`Self::write_to`].
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), FormatError> {
        Ok(self.write_to(&mut File::create(path)?)?)
    }
}

/// Appends one batch: its kind, length, dense rows, labels and, per
/// table, nnz, indices and offsets.
fn put_batch(buf: &mut Vec<u8>, b: &MiniBatch) {
    buf.push(match b.kind {
        BatchKind::Hot => 0,
        BatchKind::Cold => 1,
        BatchKind::Unclassified => 2,
    });
    put_u32(buf, b.len() as u32);
    put_words(buf, &b.dense, f32::to_le_bytes);
    put_words(buf, &b.labels, f32::to_le_bytes);
    for csr in &b.sparse {
        put_counted(buf, &csr.indices, u32::to_le_bytes);
        put_words(buf, &csr.offsets, |o| (o as u32).to_le_bytes());
    }
}

impl FaeFile {
    /// Parses a container from bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, FormatError> {
        Self::drain(FaeStreamReader::open(buf)?)
    }

    /// Reads a container from a file, through one [`Window`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        Self::drain(FaeStreamReader::open_file(path)?)
    }

    fn drain<S: Source>(mut reader: FaeStreamReader<S>) -> Result<Self, FormatError> {
        let mut batches = Vec::with_capacity(reader.batches_remaining() as usize);
        while let Some(batch) = reader.next_batch()? {
            batches.push(batch);
        }
        Ok(Self {
            workload: reader.workload,
            dense_width: reader.dense_width,
            num_tables: reader.num_tables,
            batches,
        })
    }
}

/// Where a [`FaeStreamReader`] reads: bytes it holds whole (any
/// `AsRef<[u8]>`), or a [`Window`] onto a longer stream.
pub trait Source {
    /// The bytes at hand.
    fn bytes(&self) -> &[u8];

    /// Stream bytes after the ones at hand.
    fn unread(&self) -> u64 {
        0
    }

    /// Drops the first `consumed` bytes at hand and reads more in behind
    /// the rest: `Ok(false)`, dropping nothing, when none are left.
    fn refill(&mut self, _consumed: usize) -> io::Result<bool> {
        Ok(false)
    }
}

impl<B: AsRef<[u8]>> Source for B {
    fn bytes(&self) -> &[u8] {
        self.as_ref()
    }
}

/// A [`WINDOW`] onto a stream of known length, or all of it when shorter.
/// It grows only when refilled while full, that is while the bytes it
/// holds begin a batch larger than itself: it doubles, never past the
/// stream's end.
pub struct Window<R> {
    buf: Vec<u8>,
    rest: io::Take<R>,
}

impl<R: Read> Window<R> {
    /// A window onto the `len` bytes `read` yields. Nothing is read yet.
    pub fn new(read: R, len: u64) -> Self {
        Self { buf: Vec::with_capacity(len.min(WINDOW as u64) as usize), rest: read.take(len) }
    }

    /// The bytes it can hold.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl<R: Read> Source for Window<R> {
    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn unread(&self) -> u64 {
        self.rest.limit()
    }

    fn refill(&mut self, consumed: usize) -> io::Result<bool> {
        if self.rest.limit() == 0 {
            return Ok(false);
        }
        self.buf.drain(..consumed);
        if self.buf.len() == self.buf.capacity() {
            self.buf.reserve_exact(self.rest.limit().min(self.buf.len() as u64) as usize);
        }
        let room = (self.buf.capacity() - self.buf.len()) as u64;
        if (&mut self.rest).take(room).read_to_end(&mut self.buf)? == 0 {
            self.rest.set_limit(0); // the stream ended before its length
        }
        Ok(true)
    }
}

/// Incremental decoder over an FAE container: yields one [`MiniBatch`] at
/// a time, so a training loop can stream a large preprocessed file
/// without materialising every batch up front. It reads bytes it borrows
/// (`&[u8]`) or owns (`Vec<u8>`), or a file through a [`Window`]. The
/// stream ends at its first error: a torn or corrupt batch leaves no
/// offset to trust for the next. A byte after the last declared batch is
/// that batch's error.
pub struct FaeStreamReader<B> {
    buf: B,
    /// Offset of the next batch in `buf`'s bytes.
    pos: usize,
    workload: String,
    dense_width: u32,
    num_tables: u32,
    remaining: u32,
}

impl FaeStreamReader<Window<File>> {
    /// Opens the container at `path`, to be decoded through a [`Window`].
    pub fn open_file(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::open(Window::new(file, len))
    }
}

impl<B: Source> FaeStreamReader<B> {
    /// Validates the header and positions the reader at the first batch.
    pub fn open(mut buf: B) -> Result<Self, FormatError> {
        let mut pos = 0;
        let (workload, dense_width, num_tables, remaining) =
            decode(&mut buf, &mut pos, read_header)?;
        let stream = Self { buf, pos, workload, dense_width, num_tables, remaining };
        stream.check_end()?;
        Ok(stream)
    }

    /// Workload name recorded in the header.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Batches not yet decoded.
    pub fn batches_remaining(&self) -> u32 {
        self.remaining
    }

    /// Where the reader reads.
    pub fn source(&self) -> &B {
        &self.buf
    }

    /// Bytes held after the declared batches: 0 once every batch has been
    /// read, since a trailing byte is the last batch's error.
    pub fn trailing_bytes(&self) -> usize {
        if self.remaining == 0 {
            self.buf.bytes().len() - self.pos
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
        let (width, tables) = (self.dense_width as usize, self.num_tables as usize);
        let batch = decode(&mut self.buf, &mut self.pos, |r, _| read_batch(r, width, tables));
        let batch = batch.and_then(|batch| {
            self.remaining -= 1;
            self.check_end().map(|()| batch)
        });
        if batch.is_err() {
            self.pos = self.buf.bytes().len();
            self.remaining = 0;
        }
        batch.map(Some)
    }

    /// Errs if a byte follows the last declared batch, once it is read.
    fn check_end(&self) -> Result<(), FormatError> {
        let end = self.remaining > 0 || self.trailing_bytes() as u64 + self.buf.unread() == 0;
        end.then_some(()).ok_or(FormatError::Corrupt("trailing bytes after final batch"))
    }
}

/// Runs `read` over `src`'s bytes from `pos` (and the count of unread
/// ones), then moves `pos` past what it read. While they end too soon and
/// `src` has more, it refills `src` and runs `read` again: so only the
/// stream's true end is `Truncated`.
fn decode<T>(
    src: &mut impl Source,
    pos: &mut usize,
    read: impl Fn(&mut Reader<'_>, u64) -> Result<T, FormatError>,
) -> Result<T, FormatError> {
    loop {
        let rest = &src.bytes()[*pos..];
        let mut r = Reader::new(rest);
        match (read(&mut r, src.unread()), rest.len() - r.remaining()) {
            (Err(FormatError::Truncated(_)), _) if src.refill(*pos)? => *pos = 0,
            (item, used) => {
                *pos += used;
                return item;
            }
        }
    }
}

/// The header: magic and version, then the workload name, dense width,
/// table count and batch count it returns.
fn read_header(r: &mut Reader<'_>, unread: u64) -> Result<(String, u32, u32, u32), FormatError> {
    if r.take(4)? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let workload = r.str()?.to_owned();
    let dense_width = r.u32()?;
    let num_tables = r.u32()?;
    // Every batch holds at least its kind, its length and, per table, an
    // nnz and one offset: so a table count is bounded by the stream's
    // length too whenever a batch is declared.
    let batches = r.count_beyond(5 + 8 * num_tables as usize, unread)?;
    Ok((workload, dense_width, num_tables, batches as u32))
}

/// One batch of `width` dense features over `tables` tables.
fn read_batch(r: &mut Reader<'_>, width: usize, tables: usize) -> Result<MiniBatch, FormatError> {
    let kind = match r.u8()? {
        0 => BatchKind::Hot,
        1 => BatchKind::Cold,
        2 => BatchKind::Unclassified,
        _ => return Err(FormatError::Corrupt("unknown batch kind")),
    };
    // A sample holds its dense row, its label and one offset per table.
    let len = r.count(4 * (width + 1 + tables))?;
    let dense = r.words(len * width, f32::from_le_bytes)?.collect();
    let labels = r.words(len, f32::from_le_bytes)?.collect();
    let mut sparse = Vec::with_capacity(tables);
    for _ in 0..tables {
        let indices = r.counted(u32::from_le_bytes)?;
        let offsets = r.words(len + 1, |w| u32::from_le_bytes(w) as usize)?.collect();
        let csr = TableIndices { indices, offsets };
        csr.validate(len).map_err(FormatError::Corrupt)?;
        sparse.push(csr);
    }
    Ok(MiniBatch { kind, dense, dense_width: width, sparse, labels })
}

impl<B: Source> Iterator for FaeStreamReader<B> {
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
