//! The little-endian byte codec under every binary format in the
//! workspace: the FAE container ([`crate::format`]), the training
//! checkpoint (`fae-core`) and the wire frame (`fae-net`). Each format
//! keeps its own layout, magic, version and error enum; what they share
//! lives here:
//!
//! * `put_*` writers appending to a `Vec<u8>`, with [`put_words`] /
//!   [`put_counted`] writing a whole `f32` / `u32` / offset slice in one
//!   pass;
//! * [`Reader`], whose every read is bounds-checked and fails with the one
//!   [`ReadError`] instead of panicking;
//! * [`Crc32`] / [`crc32`], the checksum the checkpoint and the frame carry.
//!
//! **The allocation rule.** An integer decoded from the bytes becomes a
//! length or a capacity only through [`Reader::count`], which checks that
//! that many elements, each at least `elem_bytes` long, fit in what is
//! left of the buffer. A corrupt count is therefore an error before
//! anything is allocated for it, and a decoder's memory stays a small
//! multiple of its input. [`Reader::words`] takes its bytes before it
//! yields a word, so a run sized from checked counts allocates no more
//! than the bytes it was read from.

use std::fmt;

/// Why a [`Reader`] could not satisfy a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// A read, or the elements a count declares, run past the end.
    Truncated,
    /// A declared size overflows `usize`: no buffer could hold it.
    Overflow,
    /// A length-prefixed string is not UTF-8.
    NotUtf8,
}

impl ReadError {
    /// A fixed description, for the formats' `&'static str` error
    /// payloads.
    pub fn what(self) -> &'static str {
        match self {
            ReadError::Truncated => "declared content exceeds remaining bytes",
            ReadError::Overflow => "declared size overflows usize",
            ReadError::NotUtf8 => "string is not utf-8",
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.what())
    }
}

/// A forward cursor over untrusted bytes: every read checks the length
/// first and consumes nothing when it fails.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.buf.len() {
            return Err(ReadError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut word = [0u8; N];
        word.copy_from_slice(self.take(N)?);
        Ok(word)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`, bit for bit.
    pub fn f32(&mut self) -> Result<f32, ReadError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, ReadError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `u32` element count and checks that that many elements,
    /// each at least `elem_bytes` long, fit in the rest of the buffer —
    /// the one way a decoded integer may size an allocation.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, ReadError> {
        self.count_beyond(elem_bytes, 0)
    }

    /// [`Self::count`] of `elem`-byte elements of a stream this buffer is
    /// a window onto: they must fit in the rest of the buffer and the
    /// `beyond` stream bytes after it.
    pub(crate) fn count_beyond(&mut self, elem: usize, beyond: u64) -> Result<usize, ReadError> {
        let n = self.u32()? as usize;
        let bytes = n.checked_mul(elem).ok_or(ReadError::Overflow)?;
        if bytes as u64 > (self.buf.len() as u64).saturating_add(beyond) {
            return Err(ReadError::Truncated);
        }
        Ok(n)
    }

    /// The next `n` little-endian `N`-byte words, each decoded by `from`.
    /// The bytes are taken before anything is yielded, and a run of
    /// fixed-width words compiles to a plain copy on a little-endian
    /// target.
    pub fn words<T, F: Fn([u8; N]) -> T, const N: usize>(
        &mut self,
        n: usize,
        from: F,
    ) -> Result<impl ExactSizeIterator<Item = T> + use<'a, T, F, N>, ReadError> {
        let bytes = self.take(n.checked_mul(N).ok_or(ReadError::Overflow)?)?;
        Ok(bytes.chunks_exact(N).map(move |c| {
            let mut word = [0u8; N];
            word.copy_from_slice(c);
            from(word)
        }))
    }

    /// A `u32` count followed by that many words: the inverse of
    /// [`put_counted`].
    pub fn counted<T, const N: usize>(
        &mut self,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ReadError> {
        let n = self.count(N)?;
        Ok(self.words(n, from)?.collect())
    }

    /// A `u32` byte length followed by that many bytes of UTF-8: the
    /// inverse of [`put_str`].
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| ReadError::NotUtf8)
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`, bit for bit.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`, bit for bit.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` byte length and the string's bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends every element of `v` as an `N`-byte word made by `to`, in one
/// pass over a buffer grown once.
pub fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, v: &[T], to: impl Fn(T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + v.len() * N, 0);
    fill_words(&mut out[at..], v, to);
}

/// Appends a `u32` element count, then [`put_words`].
pub fn put_counted<T: Copy, const N: usize>(out: &mut Vec<u8>, v: &[T], to: impl Fn(T) -> [u8; N]) {
    put_u32(out, v.len() as u32);
    put_words(out, v, to);
}

/// Writes the words of `v` into `dst` (`N * v.len()` bytes long).
fn fill_words<T: Copy, const N: usize>(dst: &mut [u8], v: &[T], to: impl Fn(T) -> [u8; N]) {
    for (d, &x) in dst.chunks_exact_mut(N).zip(v) {
        d.copy_from_slice(&to(x));
    }
}

/// Bytes folded per round of the slicing-by-8 loop.
const STRIDE: usize = 8;

/// Bytes in one of the four lanes a block is checksummed in.
const LANE: usize = 512;

/// Bytes checksummed as four independent lanes.
const BLOCK: usize = 4 * LANE;

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

/// Advances a CRC state past `LANE` zero bytes, one lookup per state
/// byte. The CRC register is linear over GF(2), so a block's state is
/// its four lanes' states, lane 0 folded from the running state and lanes
/// 1-3 from zero, each advanced past the lanes after it and XORed.
static SKIP_LANE: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    // Each single-bit state, advanced byte by byte...
    let mut i = 0;
    while i < 32 {
        let mut v = 1u32 << i;
        let mut n = 0;
        while n < LANE {
            v = (v >> 8) ^ CRC_TABLES[0][(v & 0xFF) as usize];
            n += 1;
        }
        t[i / 8][1 << (i % 8)] = v;
        i += 1;
    }
    // ...and every other byte value as the XOR of its bits' entries.
    let mut k = 0;
    while k < 4 {
        let mut b: usize = 1;
        while b < 256 {
            let low = b & b.wrapping_neg();
            t[k][b] = t[k][b ^ low] ^ t[k][low];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Folds eight bytes into `crc` with the slicing-by-8 tables.
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Applies [`SKIP_LANE`] to `crc`.
fn skip_lane(crc: u32) -> u32 {
    let t = &SKIP_LANE;
    t[0][(crc & 0xFF) as usize]
        ^ t[1][((crc >> 8) & 0xFF) as usize]
        ^ t[2][((crc >> 16) & 0xFF) as usize]
        ^ t[3][(crc >> 24) as usize]
}

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

    /// Folds `data` into the checksum: whole blocks as four interleaved
    /// lanes, so four lookup chains run at once instead of one, and the
    /// rest eight bytes a round.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(BLOCK);
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE);
            let (b, rest) = rest.split_at(LANE);
            let (c, d) = rest.split_at(LANE);
            let mut lanes = [crc, 0, 0, 0];
            let words = a.chunks_exact(STRIDE).zip(b.chunks_exact(STRIDE));
            let words = words.zip(c.chunks_exact(STRIDE)).zip(d.chunks_exact(STRIDE));
            for (((wa, wb), wc), wd) in words {
                lanes = [
                    fold8(lanes[0], wa),
                    fold8(lanes[1], wb),
                    fold8(lanes[2], wc),
                    fold8(lanes[3], wd),
                ];
            }
            crc = skip_lane(skip_lane(skip_lane(lanes[0]) ^ lanes[1]) ^ lanes[2]) ^ lanes[3];
        }
        let mut chunks = blocks.remainder().chunks_exact(STRIDE);
        for c in &mut chunks {
            crc = fold8(crc, c);
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
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
            fill_words(&mut bytes[..n], part, f32::to_le_bytes);
            self.update(&bytes[..n]);
        }
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_count_past_the_end_or_past_usize_fails_before_anything_is_read() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        put_words(&mut buf, &[1u32, 2], u32::to_le_bytes);
        assert_eq!(Reader::new(&buf).count(4), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&buf).count(usize::MAX), Err(ReadError::Overflow));
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(2), Ok(3));
        assert_eq!(r.words(3, u32::from_le_bytes).err(), Some(ReadError::Truncated));
        assert_eq!(r.remaining(), 8, "a failed read consumes nothing");
        assert_eq!(r.words(2, u32::from_le_bytes).map(Iterator::collect::<Vec<_>>), Ok(vec![1, 2]));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn writers_and_reader_are_inverse_bit_for_bit() {
        let floats = [-0.0f32, f32::from_bits(1), f32::from_bits(0x7FC0_1234), f32::MAX];
        let offsets = [0usize, 3, 3, usize::MAX >> 1];
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -0.0);
        put_f64(&mut buf, f64::from_bits(1));
        put_str(&mut buf, "kaggle-π");
        put_counted(&mut buf, &floats, f32::to_le_bytes);
        put_words(&mut buf, &offsets, |o| (o as u64).to_le_bytes());
        buf.push(7);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Ok(1));
        assert_eq!(r.str(), Ok("kaggle-π"));
        let back = r.counted(f32::from_le_bytes).expect("floats");
        assert_eq!(back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), floats.map(f32::to_bits));
        let back: Vec<usize> =
            r.words(4, |w| u64::from_le_bytes(w) as usize).expect("offsets").collect();
        assert_eq!(back, offsets);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.remaining(), 0);

        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xC3, 0x28]);
        assert_eq!(Reader::new(&bad).str(), Err(ReadError::NotUtf8));
    }
}
