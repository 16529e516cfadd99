//! Int8 quantized cold-tier embedding storage.
//!
//! The paper's premise is that the cold majority of every table is touched
//! rarely; the frequency-aware-cache literature (arXiv 2208.05321) shows
//! that majority can also live *compressed*. [`TieredTable`] keeps the
//! calibrator-pinned hot rows as exact `f32` in a flat arena and stores
//! every cold row as int8 with an affine per-row code
//! (`v ≈ min + scale · q`, `q ∈ 0..=255`), shrinking cold weights 4×.
//! Cold rows dequantize on touch and requantize on apply; hot rows train
//! bit-identically to an untiered table (DESIGN.md §14).

use fae_nn::Tensor;
use rand::Rng;

use crate::partition::HotColdPartition;
use crate::sparse::{check_offsets, SparseGrad};
use crate::table::EmbeddingTable;

/// Tag bit marking a row's slot as living in the hot `f32` arena.
const HOT_TAG: u32 = 1 << 31;

/// Quantizes one row into `out`, returning `(scale, min)`.
///
/// The code is affine per row: `scale = (max − min) / 255`, and each value
/// maps to `q = round((v − min) / scale)`. A constant row gets
/// `scale = 0` and dequantizes exactly to `min`. The round-trip error is
/// at most `scale / 2` per element.
pub fn quantize_row(values: &[f32], out: &mut [u8]) -> (f32, f32) {
    assert_eq!(values.len(), out.len(), "quantize_row length mismatch");
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let scale = (hi - lo) / 255.0;
    if scale == 0.0 {
        out.fill(0);
        return (0.0, lo);
    }
    for (q, &v) in out.iter_mut().zip(values) {
        *q = code((v - lo) / scale);
    }
    (scale, lo)
}

/// `x.round().clamp(0.0, 255.0) as u8` without `round`, which a
/// baseline x86-64 build calls into libm for. Inside `(0, 254.5)` the fraction
/// `x - trunc(x)` is exact, so adding one at `≥ 0.5` rounds half away from
/// zero as `round` does; below that range (and for NaN) the code is 0,
/// above it 255.
#[inline]
fn code(x: f32) -> u8 {
    if x >= 254.5 {
        255
    } else if x > 0.0 {
        let t = x as u8;
        t + u8::from(x - f32::from(t) >= 0.5)
    } else {
        0
    }
}

/// Dequantizes one code back to `f32`.
#[inline]
pub fn dequantize(q: u8, scale: f32, min: f32) -> f32 {
    min + scale * q as f32
}

/// A `rows × dim` embedding table with two numeric tiers: hot rows exact
/// `f32` in one contiguous arena, cold rows int8 (per-row affine code) in
/// another. Row placement is fixed at construction from a
/// [`HotColdPartition`] — exactly the popularity classification the
/// calibrator already computes.
#[derive(Clone)]
pub struct TieredTable {
    rows: usize,
    dim: usize,
    /// Per global row: tier slot, with [`HOT_TAG`] set for hot rows.
    slot: Vec<u32>,
    /// Hot arena, `hot_count × dim`, row-major.
    hot: Vec<f32>,
    /// Cold codes, `cold_count × dim`, row-major.
    cold_q: Vec<u8>,
    /// Per cold row affine scale.
    cold_scale: Vec<f32>,
    /// Per cold row affine offset (the row minimum).
    cold_min: Vec<f32>,
}

impl TieredTable {
    /// Creates a tiered table with DLRM's uniform `±1/sqrt(rows)`
    /// initialisation, drawing the RNG in exactly the row-major order
    /// [`EmbeddingTable::new`] uses. Hot rows are therefore bit-identical
    /// to the untiered initialisation; cold rows are quantized immediately
    /// from a one-row scratch buffer, so the full `f32` table is never
    /// materialized.
    pub fn new(rows: usize, dim: usize, partition: &HotColdPartition, rng: &mut impl Rng) -> Self {
        assert!(rows > 0 && dim > 0, "embedding table must be non-empty");
        assert_eq!(partition.rows(), rows, "partition row count mismatch");
        let scale = 1.0 / (rows as f32).sqrt();
        let hot_count = partition.hot_count();
        let cold_count = rows - hot_count;
        let mut out = Self {
            rows,
            dim,
            slot: Vec::with_capacity(rows),
            hot: Vec::with_capacity(hot_count * dim),
            cold_q: Vec::with_capacity(cold_count * dim),
            cold_scale: Vec::with_capacity(cold_count),
            cold_min: Vec::with_capacity(cold_count),
        };
        let mut row_buf = vec![0.0f32; dim];
        let mut code_buf = vec![0u8; dim];
        for r in 0..rows as u32 {
            for v in row_buf.iter_mut() {
                *v = rng.gen_range(-scale..scale);
            }
            out.push_row(r, &row_buf, &mut code_buf, partition);
        }
        out
    }

    /// Quantizes an existing `f32` table (checkpoint restore, tests).
    pub fn from_table(table: &EmbeddingTable, partition: &HotColdPartition) -> Self {
        assert_eq!(partition.rows(), table.rows(), "partition row count mismatch");
        let (rows, dim) = (table.rows(), table.dim());
        let hot_count = partition.hot_count();
        let cold_count = rows - hot_count;
        let mut out = Self {
            rows,
            dim,
            slot: Vec::with_capacity(rows),
            hot: Vec::with_capacity(hot_count * dim),
            cold_q: Vec::with_capacity(cold_count * dim),
            cold_scale: Vec::with_capacity(cold_count),
            cold_min: Vec::with_capacity(cold_count),
        };
        let mut code_buf = vec![0u8; dim];
        for r in 0..rows as u32 {
            out.push_row(r, table.row(r), &mut code_buf, partition);
        }
        out
    }

    fn push_row(&mut self, r: u32, values: &[f32], code_buf: &mut [u8], p: &HotColdPartition) {
        if p.is_hot(r) {
            self.slot.push(HOT_TAG | (self.hot.len() / self.dim) as u32);
            self.hot.extend_from_slice(values);
        } else {
            let (s, m) = quantize_row(values, code_buf);
            self.slot.push(self.cold_scale.len() as u32);
            self.cold_q.extend_from_slice(code_buf);
            self.cold_scale.push(s);
            self.cold_min.push(m);
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hot (`f32`) rows.
    pub fn hot_rows(&self) -> usize {
        self.hot.len() / self.dim
    }

    /// Number of cold (int8) rows.
    pub fn cold_rows(&self) -> usize {
        self.cold_scale.len()
    }

    /// True if global row `idx` lives in the hot tier.
    pub fn is_hot(&self, idx: u32) -> bool {
        self.slot[idx as usize] & HOT_TAG != 0
    }

    /// Honest resident size: hot f32s + cold codes + per-cold-row affine
    /// metadata + the per-row slot map.
    pub fn size_bytes(&self) -> usize {
        self.hot.len() * 4 + self.cold_q.len() + self.cold_scale.len() * 8 + self.slot.len() * 4
    }

    /// Copies row `idx` into `out`, dequantizing if cold.
    pub fn copy_row_into(&self, idx: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "row width mismatch");
        let slot = self.slot[idx as usize];
        if slot & HOT_TAG != 0 {
            let off = (slot & !HOT_TAG) as usize * self.dim;
            out.copy_from_slice(&self.hot[off..off + self.dim]);
        } else {
            let c = slot as usize;
            let (s, m) = (self.cold_scale[c], self.cold_min[c]);
            let codes = &self.cold_q[c * self.dim..(c + 1) * self.dim];
            for (o, &q) in out.iter_mut().zip(codes) {
                *o = dequantize(q, s, m);
            }
        }
    }

    /// Row `idx` as an owned vector, dequantizing if cold.
    pub fn row_f32(&self, idx: u32) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.copy_row_into(idx, &mut out);
        out
    }

    /// Overwrites row `idx`: hot rows store exact `f32`, cold rows
    /// requantize (fresh per-row scale and min).
    pub fn set_row(&mut self, idx: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "row width mismatch");
        let slot = self.slot[idx as usize];
        if slot & HOT_TAG != 0 {
            let off = (slot & !HOT_TAG) as usize * self.dim;
            self.hot[off..off + self.dim].copy_from_slice(values);
        } else {
            let c = slot as usize;
            let (s, m) = quantize_row(values, &mut self.cold_q[c * self.dim..(c + 1) * self.dim]);
            self.cold_scale[c] = s;
            self.cold_min[c] = m;
        }
    }

    /// Sum-pooled bag lookup, mirroring [`EmbeddingTable::lookup_bag`]:
    /// hot rows accumulate from the arena, cold rows dequantize on the
    /// fly (no per-row allocation).
    pub fn lookup_bag(&self, indices: &[u32], offsets: &[usize]) -> Tensor {
        check_offsets(indices, offsets);
        let batch = offsets.len() - 1;
        let mut out = Tensor::zeros(batch, self.dim);
        for b in 0..batch {
            let dst = out.row_mut(b);
            for &idx in &indices[offsets[b]..offsets[b + 1]] {
                let slot = self.slot[idx as usize];
                if slot & HOT_TAG != 0 {
                    let off = (slot & !HOT_TAG) as usize * self.dim;
                    fae_nn::lanes::add_assign(dst, &self.hot[off..off + self.dim]);
                } else {
                    let c = slot as usize;
                    let (s, m) = (self.cold_scale[c], self.cold_min[c]);
                    let codes = &self.cold_q[c * self.dim..(c + 1) * self.dim];
                    for (d, &q) in dst.iter_mut().zip(codes) {
                        *d += dequantize(q, s, m);
                    }
                }
            }
        }
        out
    }

    /// Sparse SGD update. Hot rows update in place exactly as
    /// [`EmbeddingTable::sgd_step_sparse`] (bit-identical). Cold rows
    /// dequantize-on-touch into a scratch row, update in `f32`, and
    /// requantize-on-apply — each touched row is read and written once.
    pub fn sgd_step_sparse(&mut self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim(), self.dim, "gradient width mismatch");
        let mut scratch = vec![0.0f32; self.dim];
        for (idx, g) in grad.iter() {
            let slot = self.slot[idx as usize];
            if slot & HOT_TAG != 0 {
                let off = (slot & !HOT_TAG) as usize * self.dim;
                fae_nn::lanes::axpy(&mut self.hot[off..off + self.dim], -lr, g);
            } else {
                self.copy_row_into(idx, &mut scratch);
                fae_nn::lanes::axpy(&mut scratch, -lr, g);
                self.set_row(idx, &scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The formula `quantize_row` used to spell out per element.
    fn rounded(values: &[f32], out: &mut [u8]) -> (f32, f32) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if values.is_empty() {
            return (0.0, 0.0);
        }
        let scale = (hi - lo) / 255.0;
        if scale == 0.0 {
            out.fill(0);
            return (0.0, lo);
        }
        for (q, &v) in out.iter_mut().zip(values) {
            *q = (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8;
        }
        (scale, lo)
    }

    #[test]
    fn code_rounds_as_the_formula_did() {
        let near = |x: f32| [f32::from_bits(x.to_bits() - 1), x, f32::from_bits(x.to_bits() + 1)];
        let mut xs = vec![0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-45, -1e-45];
        for k in 0..=256 {
            // Every tie and integer, and the floats either side of each.
            xs.extend(near(k as f32 + 0.5));
            xs.extend(near((k as f32).max(1e-45)));
        }
        xs.extend([-0.5, -0.49999997, 254.49998, 255.49998, 1e30, -1e30]);
        for x in xs {
            assert_eq!(code(x), x.round().clamp(0.0, 255.0) as u8, "x = {x:e}");
        }
    }

    #[test]
    fn quantize_row_matches_the_formula() {
        let sub = f32::from_bits(3);
        let rows: Vec<Vec<f32>> = vec![
            // Values on the code's half steps: 0 + k·0.5 over a 255 span.
            (0..=510).map(|k| k as f32 * 0.5).collect(),
            vec![0.0, 255.0, 127.5, 0.5, 254.5, 1.5],
            vec![-3.25; 16],
            vec![sub, 0.0, -sub, f32::from_bits(0x0010_0000), -0.0],
            vec![-3.0e38, 3.0e38, 0.0, 1.0e38],
            vec![f32::MAX, -f32::MAX, 1.0],
            vec![1.0, f32::NAN, -2.0, 0.25],
            vec![f32::NAN, f32::NAN],
            vec![f32::INFINITY, 0.0, 1.0],
            vec![f32::NEG_INFINITY, 0.0, 1.0],
            (0..97).map(|k| ((k * 37) % 101) as f32 / 7.3 - 5.0).collect(),
            Vec::new(),
        ];
        for values in rows {
            let (mut got, mut want) = (vec![0u8; values.len()], vec![0u8; values.len()]);
            let (gs, gm) = quantize_row(&values, &mut got);
            let (ws, wm) = rounded(&values, &mut want);
            assert_eq!((gs.to_bits(), gm.to_bits()), (ws.to_bits(), wm.to_bits()), "{values:?}");
            assert_eq!(got, want, "{values:?}");
        }
    }

    impl TieredTable {
        /// Materializes a dequantized `f32` snapshot.
        fn to_table(&self) -> EmbeddingTable {
            let mut weights = Tensor::zeros(self.rows, self.dim);
            for r in 0..self.rows as u32 {
                self.copy_row_into(r, weights.row_mut(r as usize));
            }
            EmbeddingTable::from_weights(weights)
        }

        /// Maximum absolute dequantization error against an `f32` reference
        /// table of identical shape.
        fn max_abs_error(&self, reference: &EmbeddingTable) -> f32 {
            assert_eq!(reference.rows(), self.rows, "shape mismatch");
            assert_eq!(reference.dim(), self.dim, "shape mismatch");
            let mut worst = 0.0f32;
            let mut buf = vec![0.0f32; self.dim];
            for r in 0..self.rows as u32 {
                self.copy_row_into(r, &mut buf);
                for (a, &b) in buf.iter().zip(reference.row(r)) {
                    worst = worst.max((a - b).abs());
                }
            }
            worst
        }
    }

    fn partition_with_hot(rows: usize, hot: &[u32]) -> HotColdPartition {
        let mut counter = crate::stats::AccessCounter::new(rows);
        for &h in hot {
            counter.record(h);
            counter.record(h);
        }
        HotColdPartition::from_counts(&counter, 2)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let row: Vec<f32> = (0..16).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut codes = vec![0u8; 16];
            let (scale, min) = quantize_row(&row, &mut codes);
            for (&q, &v) in codes.iter().zip(&row) {
                let err = (dequantize(q, scale, min) - v).abs();
                assert!(err <= scale / 2.0 + 1e-6, "err {err} vs step {scale}");
            }
        }
    }

    #[test]
    fn constant_row_is_exact() {
        let row = vec![0.25f32; 8];
        let mut codes = vec![0u8; 8];
        let (scale, min) = quantize_row(&row, &mut codes);
        assert_eq!(scale, 0.0);
        for &q in &codes {
            assert_eq!(dequantize(q, scale, min), 0.25);
        }
    }

    #[test]
    fn hot_rows_are_bit_identical_to_untiered_init() {
        // Same seed, same draw order: the tiered constructor must produce
        // hot rows with exactly the bits of EmbeddingTable::new.
        let p = partition_with_hot(50, &[0, 7, 23, 49]);
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let dense = EmbeddingTable::new(50, 8, &mut r1);
        let tiered = TieredTable::new(50, 8, &p, &mut r2);
        assert_eq!(tiered.hot_rows(), 4);
        for &h in &[0u32, 7, 23, 49] {
            assert_eq!(tiered.row_f32(h), dense.row(h), "hot row {h}");
        }
        // Cold rows carry at most the affine half-step of error.
        assert!(tiered.max_abs_error(&dense) < 2.0 / 50f32.sqrt() / 255.0);
    }

    #[test]
    fn tiered_is_roughly_4x_smaller_when_mostly_cold() {
        let p = partition_with_hot(4096, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        let dense = EmbeddingTable::new(4096, 64, &mut rng);
        let tiered = TieredTable::from_table(&dense, &p);
        // Weights shrink 4×; per-row metadata (12 B) is small at dim 64.
        let ratio = dense.size_bytes() as f64 / tiered.size_bytes() as f64;
        assert!(ratio > 3.3, "ratio {ratio}");
    }

    #[test]
    fn lookup_matches_dense_within_quantization() {
        let p = partition_with_hot(100, &[5]);
        let mut rng = StdRng::seed_from_u64(4);
        let dense = EmbeddingTable::new(100, 16, &mut rng);
        let tiered = TieredTable::from_table(&dense, &p);
        let idx = [5u32, 5, 63, 99, 0];
        let off = [0usize, 2, 4, 5];
        let a = dense.lookup_bag(&idx, &off);
        let b = tiered.lookup_bag(&idx, &off);
        let step = 2.0 / 100f32.sqrt() / 255.0;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= 2.0 * step + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn hot_updates_are_bit_identical_to_dense() {
        let p = partition_with_hot(20, &[3, 11]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut dense = EmbeddingTable::new(20, 8, &mut rng);
        let mut tiered = TieredTable::from_table(&dense, &p);
        let mut g = SparseGrad::new(8);
        g.accumulate(3, &[0.1; 8]);
        g.accumulate(11, &[-0.2; 8]);
        for _ in 0..50 {
            dense.sgd_step_sparse(&g, 0.05);
            tiered.sgd_step_sparse(&g, 0.05);
        }
        assert_eq!(tiered.row_f32(3), dense.row(3));
        assert_eq!(tiered.row_f32(11), dense.row(11));
    }

    #[test]
    fn cold_update_lands_within_requantization_error() {
        let p = partition_with_hot(10, &[0]);
        let mut rng = StdRng::seed_from_u64(6);
        let dense = EmbeddingTable::new(10, 8, &mut rng);
        let mut tiered = TieredTable::from_table(&dense, &p);
        let before = tiered.row_f32(7);
        let mut g = SparseGrad::new(8);
        g.accumulate(7, &[1.0; 8]);
        tiered.sgd_step_sparse(&g, 0.1);
        let after = tiered.row_f32(7);
        // The f32 update is −0.1 per element; requantization may move it
        // by at most one affine step of the updated row.
        for (b, a) in before.iter().zip(&after) {
            assert!((b - 0.1 - a).abs() < 2e-3, "{b} -> {a}");
        }
    }

    proptest::proptest! {
        /// Property form of the round-trip bound: for any finite row,
        /// every element dequantizes to within half an affine step
        /// (`scale / 2`) of its source value, and a second
        /// quantize→dequantize pass stays on the same grid.
        #[test]
        fn quantize_round_trip_is_within_half_step(
            row in proptest::collection::vec(-8.0f32..8.0, 1..64)
        ) {
            let mut codes = vec![0u8; row.len()];
            let (scale, min) = quantize_row(&row, &mut codes);
            for (&q, &v) in codes.iter().zip(&row) {
                let err = (dequantize(q, scale, min) - v).abs();
                // f32 rounding inside the affine map costs a hair beyond
                // the ideal half step; bound it by a small multiple.
                proptest::prop_assert!(
                    err <= scale * 0.5 + scale * 1e-3 + 1e-6,
                    "err {} vs step {}", err, scale
                );
            }
            // Grid values survive a second pass nearly unchanged: one
            // more half-step at most (f32 rounding can shift the grid).
            let deq: Vec<f32> = codes.iter().map(|&q| dequantize(q, scale, min)).collect();
            let mut codes2 = vec![0u8; deq.len()];
            let (s2, m2) = quantize_row(&deq, &mut codes2);
            for (&q2, &v) in codes2.iter().zip(&deq) {
                let err = (dequantize(q2, s2, m2) - v).abs();
                proptest::prop_assert!(err <= s2 * 0.5 + s2 * 1e-3 + 1e-6);
            }
        }
    }

    #[test]
    fn promoted_cold_row_trains_bit_identically_from_its_dequantized_value() {
        // A recalibration can move a cold row into the hot tier. The
        // promoted row is seeded from its dequantized value, and from
        // then on must train with exactly f32 semantics — bit-identical
        // to a dense table holding the same dequantized start.
        let cold_p = partition_with_hot(12, &[0]);
        let mut rng = StdRng::seed_from_u64(8);
        let dense = EmbeddingTable::new(12, 8, &mut rng);
        let tiered = TieredTable::from_table(&dense, &cold_p);
        assert!(!tiered.is_hot(5), "row 5 must start cold");

        // Promote: re-tier the dequantized snapshot under a partition
        // where row 5 is hot.
        let hot_p = partition_with_hot(12, &[0, 5]);
        let snap = tiered.to_table();
        let mut promoted = TieredTable::from_table(&snap, &hot_p);
        assert!(promoted.is_hot(5));
        assert_eq!(promoted.row_f32(5), tiered.row_f32(5), "promotion seeds the exact bits");

        let mut reference = snap.clone();
        let mut g = SparseGrad::new(8);
        g.accumulate(5, &[0.31; 8]);
        for _ in 0..100 {
            promoted.sgd_step_sparse(&g, 0.07);
            reference.sgd_step_sparse(&g, 0.07);
        }
        assert_eq!(promoted.row_f32(5), reference.row(5), "hot training is exact f32");
    }

    #[test]
    fn to_table_round_trips_exactly() {
        let p = partition_with_hot(30, &[2, 9]);
        let mut rng = StdRng::seed_from_u64(7);
        let dense = EmbeddingTable::new(30, 4, &mut rng);
        let tiered = TieredTable::from_table(&dense, &p);
        let snap = tiered.to_table();
        // Snapshot equals the tiered view bit-for-bit (hot rows exact,
        // cold rows on the quantization grid).
        for r in 0..30u32 {
            assert_eq!(snap.row(r), tiered.row_f32(r).as_slice());
        }
    }
}
