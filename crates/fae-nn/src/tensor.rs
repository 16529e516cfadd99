//! Row-major 2-D `f32` tensor.
//!
//! Recommendation-model training only ever needs rank-2 tensors on the
//! dense path (`batch × features`), so the representation is a flat
//! `Vec<f32>` plus `(rows, cols)`. All shape mismatches are programmer
//! errors and panic with a descriptive message, matching the convention of
//! the rest of the workspace.

use crate::lanes;
use rayon::prelude::*;
use std::fmt;

/// Minimum `rows * cols * inner` product before matmul fans out to rayon.
/// Small matrices (the common case inside per-mini-batch layers) stay on
/// one thread to avoid scheduling overhead.
const PAR_MATMUL_THRESHOLD: usize = 64 * 64 * 64;

/// A dense, row-major, 2-D `f32` matrix.
///
/// ```
/// use fae_nn::Tensor;
/// let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = a.transpose();                 // 3×2
/// let c = a.matmul(&b);                  // 2×2 Gram matrix
/// assert_eq!(c.get(0, 0), 14.0);         // 1+4+9
/// assert_eq!(c.shape(), (2, 2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a tensor where every element equals `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self { data: vec![v; rows * cols], rows, cols }
    }

    /// Builds a tensor from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length {} != {rows}x{cols}", data.len());
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (m×k) · rhs (k×n) -> m×n`.
    ///
    /// Uses the classic ikj loop order (streaming over `rhs` rows) and fans
    /// out over result rows with rayon once the work exceeds
    /// `PAR_MATMUL_THRESHOLD`. A one-column `rhs` (every model's last
    /// layer) is one running sum per output row instead of `k` length-1
    /// axpys: the same additions in the same order.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        let work = m * k * n;
        let kernel = |row: usize, out_row: &mut [f32]| {
            let a_row = &self.data[row * k..(row + 1) * k];
            if n == 1 {
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(&rhs.data) {
                    if a != 0.0 {
                        acc += a * b;
                    }
                }
                out_row[0] = acc;
                return;
            }
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[i * n..(i + 1) * n];
                lanes::axpy(out_row, a, b_row);
            }
        };
        if work >= PAR_MATMUL_THRESHOLD {
            out.par_chunks_mut(n).enumerate().for_each(|(row, out_row)| kernel(row, out_row));
        } else {
            for (row, out_row) in out.chunks_mut(n).enumerate() {
                kernel(row, out_row);
            }
        }
        Tensor { data: out, rows: m, cols: n }
    }

    /// Matrix product `selfᵀ (m×k from k×m) · rhs (k×n) -> m×n`, without
    /// materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` on one thread: for
    /// every output element the contributions accumulate over the shared
    /// dimension in the same ascending order, and the same zero-skip
    /// applies, so no f32 addition is reordered. Used by the backward pass
    /// for weight gradients (`dW = xᵀ · dY`), where the transpose copy of
    /// the activation matrix was pure overhead.
    pub fn matmul_transpose_lhs(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transpose_lhs shape mismatch: {}x{} ᵀ· {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        if n == 1 {
            // One output column: sample `b` adds `g[b] · x[b]` to all of
            // it at once. Where the loop below skips a zero `x` this adds
            // a signed zero, which leaves a sum that started at `+0.0`
            // as it was — unless `g[b]` is not finite.
            for (b, &g) in rhs.data.iter().enumerate() {
                lanes::axpy(&mut out, g, self.row(b));
            }
            return Tensor { data: out, rows: m, cols: n };
        }
        for b in 0..k {
            let x_row = self.row(b);
            let g_row = rhs.row(b);
            for (i, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                lanes::axpy(&mut out[i * n..(i + 1) * n], a, g_row);
            }
        }
        Tensor { data: out, rows: m, cols: n }
    }

    /// Matrix product `self (m×k) · rhsᵀ (k×n from n×k) -> m×n`.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` — it *is* that,
    /// spelled as one call. Materializing the (small) transposed weight
    /// matrix keeps [`matmul`](Tensor::matmul)'s zero-skip over `self`'s
    /// elements, which matters because the backward pass feeds this
    /// post-ReLU gradients (`dX = dY · Wᵀ`) that are mostly zeros; a
    /// row-dot formulation without the skip measures ~25% slower
    /// end-to-end. The transpose copy is O(k·n) against the O(m·k·n)
    /// product, so it is noise by comparison.
    pub fn matmul_transpose_rhs(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_rhs shape mismatch: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul(&rhs.transpose())
    }

    /// Resets every element to zero in place, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match.
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place `self += scale * rhs`; shapes must match.
    pub fn add_scaled(&mut self, rhs: &Tensor, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        lanes::axpy(&mut self.data, scale, &rhs.data);
    }

    /// Returns `self * s` elementwise.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&v| f(v)).collect(), rows: self.rows, cols: self.cols }
    }

    /// Adds a length-`cols` bias vector to every row.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Tensor {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for row in out.data.chunks_mut(self.cols) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
    }

    /// Sums over rows, producing a length-`cols` vector (used for bias
    /// gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.cols];
        for row in self.data.chunks(self.cols) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        acc
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Concatenates tensors horizontally (same number of rows).
    pub fn hcat(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hcat of zero tensors");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hcat row-count mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Splits the tensor horizontally into parts of the given widths.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Tensor> {
        assert_eq!(widths.iter().sum::<usize>(), self.cols, "hsplit widths must sum to cols");
        let mut outs: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(self.rows, w)).collect();
        for r in 0..self.rows {
            let src = self.row(r);
            let mut off = 0;
            for (t, &w) in outs.iter_mut().zip(widths) {
                t.row_mut(r).copy_from_slice(&src[off..off + w]);
                off += w;
            }
        }
        outs
    }

    /// Maximum absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        Tensor {
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_shape_and_values() {
        let z = Tensor::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Tensor::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn large_matmul_matches_small_path() {
        // Force the rayon path and compare against a scalar reference.
        let n = 80;
        let a = Tensor::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 7) as f32 - 3.0);
        let b = Tensor::from_fn(n, n, |r, c| ((r * 13 + c * 5) % 5) as f32 - 2.0);
        let c = a.matmul(&b);
        for r in (0..n).step_by(17) {
            for cc in (0..n).step_by(13) {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a.get(r, k) * b.get(k, cc);
                }
                assert!((c.get(r, cc) - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn matmul_transpose_lhs_is_bitwise_transpose_matmul() {
        let x = Tensor::from_fn(9, 5, |r, c| ((r * 7 + c * 3) % 11) as f32 / 3.0 - 1.5);
        let g = Tensor::from_fn(9, 4, |r, c| ((r * 5 + c * 13) % 9) as f32 / 4.0 - 1.0);
        let fused = x.matmul_transpose_lhs(&g);
        let reference = x.transpose().matmul(&g);
        assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn matmul_transpose_rhs_is_bitwise_transpose_matmul() {
        let g = Tensor::from_fn(6, 10, |r, c| ((r * 3 + c * 7) % 13) as f32 / 5.0 - 1.2);
        let w = Tensor::from_fn(4, 10, |r, c| ((r * 11 + c * 2) % 7) as f32 / 3.0 - 1.0);
        let fused = g.matmul_transpose_rhs(&w);
        let reference = g.matmul(&w.transpose());
        assert_eq!(fused.shape(), reference.shape());
        assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn one_column_products_are_bitwise_the_general_kernel() {
        // A one-column right-hand side against the same column doubled:
        // two columns take the general axpy kernel, and its column 0 must
        // be the one-column result bit for bit. Zeros and `-0.0` on the
        // left exercise the zero-skip; 37 rows straddle the 8-lane unroll.
        let x = Tensor::from_fn(37, 19, |r, c| match (r * 19 + c) % 7 {
            0 => 0.0,
            3 => -0.0,
            k => ((r * 31 + c * 17) % 23) as f32 / 7.0 - 1.5 + k as f32 * 1e-3,
        });
        let doubled = |col: &Tensor| Tensor::hcat(&[col, col]);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let column0 = |t: &Tensor| bits(&t.hsplit(&[1, 1])[0]);

        let w = Tensor::from_fn(19, 1, |r, _| ((r * 13) % 11) as f32 / 3.0 - 1.7);
        let forward = x.matmul(&w);
        assert_eq!(forward.shape(), (37, 1));
        assert_eq!(bits(&forward), column0(&x.matmul(&doubled(&w))));

        let g = Tensor::from_fn(37, 1, |r, _| if r % 5 == 0 { 0.0 } else { r as f32 / 9.0 - 2.0 });
        let dw = x.matmul_transpose_lhs(&g);
        assert_eq!(dw.shape(), (19, 1));
        assert_eq!(bits(&dw), column0(&x.matmul_transpose_lhs(&doubled(&g))));
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 4]);
        assert_eq!(a.shape(), (2, 2));
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.get(2, 1), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = t(1, 2, &[1.0, 1.0]);
        let g = t(1, 2, &[2.0, 4.0]);
        a.add_scaled(&g, -0.5);
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn bias_broadcast_and_sum_rows() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let with_bias = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(with_bias.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn hcat_hsplit_round_trip() {
        let a = t(2, 1, &[1.0, 4.0]);
        let b = t(2, 2, &[2.0, 3.0, 5.0, 6.0]);
        let cat = Tensor::hcat(&[&a, &b]);
        assert_eq!(cat.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let parts = cat.hsplit(&[1, 2]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn max_abs_and_finiteness() {
        let a = t(1, 3, &[-5.0, 2.0, 3.0]);
        assert_eq!(a.max_abs(), 5.0);
        assert!(a.all_finite());
        let bad = t(1, 1, &[f32::NAN]);
        assert!(!bad.all_finite());
    }
}
