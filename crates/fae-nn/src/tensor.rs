//! Row-major 2-D `f32` tensor.
//!
//! Recommendation-model training only ever needs rank-2 tensors on the
//! dense path (`batch × features`), so the representation is a flat
//! `Vec<f32>` plus `(rows, cols)`. All shape mismatches are programmer
//! errors and panic with a descriptive message, matching the convention of
//! the rest of the workspace.

use crate::{cores, lanes};
use std::fmt;

/// Smallest product, in multiply-adds, whose output rows are split across
/// cores. On a 2-vCPU 2.1 GHz Xeon built for the host (AVX-512) a scoped
/// spawn + join costs 41–44 µs, yet a 1.7 M product (Kaggle's 13·512 layer
/// at batch 256) ran no faster split (forward 0.87–1.11×, dW 0.72–0.83×),
/// while a 4.2 M one (its 256·64 layer) ran 1.44–1.54× faster forward and
/// 1.26–1.34× backward. Every TBSM product at batch 256 (the largest is
/// 0.5 M) stays on one thread.
pub const SPLIT_THRESHOLD: usize = 1 << 22;

/// How many threads a product of `work` multiply-adds over `rows` output
/// rows runs on: 1 below [`SPLIT_THRESHOLD`], otherwise this thread's
/// [`cores::share`], clamped to `[1, rows]`.
pub(crate) fn split_width(work: usize, rows: usize) -> usize {
    if work < SPLIT_THRESHOLD {
        return 1;
    }
    cores::share().clamp(1, rows.max(1))
}

/// Runs `kernel(first_row, chunk)` over `out`, cut into at most `parts`
/// runs of whole `n`-wide rows, one [`cores::fan_out`] task each. Every
/// element is written by exactly one kernel call, so a kernel that is
/// deterministic per row gives the same bits at every `parts`.
pub(crate) fn split_rows(
    out: &mut [f32],
    n: usize,
    parts: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    if parts <= 1 || out.len() <= n {
        return kernel(0, out);
    }
    let per = (out.len() / n).div_ceil(parts);
    cores::fan_out(out.chunks_mut(per * n).enumerate().collect(), |(c, chunk)| {
        kernel(c * per, chunk)
    });
}

/// `out = A · B` for row-major `A` (`rows × k`) and `B` (`k × n`): each
/// output row is zeroed, then takes one axpy per non-zero `A` element in
/// ascending order. With one column (every model's last layer) an output
/// is one running sum in that order, taken four rows at a time so that
/// four sums are in flight; a zero term adds `+0.0` there instead of
/// branching (a post-ReLU input is zero at random), which leaves a sum
/// that started at `+0.0` as it was, since such a sum is never `-0.0`.
pub(crate) fn product_rows(a: &[f32], k: usize, b: &[f32], out: &mut [f32]) {
    let n = b.len() / k;
    if n == 1 {
        let term = |a: f32, b: f32| if a != 0.0 { a * b } else { 0.0 };
        let mut blocks = a.chunks_exact(4 * k);
        let mut sums = out.chunks_exact_mut(4);
        for (block, sum) in (&mut blocks).zip(&mut sums) {
            let mut acc = [0.0f32; 4];
            for (i, &b) in b.iter().enumerate() {
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc += term(block[r * k + i], b);
                }
            }
            sum.copy_from_slice(&acc);
        }
        for (row, sum) in blocks.remainder().chunks_exact(k).zip(sums.into_remainder()) {
            *sum = row.iter().zip(b).fold(0.0, |acc, (&a, &b)| acc + term(a, b));
        }
        return;
    }
    for (row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        out_row.fill(0.0);
        for (&a, b_row) in row.iter().zip(b.chunks_exact(n)) {
            if a != 0.0 {
                lanes::axpy(out_row, a, b_row);
            }
        }
    }
}

/// `out += xᵀ · g` for row-major `x` (`k × m`) and `g` (`k × n`), `out`
/// `m × n`, without materializing the transpose: every output element
/// takes its contributions in ascending sample order, skipping a zero `x`.
/// Output rows are split across `parts` threads; each run walks every
/// sample in order.
pub(crate) fn accumulate_xt_g(x: &[f32], m: usize, g: &[f32], out: &mut [f32], parts: usize) {
    if out.is_empty() {
        return;
    }
    let n = out.len() / m;
    if n == 1 {
        // One output column: sample `b` adds `g[b] · x[b]` to all of
        // it at once. Where the loop below skips a zero `x` this adds
        // a signed zero, which leaves a sum that started at `+0.0`
        // as it was — unless `g[b]` is not finite.
        for (&g, x_row) in g.iter().zip(x.chunks_exact(m)) {
            lanes::axpy(out, g, x_row);
        }
        return;
    }
    split_rows(out, n, parts, |first, chunk| {
        for (x_row, g_row) in x.chunks_exact(m).zip(g.chunks_exact(n)) {
            let x_run = &x_row[first..first + chunk.len() / n];
            for (out_row, &a) in chunk.chunks_mut(n).zip(x_run) {
                if a == 0.0 {
                    continue;
                }
                lanes::axpy(out_row, a, g_row);
            }
        }
    });
}

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

    /// Matrix product `self (m×k) · rhs (k×n) -> m×n`, over the row kernel
    /// every MLP forward and input gradient runs (classic ikj order,
    /// streaming over `rhs` rows), split across cores above
    /// [`SPLIT_THRESHOLD`].
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_parts(rhs, split_width(self.rows * self.cols * rhs.cols, self.rows))
    }

    fn matmul_parts(&self, rhs: &Tensor, parts: usize) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        split_rows(&mut out, n, parts, |first, chunk| {
            let rows = first..first + chunk.len() / n;
            product_rows(&self.data[rows.start * k..rows.end * k], k, &rhs.data, chunk);
        });
        Tensor { data: out, rows: m, cols: n }
    }

    /// Resets every element to zero in place, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out.data);
        out
    }

    /// Writes the transpose, row-major `cols × rows`, into `out`.
    pub(crate) fn transpose_into(&self, out: &mut [f32]) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
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

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
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

    /// The backward products as `Tensor` calls, over the kernels `Mlp`
    /// runs: dW `selfᵀ · rhs` (transpose-free, into zeros) and dX
    /// `self · rhsᵀ` (through a transposed copy of the small weight, so
    /// the zero-skip over a post-ReLU gradient applies).
    impl Tensor {
        pub(super) fn matmul_transpose_lhs(&self, rhs: &Tensor) -> Tensor {
            let work = self.rows * self.cols * rhs.cols;
            self.matmul_transpose_lhs_parts(rhs, split_width(work, self.cols))
        }

        fn matmul_transpose_lhs_parts(&self, rhs: &Tensor, parts: usize) -> Tensor {
            assert_eq!(self.rows, rhs.rows, "matmul_transpose_lhs shape mismatch");
            let mut out = vec![0.0f32; self.cols * rhs.cols];
            accumulate_xt_g(&self.data, self.cols, &rhs.data, &mut out, parts);
            Tensor { data: out, rows: self.cols, cols: rhs.cols }
        }

        pub(super) fn matmul_transpose_rhs(&self, rhs: &Tensor) -> Tensor {
            self.matmul(&rhs.transpose())
        }
    }

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
    fn split_products_are_bitwise_the_serial_ones() {
        // Kaggle's 512·256 layer at batch 256 clears the threshold, so the
        // public entry points split it wherever there is a second core.
        let x = operand(256, 512, 21);
        let w = operand(512, 256, 22);
        let g = operand(256, 256, 23);
        const { assert!(256 * 512 * 256 >= SPLIT_THRESHOLD) };
        assert_eq!(x.matmul(&w), x.matmul_parts(&w, 1));
        assert_eq!(x.matmul_transpose_lhs(&g), x.matmul_transpose_lhs_parts(&g, 1));
        assert_eq!(g.matmul_transpose_rhs(&w), g.matmul_parts(&w.transpose(), 1));
    }

    #[test]
    fn split_width_is_gated_by_work_siblings_and_rows() {
        let cores = cores::share();
        let big = SPLIT_THRESHOLD;
        assert_eq!(split_width(big - 1, 256), 1);
        assert_eq!(split_width(big, 256), cores.min(256));
        for rows in 0..4 {
            assert!(split_width(big, rows) <= rows.max(1));
        }
        for siblings in [cores, cores + 1] {
            let widths = cores::fan_out(vec![(); siblings], |()| split_width(big, 256));
            assert_eq!(widths, vec![1; siblings], "{siblings} siblings");
        }
        assert_eq!(split_width(big, 256), cores.min(256));
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
        let doubled = |col: &Tensor| Tensor::from_fn(col.rows(), 2, |r, _| col.get(r, 0));
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let column0 =
            |t: &Tensor| t.as_slice().iter().step_by(2).map(|v| v.to_bits()).collect::<Vec<_>>();

        let w = Tensor::from_fn(19, 1, |r, _| ((r * 13) % 11) as f32 / 3.0 - 1.7);
        let forward = x.matmul(&w);
        assert_eq!(forward.shape(), (37, 1));
        assert_eq!(bits(&forward), column0(&x.matmul(&doubled(&w))));

        let g = Tensor::from_fn(37, 1, |r, _| if r % 5 == 0 { 0.0 } else { r as f32 / 9.0 - 2.0 });
        let dw = x.matmul_transpose_lhs(&g);
        assert_eq!(dw.shape(), (19, 1));
        assert_eq!(bits(&dw), column0(&x.matmul_transpose_lhs(&doubled(&g))));
    }

    /// Which product a pin row runs: forward `x·W`, dW `xᵀ·dY`, dX `dY·Wᵀ`.
    #[derive(Clone, Copy)]
    enum Op {
        Fwd,
        Dw,
        Dx,
    }

    /// Runs `op` split into `parts` row runs; `None` takes the public
    /// entry point and its own width.
    fn run(op: Op, a: &Tensor, b: &Tensor, parts: Option<usize>) -> Tensor {
        match (op, parts) {
            (Op::Fwd, None) => a.matmul(b),
            (Op::Dw, None) => a.matmul_transpose_lhs(b),
            (Op::Dx, None) => a.matmul_transpose_rhs(b),
            (Op::Fwd, Some(p)) => a.matmul_parts(b, p),
            (Op::Dw, Some(p)) => a.matmul_transpose_lhs_parts(b, p),
            (Op::Dx, Some(p)) => a.matmul_parts(&b.transpose(), p),
        }
    }

    /// A seeded operand in which about a quarter of the elements are
    /// `+0.0`, `-0.0` or subnormal, so the zero-skip and denormal
    /// arithmetic are both on the pinned path.
    fn operand(rows: usize, cols: usize, salt: u64) -> Tensor {
        Tensor::from_fn(rows, cols, |r, c| {
            let h =
                ((r as u64) << 32 | (c as u64) ^ (salt << 20)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = h ^ (h >> 29);
            match h % 12 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(((h >> 32) as u32 & 0x807f_ffff) | 1),
                _ => ((h >> 40) % 2001) as f32 / 1000.0 - 1.0,
            }
        })
    }

    /// The pinned products: Kaggle's widest layers at batch 256, a 13-row
    /// weight's dW, 37 rows (odd, and under the 8-lane unroll in width),
    /// a 1-row batch and one-column right-hand sides.
    fn pin_cases() -> Vec<(&'static str, Op, Tensor, Tensor)> {
        vec![
            ("fwd 256x367 . 367x512", Op::Fwd, operand(256, 367, 1), operand(367, 512, 2)),
            ("fwd 256x13 . 13x512", Op::Fwd, operand(256, 13, 3), operand(13, 512, 4)),
            ("dw 256x13 T. 256x512", Op::Dw, operand(256, 13, 3), operand(256, 512, 5)),
            ("dw 256x367 T. 256x512", Op::Dw, operand(256, 367, 1), operand(256, 512, 5)),
            ("dx 256x512 . (13x512)T", Op::Dx, operand(256, 512, 5), operand(13, 512, 4)),
            ("dx 256x512 . (367x512)T", Op::Dx, operand(256, 512, 5), operand(367, 512, 6)),
            ("fwd 37x19 . 19x24", Op::Fwd, operand(37, 19, 7), operand(19, 24, 8)),
            ("dw 37x19 T. 37x24", Op::Dw, operand(37, 19, 7), operand(37, 24, 9)),
            ("dx 37x24 . (19x24)T", Op::Dx, operand(37, 24, 9), operand(19, 24, 8)),
            ("fwd 1x19 . 19x24", Op::Fwd, operand(1, 19, 10), operand(19, 24, 8)),
            ("dw 1x19 T. 1x24", Op::Dw, operand(1, 19, 10), operand(1, 24, 11)),
            ("dx 1x24 . (19x24)T", Op::Dx, operand(1, 24, 11), operand(19, 24, 8)),
            ("fwd 37x19 . 19x1", Op::Fwd, operand(37, 19, 7), operand(19, 1, 12)),
            ("dw 37x19 T. 37x1", Op::Dw, operand(37, 19, 7), operand(37, 1, 13)),
            ("dx 37x1 . (19x1)T", Op::Dx, operand(37, 1, 13), operand(19, 1, 12)),
            ("fwd 1x19 . 19x1", Op::Fwd, operand(1, 19, 10), operand(19, 1, 12)),
        ]
    }

    /// FNV-1a 64 over the shape and every element's `to_bits`.
    fn fnv_bits(t: &Tensor) -> u64 {
        let dims = [t.rows as u32, t.cols as u32];
        let words = dims.into_iter().chain(t.as_slice().iter().map(|v| v.to_bits()));
        words
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3))
    }

    /// Printed by the code before any product was split across threads.
    /// A change that is meant to move a product prints the table to paste.
    const PINS: [u64; 16] = [
        0x87cf78657be139bd, // fwd 256x367 . 367x512
        0xfd00286b87b02a88, // fwd 256x13 . 13x512
        0x3964f3972f976a78, // dw 256x13 T. 256x512
        0xc22dcb59976b840e, // dw 256x367 T. 256x512
        0x5c44851a59998e34, // dx 256x512 . (13x512)T
        0x4a47f2cd02bb0c14, // dx 256x512 . (367x512)T
        0x0a8d0f3467ac42a6, // fwd 37x19 . 19x24
        0xc78a331b8c0f8a59, // dw 37x19 T. 37x24
        0x79dc1fe817106d12, // dx 37x24 . (19x24)T
        0x0e5911882fe4b726, // fwd 1x19 . 19x24
        0xce2433959439dfbd, // dw 1x19 T. 1x24
        0x23f2ff50daa87d80, // dx 1x24 . (19x24)T
        0xbfbcc9d163fe7b6f, // fwd 37x19 . 19x1
        0x13b02c2516d48556, // dw 37x19 T. 37x1
        0xe09395efbc9a1821, // dx 37x1 . (19x1)T
        0x0927905fdbf599c0, // fwd 1x19 . 19x1
    ];

    #[test]
    fn products_are_pinned_to_the_serial_bits_at_every_split_width() {
        let cases = pin_cases();
        let got: Vec<u64> =
            cases.iter().map(|(_, op, a, b)| fnv_bits(&run(*op, a, b, None))).collect();
        if got != PINS {
            let table: String = cases
                .iter()
                .zip(&got)
                .map(|((name, ..), h)| format!("        0x{h:016x}, // {name}\n"))
                .collect();
            panic!("products moved; the table is now:\n{table}");
        }
        for ((name, op, a, b), &pin) in cases.iter().zip(&PINS) {
            let rows = run(*op, a, b, Some(1)).rows();
            for parts in [1, 2, 3, rows + 1] {
                assert_eq!(
                    fnv_bits(&run(*op, a, b, Some(parts))),
                    pin,
                    "{name} split {parts} ways"
                );
            }
        }
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
    fn sum_adds_every_element() {
        assert_eq!(t(2, 2, &[1.0, 2.0, 3.0, 4.0]).sum(), 10.0);
    }
}
