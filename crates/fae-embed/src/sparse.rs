//! Coalesced sparse gradients for embedding rows.
//!
//! Mini-batch backward passes touch a small, duplicate-heavy set of rows
//! (hot rows especially — that is the paper's whole premise), so gradients
//! are accumulated in a row-keyed map and iterated in sorted row order for
//! determinism.

use fae_nn::lanes;
use std::collections::BTreeMap;

/// Sparse gradient: duplicate contributions to a row are summed into one
/// dense `dim`-length slice.
///
/// Storage is a flat arena — one contiguous `Vec<f32>` holding every
/// touched row back to back, plus a `BTreeMap` from global row id to slot
/// index. Compared to the former map-of-`Vec` layout this does one
/// allocation per *step* (amortised) instead of one per touched row, and
/// accumulation/merge/scale run over contiguous memory with the 8-wide
/// [`lanes`] kernels. The map keeps iteration in ascending row order,
/// which the determinism contract requires (DESIGN.md §14).
#[derive(Clone, Debug, Default)]
pub struct SparseGrad {
    dim: usize,
    /// Global row id → slot index; row `id`'s gradient lives at
    /// `data[slot * dim .. (slot + 1) * dim]`.
    slots: BTreeMap<u32, u32>,
    data: Vec<f32>,
}

impl SparseGrad {
    /// Creates an empty gradient for rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim, slots: BTreeMap::new(), data: Vec::new() }
    }

    /// Builds a gradient from rows already coalesced and sorted: `rows`
    /// strictly ascending, `data` their values back to back (`dim` per
    /// row), taken over bit for bit. `None` when the ids are not strictly
    /// ascending or the lengths disagree — the form a decoder needs for
    /// untrusted input that [`SparseGrad::iter`] produced.
    pub fn from_ascending_rows(dim: usize, rows: &[u32], data: Vec<f32>) -> Option<Self> {
        let ascending = rows.windows(2).all(|w| w[0] < w[1]);
        if !ascending || rows.len().checked_mul(dim) != Some(data.len()) {
            return None;
        }
        let slots = rows.iter().zip(0u32..).map(|(&row, slot)| (row, slot)).collect();
        Some(Self { dim, slots, data })
    }

    /// Gradient row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds `grad` into row `idx`.
    pub fn accumulate(&mut self, idx: u32, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "sparse grad width mismatch");
        let next = self.slots.len() as u32;
        let slot = *self.slots.entry(idx).or_insert(next);
        if slot == next {
            self.data.resize(self.data.len() + self.dim, 0.0);
        }
        let off = slot as usize * self.dim;
        lanes::add_assign(&mut self.data[off..off + self.dim], grad);
    }

    /// Merges another sparse gradient into this one (used when averaging
    /// data-parallel replicas).
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.dim, other.dim, "sparse grad dim mismatch");
        for (idx, g) in other.iter() {
            self.accumulate(idx, g);
        }
    }

    /// Scales every gradient in place (e.g. 1/num_replicas after a merge).
    pub fn scale(&mut self, s: f32) {
        lanes::scale_assign(&mut self.data, s);
    }

    /// Number of distinct rows with gradient mass.
    pub fn nnz_rows(&self) -> usize {
        self.slots.len()
    }

    /// True when no rows carry gradient.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes this gradient occupies on the wire (row ids + values) — used
    /// by the cost model for gradient-transfer terms.
    pub fn wire_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<u32>() + self.dim * std::mem::size_of::<f32>())
    }

    /// Iterates `(row_id, grad)` in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.slots
            .iter()
            .map(|(&i, &s)| (i, &self.data[s as usize * self.dim..(s as usize + 1) * self.dim]))
    }

    /// Gradient for one row, if present.
    pub fn get(&self, idx: u32) -> Option<&[f32]> {
        self.slots
            .get(&idx)
            .map(|&s| &self.data[s as usize * self.dim..(s as usize + 1) * self.dim])
    }

    /// Like [`remap`](SparseGrad::remap) but borrowing, for callers that
    /// still need the original afterwards (saves the former clone-then-remap
    /// round trip in the hot training loop).
    pub fn remap_ref(&self, f: impl Fn(u32) -> u32) -> SparseGrad {
        let mut out = SparseGrad::new(self.dim);
        for (idx, g) in self.iter() {
            out.accumulate(f(idx), g);
        }
        out
    }

    /// Remaps row ids through `f` (e.g. hot-local → global), preserving
    /// accumulation semantics if two ids collide.
    pub fn remap(self, f: impl Fn(u32) -> u32) -> SparseGrad {
        self.remap_ref(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_duplicates() {
        let mut sg = SparseGrad::new(2);
        sg.accumulate(3, &[1.0, 2.0]);
        sg.accumulate(3, &[10.0, 20.0]);
        sg.accumulate(1, &[5.0, 5.0]);
        assert_eq!(sg.nnz_rows(), 2);
        assert_eq!(sg.get(3), Some(&[11.0, 22.0][..]));
        assert_eq!(sg.get(1), Some(&[5.0, 5.0][..]));
        assert_eq!(sg.get(0), None);
    }

    #[test]
    fn iter_is_sorted_by_row() {
        let mut sg = SparseGrad::new(1);
        for idx in [9u32, 1, 5, 3] {
            sg.accumulate(idx, &[1.0]);
        }
        let order: Vec<u32> = sg.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = SparseGrad::new(1);
        a.accumulate(0, &[2.0]);
        let mut b = SparseGrad::new(1);
        b.accumulate(0, &[4.0]);
        b.accumulate(7, &[6.0]);
        a.merge(&b);
        a.scale(0.5);
        assert_eq!(a.get(0), Some(&[3.0][..]));
        assert_eq!(a.get(7), Some(&[3.0][..]));
    }

    #[test]
    fn wire_bytes_counts_ids_and_values() {
        let mut sg = SparseGrad::new(4);
        sg.accumulate(1, &[0.0; 4]);
        sg.accumulate(2, &[0.0; 4]);
        assert_eq!(sg.wire_bytes(), 2 * (4 + 16));
    }

    #[test]
    fn remap_translates_and_coalesces() {
        let mut sg = SparseGrad::new(1);
        sg.accumulate(0, &[1.0]);
        sg.accumulate(1, &[2.0]);
        // Map both onto global row 42.
        let g = sg.remap(|_| 42);
        assert_eq!(g.nnz_rows(), 1);
        assert_eq!(g.get(42), Some(&[3.0][..]));
    }

    #[test]
    fn remap_ref_keeps_original() {
        let mut sg = SparseGrad::new(2);
        sg.accumulate(5, &[1.0, 2.0]);
        sg.accumulate(9, &[3.0, 4.0]);
        let g = sg.remap_ref(|i| i + 100);
        assert_eq!(g.get(105), Some(&[1.0, 2.0][..]));
        assert_eq!(g.get(109), Some(&[3.0, 4.0][..]));
        // Original untouched (no clone needed at the call site).
        assert_eq!(sg.get(5), Some(&[1.0, 2.0][..]));
        assert_eq!(sg.nnz_rows(), 2);
    }

    #[test]
    fn arena_slots_are_insertion_ordered_but_iter_is_sorted() {
        // Rows inserted out of order land in arbitrary arena slots; the
        // slot map must still hand them back by ascending row id.
        let mut sg = SparseGrad::new(2);
        sg.accumulate(7, &[7.0, 7.0]);
        sg.accumulate(2, &[2.0, 2.0]);
        sg.accumulate(7, &[1.0, 1.0]);
        let rows: Vec<(u32, Vec<f32>)> = sg.iter().map(|(i, g)| (i, g.to_vec())).collect();
        assert_eq!(rows, vec![(2, vec![2.0, 2.0]), (7, vec![8.0, 8.0])]);
    }

    #[test]
    fn from_ascending_rows_copies_bits_and_rejects_disorder() {
        let data = vec![-0.0, f32::from_bits(0x7FC0_1234), 1e-45, 2.0];
        let sg = SparseGrad::from_ascending_rows(2, &[3, 9], data.clone()).expect("ascending");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sg.get(3).expect("row 3")), bits(&data[..2]));
        assert_eq!(bits(sg.get(9).expect("row 9")), bits(&data[2..]));
        assert_eq!(sg.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![3, 9]);
        // Accumulating afterwards lands in the adopted slots.
        let mut sg = sg;
        sg.accumulate(9, &[1.0, 1.0]);
        sg.accumulate(4, &[5.0, 5.0]);
        assert_eq!(sg.get(9), Some(&[1.0, 3.0][..]));
        assert_eq!(sg.get(4), Some(&[5.0, 5.0][..]));
        for (rows, n) in [(&[9u32, 3][..], 4), (&[3, 3][..], 4), (&[3, 9][..], 3)] {
            assert!(SparseGrad::from_ascending_rows(2, rows, vec![0.0; n]).is_none());
        }
        assert!(SparseGrad::from_ascending_rows(0, &[1, 2], Vec::new())
            .is_some_and(|g| g.nnz_rows() == 2));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn accumulate_rejects_wrong_width() {
        let mut sg = SparseGrad::new(3);
        sg.accumulate(0, &[1.0]);
    }
}

/// Row-wise sparse Adagrad — the embedding optimizer the open-source DLRM
/// ships with: one accumulator *per row* (not per element), `s_r += mean(g_r²)`,
/// `row -= lr · g_r / (sqrt(s_r) + ε)`. Only touched rows pay any cost,
/// which is what makes it GPU-friendly in FAE's hot path.
#[derive(Clone, Debug)]
pub struct RowwiseAdagrad {
    /// Learning rate.
    pub lr: f32,
    /// Numerical-stability floor.
    pub eps: f32,
    accum: Vec<f32>,
}

impl RowwiseAdagrad {
    /// Creates state for a table with `rows` rows.
    pub fn new(lr: f32, rows: usize) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self { lr, eps: 1e-8, accum: vec![0.0; rows] }
    }

    /// Applies one sparse step to `table` for the rows in `grad`.
    pub fn step(&mut self, table: &mut crate::table::EmbeddingTable, grad: &SparseGrad) {
        assert_eq!(grad.dim(), table.dim(), "gradient width mismatch");
        for (idx, g) in grad.iter() {
            // 8-lane sum_squares reorders the f32 sum (DESIGN.md §14).
            let mean_sq: f32 = lanes::sum_squares(g) / g.len() as f32;
            let s = &mut self.accum[idx as usize];
            *s += mean_sq;
            let scale = self.lr / (s.sqrt() + self.eps);
            let row = table.weights_mut().row_mut(idx as usize);
            lanes::axpy(row, -scale, g);
        }
    }

    /// Accumulator value for one row (tests / inspection).
    pub fn accumulator(&self, row: u32) -> f32 {
        self.accum[row as usize]
    }
}

#[cfg(test)]
mod adagrad_tests {
    use super::*;
    use crate::table::EmbeddingTable;
    use fae_nn::Tensor;

    fn table_of_ones(rows: usize, dim: usize) -> EmbeddingTable {
        EmbeddingTable::from_weights(Tensor::full(rows, dim, 1.0))
    }

    #[test]
    fn only_touched_rows_change() {
        let mut t = table_of_ones(4, 2);
        let mut opt = RowwiseAdagrad::new(0.1, 4);
        let mut g = SparseGrad::new(2);
        g.accumulate(2, &[1.0, 1.0]);
        opt.step(&mut t, &g);
        assert_eq!(t.row(0), &[1.0, 1.0]);
        assert_ne!(t.row(2), &[1.0, 1.0]);
        assert_eq!(opt.accumulator(0), 0.0);
        assert!(opt.accumulator(2) > 0.0);
    }

    #[test]
    fn first_step_magnitude_is_lr_independent_of_grad_scale() {
        // Row-wise normalisation: first step ≈ lr in the gradient's
        // direction regardless of magnitude.
        for scale in [0.01f32, 1.0, 100.0] {
            let mut t = table_of_ones(1, 2);
            let mut opt = RowwiseAdagrad::new(0.1, 1);
            let mut g = SparseGrad::new(2);
            g.accumulate(0, &[scale, scale]);
            opt.step(&mut t, &g);
            let moved = 1.0 - t.row(0)[0];
            assert!((moved - 0.1).abs() < 1e-3, "scale {scale}: moved {moved}");
        }
    }

    #[test]
    fn repeated_updates_decay() {
        let mut t = table_of_ones(1, 2);
        let mut opt = RowwiseAdagrad::new(0.1, 1);
        let mut g = SparseGrad::new(2);
        g.accumulate(0, &[1.0, 1.0]);
        opt.step(&mut t, &g);
        let first = 1.0 - t.row(0)[0];
        let before = t.row(0)[0];
        opt.step(&mut t, &g);
        let second = before - t.row(0)[0];
        assert!(second < first);
    }
}
