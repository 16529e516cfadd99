//! Coalesced sparse gradients for embedding rows.
//!
//! Mini-batch backward passes touch a small, duplicate-heavy set of rows
//! (hot rows especially — that is the paper's whole premise), so a
//! gradient is the distinct row ids, strictly ascending, beside one flat
//! arena holding their summed values. It is built in one shot
//! ([`SparseGrad::scatter`]): sort the lookups by id, keeping their
//! encounter order within an id, then sum each id's run of contributions
//! onto a zeroed row. The order of every f32 sum is therefore the order
//! the lookups arrived in, whatever the sort did (DESIGN.md §14).

use fae_nn::{lanes, Tensor};

/// Sparse gradient: duplicate contributions to a row are summed into one
/// dense `dim`-length slice.
///
/// `rows` holds the touched row ids strictly ascending and `data` their
/// gradients back to back in the same order, so iteration is a walk, a
/// lookup a binary search, a merge a two-pointer pass, and a decoder can
/// adopt what an encoder walked without rebuilding anything.
#[derive(Clone, Debug, Default)]
pub struct SparseGrad {
    dim: usize,
    /// Row `rows[slot]`'s gradient lives at
    /// `data[slot * dim .. (slot + 1) * dim]`.
    rows: Vec<u32>,
    data: Vec<f32>,
}

impl SparseGrad {
    /// Creates an empty gradient for rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim, rows: Vec::new(), data: Vec::new() }
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
        Some(Self { dim, rows: rows.to_vec(), data })
    }

    /// Coalesces one contribution per lookup: lookup `p` adds `row_of(p)`
    /// (`dim` wide) to row `ids[p]`. Each row's contributions are summed
    /// in ascending `p` onto `+0.0` — what a loop of
    /// [`SparseGrad::accumulate`] calls over `ids` computes, bit for bit.
    pub fn scatter<'a>(dim: usize, ids: &[u32], row_of: impl Fn(usize) -> &'a [f32]) -> Self {
        let keys = ids.iter().zip(0u64..).map(|(&id, p)| u64::from(id) << 32 | p).collect();
        Self::sum_runs(dim, keys, row_of)
    }

    /// Backward of a sum-pooled bag lookup in CSR form: every index of
    /// bag `b` receives `grad.row(b)`. Equal to [`SparseGrad::scatter`]
    /// over `indices` with each lookup's bag row.
    pub fn scatter_bags(dim: usize, indices: &[u32], offsets: &[usize], grad: &Tensor) -> Self {
        check_offsets(indices, offsets);
        assert_eq!(grad.shape(), (offsets.len() - 1, dim), "bag gradient shape mismatch");
        // Keyed by bag, not by lookup: an id twice in one bag receives the
        // same row twice, so the order between those two cannot matter.
        let mut keys = Vec::with_capacity(indices.len());
        for (bag, w) in (0u64..).zip(offsets.windows(2)) {
            keys.extend(indices[w[0]..w[1]].iter().map(|&id| u64::from(id) << 32 | bag));
        }
        Self::sum_runs(dim, keys, |bag| grad.row(bag))
    }

    /// `keys` are `id << 32 | source`; sorting them groups each id's
    /// sources in ascending order, and each run becomes one row.
    fn sum_runs<'a>(dim: usize, mut keys: Vec<u64>, row_of: impl Fn(usize) -> &'a [f32]) -> Self {
        assert!(keys.len() <= u32::MAX as usize, "more lookups than a sort key can number");
        keys.sort_unstable();
        let mut out = Self::new(dim);
        for &key in &keys {
            let id = (key >> 32) as u32;
            if out.rows.last() != Some(&id) {
                out.rows.push(id);
                out.data.resize(out.data.len() + dim, 0.0);
            }
            let row = out.data.len() - dim;
            lanes::add_assign(&mut out.data[row..], row_of(key as u32 as usize));
        }
        out
    }

    /// Gradient row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds `grad` into row `idx`. Appending a row past the last is free;
    /// any other new row shifts the tail, so build whole gradients with
    /// [`SparseGrad::scatter`] and keep this for ascending ids.
    pub fn accumulate(&mut self, idx: u32, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "sparse grad width mismatch");
        let found = match self.rows.last() {
            Some(&last) if idx <= last => self.rows.binary_search(&idx),
            _ => Err(self.rows.len()),
        };
        let slot = found.unwrap_or_else(|slot| {
            self.rows.insert(slot, idx);
            let off = slot * self.dim;
            self.data.splice(off..off, std::iter::repeat_n(0.0, self.dim));
            slot
        });
        let off = slot * self.dim;
        lanes::add_assign(&mut self.data[off..off + self.dim], grad);
    }

    /// Merges another sparse gradient into this one (used when averaging
    /// data-parallel replicas): each of `other`'s rows is one contribution
    /// onto this one's row, or onto `+0.0` where there is none.
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.dim, other.dim, "sparse grad dim mismatch");
        let mut rows = Vec::with_capacity(self.rows.len() + other.rows.len());
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        let (mut a, mut b) = (0, 0);
        loop {
            let row = match (self.rows.get(a), other.rows.get(b)) {
                (Some(&x), Some(&y)) => x.min(y),
                (Some(&x), None) | (None, Some(&x)) => x,
                (None, None) => break,
            };
            rows.push(row);
            let start = data.len();
            if self.rows.get(a) == Some(&row) {
                data.extend_from_slice(self.values(a));
                a += 1;
            } else {
                data.resize(start + self.dim, 0.0);
            }
            if other.rows.get(b) == Some(&row) {
                lanes::add_assign(&mut data[start..], other.values(b));
                b += 1;
            }
        }
        self.rows = rows;
        self.data = data;
    }

    /// Scales every gradient in place (e.g. 1/num_replicas after a merge).
    pub fn scale(&mut self, s: f32) {
        lanes::scale_assign(&mut self.data, s);
    }

    /// Number of distinct rows with gradient mass.
    pub fn nnz_rows(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows carry gradient.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes this gradient occupies on the wire (row ids + values) — used
    /// by the cost model for gradient-transfer terms.
    pub fn wire_bytes(&self) -> usize {
        self.rows.len() * (std::mem::size_of::<u32>() + self.dim * std::mem::size_of::<f32>())
    }

    /// Iterates `(row_id, grad)` in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        // Not `chunks_exact`: a `dim == 0` gradient still has rows.
        self.rows.iter().enumerate().map(|(slot, &row)| (row, self.values(slot)))
    }

    /// Gradient for one row, if present.
    pub fn get(&self, idx: u32) -> Option<&[f32]> {
        self.rows.binary_search(&idx).ok().map(|slot| self.values(slot))
    }

    fn values(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.dim..(slot + 1) * self.dim]
    }
}

/// The CSR contract every bag lookup and its backward share: `offsets`
/// has `batch + 1` entries and ends at `indices.len()`.
pub(crate) fn check_offsets(indices: &[u32], offsets: &[usize]) {
    assert!(!offsets.is_empty(), "offsets must contain batch+1 entries");
    assert_eq!(offsets.last().copied(), Some(indices.len()), "offsets must end at indices.len()");
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
    fn rows_accumulated_out_of_order_keep_their_values() {
        // A row inserted before the last shifts the arena's tail; every
        // row must still come back with its own values, ascending.
        let mut sg = SparseGrad::new(2);
        sg.accumulate(7, &[7.0, 7.0]);
        sg.accumulate(2, &[2.0, 2.0]);
        sg.accumulate(7, &[1.0, 1.0]);
        let rows: Vec<(u32, Vec<f32>)> = sg.iter().map(|(i, g)| (i, g.to_vec())).collect();
        assert_eq!(rows, vec![(2, vec![2.0, 2.0]), (7, vec![8.0, 8.0])]);
    }

    /// `(row, value bits)` of every row, ascending.
    fn bits(sg: &SparseGrad) -> Vec<(u32, Vec<u32>)> {
        sg.iter().map(|(i, g)| (i, g.iter().map(|v| v.to_bits()).collect())).collect()
    }

    #[test]
    fn scatter_is_bitwise_a_loop_of_accumulates() {
        // Duplicate-heavy ids out of order, `u32::MAX` among them; values
        // whose sum depends on the order they are added in.
        let n = if cfg!(miri) { 40 } else { 2_000 };
        for dim in [0usize, 1, 7, 8, 17] {
            let ids: Vec<u32> = (0..n as u32)
                .map(|p| if p % 11 == 0 { u32::MAX } else { p.wrapping_mul(0x9E37_79B1) % 61 })
                .collect();
            let values: Vec<f32> = (0..n * dim)
                .map(|k| match k % 13 {
                    0 => -0.0,
                    1 => f32::from_bits(k as u32 + 1),
                    _ => (k as f32).sin() * 10f32.powi(k as i32 % 9 - 4),
                })
                .collect();
            let mut looped = SparseGrad::new(dim);
            for (p, &id) in ids.iter().enumerate() {
                looped.accumulate(id, &values[p * dim..(p + 1) * dim]);
            }
            let scattered = SparseGrad::scatter(dim, &ids, |p| &values[p * dim..(p + 1) * dim]);
            assert_eq!(bits(&scattered), bits(&looped), "dim {dim}");
            assert!(scattered.iter().zip(scattered.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        }
    }

    #[test]
    fn scatter_bags_gives_every_index_its_bag_row() {
        let grad = Tensor::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, -0.0, -0.0]);
        // Bag 0: {4, 1}; bag 1: {4, 4}; bag 2: {9}.
        let sg = SparseGrad::scatter_bags(2, &[4, 1, 4, 4, 9], &[0, 2, 4, 5], &grad);
        let rows: Vec<(u32, Vec<f32>)> = sg.iter().map(|(i, g)| (i, g.to_vec())).collect();
        assert_eq!(rows, vec![(1, vec![1.0, 2.0]), (4, vec![21.0, 42.0]), (9, vec![0.0, 0.0])]);
        // A lone `-0.0` is added onto `+0.0`, as `accumulate` does.
        assert_eq!(bits(&sg)[2].1, vec![0, 0]);
        assert!(SparseGrad::scatter_bags(2, &[], &[0], &Tensor::zeros(0, 2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "offsets must end at indices.len()")]
    fn scatter_bags_rejects_offsets_short_of_the_indices() {
        let _ = SparseGrad::scatter_bags(1, &[1, 2, 3], &[0, 2], &Tensor::zeros(1, 1));
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
