//! Coalesced sparse gradients for embedding rows.
//!
//! Mini-batch backward passes touch a small, duplicate-heavy set of rows
//! (hot rows especially — that is the paper's whole premise), so a
//! gradient is the distinct row ids, strictly ascending, beside one flat
//! arena holding their summed values. A [`RowSet`] names those rows and
//! each lookup's row, built by a model from a bitmap of its table or by
//! [`SparseGrad::scatter`] from a radix sort of the lookups. Either way the
//! lookups are then walked in order, each added into its row's zeroed
//! slot: every f32 sum runs in lookup order (DESIGN.md §14).

use std::iter::repeat_n;

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
        Self::sum(&RowSet::sorted(ids), dim, (0..ids.len()).map(row_of))
    }

    /// Backward of a sum-pooled bag lookup in CSR form: every index of
    /// bag `b` receives `grad.row(b)`. Equal to [`SparseGrad::scatter`]
    /// over `indices` with each lookup's bag row.
    pub fn scatter_bags(dim: usize, indices: &[u32], offsets: &[usize], grad: &Tensor) -> Self {
        assert_eq!(grad.cols(), dim, "bag gradient shape mismatch");
        Self::sum_bags(&RowSet::sorted(indices), offsets, dim, grad.as_slice())
    }

    /// The one summation, over the lookups `set` was built from: the `j`th
    /// of `parts` (`dim` wide) is added into lookup `j`'s row, in lookup
    /// order, onto `+0.0`.
    pub fn sum<'a>(set: &RowSet, dim: usize, parts: impl Iterator<Item = &'a [f32]>) -> Self {
        let mut data = vec![0.0; set.rows.len() * dim];
        for (&slot, src) in set.inv.iter().zip(parts) {
            lanes::add_assign(&mut data[slot as usize * dim..][..dim], src);
        }
        Self { dim, rows: set.rows.clone(), data }
    }

    /// [`SparseGrad::scatter_bags`] over the lookups `set` was built from,
    /// with bag `b`'s gradient at `grad[b * dim..(b + 1) * dim]`.
    pub fn sum_bags(set: &RowSet, offsets: &[usize], dim: usize, grad: &[f32]) -> Self {
        check_offsets(&set.inv, offsets);
        assert_eq!(grad.len(), (offsets.len() - 1) * dim, "bag gradient shape mismatch");
        let bags = offsets.windows(2).enumerate();
        Self::sum(set, dim, bags.flat_map(|(b, w)| repeat_n(&grad[b * dim..][..dim], w[1] - w[0])))
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
            self.data.splice(off..off, repeat_n(0.0, self.dim));
            slot
        });
        let off = slot * self.dim;
        lanes::add_assign(&mut self.data[off..off + self.dim], grad);
    }

    /// An empty gradient with room for `rows` rows, for [`Self::push_row`].
    pub(crate) fn with_rows(dim: usize, rows: usize) -> Self {
        Self { dim, rows: Vec::with_capacity(rows), data: Vec::with_capacity(rows * dim) }
    }

    /// `accumulate` of a row past the last one (`+0.0 + grad`), unsearched.
    pub(crate) fn push_row(&mut self, idx: u32, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "sparse grad width mismatch");
        assert!(self.rows.last().is_none_or(|&last| last < idx), "rows must ascend");
        self.rows.push(idx);
        self.data.extend(grad.iter().map(|&v| 0.0 + v));
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

/// One step's distinct rows of a table, ascending, and a `u32` inverse:
/// lookup `j` touches `rows[inv[j]]`. [`RowSet::build`] marks the ids in
/// a bitmap of the table's rows and ranks each 64-row word by the bits
/// set before it: no sort, no key per lookup, and no allocation once a
/// first build has sized the bitmap and `rows` and `inv` have grown.
#[derive(Clone, Debug, Default)]
pub struct RowSet {
    table_rows: usize,
    /// One bit per table row, all clear between builds.
    bits: Vec<u64>,
    /// `rank[w]`: how many bits are set in the words before `w`.
    rank: Vec<u32>,
    rows: Vec<u32>,
    inv: Vec<u32>,
}

impl RowSet {
    /// An empty set over a table of `table_rows` rows.
    pub fn new(table_rows: usize) -> Self {
        Self { table_rows, ..Self::default() }
    }

    /// Makes this the set of `ids`' rows. Panics on an id past the table.
    pub fn build(&mut self, ids: &[u32]) {
        let rows = self.table_rows;
        // Sized here, not in `new`, so a model that is only served holds none.
        self.bits.resize(rows.div_ceil(64), 0);
        self.rank.resize(self.bits.len(), 0);
        for &id in ids {
            assert!((id as usize) < rows, "row id {id} is outside a table of {rows} rows");
            self.bits[id as usize / 64] |= 1 << (id % 64);
        }
        self.rows.clear();
        for (w, (&word, rank)) in (0u32..).zip(self.bits.iter().zip(&mut self.rank)) {
            *rank = self.rows.len() as u32;
            let mut rest = word;
            while rest != 0 {
                self.rows.push(w * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        let (bits, rank) = (&self.bits, &self.rank);
        self.inv.clear();
        self.inv.extend(ids.iter().map(|&id| {
            let w = id as usize / 64;
            rank[w] + (bits[w] & ((1 << (id % 64)) - 1)).count_ones()
        }));
        self.bits.fill(0);
    }

    /// The set of ids of any size, with no table: a stable radix sort of
    /// `id << 32 | lookup` keys groups each id's lookups.
    fn sorted(ids: &[u32]) -> Self {
        assert!(ids.len() <= u32::MAX as usize, "more lookups than a sort key can number");
        let keys = ids.iter().zip(0u64..).map(|(&id, p)| u64::from(id) << 32 | p).collect();
        let mut set = Self { inv: vec![0; ids.len()], ..Self::default() };
        for key in sort_by_id(keys) {
            let id = (key >> 32) as u32;
            if set.rows.last() != Some(&id) {
                set.rows.push(id);
            }
            set.inv[key as u32 as usize] = set.rows.len() as u32 - 1;
        }
        set
    }
}

/// Orders `id << 32 | source` keys by id with a stable LSD radix sort, a
/// byte of the id per pass and as many passes as the largest id needs.
/// Equal ids keep their order, so keys built in ascending source order come
/// out exactly as a sort of the whole key would leave them.
fn sort_by_id(mut keys: Vec<u64>) -> Vec<u64> {
    let largest = keys.iter().fold(0, |m, &k| m.max(k >> 32));
    let passes = (u64::BITS - largest.leading_zeros()).div_ceil(8);
    let mut scratch = vec![0u64; if passes > 0 { keys.len() } else { 0 }];
    for pass in 0..passes {
        let shift = 32 + 8 * pass;
        let digit = |k: u64| (k >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        for &k in &keys {
            next[digit(k)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for &k in &keys {
            let d = digit(k);
            scratch[next[d]] = k;
            next[d] += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    keys
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
    fn radix_order_is_sort_order_at_every_id_width() {
        // Largest ids needing 0 through 4 byte passes, duplicates within.
        for top in [0u32, 0xFF, 0xFFFF, 0xFF_FFFF, u32::MAX] {
            let keys: Vec<u64> = (0u64..3_000)
                .map(|p| {
                    let h = p.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    let id = if p % 17 == 0 { top } else { h as u32 % 97 * (top / 97) };
                    u64::from(id) << 32 | p
                })
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(sort_by_id(keys), sorted, "largest id {top:#x}");
        }
        assert!(sort_by_id(Vec::new()).is_empty());
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

    /// Duplicate-heavy ids below `rows`, `rows - 1` every 17th lookup.
    fn ids_below(rows: u32, n: u32) -> Vec<u32> {
        (0..n)
            .map(
                |p| if p % 17 == 0 { rows - 1 } else { p.wrapping_mul(0x9E37_79B1) % rows.min(97) },
            )
            .collect()
    }

    #[test]
    fn the_bitmap_set_is_the_sorted_set() {
        // Table sizes under, at and past a word, none but 128 a multiple of 64.
        for rows in [1u32, 63, 64, 65, 128, 1_000, 70_001] {
            let mut set = RowSet::new(rows as usize);
            for ids in [
                ids_below(rows, 3_000),
                Vec::new(),
                vec![rows - 1],
                vec![0; 5],
                ids_below(rows, 40),
            ] {
                // Rebuilt on one set: a build leaves nothing behind.
                set.build(&ids);
                let sorted = RowSet::sorted(&ids);
                assert_eq!(set.rows, sorted.rows, "{rows} rows, {} ids", ids.len());
                assert_eq!(set.inv, sorted.inv, "{rows} rows, {} ids", ids.len());
                assert!(ids.iter().zip(&set.inv).all(|(&id, &s)| set.rows[s as usize] == id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "row id 70 is outside a table of 70 rows")]
    fn an_id_past_the_table_panics() {
        RowSet::new(70).build(&[3, 69, 70]);
    }

    #[test]
    fn summing_bags_over_a_bitmap_set_is_scatter_bags() {
        let dim = 5;
        let mut offsets = vec![0];
        for b in 0..60 {
            offsets.push(offsets[b] + (b * 7 + 3) % 6);
        }
        let ids = ids_below(130, offsets[60] as u32);
        let values: Vec<f32> = (0..60 * dim)
            .map(|k| match k % 7 {
                0 => -0.0,
                1 => 0.0,
                2 => f32::from_bits(k as u32 + 1),
                3 => -f32::from_bits(k as u32 + 1),
                _ => (k as f32).cos() * 10f32.powi(k as i32 % 9 - 4),
            })
            .collect();
        let mut set = RowSet::new(130);
        set.build(&ids);
        let summed = SparseGrad::sum_bags(&set, &offsets, dim, &values);
        let grad = Tensor::from_vec(60, dim, values);
        assert_eq!(bits(&summed), bits(&SparseGrad::scatter_bags(dim, &ids, &offsets, &grad)));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn accumulate_rejects_wrong_width() {
        let mut sg = SparseGrad::new(3);
        sg.accumulate(0, &[1.0]);
    }
}
