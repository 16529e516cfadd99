//! Dense embedding tables with bag lookups and sparse updates.
//!
//! A lookup batch is passed in CSR form: a flat `indices` array plus
//! `offsets` with `offsets[i]..offsets[i+1]` delimiting sample `i`'s
//! indices (PyTorch's `EmbeddingBag` convention, which DLRM/TBSM use with
//! sum pooling). DLRM performs exactly one lookup per table per sample;
//! TBSM's sequence features produce multi-index bags.

use fae_nn::{lanes, Tensor};
use rand::Rng;

use crate::sparse::{check_offsets, SparseGrad};

/// A `rows × dim` embedding table.
///
/// ```
/// use fae_embed::EmbeddingTable;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let table = EmbeddingTable::new(1_000, 16, &mut rng);
/// // Two samples: bag {3, 7} (sum-pooled) and bag {42}.
/// let out = table.lookup_bag(&[3, 7, 42], &[0, 2, 3]);
/// assert_eq!(out.shape(), (2, 16));
/// assert_eq!(table.size_bytes(), 1_000 * 16 * 4);
/// ```
#[derive(Clone)]
pub struct EmbeddingTable {
    weights: Tensor,
    dim: usize,
}

impl EmbeddingTable {
    /// Creates a table with DLRM's uniform `±1/sqrt(rows)` initialisation.
    pub fn new(rows: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(rows > 0 && dim > 0, "embedding table must be non-empty");
        let scale = 1.0 / (rows as f32).sqrt();
        Self { weights: fae_nn::init::uniform(rows, dim, scale, rng), dim }
    }

    /// Wraps an existing weight matrix.
    pub fn from_weights(weights: Tensor) -> Self {
        let dim = weights.cols();
        Self { weights, dim }
    }

    /// Number of rows (distinct categorical values).
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Size in bytes of the f32 weights — the unit of Fig 2 / Fig 6a.
    pub fn size_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<f32>()
    }

    /// Immutable weights.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable weights (parameter averaging in data-parallel training).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    /// One row of the table.
    pub fn row(&self, idx: u32) -> &[f32] {
        self.weights.row(idx as usize)
    }

    /// Overwrites one row (used by hot-bag write-back).
    pub fn set_row(&mut self, idx: u32, values: &[f32]) {
        self.weights.row_mut(idx as usize).copy_from_slice(values);
    }

    /// Sum-pooled bag lookup. `offsets` has `batch + 1` entries delimiting
    /// each sample's slice of `indices`. Its backward pass is
    /// [`SparseGrad::scatter_bags`].
    pub fn lookup_bag(&self, indices: &[u32], offsets: &[usize]) -> Tensor {
        self.lookup_bag_by(indices, offsets, |idx| idx)
    }

    /// [`Self::lookup_bag`] over ids in another id space: row `map(idx)`
    /// is read for each index, so a compact replica needs no translated
    /// copy of `indices`.
    pub fn lookup_bag_by(
        &self,
        indices: &[u32],
        offsets: &[usize],
        map: impl Fn(u32) -> u32,
    ) -> Tensor {
        check_offsets(indices, offsets);
        let mut out = Tensor::zeros(offsets.len() - 1, self.dim);
        for (b, w) in offsets.windows(2).enumerate() {
            let dst = out.row_mut(b);
            for &idx in &indices[w[0]..w[1]] {
                // Elementwise 8-wide add: same accumulation order as the
                // scalar loop it replaced (bag order is preserved).
                lanes::add_assign(dst, self.weights.row(map(idx) as usize));
            }
        }
        out
    }

    /// One output row per index — [`Self::lookup_bag_by`] over unit bags,
    /// without the offsets. Each row is added onto zeros as a bag's is,
    /// so both read a `-0.0` weight as `+0.0`.
    pub fn lookup_rows_by(&self, indices: &[u32], map: impl Fn(u32) -> u32) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.dim);
        for (i, &idx) in indices.iter().enumerate() {
            lanes::add_assign(out.row_mut(i), self.weights.row(map(idx) as usize));
        }
        out
    }

    /// Sparse SGD update: `row -= lr * grad` for each touched row. The
    /// gradient is already coalesced (duplicates summed in the arena), so
    /// each touched row is read and written exactly once per step.
    pub fn sgd_step_sparse(&mut self, grad: &SparseGrad, lr: f32) {
        self.sgd_step_sparse_by(grad, lr, |idx| idx);
    }

    /// [`Self::sgd_step_sparse`] for a gradient keyed in another id space:
    /// row `map(idx)` is updated. `map` must send distinct ids to distinct
    /// rows, which is what keeps the gradient coalesced on this side.
    pub fn sgd_step_sparse_by(&mut self, grad: &SparseGrad, lr: f32, map: impl Fn(u32) -> u32) {
        for (idx, g) in grad.iter() {
            lanes::axpy(self.weights.row_mut(map(idx) as usize), -lr, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table_with(rows: usize, dim: usize, f: impl Fn(usize, usize) -> f32) -> EmbeddingTable {
        EmbeddingTable::from_weights(Tensor::from_fn(rows, dim, f))
    }

    #[test]
    fn lookup_single_index_per_sample() {
        let t = table_with(4, 2, |r, c| (r * 10 + c) as f32);
        let out = t.lookup_bag(&[2, 0, 3], &[0, 1, 2, 3]);
        assert_eq!(out.as_slice(), &[20.0, 21.0, 0.0, 1.0, 30.0, 31.0]);
    }

    #[test]
    fn lookup_sum_pools_multi_index_bags() {
        let t = table_with(4, 2, |r, _| r as f32);
        // Sample 0: rows {1, 2}; sample 1: empty bag; sample 2: row {3} twice.
        let out = t.lookup_bag(&[1, 2, 3, 3], &[0, 2, 2, 4]);
        assert_eq!(out.as_slice(), &[3.0, 3.0, 0.0, 0.0, 6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn lookup_rejects_bad_offsets() {
        let t = table_with(4, 2, |_, _| 0.0);
        let _ = t.lookup_bag(&[1, 2], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "offsets must contain batch+1 entries")]
    fn scatter_bags_rejects_empty_offsets_as_the_lookup_does() {
        let _ = SparseGrad::scatter_bags(2, &[], &[], &Tensor::zeros(0, 2));
    }

    #[test]
    fn mapped_lookups_read_the_mapped_rows() {
        let t = table_with(4, 2, |r, c| (r * 10 + c) as f32);
        // Ids 100.. name rows 3, 2, 1, 0.
        let map = |id: u32| 103 - id;
        let bags = t.lookup_bag_by(&[100, 101, 103], &[0, 2, 3], map);
        assert_eq!(bags.as_slice(), t.lookup_bag(&[3, 2, 0], &[0, 2, 3]).as_slice());
        let rows = t.lookup_rows_by(&[100, 101, 103], map);
        assert_eq!(rows.as_slice(), t.lookup_bag(&[3, 2, 0], &[0, 1, 2, 3]).as_slice());
    }

    #[test]
    fn scatter_bags_coalesces_duplicates() {
        let grad = Tensor::from_vec(2, 2, vec![1.0, 2.0, 10.0, 20.0]);
        // Both samples touch row 1; sample 1 also touches row 3.
        let sg = SparseGrad::scatter_bags(2, &[1, 1, 3], &[0, 1, 3], &grad);
        assert_eq!(sg.nnz_rows(), 2);
        let rows: Vec<_> = sg.iter().collect();
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[0].1, &[11.0, 22.0]);
        assert_eq!(rows[1].0, 3);
        assert_eq!(rows[1].1, &[10.0, 20.0]);
    }

    #[test]
    fn sparse_sgd_only_touches_listed_rows() {
        let mut t = table_with(3, 2, |_, _| 1.0);
        let mut sg = SparseGrad::new(2);
        sg.accumulate(1, &[2.0, 4.0]);
        t.sgd_step_sparse(&sg, 0.5);
        assert_eq!(t.row(0), &[1.0, 1.0]);
        assert_eq!(t.row(1), &[0.0, -1.0]);
        assert_eq!(t.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn lookup_then_update_gradient_descent_reduces_loss() {
        // Sanity: training an embedding row towards a target via the bag
        // path converges.
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = EmbeddingTable::new(8, 4, &mut rng);
        let target = [1.0f32, -1.0, 0.5, 0.0];
        for _ in 0..200 {
            let out = t.lookup_bag(&[5], &[0, 1]);
            let grad = Tensor::from_vec(
                1,
                4,
                out.row(0).iter().zip(&target).map(|(&o, &t)| 2.0 * (o - t)).collect(),
            );
            let sg = SparseGrad::scatter_bags(t.dim(), &[5], &[0, 1], &grad);
            t.sgd_step_sparse(&sg, 0.1);
        }
        for (v, tgt) in t.row(5).iter().zip(&target) {
            assert!((v - tgt).abs() < 1e-3);
        }
    }

    #[test]
    fn size_bytes_matches_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = EmbeddingTable::new(1000, 16, &mut rng);
        assert_eq!(t.size_bytes(), 1000 * 16 * 4);
    }
}
