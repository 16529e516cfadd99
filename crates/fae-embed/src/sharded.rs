//! Row-range-sharded embedding table for concurrent workers.
//!
//! The parallel execution engine runs one worker thread per simulated
//! device, and every worker both *reads* hot rows (bag lookups) and
//! *writes* them (sparse SGD). A single `RwLock<EmbeddingTable>` would
//! serialise all of that; instead the rows are split into N contiguous
//! range shards, each behind its own lock, in the spirit of Hogwild!
//! sharded parameter servers and the frequency-aware GPU cache literature:
//! lookups take cheap shared locks, and gradient writers only contend when
//! they touch the *same* shard. Within a shard updates are applied without
//! finer-grained locking — the Hogwild-style bet that row sets rarely
//! collide.
//!
//! Determinism note: concurrent *writers to the same row* would make the
//! result depend on scheduling, so the execution engine never does that —
//! it merges worker gradients in worker order first, then applies the
//! merged gradient from one thread
//! ([`ShardedEmbeddingTable::sgd_step_sparse`]), shard by shard.

use std::sync::RwLock;

use fae_nn::Tensor;

use crate::sparse::SparseGrad;
use crate::table::EmbeddingTable;

/// A `rows × dim` embedding table split into contiguous row-range shards,
/// each behind its own `RwLock`, supporting concurrent bag lookups and
/// sparse SGD from multiple worker threads.
///
/// ```
/// use fae_embed::{EmbeddingTable, ShardedEmbeddingTable};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let serial = EmbeddingTable::new(100, 8, &mut rng);
/// let sharded = ShardedEmbeddingTable::from_table(&serial, 4);
/// let a = serial.lookup_bag(&[3, 97], &[0, 2]);
/// let b = sharded.lookup_bag(&[3, 97], &[0, 2]);
/// assert_eq!(a.as_slice(), b.as_slice());
/// ```
pub struct ShardedEmbeddingTable {
    /// One weight block per shard; shard `s` holds global rows
    /// `starts[s]..starts[s + 1]`, locally indexed from zero.
    shards: Vec<RwLock<Tensor>>,
    /// Shard start rows, `num_shards + 1` entries ending at `rows`.
    starts: Vec<usize>,
    rows: usize,
    dim: usize,
    /// Precomputed row-range math for `shard_of`: the first `shard_extra`
    /// shards are `shard_base + 1` rows wide (ending at row `shard_cut`),
    /// the rest `shard_base` wide. Computing these once at construction
    /// keeps the per-index translation on the lookup path to one compare
    /// and one division.
    shard_base: usize,
    shard_extra: usize,
    shard_cut: usize,
}

impl ShardedEmbeddingTable {
    /// Splits `table` into `num_shards` contiguous row ranges whose sizes
    /// differ by at most one row. The shard count is clamped to the row
    /// count (a shard must own at least one row).
    pub fn from_table(table: &EmbeddingTable, num_shards: usize) -> Self {
        let rows = table.rows();
        let dim = table.dim();
        let n = num_shards.max(1).min(rows.max(1));
        let base = rows / n;
        let extra = rows % n;
        let mut starts = Vec::with_capacity(n + 1);
        let mut shards = Vec::with_capacity(n);
        let mut start = 0usize;
        for s in 0..n {
            starts.push(start);
            let len = base + usize::from(s < extra);
            let mut block = Tensor::zeros(len.max(1), dim);
            for local in 0..len {
                block.row_mut(local).copy_from_slice(table.row((start + local) as u32));
            }
            shards.push(RwLock::new(block));
            start += len;
        }
        starts.push(rows);
        Self {
            shards,
            starts,
            rows,
            dim,
            shard_base: base,
            shard_extra: extra,
            shard_cut: (base + 1) * extra,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Size in bytes of the f32 weights.
    pub fn size_bytes(&self) -> usize {
        self.rows * self.dim * std::mem::size_of::<f32>()
    }

    /// The shard owning global row `row`.
    #[inline]
    fn shard_of(&self, row: usize) -> usize {
        debug_assert!(row < self.rows, "row {row} out of range {}", self.rows);
        // Shards are ⌈rows/n⌉ wide for the first `shard_extra`, ⌊rows/n⌋
        // after; the widths were precomputed at construction.
        if row < self.shard_cut {
            row / (self.shard_base + 1)
        } else {
            // shard_base == 0 only when n > rows; then every row sits in
            // the `row < shard_cut` range above and this branch is
            // unreachable, but clippy wants the division guarded anyway.
            (row - self.shard_cut)
                .checked_div(self.shard_base)
                .map_or(self.shards.len() - 1, |d| self.shard_extra + d)
        }
    }

    /// Copies one row out (crossing the shard lock).
    ///
    /// Lock poisoning is recovered everywhere in this type rather than
    /// propagated: shard data is plain `f32`s with no invariant a
    /// panicked writer could half-establish, so the poisoned guard's
    /// contents are still valid weights.
    pub fn row(&self, idx: u32) -> Vec<f32> {
        let s = self.shard_of(idx as usize);
        let guard = self.shards[s].read().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.row(idx as usize - self.starts[s]).to_vec()
    }

    /// Overwrites one row.
    pub fn set_row(&self, idx: u32, values: &[f32]) {
        let s = self.shard_of(idx as usize);
        let mut guard = self.shards[s].write().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.row_mut(idx as usize - self.starts[s]).copy_from_slice(values);
    }

    /// Sum-pooled bag lookup, identical in semantics to
    /// [`EmbeddingTable::lookup_bag`]. All shard read locks are taken once
    /// up front so concurrent lookups never serialise against each other
    /// and a concurrent writer cannot tear a single lookup.
    pub fn lookup_bag(&self, indices: &[u32], offsets: &[usize]) -> Tensor {
        assert!(!offsets.is_empty(), "offsets must contain batch+1 entries");
        assert_eq!(
            offsets.last().copied(),
            Some(indices.len()),
            "offsets must end at indices.len()"
        );
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect();
        let batch = offsets.len() - 1;
        let mut out = Tensor::zeros(batch, self.dim);
        for b in 0..batch {
            let dst = out.row_mut(b);
            for &idx in &indices[offsets[b]..offsets[b + 1]] {
                let s = self.shard_of(idx as usize);
                // Elementwise 8-wide add: same accumulation order as the
                // scalar loop it replaced (bag order is preserved).
                fae_nn::lanes::add_assign(dst, guards[s].row(idx as usize - self.starts[s]));
            }
        }
        out
    }

    /// Sparse SGD update `row -= lr * grad`, grouping touched rows by
    /// shard and taking each shard's write lock exactly once. Concurrent
    /// callers touching disjoint shards do not contend at all.
    pub fn sgd_step_sparse(&self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim(), self.dim, "sparse grad width mismatch");
        let mut groups: Vec<Vec<(u32, &[f32])>> = vec![Vec::new(); self.shards.len()];
        for (idx, g) in grad.iter() {
            groups[self.shard_of(idx as usize)].push((idx, g));
        }
        for (s, rows) in groups.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let mut guard =
                self.shards[s].write().unwrap_or_else(std::sync::PoisonError::into_inner);
            let start = self.starts[s];
            for &(idx, g) in rows {
                fae_nn::lanes::axpy(guard.row_mut(idx as usize - start), -lr, g);
            }
        }
    }

    /// Reassembles a plain [`EmbeddingTable`] snapshot (checkpointing and
    /// hot→master write-back).
    pub fn to_table(&self) -> EmbeddingTable {
        let mut weights = Tensor::zeros(self.rows.max(1), self.dim);
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            let start = self.starts[s];
            for local in 0..(self.starts[s + 1] - start) {
                weights.row_mut(start + local).copy_from_slice(guard.row(local));
            }
        }
        EmbeddingTable::from_weights(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn serial(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
        let mut rng = StdRng::seed_from_u64(seed);
        EmbeddingTable::new(rows, dim, &mut rng)
    }

    #[test]
    fn shard_of_covers_every_row_exactly_once() {
        for rows in [1usize, 2, 5, 7, 64, 100] {
            for n in [1usize, 2, 3, 4, 8, 200] {
                let t = serial(rows, 2, 1);
                let st = ShardedEmbeddingTable::from_table(&t, n);
                let mut prev = 0;
                for r in 0..rows {
                    let s = st.shard_of(r);
                    assert!(s >= prev, "shard ids must be monotone");
                    assert!(st.starts[s] <= r && r < st.starts[s + 1]);
                    prev = s;
                }
                assert_eq!(*st.starts.last().unwrap(), rows);
            }
        }
    }

    #[test]
    fn lookup_matches_serial_table() {
        let t = serial(50, 4, 7);
        let st = ShardedEmbeddingTable::from_table(&t, 4);
        let indices = [0u32, 49, 25, 13, 13, 2];
        let offsets = [0usize, 2, 2, 5, 6];
        assert_eq!(
            t.lookup_bag(&indices, &offsets).as_slice(),
            st.lookup_bag(&indices, &offsets).as_slice()
        );
    }

    #[test]
    fn sparse_step_matches_reference() {
        let mut reference = serial(40, 3, 9);
        let st_serial = ShardedEmbeddingTable::from_table(&reference, 4);
        let mut g = SparseGrad::new(3);
        for idx in [0u32, 5, 10, 11, 25, 39] {
            g.accumulate(idx, &[0.5, -1.0, 2.0]);
        }
        reference.sgd_step_sparse(&g, 0.1);
        st_serial.sgd_step_sparse(&g, 0.1);
        for r in 0..40u32 {
            assert_eq!(reference.row(r), st_serial.row(r).as_slice());
        }
    }

    #[test]
    fn to_table_round_trips() {
        let t = serial(17, 5, 3);
        let st = ShardedEmbeddingTable::from_table(&t, 3);
        let back = st.to_table();
        for r in 0..17u32 {
            assert_eq!(t.row(r), back.row(r));
        }
    }

    #[test]
    fn concurrent_disjoint_updates_are_exact() {
        // Two writers hitting different shards concurrently must both land
        // exactly — the per-shard locks mean no lost updates.
        let t = EmbeddingTable::from_weights(Tensor::zeros(8, 1));
        let st = ShardedEmbeddingTable::from_table(&t, 4);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let st = &st;
                s.spawn(move || {
                    let mut g = SparseGrad::new(1);
                    g.accumulate(w * 2, &[1.0]);
                    g.accumulate(w * 2 + 1, &[1.0]);
                    for _ in 0..100 {
                        st.sgd_step_sparse(&g, -1.0); // += 1 per iteration
                    }
                });
            }
        });
        for r in 0..8u32 {
            assert_eq!(st.row(r), vec![100.0]);
        }
    }

    #[test]
    fn tiny_table_with_more_shards_than_rows() {
        let t = serial(2, 3, 4);
        let st = ShardedEmbeddingTable::from_table(&t, 16);
        assert_eq!(st.num_shards(), 2);
        assert_eq!(st.row(1), t.row(1));
    }
}
