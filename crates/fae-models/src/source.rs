//! Device-agnostic embedding access.
//!
//! Models address embeddings by *global* row id; an [`EmbeddingSource`]
//! decides where the bytes actually live. [`MasterEmbeddings`] is the
//! CPU-resident full-table source used by the baseline and by cold
//! mini-batches; `fae-core` provides the hot-replica source that remaps
//! global ids into the compact GPU bags.

use fae_nn::Tensor;
use rand::Rng;

use fae_data::WorkloadSpec;
use fae_embed::{EmbeddingTable, HotColdPartition, SparseGrad, TieredTable};

/// Where embedding rows live and how they are read/updated.
pub trait EmbeddingSource {
    /// Sum-pooled bag lookup into table `t` (global row ids, CSR form).
    fn lookup(&self, t: usize, indices: &[u32], offsets: &[usize]) -> Tensor;

    /// One output row per index — [`Self::lookup`] over unit bags, which
    /// is what this default does; a source holding plain tables gathers
    /// without building the offsets.
    fn lookup_rows(&self, t: usize, indices: &[u32]) -> Tensor {
        self.lookup(t, indices, &unit_offsets(indices.len()))
    }

    /// Applies one sparse SGD step per table; `grads[t]` is keyed by
    /// global row ids.
    fn apply_sparse_grads(&mut self, grads: &[SparseGrad], lr: f32);

    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Number of tables.
    fn num_tables(&self) -> usize;
}

/// Unit offsets `[0, 1, 2, ..., n]` exposing each index as its own row.
fn unit_offsets(n: usize) -> Vec<usize> {
    (0..=n).collect()
}

/// The full tables, resident in host memory (the paper's baseline
/// placement, Fig 3).
///
/// Storage has two modes. Untiered (the default): one f32
/// [`EmbeddingTable`] per spec entry. Tiered (opt-in via
/// `TrainConfig.quantize_cold`): one [`TieredTable`] per entry, with the
/// calibrator-pinned hot rows exact f32 and the cold majority int8
/// (DESIGN.md §14). The row-level accessors ([`MasterEmbeddings::row`],
/// [`MasterEmbeddings::set_row`], [`MasterEmbeddings::copy_row_into`])
/// work in both modes, and there is no whole-table f32 view: cold rows of
/// a tiered master have no contiguous f32 slice to borrow, so every
/// consumer (replicator, checkpoint, `fae-net`) speaks rows or streams
/// a table through [`MasterEmbeddings::stream_table`].
pub struct MasterEmbeddings {
    /// Untiered storage; empty when `tiered` is `Some`.
    tables: Vec<EmbeddingTable>,
    /// Tiered storage (hot f32 + cold int8), one per table.
    tiered: Option<Vec<TieredTable>>,
    dim: usize,
}

impl MasterEmbeddings {
    /// Initialises one table per spec entry.
    pub fn from_spec(spec: &WorkloadSpec, rng: &mut impl Rng) -> Self {
        let tables = spec
            .tables
            .iter()
            .map(|t| EmbeddingTable::new(t.rows, spec.embedding_dim, rng))
            .collect();
        Self { tables, tiered: None, dim: spec.embedding_dim }
    }

    /// Initialises tiered storage directly from the RNG: hot rows are
    /// bit-identical to [`MasterEmbeddings::from_spec`] under the same
    /// seed (identical draw order), and cold rows are quantized from a
    /// one-row scratch buffer, so the full f32 footprint is never paid.
    pub fn from_spec_tiered(
        spec: &WorkloadSpec,
        partitions: &[HotColdPartition],
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(partitions.len(), spec.tables.len(), "one partition per table");
        let tiered = spec
            .tables
            .iter()
            .zip(partitions)
            .map(|(t, p)| TieredTable::new(t.rows, spec.embedding_dim, p, rng))
            .collect();
        Self { tables: Vec::new(), tiered: Some(tiered), dim: spec.embedding_dim }
    }

    /// Wraps existing tables.
    pub fn from_tables(tables: Vec<EmbeddingTable>) -> Self {
        assert!(!tables.is_empty(), "need at least one table");
        let dim = tables[0].dim();
        assert!(tables.iter().all(|t| t.dim() == dim), "mixed embedding dims");
        Self { tables, tiered: None, dim }
    }

    /// Converts untiered storage in place: hot rows move into the f32
    /// arena bit-for-bit, cold rows quantize to int8. Used after a
    /// checkpoint restore, where the f32 tables already exist.
    pub fn quantize_cold_tier(&mut self, partitions: &[HotColdPartition]) {
        assert!(self.tiered.is_none(), "already tiered");
        assert_eq!(partitions.len(), self.tables.len(), "one partition per table");
        let tiered = self
            .tables
            .drain(..)
            .zip(partitions)
            .map(|(t, p)| TieredTable::from_table(&t, p))
            .collect();
        self.tiered = Some(tiered);
    }

    /// True when cold rows are stored quantized.
    pub fn is_tiered(&self) -> bool {
        self.tiered.is_some()
    }

    /// Rows in table `t` (works in both storage modes).
    pub fn rows_in(&self, t: usize) -> usize {
        match &self.tiered {
            Some(tiered) => tiered[t].rows(),
            None => self.tables[t].rows(),
        }
    }

    /// One row of table `t`, dequantized if cold.
    pub fn row(&self, t: usize, idx: u32) -> Vec<f32> {
        match &self.tiered {
            Some(tiered) => tiered[t].row_f32(idx),
            None => self.tables[t].row(idx).to_vec(),
        }
    }

    /// Copies one row of table `t` into `out`, dequantizing if cold.
    pub fn copy_row_into(&self, t: usize, idx: u32, out: &mut [f32]) {
        match &self.tiered {
            Some(tiered) => tiered[t].copy_row_into(idx, out),
            None => out.copy_from_slice(self.tables[t].row(idx)),
        }
    }

    /// Overwrites one row of table `t` (requantizing if cold).
    pub fn set_row(&mut self, t: usize, idx: u32, values: &[f32]) {
        match &mut self.tiered {
            Some(tiered) => tiered[t].set_row(idx, values),
            None => self.tables[t].set_row(idx, values),
        }
    }

    /// Feeds table `t`'s f32 weights to `sink`, row-major and in order,
    /// in one or more whole-row pieces (checkpointing, digests). An
    /// untiered table is lent as it lies; a tiered one is dequantized a
    /// few rows at a time, so the full f32 footprint is never paid.
    pub fn stream_table(&self, t: usize, mut sink: impl FnMut(&[f32])) {
        const ROWS_PER_PIECE: usize = 256;
        match &self.tiered {
            Some(tiered) => {
                let table = &tiered[t];
                let mut piece = vec![0.0f32; ROWS_PER_PIECE * self.dim];
                let mut next = 0;
                while next < table.rows() {
                    let n = ROWS_PER_PIECE.min(table.rows() - next);
                    let filled = &mut piece[..n * self.dim];
                    for (r, out) in (next..).zip(filled.chunks_exact_mut(self.dim.max(1))) {
                        table.copy_row_into(r as u32, out);
                    }
                    sink(filled);
                    next += n;
                }
            }
            None => sink(self.tables[t].weights().as_slice()),
        }
    }

    /// Total resident bytes of all tables — honest per mode: f32 weights
    /// when untiered; hot f32 + cold int8 codes + per-row metadata when
    /// tiered.
    pub fn total_bytes(&self) -> usize {
        match &self.tiered {
            Some(tiered) => tiered.iter().map(|t| t.size_bytes()).sum(),
            None => self.tables.iter().map(|t| t.size_bytes()).sum(),
        }
    }
}

impl EmbeddingSource for MasterEmbeddings {
    fn lookup(&self, t: usize, indices: &[u32], offsets: &[usize]) -> Tensor {
        match &self.tiered {
            Some(tiered) => tiered[t].lookup_bag(indices, offsets),
            None => self.tables[t].lookup_bag(indices, offsets),
        }
    }

    fn lookup_rows(&self, t: usize, indices: &[u32]) -> Tensor {
        match &self.tiered {
            Some(tiered) => tiered[t].lookup_bag(indices, &unit_offsets(indices.len())),
            None => self.tables[t].lookup_rows_by(indices, |idx| idx),
        }
    }

    fn apply_sparse_grads(&mut self, grads: &[SparseGrad], lr: f32) {
        assert_eq!(grads.len(), self.num_tables(), "one gradient per table");
        match &mut self.tiered {
            Some(tiered) => {
                for (table, g) in tiered.iter_mut().zip(grads) {
                    table.sgd_step_sparse(g, lr);
                }
            }
            None => {
                for (table, g) in self.tables.iter_mut().zip(grads) {
                    table.sgd_step_sparse(g, lr);
                }
            }
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_tables(&self) -> usize {
        match &self.tiered {
            Some(tiered) => tiered.len(),
            None => self.tables.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_spec_builds_matching_tables() {
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(1);
        let m = MasterEmbeddings::from_spec(&spec, &mut rng);
        assert_eq!(m.num_tables(), spec.tables.len());
        assert_eq!(m.dim(), spec.embedding_dim);
        assert_eq!(m.total_bytes(), spec.embedding_bytes());
    }

    fn tiny_partitions(spec: &WorkloadSpec) -> Vec<HotColdPartition> {
        use fae_embed::AccessCounter;
        spec.tables
            .iter()
            .map(|t| {
                let mut c = AccessCounter::new(t.rows);
                for r in (0..t.rows).step_by(4) {
                    c.record(r as u32);
                    c.record(r as u32);
                }
                HotColdPartition::from_counts(&c, 2)
            })
            .collect()
    }

    #[test]
    fn tiered_master_keeps_hot_rows_bit_identical_and_shrinks() {
        let spec = WorkloadSpec::tiny_test();
        let parts = tiny_partitions(&spec);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let dense = MasterEmbeddings::from_spec(&spec, &mut r1);
        let tiered = MasterEmbeddings::from_spec_tiered(&spec, &parts, &mut r2);
        assert!(tiered.is_tiered() && !dense.is_tiered());
        assert!(
            tiered.total_bytes() < dense.total_bytes(),
            "int8 cold tier must shrink the master: {} vs {}",
            tiered.total_bytes(),
            dense.total_bytes()
        );
        for (t, p) in parts.iter().enumerate() {
            for &h in p.hot_ids() {
                assert_eq!(tiered.row(t, h), dense.row(t, h), "hot row {h} of table {t}");
            }
        }
        // Streaming dequantizes every table back to full f32 shape,
        // row for row what the row accessor returns.
        for (t, table) in spec.tables.iter().enumerate() {
            let mut streamed = Vec::new();
            tiered.stream_table(t, |w| streamed.extend_from_slice(w));
            let rows: Vec<f32> = (0..table.rows as u32).flat_map(|r| tiered.row(t, r)).collect();
            assert_eq!(streamed, rows, "table {t}");
        }
    }

    #[test]
    fn tiered_master_lookup_and_update_dispatch() {
        let spec = WorkloadSpec::tiny_test();
        let parts = tiny_partitions(&spec);
        let mut rng = StdRng::seed_from_u64(10);
        let mut m = MasterEmbeddings::from_spec_tiered(&spec, &parts, &mut rng);
        let before = m.lookup(1, &[0], &[0, 1]);
        let mut grads: Vec<SparseGrad> =
            (0..m.num_tables()).map(|_| SparseGrad::new(m.dim())).collect();
        grads[1].accumulate(0, &vec![1.0; m.dim()]);
        m.apply_sparse_grads(&grads, 0.5);
        let after = m.lookup(1, &[0], &[0, 1]);
        // Row 0 is hot (multiple of 4): the update is exact f32.
        for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
            assert_eq!(b - 0.5, *a);
        }
    }

    #[test]
    fn quantize_cold_tier_converts_in_place() {
        let spec = WorkloadSpec::tiny_test();
        let parts = tiny_partitions(&spec);
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = MasterEmbeddings::from_spec(&spec, &mut rng);
        let hot_before: Vec<f32> = m.row(0, 0);
        let bytes_before = m.total_bytes();
        m.quantize_cold_tier(&parts);
        assert!(m.is_tiered());
        assert_eq!(m.row(0, 0), hot_before, "hot rows move bit-for-bit");
        assert!(m.total_bytes() < bytes_before);
    }

    #[test]
    fn lookup_and_update_route_to_right_table() {
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = MasterEmbeddings::from_spec(&spec, &mut rng);
        let before = m.lookup(1, &[3], &[0, 1]);
        let mut grads: Vec<SparseGrad> =
            (0..m.num_tables()).map(|_| SparseGrad::new(m.dim())).collect();
        grads[1].accumulate(3, &vec![1.0; m.dim()]);
        m.apply_sparse_grads(&grads, 0.5);
        let after = m.lookup(1, &[3], &[0, 1]);
        for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((b - 0.5 - a).abs() < 1e-6);
        }
        // Other tables untouched.
        let t0 = m.lookup(0, &[3], &[0, 1]);
        assert!(t0.as_slice().iter().all(|v| v.is_finite()));
    }
}
