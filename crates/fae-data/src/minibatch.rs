//! Mini-batches as produced by the FAE input processor.
//!
//! The paper requires mini-batches to be *purely* hot or *purely* cold so a
//! hot batch never stalls on CPU-resident rows (§II-B challenge 1, Fig 4).
//! The [`BatchKind`] tag records that purity.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, TableIndices};

/// Whether a mini-batch is all-hot, all-cold, or unclassified (baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchKind {
    /// Every lookup of every sample hits a hot embedding row: eligible for
    /// pure GPU data-parallel execution.
    Hot,
    /// At least one sample touches a cold row: runs in the hybrid CPU-GPU
    /// baseline mode.
    Cold,
    /// No classification performed (baseline training).
    Unclassified,
}

/// One training mini-batch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MiniBatch {
    /// Purity tag.
    pub kind: BatchKind,
    /// Row-major `batch × dense_features`.
    pub dense: Vec<f32>,
    /// Dense feature width.
    pub dense_width: usize,
    /// One CSR per embedding table.
    pub sparse: Vec<TableIndices>,
    /// 0/1 labels, length `batch`.
    pub labels: Vec<f32>,
}

impl MiniBatch {
    /// Assembles a mini-batch from the listed dataset samples.
    pub fn gather(ds: &Dataset, samples: &[usize], kind: BatchKind) -> Self {
        let w = ds.spec.dense_features;
        let mut dense = Vec::with_capacity(samples.len() * w);
        let mut labels = Vec::with_capacity(samples.len());
        for &s in samples {
            dense.extend_from_slice(ds.dense_row(s));
            labels.push(ds.labels[s]);
        }
        Self {
            kind,
            dense,
            dense_width: w,
            sparse: ds.sparse.iter().map(|c| c.gather(samples)).collect(),
            labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total sparse lookups across tables.
    pub fn total_lookups(&self) -> usize {
        self.sparse.iter().map(|c| c.indices.len()).sum()
    }

    /// Bytes of dense activations entering the model (used by the cost
    /// model's transfer terms).
    pub fn dense_bytes(&self) -> usize {
        self.dense.len() * std::mem::size_of::<f32>()
    }

    /// Re-assembles the sub-batch holding the listed sample positions (in
    /// the given order), preserving the purity tag.
    pub fn select(&self, ids: &[usize]) -> MiniBatch {
        let w = self.dense_width;
        let mut dense = Vec::with_capacity(ids.len() * w);
        let mut labels = Vec::with_capacity(ids.len());
        for &i in ids {
            dense.extend_from_slice(&self.dense[i * w..(i + 1) * w]);
            labels.push(self.labels[i]);
        }
        MiniBatch {
            kind: self.kind,
            dense,
            dense_width: w,
            sparse: self.sparse.iter().map(|csr| csr.gather(ids)).collect(),
            labels,
        }
    }

    /// Splits the batch into `k` contiguous shards whose sizes differ by
    /// at most one sample (the data-parallel sharding of §II-B: shard `d`
    /// gets samples `[d·⌈n/k⌉ …]`, earlier shards take the remainder).
    /// Shards past the sample count come back empty. The split is a pure
    /// function of `(len, k)`, which is what makes worker-sharded
    /// execution replayable. One shard is the batch itself, lent.
    pub fn shards(&self, k: usize) -> Vec<Cow<'_, MiniBatch>> {
        assert!(k >= 1, "need at least one shard");
        if k == 1 {
            return vec![Cow::Borrowed(self)];
        }
        let n = self.len();
        let base = n / k;
        let extra = n % k;
        let mut out = Vec::with_capacity(k);
        let mut start = 0usize;
        for d in 0..k {
            let len = base + usize::from(d < extra);
            let ids: Vec<usize> = (start..start + len).collect();
            start += len;
            out.push(Cow::Owned(self.select(&ids)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn ds(n: usize) -> Dataset {
        let spec = WorkloadSpec::tiny_test();
        let w = spec.dense_features;
        let mut sparse: Vec<TableIndices> =
            (0..spec.tables.len()).map(|_| TableIndices::new()).collect();
        for i in 0..n {
            for csr in sparse.iter_mut() {
                csr.push_bag(&[i as u32]);
            }
        }
        Dataset {
            spec,
            dense: (0..n * w).map(|v| v as f32).collect(),
            sparse,
            labels: (0..n).map(|i| (i % 2) as f32).collect(),
        }
    }

    #[test]
    fn gather_builds_consistent_batch() {
        let d = ds(6);
        let mb = MiniBatch::gather(&d, &[5, 1, 3], BatchKind::Hot);
        assert_eq!(mb.kind, BatchKind::Hot);
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.labels, vec![1.0, 1.0, 1.0]);
        assert_eq!(mb.sparse[0].bag(0), &[5]);
        assert_eq!(mb.sparse[0].bag(1), &[1]);
        assert_eq!(&mb.dense[0..4], d.dense_row(5));
        assert_eq!(mb.total_lookups(), 3 * 4);
        assert_eq!(mb.dense_bytes(), 3 * 4 * 4);
    }

    #[test]
    fn one_shard_lends_the_batch_and_more_shards_split_it_in_order() {
        let d = ds(7);
        let mb = MiniBatch::gather(&d, &[6, 0, 5, 1, 4, 2, 3], BatchKind::Hot);
        assert!(matches!(mb.shards(1).as_slice(), [Cow::Borrowed(b)] if std::ptr::eq(*b, &mb)));
        // Each shard's sample ids, after checking its other columns agree.
        let ids = |k: usize| -> Vec<Vec<u32>> {
            let shards = mb.shards(k);
            assert_eq!(shards.len(), k);
            let check = |s: &Cow<'_, MiniBatch>| -> Vec<u32> {
                assert!(matches!(s, Cow::Owned(_)));
                let ids = s.sparse[0].indices.clone();
                let dense: Vec<f32> =
                    ids.iter().flat_map(|&i| d.dense_row(i as usize).to_vec()).collect();
                let labels: Vec<f32> = ids.iter().map(|&i| (i % 2) as f32).collect();
                assert_eq!((s.kind, &s.dense, &s.labels), (BatchKind::Hot, &dense, &labels));
                assert!(s.sparse.iter().all(|t| t.indices == ids));
                ids
            };
            shards.iter().map(check).collect()
        };
        assert_eq!(ids(2), [vec![6, 0, 5, 1], vec![4, 2, 3]]);
        assert_eq!(ids(3), [vec![6, 0, 5], vec![1, 4], vec![2, 3]]);
        assert_eq!(ids(9)[6..], [vec![3], vec![], vec![]]);
    }

    #[test]
    fn empty_gather_is_empty_batch() {
        let d = ds(2);
        let mb = MiniBatch::gather(&d, &[], BatchKind::Cold);
        assert!(mb.is_empty());
        assert_eq!(mb.total_lookups(), 0);
    }
}
