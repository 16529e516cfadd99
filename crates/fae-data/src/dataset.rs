//! CSR-style storage for sparse recommendation datasets.

use serde::{Deserialize, Serialize};

use crate::spec::WorkloadSpec;

/// All lookups into one embedding table, for every sample, in CSR form:
/// sample `i` owns `indices[offsets[i]..offsets[i+1]]`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableIndices {
    /// Flat row-id stream.
    pub indices: Vec<u32>,
    /// `num_samples + 1` boundaries into `indices`.
    pub offsets: Vec<usize>,
}

impl TableIndices {
    /// An empty CSR with zero samples.
    pub fn new() -> Self {
        Self { indices: Vec::new(), offsets: vec![0] }
    }

    /// With pre-reserved capacity.
    pub fn with_capacity(samples: usize, lookups: usize) -> Self {
        let mut offsets = Vec::with_capacity(samples + 1);
        offsets.push(0);
        Self { indices: Vec::with_capacity(lookups), offsets }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one sample's bag of row ids.
    pub fn push_bag(&mut self, bag: &[u32]) {
        self.indices.extend_from_slice(bag);
        self.offsets.push(self.indices.len());
    }

    /// The bag of sample `i`.
    #[inline]
    pub fn bag(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The CSR invariant every decoder holds decoded bytes to before
    /// anything indexes by them: `samples + 1` offsets that start at 0,
    /// never go back, and end at `indices.len()`.
    pub fn validate(&self, samples: usize) -> Result<(), &'static str> {
        if self.offsets.len() != samples + 1 {
            return Err("csr has the wrong number of offsets for its samples");
        }
        let in_order = self.offsets.first() == Some(&0)
            && self.offsets.last() == Some(&self.indices.len())
            && self.offsets.windows(2).all(|w| w[0] <= w[1]);
        if in_order {
            Ok(())
        } else {
            Err("csr offsets do not run from 0 to nnz in order")
        }
    }

    /// Gathers the listed samples into a new CSR (mini-batch assembly).
    pub fn gather(&self, samples: &[usize]) -> TableIndices {
        let mut out = TableIndices::with_capacity(samples.len(), samples.len());
        for &s in samples {
            out.push_bag(self.bag(s));
        }
        out
    }
}

/// The flat row-id stream, duplicates and all, as a per-table id list.
impl AsRef<[u32]> for TableIndices {
    fn as_ref(&self) -> &[u32] {
        &self.indices
    }
}

/// A full synthetic dataset: dense features, per-table sparse lookups and
/// binary labels.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// The shape this dataset was generated from.
    pub spec: WorkloadSpec,
    /// Row-major `num_samples × dense_features` continuous features.
    pub dense: Vec<f32>,
    /// One CSR per embedding table.
    pub sparse: Vec<TableIndices>,
    /// 0/1 click labels.
    pub labels: Vec<f32>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Dense feature row of sample `i`.
    pub fn dense_row(&self, i: usize) -> &[f32] {
        let w = self.spec.dense_features;
        &self.dense[i * w..(i + 1) * w]
    }

    /// Iterates `(table, bag)` for sample `i`.
    pub fn bags_of(&self, i: usize) -> impl Iterator<Item = (usize, &[u32])> {
        self.sparse.iter().enumerate().map(move |(t, csr)| (t, csr.bag(i)))
    }

    /// Positive-label fraction (sanity statistic).
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l >= 0.5).count() as f64 / self.labels.len() as f64
    }

    /// Splits off the last `frac` of samples as a test set, returning
    /// `(train, test)`. The split is positional, matching the paper's use
    /// of held-out test/validation partitions.
    pub fn split(mut self, test_frac: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&test_frac), "test_frac must be in [0,1)");
        let n = self.len();
        let n_test = (n as f64 * test_frac) as usize;
        let n_train = n - n_test;
        let test_samples: Vec<usize> = (n_train..n).collect();
        let test = Dataset {
            spec: self.spec.clone(),
            dense: self.dense[n_train * self.spec.dense_features..].to_vec(),
            sparse: self.sparse.iter().map(|c| c.gather(&test_samples)).collect(),
            labels: self.labels[n_train..].to_vec(),
        };
        self.dense.truncate(n_train * self.spec.dense_features);
        self.sparse = {
            let train_samples: Vec<usize> = (0..n_train).collect();
            self.sparse.iter().map(|c| c.gather(&train_samples)).collect()
        };
        self.labels.truncate(n_train);
        (self, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn csr_push_and_bag() {
        let mut c = TableIndices::new();
        c.push_bag(&[1, 2, 3]);
        c.push_bag(&[]);
        c.push_bag(&[7]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.bag(0), &[1, 2, 3]);
        assert_eq!(c.bag(1), &[] as &[u32]);
        assert_eq!(c.bag(2), &[7]);
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let mut c = TableIndices::new();
        c.push_bag(&[0]);
        c.push_bag(&[1, 1]);
        c.push_bag(&[2]);
        let g = c.gather(&[2, 0, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.bag(0), &[2]);
        assert_eq!(g.bag(1), &[0]);
        assert_eq!(g.bag(2), &[2]);
    }

    fn mini_dataset(n: usize) -> Dataset {
        let spec = WorkloadSpec::tiny_test();
        let w = spec.dense_features;
        let mut sparse: Vec<TableIndices> =
            (0..spec.tables.len()).map(|_| TableIndices::new()).collect();
        for i in 0..n {
            for (t, csr) in sparse.iter_mut().enumerate() {
                csr.push_bag(&[(i % (10 + t)) as u32]);
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
    fn dense_rows_and_labels() {
        let ds = mini_dataset(5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dense_row(1), &[4.0, 5.0, 6.0, 7.0]);
        assert!((ds.positive_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn split_preserves_totals_and_order() {
        let ds = mini_dataset(10);
        let (train, test) = ds.split(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // Test rows are the tail.
        assert_eq!(test.dense_row(0)[0], 7.0 * 4.0);
        assert_eq!(test.sparse[0].bag(0), &[7]);
        assert_eq!(train.sparse[0].bag(6), &[6]);
    }

    #[test]
    fn bags_of_iterates_every_table() {
        let ds = mini_dataset(3);
        let bags: Vec<(usize, &[u32])> = ds.bags_of(2).collect();
        assert_eq!(bags.len(), 4);
        assert_eq!(bags[0], (0, &[2u32][..]));
    }
}
