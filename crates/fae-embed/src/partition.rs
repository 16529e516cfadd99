//! Hot/cold row partitioning — the output of the paper's *embedding
//! classifier* (§III-B).
//!
//! "The embedding classifier uses the output of the Embedding Logger and
//! the Statistical Optimizer to tag all embedding table entries that meet
//! the access threshold. This requires only one pass of each embedding
//! table." A partition stores the hot set as a membership bitmap plus a
//! dense global→hot-local remap so hot lookups can index the compact
//! hot bags in O(1).

use serde::{Deserialize, Serialize};

use crate::stats::AccessCounter;

/// Classification of one embedding row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowClass {
    /// Row meets the access threshold; it lives in the replicated hot bag.
    Hot,
    /// Row stays only in the CPU master table.
    Cold,
}

/// Sentinel in the remap table marking a cold row.
const COLD: u32 = u32::MAX;

/// The hot/cold split of one embedding table.
///
/// ```
/// use fae_embed::{AccessCounter, HotColdPartition};
/// let mut counts = AccessCounter::new(4);
/// counts.record_all(&[0, 0, 0, 2]); // row 0: 3 accesses, row 2: 1
/// let p = HotColdPartition::from_counts(&counts, 2);
/// assert!(p.is_hot(0));
/// assert!(!p.is_hot(2));
/// assert_eq!(p.hot_local(0), Some(0)); // compact hot-bag index
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HotColdPartition {
    /// global row id -> hot-local id, or `COLD`.
    remap: Vec<u32>,
    /// hot-local id -> global row id (sorted ascending by construction).
    hot_ids: Vec<u32>,
    /// The access cutoff (in absolute sampled accesses) that induced this
    /// partition.
    cutoff: u64,
}

impl HotColdPartition {
    /// Builds the partition: rows with `counts[row] >= cutoff` are hot.
    /// One pass over the counter, as the paper requires.
    pub fn from_counts(counter: &AccessCounter, cutoff: u64) -> Self {
        let mut remap = vec![COLD; counter.rows()];
        let mut hot_ids = Vec::new();
        for (row, &c) in counter.counts().iter().enumerate() {
            if c >= cutoff {
                remap[row] = hot_ids.len() as u32;
                hot_ids.push(row as u32);
            }
        }
        Self { remap, hot_ids, cutoff }
    }

    /// Marks *every* row hot — the paper treats tables under 1 MB as
    /// "de-facto hot" since they trivially fit in GPU memory.
    pub fn all_hot(rows: usize) -> Self {
        Self { remap: (0..rows as u32).collect(), hot_ids: (0..rows as u32).collect(), cutoff: 0 }
    }

    /// Marks every row cold (a degenerate partition used in ablations).
    pub fn all_cold(rows: usize) -> Self {
        Self { remap: vec![COLD; rows], hot_ids: Vec::new(), cutoff: u64::MAX }
    }

    /// Total rows in the table.
    pub fn rows(&self) -> usize {
        self.remap.len()
    }

    /// Number of hot rows.
    pub fn hot_count(&self) -> usize {
        self.hot_ids.len()
    }

    /// Fraction of rows that are hot.
    pub fn hot_fraction(&self) -> f64 {
        if self.remap.is_empty() {
            0.0
        } else {
            self.hot_ids.len() as f64 / self.remap.len() as f64
        }
    }

    /// The absolute access cutoff that induced this partition.
    pub fn cutoff(&self) -> u64 {
        self.cutoff
    }

    /// Classifies a row.
    #[inline]
    pub fn classify(&self, row: u32) -> RowClass {
        if self.remap[row as usize] == COLD {
            RowClass::Cold
        } else {
            RowClass::Hot
        }
    }

    /// True when the row is hot.
    #[inline]
    pub fn is_hot(&self, row: u32) -> bool {
        self.remap[row as usize] != COLD
    }

    /// Hot-local id for a global row, or `None` when cold.
    #[inline]
    pub fn hot_local(&self, row: u32) -> Option<u32> {
        let v = self.remap[row as usize];
        (v != COLD).then_some(v)
    }

    /// Global id for a hot-local id.
    #[inline]
    pub fn global_of(&self, hot_local: u32) -> u32 {
        self.hot_ids[hot_local as usize]
    }

    /// Sorted global ids of hot rows (the rows the replicator extracts
    /// into the hot bags).
    pub fn hot_ids(&self) -> &[u32] {
        &self.hot_ids
    }

    /// Bytes the hot slice of a `dim`-wide f32 table occupies.
    pub fn hot_bytes(&self, dim: usize) -> usize {
        self.hot_ids.len() * dim * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_with(counts: &[u64]) -> AccessCounter {
        let mut c = AccessCounter::new(counts.len());
        for (row, &k) in counts.iter().enumerate() {
            for _ in 0..k {
                c.record(row as u32);
            }
        }
        c
    }

    #[test]
    fn partition_splits_on_cutoff() {
        let c = counter_with(&[5, 0, 3, 1, 3]);
        let p = HotColdPartition::from_counts(&c, 3);
        assert_eq!(p.hot_count(), 3);
        assert_eq!(p.hot_ids(), &[0, 2, 4]);
        assert!(p.is_hot(0) && p.is_hot(2) && p.is_hot(4));
        assert!(!p.is_hot(1) && !p.is_hot(3));
        assert_eq!(p.classify(1), RowClass::Cold);
        assert_eq!(p.classify(2), RowClass::Hot);
    }

    #[test]
    fn remap_is_dense_and_invertible() {
        let c = counter_with(&[0, 9, 0, 9, 9]);
        let p = HotColdPartition::from_counts(&c, 1);
        assert_eq!(p.hot_local(1), Some(0));
        assert_eq!(p.hot_local(3), Some(1));
        assert_eq!(p.hot_local(4), Some(2));
        assert_eq!(p.hot_local(0), None);
        for local in 0..p.hot_count() as u32 {
            assert_eq!(p.hot_local(p.global_of(local)), Some(local));
        }
    }

    #[test]
    fn all_hot_and_all_cold() {
        let hot = HotColdPartition::all_hot(4);
        assert_eq!(hot.hot_count(), 4);
        assert!((hot.hot_fraction() - 1.0).abs() < 1e-12);
        let cold = HotColdPartition::all_cold(4);
        assert_eq!(cold.hot_count(), 0);
        assert_eq!(cold.hot_fraction(), 0.0);
    }

    #[test]
    fn raising_cutoff_shrinks_hot_set_monotonically() {
        let c = counter_with(&[10, 8, 6, 4, 2, 1, 0]);
        let mut prev = usize::MAX;
        for cutoff in 1..=11 {
            let p = HotColdPartition::from_counts(&c, cutoff);
            assert!(p.hot_count() <= prev, "hot set grew when cutoff rose");
            prev = p.hot_count();
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn hot_bytes_scales_with_dim() {
        let c = counter_with(&[2, 2, 0]);
        let p = HotColdPartition::from_counts(&c, 1);
        assert_eq!(p.hot_bytes(16), 2 * 16 * 4);
    }
}
