//! Deferred sparse-gradient state for the stale-skip trainer mode.
//!
//! *Popularity-Based Skipping of Stale Embeddings* (arXiv 2404.04270, by
//! the FAE authors) observes that the optimizer apply for a rarely-used
//! (cold) embedding row can be elided: its gradient is tiny, and by the
//! time the row is read again the update would have been stale anyway.
//! [`DeferredSparse`] implements that contract. Cold-row gradients are
//! *absorbed* into a per-table pending pool instead of being applied;
//! a pending row is flushed (its accumulated gradient applied in one
//! sparse-SGD step) when
//!
//! 1. the accumulated update magnitude crosses the staleness threshold
//!    (`lr · ‖g‖∞ ≥ threshold` — the update would move some weight by at
//!    least `threshold`, so it is no longer negligible),
//! 2. the row is about to be read (the trainer flushes the access set of
//!    the next batch, so a forward pass never sees starved weights), or
//! 3. a checkpoint is written (`flush_all`) — the checkpoint then
//!    snapshots a master with no hidden state, keeping resume
//!    bit-identical.
//!
//! Whatever is still pending when training ends is *dropped*
//! ([`DeferredSparse::drop_pending`]): those are exactly the stale
//! updates the paper skips. Hot rows are never deferred — they pass
//! through [`DeferredSparse::absorb`] untouched.
//!
//! Plain SGD is linear in the gradient, so flushing an accumulated sum
//! in one apply equals applying each contribution as it arrived (up to
//! float associativity); only *dropped* rows diverge from eager
//! training, and the fig12-parity harness bounds that divergence.
//!
//! A table's pool is a slot-indexed arena (`slot[row]` → entry in flat
//! `rows` / `data`; a removal swaps the last entry in), so every call
//! costs O(ids in the batch) with no map and no per-row allocation. What
//! the pool hands back is sorted by row id, each pending sum added onto
//! `+0.0` (`tests/modes_golden.rs` holds it to the map it used to be).

use crate::partition::HotColdPartition;
use crate::sparse::SparseGrad;

/// Lifetime counters of one stale-skip run (exported as `skip.*`
/// telemetry counters and into the `TrainReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Row-updates absorbed into the pending pool instead of applied.
    pub deferred: u64,
    /// Pending rows flushed because the accumulated magnitude crossed
    /// the staleness threshold.
    pub flushed_threshold: u64,
    /// Pending rows flushed because the next batch reads them.
    pub flushed_access: u64,
    /// Pending rows flushed by a checkpoint (`flush_all`).
    pub flushed_checkpoint: u64,
    /// Pending rows discarded at end of run — the elided stale updates.
    pub dropped: u64,
}

/// `slot` entry of a row that is not pending.
const NONE: u32 = u32::MAX;

/// One table's pending rows: entry `i` is row `rows[i]` with its sum at
/// `data[i * dim..]`, and `slot[row] == i` (or [`NONE`]; sized from the
/// partition on the first `absorb`, so an id past it is not pending).
#[derive(Clone, Debug, Default)]
struct Pool {
    slot: Vec<u32>,
    rows: Vec<u32>,
    data: Vec<f32>,
}

impl Pool {
    fn index(&self, row: u32) -> Option<usize> {
        self.slot.get(row as usize).filter(|&&i| i != NONE).map(|&i| i as usize)
    }

    /// Removes arena entry `i`, moving the last entry into its place.
    fn swap_remove(&mut self, i: usize, dim: usize) {
        let row = self.rows.swap_remove(i);
        self.slot[row as usize] = NONE;
        let last = self.rows.len();
        if i < last {
            self.slot[self.rows[i] as usize] = i as u32;
            self.data.copy_within(last * dim..(last + 1) * dim, i * dim);
        }
        self.data.truncate(last * dim);
    }

    /// Hands back and removes the entries `keys` name (`row << 32 |
    /// entry`), rows ascending. They leave in descending entry order, so
    /// the entry a removal moves in is never one still to be removed.
    fn take(&mut self, mut keys: Vec<u64>, dim: usize) -> SparseGrad {
        keys.sort_unstable();
        let mut g = SparseGrad::with_rows(dim, keys.len());
        for &key in &keys {
            let i = key as u32 as usize;
            g.push_row((key >> 32) as u32, &self.data[i * dim..(i + 1) * dim]);
        }
        let mut at: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        at.sort_unstable_by(|a, b| b.cmp(a));
        at.into_iter().for_each(|i| self.swap_remove(i as usize, dim));
        g
    }
}

/// Per-table pool of deferred cold-row gradients (see module docs).
#[derive(Clone, Debug)]
pub struct DeferredSparse {
    dim: usize,
    /// Flush threshold in weight-delta units: a pending row flushes once
    /// `lr · ‖accumulated‖∞` reaches it.
    threshold: f32,
    lr: f32,
    pools: Vec<Pool>,
    stats: SkipStats,
}

impl DeferredSparse {
    /// An empty pool for `num_tables` tables of width `dim`. `threshold`
    /// is in weight-delta units (see [`SkipStats`] docs); `lr` is the
    /// trainer's learning rate, used to convert gradient magnitude into
    /// weight delta.
    pub fn new(num_tables: usize, dim: usize, threshold: f32, lr: f32) -> Self {
        let pools = vec![Pool::default(); num_tables];
        Self { dim, threshold, lr, pools, stats: SkipStats::default() }
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> SkipStats {
        self.stats
    }

    /// Rows currently pending across all tables.
    pub fn pending_rows(&self) -> usize {
        self.pools.iter().map(|p| p.rows.len()).sum()
    }

    /// Splits a step's gradients into *apply now* and *defer*. Hot rows
    /// and cold rows whose accumulated magnitude crosses the threshold
    /// come back (accumulated) in the returned gradients; the rest stay
    /// pending. Returns the gradients to apply and the number of
    /// row-updates deferred this step.
    pub fn absorb(
        &mut self,
        grads: &[SparseGrad],
        partitions: &[HotColdPartition],
    ) -> (Vec<SparseGrad>, u64) {
        assert_eq!(grads.len(), self.pools.len(), "one gradient per table");
        assert_eq!(partitions.len(), self.pools.len(), "one partition per table");
        let dim = self.dim;
        let crosses =
            |v: &[f32]| self.lr * v.iter().fold(0.0f32, |m, &x| m.max(x.abs())) >= self.threshold;
        let mut deferred_now = 0u64;
        let mut out = Vec::with_capacity(grads.len());
        for ((g, p), pool) in grads.iter().zip(partitions).zip(&mut self.pools) {
            if pool.slot.len() < p.rows() {
                pool.slot.resize(p.rows(), NONE);
            }
            let mut apply = SparseGrad::with_rows(dim, g.nnz_rows());
            for (row, grad) in g.iter() {
                if p.is_hot(row) {
                    apply.push_row(row, grad);
                } else if let Some(i) = pool.index(row) {
                    let acc = &mut pool.data[i * dim..(i + 1) * dim];
                    for (a, &v) in acc.iter_mut().zip(grad) {
                        *a += v;
                    }
                    if crosses(acc) {
                        apply.push_row(row, acc);
                        pool.swap_remove(i, dim);
                        self.stats.flushed_threshold += 1;
                    } else {
                        deferred_now += 1;
                    }
                } else if crosses(grad) {
                    // Not pending: a row already over the threshold passes
                    // straight through — no pool allocation, no re-read.
                    apply.push_row(row, grad);
                    self.stats.flushed_threshold += 1;
                } else {
                    pool.slot[row as usize] = pool.rows.len() as u32;
                    pool.rows.push(row);
                    pool.data.extend_from_slice(grad);
                    deferred_now += 1;
                }
            }
            out.push(apply);
        }
        self.stats.deferred += deferred_now;
        (out, deferred_now)
    }

    /// Takes the pending gradients of every row in `access` (per-table
    /// row-id lists; duplicates are fine) — the access set of the batch
    /// about to run — so its forward pass reads fully-applied weights.
    /// Returns `None` when nothing was pending, and the number of rows
    /// flushed otherwise.
    pub fn take_for_access<S: AsRef<[u32]>>(
        &mut self,
        access: &[S],
    ) -> Option<(Vec<SparseGrad>, u64)> {
        assert_eq!(access.len(), self.pools.len(), "one access set per table");
        let mut flushed = 0u64;
        let mut out = Vec::with_capacity(access.len());
        for (ids, pool) in access.iter().zip(&mut self.pools) {
            let mut keys = Vec::new();
            for &row in ids.as_ref() {
                if let Some(i) = pool.index(row) {
                    pool.slot[row as usize] = NONE; // so a duplicate id is not listed twice
                    keys.push(u64::from(row) << 32 | i as u64);
                }
            }
            flushed += keys.len() as u64;
            out.push(pool.take(keys, self.dim));
        }
        if flushed == 0 {
            return None;
        }
        self.stats.flushed_access += flushed;
        Some((out, flushed))
    }

    /// Flushes everything pending — the checkpoint hook. The checkpoint
    /// then snapshots a master carrying no hidden state, so a resumed
    /// run (which starts with an empty pool) is bit-identical to one
    /// that kept going. Returns `None` when nothing was pending.
    pub fn flush_all(&mut self) -> Option<(Vec<SparseGrad>, u64)> {
        let flushed = self.pending_rows() as u64;
        if flushed == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(self.pools.len());
        for pool in &mut self.pools {
            let keys = pool.rows.iter().zip(0..).map(|(&row, i)| u64::from(row) << 32 | i);
            out.push(pool.take(keys.collect(), self.dim));
        }
        self.stats.flushed_checkpoint += flushed;
        Some((out, flushed))
    }

    /// Discards everything still pending — the end-of-run elision. These
    /// rows' accumulated updates never crossed the threshold and were
    /// never read again: the stale updates the paper skips outright.
    /// Returns how many rows were dropped.
    pub fn drop_pending(&mut self) -> u64 {
        let dropped = self.pending_rows() as u64;
        for pool in &mut self.pools {
            pool.rows.iter().for_each(|&row| pool.slot[row as usize] = NONE);
            pool.rows.clear();
            pool.data.clear();
        }
        self.stats.dropped += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessCounter;

    fn parts(rows: usize, hot: &[u32]) -> Vec<HotColdPartition> {
        let mut c = AccessCounter::new(rows);
        for &r in hot {
            c.record(r);
            c.record(r);
        }
        vec![HotColdPartition::from_counts(&c, 2)]
    }

    fn grad(dim: usize, rows: &[(u32, f32)]) -> Vec<SparseGrad> {
        let mut g = SparseGrad::new(dim);
        for &(r, v) in rows {
            g.accumulate(r, &vec![v; dim]);
        }
        vec![g]
    }

    #[test]
    fn hot_rows_pass_through_untouched() {
        let p = parts(10, &[3]);
        let mut d = DeferredSparse::new(1, 4, 0.5, 0.1);
        let (apply, deferred) = d.absorb(&grad(4, &[(3, 1.0)]), &p);
        assert_eq!(deferred, 0);
        assert_eq!(apply[0].get(3).unwrap(), &[1.0; 4]);
        assert_eq!(d.pending_rows(), 0);
    }

    #[test]
    fn small_cold_updates_defer_until_threshold() {
        let p = parts(10, &[]);
        // threshold 0.5 at lr 0.1: flush once |acc| reaches 5.0.
        let mut d = DeferredSparse::new(1, 4, 0.5, 0.1);
        let (apply, deferred) = d.absorb(&grad(4, &[(7, 2.0)]), &p);
        assert_eq!(deferred, 1);
        assert!(apply[0].is_empty());
        assert_eq!(d.pending_rows(), 1);
        // Second contribution pushes |acc| to 5.0: flushes accumulated.
        let (apply, deferred) = d.absorb(&grad(4, &[(7, 3.0)]), &p);
        assert_eq!(deferred, 0);
        assert_eq!(apply[0].get(7).unwrap(), &[5.0; 4]);
        assert_eq!(d.pending_rows(), 0);
        assert_eq!(d.stats().flushed_threshold, 1);
    }

    #[test]
    fn access_flush_returns_accumulated_pending() {
        let p = parts(10, &[]);
        let mut d = DeferredSparse::new(1, 2, 10.0, 0.1);
        d.absorb(&grad(2, &[(1, 1.0), (4, 2.0)]), &p);
        let (flush, n) = d.take_for_access(&[vec![4, 9, 4]]).expect("row 4 pending");
        assert_eq!(n, 1);
        assert_eq!(flush[0].get(4).unwrap(), &[2.0; 2]);
        assert_eq!(d.pending_rows(), 1);
        assert!(d.take_for_access(&[vec![9]]).is_none());
        // An id past the table (or a pool that never absorbed) is simply
        // not pending.
        assert!(d.take_for_access(&[vec![u32::MAX]]).is_none());
        assert!(DeferredSparse::new(1, 2, 10.0, 0.1).take_for_access(&[vec![4]]).is_none());
    }

    #[test]
    fn taking_rows_keeps_the_rest_of_the_arena_addressable() {
        // Removals swap the last entry into the hole: every row left
        // behind must still come back with its own sum.
        let p = parts(10, &[]);
        let mut d = DeferredSparse::new(1, 1, 10.0, 0.1);
        d.absorb(&grad(1, &[(1, 1.0), (2, 2.0), (3, 3.0), (5, 5.0), (8, 8.0)]), &p);
        let (flush, n) = d.take_for_access(&[vec![8, 1, 3]]).expect("pending");
        assert_eq!(n, 3);
        let rows: Vec<(u32, f32)> = flush[0].iter().map(|(r, g)| (r, g[0])).collect();
        assert_eq!(rows, vec![(1, 1.0), (3, 3.0), (8, 8.0)]);
        d.absorb(&grad(1, &[(2, 0.5), (5, 0.5)]), &p);
        let (all, n) = d.flush_all().expect("pending");
        assert_eq!(n, 2);
        let rows: Vec<(u32, f32)> = all[0].iter().map(|(r, g)| (r, g[0])).collect();
        assert_eq!(rows, vec![(2, 2.5), (5, 5.5)]);
    }

    #[test]
    fn flush_all_then_drop_pending_account_separately() {
        let p = parts(10, &[]);
        let mut d = DeferredSparse::new(1, 2, 10.0, 0.1);
        d.absorb(&grad(2, &[(1, 1.0), (2, 1.0)]), &p);
        let (_, n) = d.flush_all().expect("two rows pending");
        assert_eq!(n, 2);
        assert!(d.flush_all().is_none());
        d.absorb(&grad(2, &[(5, 1.0)]), &p);
        assert_eq!(d.drop_pending(), 1);
        let s = d.stats();
        assert_eq!((s.flushed_checkpoint, s.dropped), (2, 1));
        // A dropped row starts over.
        d.absorb(&grad(2, &[(5, 2.0)]), &p);
        assert_eq!(d.flush_all().expect("row 5 pending").0[0].get(5).unwrap(), &[2.0; 2]);
    }

    #[test]
    fn deferred_then_flushed_equals_eager_sum() {
        // Linearity: absorb twice then flush == one accumulated apply.
        let p = parts(10, &[]);
        let mut d = DeferredSparse::new(1, 3, 100.0, 0.1);
        d.absorb(&grad(3, &[(2, 0.25)]), &p);
        d.absorb(&grad(3, &[(2, 0.5)]), &p);
        let (flush, _) = d.flush_all().expect("pending");
        assert_eq!(flush[0].get(2).unwrap(), &[0.75; 3]);
    }
}
