//! Oracle lookahead cache over the known mini-batch stream.
//!
//! FAE's premise — popularity is known before training starts — extends
//! to *exact* future knowledge: the preprocessed mini-batch stream and
//! every epoch's shuffle order are fixed up front (the order comes from
//! a seed derived per epoch), so the trainer can look ahead and compute
//! the *true* next-K-batch access set per embedding table. BagPipe
//! (arXiv 2202.12429) builds its cache around exactly this oracle.
//!
//! The trainer uses the oracle to replace the full-bag hot syncs with
//! exact partial transfers:
//!
//! * at a cold→hot transition it prefetches only the rows the next
//!   `min(K, block)` hot batches will read (instead of the whole bag),
//! * while the hot block runs, the window slides: the access set
//!   entering the window is prefetched K−1 steps before it executes, so
//!   the transfer overlaps training compute (only the non-hidden excess
//!   is charged to the timeline),
//! * rows resident from the previous block but absent from the new plan
//!   are evicted (free — eviction drops residency, it moves no bytes),
//! * at the hot→cold transition only *resident* rows are written back.
//!
//! Because the master tables are frozen during a hot block (cold steps
//! and hot steps never interleave within a block), a row fetched
//! mid-block reads exactly the bytes a full refresh would have copied at
//! the block start — the oracle changes *transfer* costs only, never
//! numerics. `--lookahead K` for any K produces the same model digest as
//! `--lookahead 0`; the trainer's tests enforce this.
//!
//! [`LookaheadOracle`] is a cursor over the *borrowed* hot stream: no
//! copy, no thread. Slides hand raw CSR indices to the residency mask
//! (which fetches a listed row once); row sets are one bit per row id.
//!
//! [`plan_decisions`] is the pure planner underneath: decision *i*
//! depends only on access sets `[0, i+K)`, so decisions already emitted
//! never change when the stream is extended — the prefix-stability
//! property the proptests pin down.

use fae_data::MiniBatch;

/// The unique rows one mini-batch reads, per table, sorted ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Per table: sorted, deduplicated global row ids.
    pub per_table: Vec<Vec<u32>>,
}

impl AccessSet {
    /// Extracts the access set of one mini-batch.
    pub fn of(batch: &MiniBatch) -> Self {
        let per_table = batch
            .sparse
            .iter()
            .map(|csr| {
                let mut rows = RowBits::default();
                for &r in &csr.indices {
                    rows.insert(r);
                }
                rows.drain()
            })
            .collect();
        Self { per_table }
    }

    /// Total unique rows across tables.
    pub fn rows(&self) -> usize {
        self.per_table.iter().map(Vec::len).sum()
    }
}

/// One emitted oracle decision: the rows to prefetch into the hot cache
/// immediately before executing the step at the same stream position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepDecision {
    /// Per table: rows fetched before this step runs (sorted ascending).
    pub prefetch: Vec<Vec<u32>>,
}

/// The pure lookahead planner. With window `K ≥ 1` over the access-set
/// stream, decision 0 prefetches the union of sets `[0, K)`; decision
/// `i > 0` prefetches whatever `sets[i+K-1]` adds beyond the rows already
/// resident. Residency only grows (eviction happens at block boundaries,
/// outside this planner), so decision `i` is a function of `sets[0..i+K]`
/// alone — extending the stream never changes decisions already emitted.
/// Residency is one bit per row id.
pub fn plan_decisions(sets: &[AccessSet], window: usize) -> Vec<StepDecision> {
    assert!(window >= 1, "a zero window means the oracle is disabled");
    let Some(first) = sets.first() else { return Vec::new() };
    let mut resident = vec![RowBits::default(); first.per_table.len()];
    let mut out = Vec::with_capacity(sets.len());
    for i in 0..sets.len() {
        let mut prefetch = vec![Vec::new(); resident.len()];
        // The sets that must be resident before step i runs: the whole
        // first window at i == 0, the set entering the window after.
        let incoming: &[AccessSet] = if i == 0 {
            &sets[..window.min(sets.len())]
        } else if i + window - 1 < sets.len() {
            &sets[i + window - 1..i + window]
        } else {
            &[]
        };
        for set in incoming {
            for (t, rows) in set.per_table.iter().enumerate() {
                prefetch[t].extend(rows.iter().copied().filter(|&r| resident[t].insert(r)));
            }
        }
        for rows in &mut prefetch {
            rows.sort_unstable();
        }
        out.push(StepDecision { prefetch });
    }
    out
}

/// A set of row ids as one bit per id, grown to the largest id inserted:
/// the planner's residency, a block plan's union, a step's seen rows.
#[derive(Clone, Debug, Default)]
struct RowBits(Vec<u64>);

impl RowBits {
    /// Adds `row`; true when it was not in the set yet.
    fn insert(&mut self, row: u32) -> bool {
        let (word, bit) = (row as usize / 64, 1u64 << (row % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Takes every row out of the set, ascending.
    fn drain(&mut self) -> Vec<u32> {
        let mut rows = Vec::new();
        for (word, bits) in (0u32..).zip(&mut self.0) {
            while *bits != 0 {
                rows.push(word * 64 + bits.trailing_zeros());
                *bits &= *bits - 1;
            }
        }
        rows
    }
}

/// The streaming oracle the trainer consumes: a cursor over the epoch's
/// hot stream, `order` over `batches`, both borrowed.
pub struct LookaheadOracle<'a> {
    batches: &'a [MiniBatch],
    order: &'a [usize],
    window: usize,
    /// Position in `order` of the step about to execute.
    pos: usize,
    /// Per table: scratch for counting a step's unique rows.
    seen: Vec<RowBits>,
}

impl<'a> LookaheadOracle<'a> {
    /// An oracle over `batches` in `order` (the epoch's shuffled
    /// hot-batch order). `window` is the lookahead K in batches and must
    /// be ≥ 1 — a window of 0 means "no oracle" and is handled by the
    /// caller, not here.
    pub fn new(batches: &'a [MiniBatch], order: &'a [usize], window: usize) -> Self {
        assert!(window >= 1, "a zero window means the oracle is disabled");
        let tables = batches.first().map_or(0, |b| b.sparse.len());
        Self { batches, order, window, pos: 0, seen: vec![RowBits::default(); tables] }
    }

    /// The lookahead window size K.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The batch `offset` steps ahead of the step about to execute (0 =
    /// that step itself). `None` past the end of the epoch.
    pub fn peek(&self, offset: usize) -> Option<&'a MiniBatch> {
        self.order.get(self.pos + offset).map(|&b| &self.batches[b])
    }

    /// The block-start prefetch plan: per-table union of the rows the
    /// next `min(K, limit)` steps read (`limit` = batches left in the
    /// block about to run), ascending.
    pub fn block_plan(&self, limit: usize, num_tables: usize) -> Vec<Vec<u32>> {
        let mut union = vec![RowBits::default(); num_tables];
        for batch in (0..self.window.min(limit)).map_while(|k| self.peek(k)) {
            for (rows, csr) in union.iter_mut().zip(&batch.sparse) {
                for &r in &csr.indices {
                    rows.insert(r);
                }
            }
        }
        union.iter_mut().map(RowBits::drain).collect()
    }

    /// Consumes the step about to execute: its batch and the number of
    /// unique rows it reads, summed over tables. `None` once the epoch
    /// stream is exhausted.
    pub fn advance(&mut self) -> Option<(&'a MiniBatch, u64)> {
        let batch = self.peek(0)?;
        self.pos += 1;
        let mut unique = 0u64;
        for (seen, csr) in self.seen.iter_mut().zip(&batch.sparse) {
            unique += csr.indices.iter().map(|&r| u64::from(seen.insert(r))).sum::<u64>();
            // Empty again in O(ids): only these ids' words hold bits.
            csr.indices.iter().for_each(|&r| seen.0[r as usize / 64] = 0);
        }
        Some((batch, unique))
    }

    /// Skips `n` positions — the resume path, where the hot cursor starts
    /// mid-epoch.
    pub fn skip(&mut self, n: usize) {
        self.pos = self.pos.saturating_add(n).min(self.order.len());
    }
}

/// Lifetime counters of one oracle run (exported as `oracle.*` telemetry
/// counters and into the `TrainReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Rows copied CPU→GPU by block-start plans and window slides.
    pub prefetched_rows: u64,
    /// Resident rows dropped at a refresh because the new plan no longer
    /// needs them.
    pub evicted_rows: u64,
    /// Row reads served by resident rows (unique rows per step).
    pub hits: u64,
    /// Row reads that demand-fetched — with an exact oracle this stays 0
    /// and is kept as a self-check.
    pub misses: u64,
    /// Bytes actually moved across PCIe by oracle-driven syncs.
    pub moved_bytes: u64,
    /// Bytes the full-bag syncs would have moved instead.
    pub full_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, BatchKind, GenOptions, WorkloadSpec};

    fn sets(rows: &[&[u32]]) -> Vec<AccessSet> {
        rows.iter().map(|r| AccessSet { per_table: vec![r.to_vec()] }).collect()
    }

    /// `n` hot batches of 64 over the tiny spec.
    fn batches(seed: u64, n: usize) -> Vec<MiniBatch> {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(seed, n));
        (0..ds.len())
            .collect::<Vec<_>>()
            .chunks(64)
            .map(|c| MiniBatch::gather(&ds, c, BatchKind::Hot))
            .collect()
    }

    #[test]
    fn first_decision_prefetches_the_whole_window() {
        let s = sets(&[&[1, 2], &[2, 3], &[4]]);
        let d = plan_decisions(&s, 2);
        assert_eq!(d[0].prefetch, vec![vec![1, 2, 3]]);
        // Step 1 pulls in set 2; 2 and 3 are already resident.
        assert_eq!(d[1].prefetch, vec![vec![4]]);
        // Nothing left beyond the stream.
        assert_eq!(d[2].prefetch, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn window_larger_than_stream_prefetches_everything_up_front() {
        let s = sets(&[&[1], &[2], &[3]]);
        let d = plan_decisions(&s, 10);
        assert_eq!(d[0].prefetch, vec![vec![1, 2, 3]]);
        assert!(d[1].prefetch[0].is_empty() && d[2].prefetch[0].is_empty());
    }

    #[test]
    fn decisions_are_prefix_stable_on_a_fixed_case() {
        let full = sets(&[&[1, 5], &[2], &[5, 9], &[3], &[9]]);
        let short = &full[..3];
        let window = 2;
        let d_full = plan_decisions(&full, window);
        let d_short = plan_decisions(short, window);
        for i in 0..=(short.len() - window) {
            assert_eq!(d_full[i], d_short[i], "decision {i} changed when the stream grew");
        }
    }

    #[test]
    fn residency_bits_span_word_boundaries_and_large_ids() {
        let s = sets(&[&[63, 64, u32::from(u16::MAX)], &[0, 64, 127, 128], &[63]]);
        let d = plan_decisions(&s, 1);
        let got: Vec<_> = d.into_iter().map(|d| d.prefetch).collect();
        assert_eq!(got, vec![vec![vec![63, 64, 65_535]], vec![vec![0, 127, 128]], vec![vec![]]]);
    }

    #[test]
    fn access_set_dedups_and_sorts() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(3, 200));
        let mb = MiniBatch::gather(&ds, &(0..64).collect::<Vec<_>>(), BatchKind::Unclassified);
        let set = AccessSet::of(&mb);
        assert_eq!(set.per_table.len(), mb.sparse.len());
        for rows in &set.per_table {
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        }
        assert!(set.rows() > 0);
    }

    #[test]
    fn streaming_oracle_matches_the_pure_planner_unions() {
        let batches = batches(9, 1_000);
        let order: Vec<usize> = (0..batches.len()).rev().collect();
        let eager: Vec<AccessSet> = order.iter().map(|&b| AccessSet::of(&batches[b])).collect();
        let tables = batches[0].sparse.len();

        let mut oracle = LookaheadOracle::new(&batches, &order, 3);
        // Block plan == the planner's first decision: the union of the
        // first 3 sets. A block shorter than the window plans only itself.
        assert_eq!(oracle.block_plan(usize::MAX, tables), plan_decisions(&eager, 3)[0].prefetch);
        assert_eq!(oracle.block_plan(1, tables), eager[0].per_table);
        // Advancing walks the order; each step counts its unique rows
        // whatever the steps before it read.
        for (i, s) in eager.iter().enumerate() {
            assert!(std::ptr::eq(oracle.peek(0).expect("in the epoch"), &batches[order[i]]));
            let (batch, unique) = oracle.advance().expect("position in the epoch");
            assert_eq!(AccessSet::of(batch), *s, "position {i}");
            assert_eq!(unique, s.rows() as u64, "position {i}");
        }
        assert!(oracle.advance().is_none() && oracle.peek(0).is_none());
        assert_eq!(oracle.block_plan(3, tables), vec![Vec::<u32>::new(); tables]);
    }

    #[test]
    fn skip_fast_forwards_the_stream() {
        let batches = batches(9, 500);
        let order: Vec<usize> = (0..batches.len()).collect();
        let mut oracle = LookaheadOracle::new(&batches, &order, 1);
        oracle.skip(2);
        let (third, unique) = oracle.advance().expect("a third batch");
        assert!(std::ptr::eq(third, &batches[2]));
        assert_eq!(unique, AccessSet::of(&batches[2]).rows() as u64);
        // Skipping past the end leaves an exhausted cursor.
        oracle.skip(usize::MAX / 2);
        assert!(oracle.advance().is_none());
    }
}
