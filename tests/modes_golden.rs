//! Golden pins for the mode bookkeeping: the stale-skip pool as the
//! per-table `BTreeMap<u32, Vec<f32>>` it was before it became a
//! slot-indexed arena is kept here as [`Reference`], and `DeferredSparse`
//! is held `to_bits`-equal to it over long seeded sequences of `absorb`,
//! `take_for_access`, `flush_all` and `drop_pending`; the lookahead
//! planner is held to the `BTreeSet` residency it was written with. The
//! trainer digests compare two runs of one build, so a rewrite that
//! reordered a pending sum on both sides would pass them; these
//! references would not move with it.
//!
//! The pool's contract: a pending row's contributions are summed in the
//! order they arrive, starting from the first contribution's own bits;
//! whatever the pool hands back is added onto `+0.0` (so a lone `-0.0`
//! reads `+0.0`) in strictly ascending row order, one gradient per table.

#![expect(clippy::expect_used, reason = "a test helper fails its test by panicking")]

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fae::core::{plan_decisions, AccessSet};
use fae::embed::{AccessCounter, DeferredSparse, HotColdPartition, SkipStats, SparseGrad};

const DIMS: [usize; 5] = [1, 7, 8, 16, 17];
/// Rows per table: a one-row table, a small one and a wider one.
const TABLE_ROWS: [usize; 3] = [1, 40, 300];
const LR: f32 = 0.1;
/// `lr · |g|` crosses it at `|g| ≥ 2.5`.
const THRESHOLD: f32 = 0.25;

type Rows = Vec<(u32, Vec<u32>)>;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(row, value bits)` as `iter()` yields them, which must be strictly
/// ascending by row.
fn rows_of(g: &SparseGrad) -> Rows {
    let rows: Rows = g.iter().map(|(row, v)| (row, bits(v))).collect();
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "iter() not strictly ascending");
    assert_eq!(rows.len(), g.nnz_rows());
    rows
}

/// The pool before the rewrite, with scalar adds: shares no code with
/// the type under test.
struct Reference {
    pending: Vec<BTreeMap<u32, Vec<f32>>>,
    stats: SkipStats,
}

/// A row handed back: added onto `+0.0`.
fn out_row(row: u32, acc: &[f32]) -> (u32, Vec<u32>) {
    (row, acc.iter().map(|&v| (0.0f32 + v).to_bits()).collect())
}

fn maxabs(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

impl Reference {
    fn new(tables: usize) -> Self {
        Self { pending: vec![BTreeMap::new(); tables], stats: SkipStats::default() }
    }

    fn pending_rows(&self) -> usize {
        self.pending.iter().map(BTreeMap::len).sum()
    }

    fn absorb(&mut self, grads: &[SparseGrad], parts: &[HotColdPartition]) -> (Vec<Rows>, u64) {
        let mut deferred_now = 0;
        let mut out = Vec::new();
        for ((g, p), pool) in grads.iter().zip(parts).zip(&mut self.pending) {
            let mut apply = Rows::new();
            for (row, grad) in g.iter() {
                if p.is_hot(row) {
                    apply.push(out_row(row, grad));
                } else if let Some(acc) = pool.get_mut(&row) {
                    for (a, &v) in acc.iter_mut().zip(grad) {
                        *a += v;
                    }
                    if LR * maxabs(acc) >= THRESHOLD {
                        apply.push(out_row(row, &pool.remove(&row).expect("pending")));
                        self.stats.flushed_threshold += 1;
                    } else {
                        deferred_now += 1;
                        self.stats.deferred += 1;
                    }
                } else if LR * maxabs(grad) >= THRESHOLD {
                    apply.push(out_row(row, grad));
                    self.stats.flushed_threshold += 1;
                } else {
                    pool.insert(row, grad.to_vec());
                    deferred_now += 1;
                    self.stats.deferred += 1;
                }
            }
            out.push(apply);
        }
        (out, deferred_now)
    }

    fn take_for_access(&mut self, access: &[Vec<u32>]) -> Option<(Vec<Rows>, u64)> {
        let mut flushed = 0;
        let mut out = Vec::new();
        for (ids, pool) in access.iter().zip(&mut self.pending) {
            let mut taken = BTreeMap::new();
            for &id in ids {
                if let Some(acc) = pool.remove(&id) {
                    taken.insert(id, acc);
                }
            }
            flushed += taken.len() as u64;
            out.push(taken.iter().map(|(&row, acc)| out_row(row, acc)).collect());
        }
        self.stats.flushed_access += flushed;
        (flushed > 0).then_some((out, flushed))
    }

    fn flush_all(&mut self) -> Option<(Vec<Rows>, u64)> {
        let out: Vec<Rows> = self
            .pending
            .iter_mut()
            .map(|pool| std::mem::take(pool).iter().map(|(&row, acc)| out_row(row, acc)).collect())
            .collect();
        let flushed = out.iter().map(Vec::len).sum::<usize>() as u64;
        self.stats.flushed_checkpoint += flushed;
        (flushed > 0).then_some((out, flushed))
    }

    fn drop_pending(&mut self) -> u64 {
        let dropped = self.pending_rows() as u64;
        self.pending.iter_mut().for_each(BTreeMap::clear);
        self.stats.dropped += dropped;
        dropped
    }
}

/// Hot rows are every fourth row of a table (row 0 included, so the
/// one-row table is all hot).
fn partitions() -> Vec<HotColdPartition> {
    TABLE_ROWS
        .iter()
        .map(|&rows| {
            let mut c = AccessCounter::new(rows);
            (0..rows as u32).step_by(4).for_each(|r| c.record(r));
            HotColdPartition::from_counts(&c, 1)
        })
        .collect()
}

/// One contribution: mostly small enough to defer, some large enough to
/// cross the threshold on first touch, with `-0.0`, `+0.0` and
/// subnormals mixed in.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..20) {
        0 => -0.0,
        1 => 0.0,
        2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        3 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        4 => rng.gen_range(2.5f32..6.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        _ => rng.gen_range(-0.9f32..0.9),
    }
}

/// Ids drawn from the first `live` rows of each table, so rows recur
/// across steps and accumulate; duplicates and any order.
fn ids(rng: &mut StdRng, rows: usize, n: usize) -> Vec<u32> {
    let live = rows.min(64) as u32;
    (0..n)
        .map(|_| {
            let end = if rng.gen_bool(0.9) { live } else { rows as u32 };
            rng.gen_range(0..end)
        })
        .collect()
}

/// One step's per-table gradients, built by an `accumulate` loop over a
/// duplicate-heavy id stream.
fn step_grads(rng: &mut StdRng, dim: usize) -> Vec<SparseGrad> {
    TABLE_ROWS
        .iter()
        .map(|&rows| {
            let mut g = SparseGrad::new(dim);
            let n = rng.gen_range(0..24);
            for id in ids(rng, rows, n) {
                let v: Vec<f32> = (0..dim).map(|_| value(rng)).collect();
                g.accumulate(id, &v);
            }
            g
        })
        .collect()
}

type Taken = Option<(Vec<Rows>, u64)>;

fn rows_taken(got: Option<(Vec<SparseGrad>, u64)>) -> Taken {
    got.map(|(grads, n)| (grads.iter().map(rows_of).collect(), n))
}

#[test]
fn the_pool_matches_the_map_reference_over_long_sequences() {
    let parts = partitions();
    for dim in DIMS {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 100 + dim as u64);
            let mut pool = DeferredSparse::new(TABLE_ROWS.len(), dim, THRESHOLD, LR);
            let mut reference = Reference::new(TABLE_ROWS.len());
            // The first operations run on a pool that has absorbed nothing.
            let empty: Vec<Vec<u32>> =
                TABLE_ROWS.iter().map(|&r| (0..r as u32).collect()).collect();
            assert!(
                pool.take_for_access(&empty).is_none()
                    && reference.take_for_access(&empty).is_none()
            );
            assert!(pool.flush_all().is_none() && reference.flush_all().is_none());
            assert_eq!(pool.drop_pending(), 0);
            for op in 0..2_000 {
                let at = format!("dim {dim} seed {seed} op {op}");
                match rng.gen_range(0u32..100) {
                    0..=59 => {
                        let grads = step_grads(&mut rng, dim);
                        let (got, n) = pool.absorb(&grads, &parts);
                        let (want, m) = reference.absorb(&grads, &parts);
                        assert_eq!(
                            got.iter().map(rows_of).collect::<Vec<_>>(),
                            want,
                            "absorb: {at}"
                        );
                        assert_eq!(n, m, "deferred: {at}");
                    }
                    60..=94 => {
                        // Raw ids, as the trainer passes a batch's CSR
                        // indices: duplicates, hot and never-pending ids.
                        let access: Vec<Vec<u32>> = TABLE_ROWS
                            .iter()
                            .map(|&rows| {
                                let n = rng.gen_range(0..40);
                                ids(&mut rng, rows, n)
                            })
                            .collect();
                        let got = rows_taken(pool.take_for_access(&access));
                        assert_eq!(got, reference.take_for_access(&access), "take: {at}");
                    }
                    95..=97 => {
                        assert_eq!(
                            rows_taken(pool.flush_all()),
                            reference.flush_all(),
                            "flush: {at}"
                        );
                    }
                    _ => assert_eq!(pool.drop_pending(), reference.drop_pending(), "drop: {at}"),
                }
                assert_eq!(pool.stats(), reference.stats, "stats: {at}");
                assert_eq!(pool.pending_rows(), reference.pending_rows(), "pending: {at}");
            }
            let stats = pool.stats();
            assert!(
                stats.deferred > 0
                    && stats.flushed_threshold > 0
                    && stats.flushed_access > 0
                    && stats.flushed_checkpoint > 0
                    && stats.dropped > 0,
                "a sequence must reach every path: {stats:?}"
            );
            assert_eq!(pool.drop_pending(), reference.drop_pending());
            assert_eq!(pool.stats(), reference.stats);
        }
    }
}

#[test]
fn thresholds_cross_on_first_touch_and_after_accumulation() {
    let parts = partitions();
    let mut pool = DeferredSparse::new(TABLE_ROWS.len(), 2, THRESHOLD, LR);
    let grad = |rows: &[(u32, [f32; 2])]| -> Vec<SparseGrad> {
        let mut t = vec![SparseGrad::new(2); TABLE_ROWS.len()];
        rows.iter().for_each(|(r, v)| t[2].accumulate(*r, v));
        t
    };
    // Row 5 crosses on first touch, row 6 defers with a `-0.0` lane.
    let (apply, n) = pool.absorb(&grad(&[(5, [3.0, 0.5]), (6, [-0.0, 1.5])]), &parts);
    assert_eq!((rows_of(&apply[2]), n), (vec![(5, bits(&[3.0, 0.5]))], 1));
    // Row 6 crosses after accumulation; row 4 is hot and passes through.
    let (apply, n) = pool.absorb(&grad(&[(4, [-0.0, 0.1]), (6, [-0.0, 1.0])]), &parts);
    assert_eq!(n, 0);
    assert_eq!(rows_of(&apply[2]), vec![(4, bits(&[0.0, 0.1])), (6, bits(&[0.0, 2.5]))]);
    assert_eq!(pool.pending_rows(), 0);
    // A lone pending `-0.0` comes back `+0.0`.
    pool.absorb(&grad(&[(7, [-0.0, -0.0])]), &parts);
    let (flush, n) = pool.take_for_access(&[vec![], vec![], vec![7, 7, 9]]).expect("row 7 pending");
    assert_eq!((rows_of(&flush[2]), n), (vec![(7, vec![0, 0])], 1));
}

/// The planner as it was written: a `BTreeSet` of resident rows per
/// table.
fn reference_plan(sets: &[AccessSet], window: usize) -> Vec<Vec<Vec<u32>>> {
    let Some(first) = sets.first() else { return Vec::new() };
    let mut resident = vec![BTreeSet::new(); first.per_table.len()];
    (0..sets.len())
        .map(|i| {
            let incoming = match i {
                0 => &sets[..window.min(sets.len())],
                _ if i + window - 1 < sets.len() => &sets[i + window - 1..i + window],
                _ => &[],
            };
            let mut prefetch = vec![Vec::new(); resident.len()];
            for set in incoming {
                for (t, rows) in set.per_table.iter().enumerate() {
                    prefetch[t].extend(rows.iter().copied().filter(|&r| resident[t].insert(r)));
                }
            }
            prefetch.iter_mut().for_each(|p| p.sort_unstable());
            prefetch
        })
        .collect()
}

#[test]
fn plan_decisions_match_the_set_reference() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tables = rng.gen_range(1usize..4);
        let spread = [8u32, 64, 5_000][seed as usize % 3];
        let sets: Vec<AccessSet> = (0..rng.gen_range(0usize..40))
            .map(|_| {
                let per_table = (0..tables)
                    .map(|_| {
                        let mut rows: Vec<u32> =
                            (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..spread)).collect();
                        rows.sort_unstable();
                        rows.dedup();
                        rows
                    })
                    .collect();
                AccessSet { per_table }
            })
            .collect();
        for window in [1, 2, 5, 64] {
            let got: Vec<Vec<Vec<u32>>> =
                plan_decisions(&sets, window).into_iter().map(|d| d.prefetch).collect();
            assert_eq!(got, reference_plan(&sets, window), "seed {seed} window {window}");
        }
    }
}
