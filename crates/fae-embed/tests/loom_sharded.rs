//! Loom model tests for `ShardedEmbeddingTable`'s per-shard locking.
//!
//! The interesting rows are the **shard boundaries**: `shard_of` uses
//! ceil/floor split arithmetic (the first `rows % n` shards are one row
//! wider), so an off-by-one would send a boundary row's update through
//! the wrong shard's lock — racing unlocked against the right shard's
//! readers. The models below hammer exactly those rows from concurrent
//! writers and readers and check the arithmetic outcome, which is only
//! deterministic if every access went through the owning shard's lock.
//!
//! Under the vendored loom shim each model re-runs on real threads
//! (stress mode); under real loom the same source is model-checked
//! exhaustively.

use loom::sync::Arc;

use fae_embed::{EmbeddingTable, ShardedEmbeddingTable, SparseGrad};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 10 rows over 4 shards → widths 3,3,2,2 → boundary rows at the start
/// and end of every shard: 0,2,3,5,6,7,8,9.
const ROWS: usize = 10;
const SHARDS: usize = 4;
const DIM: usize = 4;

/// Rows straddling every shard cut for the 10/4 split, including both
/// sides of each boundary.
const BOUNDARY_ROWS: [u32; 8] = [0, 2, 3, 5, 6, 7, 8, 9];

/// Builds the racing table with every weight an exact multiple of 2⁻⁴.
///
/// The assertions below reconstruct expected values arithmetically
/// (`b - 0.75`, `v + 1.0`), and the two writers' updates can land in
/// either order — so `(b - 0.5) - 0.25` and `(b - 0.25) - 0.5` must
/// both equal `b - 0.75` *exactly*, or a benign rounding difference
/// would masquerade as a lost update on rare interleavings. Multiples
/// of 2⁻⁴ below 2⁵ keep every intermediate exactly representable.
fn fresh_table() -> ShardedEmbeddingTable {
    let mut rng = StdRng::seed_from_u64(7);
    let serial = EmbeddingTable::new(ROWS, DIM, &mut rng);
    let sharded = ShardedEmbeddingTable::from_table(&serial, SHARDS);
    for r in 0..ROWS as u32 {
        let row: Vec<f32> = (0..DIM).map(|d| r as f32 * 0.125 + d as f32 * 0.0625).collect();
        sharded.set_row(r, &row);
    }
    sharded
}

/// Gradient touching every boundary row with a power-of-two value, so
/// float accumulation is exact and any lost update is exactly visible.
fn boundary_grad(value: f32) -> SparseGrad {
    let mut g = SparseGrad::new(DIM);
    for &r in &BOUNDARY_ROWS {
        g.accumulate(r, &[value; DIM]);
    }
    g
}

#[test]
fn concurrent_sparse_sgd_on_boundary_rows_loses_no_update() {
    loom::model(|| {
        let table = Arc::new(fresh_table());
        let before: Vec<Vec<f32>> = BOUNDARY_ROWS.iter().map(|&r| table.row(r)).collect();

        // Two writers race disjoint-in-time but same-row updates; the
        // shard locks must serialise them. Power-of-two grads (0.5, 0.25)
        // with lr 1.0 make the sum exact in f32 regardless of order.
        let t1 = {
            let t = table.clone();
            loom::thread::spawn(move || t.sgd_step_sparse(&boundary_grad(0.5), 1.0))
        };
        let t2 = {
            let t = table.clone();
            loom::thread::spawn(move || t.sgd_step_sparse(&boundary_grad(0.25), 1.0))
        };
        t1.join().expect("writer 1");
        t2.join().expect("writer 2");

        for (i, &r) in BOUNDARY_ROWS.iter().enumerate() {
            let after = table.row(r);
            for (d, (&b, &a)) in before[i].iter().zip(&after).enumerate() {
                assert_eq!(a, b - 0.75, "row {r} dim {d}: lost or doubled update");
            }
        }
    });
}

#[test]
fn concurrent_readers_never_tear_a_boundary_lookup() {
    loom::model(|| {
        let table = Arc::new(fresh_table());

        // A writer walks boundary rows while readers do bag lookups over
        // the same rows. Every observed row must be either the original
        // value or the fully-updated one — never a torn mix within one
        // row (the row is copied under the shard's read lock).
        let writer = {
            let t = table.clone();
            loom::thread::spawn(move || t.sgd_step_sparse(&boundary_grad(1.0), 1.0))
        };
        let reader = {
            let t = table.clone();
            loom::thread::spawn(move || {
                let offsets: Vec<usize> = (0..=BOUNDARY_ROWS.len()).collect();
                t.lookup_bag(&BOUNDARY_ROWS, &offsets)
            })
        };
        writer.join().expect("writer");
        let bags = reader.join().expect("reader");

        let final_rows: Vec<Vec<f32>> = BOUNDARY_ROWS.iter().map(|&r| table.row(r)).collect();
        for (i, &r) in BOUNDARY_ROWS.iter().enumerate() {
            let seen = &bags.as_slice()[i * DIM..(i + 1) * DIM];
            let updated = &final_rows[i];
            let original: Vec<f32> = updated.iter().map(|v| v + 1.0).collect();
            let matches_updated = seen.iter().zip(updated).all(|(s, u)| s == u);
            let matches_original = seen.iter().zip(&original).all(|(s, o)| s == o);
            assert!(
                matches_updated || matches_original,
                "row {r} read a torn value: {seen:?} is neither {original:?} nor {updated:?}"
            );
        }
    });
}

#[test]
fn shard_of_assigns_every_boundary_row_exactly_one_owner() {
    // Not a concurrency model, but the arithmetic the models rely on:
    // writing through row r's owning shard and reading it back must
    // round-trip for every row, for shard counts around the row count.
    for shards in 1..=ROWS + 2 {
        let mut rng = StdRng::seed_from_u64(11);
        let serial = EmbeddingTable::new(ROWS, DIM, &mut rng);
        let sharded = ShardedEmbeddingTable::from_table(&serial, shards);
        for r in 0..ROWS as u32 {
            let marked = vec![r as f32 + 0.5; DIM];
            sharded.set_row(r, &marked);
            assert_eq!(sharded.row(r), marked, "row {r} with {shards} shards");
        }
    }
}
