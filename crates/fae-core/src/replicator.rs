//! The Embedding Replicator (§III, component 3): which hot rows the
//! devices hold, and what keeping them in sync moves.
//!
//! The paper copies the hot rows into each GPU's memory because that
//! memory is separate from the host's. This process has one address
//! space, so it keeps one copy of every row: hot steps read and update
//! the master tables, exactly as cold steps do, and hot rows are exact
//! f32 there even under the int8 cold tier. The N GPU replicas would stay
//! bit-identical under the fused all-reduce, so one copy computes what
//! they would; the *cost* of keeping them in sync is charged by
//! `fae-sysmodel`.
//!
//! That cost is counted by [`Residency`], a ledger of the partitions and,
//! per table, which hot rows the devices would hold. It holds no rows. A
//! refresh makes a planned row set resident ([`Residency::refresh`]), the
//! lookahead window fetches what it is missing
//! ([`Residency::fetch_missing`]) and a write-back moves the resident rows
//! back ([`Residency::write_back`]); each returns the bytes a real copy
//! would move and counts them under `replicator.*`. The full-bag syncs
//! are their all-rows case.
//!
//! A `fae-net` node keeps its hot rows in its master too, and its
//! coordinator ships them at each refresh (`HotBagSync`).
//!
//! [`HotEmbeddings`] is the bag as a second copy: a plain
//! [`EmbeddingTable`] per table behind one `RwLock`, refreshed from and
//! written back to the master whole. The program does not use it; the
//! layer replay under `bench/` does, until that replay is deleted.

use std::sync::PoisonError;

use fae_nn::Tensor;

use fae_embed::{EmbeddingTable, HotColdPartition, SparseGrad};
use fae_models::{EmbeddingSource, MasterEmbeddings};
use fae_telemetry::{metric, Telemetry};

use crate::classifier::hot_bytes;

/// The residency ledger: the partitions and, per table, whether each
/// hot-local row is resident on the devices. Full replication (the
/// default, and the only mode when the lookahead oracle is off) keeps
/// every row resident; the oracle's partial refreshes shrink this to the
/// planned access set.
pub struct Residency<'p> {
    partitions: &'p [HotColdPartition],
    resident: Vec<Vec<bool>>,
    dim: usize,
    telemetry: Telemetry,
}

impl<'p> Residency<'p> {
    /// A ledger with every hot row resident. Refreshes and write-backs are
    /// counted (`replicator.refreshes` / `replicator.write_backs`) with
    /// the bytes they move (`replicator.moved_bytes`), and the full bag's
    /// size is the `replicator.hot_bytes` gauge.
    pub fn new(partitions: &'p [HotColdPartition], dim: usize, telemetry: Telemetry) -> Self {
        let resident = partitions.iter().map(|p| vec![true; p.hot_count()]).collect();
        telemetry.gauge_set(metric!("replicator.hot_bytes"), hot_bytes(partitions, dim) as f64);
        Self { partitions, resident, dim, telemetry }
    }

    /// The partitions the ledger tracks.
    pub fn partitions(&self) -> &'p [HotColdPartition] {
        self.partitions
    }

    /// Bytes of the full hot bags (per GPU replica): what a full refresh
    /// or write-back moves.
    pub fn hot_bytes(&self) -> u64 {
        hot_bytes(self.partitions, self.dim) as u64
    }

    fn row_bytes(&self) -> u64 {
        (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Cold→hot transition: `plan` names the rows to make resident
    /// (per-table global ids — the oracle's union of the next window's
    /// access sets; an id listed twice is counted once), `None` meaning
    /// every hot row. Everything is evicted first, so whatever was
    /// resident and is not planned again counts as evicted. Returns the
    /// bytes moved and the rows evicted (eviction moves no bytes: the
    /// master holds every row).
    pub fn refresh(&mut self, plan: Option<&[Vec<u32>]>) -> (u64, u64) {
        assert!(plan.is_none_or(|p| p.len() == self.resident.len()), "one plan per table");
        let was: Vec<Vec<bool>> =
            self.resident.iter_mut().map(|m| std::mem::replace(m, vec![false; m.len()])).collect();
        let moved_bytes = self.fetch(plan) * self.row_bytes();
        let now = self.resident.iter().flatten();
        let evicted = was.iter().flatten().zip(now).filter(|&(&was, &is)| was && !is).count();
        self.telemetry.counter_add(metric!("replicator.refreshes"), 1);
        self.telemetry.counter_add(metric!("replicator.moved_bytes"), moved_bytes);
        (moved_bytes, evicted as u64)
    }

    /// Makes resident every row of `sets` (per-table global ids;
    /// duplicates count once) that is not already — the oracle's sliding
    /// window prefetch, and the demand-miss path should a non-resident row
    /// ever be accessed. Returns the rows and bytes moved.
    pub fn fetch_missing<S: AsRef<[u32]>>(&mut self, sets: &[S]) -> (u64, u64) {
        assert_eq!(sets.len(), self.resident.len(), "one set per table");
        let rows_moved = self.fetch(Some(sets));
        let bytes = rows_moved * self.row_bytes();
        if rows_moved > 0 {
            self.telemetry.counter_add(metric!("replicator.moved_bytes"), bytes);
        }
        (rows_moved, bytes)
    }

    /// Marks resident every row of `sets` (`None` = every hot row) that is
    /// not already. Returns how many rows that marked.
    fn fetch<S: AsRef<[u32]>>(&mut self, sets: Option<&[S]>) -> u64 {
        let mut rows_moved = 0u64;
        for (t, (p, mask)) in self.partitions.iter().zip(&mut self.resident).enumerate() {
            let rows = sets.map_or(p.hot_ids(), |s| s[t].as_ref());
            for &g in rows {
                // A cold id cannot be made resident: skip it.
                let Some(local) = p.hot_local(g) else { continue };
                if !std::mem::replace(&mut mask[local as usize], true) {
                    rows_moved += 1;
                }
            }
        }
        rows_moved
    }

    /// Hot→cold transition: the bytes of the resident rows, which are the
    /// only rows the devices could have written. Returns bytes moved.
    pub fn write_back(&self) -> u64 {
        let rows = self.resident.iter().flatten().filter(|&&r| r).count() as u64;
        let bytes = rows * self.row_bytes();
        self.telemetry.counter_add(metric!("replicator.write_backs"), 1);
        self.telemetry.counter_add(metric!("replicator.moved_bytes"), bytes);
        bytes
    }
}

/// Hot-embedding bags for every table, as a copy of the master's hot rows
/// with global→local id translation (see the module docs).
///
/// Lock poisoning is recovered everywhere in this type rather than
/// propagated: a bag is plain `f32`s with no invariant a panicked writer
/// could half-establish, so the poisoned guard's contents are still valid
/// weights.
#[expect(
    clippy::disallowed_types,
    reason = "bench-only second copy of the hot rows, kept for bench/layers' replay until it is deleted"
)]
pub struct HotEmbeddings {
    /// Compact hot tables (hot-local row ids; local `i` is global row
    /// `partitions[t].hot_ids()[i]`), one lock each.
    tables: Vec<std::sync::RwLock<EmbeddingTable>>,
    partitions: Vec<HotColdPartition>,
    dim: usize,
}

impl HotEmbeddings {
    /// Extracts the hot rows of every master table per the partitions.
    /// Rows are read through the master's row-level accessors, so a
    /// quantized (tiered) master works too — its hot rows are stored
    /// exact f32, so the extracted bags carry no quantization error.
    pub fn build(master: &MasterEmbeddings, partitions: Vec<HotColdPartition>) -> Self {
        assert_eq!(partitions.len(), master.num_tables(), "one partition per table");
        let dim = master.dim();
        let tables = (partitions.iter())
            .map(|p| {
                let weights = Tensor::zeros(p.hot_count().max(1), dim);
                EmbeddingTable::from_weights(weights).into()
            })
            .collect();
        let mut hot = Self { tables, partitions, dim };
        hot.refresh_from(master);
        hot
    }

    /// Total bytes of the hot bags (per GPU replica).
    pub fn hot_bytes(&self) -> usize {
        hot_bytes(&self.partitions, self.dim)
    }

    /// The partitions backing this source.
    pub fn partitions(&self) -> &[HotColdPartition] {
        &self.partitions
    }

    /// Hot→cold transition: copies every hot row back into the master
    /// tables so cold batches (and evaluation) see them.
    pub fn write_back(&self, master: &mut MasterEmbeddings) {
        for (t, (table, p)) in self.tables.iter().zip(&self.partitions).enumerate() {
            let table = table.read().unwrap_or_else(PoisonError::into_inner);
            for (local, &g) in p.hot_ids().iter().enumerate() {
                master.set_row(t, g, table.row(local as u32));
            }
        }
    }

    /// Cold→hot transition: copies every hot row of the master into the
    /// bags, so they see what cold batches wrote.
    pub fn refresh_from(&mut self, master: &MasterEmbeddings) {
        for (t, (table, p)) in self.tables.iter_mut().zip(&self.partitions).enumerate() {
            let table = table.get_mut().unwrap_or_else(PoisonError::into_inner);
            for (local, &g) in p.hot_ids().iter().enumerate() {
                master.copy_row_into(t, g, table.weights_mut().row_mut(local));
            }
        }
    }

    /// Global → hot-local for table `t`. A cold id `how`-ed ("looked up",
    /// "updated") through this source is a bug in the input processor.
    #[expect(
        clippy::panic,
        reason = "classifier routing corruption: continuing would train on garbage rows, so fail fast"
    )]
    fn hot_local(&self, t: usize, global: u32, how: &str) -> u32 {
        self.partitions[t].hot_local(global).unwrap_or_else(|| {
            panic!("cold row {global} of table {t} {how} through the hot source")
        })
    }

    /// Applies per-table sparse gradients through `&self`: each table is
    /// updated under its write lock, row by row through the global →
    /// hot-local map. Partitions number hot rows in ascending global
    /// order, so distinct ids stay distinct and there is nothing to
    /// re-coalesce.
    pub fn apply_shared(&self, grads: &[SparseGrad], lr: f32) {
        assert_eq!(grads.len(), self.tables.len(), "one gradient per table");
        for (t, (table, g)) in self.tables.iter().zip(grads).enumerate() {
            table.write().unwrap_or_else(PoisonError::into_inner).sgd_step_sparse_by(
                g,
                lr,
                |global| self.hot_local(t, global, "updated"),
            );
        }
    }
}

impl AsRef<[HotColdPartition]> for HotEmbeddings {
    fn as_ref(&self) -> &[HotColdPartition] {
        &self.partitions
    }
}

impl EmbeddingSource for HotEmbeddings {
    fn lookup(&self, t: usize, indices: &[u32], offsets: &[usize]) -> Tensor {
        self.tables[t].read().unwrap_or_else(PoisonError::into_inner).lookup_bag_by(
            indices,
            offsets,
            |global| self.hot_local(t, global, "looked up"),
        )
    }

    fn lookup_rows(&self, t: usize, indices: &[u32]) -> Tensor {
        self.tables[t]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup_rows_by(indices, |global| self.hot_local(t, global, "looked up"))
    }

    fn apply_sparse_grads(&mut self, grads: &[SparseGrad], lr: f32) {
        self.apply_shared(grads, lr);
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::WorkloadSpec;
    use fae_embed::AccessCounter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Residency<'_> {
        /// Rows currently resident on the devices, across all tables.
        fn resident_rows(&self) -> usize {
            self.resident.iter().flatten().filter(|&&r| r).count()
        }
    }

    fn setup() -> (MasterEmbeddings, HotEmbeddings) {
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(3);
        let master = MasterEmbeddings::from_spec(&spec, &mut rng);
        // Hot rows: multiples of 3 in every table.
        let parts: Vec<HotColdPartition> = spec
            .tables
            .iter()
            .map(|t| {
                let mut c = AccessCounter::new(t.rows);
                for r in (0..t.rows).step_by(3) {
                    c.record(r as u32);
                }
                HotColdPartition::from_counts(&c, 1)
            })
            .collect();
        let hot = HotEmbeddings::build(&master, parts);
        (master, hot)
    }

    #[test]
    fn hot_lookup_matches_master() {
        let (master, hot) = setup();
        let out_hot = hot.lookup(0, &[0, 3, 9], &[0, 1, 2, 3]);
        let out_master = master.lookup(0, &[0, 3, 9], &[0, 1, 2, 3]);
        assert_eq!(out_hot.as_slice(), out_master.as_slice());
    }

    #[test]
    #[should_panic(expected = "cold row")]
    fn cold_lookup_panics() {
        let (_, hot) = setup();
        let _ = hot.lookup(0, &[1], &[0, 1]);
    }

    #[test]
    fn grads_apply_to_hot_copy_then_sync_back() {
        let (mut master, mut hot) = setup();
        let before = master.lookup(1, &[6], &[0, 1]);
        let mut grads: Vec<SparseGrad> =
            (0..hot.num_tables()).map(|_| SparseGrad::new(hot.dim())).collect();
        grads[1].accumulate(6, &vec![2.0; hot.dim()]);
        hot.apply_sparse_grads(&grads, 0.5);
        // Master unchanged until write-back.
        assert_eq!(master.lookup(1, &[6], &[0, 1]).as_slice(), before.as_slice());
        hot.write_back(&mut master);
        let after = master.lookup(1, &[6], &[0, 1]);
        for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((b - 1.0 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn apply_shared_matches_apply_sparse_grads() {
        let (_, hot_a) = setup();
        let (_, mut hot_b) = setup();
        let mut grads: Vec<SparseGrad> =
            (0..hot_a.num_tables()).map(|_| SparseGrad::new(hot_a.dim())).collect();
        for row in [0u32, 3, 6, 9] {
            grads[0].accumulate(row, &vec![1.5; hot_a.dim()]);
        }
        hot_a.apply_shared(&grads, 0.5);
        hot_b.apply_sparse_grads(&grads, 0.5);
        for row in [0u32, 3, 6, 9] {
            assert_eq!(
                hot_a.lookup(0, &[row], &[0, 1]).as_slice(),
                hot_b.lookup(0, &[row], &[0, 1]).as_slice()
            );
        }
    }

    #[test]
    fn refresh_pulls_cold_phase_updates() {
        let (mut master, mut hot) = setup();
        // Cold phase trains hot row 3 on the CPU master copy.
        let mut grads: Vec<SparseGrad> =
            (0..master.num_tables()).map(|_| SparseGrad::new(master.dim())).collect();
        grads[0].accumulate(3, &vec![4.0; master.dim()]);
        master.apply_sparse_grads(&grads, 0.25);
        hot.refresh_from(&master);
        let hot_val = hot.lookup(0, &[3], &[0, 1]);
        let master_val = master.lookup(0, &[3], &[0, 1]);
        assert_eq!(hot_val.as_slice(), master_val.as_slice());
    }

    #[test]
    fn hot_bytes_counts_extracted_rows() {
        let (_, hot) = setup();
        let expect: usize = hot.partitions().iter().map(|p| p.hot_count() * hot.dim() * 4).sum();
        assert_eq!(hot.hot_bytes(), expect);
        assert!(hot.hot_bytes() > 0);
        // A full ledger sync moves the whole bag.
        let ledger = Residency::new(hot.partitions(), hot.dim(), Telemetry::disabled());
        assert_eq!(ledger.hot_bytes(), expect as u64);
        assert_eq!(ledger.write_back(), expect as u64);
    }

    #[test]
    fn partial_refresh_tracks_residency_and_evictions() {
        let (_, hot) = setup();
        let mut ledger = Residency::new(hot.partitions(), hot.dim(), Telemetry::disabled());
        let all = ledger.resident_rows();
        assert_eq!(all, hot.partitions().iter().map(|p| p.hot_count()).sum::<usize>());
        // Plan only rows {0, 3} of table 0 (and nothing elsewhere).
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        plan[0] = vec![0, 3];
        let (moved, evicted) = ledger.refresh(Some(&plan));
        assert_eq!(moved, 2 * (hot.dim() * 4) as u64);
        assert_eq!(evicted as usize, all - 2);
        assert_eq!(ledger.resident_rows(), 2);
        // Sliding prefetch: row 6 of table 0 was evicted; fetch it back.
        let mut set: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        set[0] = vec![0, 6];
        let (rows, bytes) = ledger.fetch_missing(&set);
        assert_eq!((rows, bytes), (1, (hot.dim() * 4) as u64));
        assert_eq!(ledger.resident_rows(), 3);
        // Already-resident rows fetch nothing.
        assert_eq!(ledger.fetch_missing(&set), (0, 0));
        // A full refresh restores total residency.
        ledger.refresh(None);
        assert_eq!(ledger.resident_rows(), all);
    }

    #[test]
    fn resident_write_back_only_moves_resident_rows() {
        let (_, hot) = setup();
        let mut ledger = Residency::new(hot.partitions(), hot.dim(), Telemetry::disabled());
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        // A plan naming a row twice moves (and reports) it once.
        plan[0] = vec![3, 3];
        let (moved, _) = ledger.refresh(Some(&plan));
        assert_eq!(moved, (hot.dim() * 4) as u64);
        // Only the one resident row is written back, however often.
        assert_eq!(ledger.write_back(), (hot.dim() * 4) as u64);
        assert_eq!(ledger.write_back(), (hot.dim() * 4) as u64);
        // A full refresh makes the whole bag resident again.
        ledger.refresh(None);
        assert_eq!(ledger.write_back(), ledger.hot_bytes());
    }

    #[test]
    fn hot_source_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<HotEmbeddings>();
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the readers race the writer on purpose")]
    fn concurrent_lookups_see_whole_updates_and_match_serial() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const READERS: usize = 4;
        const STEPS: usize = 200;
        let (mut master, mut hot) = setup();
        let dim = hot.dim();
        // Every element of every hot row of table 0 starts at 1.0 and each
        // apply adds exactly 1.0 to all of them under one write guard, so
        // a row — or a lookup — that mixed two steps would show unequal
        // elements.
        let ids = hot.partitions()[0].hot_ids().to_vec();
        let mut grads: Vec<SparseGrad> =
            (0..hot.num_tables()).map(|_| SparseGrad::new(dim)).collect();
        for &g in &ids {
            master.set_row(0, g, &vec![1.0; dim]);
            grads[0].accumulate(g, &vec![1.0; dim]);
        }
        hot.refresh_from(&master);
        let offsets: Vec<usize> = (0..=ids.len()).collect();
        let last_step = 1.0 + STEPS as f32;
        let start = Barrier::new(READERS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    let mut seen = 1.0f32;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let out = hot.lookup(0, &ids, &offsets);
                        let v = out.as_slice()[0];
                        assert!(out.as_slice().iter().all(|&x| x == v), "torn lookup");
                        assert!(v.fract() == 0.0 && (seen..=last_step).contains(&v), "{v}");
                        seen = v;
                        if finished {
                            assert_eq!(v, last_step);
                            break;
                        }
                    }
                });
            }
            start.wait();
            for _ in 0..STEPS {
                hot.apply_shared(&grads, -1.0);
            }
            done.store(true, Ordering::Release);
        });

        // W simultaneous pooled lookups of random-valued rows equal the
        // serial lookup bit for bit.
        let ids = hot.partitions()[1].hot_ids().to_vec();
        let offsets = [0, ids.len() / 2, ids.len()];
        let serial = hot.lookup(1, &ids, &offsets);
        let start = Barrier::new(READERS);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    start.wait();
                    assert_eq!(hot.lookup(1, &ids, &offsets).as_slice(), serial.as_slice());
                });
            }
        });
    }
}
