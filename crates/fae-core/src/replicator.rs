//! The Embedding Replicator (§III, component 3): the hot-embedding bags as
//! an [`EmbeddingSource`], plus the CPU↔GPU synchronisation performed at
//! hot/cold schedule transitions.
//!
//! Numerically, the N GPU replicas stay bit-identical under the fused
//! all-reduce (every replica applies the same reduced gradient), so the
//! trainer computes against one logical copy; the *cost* of keeping N
//! replicas in sync is charged by `fae-sysmodel`. Lookups translate global
//! row ids to hot-local ids through the partitions; touching a cold row
//! through this source is a bug in the input processor and panics.
//!
//! The one logical copy is a plain [`EmbeddingTable`] per table behind one
//! `RwLock`: hot-bag lookups from concurrent worker threads share the
//! read lock, and the merged sparse gradient is applied through `&self`
//! ([`HotEmbeddings::apply_shared`]) under the write lock. The execution
//! engine joins its readers before the single writer runs, so the lock is
//! never contended — it is what makes `&HotEmbeddings` sound to share.
//!
//! There is one sync in each direction, both driven by the per-row
//! residency mask: [`HotEmbeddings::refresh_rows`] copies a planned row
//! set master→devices and [`HotEmbeddings::write_back_resident`] copies
//! the resident rows back. The full-bag syncs are their all-rows case.

use std::sync::{PoisonError, RwLock};

use fae_nn::Tensor;

use fae_embed::{EmbeddingTable, HotColdPartition, SparseGrad};
use fae_models::{EmbeddingSource, MasterEmbeddings};
use fae_telemetry::Telemetry;

/// Hot-embedding bags for every table, with global→local id translation.
///
/// Lock poisoning is recovered everywhere in this type rather than
/// propagated: a bag is plain `f32`s with no invariant a panicked writer
/// could half-establish, so the poisoned guard's contents are still valid
/// weights.
pub struct HotEmbeddings {
    /// Compact hot tables (hot-local row ids; local `i` is global row
    /// `partitions[t].hot_ids()[i]`), one lock each.
    tables: Vec<RwLock<EmbeddingTable>>,
    partitions: Vec<HotColdPartition>,
    /// Per table: whether each hot-local row currently holds fresh bytes
    /// on the devices. Full replication (the default, and the only mode
    /// when the lookahead oracle is off) keeps every row resident; the
    /// oracle's partial refreshes shrink this to the planned access set.
    resident: Vec<Vec<bool>>,
    dim: usize,
    telemetry: Telemetry,
}

impl HotEmbeddings {
    /// Extracts the hot rows of every master table per the partitions.
    /// Rows are read through the master's row-level accessors, so a
    /// quantized (tiered) master works too — its hot rows are stored
    /// exact f32, so the extracted bags carry no quantization error.
    pub fn build(master: &MasterEmbeddings, partitions: Vec<HotColdPartition>) -> Self {
        assert_eq!(partitions.len(), master.num_tables(), "one partition per table");
        let dim = master.dim();
        let mut tables = Vec::with_capacity(partitions.len());
        for (t, p) in partitions.iter().enumerate() {
            let mut weights = Tensor::zeros(p.hot_count().max(1), dim);
            for (local, &g) in p.hot_ids().iter().enumerate() {
                master.copy_row_into(t, g, weights.row_mut(local));
            }
            tables.push(RwLock::new(EmbeddingTable::from_weights(weights)));
        }
        let resident = partitions.iter().map(|p| vec![true; p.hot_count()]).collect();
        Self { tables, partitions, resident, dim, telemetry: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle: refreshes and write-backs are counted
    /// (`replicator.refreshes` / `replicator.write_backs`) along with the
    /// bytes they move (`replicator.moved_bytes`).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.gauge_set("replicator.hot_bytes", self.hot_bytes() as f64);
        self.telemetry = telemetry;
    }

    /// Total bytes of the hot bags (per GPU replica).
    pub fn hot_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.hot_bytes(self.dim)).sum()
    }

    fn row_bytes(&self) -> u64 {
        (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Bytes that cross PCIe per CPU↔GPU synchronisation (per replica):
    /// the full hot bags, since a transition refresh/write-back moves
    /// every hot row.
    pub fn sync_bytes(&self) -> usize {
        self.hot_bytes()
    }

    /// The partitions backing this source.
    pub fn partitions(&self) -> &[HotColdPartition] {
        &self.partitions
    }

    /// Hot→cold transition: pushes trained hot rows back into the master
    /// tables so cold batches (and evaluation) see them. With every row
    /// resident — the state [`Self::build`] and [`Self::refresh_from`]
    /// leave — this is the whole bag. After a partial
    /// [`Self::refresh_rows`] it is [`Self::write_back_resident`]: only
    /// the resident rows are written, because an evicted row's device
    /// bytes are stale and the master copy is the authoritative one.
    pub fn write_back(&self, master: &mut MasterEmbeddings) {
        self.write_back_resident(master);
    }

    /// Cold→hot transition: pulls rows updated by cold batches back into
    /// the bags. Restores full residency.
    pub fn refresh_from(&mut self, master: &MasterEmbeddings) {
        self.refresh(master, None);
    }

    /// Rows currently resident on the devices, across all tables.
    pub fn resident_rows(&self) -> usize {
        self.resident.iter().map(|m| m.iter().filter(|&&r| r).count()).sum()
    }

    /// Oracle-driven cold→hot transition: refreshes exactly the rows in
    /// `plan` (per-table global ids, the union of the next window's
    /// access sets) and marks everything else non-resident. Returns the
    /// bytes moved and the number of previously-resident rows evicted
    /// (eviction moves no bytes: the master already holds their values —
    /// hot rows are only written on the devices *after* a refresh, and
    /// written rows are written back before the next refresh). An id
    /// listed twice in a plan is copied, and counted, once.
    pub fn refresh_rows(&mut self, master: &MasterEmbeddings, plan: &[Vec<u32>]) -> (u64, u64) {
        assert_eq!(plan.len(), self.tables.len(), "one plan per table");
        self.refresh(master, Some(plan))
    }

    /// The cold→hot copy behind both refreshes: `plan` names the rows to
    /// make resident, `None` meaning every hot row. Everything is evicted
    /// first, so whatever was resident and is not fetched again counts as
    /// evicted.
    pub(crate) fn refresh(
        &mut self,
        master: &MasterEmbeddings,
        plan: Option<&[Vec<u32>]>,
    ) -> (u64, u64) {
        let was: Vec<Vec<bool>> =
            self.resident.iter_mut().map(|m| std::mem::replace(m, vec![false; m.len()])).collect();
        let moved_bytes = self.fetch(master, plan) * self.row_bytes();
        let now = self.resident.iter().flatten();
        let evicted = was.iter().flatten().zip(now).filter(|&(&was, &is)| was && !is).count();
        self.telemetry.counter_add("replicator.refreshes", 1);
        self.telemetry.counter_add("replicator.moved_bytes", moved_bytes);
        (moved_bytes, evicted as u64)
    }

    /// Fetches every row of `sets` (per-table global ids) that is not
    /// already resident — the oracle's sliding-window prefetch, and the
    /// demand-miss path should a non-resident row ever be accessed.
    /// Returns the rows and bytes moved.
    pub fn fetch_missing(&mut self, master: &MasterEmbeddings, sets: &[Vec<u32>]) -> (u64, u64) {
        assert_eq!(sets.len(), self.tables.len(), "one set per table");
        let rows_moved = self.fetch(master, Some(sets));
        let bytes = rows_moved * self.row_bytes();
        if rows_moved > 0 {
            self.telemetry.counter_add("replicator.moved_bytes", bytes);
        }
        (rows_moved, bytes)
    }

    /// The one master→device copy loop: makes resident every row of
    /// `sets` (`None` = every hot row) that is not already. Returns the
    /// rows copied.
    fn fetch(&mut self, master: &MasterEmbeddings, sets: Option<&[Vec<u32>]>) -> u64 {
        let mut rows_moved = 0u64;
        for (t, table) in self.tables.iter_mut().enumerate() {
            let table = table.get_mut().unwrap_or_else(PoisonError::into_inner);
            let p = &self.partitions[t];
            let rows = sets.map_or(p.hot_ids(), |s| &s[t]);
            let mask = &mut self.resident[t];
            for &g in rows {
                // Cold ids in a set would be input-processor corruption;
                // they cannot be made resident, so skip rather than panic.
                let Some(local) = p.hot_local(g) else { continue };
                if mask[local as usize] {
                    continue;
                }
                master.copy_row_into(t, g, table.weights_mut().row_mut(local as usize));
                mask[local as usize] = true;
                rows_moved += 1;
            }
        }
        rows_moved
    }

    /// Hot→cold transition: writes back only the resident rows
    /// (non-resident rows were never readable on the devices, so their
    /// device bytes are stale by construction and the master copy is
    /// already authoritative). Returns bytes moved.
    pub fn write_back_resident(&self, master: &mut MasterEmbeddings) -> u64 {
        let mut rows_moved = 0u64;
        for (t, ((table, p), mask)) in
            self.tables.iter().zip(&self.partitions).zip(&self.resident).enumerate()
        {
            let table = table.read().unwrap_or_else(PoisonError::into_inner);
            for (local, &g) in p.hot_ids().iter().enumerate() {
                if !mask[local] {
                    continue;
                }
                master.set_row(t, g, table.row(local as u32));
                rows_moved += 1;
            }
        }
        let bytes = rows_moved * self.row_bytes();
        self.telemetry.counter_add("replicator.write_backs", 1);
        self.telemetry.counter_add("replicator.moved_bytes", bytes);
        bytes
    }

    /// Global → hot-local for table `t`. A cold id `how`-ed ("looked up",
    /// "updated") through this source is a bug in the input processor.
    fn hot_local(&self, t: usize, global: u32, how: &str) -> u32 {
        self.partitions[t].hot_local(global).unwrap_or_else(|| {
            // fae-lint: allow(no-panic, reason = "classifier routing corruption: continuing would train on garbage rows, so fail fast")
            panic!("cold row {global} of table {t} {how} through the hot source")
        })
    }

    /// Applies per-table sparse gradients through `&self`: each table is
    /// updated under its write lock, row by row through the global →
    /// hot-local map. Partitions number hot rows in ascending global
    /// order, so distinct ids stay distinct and there is nothing to
    /// re-coalesce. This is the path the execution engine uses after
    /// reducing worker gradients, and the one `fae-net`'s worker uses for
    /// the coordinator's apply broadcast.
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
        // A transition moves the whole bag, so the two byte counts agree.
        assert_eq!(hot.sync_bytes(), hot.hot_bytes());
    }

    #[test]
    fn partial_refresh_tracks_residency_and_evictions() {
        let (master, mut hot) = setup();
        let all = hot.resident_rows();
        assert_eq!(all, hot.partitions().iter().map(|p| p.hot_count()).sum::<usize>());
        // Plan only rows {0, 3} of table 0 (and nothing elsewhere).
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        plan[0] = vec![0, 3];
        let (moved, evicted) = hot.refresh_rows(&master, &plan);
        assert_eq!(moved, 2 * (hot.dim() * 4) as u64);
        assert_eq!(evicted as usize, all - 2);
        assert_eq!(hot.resident_rows(), 2);
        // Sliding prefetch: row 6 of table 0 was evicted; fetch it back.
        let mut set: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        set[0] = vec![0, 6];
        let (rows, bytes) = hot.fetch_missing(&master, &set);
        assert_eq!((rows, bytes), (1, (hot.dim() * 4) as u64));
        assert_eq!(hot.resident_rows(), 3);
        // Already-resident rows fetch nothing.
        assert_eq!(hot.fetch_missing(&master, &set), (0, 0));
        // A full refresh restores total residency.
        hot.refresh_from(&master);
        assert_eq!(hot.resident_rows(), all);
    }

    #[test]
    fn resident_write_back_only_moves_resident_rows() {
        let (mut master, mut hot) = setup();
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        // A plan naming a row twice moves (and reports) it once.
        plan[0] = vec![3, 3];
        let (moved, _) = hot.refresh_rows(&master, &plan);
        assert_eq!(moved, (hot.dim() * 4) as u64);
        // Train resident row 3 on the devices; evicted row 6 gets
        // device-side bytes that must never reach the master.
        let mut grads: Vec<SparseGrad> =
            (0..hot.num_tables()).map(|_| SparseGrad::new(hot.dim())).collect();
        grads[0].accumulate(3, &vec![2.0; hot.dim()]);
        grads[0].accumulate(6, &vec![2.0; hot.dim()]);
        hot.apply_shared(&grads, 0.5);
        let before_row6 = master.lookup(0, &[6], &[0, 1]);
        let before_row3 = master.lookup(0, &[3], &[0, 1]);
        let bytes = hot.write_back_resident(&mut master);
        assert_eq!(bytes, (hot.dim() * 4) as u64);
        // The trained resident row landed; the evicted row is untouched.
        let after_row3 = master.lookup(0, &[3], &[0, 1]);
        for (b, a) in before_row3.as_slice().iter().zip(after_row3.as_slice()) {
            assert!((b - 1.0 - a).abs() < 1e-6);
        }
        assert_eq!(master.lookup(0, &[6], &[0, 1]).as_slice(), before_row6.as_slice());
        // `write_back` is the same resident-only copy: still nothing for
        // row 6 until a full refresh makes the whole bag resident again.
        hot.write_back(&mut master);
        assert_eq!(master.lookup(0, &[6], &[0, 1]).as_slice(), before_row6.as_slice());
        hot.refresh_from(&master);
        hot.apply_shared(&grads, 0.5);
        hot.write_back(&mut master);
        assert_ne!(master.lookup(0, &[6], &[0, 1]).as_slice(), before_row6.as_slice());
    }

    #[test]
    fn hot_source_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<HotEmbeddings>();
    }

    #[test]
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
