//! The frequency-aware hot-embedding cache (DESIGN.md §10.2).
//!
//! Two tiers per table:
//!
//! * a **pinned tier** seeded from the calibrator's hot partition — those
//!   rows absorbed 75–92% of training lookups (paper Fig 5) and are never
//!   evicted at serve time,
//! * a **dynamic tier** of `capacity` cold-row slots governed by windowed
//!   access counts: every cold access bumps the row's counter, and every
//!   `window` cold accesses all counters are halved (dropping zeros) so
//!   the cache tracks the *recent* popularity distribution rather than
//!   the all-time one. A missing row is admitted when a free slot exists
//!   or when its windowed count beats the coldest resident's — the
//!   TinyLFU admission rule, which is what lets the cache beat LRU under
//!   Zipf traffic (an LRU admits every scan victim; this cache refuses
//!   one-hit wonders).
//!
//! Every decision is deterministic: the eviction victim is the resident
//! with the smallest `(count, row id)` pair, so identical access streams
//! produce identical cache states on every run.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use fae_data::MiniBatch;
use fae_embed::HotColdPartition;

/// Outcome of a single row access against a [`FreqCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAccess {
    /// The row is calibrator-pinned: always GPU-resident.
    Pinned,
    /// The row sits in the dynamic tier: GPU-resident.
    Hit,
    /// The row is not resident: fetched from the CPU master copy.
    Miss {
        /// Whether the admission policy brought the row in afterwards.
        admitted: bool,
    },
}

/// Lifetime counters of a cache (or of a whole [`ServeCache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses answered by the pinned (calibrator-hot) tier.
    pub pinned_hits: u64,
    /// Accesses answered by the dynamic tier.
    pub hits: u64,
    /// Accesses that had to fetch from the CPU master copy.
    pub misses: u64,
    /// Misses that were admitted into the dynamic tier.
    pub admissions: u64,
    /// Residents displaced to make room for an admission.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of accesses served GPU-side (pinned + dynamic hits).
    pub fn hit_rate(&self) -> f64 {
        let total = self.pinned_hits + self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        (self.pinned_hits + self.hits) as f64 / total as f64
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.pinned_hits += other.pinned_hits;
        self.hits += other.hits;
        self.misses += other.misses;
        self.admissions += other.admissions;
        self.evictions += other.evictions;
    }
}

/// Frequency-aware cache for one embedding table: pinned hot rows plus a
/// TinyLFU-style dynamic tier (see module docs).
#[derive(Clone, Debug)]
pub struct FreqCache {
    pinned: BTreeSet<u32>,
    capacity: usize,
    resident: BTreeSet<u32>,
    // Windowed access counts, looked up by row id and aged via
    // `retain` — never iterated for output, so HashMap is safe under
    // the flow-aware det-taint rule (victim scans walk `resident`,
    // which stays ordered).
    freq: HashMap<u32, u32>,
    window: usize,
    cold_accesses: usize,
    stats: CacheStats,
}

impl FreqCache {
    /// Builds a cache whose pinned tier holds `pinned` rows and whose
    /// dynamic tier holds at most `capacity` rows, aging counts every
    /// `window` cold accesses (`window` 0 disables aging).
    pub fn new(pinned: impl IntoIterator<Item = u32>, capacity: usize, window: usize) -> Self {
        Self {
            pinned: pinned.into_iter().collect(),
            capacity,
            resident: BTreeSet::new(),
            freq: HashMap::new(),
            window,
            cold_accesses: 0,
            stats: CacheStats::default(),
        }
    }

    /// Seeds the pinned tier from a calibrator partition.
    pub fn from_partition(p: &HotColdPartition, capacity: usize, window: usize) -> Self {
        Self::new(p.hot_ids().iter().copied(), capacity, window)
    }

    /// True when `row` is GPU-resident (pinned or dynamic).
    pub fn is_resident(&self, row: u32) -> bool {
        self.pinned.contains(&row) || self.resident.contains(&row)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Records an access to `row` and returns where it was served from.
    pub fn access(&mut self, row: u32) -> CacheAccess {
        if self.pinned.contains(&row) {
            self.stats.pinned_hits += 1;
            return CacheAccess::Pinned;
        }
        self.touch(row);
        if self.resident.contains(&row) {
            self.stats.hits += 1;
            return CacheAccess::Hit;
        }
        self.stats.misses += 1;
        let admitted = self.admit(row);
        CacheAccess::Miss { admitted }
    }

    /// Bumps the windowed count of a cold access, aging all counts when
    /// the window rolls over.
    fn touch(&mut self, row: u32) {
        *self.freq.entry(row).or_insert(0) += 1;
        self.cold_accesses += 1;
        if self.window > 0 && self.cold_accesses >= self.window {
            self.cold_accesses = 0;
            self.freq.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    /// TinyLFU admission: free slot → in; otherwise in only if the
    /// candidate's windowed count is at least the coldest resident's.
    fn admit(&mut self, row: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.resident.len() < self.capacity {
            self.resident.insert(row);
            self.stats.admissions += 1;
            return true;
        }
        let Some((victim, victim_freq)) = self.coldest_resident() else {
            return false;
        };
        if self.freq.get(&row).copied().unwrap_or(0) >= victim_freq {
            self.resident.remove(&victim);
            self.resident.insert(row);
            self.stats.admissions += 1;
            self.stats.evictions += 1;
            return true;
        }
        false
    }

    /// Resident with the smallest `(count, row id)` pair, or `None` when
    /// the dynamic tier is empty.
    fn coldest_resident(&self) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        for &r in &self.resident {
            let f = self.freq.get(&r).copied().unwrap_or(0);
            best = match best {
                None => Some((r, f)),
                Some((br, bf)) if (f, r) < (bf, br) => Some((r, f)),
                keep => keep,
            };
        }
        best
    }
}

/// Plain LRU cache of the same total capacity — the comparison baseline
/// for the frequency-aware policy (and the property tests' referee).
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    stamp: u64,
    resident: BTreeMap<u32, u64>,
    stats: CacheStats,
}

impl LruCache {
    /// Builds an LRU cache holding at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, stamp: 0, resident: BTreeMap::new(), stats: CacheStats::default() }
    }

    /// Lifetime counters (only `hits`/`misses`/`admissions`/`evictions`
    /// are populated — an LRU has no pinned tier).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Records an access; LRU admits every miss, evicting the
    /// least-recently-used resident (ties broken by smallest row id).
    pub fn access(&mut self, row: u32) -> CacheAccess {
        self.stamp += 1;
        if let Some(s) = self.resident.get_mut(&row) {
            *s = self.stamp;
            self.stats.hits += 1;
            return CacheAccess::Hit;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return CacheAccess::Miss { admitted: false };
        }
        if self.resident.len() >= self.capacity {
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|&(&r, &s)| (s, r)) {
                self.resident.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.resident.insert(row, self.stamp);
        self.stats.admissions += 1;
        CacheAccess::Miss { admitted: true }
    }
}

/// Rows of one batch split by where their embeddings were served from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchAccess {
    /// Lookups served GPU-side (pinned tier + dynamic-tier hits).
    pub gpu_rows: usize,
    /// Lookups that fetched from the CPU master copy.
    pub cpu_rows: usize,
}

/// Per-table [`FreqCache`]s for a whole workload, seeded from the
/// calibrator's partitions.
#[derive(Clone, Debug)]
pub struct ServeCache {
    tables: Vec<FreqCache>,
}

impl ServeCache {
    /// Builds one cache per table. `cold_rows` dynamic slots are spread
    /// across tables proportionally to each table's cold-row count (every
    /// table with at least one cold row gets at least one slot).
    pub fn new(partitions: &[HotColdPartition], cold_rows: usize, window: usize) -> Self {
        let cold_counts: Vec<usize> = partitions.iter().map(|p| p.rows() - p.hot_count()).collect();
        let total_cold: usize = cold_counts.iter().sum();
        let tables = partitions
            .iter()
            .zip(&cold_counts)
            .map(|(p, &cold)| {
                let cap = if total_cold == 0 || cold == 0 {
                    0
                } else {
                    ((cold_rows * cold) / total_cold).max(1).min(cold)
                };
                FreqCache::from_partition(p, cap, window)
            })
            .collect();
        Self { tables }
    }

    /// Per-table caches (read-only).
    pub fn tables(&self) -> &[FreqCache] {
        &self.tables
    }

    /// Runs every sparse lookup of `batch` through its table's cache and
    /// returns the GPU/CPU row split the cost model charges for.
    pub fn access_batch(&mut self, batch: &MiniBatch) -> BatchAccess {
        let mut out = BatchAccess::default();
        for (t, csr) in batch.sparse.iter().enumerate() {
            let cache = &mut self.tables[t];
            for &row in &csr.indices {
                match cache.access(row) {
                    CacheAccess::Pinned | CacheAccess::Hit => out.gpu_rows += 1,
                    CacheAccess::Miss { .. } => out.cpu_rows += 1,
                }
            }
        }
        out
    }

    /// Summed lifetime counters across tables.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for t in &self.tables {
            total.merge(t.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pinned_rows_always_gpu_side() {
        let mut c = FreqCache::new([1u32, 5, 9], 2, 16);
        for _ in 0..100 {
            assert_eq!(c.access(5), CacheAccess::Pinned);
        }
        assert_eq!(c.stats().pinned_hits, 100);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn free_slots_admit_every_miss() {
        let mut c = FreqCache::new([], 2, 0);
        assert_eq!(c.access(7), CacheAccess::Miss { admitted: true });
        assert_eq!(c.access(8), CacheAccess::Miss { admitted: true });
        assert_eq!(c.access(7), CacheAccess::Hit);
        assert_eq!(c.access(8), CacheAccess::Hit);
    }

    #[test]
    fn one_hit_wonder_is_refused() {
        let mut c = FreqCache::new([], 1, 0);
        // Row 1 becomes popular; row 2 shows up once and must not displace it.
        for _ in 0..5 {
            c.access(1);
        }
        assert_eq!(c.access(2), CacheAccess::Miss { admitted: false });
        assert!(c.is_resident(1));
        assert!(!c.is_resident(2));
    }

    #[test]
    fn repeated_candidate_eventually_displaces_stale_resident() {
        let mut c = FreqCache::new([], 1, 0);
        c.access(1); // freq[1]=1, admitted
        c.access(2); // freq[2]=1 >= freq[1]=1 → displaces
        assert!(c.is_resident(2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn aging_halves_counts() {
        let mut c = FreqCache::new([], 1, 4);
        for _ in 0..3 {
            c.access(1);
        }
        // 4th cold access rolls the window: counts halve (1→3/2=1, 2→0 dropped).
        c.access(2);
        assert_eq!(c.freq.get(&1), Some(&1));
        assert_eq!(c.freq.get(&2), None);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = FreqCache::new([3u32], 0, 0);
        assert_eq!(c.access(1), CacheAccess::Miss { admitted: false });
        assert_eq!(c.access(1), CacheAccess::Miss { admitted: false });
        assert_eq!(c.access(3), CacheAccess::Pinned);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // refresh 1 → victim is 2
        c.access(3);
        assert_eq!(c.access(1), CacheAccess::Hit);
        assert_eq!(c.access(2), CacheAccess::Miss { admitted: true });
    }

    #[test]
    fn serve_cache_splits_capacity_and_counts_batch_rows() {
        use fae_data::{generate, GenOptions, WorkloadSpec};
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(1, 64));
        let parts: Vec<HotColdPartition> =
            spec.tables.iter().map(|t| HotColdPartition::all_cold(t.rows)).collect();
        let mut cache = ServeCache::new(&parts, 64, 0);
        assert!(cache.tables().iter().any(|t| t.capacity > 0));
        let batch = MiniBatch::gather(&ds, &(0..8).collect::<Vec<_>>(), fae_data::BatchKind::Cold);
        let split = cache.access_batch(&batch);
        assert_eq!(split.gpu_rows + split.cpu_rows, batch.total_lookups());
        let stats = cache.stats();
        assert_eq!((stats.pinned_hits + stats.hits + stats.misses) as usize, batch.total_lookups());
    }

    /// Draws a Zipf(alpha)-distributed row id in `0..rows` from a uniform
    /// `u ∈ [0,1)` via inverse-CDF over the precomputed weights.
    fn zipf_row(cdf: &[f64], u: f64) -> u32 {
        match cdf.iter().position(|&c| u < c) {
            Some(i) => i as u32,
            None => (cdf.len() - 1) as u32,
        }
    }

    fn zipf_cdf(rows: usize, alpha: f64) -> Vec<f64> {
        let weights: Vec<f64> = (1..=rows).map(|r| (r as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }

    proptest! {
        /// Satellite: the frequency-aware cache never evicts a
        /// calibrator-pinned hot row, whatever the access stream does.
        #[test]
        fn pinned_rows_never_evicted(
            stream in prop::collection::vec(0u32..64, 1..512),
            capacity in 0usize..8,
            window in 0usize..32,
        ) {
            let pinned = [2u32, 11, 33, 60];
            let mut c = FreqCache::new(pinned, capacity, window);
            for &row in &stream {
                c.access(row);
                for &p in &pinned {
                    prop_assert!(c.is_resident(p), "pinned row {p} left the cache");
                }
            }
            for &p in &pinned {
                prop_assert_eq!(c.access(p), CacheAccess::Pinned);
            }
        }

        /// Satellite: under Zipf(α ≥ 1.05) the frequency-aware policy's
        /// hit rate is at least a plain LRU's of equal total capacity
        /// (pinned tier + dynamic tier vs. one flat LRU arena).
        #[test]
        fn freq_cache_beats_lru_on_zipf(
            alpha in 1.05f64..1.6,
            raw in prop::collection::vec(0.0f64..1.0, 4096),
        ) {
            const ROWS: usize = 256;
            const PINNED: usize = 24;
            const DYNAMIC: usize = 8;
            let cdf = zipf_cdf(ROWS, alpha);
            let stream: Vec<u32> = raw.iter().map(|&u| zipf_row(&cdf, u)).collect();
            // Pin the top-K rows by realized frequency — what the
            // calibrator's access log would have picked.
            let mut counts = [0u64; ROWS];
            for &r in &stream {
                counts[r as usize] += 1;
            }
            let mut order: Vec<u32> = (0..ROWS as u32).collect();
            order.sort_by_key(|&r| (std::cmp::Reverse(counts[r as usize]), r));
            let mut freq = FreqCache::new(order[..PINNED].iter().copied(), DYNAMIC, 1024);
            let mut lru = LruCache::new(PINNED + DYNAMIC);
            for &r in &stream {
                freq.access(r);
                lru.access(r);
            }
            let f = freq.stats().hit_rate();
            let l = lru.stats().hit_rate();
            prop_assert!(
                f >= l,
                "freq-aware hit rate {f:.4} below LRU {l:.4} at alpha {alpha:.3}"
            );
        }
    }
}
