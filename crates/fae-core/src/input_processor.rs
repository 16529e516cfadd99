//! The Input Processor (§III-B): classifies every sparse input as hot or
//! cold and packs them into *pure* mini-batches.
//!
//! "A sparse-input is classified as hot only if all its embedding table
//! accesses are to hot entries." Classification is one pass over the
//! inputs. Packing gathers the batches column by column: every batch's
//! dense rows and labels, then every batch's lookups into one table before
//! the next table's, so that table's CSR arrays stay in cache while its
//! samples are read at random. The columns are dealt across the cores, as
//! the paper splits its pass across them. Batch purity is what rescues the
//! probability collapse of Fig 4: a random mini-batch of B inputs is
//! all-hot with probability `p^B`, so FAE *constructs* pure batches instead
//! of hoping for them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fae_data::format::FaeFile;
use fae_data::{BatchKind, Dataset, MiniBatch, TableIndices};
use fae_embed::HotColdPartition;
use fae_nn::cores;

/// Input-processor options.
#[derive(Clone, Copy, Debug)]
pub struct PreprocessConfig {
    /// Global mini-batch size.
    pub minibatch_size: usize,
    /// Shuffle seed for batch assembly (determinism).
    pub seed: u64,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self { minibatch_size: 128, seed: 0x5EED }
    }
}

/// The preprocessed training stream.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Pure-hot mini-batches.
    pub hot_batches: Vec<MiniBatch>,
    /// Pure-cold mini-batches.
    pub cold_batches: Vec<MiniBatch>,
    /// Fraction of inputs classified hot.
    pub hot_input_fraction: f64,
    /// The partitions the classification ran against.
    pub partitions: Vec<HotColdPartition>,
}

impl Preprocessed {
    /// Total mini-batches.
    pub fn total_batches(&self) -> usize {
        self.hot_batches.len() + self.cold_batches.len()
    }

    /// Total samples across all batches.
    pub fn total_samples(&self) -> usize {
        self.hot_batches.iter().chain(&self.cold_batches).map(|b| b.len()).sum()
    }

    /// The stream in the FAE on-disk container, cold batches first. The
    /// container borrows the batches, so nothing is copied to encode it.
    pub fn to_fae_file(&self, workload: &str) -> FaeFile<&MiniBatch> {
        FaeFile::new(workload, self.cold_batches.iter().chain(&self.hot_batches).collect())
    }
}

/// Classifies every input: `true` iff *all* its lookups in *all* tables
/// hit hot rows.
pub fn classify_inputs(ds: &Dataset, partitions: &[HotColdPartition]) -> Vec<bool> {
    assert_eq!(partitions.len(), ds.sparse.len(), "one partition per table");
    (0..ds.len())
        .map(|i| {
            ds.sparse
                .iter()
                .zip(partitions)
                .all(|(csr, p)| csr.bag(i).iter().all(|&idx| p.is_hot(idx)))
        })
        .collect()
}

/// Runs the full input-processing stage: classify, split, shuffle, pack.
pub fn preprocess_inputs(
    ds: &Dataset,
    partitions: Vec<HotColdPartition>,
    cfg: &PreprocessConfig,
) -> Preprocessed {
    assert!(cfg.minibatch_size > 0, "mini-batch size must be positive");
    let is_hot = classify_inputs(ds, &partitions);
    let mut hot_ids: Vec<usize> = Vec::new();
    let mut cold_ids: Vec<usize> = Vec::new();
    for (i, &h) in is_hot.iter().enumerate() {
        if h {
            hot_ids.push(i);
        } else {
            cold_ids.push(i);
        }
    }
    let hot_input_fraction = hot_ids.len() as f64 / ds.len().max(1) as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    hot_ids.shuffle(&mut rng);
    cold_ids.shuffle(&mut rng);

    let size = cfg.minibatch_size;
    let chunks: Vec<(&[usize], BatchKind)> = hot_ids
        .chunks(size)
        .map(|c| (c, BatchKind::Hot))
        .chain(cold_ids.chunks(size).map(|c| (c, BatchKind::Cold)))
        .collect();
    let mut hot_batches = pack(ds, &chunks, cores::share());
    let cold_batches = hot_batches.split_off(hot_ids.len().div_ceil(size));
    Preprocessed { hot_batches, cold_batches, hot_input_fraction, partitions }
}

/// One column of every mini-batch: the dense rows with the labels, or one
/// table's lookups.
enum Column {
    Rows(Vec<(Vec<f32>, Vec<f32>)>),
    Table(Vec<TableIndices>),
}

/// Gathers column `c` of every chunk: column 0 is the dense rows and the
/// labels, column `1 + t` table `t`.
fn gather_column(ds: &Dataset, chunks: &[(&[usize], BatchKind)], c: usize) -> Column {
    let Some(t) = c.checked_sub(1) else {
        let rows = chunks.iter().map(|(ids, _)| {
            let mut dense = Vec::with_capacity(ids.len() * ds.spec.dense_features);
            for &s in *ids {
                dense.extend_from_slice(ds.dense_row(s));
            }
            (dense, ids.iter().map(|&s| ds.labels[s]).collect())
        });
        return Column::Rows(rows.collect());
    };
    Column::Table(chunks.iter().map(|(ids, _)| ds.sparse[t].gather(ids)).collect())
}

/// Packs every `(samples, kind)` chunk into a mini-batch column by column
/// (see the module doc): column `c` is gathered by task `c % width` of one
/// [`cores::fan_out`]. A column is a plain copy, so the batches are the
/// same bytes at any width.
fn pack(ds: &Dataset, chunks: &[(&[usize], BatchKind)], width: usize) -> Vec<MiniBatch> {
    let columns = 1 + ds.sparse.len();
    let width = width.clamp(1, columns);
    let dealt = cores::fan_out((0..width).collect(), |k| {
        (k..columns).step_by(width).map(|c| (c, gather_column(ds, chunks, c))).collect::<Vec<_>>()
    });
    let mut gathered: Vec<(usize, Column)> = dealt.into_iter().flatten().collect();
    gathered.sort_unstable_by_key(|(c, _)| *c);
    let mut batches: Vec<MiniBatch> = chunks
        .iter()
        .map(|&(_, kind)| MiniBatch {
            kind,
            dense: Vec::new(),
            dense_width: ds.spec.dense_features,
            sparse: Vec::with_capacity(columns - 1),
            labels: Vec::new(),
        })
        .collect();
    for (_, column) in gathered {
        match column {
            Column::Rows(rows) => {
                for (b, (dense, labels)) in batches.iter_mut().zip(rows) {
                    b.dense = dense;
                    b.labels = labels;
                }
            }
            Column::Table(csrs) => {
                for (b, csr) in batches.iter_mut().zip(csrs) {
                    b.sparse.push(csr);
                }
            }
        }
    }
    batches
}

/// Analytic probability that a random (non-constructed) mini-batch of
/// `batch` inputs is entirely hot when a fraction `p` of inputs are hot —
/// the curve of Fig 4.
pub fn all_hot_minibatch_probability(p: f64, batch: usize) -> f64 {
    p.powi(batch as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::{generate, GenOptions, WorkloadSpec};

    fn setup() -> (Dataset, Vec<HotColdPartition>) {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(31, 10_000));
        // Force real partitions from full counts with a visible cutoff.
        let all: Vec<usize> = (0..ds.len()).collect();
        let counters = crate::calibrator::log_accesses(&ds, &all);
        let parts: Vec<HotColdPartition> =
            counters.iter().map(|c| HotColdPartition::from_counts(c, 5)).collect();
        (ds, parts)
    }

    #[test]
    fn classification_matches_serial_reference() {
        let (ds, parts) = setup();
        let par = classify_inputs(&ds, &parts);
        for (i, &got) in par.iter().enumerate() {
            let serial = ds
                .sparse
                .iter()
                .zip(&parts)
                .all(|(csr, p)| csr.bag(i).iter().all(|&idx| p.is_hot(idx)));
            assert_eq!(got, serial, "input {i}");
        }
    }

    #[test]
    fn packing_is_the_same_bytes_at_every_width() {
        let (ds, _) = setup();
        let mut ids: Vec<usize> = (0..ds.len()).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(7));
        // 96 does not divide 10,000: the last chunk is partial.
        let chunks: Vec<(&[usize], BatchKind)> =
            ids.chunks(96).zip([BatchKind::Hot, BatchKind::Cold].into_iter().cycle()).collect();
        let by_sample: Vec<MiniBatch> =
            chunks.iter().map(|&(c, kind)| MiniBatch::gather(&ds, c, kind)).collect();
        let want = FaeFile::new("w", by_sample).encode();
        let tables = ds.sparse.len();
        for width in [1, 2, 3, tables + 1, tables + 2] {
            let packed = FaeFile::new("w", pack(&ds, &chunks, width)).encode();
            assert!(packed == want, "width {width}: the packed stream differs");
        }
    }

    #[test]
    fn batches_are_pure_and_cover_everything() {
        let (ds, parts) = setup();
        let pre = preprocess_inputs(&ds, parts, &PreprocessConfig { minibatch_size: 64, seed: 1 });
        assert_eq!(pre.total_samples(), ds.len());
        assert!(pre.hot_input_fraction > 0.1 && pre.hot_input_fraction < 1.0);
        // Purity invariant: every lookup in a hot batch is hot.
        for b in &pre.hot_batches {
            assert_eq!(b.kind, BatchKind::Hot);
            for (t, csr) in b.sparse.iter().enumerate() {
                for &idx in &csr.indices {
                    assert!(pre.partitions[t].is_hot(idx), "cold row {idx} in hot batch");
                }
            }
        }
        // Every cold batch has at least one cold lookup per sample... not
        // necessarily per sample, but each cold *input* has ≥1 cold lookup.
        for b in &pre.cold_batches {
            assert_eq!(b.kind, BatchKind::Cold);
            for s in 0..b.len() {
                let any_cold = b
                    .sparse
                    .iter()
                    .enumerate()
                    .any(|(t, csr)| csr.bag(s).iter().any(|&i| !pre.partitions[t].is_hot(i)));
                assert!(any_cold, "cold batch contains an all-hot input");
            }
        }
    }

    #[test]
    fn batch_sizes_respect_config() {
        let (ds, parts) = setup();
        let pre = preprocess_inputs(&ds, parts, &PreprocessConfig { minibatch_size: 128, seed: 2 });
        for b in pre.hot_batches.iter().chain(&pre.cold_batches) {
            assert!(b.len() <= 128 && !b.is_empty());
        }
        // At most one partial batch per class.
        let partial_hot = pre.hot_batches.iter().filter(|b| b.len() < 128).count();
        let partial_cold = pre.cold_batches.iter().filter(|b| b.len() < 128).count();
        assert!(partial_hot <= 1 && partial_cold <= 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let (ds, parts) = setup();
        let a = preprocess_inputs(
            &ds,
            parts.clone(),
            &PreprocessConfig { minibatch_size: 64, seed: 3 },
        );
        let b = preprocess_inputs(&ds, parts, &PreprocessConfig { minibatch_size: 64, seed: 3 });
        assert_eq!(a.hot_batches.len(), b.hot_batches.len());
        for (x, y) in a.hot_batches.iter().zip(&b.hot_batches) {
            assert_eq!(x.labels, y.labels);
        }
    }

    #[test]
    fn fae_file_round_trip_preserves_batch_counts() {
        let (ds, parts) = setup();
        let pre = preprocess_inputs(&ds, parts, &PreprocessConfig { minibatch_size: 64, seed: 4 });
        let f = pre.to_fae_file("tiny");
        let decoded = fae_data::format::FaeFile::decode(&f.encode()).expect("round trip");
        assert_eq!(decoded.hot_count(), pre.hot_batches.len());
        assert_eq!(decoded.cold_count(), pre.cold_batches.len());
    }

    #[test]
    fn fig4_probability_collapses_with_batch_size() {
        let p99 = all_hot_minibatch_probability(0.99, 256);
        assert!(p99 < 0.1, "P(all hot @ 256) = {p99}");
        assert!(all_hot_minibatch_probability(0.99, 1) > 0.98);
        assert!(
            all_hot_minibatch_probability(0.999, 256) > all_hot_minibatch_probability(0.99, 256)
        );
    }

    #[test]
    fn all_hot_partitions_make_everything_hot() {
        let (ds, _) = setup();
        let parts: Vec<HotColdPartition> =
            ds.spec.tables.iter().map(|t| HotColdPartition::all_hot(t.rows)).collect();
        let pre = preprocess_inputs(&ds, parts, &PreprocessConfig::default());
        assert_eq!(pre.hot_input_fraction, 1.0);
        assert!(pre.cold_batches.is_empty());
    }
}
