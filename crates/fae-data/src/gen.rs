//! Deterministic synthesis of Zipf-skewed recommendation datasets.
//!
//! Substitution for the paper's Criteo/Taobao inputs (see DESIGN.md §2):
//! each table gets a [`crate::ZipfSampler`] (skew matching the paper's
//! observed hot-fractions), dense features are standard normal, and labels
//! come from a *planted* ground-truth model — a hidden linear scorer over
//! the dense features plus per-row latent affinities — so that training on
//! the synthetic data exhibits real learning curves (Fig 12 / Table III).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Bernoulli, Distribution, Normal};

use crate::dataset::{Dataset, TableIndices};
use crate::spec::WorkloadSpec;
use crate::zipf::ZipfSampler;

/// Generation options.
#[derive(Clone, Copy, Debug)]
pub struct GenOptions {
    /// RNG seed; everything downstream is a pure function of this.
    pub seed: u64,
    /// Overrides `spec.num_inputs` when set.
    pub num_inputs: Option<usize>,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self { seed: 0x0FAE, num_inputs: None }
    }
}

impl GenOptions {
    /// Options with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Default::default() }
    }

    /// Options with the given seed and input count.
    pub fn sized(seed: u64, num_inputs: usize) -> Self {
        Self { seed, num_inputs: Some(num_inputs) }
    }
}

/// How strongly dense features drive the planted label.
const DENSE_GAIN: f32 = 1.2;
/// How strongly embedding-row affinities drive the planted label.
const AFFINITY_GAIN: f32 = 1.8;

/// Generates a dataset for `spec`.
pub fn generate(spec: &WorkloadSpec, opts: &GenOptions) -> Dataset {
    let n = opts.num_inputs.unwrap_or(spec.num_inputs);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    #[expect(
        clippy::expect_used,
        reason = "Normal::new(0, 1) has constant, provably valid parameters"
    )]
    let normal = Normal::new(0.0f32, 1.0).expect("valid normal");

    // Planted model: per-row affinities and a dense scorer.
    let samplers: Vec<ZipfSampler> = spec
        .tables
        .iter()
        .map(|t| ZipfSampler::new(t.rows, spec.zipf_exponent, &mut rng))
        .collect();
    let affinities: Vec<Vec<f32>> = spec
        .tables
        .iter()
        .map(|t| (0..t.rows).map(|_| normal.sample(&mut rng)).collect())
        .collect();
    let dense_w: Vec<f32> = (0..spec.dense_features)
        .map(|_| normal.sample(&mut rng) / (spec.dense_features as f32).sqrt())
        .collect();

    let mut dense = Vec::with_capacity(n * spec.dense_features);
    let mut sparse: Vec<TableIndices> = spec
        .tables
        .iter()
        .map(|t| TableIndices::with_capacity(n, n * t.lookups_per_input))
        .collect();
    let mut labels = Vec::with_capacity(n);

    // Per-table head sizes for popular inputs (cross-field correlation).
    let head_ranks: Vec<usize> = spec
        .tables
        .iter()
        .map(|t| ((t.rows as f64 * spec.head_fraction).ceil() as usize).max(1))
        .collect();

    let mut bag = Vec::new();
    for _ in 0..n {
        let mut score = 0.0f32;
        for &w in &dense_w {
            let x: f32 = normal.sample(&mut rng);
            dense.push(x);
            score += DENSE_GAIN * w * x;
        }
        // Popular inputs draw every lookup from each table's head region —
        // the cross-field popularity correlation of real click logs that
        // makes jointly-hot inputs common (see DESIGN.md §2).
        let popular = rng.gen_bool(spec.popularity_correlation);
        let mut lookups = 0usize;
        let mut affinity_sum = 0.0f32;
        for (((tspec, sampler), &head), (aff, csr)) in spec
            .tables
            .iter()
            .zip(&samplers)
            .zip(&head_ranks)
            .zip(affinities.iter().zip(sparse.iter_mut()))
        {
            bag.clear();
            // Sequence tables draw a variable-length bag (1..=max), like
            // Taobao's up-to-21-step behaviour histories; single-lookup
            // tables always draw exactly one id.
            let len = if tspec.lookups_per_input > 1 {
                rng.gen_range(1..=tspec.lookups_per_input)
            } else {
                1
            };
            for _ in 0..len {
                let id = if popular {
                    sampler.sample_head(&mut rng, head)
                } else {
                    sampler.sample(&mut rng)
                };
                affinity_sum += aff[id as usize];
                bag.push(id);
            }
            lookups += len;
            csr.push_bag(&bag);
        }
        score += AFFINITY_GAIN * affinity_sum / lookups as f32;
        let p = 1.0 / (1.0 + (-score).exp());
        #[expect(clippy::expect_used, reason = "p is a sigmoid output, always inside (0, 1)")]
        let label = Bernoulli::new(p as f64).expect("valid p").sample(&mut rng);
        labels.push(if label { 1.0 } else { 0.0 });
    }

    Dataset { spec: spec.clone(), dense, sparse, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_spec() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(1, 500));
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.dense.len(), 500 * spec.dense_features);
        assert_eq!(ds.sparse.len(), spec.tables.len());
        for csr in &ds.sparse {
            assert_eq!(csr.len(), 500);
        }
        // DLRM workload: every bag holds exactly one id, in range.
        for i in 0..500 {
            for (t, bag) in ds.bags_of(i) {
                assert_eq!(bag.len(), 1);
                assert!((bag[0] as usize) < spec.tables[t].rows);
            }
        }
    }

    #[test]
    fn sequence_tables_get_variable_bags() {
        let spec = WorkloadSpec::rmc1_taobao();
        let ds = generate(&spec, &GenOptions::sized(2, 200));
        let lens: Vec<usize> = (0..200).map(|i| ds.sparse[0].bag(i).len()).collect();
        assert!(lens.iter().all(|&l| (1..=21).contains(&l)));
        assert!(lens.iter().any(|&l| l > 1), "no multi-step sequences generated");
        // The user table stays single-lookup.
        assert!((0..200).all(|i| ds.sparse[2].bag(i).len() == 1));
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = WorkloadSpec::tiny_test();
        let a = generate(&spec, &GenOptions::sized(7, 100));
        let b = generate(&spec, &GenOptions::sized(7, 100));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.sparse, b.sparse);
        assert_eq!(a.dense, b.dense);
        let c = generate(&spec, &GenOptions::sized(8, 100));
        assert_ne!(a.sparse, c.sparse, "different seeds should differ");
    }

    #[test]
    fn labels_are_learnable_not_degenerate() {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(3, 4_000));
        let rate = ds.positive_rate();
        assert!((0.2..0.8).contains(&rate), "positive rate {rate} degenerate");
    }

    #[test]
    fn accesses_are_zipf_skewed() {
        // Count accesses to the largest table and verify the hot-fraction
        // story of Fig 2: a small share of rows draws most accesses.
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(4, 20_000));
        let rows = spec.tables[0].rows;
        let mut counts = vec![0u64; rows];
        for i in 0..ds.len() {
            counts[ds.sparse[0].bag(i)[0] as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts[..rows / 10].iter().sum();
        let share = top as f64 / 20_000.0;
        assert!(share > 0.6, "top-10% rows capture only {share}");
    }

    #[test]
    fn label_correlates_with_planted_affinity() {
        // Samples that share the same hot rows should have correlated
        // labels; verify by checking the label rate conditioned on the
        // hottest id differs from the global rate for at least one hot id.
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(5, 30_000));
        let global = ds.positive_rate();
        let mut by_id: std::collections::HashMap<u32, (u32, u32)> = Default::default();
        for i in 0..ds.len() {
            let id = ds.sparse[0].bag(i)[0];
            let e = by_id.entry(id).or_default();
            e.0 += 1;
            if ds.labels[i] >= 0.5 {
                e.1 += 1;
            }
        }
        let deviates = by_id
            .values()
            .filter(|(n, _)| *n > 300)
            .any(|(n, p)| ((*p as f64 / *n as f64) - global).abs() > 0.1);
        assert!(deviates, "labels look independent of embedding ids");
    }
}
