//! Zipf popularity sampling with shuffled id spaces.
//!
//! The paper's premise ("prior work ... show that access patterns follow a
//! Power or Zipfian distribution", §V) is reproduced by drawing each
//! lookup's *popularity rank* from a Zipf(s) distribution and mapping rank
//! → row id through a per-table random permutation, so hot rows are
//! scattered across the table exactly as in real datasets (this is what
//! makes the Rand-Em Box's random-chunk sampling statistically sound).

use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Zipf};

/// Samples row ids for one embedding table with Zipfian popularity.
///
/// ```
/// use fae_data::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(2);
/// let z = ZipfSampler::new(10_000, 1.2, &mut rng);
/// let mut counts = vec![0u32; 10_000];
/// for _ in 0..10_000 { counts[z.sample(&mut rng) as usize] += 1; }
/// // The most popular id draws far more than its uniform share.
/// assert!(counts[z.id_of_rank(0) as usize] > 100);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    zipf: Zipf<f64>,
    /// rank (0-based) -> row id.
    perm: Vec<u32>,
}

impl ZipfSampler {
    /// Creates a sampler over `rows` ids with exponent `s`, shuffling the
    /// rank→id mapping with `rng`.
    pub fn new(rows: usize, s: f64, rng: &mut impl Rng) -> Self {
        assert!(rows > 0, "zipf over empty id space");
        assert!(s > 0.0, "zipf exponent must be positive");
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        perm.shuffle(rng);
        #[expect(
            clippy::expect_used,
            reason = "rows > 0 and s > 0 are asserted above, the only Zipf::new error cases"
        )]
        let zipf = Zipf::new(rows as u64, s).expect("valid zipf parameters");
        Self { zipf, perm }
    }

    /// Number of distinct ids.
    pub fn rows(&self) -> usize {
        self.perm.len()
    }

    /// Draws one row id.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let rank = self.zipf.sample(rng) as usize - 1; // Zipf yields 1..=n
        self.perm[rank.min(self.perm.len() - 1)]
    }

    /// The row id holding popularity rank `rank` (0 = most popular). Used
    /// by tests to assert that the generator's hottest ids really are the
    /// most-sampled ones.
    pub fn id_of_rank(&self, rank: usize) -> u32 {
        self.perm[rank]
    }

    /// Draws one row id uniformly from the *head region*: the
    /// `head_ranks` most popular ranks. Used to synthesise popular inputs
    /// whose every field carries a popular value (cross-field popularity
    /// correlation). Uniform-within-head keeps the whole head frequently
    /// accessed, so a 5% input sample observes (and the classifier tags)
    /// essentially all of it — matching how real logs keep their hot set
    /// densely covered.
    pub fn sample_head(&self, rng: &mut impl Rng, head_ranks: usize) -> u32 {
        let head = head_ranks.clamp(1, self.perm.len());
        self.perm[rng.gen_range(0..head)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = ZipfSampler::new(100, 1.1, &mut rng);
        for _ in 0..10_000 {
            assert!((z.sample(&mut rng) as usize) < 100);
        }
    }

    #[test]
    fn rank_zero_is_the_mode() {
        let mut rng = StdRng::seed_from_u64(2);
        let z = ZipfSampler::new(1_000, 1.2, &mut rng);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let mode =
            counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i as u32).unwrap();
        assert_eq!(mode, z.id_of_rank(0));
    }

    #[test]
    fn skew_concentrates_mass_in_few_ids() {
        // With s ≈ 1.2, a small fraction of ids should capture most draws —
        // the paper's core observation (top 6.8% ⇒ ≥76% on Kaggle).
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let z = ZipfSampler::new(n, 1.2, &mut rng);
        let draws = 200_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts[..n / 14].iter().sum(); // top ~7%
        let share = top as f64 / draws as f64;
        assert!(share > 0.7, "top-7% share only {share}");
    }

    #[test]
    fn permutation_scatters_hot_ids() {
        // Hot ids must not be the lowest ids — otherwise chunked sampling
        // in the Rand-Em Box would be biased.
        let mut rng = StdRng::seed_from_u64(4);
        let z = ZipfSampler::new(10_000, 1.1, &mut rng);
        let top10: Vec<u32> = (0..10).map(|r| z.id_of_rank(r)).collect();
        assert!(top10.iter().any(|&id| id > 1_000), "hot ids suspiciously clustered: {top10:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let z1 = ZipfSampler::new(500, 1.05, &mut r1);
        let z2 = ZipfSampler::new(500, 1.05, &mut r2);
        for _ in 0..100 {
            assert_eq!(z1.sample(&mut r1), z2.sample(&mut r2));
        }
    }
}
