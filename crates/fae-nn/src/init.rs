//! Parameter initialisation.
//!
//! DLRM's reference implementation initialises dense layers with
//! Xavier/Glorot-uniform weights and zero biases; embedding rows use a
//! uniform range scaled by row count. Both are reproduced here with
//! deterministic seeding so every experiment in the repo is replayable.

use rand::Rng;

use crate::tensor::Tensor;

/// Xavier/Glorot-uniform initialisation for a `fan_in × fan_out` weight
/// matrix: `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-limit..limit))
}

/// Uniform initialisation in `(-scale, scale)`, used for embedding rows
/// (DLRM uses `scale = 1/sqrt(num_rows)`).
pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_limit_and_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = xavier_uniform(64, 32, &mut r1);
        let b = xavier_uniform(64, 32, &mut r2);
        assert_eq!(a, b);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() < limit));
        // Not degenerate: values actually vary.
        assert!(a.as_slice().iter().any(|v| v.abs() > limit / 10.0));
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = uniform(100, 8, 0.05, &mut rng);
        assert!(e.as_slice().iter().all(|v| v.abs() < 0.05));
    }
}
