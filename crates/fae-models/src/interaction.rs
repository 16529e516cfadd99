//! DLRM's pairwise dot-product feature interaction.
//!
//! Given `F` feature vectors per sample (the bottom-MLP output plus one
//! pooled embedding per table, all of width `d`), the interaction emits
//! the bottom-MLP output concatenated with the `F·(F-1)/2` pairwise dot
//! products — the `dot` interaction of the open-source DLRM.

use fae_nn::{lanes, Tensor};

/// Differentiable pairwise-dot interaction over `features` tensors of
/// identical `batch × d` shape. `features[0]` is the bottom-MLP output
/// that also passes through to the output.
pub struct Interaction {
    cached: Option<Vec<Tensor>>,
}

impl Interaction {
    /// Creates the op.
    pub fn new() -> Self {
        Self { cached: None }
    }

    /// Output width for `f` features of width `d`: `d + f·(f-1)/2`.
    pub fn out_width(f: usize, d: usize) -> usize {
        d + f * (f - 1) / 2
    }

    /// Forward pass into `out` (`batch × out_width`, every element
    /// written); caches the features for backward.
    pub fn forward(&mut self, features: Vec<Tensor>, out: &mut [f32]) {
        let f = features.len();
        assert!(f >= 2, "interaction needs at least two features");
        let (batch, d) = features[0].shape();
        assert!(features.iter().all(|t| t.shape() == (batch, d)), "feature shape mismatch");
        assert_eq!(out.len(), batch * Self::out_width(f, d), "interaction output size mismatch");
        for (b, row) in out.chunks_exact_mut(Self::out_width(f, d)).enumerate() {
            row[..d].copy_from_slice(features[0].row(b));
            let mut k = d;
            for i in 0..f {
                for j in (i + 1)..f {
                    // 8-lane dot reorders the f32 sum (DESIGN.md §14).
                    row[k] = lanes::dot(features[i].row(b), features[j].row(b));
                    k += 1;
                }
            }
        }
        self.cached = Some(features);
    }

    /// Backward pass: splits the upstream gradient (`batch × out_width`,
    /// row-major) back onto each feature.
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<Tensor> {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let features = self.cached.take().expect("Interaction::backward before forward");
        let f = features.len();
        let (batch, d) = features[0].shape();
        let width = Self::out_width(f, d);
        assert_eq!(grad_out.len(), batch * width, "grad shape mismatch");
        let mut grads: Vec<Tensor> = (0..f).map(|_| Tensor::zeros(batch, d)).collect();
        for (b, g) in grad_out.chunks_exact(width).enumerate() {
            // Pass-through part feeds features[0].
            grads[0].row_mut(b).copy_from_slice(&g[..d]);
            let mut k = d;
            for i in 0..f {
                // d(vi·vj)/dvi = vj, /dvj = vi — accumulated on whole row
                // slices (elementwise axpy keeps the per-element addition
                // order of the scalar loop it replaced).
                let (left, right) = grads.split_at_mut(i + 1);
                let gi_t = &mut left[i];
                for (jo, gj_t) in right.iter_mut().enumerate() {
                    let j = i + 1 + jo;
                    let gd = g[k];
                    k += 1;
                    if gd == 0.0 {
                        continue;
                    }
                    lanes::axpy(gi_t.row_mut(b), gd, features[j].row(b));
                    lanes::axpy(gj_t.row_mut(b), gd, features[i].row(b));
                }
            }
        }
        grads
    }
}

impl Default for Interaction {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_width_formula() {
        assert_eq!(Interaction::out_width(3, 4), 4 + 3);
        assert_eq!(Interaction::out_width(27, 16), 16 + 351);
    }

    #[test]
    fn forward_known_values() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let c = Tensor::from_vec(1, 2, vec![5.0, 6.0]);
        let mut out = [f32::NAN; 5];
        Interaction::new().forward(vec![a, b, c], &mut out);
        // [a0, a1, a·b, a·c, b·c] = [1, 2, 11, 17, 39]
        assert_eq!(out, [1.0, 2.0, 11.0, 17.0, 39.0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mk = |vals: &[f32]| Tensor::from_vec(2, 3, vals.to_vec());
        let f0 = mk(&[0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let f1 = mk(&[1.0, 0.2, -0.5, -1.2, 0.8, 0.1]);
        let f2 = mk(&[-0.3, 0.9, 0.4, 0.6, -1.1, 0.2]);
        let feats = vec![f0, f1, f2];
        let objective = |feats: &[Tensor]| {
            let mut out = vec![0.0; 2 * Interaction::out_width(3, 3)];
            Interaction::new().forward(feats.to_vec(), &mut out);
            out.iter().sum::<f32>()
        };
        let mut op = Interaction::new();
        let mut out = vec![0.0; 2 * Interaction::out_width(3, 3)];
        op.forward(feats.clone(), &mut out);
        let grads = op.backward(&vec![1.0; out.len()]);
        let eps = 1e-3;
        for fi in 0..3 {
            for b in 0..2 {
                for c in 0..3 {
                    let mut pp = feats.clone();
                    pp[fi].set(b, c, feats[fi].get(b, c) + eps);
                    let mut pm = feats.clone();
                    pm[fi].set(b, c, feats[fi].get(b, c) - eps);
                    let numeric = (objective(&pp) - objective(&pm)) / (2.0 * eps);
                    let analytic = grads[fi].get(b, c);
                    assert!(
                        (numeric - analytic).abs() / numeric.abs().max(1.0) < 1e-2,
                        "feature {fi} ({b},{c}): analytic {analytic} vs numeric {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature shape mismatch")]
    fn rejects_mixed_widths() {
        let a = Tensor::zeros(1, 2);
        let b = Tensor::zeros(1, 3);
        Interaction::new().forward(vec![a, b], &mut [0.0; 3]);
    }
}
