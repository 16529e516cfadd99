//! DLRM's pairwise dot-product feature interaction.
//!
//! Given `F` feature vectors per sample (the bottom-MLP output plus one
//! pooled embedding per table, all of width `d`), the interaction emits
//! the bottom-MLP output concatenated with the `F·(F-1)/2` pairwise dot
//! products — the `dot` interaction of the open-source DLRM.
//!
//! The forward lays each block of [`lanes::BLOCK`] samples out
//! feature-major and takes every pair's dot in all of them at once
//! ([`lanes::block_dots`], 8 partial sums per sample); a short last block
//! is padded with zeros whose lanes are dropped. The backward runs one
//! sample at a time through [`lanes::pair_grads`], the register tile over
//! the sample's coefficient matrix. The block, the coefficient matrix and
//! the `F` gradient tensors are kept between steps.

use fae_nn::{lanes, Tensor};

/// Differentiable pairwise-dot interaction over `features` tensors of
/// identical `batch × d` shape. `features[0]` is the bottom-MLP output
/// that also passes through to the output.
#[derive(Default)]
pub struct Interaction {
    cached: Option<Vec<Tensor>>,
    /// One block of samples, feature-major, then its pair dots.
    block: Vec<f32>,
    dots: Vec<f32>,
    /// One sample's vectors, its gradients and its coefficient matrix.
    vectors: Vec<f32>,
    grad: Vec<f32>,
    coef: Vec<f32>,
    /// Backward's output, one `batch × d` tensor per feature.
    grads: Vec<Tensor>,
}

impl Interaction {
    /// Creates the op.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output width for `f` features of width `d`: `d + f·(f-1)/2`.
    pub fn out_width(f: usize, d: usize) -> usize {
        d + f * (f - 1) / 2
    }

    /// Forward pass into `out` (`batch × out_width`, every element
    /// written); caches the features for backward.
    pub fn forward(&mut self, features: Vec<Tensor>, out: &mut [f32]) {
        const B: usize = lanes::BLOCK;
        let f = features.len();
        assert!(f >= 2, "interaction needs at least two features");
        let (batch, d) = features[0].shape();
        assert!(features.iter().all(|t| t.shape() == (batch, d)), "feature shape mismatch");
        let width = Self::out_width(f, d);
        assert_eq!(out.len(), batch * width, "interaction output size mismatch");
        self.block.resize(f * d * B, 0.0);
        self.dots.resize((width - d) * B, 0.0);
        for (first, rows) in (0..).step_by(B).zip(out.chunks_mut(B * width)) {
            let n = rows.len() / width;
            if n < B {
                self.block.fill(0.0);
            }
            for (t, block) in features.iter().zip(self.block.chunks_exact_mut(d * B)) {
                for (s, row) in (first..first + n).enumerate() {
                    for (e, &x) in t.row(row).iter().enumerate() {
                        block[e * B + s] = x;
                    }
                }
            }
            lanes::block_dots(&self.block, f, &mut self.dots);
            for (s, row) in rows.chunks_exact_mut(width).enumerate() {
                row[..d].copy_from_slice(features[0].row(first + s));
                for (o, pair) in row[d..].iter_mut().zip(self.dots.chunks_exact(B)) {
                    *o = pair[s];
                }
            }
        }
        self.cached = Some(features);
    }

    /// Backward pass: splits the upstream gradient (`batch × out_width`,
    /// row-major) back onto each feature, `batch × d` each.
    pub fn backward(&mut self, grad_out: &[f32]) -> &[Tensor] {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let features = self.cached.take().expect("Interaction::backward before forward");
        let f = features.len();
        let (batch, d) = features[0].shape();
        let width = Self::out_width(f, d);
        assert_eq!(grad_out.len(), batch * width, "grad shape mismatch");
        self.grads.resize_with(f, || Tensor::zeros(0, 0));
        self.grads.iter_mut().for_each(|t| t.resize(batch, d));
        self.vectors.resize(f * d, 0.0);
        self.grad.resize(f * d, 0.0);
        self.coef.resize(f * f, 0.0);
        for (b, g) in grad_out.chunks_exact(width).enumerate() {
            for (v, t) in self.vectors.chunks_exact_mut(d).zip(&features) {
                v.copy_from_slice(t.row(b));
            }
            // The pass-through feeds features[0]; the rest start at +0.0.
            self.grad[..d].copy_from_slice(&g[..d]);
            self.grad[d..].fill(0.0);
            lanes::pair_grads(&g[d..], &self.vectors, f, &mut self.coef, &mut self.grad);
            for (o, t) in self.grad.chunks_exact(d).zip(&mut self.grads) {
                t.row_mut(b).copy_from_slice(o);
            }
        }
        &self.grads
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
        let grads = op.backward(&vec![1.0; out.len()]).to_vec();
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
