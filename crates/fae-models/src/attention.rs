//! Scaled dot-product attention pooling over variable-length behaviour
//! sequences — the TBSM head.
//!
//! For each sample, the query `q` (user + context) attends over the
//! sequence vectors `v_1..v_L` (item embeddings):
//!
//! `s_t = q·v_t / √d`, `α = softmax(s)`, `context = Σ_t α_t v_t`.
//!
//! Sequences are ragged, so they travel in CSR-of-vectors form
//! ([`SeqBatch`]).

use fae_nn::Tensor;

/// A ragged batch of vector sequences: sample `i` owns vectors
/// `offsets[i]..offsets[i+1]`, each of width `dim`, stored contiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqBatch {
    /// Flat vector data, `total_vectors × dim` row-major.
    pub data: Vec<f32>,
    /// `batch + 1` boundaries, counted in vectors.
    pub offsets: Vec<usize>,
    /// Vector width.
    pub dim: usize,
}

impl SeqBatch {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector `t` of sample `i`.
    pub fn vector(&self, i: usize, t: usize) -> &[f32] {
        let v = self.offsets[i] + t;
        &self.data[v * self.dim..(v + 1) * self.dim]
    }
}

struct Cache {
    seq: SeqBatch,
    query: Tensor,
    /// Attention weights, one per sequence vector, laid out as
    /// `seq.offsets` lays out the vectors.
    alphas: Vec<f32>,
}

/// Differentiable attention pooling.
pub struct AttentionPool {
    cached: Option<Cache>,
}

impl AttentionPool {
    /// Creates the op.
    pub fn new() -> Self {
        Self { cached: None }
    }

    /// Pools each sample's sequence into one context vector. Samples with
    /// empty sequences yield a zero context. `seq` is kept for the
    /// backward pass, so it is taken by value.
    pub fn forward(&mut self, seq: SeqBatch, query: &Tensor) -> Tensor {
        let (batch, d) = query.shape();
        assert_eq!(seq.len(), batch, "seq/query batch mismatch");
        assert_eq!(seq.dim, d, "seq/query width mismatch");
        let scale = 1.0 / (d as f32).sqrt();
        let mut ctx = Tensor::zeros(batch, d);
        let mut alphas = vec![0.0f32; seq.offsets[batch]];
        for i in 0..batch {
            let scores = &mut alphas[seq.offsets[i]..seq.offsets[i + 1]];
            if scores.is_empty() {
                continue;
            }
            let q = query.row(i);
            for (t, s) in scores.iter_mut().enumerate() {
                *s = q.iter().zip(seq.vector(i, t)).map(|(&a, &b)| a * b).sum::<f32>() * scale;
            }
            // Stable softmax.
            let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            for s in scores.iter_mut() {
                *s /= sum;
            }
            let c = ctx.row_mut(i);
            for (t, &a) in scores.iter().enumerate() {
                for (cv, &v) in c.iter_mut().zip(seq.vector(i, t)) {
                    *cv += a * v;
                }
            }
        }
        self.cached = Some(Cache { seq, query: query.clone(), alphas });
        ctx
    }

    /// Backward pass: returns gradients for the sequence vectors (same
    /// ragged layout) and the query.
    pub fn backward(&mut self, grad_ctx: &Tensor) -> (SeqBatch, Tensor) {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let Cache { seq, query, alphas } =
            self.cached.take().expect("AttentionPool::backward before forward");
        let (batch, d) = query.shape();
        assert_eq!(grad_ctx.shape(), (batch, d), "grad shape mismatch");
        let scale = 1.0 / (d as f32).sqrt();
        let mut d_seq = vec![0.0f32; seq.data.len()];
        let mut d_query = Tensor::zeros(batch, d);
        let mut d_alpha = Vec::new();
        for i in 0..batch {
            let (lo, hi) = (seq.offsets[i], seq.offsets[i + 1]);
            if lo == hi {
                continue;
            }
            let alpha = &alphas[lo..hi];
            let dc = grad_ctx.row(i);
            // dα_t = dc·v_t ; accumulate dv_t += α_t · dc.
            d_alpha.clear();
            d_alpha.extend(
                (0..hi - lo)
                    .map(|t| dc.iter().zip(seq.vector(i, t)).map(|(&a, &b)| a * b).sum::<f32>()),
            );
            // Softmax backward: ds_t = α_t (dα_t − Σ_j α_j dα_j).
            let dot: f32 = alpha.iter().zip(&d_alpha).map(|(&a, &g)| a * g).sum();
            let q = query.row(i);
            let dq = d_query.row_mut(i);
            for t in 0..hi - lo {
                let ds = alpha[t] * (d_alpha[t] - dot) * scale;
                let v = seq.vector(i, t);
                let dv = &mut d_seq[(lo + t) * d..(lo + t + 1) * d];
                for c in 0..d {
                    dv[c] += alpha[t] * dc[c] + ds * q[c];
                    dq[c] += ds * v[c];
                }
            }
        }
        (SeqBatch { data: d_seq, offsets: seq.offsets, dim: d }, d_query)
    }
}

impl Default for AttentionPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(offsets: Vec<usize>, data: Vec<f32>, dim: usize) -> SeqBatch {
        SeqBatch { data, offsets, dim }
    }

    #[test]
    fn single_vector_sequence_passes_through() {
        // With one vector, α = 1 and context == the vector.
        let s = seq(vec![0, 1], vec![3.0, -2.0], 2);
        let q = Tensor::from_vec(1, 2, vec![0.5, 0.5]);
        let mut att = AttentionPool::new();
        let c = att.forward(s, &q);
        assert_eq!(c.as_slice(), &[3.0, -2.0]);
    }

    #[test]
    fn attention_prefers_aligned_vectors() {
        // Two vectors; the one aligned with the query should dominate.
        let s = seq(vec![0, 2], vec![10.0, 0.0, 0.0, 10.0], 2);
        let q = Tensor::from_vec(1, 2, vec![5.0, 0.0]);
        let mut att = AttentionPool::new();
        let c = att.forward(s, &q);
        assert!(c.get(0, 0) > 9.0, "context {:?}", c.as_slice());
        assert!(c.get(0, 1) < 1.0);
    }

    #[test]
    fn empty_sequence_gives_zero_context() {
        let s = seq(vec![0, 0, 1], vec![1.0, 1.0], 2);
        let q = Tensor::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let mut att = AttentionPool::new();
        let c = att.forward(s, &q);
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[1.0, 1.0]);
        // Backward should not touch the empty sample.
        let (ds, dq) = att.backward(&Tensor::full(2, 2, 1.0));
        assert!(ds.data.iter().all(|v| v.is_finite()));
        assert_eq!(dq.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let dim = 3;
        let s = seq(
            vec![0, 2, 5],
            vec![
                0.5, -0.2, 0.8, /* s0 v0 */
                -0.4, 0.9, 0.1, /* s0 v1 */
                0.3, 0.3, -0.6, /* s1 v0 */
                0.7, -0.8, 0.2, /* s1 v1 */
                -0.1, 0.4, 0.5, /* s1 v2 */
            ],
            dim,
        );
        let q = Tensor::from_vec(2, 3, vec![0.6, -0.3, 0.2, -0.5, 0.1, 0.9]);
        let objective = |s: &SeqBatch, q: &Tensor| {
            let mut att = AttentionPool::new();
            att.forward(s.clone(), q).sum()
        };
        let mut att = AttentionPool::new();
        let c = att.forward(s.clone(), &q);
        let (ds, dq) = att.backward(&Tensor::full(c.rows(), c.cols(), 1.0));
        let eps = 1e-3;
        for k in 0..s.data.len() {
            let mut sp = s.clone();
            sp.data[k] += eps;
            let mut sm = s.clone();
            sm.data[k] -= eps;
            let numeric = (objective(&sp, &q) - objective(&sm, &q)) / (2.0 * eps);
            assert!(
                (ds.data[k] - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
                "seq grad {k}: analytic {} vs numeric {numeric}",
                ds.data[k]
            );
        }
        for r in 0..2 {
            for c in 0..3 {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let numeric = (objective(&s, &qp) - objective(&s, &qm)) / (2.0 * eps);
                assert!(
                    (dq.get(r, c) - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
                    "query grad ({r},{c}): analytic {} vs numeric {numeric}",
                    dq.get(r, c)
                );
            }
        }
    }
}
