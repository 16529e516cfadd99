//! Scaled dot-product attention pooling over variable-length behaviour
//! sequences — the TBSM head.
//!
//! For each sample, the query `q` (user + context) attends over the
//! sequence vectors `v_1..v_L` (item embeddings):
//!
//! `s_t = q·v_t / √d`, `α = softmax(s)`, `context = Σ_t α_t v_t`.
//!
//! Sequences are ragged: every sample's vectors lie back to back in one
//! `total × d` tensor, and `batch + 1` offsets (counted in vectors) say
//! where each sample's run starts. The op reads its queries from and
//! writes its contexts into TBSM's top-MLP input, `[context ; query]` per
//! sample, so neither is copied.

use fae_nn::{lanes, Tensor};

/// Differentiable attention pooling. Its buffers are kept between
/// batches and reused.
pub struct AttentionPool {
    /// The last forward's sequence vectors.
    vectors: Tensor,
    /// Their `batch + 1` sample boundaries.
    offsets: Vec<usize>,
    /// Attention weights, one per sequence vector.
    alphas: Vec<f32>,
    d_alpha: Vec<f32>,
}

impl AttentionPool {
    /// Creates the op.
    pub fn new() -> Self {
        Self {
            vectors: Tensor::zeros(0, 0),
            offsets: Vec::new(),
            alphas: Vec::new(),
            d_alpha: Vec::new(),
        }
    }

    /// Pools each sample's sequence. `z` holds one `[context ; query]`
    /// row of `2 · vectors.cols()` per sample: the query half is read and
    /// the context half written. Samples with empty sequences get a zero
    /// context. `vectors` is kept for the backward pass, so it is taken by
    /// value.
    pub fn forward(&mut self, vectors: Tensor, offsets: &[usize], z: &mut [f32]) {
        let d = vectors.cols();
        let batch = offsets.len() - 1;
        assert_eq!(z.len(), batch * 2 * d, "seq/query batch mismatch");
        assert!(
            offsets[0] == 0 && offsets[batch] == vectors.rows(),
            "offsets must span the sequence vectors"
        );
        let scale = 1.0 / (d as f32).sqrt();
        self.alphas.resize(vectors.rows(), 0.0);
        for (i, row) in z.chunks_exact_mut(2 * d).enumerate() {
            let (ctx, q) = row.split_at_mut(d);
            ctx.fill(0.0);
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let scores = &mut self.alphas[lo..hi];
            if scores.is_empty() {
                continue;
            }
            let seq = &vectors.as_slice()[lo * d..hi * d];
            lanes::dots(q, seq, scores);
            for s in scores.iter_mut() {
                *s *= scale;
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
            for (&a, v) in scores.iter().zip(seq.chunks_exact(d)) {
                for (cv, &v) in ctx.iter_mut().zip(v) {
                    *cv += a * v;
                }
            }
        }
        self.vectors = vectors;
        self.offsets.clear();
        self.offsets.extend_from_slice(offsets);
    }

    /// Backward pass from `dz`, the gradient of the `[context ; query]`
    /// rows `z` the forward saw. Writes d loss / d query into `d_query`
    /// (`batch × d`): `dz`'s query half plus the part that flows through
    /// the attention. Returns d loss / d vectors, laid out as the vectors
    /// and written over them, so each forward takes one backward.
    pub fn backward(&mut self, z: &[f32], dz: &[f32], d_query: &mut [f32]) -> &[f32] {
        let d = self.vectors.cols();
        let batch = self.offsets.len().saturating_sub(1);
        assert!(dz.len() == batch * 2 * d && z.len() == dz.len(), "grad shape mismatch");
        assert_eq!(d_query.len(), batch * d, "query grad shape mismatch");
        let scale = 1.0 / (d as f32).sqrt();
        let vectors = self.vectors.as_mut_slice();
        self.d_alpha.resize(self.alphas.len(), 0.0);
        // Every vector belongs to exactly one sample. Once that sample has
        // read it, its gradient is written over it, as the `+0.0` a fresh
        // buffer started from plus its one term.
        for (i, dq) in d_query.chunks_exact_mut(d).enumerate() {
            let (dc, direct) = dz[i * 2 * d..(i + 1) * 2 * d].split_at(d);
            let q = &z[i * 2 * d + d..(i + 1) * 2 * d];
            dq.fill(0.0);
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            if lo < hi {
                let (alpha, seq) = (&self.alphas[lo..hi], &mut vectors[lo * d..hi * d]);
                // dα_t = dc·v_t ; accumulate dv_t += α_t · dc.
                let d_alpha = &mut self.d_alpha[lo..hi];
                lanes::dots(dc, seq, d_alpha);
                // Softmax backward: ds_t = α_t (dα_t − Σ_j α_j dα_j).
                let dot: f32 = alpha.iter().zip(&*d_alpha).map(|(&a, &g)| a * g).sum();
                for ((&a, &g), vec) in alpha.iter().zip(&*d_alpha).zip(seq.chunks_exact_mut(d)) {
                    let ds = a * (g - dot) * scale;
                    for (((v, dq), &dc), &q) in vec.iter_mut().zip(dq.iter_mut()).zip(dc).zip(q) {
                        *dq += ds * *v;
                        *v = 0.0 + (a * dc + ds * q);
                    }
                }
            }
            for (g, &direct) in dq.iter_mut().zip(direct) {
                #[expect(
                    clippy::assign_op_pattern,
                    reason = "direct + attention is the operand order of the sum this replaced"
                )]
                {
                    *g = direct + *g;
                }
            }
        }
        self.vectors.as_slice()
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

    /// `[context ; query]` rows with a zero context half.
    fn rows_of(q: &[f32], dim: usize) -> Vec<f32> {
        q.chunks(dim).flat_map(|q| std::iter::repeat_n(0.0, dim).chain(q.iter().copied())).collect()
    }

    /// The context halves of `z`.
    fn contexts(z: &[f32], dim: usize) -> Vec<f32> {
        z.chunks(2 * dim).flat_map(|r| r[..dim].to_vec()).collect()
    }

    fn pool(offsets: &[usize], data: &[f32], dim: usize, q: &[f32]) -> (AttentionPool, Vec<f32>) {
        let vectors = Tensor::from_vec(data.len() / dim, dim, data.to_vec());
        let mut z = rows_of(q, dim);
        let mut att = AttentionPool::new();
        att.forward(vectors, offsets, &mut z);
        (att, z)
    }

    #[test]
    fn single_vector_sequence_passes_through() {
        // With one vector, α = 1 and context == the vector.
        let (_, z) = pool(&[0, 1], &[3.0, -2.0], 2, &[0.5, 0.5]);
        assert_eq!(contexts(&z, 2), vec![3.0, -2.0]);
    }

    #[test]
    fn attention_prefers_aligned_vectors() {
        // Two vectors; the one aligned with the query should dominate.
        let (_, z) = pool(&[0, 2], &[10.0, 0.0, 0.0, 10.0], 2, &[5.0, 0.0]);
        assert!(z[0] > 9.0, "context {:?}", &z[..2]);
        assert!(z[1] < 1.0);
    }

    #[test]
    fn empty_sequence_gives_zero_context() {
        let (mut att, mut z) = pool(&[0, 0, 1], &[1.0, 1.0], 2, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(contexts(&z, 2), vec![0.0, 0.0, 1.0, 1.0]);
        // Backward gives the empty sample only its direct query gradient.
        let dz = vec![1.0; 8];
        let mut dq = vec![f32::NAN; 4];
        let ds = att.backward(&z, &dz, &mut dq);
        assert!(ds.iter().all(|v| v.is_finite()));
        assert_eq!(&dq[..2], &[1.0, 1.0]);
        // A stale context half is overwritten, not accumulated onto.
        z[0] = 7.0;
        let vectors = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        att.forward(vectors, &[0, 0, 1], &mut z);
        assert_eq!(contexts(&z, 2), vec![0.0, 0.0, 1.0, 1.0]);
    }

    /// A seeded value; about a quarter are `+0.0`, `-0.0` or subnormal.
    fn seeded(i: usize, salt: u64) -> f32 {
        let h = (i as u64 ^ salt << 40).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = h ^ (h >> 29);
        match h % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(((h >> 32) as u32 & 0x807f_ffff) | 1),
            _ => ((h >> 40) % 2001) as f32 / 1000.0 - 1.0,
        }
    }

    /// FNV-1a 64 over every element's `to_bits`, continuing from `h`.
    fn fnv(h: u64, v: &[f32]) -> u64 {
        let bytes = v.iter().flat_map(|x| x.to_bits().to_le_bytes());
        bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3))
    }

    /// Printed by the per-index `row` walk, at d = 16 and d = 3. A change
    /// that is meant to move them prints the table to paste.
    const PINS: [u64; 2] = [0xae35fd9967c85f03, 0xf255af2a2f3fff72];

    #[test]
    fn contexts_and_gradients_are_pinned() {
        // Two batches on one op, the second smaller, so a stale buffer
        // shows. Lengths `(7i + salt) mod 10` take every value 0–9.
        let got = [16, 3].map(|d| {
            let mut att = AttentionPool::new();
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (batch, salt) in [(20, 1), (7, 2)] {
                let mut offsets = vec![0];
                for i in 0..batch {
                    offsets.push(offsets[i] + (7 * i + salt as usize) % 10);
                }
                let total = offsets[batch];
                let data = (0..total * d).map(|i| seeded(i, salt)).collect();
                let mut z: Vec<f32> = (0..batch * 2 * d).map(|i| seeded(i, salt + 10)).collect();
                let dz: Vec<f32> = (0..batch * 2 * d).map(|i| seeded(i, salt + 20)).collect();
                let mut dq = vec![f32::NAN; batch * d];
                att.forward(Tensor::from_vec(total, d, data), &offsets, &mut z);
                h = fnv(fnv(h, &z), att.backward(&z, &dz, &mut dq));
                h = fnv(h, &dq);
            }
            h
        });
        assert_eq!(got, PINS, "attention moved; the table is now {got:#018x?}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let dim = 3;
        let offsets = [0, 2, 5];
        let data = [
            0.5, -0.2, 0.8, /* s0 v0 */
            -0.4, 0.9, 0.1, /* s0 v1 */
            0.3, 0.3, -0.6, /* s1 v0 */
            0.7, -0.8, 0.2, /* s1 v1 */
            -0.1, 0.4, 0.5, /* s1 v2 */
        ];
        let q = [0.6, -0.3, 0.2, -0.5, 0.1, 0.9];
        // The objective sums the contexts only, so dz's query half is 0.
        let objective = |data: &[f32], q: &[f32]| -> f32 {
            let (_, z) = pool(&offsets, data, dim, q);
            contexts(&z, dim).iter().sum()
        };
        let (mut att, z) = pool(&offsets, &data, dim, &q);
        let dz: Vec<f32> = (0..2).flat_map(|_| [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]).collect();
        let mut dq = vec![0.0; 6];
        let ds = att.backward(&z, &dz, &mut dq).to_vec();
        let eps = 1e-3;
        for k in 0..data.len() {
            let mut sp = data;
            sp[k] += eps;
            let mut sm = data;
            sm[k] -= eps;
            let numeric = (objective(&sp, &q) - objective(&sm, &q)) / (2.0 * eps);
            assert!(
                (ds[k] - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
                "seq grad {k}: analytic {} vs numeric {numeric}",
                ds[k]
            );
        }
        for k in 0..q.len() {
            let mut qp = q;
            qp[k] += eps;
            let mut qm = q;
            qm[k] -= eps;
            let numeric = (objective(&data, &qp) - objective(&data, &qm)) / (2.0 * eps);
            assert!(
                (dq[k] - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
                "query grad {k}: analytic {} vs numeric {numeric}",
                dq[k]
            );
        }
    }
}
