//! Op-level shape of one recommendation model, as seen by the cost model.
//!
//! This deliberately lives apart from `fae-models` so that *paper-scale*
//! model shapes (61 GB of embeddings) can be costed without materialising
//! weights. `fae-models` provides a bridge that builds a profile from a
//! workload spec.

use serde::{Deserialize, Serialize};

/// Shape parameters the cost model needs for one model + workload pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Dense (continuous) input features.
    pub dense_features: usize,
    /// Bottom-MLP layer widths (first entry == `dense_features`).
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP layer widths (last entry == 1).
    pub top_mlp: Vec<usize>,
    /// Embedding dimension.
    pub emb_dim: usize,
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Total sparse lookups per sample across all tables (per-table
    /// sequence lengths summed; 26 for DLRM-Criteo, ~43 for TBSM-Taobao).
    pub lookups_per_sample: usize,
    /// Extra per-sample FLOPs outside the MLPs (TBSM's attention layer).
    pub extra_flops_per_sample: f64,
    /// Bytes of the hot-embedding bag replicated on each GPU (0 when the
    /// profile is used for pure baseline costing).
    pub hot_emb_bytes: f64,
    /// Bytes of the full embedding tables (CPU-resident).
    pub full_emb_bytes: f64,
    /// Host-side per-sample preparation cost (seconds) paid in *every*
    /// mode: ragged-sequence batching, feature assembly. Large for TBSM
    /// (per-timestep handling of up-to-21-step behaviour sequences),
    /// negligible for DLRM.
    pub host_prep_per_sample: f64,
    /// Extra CPU-side per-sample embedding cost (seconds) paid only when
    /// embeddings execute on the CPU (baseline / cold batches): per-step
    /// operator dispatch over sequence elements, ragged gathers. Zero for
    /// single-lookup DLRM fields.
    pub cpu_embed_per_sample: f64,
}

impl ModelProfile {
    /// MACs in one MLP forward pass for a single sample.
    fn mlp_macs(widths: &[usize]) -> f64 {
        widths.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
    }

    /// Trainable dense parameters (MLP weights + biases).
    pub fn dense_params(&self) -> f64 {
        let count =
            |w: &[usize]| -> f64 { w.windows(2).map(|p| (p[0] * p[1] + p[1]) as f64).sum() };
        count(&self.bottom_mlp) + count(&self.top_mlp)
    }

    /// FLOPs for a forward pass over `batch` samples: both MLPs, the
    /// pairwise-interaction op, and any extra (attention) math.
    pub fn forward_flops(&self, batch: usize) -> f64 {
        let per_sample = 2.0 * (Self::mlp_macs(&self.bottom_mlp) + Self::mlp_macs(&self.top_mlp))
            + self.interaction_flops_per_sample()
            + self.extra_flops_per_sample;
        per_sample * batch as f64
    }

    /// FLOPs for the backward pass (standard ≈2× forward for MLP stacks).
    pub fn backward_flops(&self, batch: usize) -> f64 {
        2.0 * self.forward_flops(batch)
    }

    /// DLRM's dot-product feature interaction: all pairs among
    /// `num_tables + 1` feature vectors of width `emb_dim`.
    fn interaction_flops_per_sample(&self) -> f64 {
        let f = (self.num_tables + 1) as f64;
        f * f * self.emb_dim as f64
    }

    /// Number of dense-layer operator launches per forward pass (one GEMM +
    /// one activation per layer, plus the interaction).
    pub fn ops_per_forward(&self) -> usize {
        2 * (self.bottom_mlp.len() - 1) + 2 * (self.top_mlp.len() - 1) + 1
    }

    /// Embedding bytes gathered per sample during the forward pass.
    pub fn emb_gather_bytes_per_sample(&self) -> f64 {
        (self.lookups_per_sample * self.emb_dim * 4) as f64
    }

    /// Bytes of dense input features per sample.
    pub fn dense_input_bytes_per_sample(&self) -> f64 {
        (self.dense_features * 4) as f64
    }

    /// Embedding rows updated per sample by the sparse optimizer (upper
    /// bound: one per lookup).
    pub fn emb_rows_updated_per_sample(&self) -> f64 {
        self.lookups_per_sample as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kaggle_like() -> ModelProfile {
        ModelProfile {
            dense_features: 13,
            bottom_mlp: vec![13, 512, 256, 64, 16],
            top_mlp: vec![512, 256, 1],
            emb_dim: 16,
            num_tables: 26,
            lookups_per_sample: 26,
            extra_flops_per_sample: 0.0,
            hot_emb_bytes: 0.0,
            full_emb_bytes: 2e9,
            host_prep_per_sample: 0.0,
            cpu_embed_per_sample: 0.0,
        }
    }

    #[test]
    fn dense_params_hand_count() {
        let p = ModelProfile {
            dense_features: 2,
            bottom_mlp: vec![2, 3],
            top_mlp: vec![4, 1],
            emb_dim: 4,
            num_tables: 1,
            lookups_per_sample: 1,
            extra_flops_per_sample: 0.0,
            hot_emb_bytes: 0.0,
            full_emb_bytes: 0.0,
            host_prep_per_sample: 0.0,
            cpu_embed_per_sample: 0.0,
        };
        // (2*3+3) + (4*1+1) = 9 + 5 = 14.
        assert_eq!(p.dense_params(), 14.0);
    }

    #[test]
    fn forward_flops_scale_linearly_with_batch() {
        let p = kaggle_like();
        let f1 = p.forward_flops(1);
        let f1024 = p.forward_flops(1024);
        assert!((f1024 / f1 - 1024.0).abs() < 1e-6);
        assert!((p.backward_flops(64) / p.forward_flops(64) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn byte_accounting() {
        let p = kaggle_like();
        assert_eq!(p.emb_gather_bytes_per_sample(), 26.0 * 16.0 * 4.0);
        assert_eq!(p.dense_input_bytes_per_sample(), 52.0);
        assert_eq!(p.emb_rows_updated_per_sample(), 26.0);
    }

    #[test]
    fn attention_flops_add_on_top() {
        let mut p = kaggle_like();
        let base = p.forward_flops(10);
        p.extra_flops_per_sample = 1e6;
        assert!((p.forward_flops(10) - base - 1e7).abs() < 1.0);
    }
}
