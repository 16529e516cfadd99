//! Deep Learning Recommendation Model (Naumov et al., the paper's RMC2 and
//! RMC3 workloads).
//!
//! Architecture, per sample:
//!
//! ```text
//! dense features ──► bottom MLP ─┐
//! sparse field 1 ──► emb bag 1 ──┤
//!        ...                     ├──► pairwise-dot interaction ──► top MLP ──► σ
//! sparse field T ──► emb bag T ──┘
//! ```
//!
//! The top MLP's input width is derived from the interaction output
//! (`d + (T+1)·T/2`), replacing the nominal first entry of the spec's
//! `top_mlp`; hidden/output widths follow the spec.

use rand::Rng;

use fae_data::{MiniBatch, TableIndices, WorkloadSpec};
use fae_embed::SparseGrad;
use fae_nn::{Activation, Layer, Mlp, Tensor};

use crate::interaction::Interaction;
use crate::source::EmbeddingSource;
use crate::train::RecModel;

/// Scatters a pooled-bag output gradient back onto the rows each sample's
/// bag touched (the embedding half of the backward pass).
pub(crate) fn scatter_bag_grad(csr: &TableIndices, grad: &Tensor) -> SparseGrad {
    SparseGrad::scatter_bags(grad.cols(), &csr.indices, &csr.offsets, grad)
}

/// The DLRM model.
pub struct Dlrm {
    bottom: Mlp,
    top: Mlp,
    interaction: Interaction,
    num_tables: usize,
    emb_dim: usize,
    cached_sparse: Option<Vec<TableIndices>>,
}

impl Dlrm {
    /// Builds a DLRM matching `spec`. The spec's bottom MLP must end at
    /// the embedding dimension (as the paper's configs do).
    pub fn from_spec(spec: &WorkloadSpec, rng: &mut impl Rng) -> Self {
        assert_eq!(
            spec.bottom_mlp.last().copied(),
            Some(spec.embedding_dim),
            "bottom MLP must emit embedding_dim features"
        );
        let num_tables = spec.tables.len();
        let interaction_width = Interaction::out_width(num_tables + 1, spec.embedding_dim);
        let mut top_sizes = spec.top_mlp.clone();
        top_sizes[0] = interaction_width;
        Self {
            bottom: Mlp::new(&spec.bottom_mlp, Activation::Relu, rng),
            top: Mlp::new(&top_sizes, Activation::Sigmoid, rng),
            interaction: Interaction::new(),
            num_tables,
            emb_dim: spec.embedding_dim,
            cached_sparse: None,
        }
    }

    /// Embedding dimension.
    pub fn emb_dim(&self) -> usize {
        self.emb_dim
    }
}

impl RecModel for Dlrm {
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor {
        assert_eq!(batch.sparse.len(), self.num_tables, "table count mismatch");
        let n = batch.len();
        let dense = Tensor::from_vec(n, batch.dense_width, batch.dense.clone());
        let bottom_out = self.bottom.forward(&dense);
        let mut features = Vec::with_capacity(self.num_tables + 1);
        features.push(bottom_out);
        for (t, csr) in batch.sparse.iter().enumerate() {
            features.push(emb.lookup(t, &csr.indices, &csr.offsets));
        }
        let inter = self.interaction.forward(features);
        self.cached_sparse = Some(batch.sparse.clone());
        self.top.forward(&inter)
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        // fae-lint: allow(no-panic, reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently")
        let sparse = self.cached_sparse.take().expect("Dlrm::backward called before forward");
        let d_inter = self.top.backward(grad);
        let feature_grads = self.interaction.backward(&d_inter);
        self.bottom.backward(&feature_grads[0]);
        feature_grads[1..].iter().zip(&sparse).map(|(g, csr)| scatter_bag_grad(csr, g)).collect()
    }

    fn sgd_step(&mut self, lr: f32) {
        self.bottom.sgd_step(lr);
        self.top.sgd_step(lr);
    }

    fn zero_grad(&mut self) {
        self.bottom.zero_grad();
        self.top.zero_grad();
    }

    fn dense_param_count(&self) -> usize {
        self.bottom.param_count() + self.top.param_count()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        self.bottom.write_params(out);
        self.top.write_params(out);
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let n = self.bottom.read_params(src);
        n + self.top.read_params(&src[n..])
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        self.bottom.write_grads(out);
        self.top.write_grads(out);
    }

    fn read_grads(&mut self, src: &[f32]) -> usize {
        let n = self.bottom.read_grads(src);
        n + self.top.read_grads(&src[n..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MasterEmbeddings;
    use crate::train::{evaluate, train_step};
    use fae_data::{generate, BatchKind, GenOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (WorkloadSpec, Dlrm, MasterEmbeddings, fae_data::Dataset) {
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(42);
        let model = Dlrm::from_spec(&spec, &mut rng);
        let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
        let ds = generate(&spec, &GenOptions::sized(7, 2_000));
        (spec, model, emb, ds)
    }

    #[test]
    fn forward_emits_probabilities() {
        let (_, mut model, emb, ds) = setup();
        let mb = MiniBatch::gather(&ds, &(0..32).collect::<Vec<_>>(), BatchKind::Unclassified);
        let pred = model.forward(&mb, &emb);
        assert_eq!(pred.shape(), (32, 1));
        assert!(pred.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn backward_produces_grads_for_exactly_touched_rows() {
        let (_, mut model, emb, ds) = setup();
        let mb = MiniBatch::gather(&ds, &[0, 1], BatchKind::Unclassified);
        let pred = model.forward(&mb, &emb);
        let grads = model.backward(&Tensor::full(pred.rows(), 1, 1.0));
        assert_eq!(grads.len(), 4);
        for (t, g) in grads.iter().enumerate() {
            let touched: std::collections::BTreeSet<u32> =
                mb.sparse[t].indices.iter().copied().collect();
            assert_eq!(g.nnz_rows(), touched.len(), "table {t}");
            for (row, _) in g.iter() {
                assert!(touched.contains(&row));
            }
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (_, mut model, mut emb, ds) = setup();
        let n = ds.len();
        let batches: Vec<MiniBatch> = (0..n / 64)
            .map(|i| {
                let ids: Vec<usize> = (i * 64..(i + 1) * 64).collect();
                MiniBatch::gather(&ds, &ids, BatchKind::Unclassified)
            })
            .collect();
        let initial = evaluate(&mut model, &emb, &batches[..4]);
        for _ in 0..3 {
            for b in &batches {
                train_step(&mut model, &mut emb, b, 0.1);
            }
        }
        let fin = evaluate(&mut model, &emb, &batches[..4]);
        assert!(fin.loss < initial.loss, "loss {} -> {}", initial.loss, fin.loss);
        assert!(fin.accuracy > 0.60, "accuracy only {}", fin.accuracy);
    }

    #[test]
    fn scatter_bag_grad_matches_hand_count() {
        let mut csr = TableIndices::new();
        csr.push_bag(&[1, 2]);
        csr.push_bag(&[2]);
        let grad = Tensor::from_vec(2, 2, vec![1.0, 1.0, 10.0, 10.0]);
        let sg = scatter_bag_grad(&csr, &grad);
        assert_eq!(sg.get(1), Some(&[1.0, 1.0][..]));
        assert_eq!(sg.get(2), Some(&[11.0, 11.0][..]));
    }

    #[test]
    #[should_panic(expected = "bottom MLP must emit")]
    fn rejects_mismatched_bottom_mlp() {
        let mut spec = WorkloadSpec::tiny_test();
        spec.bottom_mlp = vec![4, 16, 7]; // 7 != embedding_dim 8
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Dlrm::from_spec(&spec, &mut rng);
    }
}
