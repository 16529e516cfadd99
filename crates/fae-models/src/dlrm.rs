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
use fae_embed::{RowSet, SparseGrad};
use fae_nn::{Activation, Mlp, Tensor};

use crate::interaction::Interaction;
use crate::source::EmbeddingSource;
use crate::train::RecModel;

/// Copies `src` into `dst`, reusing `dst`'s buffers.
pub(crate) fn copy_bags(dst: &mut TableIndices, src: &TableIndices) {
    dst.indices.clone_from(&src.indices);
    dst.offsets.clone_from(&src.offsets);
}

/// The DLRM model.
pub struct Dlrm {
    bottom: Mlp,
    top: Mlp,
    interaction: Interaction,
    num_tables: usize,
    emb_dim: usize,
    /// Set by `forward`, cleared by `backward`.
    forwarded: bool,
    /// The last forward's bags, one per table.
    sparse: Vec<TableIndices>,
    /// Backward's distinct rows per table, rebuilt every step.
    sets: Vec<RowSet>,
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
            forwarded: false,
            sparse: vec![TableIndices::new(); num_tables],
            sets: spec.tables.iter().map(|t| RowSet::new(t.rows)).collect(),
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
        assert_eq!(batch.dense_width, self.bottom.sizes()[0], "dense width mismatch");
        let n = batch.len();
        self.bottom.input_mut(n).copy_from_slice(&batch.dense);
        let bottom_out = self.bottom.forward_tape().to_vec();
        let mut features = Vec::with_capacity(self.num_tables + 1);
        features.push(Tensor::from_vec(n, self.emb_dim, bottom_out));
        for (t, csr) in batch.sparse.iter().enumerate() {
            features.push(emb.lookup(t, &csr.indices, &csr.offsets));
        }
        self.interaction.forward(features, self.top.input_mut(n));
        for (dst, src) in self.sparse.iter_mut().zip(&batch.sparse) {
            copy_bags(dst, src);
        }
        self.forwarded = true;
        Tensor::from_vec(n, 1, self.top.forward_tape().to_vec())
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        assert!(std::mem::take(&mut self.forwarded), "Dlrm::backward called before forward");
        self.top.backward_tape(grad.as_slice(), true);
        let feature_grads = self.interaction.backward(self.top.input_grad());
        self.bottom.backward_tape(feature_grads[0].as_slice(), false);
        let tables = feature_grads[1..].iter().zip(&self.sparse).zip(&mut self.sets);
        let grads = tables.map(|((g, csr), set)| {
            set.build(&csr.indices);
            SparseGrad::sum_bags(set, &csr.offsets, g.cols(), g.as_slice())
        });
        grads.collect()
    }

    fn mlps(&self) -> [&Mlp; 2] {
        [&self.bottom, &self.top]
    }

    fn mlps_mut(&mut self) -> [&mut Mlp; 2] {
        [&mut self.bottom, &mut self.top]
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
    fn kaggle_widest_products_split_at_batch_256() {
        let spec = WorkloadSpec::rmc2_kaggle();
        let model = Dlrm::from_spec(&spec, &mut StdRng::seed_from_u64(1));
        let layers: Vec<&[usize]> = [&model.bottom, &model.top]
            .into_iter()
            .flat_map(|mlp| mlp.sizes().windows(2))
            .collect();
        for (fan_in, fan_out) in [(367, 256), (512, 256)] {
            assert!(layers.contains(&&[fan_in, fan_out][..]), "no {fan_in}x{fan_out} layer");
            assert!(256 * fan_in * fan_out >= fae_nn::tensor::SPLIT_THRESHOLD);
        }
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
    #[should_panic(expected = "bottom MLP must emit")]
    fn rejects_mismatched_bottom_mlp() {
        let mut spec = WorkloadSpec::tiny_test();
        spec.bottom_mlp = vec![4, 16, 7]; // 7 != embedding_dim 8
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Dlrm::from_spec(&spec, &mut rng);
    }
}
