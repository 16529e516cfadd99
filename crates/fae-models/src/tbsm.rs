//! Time-Based Sequence Model (Ishkhanov et al., the paper's RMC1
//! workload on Taobao).
//!
//! TBSM augments the DLRM embedding machinery with an attention layer over
//! the user's behaviour sequence. Our faithful-in-structure rendition
//! (documented as a substitution in DESIGN.md):
//!
//! * table 0 — item embeddings, one per behaviour-sequence step (ragged),
//! * table 1 — category embeddings, one per step, mean-pooled,
//! * table 2 — user embedding, one per sample,
//! * query `q = user + mean(categories) + bottomMLP(dense)`,
//! * context = scaled-dot-product attention of `q` over the item sequence,
//! * prediction = `σ(topMLP([context ; q]))`.

use rand::Rng;

use fae_data::{MiniBatch, TableIndices, WorkloadKind, WorkloadSpec};
use fae_embed::SparseGrad;
use fae_nn::{Activation, Layer, Mlp, Tensor};

use crate::attention::{AttentionPool, SeqBatch};
use crate::source::EmbeddingSource;
use crate::train::RecModel;

/// Table roles within a TBSM workload spec.
const ITEMS: usize = 0;
const CATEGORIES: usize = 1;
const USERS: usize = 2;

/// The TBSM model.
pub struct Tbsm {
    bottom: Mlp,
    top: Mlp,
    attention: AttentionPool,
    emb_dim: usize,
    cached: Option<CachedBatch>,
}

struct CachedBatch {
    /// The flat item stream; its offsets travel with the attention's
    /// sequence batch.
    items: Vec<u32>,
    categories: TableIndices,
    users: TableIndices,
}

impl Tbsm {
    /// Builds a TBSM matching `spec` (must be a [`WorkloadKind::Tbsm`]
    /// spec with exactly three tables). The top MLP's input width is
    /// derived as `2·embedding_dim` ([context ; query]).
    pub fn from_spec(spec: &WorkloadSpec, rng: &mut impl Rng) -> Self {
        assert_eq!(spec.kind, WorkloadKind::Tbsm, "Tbsm requires a TBSM spec");
        assert_eq!(spec.tables.len(), 3, "TBSM uses item/category/user tables");
        assert_eq!(
            spec.bottom_mlp.last().copied(),
            Some(spec.embedding_dim),
            "bottom MLP must emit embedding_dim features"
        );
        let mut top_sizes = spec.top_mlp.clone();
        top_sizes[0] = 2 * spec.embedding_dim;
        Self {
            bottom: Mlp::new(&spec.bottom_mlp, Activation::Relu, rng),
            top: Mlp::new(&top_sizes, Activation::Sigmoid, rng),
            attention: AttentionPool::new(),
            emb_dim: spec.embedding_dim,
            cached: None,
        }
    }
}

impl RecModel for Tbsm {
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor {
        assert_eq!(batch.sparse.len(), 3, "TBSM batch must carry 3 tables");
        let n = batch.len();
        let d = self.emb_dim;
        let dense = Tensor::from_vec(n, batch.dense_width, batch.dense.clone());
        let bottom_out = self.bottom.forward(&dense);

        let users = &batch.sparse[USERS];
        let user_emb = emb.lookup(USERS, &users.indices, &users.offsets);

        // Mean-pooled categories: sum-pool then scale per-sample by 1/len.
        let cats = &batch.sparse[CATEGORIES];
        let mut cat_mean = emb.lookup(CATEGORIES, &cats.indices, &cats.offsets);
        for i in 0..n {
            let ln = cats.bag(i).len().max(1) as f32;
            for v in cat_mean.row_mut(i) {
                *v /= ln;
            }
        }

        let query = bottom_out.add(&user_emb).add(&cat_mean);

        // Item behaviour sequence: one embedding row per step.
        let items = &batch.sparse[ITEMS];
        let item_rows = emb.lookup_rows(ITEMS, &items.indices);
        let seq = SeqBatch { data: item_rows.into_vec(), offsets: items.offsets.clone(), dim: d };
        let context = self.attention.forward(seq, &query);

        self.cached = Some(CachedBatch {
            items: items.indices.clone(),
            categories: cats.clone(),
            users: users.clone(),
        });
        self.top.forward(&Tensor::hcat(&[&context, &query]))
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        // fae-lint: allow(no-panic, reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently")
        let cached = self.cached.take().expect("Tbsm::backward called before forward");
        let d = self.emb_dim;
        let dz = self.top.backward(grad);
        let parts = dz.hsplit(&[d, d]);
        let (d_ctx, d_query_direct) = (&parts[0], &parts[1]);
        let (d_seq, d_query_att) = self.attention.backward(d_ctx);
        let d_query = d_query_direct.add(&d_query_att);

        // Query fans out to bottom MLP, user embedding, category mean.
        self.bottom.backward(&d_query);

        let CachedBatch { items, categories, users } = cached;
        // Each category of a sample's bag receives its mean's share.
        let mut d_cat = Tensor::zeros(d_query.rows(), d);
        for i in 0..d_query.rows() {
            let ln = categories.bag(i).len().max(1) as f32;
            for (o, &g) in d_cat.row_mut(i).iter_mut().zip(d_query.row(i)) {
                *o = g / ln;
            }
        }
        // Sequence step `p` of the flat item stream owns `d_seq` vector `p`.
        let item_grads = SparseGrad::scatter(d, &items, |p| &d_seq.data[p * d..(p + 1) * d]);
        let cat_grads =
            SparseGrad::scatter_bags(d, &categories.indices, &categories.offsets, &d_cat);
        let user_grads = SparseGrad::scatter_bags(d, &users.indices, &users.offsets, &d_query);
        vec![item_grads, cat_grads, user_grads]
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

    fn small_tbsm_spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::rmc1_taobao();
        s.tables[ITEMS].rows = 2_000;
        s.tables[CATEGORIES].rows = 200;
        s.tables[USERS].rows = 500;
        s
    }

    fn setup() -> (Tbsm, MasterEmbeddings, fae_data::Dataset) {
        let spec = small_tbsm_spec();
        let mut rng = StdRng::seed_from_u64(11);
        let model = Tbsm::from_spec(&spec, &mut rng);
        let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
        let ds = generate(&spec, &GenOptions::sized(13, 3_000));
        (model, emb, ds)
    }

    #[test]
    fn forward_shape_and_range() {
        let (mut model, emb, ds) = setup();
        let mb = MiniBatch::gather(&ds, &(0..16).collect::<Vec<_>>(), BatchKind::Unclassified);
        let pred = model.forward(&mb, &emb);
        assert_eq!(pred.shape(), (16, 1));
        assert!(pred.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p) && p.is_finite()));
    }

    #[test]
    fn backward_touches_exactly_the_batch_rows() {
        let (mut model, emb, ds) = setup();
        let mb = MiniBatch::gather(&ds, &[0, 1, 2], BatchKind::Unclassified);
        let pred = model.forward(&mb, &emb);
        let grads = model.backward(&Tensor::full(pred.rows(), 1, 0.1));
        for (t, g) in grads.iter().enumerate() {
            let touched: std::collections::BTreeSet<u32> =
                mb.sparse[t].indices.iter().copied().collect();
            assert_eq!(g.nnz_rows(), touched.len(), "table {t}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, mut emb, ds) = setup();
        let batches: Vec<MiniBatch> = (0..ds.len() / 64)
            .map(|i| {
                MiniBatch::gather(
                    &ds,
                    &(i * 64..(i + 1) * 64).collect::<Vec<_>>(),
                    BatchKind::Unclassified,
                )
            })
            .collect();
        let initial = evaluate(&mut model, &emb, &batches[..4]);
        for _ in 0..2 {
            for b in &batches {
                train_step(&mut model, &mut emb, b, 0.05);
            }
        }
        let fin = evaluate(&mut model, &emb, &batches[..4]);
        assert!(
            fin.loss < initial.loss,
            "TBSM loss did not fall: {} -> {}",
            initial.loss,
            fin.loss
        );
        assert!(fin.accuracy > 0.55, "TBSM accuracy only {}", fin.accuracy);
    }

    #[test]
    #[should_panic(expected = "requires a TBSM spec")]
    fn rejects_dlrm_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Tbsm::from_spec(&WorkloadSpec::tiny_test(), &mut rng);
    }
}
