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
use fae_embed::{RowSet, SparseGrad};
use fae_nn::{Activation, Mlp, Tensor};

use crate::attention::AttentionPool;
use crate::dlrm::copy_bags;
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
    /// Set by `forward`, cleared by `backward`.
    forwarded: bool,
    /// The last forward's flat item stream; its offsets stay with the
    /// attention.
    items: Vec<u32>,
    categories: TableIndices,
    users: TableIndices,
    /// Backward's d loss / d query and each category's share of it.
    d_query: Vec<f32>,
    d_cat: Vec<f32>,
    /// Backward's distinct rows per table, rebuilt every step.
    sets: [RowSet; 3],
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
            forwarded: false,
            items: Vec::new(),
            categories: TableIndices::new(),
            users: TableIndices::new(),
            d_query: Vec::new(),
            d_cat: Vec::new(),
            sets: [ITEMS, CATEGORIES, USERS].map(|t| RowSet::new(spec.tables[t].rows)),
        }
    }
}

impl RecModel for Tbsm {
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor {
        assert_eq!(batch.sparse.len(), 3, "TBSM batch must carry 3 tables");
        assert_eq!(batch.dense_width, self.bottom.sizes()[0], "dense width mismatch");
        let n = batch.len();
        let d = self.emb_dim;
        self.bottom.input_mut(n).copy_from_slice(&batch.dense);
        let bottom_out = self.bottom.forward_tape();

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

        // The top MLP's input is `[context ; query]` per sample: the query
        // half is written here, the context half by the attention.
        let z = self.top.input_mut(n);
        for (i, (row, b)) in z.chunks_exact_mut(2 * d).zip(bottom_out.chunks_exact(d)).enumerate() {
            let parts = b.iter().zip(user_emb.row(i)).zip(cat_mean.row(i));
            for (q, ((&b, &u), &c)) in row[d..].iter_mut().zip(parts) {
                *q = b + u + c;
            }
        }

        // Item behaviour sequence: one embedding row per step.
        let items = &batch.sparse[ITEMS];
        self.attention.forward(emb.lookup_rows(ITEMS, &items.indices), &items.offsets, z);

        self.items.clone_from(&items.indices);
        copy_bags(&mut self.categories, cats);
        copy_bags(&mut self.users, users);
        self.forwarded = true;
        Tensor::from_vec(n, 1, self.top.forward_tape().to_vec())
    }

    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad> {
        assert!(std::mem::take(&mut self.forwarded), "Tbsm::backward called before forward");
        let (n, d) = (grad.rows(), self.emb_dim);
        self.top.backward_tape(grad.as_slice(), true);
        self.d_query.resize(n * d, 0.0);
        let d_seq =
            self.attention.backward(self.top.input(), self.top.input_grad(), &mut self.d_query);

        // Query fans out to bottom MLP, user embedding, category mean.
        self.bottom.backward_tape(&self.d_query, false);

        // Each category of a sample's bag receives its mean's share.
        self.d_cat.resize(n * d, 0.0);
        for (i, (o, g)) in
            self.d_cat.chunks_exact_mut(d).zip(self.d_query.chunks_exact(d)).enumerate()
        {
            let ln = self.categories.bag(i).len().max(1) as f32;
            for (o, &g) in o.iter_mut().zip(g) {
                *o = g / ln;
            }
        }
        let [items, cats, users] = &mut self.sets;
        items.build(&self.items);
        cats.build(&self.categories.indices);
        users.build(&self.users.indices);
        // Sequence step `p` of the flat item stream owns `d_seq` vector `p`.
        let item_grads = SparseGrad::sum(items, d, d_seq.chunks_exact(d));
        let cat_grads = SparseGrad::sum_bags(cats, &self.categories.offsets, d, &self.d_cat);
        let user_grads = SparseGrad::sum_bags(users, &self.users.offsets, d, &self.d_query);
        vec![item_grads, cat_grads, user_grads]
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
    fn every_product_stays_on_one_thread_at_the_minibatch_size() {
        // TBSM steps are ms-scale: a scoped spawn per product would cost
        // more than half the product saves.
        let spec = WorkloadSpec::rmc1_taobao();
        let model = Tbsm::from_spec(&spec, &mut StdRng::seed_from_u64(1));
        let b = spec.minibatch_size;
        let layers = [&model.bottom, &model.top].into_iter().flat_map(|mlp| mlp.sizes().windows(2));
        let mut products: Vec<usize> = layers.map(|w| b * w[0] * w[1]).collect();
        // Attention: one score and one context term per step and dimension.
        products.push(b * spec.tables[ITEMS].lookups_per_input * spec.embedding_dim);
        for work in products {
            assert!(work < fae_nn::tensor::SPLIT_THRESHOLD, "{work} multiply-adds would split");
        }
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
