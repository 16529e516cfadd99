//! The model trait and the shared train/eval step.
//!
//! One training step is identical for DLRM and TBSM: forward through the
//! model against an [`EmbeddingSource`], binary cross-entropy on the click
//! label, backward, dense SGD inside the model, sparse SGD routed to the
//! embedding source. The FAE trainer in `fae-core` drives exactly this
//! function for both hot and cold mini-batches — only the source differs.

use fae_data::MiniBatch;
use fae_embed::SparseGrad;
use fae_nn::loss::{bce_loss, bce_loss_backward, binary_accuracy};
use fae_nn::{Layer, Mlp, Tensor};

use crate::source::EmbeddingSource;

/// A trainable recommendation model.
pub trait RecModel {
    /// Predicts click probabilities (`batch × 1`), caching activations.
    fn forward(&mut self, batch: &MiniBatch, emb: &dyn EmbeddingSource) -> Tensor;

    /// Backpropagates `grad` (d loss / d predictions), accumulating dense
    /// parameter gradients internally and returning per-table sparse
    /// embedding gradients keyed by *global* row ids.
    fn backward(&mut self, grad: &Tensor) -> Vec<SparseGrad>;

    /// The bottom and top MLPs, in that order: every dense parameter the
    /// model has. The dense-state methods below walk them.
    fn mlps(&self) -> [&Mlp; 2];

    /// [`RecModel::mlps`], mutably.
    fn mlps_mut(&mut self) -> [&mut Mlp; 2];

    /// Applies one SGD step to the dense parameters.
    fn sgd_step(&mut self, lr: f32) {
        for mlp in self.mlps_mut() {
            mlp.sgd_step(lr);
        }
    }

    /// Clears dense parameter gradients.
    fn zero_grad(&mut self) {
        for mlp in self.mlps_mut() {
            mlp.zero_grad();
        }
    }

    /// Number of trainable dense scalars.
    fn dense_param_count(&self) -> usize {
        self.mlps().iter().map(|mlp| mlp.param_count()).sum()
    }

    /// Flattens the dense parameters into `out` (replica synchronisation).
    fn write_params(&self, out: &mut Vec<f32>) {
        for mlp in self.mlps() {
            mlp.write_params(out);
        }
    }

    /// Loads dense parameters from `src`, returning the number consumed.
    fn read_params(&mut self, src: &[f32]) -> usize {
        self.mlps_mut().into_iter().fold(0, |n, mlp| n + mlp.read_params(&src[n..]))
    }

    /// Flattens the accumulated dense gradients into `out`, in
    /// [`write_params`](RecModel::write_params) order. The parallel
    /// execution engine reduces these across workers in worker-index
    /// order, which is what makes fixed-worker-count runs bit-identical.
    fn write_grads(&self, out: &mut Vec<f32>) {
        for mlp in self.mlps() {
            mlp.write_grads(out);
        }
    }

    /// Overwrites the accumulated dense gradients from `src` (layout of
    /// [`write_grads`](RecModel::write_grads)), returning the number of
    /// scalars consumed. A following [`sgd_step`](RecModel::sgd_step)
    /// applies exactly the loaded gradient.
    fn read_grads(&mut self, src: &[f32]) -> usize {
        self.mlps_mut().into_iter().fold(0, |n, mlp| n + mlp.read_grads(&src[n..]))
    }
}

/// Runs one training step; returns the mini-batch BCE loss.
pub fn train_step(
    model: &mut dyn RecModel,
    emb: &mut dyn EmbeddingSource,
    batch: &MiniBatch,
    lr: f32,
) -> f32 {
    assert!(!batch.is_empty(), "cannot train on an empty mini-batch");
    model.zero_grad();
    let pred = model.forward(batch, emb);
    let target = Tensor::from_vec(batch.len(), 1, batch.labels.clone());
    let loss = bce_loss(&pred, &target);
    let grad = bce_loss_backward(&pred, &target);
    let emb_grads = model.backward(&grad);
    model.sgd_step(lr);
    emb.apply_sparse_grads(&emb_grads, lr);
    loss
}

/// The forward + backward half of [`train_step`], without any parameter
/// update: returns the (unweighted) mini-batch BCE loss and the per-table
/// sparse embedding gradients, leaving the dense gradients accumulated
/// inside the model for the caller to extract via
/// [`RecModel::write_grads`].
///
/// `grad_scale` multiplies the loss gradient before backpropagation — the
/// parallel engine passes each worker's sample fraction `n_w / N` so that
/// summing worker gradients reproduces the full-batch mean-loss gradient.
/// A scale of exactly `1.0` skips the multiply, keeping the single-worker
/// path bit-identical to [`train_step`]'s arithmetic.
pub fn forward_backward(
    model: &mut dyn RecModel,
    emb: &dyn EmbeddingSource,
    batch: &MiniBatch,
    grad_scale: f32,
) -> (f32, Vec<SparseGrad>) {
    assert!(!batch.is_empty(), "cannot train on an empty mini-batch");
    model.zero_grad();
    let pred = model.forward(batch, emb);
    let target = Tensor::from_vec(batch.len(), 1, batch.labels.clone());
    let loss = bce_loss(&pred, &target);
    let mut grad = bce_loss_backward(&pred, &target);
    if grad_scale != 1.0 {
        grad = grad.map(|v| v * grad_scale);
    }
    let emb_grads = model.backward(&grad);
    (loss, emb_grads)
}

/// Evaluation metrics over a batch stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalReport {
    /// Mean BCE loss over all samples.
    pub loss: f64,
    /// Fraction of correctly thresholded predictions.
    pub accuracy: f64,
    /// Samples evaluated.
    pub samples: usize,
}

/// Evaluates the model on `batches` without updating any parameters.
pub fn evaluate(
    model: &mut dyn RecModel,
    emb: &dyn EmbeddingSource,
    batches: &[MiniBatch],
) -> EvalReport {
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    let mut n = 0usize;
    for b in batches {
        if b.is_empty() {
            continue;
        }
        let pred = model.forward(b, emb);
        let target = Tensor::from_vec(b.len(), 1, b.labels.clone());
        loss_sum += bce_loss(&pred, &target) as f64 * b.len() as f64;
        acc_sum += binary_accuracy(&pred, &target) * b.len() as f64;
        n += b.len();
    }
    if n == 0 {
        return EvalReport { loss: f64::NAN, accuracy: f64::NAN, samples: 0 };
    }
    EvalReport { loss: loss_sum / n as f64, accuracy: acc_sum / n as f64, samples: n }
}

/// Inference-only forward pass: click probabilities (`batch × 1`) with no
/// gradient accumulation and no parameter update. This is the serving
/// entry point (`fae-serve`): the model's cached activations are
/// overwritten but its parameters and the embedding source are untouched.
pub fn predict(model: &mut dyn RecModel, emb: &dyn EmbeddingSource, batch: &MiniBatch) -> Tensor {
    assert!(!batch.is_empty(), "cannot predict on an empty mini-batch");
    model.forward(batch, emb)
}
