//! Differentiable layers with explicit forward/backward passes.
//!
//! The training loop follows the classic layer-module design (as in the
//! original DLRM code before autograd tracing): `forward` caches whatever
//! the backward pass needs, `backward` consumes the upstream gradient and
//! returns the downstream one while accumulating parameter gradients, and
//! `sgd_step`/`zero_grad` manage the parameters.

use rand::Rng;

use crate::init;
use crate::tensor::Tensor;

/// A differentiable module operating on `batch × features` tensors.
pub trait Layer: Send {
    /// Computes the layer output and caches activations for `backward`.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates `grad_out` (d loss / d output) backwards, accumulating
    /// parameter gradients and returning d loss / d input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies one SGD update `p -= lr * grad(p)` to the layer parameters.
    fn sgd_step(&mut self, lr: f32);

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self);

    /// Number of trainable scalars.
    fn param_count(&self) -> usize;

    /// Flattens parameters into `out` (used by tests and synchronisation).
    fn write_params(&self, out: &mut Vec<f32>);

    /// Loads parameters from `src`, returning the number consumed.
    fn read_params(&mut self, src: &[f32]) -> usize;

    /// Flattens the accumulated parameter *gradients* into `out`, in the
    /// same order as [`write_params`](Layer::write_params). Parameter-free
    /// layers write nothing. Used by the parallel execution engine to
    /// reduce dense gradients across workers in a deterministic order.
    fn write_grads(&self, _out: &mut Vec<f32>) {}

    /// Overwrites the accumulated parameter gradients from `src` (same
    /// layout as [`write_grads`](Layer::write_grads)), returning the
    /// number of scalars consumed. A subsequent
    /// [`sgd_step`](Layer::sgd_step) then applies exactly the loaded
    /// gradient, which is how every replica applies the identical reduced
    /// gradient bit-for-bit.
    fn read_grads(&mut self, _src: &[f32]) -> usize {
        0
    }
}

/// Fully-connected layer: `y = x · W + b` with `W: in × out`.
pub struct Linear {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates a Xavier-initialised linear layer.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: init::xavier_uniform(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
            grad_w: Tensor::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            cached_x: None,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Immutable view of the weight matrix (for tests / inspection).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.w.rows(),
            "Linear input width {} != fan_in {}",
            x.cols(),
            self.w.rows()
        );
        self.cached_x = Some(x.clone());
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let x = self.cached_x.as_ref().expect("Linear::backward called before forward");
        // dW = xᵀ · g, db = Σ_rows g, dx = g · Wᵀ. The dW product runs
        // transpose-free (no per-step copy of the large activation
        // matrix); the dx product transposes the small weight matrix so
        // the zero-skip over the post-ReLU-sparse gradient still applies
        // (see Tensor::matmul_transpose_{lhs,rhs}).
        self.grad_w.add_scaled(&x.matmul_transpose_lhs(grad_out), 1.0);
        for (gb, s) in self.grad_b.iter_mut().zip(grad_out.sum_rows()) {
            *gb += s;
        }
        grad_out.matmul_transpose_rhs(&self.w)
    }

    fn sgd_step(&mut self, lr: f32) {
        self.w.add_scaled(&self.grad_w, -lr);
        for (b, &g) in self.b.iter_mut().zip(&self.grad_b) {
            *b -= lr * g;
        }
    }

    fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let wn = self.w.len();
        let bn = self.b.len();
        self.w.as_mut_slice().copy_from_slice(&src[..wn]);
        self.b.copy_from_slice(&src[wn..wn + bn]);
        wn + bn
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.grad_w.as_slice());
        out.extend_from_slice(&self.grad_b);
    }

    fn read_grads(&mut self, src: &[f32]) -> usize {
        let wn = self.grad_w.len();
        let bn = self.grad_b.len();
        self.grad_w.as_mut_slice().copy_from_slice(&src[..wn]);
        self.grad_b.copy_from_slice(&src[wn..wn + bn]);
        wn + bn
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    cached_x: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_x = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let x = self.cached_x.as_ref().expect("Relu::backward called before forward");
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        grad_out.hadamard(&mask)
    }

    fn sgd_step(&mut self, _lr: f32) {}
    fn zero_grad(&mut self) {}
    fn param_count(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }
}

/// Logistic sigmoid, used as the final CTR-prediction activation.
#[derive(Default)]
pub struct Sigmoid {
    cached_y: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar logistic function.
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = x.map(sigmoid);
        self.cached_y = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "forward-before-backward is a call-order contract; fabricating a gradient here would corrupt training silently"
        )]
        let y = self.cached_y.as_ref().expect("Sigmoid::backward called before forward");
        let dy = y.map(|v| v * (1.0 - v));
        grad_out.hadamard(&dy)
    }

    fn sgd_step(&mut self, _lr: f32) {}
    fn zero_grad(&mut self) {}
    fn param_count(&self) -> usize {
        0
    }
    fn write_params(&self, _out: &mut Vec<f32>) {}
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights: W = [[1,2],[3,4]], b = [10, 20].
        l.read_params(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn linear_param_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Linear::new(3, 4, &mut rng);
        let mut b = Linear::new(3, 4, &mut rng);
        let mut buf = Vec::new();
        a.write_params(&mut buf);
        assert_eq!(buf.len(), a.param_count());
        let consumed = b.read_params(&buf);
        assert_eq!(consumed, buf.len());
        let mut buf2 = Vec::new();
        b.write_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let g = r.backward(&Tensor::full(1, 4, 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_output_range_and_gradient_peak() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(1, 3, vec![-10.0, 0.0, 10.0]);
        let y = s.forward(&x);
        assert!(y.as_slice()[0] < 1e-4);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-4);
        let g = s.backward(&Tensor::full(1, 3, 1.0));
        // Sigmoid gradient maxes at 0.25 at x = 0.
        assert!((g.as_slice()[1] - 0.25).abs() < 1e-6);
        assert!(g.as_slice()[0] < g.as_slice()[1]);
    }

    #[test]
    fn linear_gradcheck_weights_and_input() {
        let mut rng = StdRng::seed_from_u64(3);
        finite_diff_check(
            || Linear::new(4, 3, &mut StdRng::seed_from_u64(9)),
            3,
            4,
            &mut rng,
            2e-2,
        );
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        finite_diff_check(Relu::new, 5, 5, &mut rng, 2e-2);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        finite_diff_check(Sigmoid::new, 4, 4, &mut rng, 2e-2);
    }
}
