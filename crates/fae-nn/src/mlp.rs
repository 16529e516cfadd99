//! Sequential multi-layer perceptron, mirroring the paper's `bottom MLP`
//! and `top MLP` blocks (Table I gives their layer widths).
//!
//! An [`Mlp`] owns its parameters and an activation tape: the input slot,
//! every layer's activated output and one gradient buffer per layer. The
//! tape is sized on the first batch and reused; a smaller batch reuses its
//! capacity. Forward writes each layer's `x·W + b` and its activation in
//! one pass over every output row. Backward reads the ReLU mask from the
//! stored output (`y > 0 ⇔ x > 0`), accumulates dW and db straight into
//! the parameter gradients, and computes dX through a reused Wᵀ. Every
//! f32 operation is the one a module-per-layer stack did, in the same
//! order (DESIGN.md §14).

use rand::Rng;

use crate::init;
use crate::tensor::{accumulate_xt_g, product_rows, split_rows, split_width, Tensor};

/// A differentiable module operating on `batch × features` tensors: the
/// allocating face of [`Mlp`]'s tape. `forward` copies its input onto the
/// tape and its output off it; `backward` returns d loss / d input.
pub trait Layer: Send {
    /// Computes the layer output and keeps what `backward` needs.
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
    /// same order as [`write_params`](Layer::write_params). Used by the
    /// parallel execution engine to reduce dense gradients across workers
    /// in a deterministic order.
    fn write_grads(&self, out: &mut Vec<f32>);

    /// Overwrites the accumulated parameter gradients from `src` (same
    /// layout as [`write_grads`](Layer::write_grads)), returning the
    /// number of scalars consumed. A subsequent
    /// [`sgd_step`](Layer::sgd_step) then applies exactly the loaded
    /// gradient, which is how every replica applies the identical reduced
    /// gradient bit-for-bit.
    fn read_grads(&mut self, src: &[f32]) -> usize;
}

/// Activation applied after the final linear layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// ReLU — used by bottom MLPs whose output feeds the interaction op.
    Relu,
    /// Sigmoid — used by top MLPs producing the CTR probability.
    Sigmoid,
    /// Identity — raw logits (used by attention scores).
    None,
}

/// Scalar logistic function.
#[inline]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// The ReLU backward in place: `g · 1.0` where the output is positive,
/// `g · 0.0` elsewhere, so `-0.0`, NaN and infinite gradients come out as
/// they did when the mask was a tensor of its own.
fn relu_mask(y: &[f32], g: &mut [f32]) {
    for (g, &y) in g.iter_mut().zip(y) {
        *g *= if y > 0.0 { 1.0 } else { 0.0 };
    }
}

impl Activation {
    /// Overwrites the product row `z` with `act(z + bias)`.
    fn bias_act(self, z: &mut [f32], bias: &[f32]) {
        let zb = z.iter_mut().zip(bias);
        match self {
            Activation::Relu => zb.for_each(|(v, &b)| *v = (*v + b).max(0.0)),
            Activation::Sigmoid => zb.for_each(|(v, &b)| *v = sigmoid(*v + b)),
            Activation::None => zb.for_each(|(v, &b)| *v += b),
        }
    }

    /// `dz = g · act'`, with the derivative read from the output `y`.
    fn backward(self, y: &[f32], g: &[f32], dz: &mut [f32]) {
        match self {
            Activation::None => dz.copy_from_slice(g),
            Activation::Relu => {
                dz.copy_from_slice(g);
                relu_mask(y, dz);
            }
            Activation::Sigmoid => {
                for ((d, &g), &y) in dz.iter_mut().zip(g).zip(y) {
                    *d = g * (y * (1.0 - y));
                }
            }
        }
    }
}

/// One fully-connected layer, `y = act(x · W + b)` with `W: in × out`.
struct Dense {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    act: Activation,
}

impl Dense {
    /// Writes `act(x · W + b)` into `y` row by row; rows are split across
    /// cores for large products.
    fn forward(&self, x: &[f32], y: &mut [f32]) {
        let (k, n) = self.w.shape();
        let rows = y.len() / n;
        split_rows(y, n, split_width(rows * k * n, rows), |first, chunk| {
            let x = &x[first * k..(first + chunk.len() / n) * k];
            product_rows(x, k, self.w.as_slice(), chunk);
            chunk.chunks_exact_mut(n).for_each(|y_row| self.act.bias_act(y_row, &self.b));
        });
    }
}

/// A stack of linear + ReLU layers with a configurable final activation.
///
/// ```
/// use fae_nn::{Activation, Layer, Mlp, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut mlp = Mlp::new(&[4, 8, 1], Activation::Sigmoid, &mut rng);
/// let y = mlp.forward(&Tensor::zeros(2, 4));
/// assert_eq!(y.shape(), (2, 1));
/// assert!(y.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
/// ```
pub struct Mlp {
    layers: Vec<Dense>,
    sizes: Vec<usize>,
    /// Batch size the tape holds.
    rows: usize,
    /// `acts[0]` is the input slot, `acts[l + 1]` layer `l`'s activated
    /// output: `rows × sizes[l]` each.
    acts: Vec<Vec<f32>>,
    /// `grads[l + 1]` is d loss / d layer `l`'s pre-activation output,
    /// `grads[0]` d loss / d input.
    grads: Vec<Vec<f32>>,
    /// Wᵀ of the layer being back-propagated.
    wt: Vec<f32>,
}

impl Mlp {
    /// Builds an MLP from consecutive layer widths, e.g. `[13, 512, 256,
    /// 64, 16]` for DLRM-Kaggle's bottom MLP. Hidden layers use ReLU; the
    /// output uses `final_act`. Weights are Xavier-uniform, biases zero.
    pub fn new(sizes: &[usize], final_act: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "MLP needs at least input and output widths");
        assert!(sizes.iter().all(|&s| s > 0), "MLP widths must be positive");
        let last = sizes.len() - 2;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, pair)| Dense {
                w: init::xavier_uniform(pair[0], pair[1], rng),
                b: vec![0.0; pair[1]],
                grad_w: Tensor::zeros(pair[0], pair[1]),
                grad_b: vec![0.0; pair[1]],
                act: if i == last { final_act } else { Activation::Relu },
            })
            .collect();
        Self {
            layers,
            sizes: sizes.to_vec(),
            rows: 0,
            acts: vec![Vec::new(); sizes.len()],
            grads: vec![Vec::new(); sizes.len()],
            wt: Vec::new(),
        }
    }

    /// Layer widths the MLP was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Output width.
    pub fn out_width(&self) -> usize {
        self.sizes[self.sizes.len() - 1]
    }

    /// Sizes the tape for a batch of `rows` and returns its input slot,
    /// `rows × sizes()[0]` row-major, for the caller to fill before
    /// [`forward_tape`](Mlp::forward_tape).
    pub fn input_mut(&mut self, rows: usize) -> &mut [f32] {
        self.rows = rows;
        for (buf, &width) in self.acts.iter_mut().zip(&self.sizes) {
            buf.resize(rows * width, 0.0);
        }
        &mut self.acts[0]
    }

    /// The input slot as the last [`input_mut`](Mlp::input_mut) caller
    /// left it.
    pub fn input(&self) -> &[f32] {
        &self.acts[0]
    }

    /// Runs every layer over the input slot and returns the output,
    /// `rows × out_width()`.
    pub fn forward_tape(&mut self) -> &[f32] {
        for (l, layer) in self.layers.iter().enumerate() {
            let (xs, ys) = self.acts.split_at_mut(l + 1);
            layer.forward(&xs[l], &mut ys[0]);
        }
        &self.acts[self.layers.len()]
    }

    /// Back-propagates `grad_out` (d loss / d output, `rows × out_width()`)
    /// through the last forward, accumulating parameter gradients. The
    /// input gradient is computed only when `input_grad` is set; it is
    /// then [`input_grad`](Mlp::input_grad).
    ///
    /// dW and db are added straight into the parameter gradients, which is
    /// bit-identical to summing them apart from `+0.0` and then adding
    /// when those gradients start zeroed, as after
    /// [`zero_grad`](Layer::zero_grad): such a sum is never `-0.0`.
    pub fn backward_tape(&mut self, grad_out: &[f32], input_grad: bool) {
        let rows = self.rows;
        let last = self.layers.len() - 1;
        assert_eq!(
            grad_out.len(),
            rows * self.out_width(),
            "Mlp gradient is not the last forward's batch × out_width"
        );
        for (l, (buf, &width)) in self.grads.iter_mut().zip(&self.sizes).enumerate() {
            if l > 0 || input_grad {
                buf.resize(rows * width, 0.0);
            }
        }
        let widest = self.layers.iter().map(|d| d.w.len()).max().unwrap_or(0);
        self.wt.resize(widest, 0.0);

        let act = self.layers[last].act;
        act.backward(&self.acts[last + 1], grad_out, &mut self.grads[last + 1]);
        for l in (0..=last).rev() {
            let (below, at) = self.grads.split_at_mut(l + 1);
            let dz = &at[0];
            let layer = &mut self.layers[l];
            let (k, n) = layer.w.shape();
            let dw_parts = split_width(rows * k * n, k);
            accumulate_xt_g(&self.acts[l], k, dz, layer.grad_w.as_mut_slice(), dw_parts);
            for dz_row in dz.chunks_exact(n) {
                for (gb, &g) in layer.grad_b.iter_mut().zip(dz_row) {
                    *gb += g;
                }
            }
            if l == 0 && !input_grad {
                break;
            }
            // dX = dz · Wᵀ through a transposed copy of the small weight
            // matrix, so it runs the forward's kernels, which read the
            // right operand in rows.
            let wt = &mut self.wt[..k * n];
            layer.w.transpose_into(wt);
            let wt = &*wt;
            let dx = &mut below[l];
            split_rows(dx, k, split_width(rows * n * k, rows), |first, chunk| {
                product_rows(&dz[first * n..(first + chunk.len() / k) * n], n, wt, chunk);
            });
            if l > 0 {
                relu_mask(&self.acts[l], dx);
            }
        }
    }

    /// d loss / d input of the last [`backward_tape`](Mlp::backward_tape)
    /// that asked for it, `rows × sizes()[0]`.
    pub fn input_grad(&self) -> &[f32] {
        &self.grads[0]
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.sizes[0], "Mlp input width {} != {}", x.cols(), self.sizes[0]);
        self.input_mut(x.rows()).copy_from_slice(x.as_slice());
        let y = self.forward_tape().to_vec();
        Tensor::from_vec(x.rows(), self.out_width(), y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_tape(grad_out.as_slice(), true);
        Tensor::from_vec(self.rows, self.sizes[0], self.grads[0].clone())
    }

    fn sgd_step(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.w.add_scaled(&l.grad_w, -lr);
            for (b, &g) in l.b.iter_mut().zip(&l.grad_b) {
                *b -= lr * g;
            }
        }
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.grad_w.fill_zero();
            l.grad_b.fill(0.0);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.layers {
            off += read_into(l.w.as_mut_slice(), &src[off..]);
            off += read_into(&mut l.b, &src[off..]);
        }
        off
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            out.extend_from_slice(l.grad_w.as_slice());
            out.extend_from_slice(&l.grad_b);
        }
    }

    fn read_grads(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.layers {
            off += read_into(l.grad_w.as_mut_slice(), &src[off..]);
            off += read_into(&mut l.grad_b, &src[off..]);
        }
        off
    }
}

/// Fills `dst` from the front of `src`, returning `dst.len()`.
fn read_into(dst: &mut [f32], src: &[f32]) -> usize {
    dst.copy_from_slice(&src[..dst.len()]);
    dst.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff_check;
    use crate::loss::{mse_loss, mse_loss_backward};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A one-layer stack whose weight is the identity and bias zero: the
    /// activation alone, as the parameter-free modules used to be.
    fn identity(width: usize, act: Activation) -> Mlp {
        let mut mlp = Mlp::new(&[width, width], act, &mut StdRng::seed_from_u64(0));
        let mut params = vec![0.0; width * width + width];
        (0..width).for_each(|i| params[i * width + i] = 1.0);
        mlp.read_params(&params);
        mlp
    }

    #[test]
    fn shapes_and_param_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[13, 512, 256, 64, 16], Activation::Relu, &mut rng);
        assert_eq!(mlp.sizes()[0], 13);
        assert_eq!(mlp.out_width(), 16);
        let expected = 13 * 512 + 512 + 512 * 256 + 256 + 256 * 64 + 64 + 64 * 16 + 16;
        assert_eq!(mlp.param_count(), expected);
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[8, 4, 1], Activation::Sigmoid, &mut rng);
        let x = Tensor::from_fn(5, 8, |r, c| ((r + c) % 3) as f32);
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (5, 1));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn linear_forward_known_values() {
        let mut mlp = Mlp::new(&[2, 2], Activation::None, &mut StdRng::seed_from_u64(1));
        // W = [[1,2],[3,4]], b = [10, 20].
        mlp.read_params(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        let y = mlp.forward(&Tensor::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = identity(4, Activation::Relu);
        let y = r.forward(&Tensor::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let g = r.backward(&Tensor::full(1, 4, 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_output_range_and_gradient_peak() {
        let mut s = identity(3, Activation::Sigmoid);
        let y = s.forward(&Tensor::from_vec(1, 3, vec![-10.0, 0.0, 10.0]));
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
            || Mlp::new(&[4, 3], Activation::None, &mut StdRng::seed_from_u64(9)),
            3,
            4,
            &mut rng,
            2e-2,
        );
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        finite_diff_check(|| identity(5, Activation::Relu), 5, 5, &mut rng, 2e-2);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        finite_diff_check(|| identity(4, Activation::Sigmoid), 4, 4, &mut rng, 2e-2);
    }

    #[test]
    fn gradcheck_small_mlp() {
        let mut rng = StdRng::seed_from_u64(3);
        finite_diff_check(
            || Mlp::new(&[3, 5, 2], Activation::None, &mut StdRng::seed_from_u64(11)),
            3,
            3,
            &mut rng,
            3e-2,
        );
    }

    #[test]
    fn param_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mlp::new(&[4, 6, 2], Activation::Sigmoid, &mut rng);
        let mut b = Mlp::new(&[4, 6, 2], Activation::Sigmoid, &mut rng);
        let mut buf = Vec::new();
        a.write_params(&mut buf);
        assert_eq!(b.read_params(&buf), buf.len());
        let mut buf2 = Vec::new();
        b.write_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn grad_round_trip_reproduces_sgd_step() {
        // Loading written-out gradients into a twin and stepping must give
        // bit-identical parameters — the engine's reduction relies on it.
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = Mlp::new(&[3, 4, 1], Activation::Sigmoid, &mut rng);
        let mut b = Mlp::new(&[3, 4, 1], Activation::Sigmoid, &mut rng);
        let mut params = Vec::new();
        a.write_params(&mut params);
        b.read_params(&params);
        let x = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        a.zero_grad();
        let y = a.forward(&x);
        a.backward(&y);
        let mut grads = Vec::new();
        a.write_grads(&mut grads);
        assert_eq!(grads.len(), a.param_count());
        b.zero_grad();
        assert_eq!(b.read_grads(&grads), grads.len());
        a.sgd_step(0.1);
        b.sgd_step(0.1);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        a.write_params(&mut pa);
        b.write_params(&mut pb);
        assert_eq!(pa, pb);
    }

    #[test]
    fn skipping_the_input_gradient_leaves_the_parameter_gradients_alone() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = Mlp::new(&[3, 8, 2], Activation::Relu, &mut rng);
        let mut params = Vec::new();
        a.write_params(&mut params);
        let mut b = Mlp::new(&[3, 8, 2], Activation::Relu, &mut rng);
        b.read_params(&params);
        let x = Tensor::from_fn(6, 3, |r, c| (r as f32 - 2.5) * (c as f32 + 0.5));
        let g = Tensor::from_fn(6, 2, |r, c| (r + c) as f32 * 0.25 - 1.0);
        for (mlp, input_grad) in [(&mut a, true), (&mut b, false)] {
            mlp.zero_grad();
            mlp.input_mut(6).copy_from_slice(x.as_slice());
            mlp.forward_tape();
            mlp.backward_tape(g.as_slice(), input_grad);
        }
        let (mut ga, mut gb) = (Vec::new(), Vec::new());
        a.write_grads(&mut ga);
        b.write_grads(&mut gb);
        assert_eq!(ga, gb);
        assert_eq!(a.input_grad().len(), 6 * 3);
    }

    #[test]
    fn sgd_learns_xor_like_separation() {
        // Quick end-to-end sanity check: an MLP can fit a small nonlinear
        // function with plain SGD, proving forward/backward/step compose.
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Sigmoid, &mut rng);
        let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let t = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut last = f32::INFINITY;
        for _ in 0..3000 {
            mlp.zero_grad();
            let y = mlp.forward(&x);
            last = mse_loss(&y, &t);
            let g = mse_loss_backward(&y, &t);
            mlp.backward(&g);
            mlp.sgd_step(0.5);
        }
        assert!(last < 0.02, "XOR did not converge: final mse {last}");
    }
}
