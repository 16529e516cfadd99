//! Sequential multi-layer perceptron, mirroring the paper's `bottom MLP`
//! and `top MLP` blocks (Table I gives their layer widths).

use rand::Rng;

use crate::layers::{Layer, Linear, Relu, Sigmoid};
use crate::tensor::Tensor;

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

/// A stack of `Linear` + ReLU layers with a configurable final activation.
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
    layers: Vec<Box<dyn Layer>>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Builds an MLP from consecutive layer widths, e.g. `[13, 512, 256,
    /// 64, 16]` for DLRM-Kaggle's bottom MLP. Hidden layers use ReLU; the
    /// output uses `final_act`.
    pub fn new(sizes: &[usize], final_act: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "MLP needs at least input and output widths");
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for w in sizes.windows(2).enumerate() {
            let (i, pair) = w;
            layers.push(Box::new(Linear::new(pair[0], pair[1], rng)));
            let is_last = i == sizes.len() - 2;
            if !is_last {
                layers.push(Box::new(Relu::new()));
            } else {
                match final_act {
                    Activation::Relu => layers.push(Box::new(Relu::new())),
                    Activation::Sigmoid => layers.push(Box::new(Sigmoid::new())),
                    Activation::None => {}
                }
            }
        }
        Self { layers, sizes: sizes.to_vec() }
    }

    /// Layer widths the MLP was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Output width.
    #[expect(
        clippy::unwrap_used,
        reason = "Mlp::new asserts sizes.len() >= 2, so sizes is never empty"
    )]
    pub fn out_width(&self) -> usize {
        *self.sizes.last().unwrap()
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    fn sgd_step(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.sgd_step(lr);
        }
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.write_params(out);
        }
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.layers {
            off += l.read_params(&src[off..]);
        }
        off
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.write_grads(out);
        }
    }

    fn read_grads(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.layers {
            off += l.read_grads(&src[off..]);
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff_check;
    use crate::loss::{mse_loss, mse_loss_backward};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
