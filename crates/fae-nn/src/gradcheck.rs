//! Finite-difference gradient checking.
//!
//! Every differentiable module in the workspace is validated against
//! central finite differences. The scalar objective is `sum(layer(x))`,
//! whose analytic upstream gradient is all-ones, which keeps the checker
//! independent of any particular loss.

use rand::Rng;

use crate::mlp::Layer;
use crate::tensor::Tensor;

/// Relative error between an analytic and numeric derivative, guarded
/// against tiny denominators.
fn rel_err(analytic: f32, numeric: f32) -> f32 {
    let denom = analytic.abs().max(numeric.abs()).max(1e-3);
    (analytic - numeric).abs() / denom
}

/// Checks d `sum(layer(x))` / d `x` and d/d `params` for a freshly built
/// layer against central finite differences.
///
/// `make` must build the layer deterministically (same weights each call is
/// not required — only one instance is built). Panics with a descriptive
/// message when any derivative's relative error exceeds `tol`.
pub fn finite_diff_check<L: Layer>(
    make: impl FnOnce() -> L,
    batch: usize,
    width: usize,
    rng: &mut impl Rng,
    tol: f32,
) {
    const EPS: f32 = 1e-2;
    let mut layer = make();
    // Keep inputs away from 0 so kinked activations (ReLU) stay on one side
    // of the kink within the finite-difference window.
    let x = Tensor::from_fn(batch, width, |_, _| {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        sign * rng.gen_range(0.1..1.0f32)
    });

    // Analytic gradients.
    layer.zero_grad();
    let y = layer.forward(&x);
    let ones = Tensor::full(y.rows(), y.cols(), 1.0);
    let dx = layer.backward(&ones);

    // Numeric input gradient.
    for r in 0..batch {
        for c in 0..width {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + EPS);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - EPS);
            let fp = layer.forward(&xp).sum();
            let fm = layer.forward(&xm).sum();
            let numeric = (fp - fm) / (2.0 * EPS);
            let analytic = dx.get(r, c);
            assert!(
                rel_err(analytic, numeric) < tol,
                "input grad mismatch at ({r},{c}): analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    // Numeric parameter gradient. Re-run forward/backward on the original
    // input so the accumulated parameter gradients correspond to `x`.
    layer.zero_grad();
    let y = layer.forward(&x);
    let ones = Tensor::full(y.rows(), y.cols(), 1.0);
    let _ = layer.backward(&ones);
    // Recover analytic parameter gradients via an SGD probe: p' = p - 1 * g.
    let mut before = Vec::new();
    layer.write_params(&mut before);
    layer.sgd_step(1.0);
    let mut after = Vec::new();
    layer.write_params(&mut after);
    let analytic_pg: Vec<f32> = before.iter().zip(&after).map(|(b, a)| b - a).collect();
    layer.read_params(&before);

    for i in 0..before.len() {
        let mut pp = before.clone();
        pp[i] += EPS;
        layer.read_params(&pp);
        let fp = layer.forward(&x).sum();
        let mut pm = before.clone();
        pm[i] -= EPS;
        layer.read_params(&pm);
        let fm = layer.forward(&x).sum();
        let numeric = (fp - fm) / (2.0 * EPS);
        assert!(
            rel_err(analytic_pg[i], numeric) < tol,
            "param grad mismatch at {i}: analytic {} vs numeric {numeric}",
            analytic_pg[i]
        );
    }
    layer.read_params(&before);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_handles_tiny_values() {
        assert!(rel_err(0.0, 0.0) < 1e-9);
        assert!(rel_err(1.0, 1.0) < 1e-9);
        assert!(rel_err(1.0, 2.0) > 0.4);
    }
}
