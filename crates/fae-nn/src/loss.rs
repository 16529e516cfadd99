//! Losses for click-through-rate training.
//!
//! DLRM and TBSM optimise binary cross-entropy over a sigmoid output; MSE
//! is provided for tests and the planted-model data generators.

use crate::tensor::Tensor;

/// Clamp predictions away from 0/1 so `ln` stays finite — the same guard
/// PyTorch's `BCELoss` applies (log clamped at -100).
const BCE_EPS: f32 = 1e-7;

/// Mean binary cross-entropy. `pred` must contain probabilities in (0, 1);
/// `target` contains 0/1 labels. Shapes must match.
pub fn bce_loss(pred: &Tensor, target: &Tensor) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "bce shape mismatch");
    let n = pred.len() as f32;
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&p, &t)| {
            let p = p.clamp(BCE_EPS, 1.0 - BCE_EPS);
            -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
        })
        .sum::<f32>()
        / n
}

/// Gradient of [`bce_loss`] with respect to `pred`.
pub fn bce_loss_backward(pred: &Tensor, target: &Tensor) -> Tensor {
    assert_eq!(pred.shape(), target.shape(), "bce shape mismatch");
    let n = pred.len() as f32;
    let mut out = Tensor::zeros(pred.rows(), pred.cols());
    for (o, (&p, &t)) in
        out.as_mut_slice().iter_mut().zip(pred.as_slice().iter().zip(target.as_slice()))
    {
        let p = p.clamp(BCE_EPS, 1.0 - BCE_EPS);
        *o = (-(t / p) + (1.0 - t) / (1.0 - p)) / n;
    }
    out
}

/// Mean squared error.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len() as f32;
    pred.as_slice().iter().zip(target.as_slice()).map(|(&p, &t)| (p - t) * (p - t)).sum::<f32>() / n
}

/// Gradient of [`mse_loss`] with respect to `pred`.
pub fn mse_loss_backward(pred: &Tensor, target: &Tensor) -> Tensor {
    let n = pred.len() as f32;
    pred.sub(target).scale(2.0 / n)
}

/// Fraction of predictions on the correct side of 0.5 — the accuracy metric
/// reported in the paper's Table III.
pub fn binary_accuracy(pred: &Tensor, target: &Tensor) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "accuracy shape mismatch");
    let correct = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .filter(|(&p, &t)| (p >= 0.5) == (t >= 0.5))
        .count();
    correct as f64 / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t1(v: &[f32]) -> Tensor {
        Tensor::from_vec(1, v.len(), v.to_vec())
    }

    #[test]
    fn bce_perfect_prediction_is_near_zero() {
        let pred = t1(&[0.9999, 0.0001]);
        let tgt = t1(&[1.0, 0.0]);
        assert!(bce_loss(&pred, &tgt) < 1e-3);
    }

    #[test]
    fn bce_coinflip_is_ln2() {
        let pred = t1(&[0.5, 0.5]);
        let tgt = t1(&[1.0, 0.0]);
        assert!((bce_loss(&pred, &tgt) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn bce_handles_saturated_predictions() {
        let pred = t1(&[1.0, 0.0]);
        let tgt = t1(&[0.0, 1.0]);
        let l = bce_loss(&pred, &tgt);
        assert!(l.is_finite() && l > 10.0);
        assert!(bce_loss_backward(&pred, &tgt).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let pred = t1(&[0.3, 0.7, 0.5]);
        let tgt = t1(&[1.0, 0.0, 1.0]);
        let g = bce_loss_backward(&pred, &tgt);
        let eps = 1e-3;
        for i in 0..3 {
            let mut pp = pred.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = pred.clone();
            pm.as_mut_slice()[i] -= eps;
            let numeric = (bce_loss(&pp, &tgt) - bce_loss(&pm, &tgt)) / (2.0 * eps);
            assert!(
                (g.as_slice()[i] - numeric).abs() / numeric.abs().max(1.0) < 1e-2,
                "grad {} vs numeric {}",
                g.as_slice()[i],
                numeric
            );
        }
    }

    #[test]
    fn mse_and_gradient() {
        let pred = t1(&[1.0, 3.0]);
        let tgt = t1(&[0.0, 1.0]);
        assert!((mse_loss(&pred, &tgt) - 2.5).abs() < 1e-6);
        let g = mse_loss_backward(&pred, &tgt);
        assert_eq!(g.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn accuracy_counts_thresholded_matches() {
        let pred = t1(&[0.9, 0.2, 0.6, 0.4]);
        let tgt = t1(&[1.0, 0.0, 0.0, 1.0]);
        assert!((binary_accuracy(&pred, &tgt) - 0.5).abs() < 1e-12);
    }
}
