//! Loss functions with analytic gradients.
//!
//! Each loss returns the scalar loss value together with the gradient of the
//! loss with respect to the prediction, ready to be fed into
//! [`crate::Layer::backward`].

use crate::Tensor;

/// Mean squared error between `prediction` and `target`.
///
/// Used for the R-GCN supervised pre-training task (predicting the floorplan
/// reward of a circuit graph, paper §IV-C) and for the PPO value-function loss.
///
/// Returns `(loss, d loss / d prediction)`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mse(prediction: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(prediction.shape(), target.shape(), "mse shape mismatch");
    let n = prediction.len().max(1) as f32;
    let diff = prediction.sub(target);
    let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Huber (smooth-L1) loss, a more outlier-robust alternative to MSE used by
/// some value-function implementations.
///
/// Returns `(loss, d loss / d prediction)`.
pub fn huber(prediction: &Tensor, target: &Tensor, delta: f32) -> (f32, Tensor) {
    assert_eq!(prediction.shape(), target.shape(), "huber shape mismatch");
    let n = prediction.len().max(1) as f32;
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(prediction.shape());
    for i in 0..prediction.len() {
        let d = prediction.data()[i] - target.data()[i];
        if d.abs() <= delta {
            loss += 0.5 * d * d;
            grad.data_mut()[i] = d / n;
        } else {
            loss += delta * (d.abs() - 0.5 * delta);
            grad.data_mut()[i] = delta * d.signum() / n;
        }
    }
    (loss / n, grad)
}

/// Categorical cross-entropy with logits for a single sample.
///
/// `logits` is an unnormalized score vector and `target` the index of the true
/// class. Returns `(loss, d loss / d logits)` where the gradient is
/// `softmax(logits) - one_hot(target)`.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy_with_logits(logits: &Tensor, target: usize) -> (f32, Tensor) {
    assert!(target < logits.len(), "target index out of range");
    let log_probs = logits.log_softmax();
    let loss = -log_probs.get(target);
    let mut grad = log_probs.exp();
    grad.data_mut()[target] -= 1.0;
    (loss, grad)
}

/// Entropy of a categorical distribution given by `logits`, together with the
/// gradient of the entropy with respect to the logits.
///
/// PPO adds an entropy bonus to the objective to encourage exploration; the
/// gradient returned here is `dH/d logits` so callers can scale it by the
/// entropy coefficient and *subtract* it from the loss gradient.
pub fn categorical_entropy(logits: &Tensor) -> (f32, Tensor) {
    let log_p = logits.log_softmax();
    let p = log_p.exp();
    let entropy = entropy_of(p.data(), log_p.data());
    // dH/dz_j = -p_j * (log p_j + H)
    let grad = Tensor::from_vec(
        p.data()
            .iter()
            .zip(log_p.data().iter())
            .map(|(&pi, &lpi)| -pi * (lpi + entropy))
            .collect(),
        logits.shape(),
    );
    (entropy, grad)
}

/// Entropy `H = -Σ p_j log p_j` of a categorical distribution from its
/// probabilities and log-probabilities (zero-probability terms contribute
/// nothing). [`categorical_entropy`] computes `H` with this sum; a caller
/// that already holds `p` and `log p` gets the same bits without
/// recomputing the softmax, and `dH/dz_j = -p_j (log p_j + H)`.
pub fn entropy_of(p: &[f32], log_p: &[f32]) -> f32 {
    -p.iter()
        .zip(log_p.iter())
        .map(|(&pi, &lpi)| if pi > 0.0 { pi * lpi } else { 0.0 })
        .sum::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_equal_tensors() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sum(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Tensor::from_slice(&[1.0, 2.0]);
        let t = Tensor::from_slice(&[0.0, 0.0]);
        let (loss, grad) = mse(&p, &t);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn huber_matches_mse_for_small_errors() {
        let p = Tensor::from_slice(&[0.1, -0.2]);
        let t = Tensor::from_slice(&[0.0, 0.0]);
        let (h, _) = huber(&p, &t, 1.0);
        let expected = (0.5 * 0.01 + 0.5 * 0.04) / 2.0;
        assert!((h - expected).abs() < 1e-6);
    }

    #[test]
    fn huber_linear_for_large_errors() {
        let p = Tensor::from_slice(&[10.0]);
        let t = Tensor::from_slice(&[0.0]);
        let (h, g) = huber(&p, &t, 1.0);
        assert!((h - 9.5).abs() < 1e-6);
        assert!((g.get(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let logits = Tensor::from_slice(&[0.1, 1.2, -0.5, 0.7]);
        let (loss, grad) = cross_entropy_with_logits(&logits, 1);
        assert!(loss > 0.0);
        assert!(grad.sum().abs() < 1e-5);
        assert!(grad.get(1) < 0.0);
    }

    #[test]
    fn cross_entropy_confident_prediction_has_low_loss() {
        let logits = Tensor::from_slice(&[10.0, -10.0]);
        let (loss, _) = cross_entropy_with_logits(&logits, 0);
        assert!(loss < 1e-3);
    }

    #[test]
    fn entropy_is_max_for_uniform_logits() {
        let uniform = Tensor::from_slice(&[0.0, 0.0, 0.0, 0.0]);
        let peaked = Tensor::from_slice(&[10.0, 0.0, 0.0, 0.0]);
        let (hu, _) = categorical_entropy(&uniform);
        let (hp, _) = categorical_entropy(&peaked);
        assert!(hu > hp);
        assert!((hu - (4.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn entropy_gradient_finite_difference() {
        let logits = Tensor::from_slice(&[0.3, -0.6, 1.1]);
        let (_, grad) = categorical_entropy(&logits);
        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (hp, _) = categorical_entropy(&plus);
            let (hm, _) = categorical_entropy(&minus);
            let num = (hp - hm) / (2.0 * eps);
            assert!(
                (num - grad.get(i)).abs() < 1e-2,
                "entropy grad mismatch at {}: {} vs {}",
                i,
                num,
                grad.get(i)
            );
        }
    }
}
