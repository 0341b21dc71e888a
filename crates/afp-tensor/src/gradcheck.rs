//! Finite-difference gradient checking utilities.
//!
//! These helpers are used by the test suites of every layer (dense,
//! convolution, transposed convolution, R-GCN) to verify that the manual
//! backward passes match a numerical derivative of a scalar probe loss.

use crate::{Layer, Tensor};

/// The scalar probe loss used by the gradient checker: a fixed weighted sum of
/// the outputs, `L = Σ_i w_i · y_i` with `w_i = sin(i + 1)`.
///
/// Using a non-uniform weighting exercises every output independently.
fn probe_loss(output: &Tensor) -> (f32, Tensor) {
    let weights: Vec<f32> = (0..output.len()).map(|i| ((i + 1) as f32).sin()).collect();
    let loss = output
        .data()
        .iter()
        .zip(weights.iter())
        .map(|(y, w)| y * w)
        .sum();
    (loss, Tensor::from_vec(weights, output.shape()))
}

/// Checks the parameter *and* input gradients of `layer` at `input` against
/// central finite differences and returns the maximum relative error observed.
///
/// The layer is left with modified cached activations; do not reuse it for
/// training afterwards within the same test without re-running `forward`.
pub fn check_layer_gradients<L: Layer + ?Sized>(layer: &mut L, input: &Tensor) -> f32 {
    let eps = 1e-2f32;
    // Analytic gradients.
    layer.zero_grad();
    let out = layer.forward(input);
    let (_, grad_out) = probe_loss(&out);
    let grad_in = layer.backward(&grad_out);
    let analytic_param_grads: Vec<Tensor> =
        layer.params().iter().map(|p| p.grad.clone()).collect();

    let mut max_err = 0.0f32;

    // Parameter gradients.
    for (pi, analytic_grad) in analytic_param_grads.iter().enumerate() {
        let n_el = layer.params()[pi].value.len();
        for j in 0..n_el {
            let orig = layer.params()[pi].value.data()[j];
            layer.params_mut()[pi].value.data_mut()[j] = orig + eps;
            let (lp, _) = probe_loss(&layer.forward(input));
            layer.params_mut()[pi].value.data_mut()[j] = orig - eps;
            let (lm, _) = probe_loss(&layer.forward(input));
            layer.params_mut()[pi].value.data_mut()[j] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_grad.data()[j];
            max_err = max_err.max(relative_error(numeric, analytic));
        }
    }

    // Input gradients.
    let mut x = input.clone();
    for j in 0..x.len() {
        let orig = x.data()[j];
        x.data_mut()[j] = orig + eps;
        let (lp, _) = probe_loss(&layer.forward(&x));
        x.data_mut()[j] = orig - eps;
        let (lm, _) = probe_loss(&layer.forward(&x));
        x.data_mut()[j] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        max_err = max_err.max(relative_error(numeric, grad_in.data()[j]));
    }
    max_err
}

/// Relative error between a numerical and analytic derivative, with an
/// absolute floor so tiny gradients do not blow up the ratio.
pub fn relative_error(numeric: f32, analytic: f32) -> f32 {
    let denom = numeric.abs().max(analytic.abs()).max(1.0);
    (numeric - analytic).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_zero_for_equal() {
        assert_eq!(relative_error(1.5, 1.5), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        assert!((relative_error(2.0, 1.0) - 0.5).abs() < 1e-6);
        // Small absolute difference on small values uses the floor of 1.0.
        assert!(relative_error(1e-4, 0.0) < 1e-3);
    }

    #[test]
    fn probe_loss_uses_all_outputs() {
        let y = Tensor::ones(&[4]);
        let (l, g) = probe_loss(&y);
        assert_eq!(g.len(), 4);
        assert!((l - g.sum()).abs() < 1e-6);
        // Weights are distinct.
        assert!(g.get(0) != g.get(1));
    }
}
