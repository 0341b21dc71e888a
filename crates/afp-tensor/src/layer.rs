//! The [`Layer`] trait: per-sample forward / backward with cached activations.
//!
//! Rather than a general-purpose autodiff tape, every building block of the
//! paper's networks implements an explicit `forward` / `backward` pair. The
//! backward pass accumulates parameter gradients in place (so a minibatch is
//! simply a loop of `forward` + `backward` per sample followed by one optimizer
//! step) and returns the gradient with respect to the layer input so that
//! layers compose.

use crate::{Param, Tensor};

/// A differentiable computation with learnable parameters.
///
/// # Contract
///
/// * `forward` must be called before `backward`; the layer caches whatever it
///   needs from the most recent forward pass.
/// * `backward` accumulates parameter gradients (it does **not** overwrite
///   them) and returns `dL/d input`; `backward_params` accumulates the same
///   parameter gradients, bit for bit, without computing `dL/d input`.
/// * `zero_grad` clears all accumulated parameter gradients.
pub trait Layer: Send {
    /// Runs the layer on `input`, caching activations needed for `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_output = dL/d output` backwards, accumulating parameter
    /// gradients and returning `dL/d input`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `forward` has not been called.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Like [`Layer::backward`], but for a caller that discards `dL/d input`:
    /// it accumulates exactly the same parameter gradients and may skip the
    /// input gradient. The default runs `backward` and drops its result.
    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward(grad_output);
    }

    /// Immutable access to the learnable parameters.
    fn params(&self) -> Vec<&Param>;

    /// Mutable access to the learnable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// A short human-readable layer name for diagnostics.
    fn name(&self) -> &str;

    /// Clears all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of learnable scalars.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn num_parameters_counts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 2, &mut rng);
        // 3*2 weights + 2 biases
        assert_eq!(layer.num_parameters(), 8);
    }

    #[test]
    fn zero_grad_resets_all_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_slice(&[1.0, -1.0]);
        let y = layer.forward(&x);
        let g = Tensor::ones(y.shape());
        layer.backward(&g);
        assert!(layer.params().iter().any(|p| p.grad.norm() > 0.0));
        layer.zero_grad();
        assert!(layer.params().iter().all(|p| p.grad.norm() == 0.0));
    }
}
