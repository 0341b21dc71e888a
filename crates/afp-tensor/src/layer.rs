//! The [`Layer`] trait: batched forward / backward with cached activations.
//!
//! Rather than a general-purpose autodiff tape, every building block of the
//! paper's networks implements an explicit forward / backward pair over a
//! batch laid out **batch-innermost**: a batch of `B` samples of shape `[s…]`
//! is one tensor of shape `[s…, B]` whose element `e` of sample `b` sits at
//! `e·B + b` (see [`Tensor::interleave`]). Each layer makes one call per
//! batch, and every per-sample axpy of the old per-sample kernels becomes
//! one `B` times longer.
//!
//! The per-sample `forward` / `backward` / `backward_params` are the `B = 1`
//! case of the same kernels, so there is one code path per layer.
//!
//! # Bit-identity with a per-sample loop
//!
//! * Forward outputs and input gradients are per sample: every element is
//!   computed exactly as one sample's kernel computes it.
//! * Parameter gradients accumulate **transition-major**: sample outer, then
//!   the layer's own per-sample order (pixel, tap…) inner. A batched
//!   `backward` therefore adds exactly the terms, in exactly the order, of a
//!   loop of `forward` + `backward` per sample, and a seeded minibatch
//!   replays that loop bit for bit.

use crate::{Param, Tensor};

/// A differentiable computation with learnable parameters.
///
/// # Contract
///
/// * Each `backward_batch` follows its own `forward_batch`: the layer keeps
///   the input it was handed (or what it needs of it, never a copy) for the
///   backward pass, which consumes it and may write the input gradient over
///   the input's buffer.
/// * `backward_batch` accumulates parameter gradients (it does **not**
///   overwrite them), transition-major, and returns `dL/d input` in the
///   input's batch-innermost layout; `backward_params_batch` accumulates the
///   same parameter gradients, bit for bit, without computing `dL/d input`.
/// * `zero_grad` clears all accumulated parameter gradients.
pub trait Layer: Send {
    /// Runs the layer on a batch-innermost batch `[s…, B]`, keeping what
    /// the next `backward_batch` needs.
    fn forward_batch(&mut self, input: Tensor) -> Tensor;

    /// Propagates `grad_output = dL/d output` (batch-innermost) backwards,
    /// accumulating parameter gradients and returning `dL/d input`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `forward_batch` has not been called.
    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor;

    /// Like [`Layer::backward_batch`], but for a caller that discards
    /// `dL/d input`: it accumulates exactly the same parameter gradients and
    /// may skip the input gradient. The default runs `backward_batch` and
    /// drops its result.
    fn backward_params_batch(&mut self, grad_output: Tensor) {
        self.backward_batch(grad_output);
    }

    /// Runs the layer on one sample: the `B = 1` case of
    /// [`Layer::forward_batch`].
    fn forward(&mut self, input: &Tensor) -> Tensor {
        unbatched(self.forward_batch(batched(input)))
    }

    /// Backpropagates one sample: the `B = 1` case of
    /// [`Layer::backward_batch`].
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        unbatched(self.backward_batch(batched(grad_output)))
    }

    /// The `B = 1` case of [`Layer::backward_params_batch`].
    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_params_batch(batched(grad_output));
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

/// One sample as a batch of one: the shape gains a trailing `1`, which
/// leaves the data layout unchanged.
fn batched(sample: &Tensor) -> Tensor {
    let mut shape = sample.shape().to_vec();
    shape.push(1);
    sample.clone().into_shape(&shape)
}

/// The only sample of a batch of one.
fn unbatched(batch: Tensor) -> Tensor {
    let shape = batch.shape();
    debug_assert_eq!(shape.last(), Some(&1), "not a batch of one");
    let sample = shape[..shape.len() - 1].to_vec();
    batch.into_shape(&sample)
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
