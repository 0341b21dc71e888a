//! Learnable parameters: a value tensor paired with its gradient accumulator.

use crate::Tensor;

/// A learnable parameter of a layer.
///
/// The gradient is accumulated across [`crate::layer::Layer::backward`] calls
/// until it is explicitly cleared (see [`Param::zero_grad`]), which makes it
/// easy to sum gradients over a minibatch by looping per-sample.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable parameter name, used in diagnostics.
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient of the loss with respect to `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Resets the accumulated gradient to zero, in place when its shape still
    /// matches the value's.
    pub fn zero_grad(&mut self) {
        if self.grad.shape() == self.value.shape() {
            self.grad.data_mut().fill(0.0);
        } else {
            self.grad = Tensor::zeros(self.value.shape());
        }
    }

    /// Number of scalar values held by this parameter.
    pub fn num_elements(&self) -> usize {
        self.value.len()
    }
}

/// Copies the values of `from` into `to`, parameter by parameter in order
/// (gradients are left alone). Both lists must come from the same
/// architecture, e.g. two networks' `params_mut()` and `params()`.
///
/// # Errors
///
/// Returns an error if the parameter counts or any pair of shapes differ;
/// everything is checked before anything is written, so `to` is then
/// unchanged.
pub fn copy_values(to: &mut [&mut Param], from: &[&Param]) -> Result<(), String> {
    if to.len() != from.len() {
        return Err(format!(
            "parameter count mismatch: target has {}, source has {}",
            to.len(),
            from.len()
        ));
    }
    if let Some((t, f)) = to.iter().zip(from).find(|(t, f)| t.value.shape() != f.value.shape()) {
        return Err(format!(
            "shape mismatch for {}: {:?} vs {:?}",
            t.name,
            t.value.shape(),
            f.value.shape()
        ));
    }
    for (t, f) in to.iter_mut().zip(from) {
        t.value.data_mut().copy_from_slice(f.value.data());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense, Sequential};
    use crate::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones(&[2, 2]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.num_elements(), 4);
        assert_eq!(p.name, "w");
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new("b", Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    fn small_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, &mut rng));
        net.push(Activation::relu());
        net.push(Dense::new(4, 2, &mut rng));
        net
    }

    #[test]
    fn copy_values_transfers_weights() {
        let mut src = small_net(1);
        let mut dst = small_net(2);
        copy_values(&mut dst.params_mut(), &src.params()).unwrap();
        let x = Tensor::from_slice(&[0.2, -0.4, 0.9]);
        assert_eq!(src.forward(&x).data(), dst.forward(&x).data());
    }

    #[test]
    fn copy_values_rejects_mismatch_without_writing() {
        let src = small_net(1);
        let mut rng = StdRng::seed_from_u64(3);
        // One layer fewer: the count differs.
        let mut fewer = Sequential::new();
        fewer.push(Dense::new(3, 4, &mut rng));
        // Same count, but the last two shapes differ.
        let mut wider = Sequential::new();
        wider.push(Dense::new(3, 4, &mut rng));
        wider.push(Dense::new(4, 3, &mut rng));
        let values = |net: &Sequential| -> Vec<Tensor> {
            net.params().iter().map(|p| p.value.clone()).collect()
        };
        for (net, what) in [(&mut fewer, "count"), (&mut wider, "shape")] {
            let before = values(net);
            let err = copy_values(&mut net.params_mut(), &src.params()).unwrap_err();
            assert!(err.contains(what), "{err}");
            assert_eq!(values(net), before);
        }
    }
}
