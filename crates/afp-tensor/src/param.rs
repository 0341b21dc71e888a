//! Learnable parameters: a value tensor paired with its gradient accumulator.

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// A learnable parameter of a layer.
///
/// The gradient is accumulated across [`crate::layer::Layer::backward`] calls
/// until it is explicitly cleared (see [`Param::zero_grad`]), which makes it
/// easy to sum gradients over a minibatch by looping per-sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Human-readable parameter name, used in diagnostics and serialization.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
