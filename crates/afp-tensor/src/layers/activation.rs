//! Element-wise activation layers: ReLU, Tanh and Sigmoid.

use crate::{Layer, Param, Tensor};

/// The kind of element-wise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)` — used after every convolution and dense layer in the CNN
    /// feature extractor and the policy/value networks.
    Relu,
    /// Hyperbolic tangent — used in the R-GCN reward head.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// An element-wise activation layer (no learnable parameters).
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::Activation, Layer, Tensor};
///
/// let mut relu = Activation::relu();
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]));
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    /// `derivative(x)` of the last forward batch; for ReLU only whether it
    /// is `1` (`x > 0`), a quarter of the bytes.
    slope: Slope,
}

/// What [`Activation::backward_batch`] needs of the forward input.
#[derive(Debug, Default)]
enum Slope {
    #[default]
    Unset,
    Positive(Vec<bool>),
    Values(Vec<f32>),
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            slope: Slope::Unset,
        }
    }

    /// Rectified linear unit.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Hyperbolic tangent.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    fn apply(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    fn derivative(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            ActivationKind::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

impl Layer for Activation {
    /// Element-wise in place, so the batch layout is irrelevant.
    fn forward_batch(&mut self, mut input: Tensor) -> Tensor {
        self.slope = match self.kind {
            ActivationKind::Relu => {
                Slope::Positive(input.data().iter().map(|&x| x > 0.0).collect())
            }
            _ => Slope::Values(input.data().iter().map(|&x| self.derivative(x)).collect()),
        };
        input.map_inplace(|x| self.apply(x));
        input
    }

    /// `derivative(x) * g` element-wise, in place.
    fn backward_batch(&mut self, mut grad_output: Tensor) -> Tensor {
        let g = grad_output.data_mut();
        match std::mem::take(&mut self.slope) {
            Slope::Unset => panic!(
                "Activation::backward without its forward (each forward serves one backward)"
            ),
            Slope::Positive(pos) => {
                assert_eq!(pos.len(), g.len(), "shape mismatch in zip");
                for (g, &p) in g.iter_mut().zip(&pos) {
                    *g *= f32::from(u8::from(p));
                }
            }
            Slope::Values(d) => {
                assert_eq!(d.len(), g.len(), "shape mismatch in zip");
                for (g, &d) in g.iter_mut().zip(&d) {
                    *g *= d;
                }
            }
        }
        grad_output
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &str {
        match self.kind {
            ActivationKind::Relu => "ReLU",
            ActivationKind::Tanh => "Tanh",
            ActivationKind::Sigmoid => "Sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut a = Activation::relu();
        let y = a.forward(&Tensor::from_slice(&[-2.0, 0.0, 3.0]));
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
        let g = a.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_saturates() {
        let mut a = Activation::tanh();
        let y = a.forward(&Tensor::from_slice(&[100.0, -100.0]));
        assert!((y.get(0) - 1.0).abs() < 1e-6);
        assert!((y.get(1) + 1.0).abs() < 1e-6);
        let g = a.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert!(g.get(0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_midpoint() {
        let mut a = Activation::sigmoid();
        let y = a.forward(&Tensor::from_slice(&[0.0]));
        assert!((y.get(0) - 0.5).abs() < 1e-6);
        let g = a.backward(&Tensor::from_slice(&[1.0]));
        assert!((g.get(0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn no_parameters() {
        let a = Activation::relu();
        assert!(a.params().is_empty());
        assert_eq!(a.num_parameters(), 0);
    }
}
