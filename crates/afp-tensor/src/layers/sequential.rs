//! Sequential container of layers.

use crate::{Layer, Param, Tensor};

/// A feed-forward stack of layers applied in order.
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::{Activation, Dense, Sequential}, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Activation::relu());
/// net.push(Dense::new(8, 1, &mut rng));
/// let y = net.forward(&Tensor::zeros(&[4]));
/// assert_eq!(y.shape(), &[1]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({:?})", names)
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .fold(input, |x, layer| layer.forward_batch(x))
    }

    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad_output, |g, layer| layer.backward_batch(g))
    }

    /// Backpropagates through every layer but asks the first one for its
    /// parameter gradients only, since nothing consumes the stack's input
    /// gradient.
    fn backward_params_batch(&mut self, grad_output: Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let g = rest
            .iter_mut()
            .rev()
            .fold(grad_output, |g, layer| layer.backward_batch(g));
        first.backward_params_batch(g);
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::{Activation, Dense};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(4, 6, rng));
        net.push(Activation::tanh());
        net.push(Dense::new(6, 3, rng));
        net
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&mut rng);
        let y = net.forward(&Tensor::from_slice(&[0.1, 0.2, -0.3, 0.4]));
        assert_eq!(y.shape(), &[3]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn gradients_flow_through_stack() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = mlp(&mut rng);
        let input = Tensor::from_slice(&[0.5, -0.2, 0.1, 0.9]);
        let max_err = check_layer_gradients(&mut net, &input);
        assert!(max_err < 1e-2, "max gradient error {}", max_err);
    }

    #[test]
    fn backward_params_matches_backward_parameter_grads() {
        use crate::layers::{Conv2d, Flatten};
        let mut rng = StdRng::seed_from_u64(11);
        let build = || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = Sequential::new();
            net.push(Conv2d::new(2, 3, 3, 1, 1, &mut rng));
            net.push(Activation::relu());
            net.push(Flatten::new());
            net.push(Dense::new(3 * 4 * 4, 2, &mut rng));
            net
        };
        let (mut full, mut params_only) = (build(), build());
        for _ in 0..3 {
            let x = crate::Init::XavierUniform.sample(&mut rng, &[2, 4, 4], 8, 8);
            let g = crate::Init::XavierUniform.sample(&mut rng, &[2], 2, 2);
            full.forward(&x);
            full.backward(&g);
            params_only.forward(&x);
            params_only.backward_params(&g);
        }
        let bits = |net: &Sequential| -> Vec<Vec<u32>> {
            net.params()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&full), bits(&params_only));
        assert!(full.params().iter().all(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn params_collects_all_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&mut rng);
        // Two dense layers → 4 parameter tensors.
        assert_eq!(net.params().len(), 4);
        assert_eq!(net.num_parameters(), 4 * 6 + 6 + 6 * 3 + 3);
    }
}
