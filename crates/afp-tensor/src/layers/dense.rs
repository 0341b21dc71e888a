//! Fully connected (affine) layer.
//!
//! The forward pass runs four output rows per pass over the input; each row
//! keeps its own serial sum from its bias, so outputs are bit-identical to a
//! one-row-at-a-time loop.

use rand::Rng;

use crate::kernel::dot_rows;
use crate::{Init, Layer, Param, Tensor};

/// A fully connected layer computing `y = W·x + b` on 1-D inputs.
///
/// Used throughout the paper's model: the MLP reward head on top of the R-GCN,
/// the 512-dimensional state projection after the CNN feature extractor, the
/// value network and the policy input projection.
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::Dense, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut dense = Dense::new(4, 2, &mut rng);
/// let y = dense.forward(&Tensor::from_slice(&[1.0, 0.0, -1.0, 0.5]));
/// assert_eq!(y.shape(), &[2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform weights and zero biases.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_init(in_features, out_features, Init::KaimingUniform, rng)
    }

    /// Creates a dense layer with an explicit weight initialization scheme.
    pub fn with_init<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        let weight = init.sample(rng, &[out_features, in_features], in_features, out_features);
        Dense {
            weight: Param::new("dense.weight", weight),
            bias: Param::new("dense.bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.len(),
            self.in_features,
            "Dense: expected input of length {}, got {:?}",
            self.in_features,
            input.shape()
        );
        self.cached_input = Some(input.clone());
        // Each output starts from its bias and sums its row serially; four
        // rows run per pass.
        let mut out = self.bias.value.data().to_vec();
        dot_rows(self.weight.value.data(), input.data(), &mut out);
        Tensor::from_vec(out, &[self.out_features])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        assert_eq!(grad_output.len(), self.out_features);
        let x = input.data();
        let gy = grad_output.data();
        // dW[o, i] += gy[o] * x[i]; db[o] += gy[o]
        {
            let gw = self.weight.grad.data_mut();
            for (o, &g) in gy.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let row = &mut gw[o * self.in_features..(o + 1) * self.in_features];
                for (gwi, &xi) in row.iter_mut().zip(x.iter()) {
                    *gwi += g * xi;
                }
            }
            let gb = self.bias.grad.data_mut();
            for (o, &g) in gy.iter().enumerate() {
                gb[o] += g;
            }
        }
        // gx[i] = sum_o W[o, i] * gy[o]
        let w = self.weight.value.data();
        let mut gx = vec![0.0f32; self.in_features];
        for (o, &g) in gy.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            for (gxi, &wi) in gx.iter_mut().zip(row.iter()) {
                *gxi += wi * g;
            }
        }
        Tensor::from_vec(gx, &[self.in_features])
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        layer.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        layer.bias.value = Tensor::from_slice(&[0.5, -0.5]);
        let y = layer.forward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut layer = Dense::new(5, 3, &mut rng);
        let input = Tensor::from_slice(&[0.3, -0.7, 1.2, 0.0, -0.1]);
        let max_err = check_layer_gradients(&mut layer, &input);
        assert!(max_err < 1e-2, "max gradient error {}", max_err);
    }

    #[test]
    #[should_panic(expected = "expected input of length")]
    fn wrong_input_size_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        let _ = layer.forward(&Tensor::from_slice(&[1.0]));
    }
}
