//! Flattening layer: `[C, H, W] → [C·H·W]`, and its inverse. Both take the
//! batch buffer over and only relabel its shape: the batch-innermost layout
//! of `[C, H, W, B]` is already that of `[C·H·W, B]`.

use crate::{Layer, Param, Tensor};

/// Flattens a multi-dimensional activation into a vector, remembering the
/// original shape for the backward pass.
///
/// Used between the CNN feature extractor and the dense state projection in
/// the RL agent (paper Fig. 4).
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        let (&lanes, _) = input.shape().split_last().expect("Flatten of a 0-d batch");
        self.cached_shape = Some(input.shape().to_vec());
        let n = input.len() / lanes.max(1);
        input.into_shape(&[n, lanes])
    }

    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward called before forward");
        grad_output.into_shape(shape)
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "Flatten"
    }
}

/// The inverse of [`Flatten`]: reshapes a vector into `[C, H, W]`.
///
/// Used at the head of the deconvolutional policy network to turn the
/// 512-dimensional projection into a `[32, 4, 4]` activation before upsampling.
#[derive(Debug)]
pub struct Reshape {
    target: Vec<usize>,
    cached_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Creates a reshape layer with the given target shape.
    pub fn new(target: &[usize]) -> Self {
        Reshape {
            target: target.to_vec(),
            cached_shape: None,
        }
    }
}

impl Layer for Reshape {
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        let (&lanes, _) = input.shape().split_last().expect("Reshape of a 0-d batch");
        self.cached_shape = Some(input.shape().to_vec());
        let mut target = self.target.clone();
        target.push(lanes);
        input.into_shape(&target)
    }

    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Reshape::backward called before forward");
        grad_output.into_shape(shape)
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "Reshape"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[24]);
        let g = f.backward(&Tensor::ones(&[24]));
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn reshape_roundtrip() {
        let mut r = Reshape::new(&[4, 2, 2]);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[16]);
        let y = r.forward(&x);
        assert_eq!(y.shape(), &[4, 2, 2]);
        let g = r.backward(&y);
        assert_eq!(g.shape(), &[16]);
        assert_eq!(g.data(), x.data());
    }
}
