//! Fully connected (affine) layer.
//!
//! The forward pass runs four output rows per pass over the input, eight
//! batch lanes at a time; each `(row, sample)` keeps its own serial sum from
//! its bias, so outputs are bit-identical to a one-row-at-a-time loop per
//! sample. The weight gradient runs transition-major, one sample after
//! another, as a per-sample backward loop would.

use rand::Rng;

use crate::kernel::{axpy, bias_grads, dot_rows, with_scratch};

/// Batch floats per input block of the backward pass (8 KiB): the block's
/// samples and input gradients stay in L1 while every weight row streams
/// past.
const BLOCK_FLOATS: usize = 2048;
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

/// `acc[j] += g[t] · xs[t·n + j]` for each sample `t` in order, with `n =
/// acc.len()`: sixteen accumulators at a time stay in registers across all
/// samples. A zero `g[t]` adds `±0.0`, which leaves an accumulator (never
/// `−0.0`) unchanged.
fn lane_sums(acc: &mut [f32], g: &[f32], xs: &[f32]) {
    let n = acc.len();
    let mut j = 0;
    while j + 16 <= n {
        let mut a: [f32; 16] = acc[j..j + 16].try_into().expect("16 weights");
        for (&gt, xt) in g.iter().zip(xs.chunks_exact(n)) {
            let x: &[f32; 16] = xt[j..j + 16].try_into().expect("16 inputs");
            for (a, &x) in a.iter_mut().zip(x) {
                *a += gt * x;
            }
        }
        acc[j..j + 16].copy_from_slice(&a);
        j += 16;
    }
    for (j, a) in acc.iter_mut().enumerate().skip(j) {
        for (&gt, xt) in g.iter().zip(xs.chunks_exact(n)) {
            *a += gt * xt[j];
        }
    }
}

/// `out[i·L + l] += w[i] · g[l]` with `L = g.len()`: one weight row's
/// terms added to every sample's input gradient, eight lanes at a time.
fn outer_sums(w: &[f32], g: &[f32], out: &mut [f32]) {
    let lanes = g.len();
    if lanes == 1 {
        axpy(g[0], w, out);
        return;
    }
    let mut lane = 0;
    while lane + 8 <= lanes {
        let g8: &[f32; 8] = g[lane..lane + 8].try_into().expect("8 lanes");
        for (o, &wi) in out.chunks_exact_mut(lanes).zip(w) {
            let o: &mut [f32; 8] = (&mut o[lane..lane + 8]).try_into().expect("8 lanes");
            for l in 0..8 {
                o[l] += wi * g8[l];
            }
        }
        lane += 8;
    }
    for (o, &wi) in out.chunks_exact_mut(lanes).zip(w) {
        for (o, &gl) in o[lane..].iter_mut().zip(&g[lane..]) {
            *o += wi * gl;
        }
    }
}

impl Layer for Dense {
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        let lanes = input.shape().last().copied().unwrap_or(1);
        assert_eq!(
            input.len(),
            self.in_features * lanes,
            "Dense: expected input of length {}, got {:?}",
            self.in_features,
            &input.shape()[..input.ndim().saturating_sub(1)]
        );
        // Each output starts from its bias and sums its row serially; four
        // rows and eight lanes run per pass.
        let mut out = Vec::with_capacity(self.out_features * lanes);
        for &b in self.bias.value.data() {
            out.extend(std::iter::repeat_n(b, lanes));
        }
        dot_rows(self.weight.value.data(), input.data(), lanes, &mut out);
        self.cached_input = Some(input);
        Tensor::from_vec(out, &[self.out_features, lanes])
    }

    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("Dense::backward without its forward (each forward serves one backward)");
        let lanes = input.len() / self.in_features;
        assert_eq!(grad_output.len(), self.out_features * lanes);
        let shape = input.shape().to_vec();
        let mut x = input.into_vec();
        let gy = grad_output.data();
        let (gw, w) = (self.weight.grad.data_mut(), self.weight.value.data());
        // Block by block of inputs, so the block's rows of `dW` and of `W`
        // stay cache-resident: first dW[o, i] += gy[o] * x[i], one sample
        // after another; then gx[i, :] = Σ_o W[o, i] · gy[o, :] in `o` order
        // from +0.0, written over the block of the input's own buffer.
        with_scratch(|[buf, _]| {
            // One sample streams whole rows, as it needs no sample copies.
            let block_len = if lanes == 1 {
                self.in_features
            } else {
                (BLOCK_FLOATS / lanes).max(1)
            };
            for i0 in (0..self.in_features).step_by(block_len) {
                let i1 = (i0 + block_len).min(self.in_features);
                let block = &mut x[i0 * lanes..i1 * lanes];
                // The block's samples, one contiguous row each.
                let xs: &[f32] = if lanes == 1 {
                    block
                } else {
                    let xs = buf.filled(block.len(), 0.0);
                    for (t, xt) in xs.chunks_exact_mut(i1 - i0).enumerate() {
                        for (o, &v) in xt.iter_mut().zip(block[t..].iter().step_by(lanes)) {
                            *o = v;
                        }
                    }
                    xs
                };
                // Rows whose gradient is zero in every sample add only ±0.0.
                let live = |g: &&[f32]| g.iter().any(|&v| v != 0.0);
                for (gw_row, g) in gw
                    .chunks_exact_mut(self.in_features)
                    .zip(gy.chunks_exact(lanes))
                    .filter(|(_, g)| live(g))
                {
                    lane_sums(&mut gw_row[i0..i1], g, xs);
                }
                block.fill(0.0);
                for (row, g) in w
                    .chunks_exact(self.in_features)
                    .zip(gy.chunks_exact(lanes))
                    .filter(|(_, g)| live(g))
                {
                    outer_sums(&row[i0..i1], g, block);
                }
            }
        });
        bias_grads(gy, lanes, self.bias.grad.data_mut());
        Tensor::from_vec(x, &shape)
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
