//! 2-D convolution over `[channels, height, width]` inputs.
//!
//! The kernels are order-preserving rewrites of the per-output loops, run on
//! batch-innermost `[channels, height, width, B]` activations: the forward
//! pass is tap-major (one axpy per valid output row and tap, `B` lanes
//! long), the weight gradient streams one patch row per output pixel with
//! transitions outer, and the input gradient is tap-major with the taps
//! reversed. Every output and gradient element still receives the
//! per-output loop's terms in its order, one sample after another, so results
//! are bit-identical to running that loop per sample (`tests/properties.rs`
//! checks this against the loops kept in `tests/nn_oracle`).

use rand::Rng;

use crate::kernel::{axpy_scatter, bias_grads, valid_range, with_scratch, Window};
use crate::{Init, Layer, Param, Tensor};

/// A 2-D convolution layer.
///
/// The paper's CNN state feature extractor stacks five of these with a 3×3
/// kernel, stride 1 and padding 1 over the 6×32×32 mask tensor
/// (grid view, wire mask, dead-space mask and the three positional masks).
///
/// Per-sample layout is `[channels, height, width]`; a batch appends the
/// batch dimension innermost (see [`Layer`]).
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::Conv2d, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 8, 8]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c, kh, kw]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Init::KaimingUniform.sample(
            rng,
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
        );
        Conv2d {
            weight: Param::new("conv2d.weight", weight),
            bias: Param::new("conv2d.bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Spatial output size for a given input size.
    pub fn output_size(&self, input_size: usize) -> usize {
        (input_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The layer's window on a batch (input `[in_c, h, w]` as the source,
    /// output `[out_c, oh, ow]` as the destination) and the batch width.
    fn window(&self, input: &Tensor) -> (Window, usize) {
        let (h, w, lanes) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let window = Window {
            src: [self.in_channels, h, w],
            dst: [self.out_channels, self.output_size(h), self.output_size(w)],
            k: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        (window, lanes)
    }

    /// The batch cached by `forward_batch`, handed back for the backward pass.
    fn take_input(&mut self) -> Tensor {
        self.cached_input
            .take()
            .expect("Conv2d::backward without its forward (each forward serves one backward)")
    }

    /// `dL/d input`, written over the input's own buffer: tap-major with
    /// `ky` and `kx` descending, so a fixed input element visits its
    /// contributing outputs in `(oc, oy, ox)` order, the order of a
    /// per-output scatter loop.
    fn input_grad(&self, input: Tensor, grad_output: &Tensor) -> Tensor {
        let (window, lanes) = self.window(&input);
        let [in_c, h, w] = window.src;
        let [_, oh, ow] = window.dst;
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let gy = grad_output.data();
        let wgt = self.weight.value.data();
        let mut gx = input.into_vec();
        gx.fill(0.0);
        for (ic, gxc) in gx.chunks_exact_mut(h * w * lanes).enumerate() {
            for (oc, gy_plane) in gy.chunks_exact(oh * ow * lanes).enumerate() {
                for ky in (0..k).rev() {
                    let rows = valid_range(ky, s, p, h, oh);
                    for kx in (0..k).rev() {
                        let cols = valid_range(kx, s, p, w, ow);
                        if cols.is_empty() {
                            continue;
                        }
                        let wv = wgt[((oc * in_c + ic) * k + ky) * k + kx];
                        let ix0 = cols.start * s + kx - p;
                        for oy in rows.clone() {
                            let iy = oy * s + ky - p;
                            let src = &gy_plane
                                [(oy * ow + cols.start) * lanes..(oy * ow + cols.end) * lanes];
                            axpy_scatter(wv, src, s, lanes, &mut gxc[(iy * w + ix0) * lanes..]);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gx, &[in_c, h, w, lanes])
    }
}

impl Layer for Conv2d {
    /// Tap-major: each output plane starts from its bias, then every tap
    /// `(ic, ky, kx)` in order adds one axpy per valid output row. Each
    /// output thus sums its taps in `(ic, ky, kx)` order, as a per-element
    /// loop would.
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        assert_eq!(input.ndim(), 4, "Conv2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "Conv2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[0]
        );
        let (window, lanes) = self.window(&input);
        let [out_c, oh, ow] = window.dst;
        let mut out = vec![0.0f32; out_c * oh * ow * lanes];
        for (plane, &b) in out
            .chunks_exact_mut(oh * ow * lanes)
            .zip(self.bias.value.data())
        {
            plane.fill(b);
        }
        window.gather_taps(self.weight.value.data(), input.data(), lanes, &mut out);
        self.cached_input = Some(input);
        Tensor::from_vec(out, &[out_c, oh, ow, lanes])
    }

    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        let input = self.take_input();
        self.accumulate_param_grads(&input, &grad_output);
        self.input_grad(input, &grad_output)
    }

    fn backward_params_batch(&mut self, grad_output: Tensor) {
        let input = self.take_input();
        self.accumulate_param_grads(&input, &grad_output);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        "Conv2d"
    }
}

impl Conv2d {
    /// Weight and bias gradients, transition-major: patch rows of the input
    /// (zero where a tap falls in the padding) give `gw[oc, :] += g ·
    /// patch(pix)` in pixel order, skipping `g == 0`, one transition after
    /// another.
    fn accumulate_param_grads(&mut self, input: &Tensor, grad_output: &Tensor) {
        let (window, lanes) = self.window(input);
        let [out_c, oh, ow] = window.dst;
        assert_eq!(grad_output.shape(), &[out_c, oh, ow, lanes]);
        let (x, gy) = (input.data(), grad_output.data());
        let gw = self.weight.grad.data_mut();
        with_scratch(|bufs| window.weight_grads(x, gy, lanes, gw, bufs));
        bias_grads(gy, lanes, self.bias.grad.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_same_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[3, 16, 16]));
        assert_eq!(y.shape(), &[5, 16, 16]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        // Build a delta kernel: only the centre tap is 1.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.data_mut()[4] = 1.0;
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4]);
        let y = conv.forward(&input);
        assert_eq!(y.data(), input.data());
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 4, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 8, 8]));
        assert_eq!(y.shape(), &[2, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let input = Init::XavierUniform.sample(&mut rng, &[2, 5, 5], 50, 75);
        let max_err = check_layer_gradients(&mut conv, &input);
        assert!(max_err < 2e-2, "max gradient error {}", max_err);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[3, 4, 4]));
    }
}
