//! 2-D convolution over `[channels, height, width]` inputs.
//!
//! The kernels are order-preserving rewrites of the per-output loops: the
//! forward pass is tap-major (one axpy per valid output row and tap), the
//! weight gradient runs over patch rows, and the input gradient is tap-major
//! with the taps reversed. Every output and gradient element still receives
//! the per-output loop's terms in its order, so results are bit-identical to
//! it (`tests/properties.rs` checks this against the loops kept in
//! `tests/nn_oracle`).

use rand::Rng;

use crate::kernel::{axpy, axpy_gather, axpy_scatter, valid_range, Scratch};
use crate::{Init, Layer, Param, Tensor};

/// A 2-D convolution layer.
///
/// The paper's CNN state feature extractor stacks five of these with a 3×3
/// kernel, stride 1 and padding 1 over the 6×32×32 mask tensor
/// (grid view, wire mask, dead-space mask and the three positional masks).
///
/// Input and output layout is `[channels, height, width]` (single sample).
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
    cols: Scratch,
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
            cols: Scratch::default(),
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

    /// `dL/d input`, tap-major with `ky` and `kx` descending: for a fixed
    /// input element that visits its contributing outputs in `(oc, oy, ox)`
    /// order, the order of a per-output scatter loop.
    fn input_grad(&self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let gy = grad_output.data();
        let wgt = self.weight.value.data();
        let mut gx = vec![0.0f32; self.in_channels * h * w];
        for (ic, gxc) in gx.chunks_exact_mut(h * w).enumerate() {
            for (oc, gy_plane) in gy.chunks_exact(oh * ow).enumerate() {
                for ky in (0..k).rev() {
                    let rows = valid_range(ky, s, p, h, oh);
                    for kx in (0..k).rev() {
                        let cols = valid_range(kx, s, p, w, ow);
                        if cols.is_empty() {
                            continue;
                        }
                        let wv = wgt[((oc * self.in_channels + ic) * k + ky) * k + kx];
                        let ix0 = cols.start * s + kx - p;
                        for oy in rows.clone() {
                            let iy = oy * s + ky - p;
                            let src = &gy_plane[oy * ow + cols.start..oy * ow + cols.end];
                            axpy_scatter(wv, src, s, &mut gxc[iy * w + ix0..]);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gx, &[self.in_channels, h, w])
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.ndim(), 3, "Conv2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "Conv2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[0]
        );
    }
}

impl Layer for Conv2d {
    /// Tap-major: each output plane starts from its bias, then every tap
    /// `(ic, ky, kx)` in order adds one axpy per valid output row. Each
    /// output thus sums its taps in `(ic, ky, kx)` order, as a per-element
    /// loop would.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.check_input(input);
        self.cached_input = Some(input.clone());
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let x = input.data();
        let wgt = self.weight.value.data();
        let mut out = vec![0.0f32; self.out_channels * oh * ow];
        for (oc, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            plane.fill(self.bias.value.get(oc));
            for (ic, xc) in x.chunks_exact(h * w).enumerate() {
                for ky in 0..k {
                    let rows = valid_range(ky, s, p, h, oh);
                    for kx in 0..k {
                        let cols = valid_range(kx, s, p, w, ow);
                        if cols.is_empty() {
                            continue;
                        }
                        let wv = wgt[((oc * self.in_channels + ic) * k + ky) * k + kx];
                        let ix0 = cols.start * s + kx - p;
                        for oy in rows.clone() {
                            let iy = oy * s + ky - p;
                            let dst = &mut plane[oy * ow + cols.start..oy * ow + cols.end];
                            axpy_gather(wv, &xc[iy * w + ix0..], s, dst);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[self.out_channels, oh, ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_params(grad_output);
        self.input_grad(grad_output)
    }

    /// Weight and bias gradients from patch rows `cols[pix, (ic, ky, kx)]`
    /// (zero where a tap falls in the padding): `gw[oc, :] += g · cols[pix, :]`
    /// in pixel order, skipping `g == 0` pixels, so every weight sums its
    /// pixels in `(oy, ox)` order.
    fn backward_params(&mut self, grad_output: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let taps = self.in_channels * k * k;
        let x = input.data();
        let cols = self.cols.filled(oh * ow * taps, 0.0);
        for (ic, xc) in x.chunks_exact(h * w).enumerate() {
            for ky in 0..k {
                let rows = valid_range(ky, s, p, h, oh);
                for kx in 0..k {
                    let tap = (ic * k + ky) * k + kx;
                    let out_cols = valid_range(kx, s, p, w, ow);
                    for oy in rows.clone() {
                        let iy = oy * s + ky - p;
                        for ox in out_cols.clone() {
                            cols[(oy * ow + ox) * taps + tap] = xc[iy * w + ox * s + kx - p];
                        }
                    }
                }
            }
        }
        let gy = grad_output.data();
        let gw = self.weight.grad.data_mut();
        let gb = self.bias.grad.data_mut();
        for ((gw_row, gy_plane), gb) in gw
            .chunks_exact_mut(taps)
            .zip(gy.chunks_exact(oh * ow))
            .zip(gb.iter_mut())
        {
            for (&g, patch) in gy_plane.iter().zip(cols.chunks_exact(taps)) {
                if g == 0.0 {
                    continue;
                }
                *gb += g;
                axpy(g, patch, gw_row);
            }
        }
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
