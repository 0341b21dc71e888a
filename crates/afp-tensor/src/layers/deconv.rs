//! 2-D transposed convolution ("deconvolution") over `[channels, height, width]`.
//!
//! The kernels are order-preserving rewrites of the per-input scatter loops,
//! run on batch-innermost `[channels, height, width, B]` activations: the
//! forward pass accumulates into one parity plane per output phase
//! (sub-pixel decomposition) with the taps reversed, and the backward pass
//! streams patch rows of the output gradient one input pixel at a time: all
//! lanes at once for the input gradient, transitions outer for the weight
//! gradient. Every output and gradient
//! element still receives the scatter loop's terms in its order, one sample
//! after another, so results are bit-identical to running that loop per
//! sample (`tests/properties.rs` checks this against the loops kept in
//! `tests/nn_oracle`).

use rand::Rng;

use crate::kernel::{axpy, bias_grads, valid_range, with_scratch, Scratch, Window};
use crate::{Init, Layer, Param, Tensor};

/// A 2-D transposed convolution layer.
///
/// The paper's deconvolutional policy network upsamples a 512-dimensional state
/// embedding back to the 32×32 action grid with three of these layers
/// (kernel 4×4, stride 2, padding 1), so that the agent can emit a joint
/// probability distribution over `(shape, grid cell)` actions.
///
/// The output spatial size for an input of size `n` is
/// `(n - 1) * stride - 2 * padding + kernel`, i.e. kernel 4 / stride 2 /
/// padding 1 exactly doubles the resolution.
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::ConvTranspose2d, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut deconv = ConvTranspose2d::new(8, 4, 4, 2, 1, &mut rng);
/// let y = deconv.forward(&Tensor::zeros(&[8, 4, 4]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// ```
#[derive(Debug)]
pub struct ConvTranspose2d {
    weight: Param, // [in_c, out_c, kh, kw]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution layer with Kaiming-uniform weights.
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
            &[in_channels, out_channels, kernel, kernel],
            fan_in,
            fan_out,
        );
        ConvTranspose2d {
            weight: Param::new("deconv.weight", weight),
            bias: Param::new("deconv.bias", Tensor::zeros(&[out_channels])),
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
        (input_size - 1) * self.stride + self.kernel - 2 * self.padding
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The forward pass's parity-plane accumulation and interleave over a
    /// `[h, w, lanes]` input, with `lanes = L` compiled in (`L = 0`: at run
    /// time).
    fn planes_forward<const L: usize>(
        &self,
        x: &[f32],
        [h, w, lanes]: [usize; 3],
        out: &mut [f32],
        plane_buf: &mut Scratch,
    ) {
        let lanes = if L == 0 { lanes } else { L };
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        // Every parity plane is sized for the largest residue class.
        let (ph, pw) = (oh.div_ceil(s), ow.div_ceil(s));
        let wgt = self.weight.value.data();
        for (oc, out_plane) in out.chunks_exact_mut(oh * ow * lanes).enumerate() {
            // A zero bias leaves the +0.0 start, so a −0.0 bias never shows.
            let b = self.bias.value.get(oc);
            let start = if b != 0.0 { b } else { 0.0 };
            let planes = plane_buf.filled(s * s * ph * pw * lanes, start);
            for (ic, xc) in x.chunks_exact(h * w * lanes).enumerate() {
                for ky in (0..k).rev() {
                    let rows = valid_range(ky, s, p, oh, h);
                    if rows.is_empty() {
                        continue;
                    }
                    let oy0 = rows.start * s + ky - p;
                    for kx in (0..k).rev() {
                        let cols = valid_range(kx, s, p, ow, w);
                        if cols.is_empty() {
                            continue;
                        }
                        let ox0 = cols.start * s + kx - p;
                        let wv = wgt[((ic * self.out_channels + oc) * k + ky) * k + kx];
                        let plane = &mut planes[(oy0 % s * s + ox0 % s) * ph * pw * lanes..];
                        for (qy, iy) in (oy0 / s..).zip(rows.clone()) {
                            let dst =
                                &mut plane[(qy * pw + ox0 / s) * lanes..][..cols.len() * lanes];
                            let src =
                                &xc[(iy * w + cols.start) * lanes..(iy * w + cols.end) * lanes];
                            axpy(wv, src, dst);
                        }
                    }
                }
            }
            for (oy, row) in out_plane.chunks_exact_mut(ow * lanes).enumerate() {
                for rx in 0..s.min(ow) {
                    let src = &planes[((oy % s * s + rx) * ph + oy / s) * pw * lanes..];
                    let dst = row[rx * lanes..].chunks_mut(lanes).step_by(s);
                    for (o, v) in dst.zip(src.chunks_exact(lanes)) {
                        o.copy_from_slice(v);
                    }
                }
            }
        }
    }
}

impl Layer for ConvTranspose2d {
    /// Sub-pixel decomposition: output pixels with the same `(oy, ox) mod
    /// stride` form a parity plane, and each tap `(ky, kx)` writes one plane
    /// at a fixed input shift, so it is one contiguous axpy per input row
    /// (`B` lanes long). Planes start from the bias and take taps in
    /// `(ic, ky↓, kx↓)` order, which for every output is the `(ic, iy, ix)`
    /// order of a per-input scatter loop; then the planes are interleaved
    /// into the output.
    fn forward_batch(&mut self, input: Tensor) -> Tensor {
        assert_eq!(input.ndim(), 4, "ConvTranspose2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "ConvTranspose2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[0]
        );
        let (h, w, lanes) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let mut out = vec![0.0f32; self.out_channels * oh * ow * lanes];
        with_scratch(|[plane_buf, _]| {
            // One sample (a rollout step) gets its lane count compiled in.
            if lanes == 1 {
                self.planes_forward::<1>(input.data(), [h, w, lanes], &mut out, plane_buf);
            } else {
                self.planes_forward::<0>(input.data(), [h, w, lanes], &mut out, plane_buf);
            }
        });
        self.cached_input = Some(input);
        Tensor::from_vec(out, &[self.out_channels, oh, ow, lanes])
    }

    /// Patch rows of the output gradient (zero where a tap is cropped): the
    /// weight gradient takes `gw[ic, :] += x · patch(pix)` in input-pixel
    /// order, skipping `x == 0`, transition-major like the bias gradient;
    /// the input gradient is `gx[ic, pix] = w[ic, :] · patch(pix)` summed in
    /// `(oc, ky, kx)` order, all lanes of a pixel at once — the orders of a
    /// per-input loop.
    fn backward_batch(&mut self, grad_output: Tensor) -> Tensor {
        let input = self.cached_input.take().expect(
            "ConvTranspose2d::backward without its forward (each forward serves one backward)",
        );
        let (h, w, lanes) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow, lanes]);
        let window = Window {
            src: [self.out_channels, oh, ow],
            dst: [self.in_channels, h, w],
            k: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let (x, gy) = (input.data(), grad_output.data());
        bias_grads(gy, lanes, self.bias.grad.data_mut());
        let gw = self.weight.grad.data_mut();
        with_scratch(|bufs| window.weight_grads(gy, x, lanes, gw, bufs));
        // Every element of the input's buffer is overwritten by its gradient.
        let shape = input.shape().to_vec();
        let mut gx = input.into_vec();
        let wgt = self.weight.value.data();
        with_scratch(|bufs| window.patch_dots(wgt, gy, lanes, &mut gx, bufs));
        Tensor::from_vec(gx, &shape)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        "ConvTranspose2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn doubles_spatial_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(4, 2, 4, 2, 1, &mut rng);
        let y = deconv.forward(&Tensor::zeros(&[4, 8, 8]));
        assert_eq!(y.shape(), &[2, 16, 16]);
    }

    #[test]
    fn three_stage_upsample_reaches_32() {
        // The paper's policy: 4×4 → 8×8 → 16×16 → 32×32.
        let mut rng = StdRng::seed_from_u64(0);
        let mut d1 = ConvTranspose2d::new(32, 32, 4, 2, 1, &mut rng);
        let mut d2 = ConvTranspose2d::new(32, 16, 4, 2, 1, &mut rng);
        let mut d3 = ConvTranspose2d::new(16, 8, 4, 2, 1, &mut rng);
        let y = d3.forward(&d2.forward(&d1.forward(&Tensor::zeros(&[32, 4, 4]))));
        assert_eq!(y.shape(), &[8, 32, 32]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut deconv = ConvTranspose2d::new(2, 2, 4, 2, 1, &mut rng);
        let input = Init::XavierUniform.sample(&mut rng, &[2, 3, 3], 18, 18);
        let max_err = check_layer_gradients(&mut deconv, &input);
        assert!(max_err < 2e-2, "max gradient error {}", max_err);
    }

    #[test]
    fn bias_fills_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(1, 1, 4, 2, 1, &mut rng);
        deconv.weight.value = Tensor::zeros(&[1, 1, 4, 4]);
        deconv.bias.value = Tensor::from_slice(&[0.7]);
        let y = deconv.forward(&Tensor::zeros(&[1, 2, 2]));
        assert!(y.data().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }
}
