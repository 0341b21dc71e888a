//! 2-D transposed convolution ("deconvolution") over `[channels, height, width]`.
//!
//! The kernels are order-preserving rewrites of the per-input scatter loops:
//! the forward pass accumulates into one parity plane per output phase
//! (sub-pixel decomposition) with the taps reversed, and the backward pass
//! works from patch rows of the output gradient. Every output and gradient
//! element still receives the scatter loop's terms in its order, so results
//! are bit-identical to it (`tests/properties.rs` checks this against the
//! loops kept in `tests/nn_oracle`).

use rand::Rng;

use crate::kernel::{axpy, dot_rows, valid_range, Scratch};
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
    cols: Scratch,
    planes: Scratch,
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
            cols: Scratch::default(),
            planes: Scratch::default(),
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
}

impl Layer for ConvTranspose2d {
    /// Sub-pixel decomposition: output pixels with the same `(oy, ox) mod
    /// stride` form a parity plane, and each tap `(ky, kx)` writes one plane
    /// at a fixed input shift, so it is one contiguous axpy per input row.
    /// Planes start from the bias and take taps in `(ic, ky↓, kx↓)` order,
    /// which for every output is the `(ic, iy, ix)` order of a per-input
    /// scatter loop; then the planes are interleaved into the output.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 3, "ConvTranspose2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "ConvTranspose2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[0]
        );
        self.cached_input = Some(input.clone());
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        // Every parity plane is sized for the largest residue class.
        let (ph, pw) = (oh.div_ceil(s), ow.div_ceil(s));
        let x = input.data();
        let wgt = self.weight.value.data();
        let mut out = vec![0.0f32; self.out_channels * oh * ow];
        for (oc, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            // A zero bias leaves the +0.0 start, so a −0.0 bias never shows.
            let b = self.bias.value.get(oc);
            let start = if b != 0.0 { b } else { 0.0 };
            let planes = self.planes.filled(s * s * ph * pw, start);
            for (ic, xc) in x.chunks_exact(h * w).enumerate() {
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
                        let plane = &mut planes[(oy0 % s * s + ox0 % s) * ph * pw..];
                        for (qy, iy) in (oy0 / s..).zip(rows.clone()) {
                            let dst = &mut plane[qy * pw + ox0 / s..][..cols.len()];
                            axpy(wv, &xc[iy * w + cols.start..iy * w + cols.end], dst);
                        }
                    }
                }
            }
            for (oy, row) in out_plane.chunks_exact_mut(ow).enumerate() {
                for rx in 0..s.min(ow) {
                    let src = &planes[((oy % s * s + rx) * ph + oy / s) * pw..];
                    for (o, &v) in row[rx..].iter_mut().step_by(s).zip(src) {
                        *o = v;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[self.out_channels, oh, ow])
    }

    /// Patch rows `cols[pix_in, (oc, ky, kx)]` gathered from `grad_output`
    /// (zero where a tap is cropped) give `gw[ic, :] += x · cols[pix, :]` in
    /// input-pixel order, and `gx[ic, pix] = w[ic, :] · cols[pix, :]` summed
    /// in `(oc, ky, kx)` order — the orders of a per-input loop.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("ConvTranspose2d::backward called before forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.output_size(h), self.output_size(w));
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let taps = self.out_channels * k * k;
        let x = input.data();
        let gy = grad_output.data();
        let cols = self.cols.filled(h * w * taps, 0.0);
        for (oc, gy_plane) in gy.chunks_exact(oh * ow).enumerate() {
            for ky in 0..k {
                let rows = valid_range(ky, s, p, oh, h);
                for kx in 0..k {
                    let tap = (oc * k + ky) * k + kx;
                    let in_cols = valid_range(kx, s, p, ow, w);
                    for iy in rows.clone() {
                        let oy = iy * s + ky - p;
                        for ix in in_cols.clone() {
                            cols[(iy * w + ix) * taps + tap] = gy_plane[oy * ow + ix * s + kx - p];
                        }
                    }
                }
            }
        }
        let gb = self.bias.grad.data_mut();
        for (gb, gy_plane) in gb.iter_mut().zip(gy.chunks_exact(oh * ow)) {
            for v in gy_plane {
                *gb += v;
            }
        }
        let gw = self.weight.grad.data_mut();
        let wgt = self.weight.value.data();
        let mut gx = vec![0.0f32; self.in_channels * h * w];
        for (((gw_row, w_row), xc), gxc) in gw
            .chunks_exact_mut(taps)
            .zip(wgt.chunks_exact(taps))
            .zip(x.chunks_exact(h * w))
            .zip(gx.chunks_exact_mut(h * w))
        {
            for (&xv, patch) in xc.iter().zip(cols.chunks_exact(taps)) {
                if xv != 0.0 {
                    axpy(xv, patch, gw_row);
                }
            }
            dot_rows(cols, w_row, gxc);
        }
        Tensor::from_vec(gx, &[self.in_channels, h, w])
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
