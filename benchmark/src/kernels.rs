//! afp-tensor layer timings at the policy's exact shapes, and exact
//! per-call counts computed from those shapes.
//!
//! Each conv, deconv and dense layer of the actor-critic is rebuilt
//! standalone (`Conv2d`, `ConvTranspose2d`, `Dense`) and called through the
//! public `Layer` trait. Times are per-call medians: on a shared host the
//! same call can take twice as long from one repetition to the next, so sums
//! of single calls would mostly measure the neighbours.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::SHAPES_PER_BLOCK;
use afp_layout::{GRID_SIZE, STATE_CHANNELS};
use afp_rl::PolicyConfig;
use afp_tensor::layers::{Conv2d, ConvTranspose2d, Dense};
use afp_tensor::{Layer, Tensor};

use crate::report::{median, Metrics};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Conv,
    Deconv,
    Dense,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Conv => "conv",
            Kind::Deconv => "deconv",
            Kind::Dense => "dense",
        }
    }
}

/// One layer of the actor-critic. For dense layers `c_in`/`c_out` are the
/// feature counts and the spatial fields are unused.
#[derive(Debug, Clone, Copy)]
struct LayerShape {
    kind: Kind,
    c_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Input height (= width).
    size: usize,
}

impl LayerShape {
    fn conv(c_in: usize, c_out: usize, kernel: usize, padding: usize, size: usize) -> Self {
        LayerShape {
            kind: Kind::Conv,
            c_in,
            c_out,
            kernel,
            stride: 1,
            padding,
            size,
        }
    }

    fn deconv(c_in: usize, c_out: usize, size: usize) -> Self {
        LayerShape {
            kind: Kind::Deconv,
            c_in,
            c_out,
            kernel: 4,
            stride: 2,
            padding: 1,
            size,
        }
    }

    fn dense(c_in: usize, c_out: usize) -> Self {
        LayerShape {
            kind: Kind::Dense,
            c_in,
            c_out,
            kernel: 1,
            stride: 1,
            padding: 0,
            size: 1,
        }
    }

    fn out_size(&self) -> usize {
        match self.kind {
            Kind::Conv => (self.size + 2 * self.padding - self.kernel) / self.stride + 1,
            Kind::Deconv => (self.size - 1) * self.stride + self.kernel - 2 * self.padding,
            Kind::Dense => 1,
        }
    }

    /// Kernel taps along one axis that land inside the tensor, which is
    /// exactly how many the loops in `afp-tensor` execute.
    fn taps_per_axis(&self) -> usize {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        match self.kind {
            Kind::Conv => (0..self.out_size())
                .map(|o| {
                    (0..k)
                        .filter(|&t| (p..p + self.size).contains(&(o * s + t)))
                        .count()
                })
                .sum(),
            Kind::Deconv => (0..self.size)
                .map(|i| {
                    (0..k)
                        .filter(|&t| (p..p + self.out_size()).contains(&(i * s + t)))
                        .count()
                })
                .sum(),
            Kind::Dense => 1,
        }
    }

    /// Multiply-accumulates per forward call, counting every tap whose
    /// input is nonzero (the deconv loop skips zero inputs at run time).
    fn macs(&self) -> u64 {
        let taps = self.taps_per_axis() as u64;
        (self.c_in * self.c_out) as u64 * taps * taps
    }

    /// Bytes of f32 a forward call must read or write at least once:
    /// input, weights, bias and output.
    fn bytes(&self) -> u64 {
        let (input, weights, output) = match self.kind {
            Kind::Dense => (self.c_in, self.c_in * self.c_out, self.c_out),
            _ => (
                self.c_in * self.size * self.size,
                self.c_in * self.c_out * self.kernel * self.kernel,
                self.c_out * self.out_size() * self.out_size(),
            ),
        };
        4 * (input + weights + self.c_out + output) as u64
    }

    fn build(&self, rng: &mut StdRng) -> Box<dyn Layer> {
        match self.kind {
            Kind::Conv => Box::new(Conv2d::new(
                self.c_in,
                self.c_out,
                self.kernel,
                self.stride,
                self.padding,
                rng,
            )),
            Kind::Deconv => Box::new(ConvTranspose2d::new(
                self.c_in,
                self.c_out,
                self.kernel,
                self.stride,
                self.padding,
                rng,
            )),
            Kind::Dense => Box::new(Dense::new(self.c_in, self.c_out, rng)),
        }
    }

    fn input(&self, rng: &mut StdRng) -> Tensor {
        let shape: Vec<usize> = match self.kind {
            Kind::Dense => vec![self.c_in],
            _ => vec![self.c_in, self.size, self.size],
        };
        let n = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen::<f32>()).collect(), &shape)
    }
}

/// Every conv, deconv and dense layer of `ActorCritic::new(config)`, in
/// forward order: CNN, policy head, value head.
fn policy_shapes(config: &PolicyConfig) -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    let mut c_in = STATE_CHANNELS;
    for &c_out in &config.conv_channels {
        shapes.push(LayerShape::conv(c_in, c_out, 3, 1, GRID_SIZE));
        c_in = c_out;
    }
    shapes.push(LayerShape::dense(
        c_in * GRID_SIZE * GRID_SIZE,
        config.cnn_feature_dim,
    ));
    let [d0, d1, d2] = config.deconv_channels;
    let state = config.state_dim();
    shapes.push(LayerShape::dense(state, d0 * 4 * 4));
    shapes.push(LayerShape::deconv(d0, d0, 4));
    shapes.push(LayerShape::deconv(d0, d1, 8));
    shapes.push(LayerShape::deconv(d1, d2, 16));
    shapes.push(LayerShape::conv(d2, SHAPES_PER_BLOCK, 1, 0, GRID_SIZE));
    shapes.push(LayerShape::dense(state, config.value_hidden));
    shapes.push(LayerShape::dense(config.value_hidden, 1));
    shapes
}

/// Median seconds per call of forward, and of backward when `backward`.
fn time_layer(shape: &LayerShape, reps: usize, backward: bool) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut layer = shape.build(&mut rng);
    let input = shape.input(&mut rng);
    let mut fwd = Vec::with_capacity(reps);
    let mut bwd = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let out = std::hint::black_box(layer.forward(std::hint::black_box(&input)));
        fwd.push(started.elapsed().as_secs_f64());
        if backward {
            let grad = out.map(|v| 1e-3 * v);
            let started = Instant::now();
            std::hint::black_box(layer.backward(&grad));
            bwd.push(started.elapsed().as_secs_f64());
        }
    }
    (median(&fwd), if backward { median(&bwd) } else { 0.0 })
}

/// Times both configs and pushes the `tensor.*` metrics: per-kind forward
/// milliseconds per policy forward (sum of per-layer medians), GMAC/s over
/// the computed MACs, small-config backward milliseconds, and the computed
/// MAC and byte counts per kind. Per-layer counts go to stderr.
pub fn measure(metrics: &mut Metrics) {
    for (label, config, reps) in [
        ("paper", PolicyConfig::paper(), 3),
        ("small", PolicyConfig::small(), 40),
    ] {
        let backward = label == "small";
        let shapes = policy_shapes(&config);
        let mut total_macs = 0u64;
        for kind in [Kind::Conv, Kind::Dense, Kind::Deconv] {
            let (mut fwd_s, mut bwd_s, mut macs, mut bytes) = (0.0, 0.0, 0u64, 0u64);
            for (i, shape) in shapes.iter().enumerate().filter(|(_, s)| s.kind == kind) {
                let (f, b) = time_layer(shape, reps, backward);
                fwd_s += f;
                bwd_s += b;
                macs += shape.macs();
                bytes += shape.bytes();
                eprintln!(
                    "computed {label} layer {i} {} {}->{} size {}: {} MAC, {} B per call; fwd {:.4} ms",
                    kind.label(),
                    shape.c_in,
                    shape.c_out,
                    shape.size,
                    shape.macs(),
                    shape.bytes(),
                    f * 1e3
                );
            }
            total_macs += macs;
            let k = kind.label();
            metrics.push(format!("tensor.{k}_fwd_ms.{label}"), fwd_s * 1e3, "ms");
            if kind != Kind::Deconv {
                metrics.push(
                    format!("tensor.{k}_fwd_gmac_s.{label}"),
                    macs as f64 / fwd_s / 1e9,
                    "GMAC/s",
                );
            }
            if backward {
                metrics.push(format!("tensor.{k}_bwd_ms.{label}"), bwd_s * 1e3, "ms");
            }
            metrics.push(
                format!("tensor.computed_{k}_macs.{label}"),
                macs as f64,
                "MAC",
            );
            metrics.push(
                format!("tensor.computed_{k}_bytes.{label}"),
                bytes as f64,
                "B",
            );
        }
        metrics.push(
            format!("tensor.macs_per_forward.{label}"),
            total_macs as f64,
            "MAC",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_padding_conv_skips_border_taps() {
        // 3x3, pad 1 over 32: 32 * 3 taps minus one at each border.
        let s = LayerShape::conv(1, 1, 3, 1, 32);
        assert_eq!(s.out_size(), 32);
        assert_eq!(s.macs(), 94 * 94);
    }

    #[test]
    fn deconv_doubles_and_drops_cropped_taps() {
        let s = LayerShape::deconv(2, 3, 4);
        assert_eq!(s.out_size(), 8);
        assert_eq!(s.macs(), 6 * 14 * 14);
    }

    #[test]
    fn paper_policy_has_the_papers_parameter_count() {
        let shapes = policy_shapes(&PolicyConfig::paper());
        let params: usize = shapes
            .iter()
            .map(|s| s.c_in * s.c_out * s.kernel * s.kernel + s.c_out)
            .sum();
        assert_eq!(params, 34_095_236);
    }
}
