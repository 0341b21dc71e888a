//! The per-element conv, deconv and dense loops the `afp-tensor` layers
//! replaced, kept verbatim as the differential oracle for the
//! order-preserving kernels: `tests/properties.rs` requires the layers to
//! match these bit for bit (forward outputs, input gradients, and parameter
//! gradients accumulated over several calls), both one sample per call and
//! as batch-innermost batches checked against the loops run one sample after
//! another. The per-transition PPO update is kept here too, as the reference
//! for the batched `PpoTrainer::update`.
//!
//! Each loop visits one output (or one input, for the scatter-style loops) at
//! a time and adds its terms in the historical order, skipping zero inputs or
//! zero gradients where the historical loop did.

/// Geometry of a conv or deconv layer on one `[in_c, h, w]` sample.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub in_c: usize,
    pub out_c: usize,
    pub k: usize,
    pub stride: usize,
    pub padding: usize,
    pub h: usize,
    pub w: usize,
}

impl Geometry {
    /// Output `(height, width)` of a convolution, or `None` when the padded
    /// input is smaller than the kernel.
    pub fn conv_out(&self) -> Option<(usize, usize)> {
        let size = |n: usize| {
            (n + 2 * self.padding >= self.k)
                .then(|| (n + 2 * self.padding - self.k) / self.stride + 1)
        };
        Some((size(self.h)?, size(self.w)?))
    }

    /// Output `(height, width)` of a transposed convolution, or `None` when
    /// the padding crops everything.
    pub fn deconv_out(&self) -> Option<(usize, usize)> {
        let size = |n: usize| {
            let full = (n - 1) * self.stride + self.k;
            (full > 2 * self.padding).then(|| full - 2 * self.padding)
        };
        Some((size(self.h)?, size(self.w)?))
    }
}

/// `Conv2d::forward`: weight `[out_c, in_c, k, k]`.
pub fn conv_forward(g: &Geometry, x: &[f32], wgt: &[f32], bias: &[f32]) -> Vec<f32> {
    let (h, w, k) = (g.h, g.w, g.k);
    let (oh, ow) = g.conv_out().unwrap();
    let mut out = vec![0.0f32; g.out_c * oh * ow];
    for oc in 0..g.out_c {
        let b = bias[oc];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                let iy0 = oy * g.stride;
                let ix0 = ox * g.stride;
                for ic in 0..g.in_c {
                    for ky in 0..k {
                        let iy = iy0 + ky;
                        if iy < g.padding || iy - g.padding >= h {
                            continue;
                        }
                        let iy = iy - g.padding;
                        for kx in 0..k {
                            let ix = ix0 + kx;
                            if ix < g.padding || ix - g.padding >= w {
                                continue;
                            }
                            let ix = ix - g.padding;
                            let xv = x[ic * h * w + iy * w + ix];
                            let wv = wgt[((oc * g.in_c + ic) * k + ky) * k + kx];
                            acc += xv * wv;
                        }
                    }
                }
                out[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    out
}

/// `Conv2d::backward`: accumulates into `gw`/`gb`, returns the input gradient.
pub fn conv_backward(
    g: &Geometry,
    x: &[f32],
    wgt: &[f32],
    gy: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
) -> Vec<f32> {
    let (h, w, k) = (g.h, g.w, g.k);
    let (oh, ow) = g.conv_out().unwrap();
    let mut gx = vec![0.0f32; g.in_c * h * w];
    for oc in 0..g.out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = gy[oc * oh * ow + oy * ow + ox];
                if gv == 0.0 {
                    continue;
                }
                gb[oc] += gv;
                let iy0 = oy * g.stride;
                let ix0 = ox * g.stride;
                for ic in 0..g.in_c {
                    for ky in 0..k {
                        let iy = iy0 + ky;
                        if iy < g.padding || iy - g.padding >= h {
                            continue;
                        }
                        let iy = iy - g.padding;
                        for kx in 0..k {
                            let ix = ix0 + kx;
                            if ix < g.padding || ix - g.padding >= w {
                                continue;
                            }
                            let ix = ix - g.padding;
                            let xi = ic * h * w + iy * w + ix;
                            let wi = ((oc * g.in_c + ic) * k + ky) * k + kx;
                            gw[wi] += gv * x[xi];
                            gx[xi] += gv * wgt[wi];
                        }
                    }
                }
            }
        }
    }
    gx
}

/// `ConvTranspose2d::forward`: weight `[in_c, out_c, k, k]`.
pub fn deconv_forward(g: &Geometry, x: &[f32], wgt: &[f32], bias: &[f32]) -> Vec<f32> {
    let (h, w, k) = (g.h, g.w, g.k);
    let (oh, ow) = g.deconv_out().unwrap();
    let mut out = vec![0.0f32; g.out_c * oh * ow];
    for oc in 0..g.out_c {
        let b = bias[oc];
        if b != 0.0 {
            for v in &mut out[oc * oh * ow..(oc + 1) * oh * ow] {
                *v = b;
            }
        }
    }
    for ic in 0..g.in_c {
        for iy in 0..h {
            for ix in 0..w {
                let xv = x[ic * h * w + iy * w + ix];
                if xv == 0.0 {
                    continue;
                }
                for oc in 0..g.out_c {
                    for ky in 0..k {
                        let oy = iy * g.stride + ky;
                        if oy < g.padding || oy - g.padding >= oh {
                            continue;
                        }
                        let oy = oy - g.padding;
                        for kx in 0..k {
                            let ox = ix * g.stride + kx;
                            if ox < g.padding || ox - g.padding >= ow {
                                continue;
                            }
                            let ox = ox - g.padding;
                            let wv = wgt[((ic * g.out_c + oc) * k + ky) * k + kx];
                            out[oc * oh * ow + oy * ow + ox] += xv * wv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// `ConvTranspose2d::backward`: accumulates into `gw`/`gb`, returns the input
/// gradient.
pub fn deconv_backward(
    g: &Geometry,
    x: &[f32],
    wgt: &[f32],
    gy: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
) -> Vec<f32> {
    let (h, w, k) = (g.h, g.w, g.k);
    let (oh, ow) = g.deconv_out().unwrap();
    let mut gx = vec![0.0f32; g.in_c * h * w];
    for oc in 0..g.out_c {
        for v in &gy[oc * oh * ow..(oc + 1) * oh * ow] {
            gb[oc] += v;
        }
    }
    for ic in 0..g.in_c {
        for iy in 0..h {
            for ix in 0..w {
                let xi = ic * h * w + iy * w + ix;
                let xv = x[xi];
                let mut gxi = 0.0f32;
                for oc in 0..g.out_c {
                    for ky in 0..k {
                        let oy = iy * g.stride + ky;
                        if oy < g.padding || oy - g.padding >= oh {
                            continue;
                        }
                        let oy = oy - g.padding;
                        for kx in 0..k {
                            let ox = ix * g.stride + kx;
                            if ox < g.padding || ox - g.padding >= ow {
                                continue;
                            }
                            let ox = ox - g.padding;
                            let gv = gy[oc * oh * ow + oy * ow + ox];
                            if gv == 0.0 {
                                continue;
                            }
                            let wi = ((ic * g.out_c + oc) * k + ky) * k + kx;
                            gw[wi] += gv * xv;
                            gxi += gv * wgt[wi];
                        }
                    }
                }
                gx[xi] += gxi;
            }
        }
    }
    gx
}

/// `Dense::forward`: weight `[out_f, in_f]`.
pub fn dense_forward(x: &[f32], wgt: &[f32], bias: &[f32]) -> Vec<f32> {
    let in_f = x.len();
    let mut out = vec![0.0f32; bias.len()];
    for (o, out_v) in out.iter_mut().enumerate() {
        let row = &wgt[o * in_f..(o + 1) * in_f];
        let mut acc = bias[o];
        for (wi, xi) in row.iter().zip(x.iter()) {
            acc += wi * xi;
        }
        *out_v = acc;
    }
    out
}

use analog_floorplan::circuit::generators;
use analog_floorplan::rl::{
    ActorCritic, AgentConfig, FloorplanAgent, FloorplanEnv, PpoConfig, RolloutBuffer,
};
use analog_floorplan::tensor::layers::{Conv2d, ConvTranspose2d, Dense};
use analog_floorplan::tensor::loss::categorical_entropy;
use analog_floorplan::tensor::optim::{clip_grad_norm, Adam};
use analog_floorplan::tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which strided layer a [`Geometry`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strided {
    Conv,
    Deconv,
}

/// `n` values in `[-1, 1)`, about a third of them exact zeros (half of
/// those `-0.0`): dropping a zero-skip is only exact if zeros are covered.
pub fn sparse_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn param_grads(layer: &dyn Layer) -> Vec<Vec<u32>> {
    layer.params().iter().map(|p| bits(p.grad.data())).collect()
}

/// Builds the layer twice with identical weights and a nonzero bias, runs
/// `calls` forward/backward rounds on sparse random inputs and gradients,
/// and asserts bit equality with the oracle: every forward output and
/// returned input gradient, the weight and bias gradients accumulated over
/// all calls, and a twin driven through `backward_params` instead of
/// `backward`. Geometries without an output are skipped.
pub fn check_strided(kind: Strided, g: &Geometry, seed: u64, calls: usize) {
    let out = match kind {
        Strided::Conv => g.conv_out(),
        Strided::Deconv => g.deconv_out(),
    };
    let Some((oh, ow)) = out else { return };
    let mut rng = StdRng::seed_from_u64(seed);
    let build = |rng: &mut StdRng| -> Box<dyn Layer> {
        match kind {
            Strided::Conv => Box::new(Conv2d::new(g.in_c, g.out_c, g.k, g.stride, g.padding, rng)),
            Strided::Deconv => Box::new(ConvTranspose2d::new(
                g.in_c, g.out_c, g.k, g.stride, g.padding, rng,
            )),
        }
    };
    let mut layer = build(&mut rng);
    let bias: Vec<f32> = (0..g.out_c)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * rng.gen_range(0.05f32..0.5))
        .collect();
    layer.params_mut()[1].value = Tensor::from_vec(bias.clone(), &[g.out_c]);
    let wgt = layer.params()[0].value.data().to_vec();
    let mut twin = build(&mut rng);
    for (dst, src) in twin.params_mut().into_iter().zip(layer.params()) {
        dst.value = src.value.clone();
    }
    let mut gw = vec![0.0f32; wgt.len()];
    let mut gb = vec![0.0f32; g.out_c];
    for call in 0..calls {
        let x = sparse_values(&mut rng, g.in_c * g.h * g.w);
        let gy = sparse_values(&mut rng, g.out_c * oh * ow);
        let xt = Tensor::from_vec(x.clone(), &[g.in_c, g.h, g.w]);
        let gyt = Tensor::from_vec(gy.clone(), &[g.out_c, oh, ow]);
        let (y_ref, gx_ref) = match kind {
            Strided::Conv => (
                conv_forward(g, &x, &wgt, &bias),
                conv_backward(g, &x, &wgt, &gy, &mut gw, &mut gb),
            ),
            Strided::Deconv => (
                deconv_forward(g, &x, &wgt, &bias),
                deconv_backward(g, &x, &wgt, &gy, &mut gw, &mut gb),
            ),
        };
        let y = layer.forward(&xt);
        assert_eq!(
            bits(y.data()),
            bits(&y_ref),
            "{kind:?} {g:?} call {call}: forward"
        );
        let gx = layer.backward(&gyt);
        assert_eq!(
            bits(gx.data()),
            bits(&gx_ref),
            "{kind:?} {g:?} call {call}: input grad"
        );
        twin.forward(&xt);
        twin.backward_params(&gyt);
    }
    let grads = param_grads(layer.as_ref());
    assert_eq!(
        grads,
        vec![bits(&gw), bits(&gb)],
        "{kind:?} {g:?}: weight/bias grads"
    );
    assert_eq!(
        param_grads(twin.as_ref()),
        grads,
        "{kind:?} {g:?}: backward_params grads"
    );
}

/// `Dense::forward` against the oracle on sparse inputs and a nonzero bias.
pub fn check_dense_forward(in_f: usize, out_f: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layer = Dense::new(in_f, out_f, &mut rng);
    let bias: Vec<f32> = (0..out_f).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    layer.params_mut()[1].value = Tensor::from_vec(bias.clone(), &[out_f]);
    let wgt = layer.params()[0].value.data().to_vec();
    for call in 0..3 {
        let x = sparse_values(&mut rng, in_f);
        let y = layer.forward(&Tensor::from_slice(&x));
        assert_eq!(
            bits(y.data()),
            bits(&dense_forward(&x, &wgt, &bias)),
            "Dense {in_f}->{out_f} call {call}: forward"
        );
    }
}

/// `Dense::backward`: accumulates into `gw`/`gb`, returns the input
/// gradient, skipping zero output gradients as the per-row loop did.
pub fn dense_backward(
    x: &[f32],
    wgt: &[f32],
    gy: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
) -> Vec<f32> {
    let in_f = x.len();
    let mut gx = vec![0.0f32; in_f];
    for (o, &g) in gy.iter().enumerate() {
        gb[o] += g;
        if g == 0.0 {
            continue;
        }
        let row = &wgt[o * in_f..(o + 1) * in_f];
        for i in 0..in_f {
            gw[o * in_f + i] += g * x[i];
            gx[i] += row[i] * g;
        }
    }
    gx
}

/// Which layer a batched differential check drives.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    Strided(Strided, Geometry),
    Dense { in_f: usize, out_f: usize },
}

/// The batch-innermost kernels against the oracle run one sample after
/// another: for two rounds of `lanes` samples (sparse inputs and output
/// gradients with `±0.0`, nonzero biases), every lane of the batched forward
/// output and input gradient, and the parameter gradients accumulated over
/// both rounds, must equal the oracle's bit for bit — and so must a twin
/// driven through `backward_params_batch`. Geometries without an output are
/// skipped.
pub fn check_batched(kernel: Kernel, seed: u64, lanes: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (in_shape, out_shape, bias_len): (Vec<usize>, Vec<usize>, usize) = match kernel {
        Kernel::Strided(kind, g) => {
            let out = match kind {
                Strided::Conv => g.conv_out(),
                Strided::Deconv => g.deconv_out(),
            };
            let Some((oh, ow)) = out else { return };
            (vec![g.in_c, g.h, g.w], vec![g.out_c, oh, ow], g.out_c)
        }
        Kernel::Dense { in_f, out_f } => (vec![in_f], vec![out_f], out_f),
    };
    let build = |rng: &mut StdRng| -> Box<dyn Layer> {
        match kernel {
            Kernel::Strided(Strided::Conv, g) => {
                Box::new(Conv2d::new(g.in_c, g.out_c, g.k, g.stride, g.padding, rng))
            }
            Kernel::Strided(Strided::Deconv, g) => Box::new(ConvTranspose2d::new(
                g.in_c, g.out_c, g.k, g.stride, g.padding, rng,
            )),
            Kernel::Dense { in_f, out_f } => Box::new(Dense::new(in_f, out_f, rng)),
        }
    };
    let mut layer = build(&mut rng);
    let bias: Vec<f32> = (0..bias_len)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * rng.gen_range(0.05f32..0.5))
        .collect();
    layer.params_mut()[1].value = Tensor::from_vec(bias.clone(), &[bias_len]);
    let wgt = layer.params()[0].value.data().to_vec();
    let mut twin = build(&mut rng);
    for (dst, src) in twin.params_mut().into_iter().zip(layer.params()) {
        dst.value = src.value.clone();
    }
    let mut gw = vec![0.0f32; wgt.len()];
    let mut gb = vec![0.0f32; bias_len];
    let in_len: usize = in_shape.iter().product();
    let out_len: usize = out_shape.iter().product();
    for round in 0..2 {
        let xs: Vec<Tensor> = (0..lanes)
            .map(|_| Tensor::from_vec(sparse_values(&mut rng, in_len), &in_shape))
            .collect();
        let gys: Vec<Tensor> = (0..lanes)
            .map(|_| Tensor::from_vec(sparse_values(&mut rng, out_len), &out_shape))
            .collect();
        let mut expect = Vec::new();
        for (x, gy) in xs.iter().zip(&gys) {
            let (x, gy) = (x.data(), gy.data());
            expect.push(match kernel {
                Kernel::Strided(Strided::Conv, g) => (
                    conv_forward(&g, x, &wgt, &bias),
                    conv_backward(&g, x, &wgt, gy, &mut gw, &mut gb),
                ),
                Kernel::Strided(Strided::Deconv, g) => (
                    deconv_forward(&g, x, &wgt, &bias),
                    deconv_backward(&g, x, &wgt, gy, &mut gw, &mut gb),
                ),
                Kernel::Dense { .. } => (
                    dense_forward(x, &wgt, &bias),
                    dense_backward(x, &wgt, gy, &mut gw, &mut gb),
                ),
            });
        }
        let batch = |ts: &[Tensor]| Tensor::interleave(&ts.iter().collect::<Vec<_>>());
        let y = layer.forward_batch(batch(&xs));
        let gx = layer.backward_batch(batch(&gys));
        for (t, (y_ref, gx_ref)) in expect.iter().enumerate() {
            let at = format!("{kernel:?} B={lanes} round {round} lane {t}");
            assert_eq!(bits(y.lane(t).data()), bits(y_ref), "{at}: forward");
            assert_eq!(bits(gx.lane(t).data()), bits(gx_ref), "{at}: input grad");
        }
        twin.forward_batch(batch(&xs));
        twin.backward_params_batch(batch(&gys));
    }
    let grads = param_grads(layer.as_ref());
    assert_eq!(
        grads,
        vec![bits(&gw), bits(&gb)],
        "{kernel:?} B={lanes}: weight/bias grads"
    );
    assert_eq!(
        param_grads(twin.as_ref()),
        grads,
        "{kernel:?} B={lanes}: backward_params_batch grads"
    );
}

/// The per-transition PPO update that `PpoTrainer::update` replaced, kept
/// verbatim as the reference for the batched one: one `forward` and one
/// `backward` per transition, the entropy from `categorical_entropy`, then
/// the clip and an Adam step per minibatch. Returns the mean policy loss,
/// value loss, entropy and approximate KL, and the number of gradient steps.
pub fn reference_ppo_update(
    config: &PpoConfig,
    optimizer: &mut Adam,
    policy: &mut ActorCritic,
    buffer: &RolloutBuffer,
    rng: &mut StdRng,
) -> ([f32; 4], usize) {
    let (advantages, returns) = buffer.advantages_and_returns();
    let (adv_mean, adv_std) = RolloutBuffer::advantage_stats(&advantages);
    let n = buffer.len();
    let mut sums = [0.0f32; 4];
    let mut steps = 0;
    let mut samples_seen = 0usize;
    for _epoch in 0..config.epochs {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.minibatch_size.max(1)) {
            policy.zero_grad();
            for &idx in chunk {
                let t = &buffer.transitions()[idx];
                let advantage = (advantages[idx] - adv_mean) / adv_std;
                let target_return = returns[idx];

                let out = policy.forward(&t.masks, &t.graph_embedding, &t.node_embedding);
                let masked = Tensor::from_vec(
                    out.logits
                        .data()
                        .iter()
                        .zip(&t.action_mask)
                        .map(|(&l, &m)| if m > 0.0 { l } else { -1.0e9 })
                        .collect(),
                    out.logits.shape(),
                );
                let log_probs = masked.log_softmax();
                let new_log_prob = log_probs.get(t.action);
                let ratio = (new_log_prob - t.log_prob).exp();

                let unclipped = ratio * advantage;
                let clipped =
                    ratio.clamp(1.0 - config.clip_range, 1.0 + config.clip_range) * advantage;
                let policy_loss = -unclipped.min(clipped);
                let gradient_active = if advantage >= 0.0 {
                    ratio <= 1.0 + config.clip_range
                } else {
                    ratio >= 1.0 - config.clip_range
                };
                let d_loss_d_logp = if gradient_active {
                    -advantage * ratio
                } else {
                    0.0
                };

                let probs = log_probs.map(f32::exp);
                let mut grad_logits = probs.scale(-d_loss_d_logp);
                grad_logits.data_mut()[t.action] += d_loss_d_logp;

                let (entropy, entropy_grad) = categorical_entropy(&masked);
                grad_logits.add_scaled_inplace(&entropy_grad, -config.entropy_coef);

                for (g, &m) in grad_logits.data_mut().iter_mut().zip(t.action_mask.iter()) {
                    if m <= 0.0 {
                        *g = 0.0;
                    }
                }

                let value_error = out.value - target_return;
                let value_loss = value_error * value_error;
                let grad_value = 2.0 * config.value_coef * value_error;

                let scale = 1.0 / chunk.len() as f32;
                policy.backward(&grad_logits.scale(scale), grad_value * scale);

                sums[0] += policy_loss;
                sums[1] += value_loss;
                sums[2] += entropy;
                sums[3] += (ratio - 1.0) - (ratio.max(1e-8)).ln();
                samples_seen += 1;
            }
            let mut params = policy.params_mut();
            clip_grad_norm(&mut params, config.max_grad_norm);
            optimizer.step(&mut params);
            steps += 1;
        }
    }
    let denom = samples_seen.max(1) as f32;
    (sums.map(|s| s / denom), steps)
}

/// A fresh small-config agent and the transitions of seeded exploring
/// episodes on OTA-5 and Bias-1: 25 transitions, so minibatches of 8 leave
/// a remainder minibatch of 1.
pub fn seeded_small_rollouts() -> (FloorplanAgent, RolloutBuffer) {
    let config = AgentConfig::small();
    let mut buffer = RolloutBuffer::new(config.ppo.gamma, config.ppo.gae_lambda);
    let mut agent = FloorplanAgent::new(config);
    let mut rng = StdRng::seed_from_u64(0xa9e7);
    for circuit in [generators::ota5(), generators::bias9()] {
        let mut env = FloorplanEnv::new(circuit);
        for _ in 0..2 {
            agent.run_episode(&mut env, true, Some(&mut buffer), &mut rng);
        }
    }
    (agent, buffer)
}
