//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! Optimizers operate on the parameter list returned by
//! [`crate::Layer::params_mut`]; per-parameter state (momentum / Adam moments)
//! is kept positionally, so the same layer structure must be passed on every
//! step — which is always the case for a fixed network.

use crate::{Param, Tensor};

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`; `0.0` disables momentum.
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(learning_rate: f32, momentum: f32) -> Self {
        Sgd {
            learning_rate,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to the given parameters, consuming their
    /// accumulated gradients (the gradients are left untouched; call
    /// `zero_grad` afterwards).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                for (vj, gj) in v.data_mut().iter_mut().zip(p.grad.data().iter()) {
                    *vj = self.momentum * *vj + gj;
                }
                let v = self.velocity[i].clone();
                p.value.add_scaled_inplace(&v, -self.learning_rate);
            } else {
                let g = p.grad.clone();
                p.value.add_scaled_inplace(&g, -self.learning_rate);
            }
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015), as used by Stable-Baselines3's PPO
/// implementation that the paper builds on.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper / SB3 default: `3e-4`).
    pub learning_rate: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub epsilon: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard `beta` defaults.
    pub fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Applies one Adam update to the given parameters.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (lr, eps) = (self.learning_rate, self.epsilon);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            // One zipped element-wise loop, free of bounds checks, so it
            // vectorizes; vector `sqrt` and division round exactly like the
            // scalar ones, and each element's expression is unchanged.
            let (w, g) = (p.value.data_mut(), p.grad.data());
            for (((w, &g), m), v) in w.iter_mut().zip(g).zip(m.data_mut()).zip(v.data_mut()) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

/// Clips the global L2 norm of the gradients to `max_norm`, returning the
/// pre-clip norm. Matches SB3's `max_grad_norm` behaviour for PPO.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            p.grad.map_inplace(|g| g * scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::{Layer, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains y = 2x + 1 with a single dense unit and checks convergence.
    fn train_linear(optimizer: &mut dyn FnMut(&mut [&mut Param])) -> f32 {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(1, 1, &mut rng);
        let data: Vec<(f32, f32)> = (0..20).map(|i| (i as f32 / 10.0, 2.0 * i as f32 / 10.0 + 1.0)).collect();
        let mut loss = f32::MAX;
        for _ in 0..400 {
            loss = 0.0;
            layer.zero_grad();
            for &(x, y) in &data {
                let pred = layer.forward(&Tensor::from_slice(&[x]));
                let err = pred.get(0) - y;
                loss += err * err;
                layer.backward(&Tensor::from_slice(&[2.0 * err / data.len() as f32]));
            }
            loss /= data.len() as f32;
            let mut params = layer.params_mut();
            optimizer(&mut params);
        }
        loss
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.1, 0.0);
        let loss = train_linear(&mut |p| opt.step(p));
        assert!(loss < 1e-3, "SGD final loss {}", loss);
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        let loss = train_linear(&mut |p| opt.step(p));
        assert!(loss < 1e-3, "momentum SGD final loss {}", loss);
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.1);
        let loss = train_linear(&mut |p| opt.step(p));
        assert!(loss < 1e-2, "Adam final loss {}", loss);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut p = Param::new("w", Tensor::zeros(&[3]));
        p.grad = Tensor::from_slice(&[3.0, 4.0, 0.0]); // norm 5
        let mut params = [&mut p];
        let norm = clip_grad_norm(&mut params, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((params[0].grad.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.grad = Tensor::from_slice(&[0.1, 0.1]);
        let before = p.grad.clone();
        let mut params = [&mut p];
        clip_grad_norm(&mut params, 10.0);
        assert_eq!(params[0].grad, before);
    }
}
