//! Masked Proximal Policy Optimization.
//!
//! The agent is trained with PPO [24] extended with invalid-action masking
//! [25]: the positional masks of the observation zero out the probability of
//! actions that would overlap blocks or break constraints, both when sampling
//! during rollouts and when computing the surrogate objective during updates.
//!
//! # Bit identity
//!
//! Each minibatch runs through the network as one batch, laid out
//! batch-innermost: one forward and one backward call per layer. The layers'
//! batch kernels compute every logit and value exactly as a per-transition
//! forward would, and accumulate parameter gradients transition-major (one
//! transition's terms after another's, each in the per-sample order), so a
//! seeded update is bit-identical to running `forward` + `backward` per
//! transition. The loss terms are computed per transition in batch order,
//! and the statistics are summed in that order too.
//! `batched_ppo_update_matches_per_transition_reference` in
//! `tests/properties.rs` checks this against the per-transition loop kept in
//! `tests/nn_oracle`, and `tests/agent_streams.rs` pins the result.

use rand::Rng;

use afp_tensor::optim::{clip_grad_norm, Adam};
use afp_tensor::{loss::entropy_of, Tensor};

use crate::policy::{ActorCritic, PolicyBatch};
use crate::rollout::{RolloutBuffer, Transition};

/// Logit value assigned to masked-out actions (effectively −∞).
const MASKED_LOGIT: f32 = -1.0e9;

/// Applies the action mask to raw logits: inadmissible actions get a huge
/// negative logit so their probability underflows to zero.
pub fn apply_mask(logits: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(logits.len(), mask.len(), "mask / logit length mismatch");
    Tensor::from_vec(
        logits
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&l, &m)| if m > 0.0 { l } else { MASKED_LOGIT })
            .collect(),
        logits.shape(),
    )
}

/// Masked log-softmax over the action space.
pub fn masked_log_softmax(logits: &Tensor, mask: &[f32]) -> Tensor {
    apply_mask(logits, mask).log_softmax()
}

/// Samples an action from the masked categorical distribution, returning the
/// flat action index and its log-probability.
pub fn sample_masked_action<R: Rng + ?Sized>(
    logits: &Tensor,
    mask: &[f32],
    rng: &mut R,
) -> (usize, f32) {
    let log_probs = masked_log_softmax(logits, mask);
    let mut u: f32 = rng.gen();
    let mut chosen = None;
    for (i, &lp) in log_probs.data().iter().enumerate() {
        if mask[i] <= 0.0 {
            continue;
        }
        let p = lp.exp();
        if u < p {
            chosen = Some(i);
            break;
        }
        u -= p;
    }
    let index = chosen.unwrap_or_else(|| greedy_masked_action(logits, mask));
    (index, log_probs.get(index))
}

/// The highest-probability admissible action.
pub fn greedy_masked_action(logits: &Tensor, mask: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &l) in logits.data().iter().enumerate() {
        if mask[i] > 0.0 && l > best_v {
            best_v = l;
            best = i;
        }
    }
    best
}

/// PPO hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE smoothing λ.
    pub gae_lambda: f32,
    /// PPO clip range ε.
    pub clip_range: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Number of optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch_size: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl PpoConfig {
    /// Hyper-parameters small enough for unit tests.
    pub fn small() -> Self {
        PpoConfig {
            learning_rate: 3e-4,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            epochs: 2,
            minibatch_size: 8,
            max_grad_norm: 0.5,
        }
    }

    /// The Stable-Baselines3-style defaults used for the full training runs.
    pub fn paper() -> Self {
        PpoConfig {
            learning_rate: 3e-4,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            epochs: 6,
            minibatch_size: 64,
            max_grad_norm: 0.5,
        }
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig::small()
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpoStats {
    /// Mean clipped surrogate loss.
    pub policy_loss: f32,
    /// Mean value-function loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Mean approximate KL divergence between the behaviour and updated
    /// policies (the quantity plotted in the paper's Fig. 6).
    pub approx_kl: f32,
    /// Number of gradient steps applied.
    pub gradient_steps: usize,
}

/// One PPO minibatch: its transitions and, for each, the advantage
/// normalized over the whole buffer and the return target.
#[derive(Debug)]
pub struct Minibatch<'a> {
    transitions: Vec<&'a Transition>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
}

impl Minibatch<'_> {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` when the minibatch holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }
}

/// Runs PPO updates on an [`ActorCritic`] from collected rollouts.
#[derive(Debug)]
pub struct PpoTrainer {
    /// Hyper-parameters.
    pub config: PpoConfig,
    optimizer: Adam,
}

impl PpoTrainer {
    /// Creates a trainer.
    pub fn new(config: PpoConfig) -> Self {
        let optimizer = Adam::new(config.learning_rate);
        PpoTrainer { config, optimizer }
    }

    /// Performs one PPO update over the buffer and returns diagnostics: a
    /// [`PpoTrainer::minibatch_step`] for each of
    /// [`PpoTrainer::minibatches`].
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        policy: &mut ActorCritic,
        buffer: &RolloutBuffer,
        rng: &mut R,
    ) -> PpoStats {
        let mut stats = PpoStats::default();
        let mut samples_seen = 0usize;
        for minibatch in self.minibatches(buffer, rng) {
            self.minibatch_step(policy, &minibatch, &mut stats, || {});
            samples_seen += minibatch.len();
        }
        let denom = samples_seen.max(1) as f32;
        stats.policy_loss /= denom;
        stats.value_loss /= denom;
        stats.entropy /= denom;
        stats.approx_kl /= denom;
        stats
    }

    /// The minibatches of one update, in training order: for each epoch, the
    /// buffer shuffled with `rng` and cut into chunks of
    /// [`PpoConfig::minibatch_size`] (the last one may be shorter).
    pub fn minibatches<'a, R: Rng + ?Sized>(
        &self,
        buffer: &'a RolloutBuffer,
        rng: &mut R,
    ) -> Vec<Minibatch<'a>> {
        let (advantages, returns) = buffer.advantages_and_returns();
        let (adv_mean, adv_std) = RolloutBuffer::advantage_stats(&advantages);
        let n = buffer.len();
        let mut minibatches = Vec::new();
        for _epoch in 0..self.config.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.minibatch_size.max(1)) {
                minibatches.push(Minibatch {
                    transitions: chunk.iter().map(|&idx| &buffer.transitions()[idx]).collect(),
                    advantages: chunk
                        .iter()
                        .map(|&idx| (advantages[idx] - adv_mean) / adv_std)
                        .collect(),
                    returns: chunk.iter().map(|&idx| returns[idx]).collect(),
                });
            }
        }
        minibatches
    }

    /// One gradient step on one minibatch, which runs through the network
    /// as one batch: the batched forward, the loss, the batched backward,
    /// then the gradient clip and Adam. The batched kernels accumulate
    /// parameter gradients transition after transition, so the step is
    /// bit-identical to one forward and one backward per transition. Adds
    /// the minibatch's losses, entropy and approximate KL to `stats`.
    ///
    /// `lap` runs at every stage boundary: once the gradients are zeroed and
    /// after each of the four stages. [`PpoTrainer::update`] passes a no-op;
    /// a profiler can read a clock there.
    pub fn minibatch_step(
        &mut self,
        policy: &mut ActorCritic,
        minibatch: &Minibatch,
        stats: &mut PpoStats,
        mut lap: impl FnMut(),
    ) {
        policy.zero_grad();
        lap();
        let out = Self::forward_minibatch(policy, &minibatch.transitions);
        lap();
        let (grad_logits, grad_values) = self.minibatch_loss(out, minibatch, stats);
        lap();
        policy.backward_batch(grad_logits, &grad_values);
        lap();
        let mut params = policy.params_mut();
        clip_grad_norm(&mut params, self.config.max_grad_norm);
        self.optimizer.step(&mut params);
        stats.gradient_steps += 1;
        lap();
    }

    /// The batched forward pass of one minibatch: the transitions'
    /// observations laid out batch-innermost through
    /// [`ActorCritic::forward_batch`].
    fn forward_minibatch(policy: &mut ActorCritic, batch: &[&Transition]) -> PolicyBatch {
        let gather = |field: fn(&Transition) -> &Tensor| {
            Tensor::interleave(&batch.iter().map(|t| field(t)).collect::<Vec<_>>())
        };
        policy.forward_batch(
            gather(|t| &t.masks),
            gather(|t| &t.graph_embedding),
            gather(|t| &t.node_embedding),
        )
    }

    /// The masked clipped-surrogate, entropy and value losses of one
    /// minibatch, given its forward pass. Adds each transition's losses,
    /// entropy and approximate KL to `stats` in batch order and returns the
    /// minibatch-mean gradients with respect to the logits (`[ACTION_SPACE,
    /// B]`, written over the logits) and the values, ready for
    /// [`ActorCritic::backward_batch`].
    fn minibatch_loss(
        &self,
        out: PolicyBatch,
        minibatch: &Minibatch,
        stats: &mut PpoStats,
    ) -> (Tensor, Vec<f32>) {
        let Minibatch {
            transitions: batch,
            advantages,
            returns,
        } = minibatch;
        let lanes = batch.len();
        // Scale by 1 / minibatch for a mean over the minibatch.
        let scale = 1.0 / lanes as f32;
        // Each sample's logits are read, then overwritten in place by their
        // gradient.
        let mut grad_logits = out.logits;
        let mut grad_values = Vec::with_capacity(lanes);
        for (lane, t) in batch.iter().enumerate() {
            let advantage = advantages[lane];
            let log_probs = masked_log_softmax(&grad_logits.lane(lane), &t.action_mask);
            let probs = log_probs.exp();
            let new_log_prob = log_probs.get(t.action);
            let ratio = (new_log_prob - t.log_prob).exp();

            // Clipped surrogate loss and its gradient wrt the chosen action's
            // log-probability.
            let unclipped = ratio * advantage;
            let clipped =
                ratio.clamp(1.0 - self.config.clip_range, 1.0 + self.config.clip_range) * advantage;
            let policy_loss = -unclipped.min(clipped);
            let gradient_active = if advantage >= 0.0 {
                ratio <= 1.0 + self.config.clip_range
            } else {
                ratio >= 1.0 - self.config.clip_range
            };
            let d_loss_d_logp = if gradient_active {
                -advantage * ratio
            } else {
                0.0
            };
            let entropy = entropy_of(probs.data(), log_probs.data());

            // dLoss/dlogits, element by element: d log_prob / d logits =
            // one_hot(action) − softmax scaled by d_loss_d_logp, then the
            // entropy bonus (maximized ⇒ subtract its gradient
            // dH/dz = −p·(log p + H)), then masked actions zeroed entirely
            // (their probabilities are numerically zero and must stay so),
            // then the minibatch mean.
            let lane_grads = grad_logits.data_mut()[lane..].iter_mut().step_by(lanes);
            let terms = probs
                .data()
                .iter()
                .zip(log_probs.data())
                .zip(&t.action_mask);
            for (i, (g, ((&p, &lp), &m))) in lane_grads.zip(terms).enumerate() {
                let mut v = p * -d_loss_d_logp;
                if i == t.action {
                    v += d_loss_d_logp;
                }
                v += -p * (lp + entropy) * -self.config.entropy_coef;
                *g = if m <= 0.0 { 0.0 } else { v } * scale;
            }

            // Value loss.
            let value_error = out.values[lane] - returns[lane];
            let value_loss = value_error * value_error;
            let grad_value = 2.0 * self.config.value_coef * value_error;
            grad_values.push(grad_value * scale);

            stats.policy_loss += policy_loss;
            stats.value_loss += value_loss;
            stats.entropy += entropy;
            // SB3-style approximate KL: E[(r − 1) − log r].
            stats.approx_kl += (ratio - 1.0) - (ratio.max(1e-8)).ln();
        }
        (grad_logits, grad_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use crate::rollout::Transition;
    use afp_layout::{GRID_SIZE, STATE_CHANNELS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masking_removes_invalid_actions() {
        let logits = Tensor::from_slice(&[1.0, 5.0, 0.0, 2.0]);
        let mask = [1.0, 0.0, 1.0, 1.0];
        let log_probs = masked_log_softmax(&logits, &mask);
        assert!(log_probs.get(1) < -1e6);
        let p: f32 = log_probs.data().iter().map(|l| l.exp()).sum();
        assert!((p - 1.0).abs() < 1e-4);
        assert_eq!(greedy_masked_action(&logits, &mask), 3);
    }

    #[test]
    fn sampling_respects_mask() {
        let logits = Tensor::from_slice(&[0.0, 10.0, 0.0, 0.0]);
        let mask = [1.0, 0.0, 1.0, 0.0];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let (a, lp) = sample_masked_action(&logits, &mask, &mut rng);
            assert!(a == 0 || a == 2, "sampled masked action {a}");
            assert!(lp <= 0.0);
        }
    }

    /// A fixed, non-degenerate observation shared by every synthetic
    /// transition: a spatially varying mask tensor so the deconvolutional head
    /// can tell grid cells apart.
    fn probe_masks() -> Tensor {
        let mut rng = StdRng::seed_from_u64(123);
        afp_tensor::Init::XavierUniform.sample(
            &mut rng,
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
            64,
            64,
        )
    }

    /// Builds a tiny synthetic buffer whose transitions all prefer action 0.
    fn synthetic_buffer(policy: &mut ActorCritic, cfg: &PpoConfig, reward_for_zero: f32) -> RolloutBuffer {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buffer = RolloutBuffer::new(cfg.gamma, cfg.gae_lambda);
        for _ in 0..6 {
            let masks = probe_masks();
            let g = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
            let nb = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
            let mut mask = vec![0.0f32; crate::action::ACTION_SPACE];
            mask[0] = 1.0;
            mask[1] = 1.0;
            let out = policy.forward(&masks, &g, &nb);
            let (action, log_prob) = sample_masked_action(&out.logits, &mask, &mut rng);
            let reward = if action == 0 { reward_for_zero } else { 0.0 };
            buffer.push(Transition {
                masks,
                graph_embedding: g,
                node_embedding: nb,
                action_mask: mask,
                action,
                log_prob,
                value: out.value,
                reward,
                done: true,
            });
        }
        buffer
    }

    #[test]
    fn ppo_update_shifts_probability_towards_rewarded_action() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let cfg = PpoConfig {
            learning_rate: 3e-3,
            epochs: 4,
            minibatch_size: 3,
            // Keep the value-loss gradient small so the shared CNN is not
            // dragged around by the critic while we probe the actor.
            value_coef: 0.05,
            entropy_coef: 0.0,
            ..PpoConfig::small()
        };
        let mut trainer = PpoTrainer::new(cfg.clone());

        let masks = probe_masks();
        let g = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
        let nb = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
        let mut mask = vec![0.0f32; crate::action::ACTION_SPACE];
        mask[0] = 1.0;
        mask[1] = 1.0;

        let before = {
            let out = policy.forward(&masks, &g, &nb);
            masked_log_softmax(&out.logits, &mask).get(0)
        };
        for _ in 0..10 {
            let buffer = synthetic_buffer(&mut policy, &cfg, 10.0);
            let stats = trainer.update(&mut policy, &buffer, &mut rng);
            assert!(stats.gradient_steps > 0);
            assert!(stats.approx_kl.is_finite());
        }
        let after = {
            let out = policy.forward(&masks, &g, &nb);
            masked_log_softmax(&out.logits, &mask).get(0)
        };
        assert!(
            after > before,
            "probability of the rewarded action did not increase: {before} → {after}"
        );
    }

    #[test]
    fn update_on_empty_buffer_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let mut trainer = PpoTrainer::new(PpoConfig::small());
        let buffer = RolloutBuffer::new(0.99, 0.95);
        let stats = trainer.update(&mut policy, &buffer, &mut rng);
        assert_eq!(stats.gradient_steps, 0);
    }
}
