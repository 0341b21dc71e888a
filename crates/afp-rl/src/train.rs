//! The full RL training loop with the hybrid curriculum schedule.
//!
//! Follows the paper's §V-A setup with one serial environment: episodes are
//! collected one after another into a rollout, a PPO update runs after every
//! rollout, the curriculum advances through circuits of increasing
//! complexity, and the per-update mean episode reward and approximate KL
//! divergence are recorded — exactly the two curves plotted in Fig. 6. The
//! paper gathers experience in 16 parallel environments; serial collection
//! keeps a seeded run replayable bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use afp_circuit::Circuit;
use afp_gnn::RgcnEncoder;

use crate::agent::{AgentConfig, FloorplanAgent};
use crate::curriculum::HclSchedule;
use crate::env::FloorplanEnv;
use crate::ppo::PpoTrainer;
use crate::rollout::RolloutBuffer;

/// Training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Agent (policy + PPO) configuration.
    pub agent: AgentConfig,
    /// Episodes spent on each curriculum circuit (4096 in the paper).
    pub episodes_per_circuit: usize,
    /// Episodes collected between PPO updates.
    pub episodes_per_update: usize,
    /// Probability of sampling a new circuit variant in the second curriculum
    /// phase (0.5 in the paper).
    pub p_circuit: f64,
    /// Probability of injecting an extra constraint in the second phase
    /// (0.3 in the paper).
    pub p_constraint: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl TrainConfig {
    /// A configuration small enough for CPU unit tests (a few seconds).
    pub fn small() -> Self {
        TrainConfig {
            agent: AgentConfig::small(),
            episodes_per_circuit: 8,
            episodes_per_update: 4,
            p_circuit: 0.5,
            p_constraint: 0.3,
            seed: 0,
        }
    }

    /// The paper-scale configuration (§V-A): 4096 episodes per circuit.
    /// Only used by the long-running reproduction binaries.
    pub fn paper() -> Self {
        TrainConfig {
            agent: AgentConfig::paper(),
            episodes_per_circuit: 4096,
            episodes_per_update: 32,
            p_circuit: 0.5,
            p_constraint: 0.3,
            seed: 0,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::small()
    }
}

/// Statistics recorded after each PPO update — one point of the Fig. 6 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Sequential update index ("epoch" on the Fig. 6 x-axis).
    pub epoch: usize,
    /// Curriculum stage the update belongs to.
    pub stage: usize,
    /// Name of the base circuit of that stage.
    pub circuit: String,
    /// Mean total episode reward over the rollout.
    pub episode_reward_mean: f64,
    /// Mean approximate KL divergence of the update.
    pub approx_kl: f64,
    /// Fraction of episodes in the rollout that completed without violations.
    pub completion_rate: f64,
}

/// Result of a training run.
#[derive(Debug)]
pub struct TrainResult {
    /// The trained agent.
    pub agent: FloorplanAgent,
    /// Per-update statistics (the Fig. 6 curves).
    pub history: Vec<EpochStats>,
}

impl TrainResult {
    /// Mean episode reward over the last `n` updates.
    pub fn recent_reward_mean(&self, n: usize) -> f64 {
        let tail: Vec<f64> = self
            .history
            .iter()
            .rev()
            .take(n)
            .map(|e| e.episode_reward_mean)
            .collect();
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// Trains a fresh agent (randomly initialized encoder) on the given curriculum
/// circuits.
pub fn train(circuits: &[Circuit], config: &TrainConfig) -> TrainResult {
    let agent = FloorplanAgent::new(config.agent.clone());
    train_agent(agent, circuits, config)
}

/// Trains an agent whose encoder was pre-trained by `afp-gnn` (the full
/// pipeline of the paper).
pub fn train_with_encoder(
    encoder: RgcnEncoder,
    circuits: &[Circuit],
    config: &TrainConfig,
) -> TrainResult {
    let agent = FloorplanAgent::with_encoder(encoder, config.agent.clone());
    train_agent(agent, circuits, config)
}

/// Trains an existing agent in place (used for ablations and resumed runs).
pub fn train_agent(
    mut agent: FloorplanAgent,
    circuits: &[Circuit],
    config: &TrainConfig,
) -> TrainResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut schedule = HclSchedule::new(circuits.to_vec(), config.episodes_per_circuit);
    schedule.p_circuit = config.p_circuit;
    schedule.p_constraint = config.p_constraint;

    let mut trainer = PpoTrainer::new(config.agent.ppo.clone());
    let mut buffer = RolloutBuffer::new(config.agent.ppo.gamma, config.agent.ppo.gae_lambda);
    let mut history = Vec::new();
    let mut epoch = 0usize;

    while !schedule.is_finished() {
        buffer.clear();
        let mut episode_rewards = Vec::new();
        let mut completions = 0usize;
        let stage = schedule.current_stage();
        let stage_circuit = schedule.circuits()[stage].name.clone();
        // Collect a rollout: `episodes_per_update` episodes, each in a fresh
        // environment.
        let mut collected = 0usize;
        while collected < config.episodes_per_update && !schedule.is_finished() {
            let circuit = match schedule.next_episode(&mut rng) {
                Some(c) => c,
                None => break,
            };
            let mut env = FloorplanEnv::new(circuit);
            let summary = agent.run_episode(&mut env, true, Some(&mut buffer), &mut rng);
            episode_rewards.push(summary.total_reward);
            if summary.termination == crate::env::Termination::Completed {
                completions += 1;
            }
            collected += 1;
        }
        if buffer.is_empty() {
            break;
        }
        let stats = trainer.update(agent.policy_mut(), &buffer, &mut rng);
        let n_episodes = episode_rewards.len().max(1);
        history.push(EpochStats {
            epoch,
            stage,
            circuit: stage_circuit,
            episode_reward_mean: episode_rewards.iter().sum::<f64>() / n_episodes as f64,
            approx_kl: stats.approx_kl as f64,
            completion_rate: completions as f64 / n_episodes as f64,
        });
        epoch += 1;
    }

    TrainResult { agent, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn small_training_run_produces_history() {
        let circuits = vec![generators::ota3()];
        let result = train(&circuits, &TrainConfig::small());
        assert!(!result.history.is_empty());
        assert_eq!(result.history.len(), 8 / 4);
        for stats in &result.history {
            assert!(stats.episode_reward_mean.is_finite());
            assert!(stats.approx_kl.is_finite());
            assert!((0.0..=1.0).contains(&stats.completion_rate));
        }
        assert!(result.recent_reward_mean(2).is_finite());
    }

    #[test]
    fn curriculum_advances_through_stages() {
        let circuits = vec![generators::ota3(), generators::bias3()];
        let config = TrainConfig {
            episodes_per_circuit: 4,
            episodes_per_update: 2,
            ..TrainConfig::small()
        };
        let result = train(&circuits, &config);
        let stages: Vec<usize> = result.history.iter().map(|h| h.stage).collect();
        assert!(stages.contains(&0));
        assert!(stages.contains(&1));
        // Stages are non-decreasing.
        assert!(stages.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trained_agent_still_solves_circuits() {
        let circuits = vec![generators::ota3()];
        let mut result = train(&circuits, &TrainConfig::small());
        let solved = result.agent.solve(&generators::ota3());
        assert_eq!(solved.floorplan.num_placed(), 3);
    }
}
