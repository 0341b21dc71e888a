//! The floorplanning agent: frozen R-GCN encoder + actor-critic policy.
//!
//! The agent covers the inference-time behaviours evaluated in Table I:
//! zero-shot floorplanning of a (possibly unseen) circuit, and few-shot
//! fine-tuning where training continues on one specific circuit for a given
//! number of episodes (1-shot, 100-shot, 1000-shot columns).

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::{Circuit, CircuitGraph, NODE_FEATURE_DIM};
use afp_gnn::{CircuitEmbedding, RgcnEncoder};
use afp_layout::{metrics, Floorplan, FloorplanMetrics};
use afp_tensor::Tensor;

use crate::action::Action;
use crate::env::{FloorplanEnv, Termination};
use crate::policy::{ActorCritic, PolicyConfig};
use crate::ppo::{greedy_masked_action, sample_masked_action, PpoConfig, PpoTrainer};
use crate::rollout::{RolloutBuffer, Transition};

/// Feature-ablation switches (used by the ablation study binaries; all `true`
/// for the full method).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationFlags {
    /// Feed the dead-space mask `f_ds` to the CNN (paper's addition over \[4\]).
    pub use_dead_space_mask: bool,
    /// Feed the wire mask `f_w` to the CNN.
    pub use_wire_mask: bool,
    /// Use the R-GCN embeddings (otherwise zero vectors are fed).
    pub use_encoder: bool,
}

impl Default for AblationFlags {
    fn default() -> Self {
        AblationFlags {
            use_dead_space_mask: true,
            use_wire_mask: true,
            use_encoder: true,
        }
    }
}

/// Agent configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Actor-critic architecture.
    pub policy: PolicyConfig,
    /// PPO hyper-parameters (used for fine-tuning and training).
    pub ppo: PpoConfig,
    /// Feature ablations.
    pub ablation: AblationFlags,
    /// RNG seed for weight initialization and sampling.
    pub seed: u64,
}

impl AgentConfig {
    /// Small configuration for tests.
    pub fn small() -> Self {
        AgentConfig {
            policy: PolicyConfig::small(),
            ppo: PpoConfig::small(),
            ablation: AblationFlags::default(),
            seed: 0,
        }
    }

    /// The paper's configuration.
    pub fn paper() -> Self {
        AgentConfig {
            policy: PolicyConfig::paper(),
            ppo: PpoConfig::paper(),
            ablation: AblationFlags::default(),
            seed: 0,
        }
    }
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig::small()
    }
}

/// Summary of one rollout episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeSummary {
    /// Sum of all rewards collected during the episode.
    pub total_reward: f64,
    /// Terminal reward (Eq. 5) of the final floorplan.
    pub final_reward: f64,
    /// How the episode ended.
    pub termination: Termination,
    /// Number of blocks placed.
    pub steps: usize,
}

/// Result of solving one circuit at inference time.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The produced floorplan.
    pub floorplan: Floorplan,
    /// Its metrics.
    pub metrics: FloorplanMetrics,
    /// Its episode reward (Eq. 5).
    pub reward: f64,
    /// Wall-clock inference time in seconds.
    pub runtime_s: f64,
    /// How the episode ended.
    pub termination: Termination,
}

/// The R-GCN + PPO floorplanning agent.
#[derive(Debug)]
pub struct FloorplanAgent {
    encoder: RgcnEncoder,
    policy: ActorCritic,
    config: AgentConfig,
    /// Per circuit name, the graph last encoded under it and its embedding.
    embedding_cache: HashMap<String, (CircuitGraph, CircuitEmbedding)>,
}

impl FloorplanAgent {
    /// Stochastic fallback rollouts [`Self::solve`] may spend when the greedy
    /// rollout dead-ends before placing every block.
    pub const SOLVE_RETRY_ROLLOUTS: usize = 16;

    /// Creates an agent with a freshly initialized (untrained) encoder.
    pub fn new(config: AgentConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let policy = ActorCritic::new(config.policy.clone(), &mut rng);
        FloorplanAgent {
            encoder,
            policy,
            config,
            embedding_cache: HashMap::new(),
        }
    }

    /// Creates an agent that reuses a pre-trained R-GCN encoder — the transfer
    /// step of the paper (§IV-D).
    pub fn with_encoder(encoder: RgcnEncoder, config: AgentConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let policy = ActorCritic::new(config.policy.clone(), &mut rng);
        FloorplanAgent {
            encoder,
            policy,
            config,
            embedding_cache: HashMap::new(),
        }
    }

    /// The agent configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The actor-critic policy (e.g. to copy its weights into another agent).
    pub fn policy(&self) -> &ActorCritic {
        &self.policy
    }

    /// Mutable access to the policy (used by the training loop).
    pub fn policy_mut(&mut self) -> &mut ActorCritic {
        &mut self.policy
    }

    /// The (frozen) encoder.
    pub fn encoder(&self) -> &RgcnEncoder {
        &self.encoder
    }

    /// Encodes a circuit graph, caching by circuit name (the encoder is frozen
    /// during RL, so embeddings never change for a given graph). A hit must
    /// be for the same graph: a circuit whose constraints changed under the
    /// same name, as the curriculum's injected constraints do, is re-encoded
    /// and replaces the entry.
    pub fn embed(&mut self, name: &str, graph: &CircuitGraph) -> CircuitEmbedding {
        if let Some((cached, hit)) = self.embedding_cache.get(name) {
            if cached == graph {
                return hit.clone();
            }
        }
        let embedding = if self.config.ablation.use_encoder {
            self.encoder.encode(graph)
        } else {
            CircuitEmbedding {
                node_embeddings: Tensor::zeros(&[graph.num_nodes(), afp_gnn::EMBEDDING_DIM]),
                graph_embedding: Tensor::zeros(&[afp_gnn::EMBEDDING_DIM]),
            }
        };
        self.embedding_cache
            .insert(name.to_string(), (graph.clone(), embedding.clone()));
        embedding
    }

    /// Clears the embedding cache (needed after fine-tuning the encoder).
    pub fn clear_embedding_cache(&mut self) {
        self.embedding_cache.clear();
    }

    /// Converts an observation into the mask tensor fed to the CNN, applying
    /// the ablation switches.
    fn masks_tensor(&self, obs: &crate::env::Observation) -> Tensor {
        let mut data = obs.masks.to_tensor_data();
        let plane = afp_layout::GRID_SIZE * afp_layout::GRID_SIZE;
        if !self.config.ablation.use_wire_mask {
            for v in &mut data[plane..2 * plane] {
                *v = 0.0;
            }
        }
        if !self.config.ablation.use_dead_space_mask {
            for v in &mut data[2 * plane..3 * plane] {
                *v = 0.0;
            }
        }
        Tensor::from_vec(
            data,
            &[afp_layout::STATE_CHANNELS, afp_layout::GRID_SIZE, afp_layout::GRID_SIZE],
        )
    }

    /// Runs one episode on an environment.
    ///
    /// * `explore` — sample actions from the masked policy distribution
    ///   (training) instead of acting greedily (evaluation).
    /// * `buffer` — when provided, transitions are recorded for PPO.
    pub fn run_episode<R: Rng + ?Sized>(
        &mut self,
        env: &mut FloorplanEnv,
        explore: bool,
        mut buffer: Option<&mut RolloutBuffer>,
        rng: &mut R,
    ) -> EpisodeSummary {
        let circuit_name = env.circuit().name.clone();
        let graph = env.graph().clone();
        let embedding = self.embed(&circuit_name, &graph);
        let mut obs = match env.reset() {
            Some(o) => o,
            None => {
                return EpisodeSummary {
                    total_reward: 0.0,
                    final_reward: env.final_episode_reward(),
                    termination: Termination::Completed,
                    steps: 0,
                }
            }
        };
        let mut total_reward = 0.0;
        let mut steps = 0;
        loop {
            let masks = self.masks_tensor(&obs);
            let node_embedding = embedding.node(obs.node_index);
            let out = self
                .policy
                .forward(&masks, &embedding.graph_embedding, &node_embedding);
            let (action_index, log_prob) = if explore {
                sample_masked_action(&out.logits, &obs.action_mask, rng)
            } else {
                let a = greedy_masked_action(&out.logits, &obs.action_mask);
                let lp = crate::ppo::masked_log_softmax(&out.logits, &obs.action_mask).get(a);
                (a, lp)
            };
            let outcome = env.step(Action::from_index(action_index));
            total_reward += outcome.reward;
            steps += 1;
            if let Some(buf) = buffer.as_deref_mut() {
                buf.push(Transition {
                    masks,
                    graph_embedding: embedding.graph_embedding.clone(),
                    node_embedding,
                    action_mask: obs.action_mask.clone(),
                    action: action_index,
                    log_prob,
                    value: out.value,
                    reward: outcome.reward as f32,
                    done: outcome.done,
                });
            }
            if outcome.done {
                return EpisodeSummary {
                    total_reward,
                    final_reward: env.final_episode_reward(),
                    termination: outcome.termination,
                    steps,
                };
            }
            obs = env.observe().expect("episode not done");
        }
    }

    /// Zero-shot inference: floorplans a circuit with the current policy and
    /// reports the metrics Table I uses.
    ///
    /// The first rollout acts greedily. The constraint masks can drive a
    /// greedy rollout into a dead end on an unseen circuit (no admissible
    /// cell for the next block); in that case up to
    /// [`Self::SOLVE_RETRY_ROLLOUTS`] stochastic rollouts are attempted
    /// (deterministically seeded, so inference stays reproducible) and the
    /// best completed floorplan is returned. If every rollout fails, the most
    /// complete attempt is reported along with its termination cause.
    pub fn solve(&mut self, circuit: &Circuit) -> SolveResult {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let mut best: Option<SolveResult> = None;
        for attempt in 0..=Self::SOLVE_RETRY_ROLLOUTS {
            let mut env = FloorplanEnv::new(circuit.clone());
            let explore = attempt > 0;
            let summary = self.run_episode(&mut env, explore, None, &mut rng);
            let m = metrics::metrics(circuit, env.floorplan());
            let candidate = SolveResult {
                floorplan: env.floorplan().clone(),
                metrics: m,
                reward: summary.final_reward,
                runtime_s: started.elapsed().as_secs_f64(),
                termination: summary.termination,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    let placed = candidate.floorplan.num_placed();
                    let best_placed = b.floorplan.num_placed();
                    placed > best_placed
                        || (placed == best_placed && candidate.reward > b.reward)
                }
            };
            if better {
                best = Some(candidate);
            }
            if summary.termination == Termination::Completed {
                break;
            }
        }
        let mut result = best.expect("at least one rollout attempted");
        result.runtime_s = started.elapsed().as_secs_f64();
        result
    }

    /// Few-shot fine-tuning: continues PPO training on a single circuit for
    /// `episodes` episodes (the 1-shot / 100-shot / 1000-shot protocol of
    /// Table I). Returns the terminal reward of each fine-tuning episode.
    pub fn fine_tune(&mut self, circuit: &Circuit, episodes: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(17));
        let mut trainer = PpoTrainer::new(self.config.ppo.clone());
        let mut env = FloorplanEnv::new(circuit.clone());
        let mut rewards = Vec::with_capacity(episodes);
        let mut buffer = RolloutBuffer::new(self.config.ppo.gamma, self.config.ppo.gae_lambda);
        // Update after every few episodes so even tiny budgets learn something.
        let episodes_per_update = 4usize;
        for episode in 0..episodes {
            let summary = self.run_episode(&mut env, true, Some(&mut buffer), &mut rng);
            rewards.push(summary.final_reward);
            if (episode + 1) % episodes_per_update == 0 || episode + 1 == episodes {
                let policy = &mut self.policy;
                trainer.update(policy, &buffer, &mut rng);
                buffer.clear();
            }
        }
        rewards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn untrained_agent_solves_a_circuit() {
        let mut agent = FloorplanAgent::new(AgentConfig::small());
        let circuit = generators::ota3();
        let result = agent.solve(&circuit);
        // Greedy masked rollout always produces a complete, overlap-free
        // floorplan (masking guarantees validity); quality is just poor.
        assert_eq!(result.floorplan.num_placed(), 3);
        assert!(result.reward.is_finite());
        assert!(result.runtime_s >= 0.0);
    }

    #[test]
    fn embeddings_are_cached_per_circuit() {
        let mut agent = FloorplanAgent::new(AgentConfig::small());
        let circuit = generators::ota5();
        let graph = CircuitGraph::from_circuit(&circuit);
        let a = agent.embed(&circuit.name, &graph);
        let b = agent.embed(&circuit.name, &graph);
        assert_eq!(a.graph_embedding.data(), b.graph_embedding.data());
        agent.clear_embedding_cache();
        let c = agent.embed(&circuit.name, &graph);
        assert_eq!(a.graph_embedding.data(), c.graph_embedding.data());
    }

    #[test]
    fn a_changed_graph_under_the_same_name_is_re_encoded() {
        let mut agent = FloorplanAgent::new(AgentConfig::small());
        let mut circuit = generators::bias19();
        let before = agent.embed(&circuit.name, &CircuitGraph::from_circuit(&circuit));
        let constraints = circuit.constraints.len();
        let mut rng = StdRng::seed_from_u64(3);
        while circuit.constraints.len() == constraints {
            crate::curriculum::inject_random_constraint(&mut circuit, &mut rng);
        }
        let graph = CircuitGraph::from_circuit(&circuit);
        let after = agent.embed(&circuit.name, &graph);
        assert_ne!(before.node_embeddings.data(), after.node_embeddings.data());
        // Same seed, same encoder weights, empty cache: a fresh encode.
        let fresh = FloorplanAgent::new(AgentConfig::small()).embed(&circuit.name, &graph);
        assert_eq!(after.node_embeddings.data(), fresh.node_embeddings.data());
        assert_eq!(after.graph_embedding.data(), fresh.graph_embedding.data());
    }

    #[test]
    fn ablation_disables_encoder_embeddings() {
        let mut config = AgentConfig::small();
        config.ablation.use_encoder = false;
        let mut agent = FloorplanAgent::new(config);
        let circuit = generators::ota3();
        let graph = CircuitGraph::from_circuit(&circuit);
        let emb = agent.embed(&circuit.name, &graph);
        assert_eq!(emb.graph_embedding.norm(), 0.0);
    }

    #[test]
    fn exploration_episode_fills_buffer() {
        let mut agent = FloorplanAgent::new(AgentConfig::small());
        let mut env = FloorplanEnv::new(generators::ota3());
        let mut buffer = RolloutBuffer::new(0.99, 0.95);
        let mut rng = StdRng::seed_from_u64(0);
        let summary = agent.run_episode(&mut env, true, Some(&mut buffer), &mut rng);
        assert_eq!(buffer.len(), summary.steps);
        assert!(buffer.transitions().last().unwrap().done);
    }

    #[test]
    fn fine_tuning_runs_and_reports_rewards() {
        let mut agent = FloorplanAgent::new(AgentConfig::small());
        let circuit = generators::ota3();
        let rewards = agent.fine_tune(&circuit, 5);
        assert_eq!(rewards.len(), 5);
        assert!(rewards.iter().all(|r| r.is_finite()));
    }
}
