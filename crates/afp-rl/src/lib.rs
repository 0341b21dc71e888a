//! # afp-rl — the R-GCN + masked-PPO floorplanning agent
//!
//! The paper's primary contribution (§IV-A, §IV-D): a reinforcement-learning
//! agent that jointly selects a shape and a grid position for every functional
//! block of an analog circuit, guided by R-GCN circuit embeddings and
//! pixel-level grid masks, trained with masked PPO under a hybrid curriculum.
//!
//! * [`FloorplanEnv`] — the placement MDP (states, 3×32×32 action space,
//!   Eq. 4 / Eq. 5 rewards, invalid-action termination),
//! * [`ActorCritic`] — CNN state feature extractor + deconvolutional policy
//!   head + value network (Fig. 4),
//! * [`PpoTrainer`] — masked Proximal Policy Optimization with GAE,
//! * [`HclSchedule`] — the hybrid curriculum over circuits of growing
//!   complexity with random circuit / constraint sampling (§IV-D5),
//! * [`FloorplanAgent`] — inference (zero-shot) and few-shot fine-tuning,
//! * [`train()`] — the end-to-end training loop recording the Fig. 6 curves,
//! * [`ablation`] — named ablations of the design choices.
//!
//! # Examples
//!
//! ```
//! use afp_circuit::generators;
//! use afp_rl::{AgentConfig, FloorplanAgent};
//!
//! // An untrained agent still produces valid (if suboptimal) floorplans,
//! // because invalid actions are masked out.
//! let mut agent = FloorplanAgent::new(AgentConfig::small());
//! let result = agent.solve(&generators::ota3());
//! assert_eq!(result.floorplan.num_placed(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod action;
mod agent;
mod curriculum;
mod env;
mod policy;
mod ppo;
mod rollout;

pub mod ablation;
pub mod train;

pub use action::{Action, ACTION_SPACE};
pub use agent::{
    AblationFlags, AgentConfig, EpisodeSummary, FloorplanAgent, SolveResult,
};
pub use curriculum::{inject_random_constraint, HclSchedule};
pub use env::{FloorplanEnv, Observation, StepOutcome, Termination};
pub use policy::{ActorCritic, PolicyBatch, PolicyConfig, PolicyOutput};
pub use ppo::{
    greedy_masked_action, masked_log_softmax, sample_masked_action, Minibatch, PpoConfig,
    PpoStats, PpoTrainer,
};
pub use rollout::{RolloutBuffer, Transition};
pub use train::{train, train_agent, train_with_encoder, EpochStats, TrainConfig, TrainResult};
