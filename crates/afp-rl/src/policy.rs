//! The actor-critic network of the RL agent (paper Fig. 4).
//!
//! * A CNN **state feature extractor** consumes the 6×32×32 mask tensor
//!   (3×3 kernels, stride 1, padding 1; 16-32-32-64-64 channels in the paper)
//!   followed by a dense projection to a 512-dimensional vector.
//! * The CNN features are concatenated with the R-GCN **graph** and **current
//!   node** embeddings (32 + 32) to form the state embedding.
//! * The **value network** is a small MLP on the state embedding.
//! * The **deconvolutional policy network** projects the state embedding back
//!   to a `[32, 4, 4]` activation and upsamples it with three 4×4 / stride-2
//!   transposed convolutions (32-16-8 channels) plus a 1×1 convolution to the
//!   three shape channels, producing one logit per `(shape, cell)` action.

use rand::Rng;

use afp_circuit::SHAPES_PER_BLOCK;
use afp_layout::{GRID_SIZE, STATE_CHANNELS};
use afp_tensor::layers::{Activation, Conv2d, ConvTranspose2d, Dense, Flatten, Reshape, Sequential};
use afp_tensor::{Layer, Param, StateDict, Tensor};

use crate::action::ACTION_SPACE;

/// Width of the R-GCN graph / node embeddings consumed by the policy.
pub const EMBEDDING_DIM: usize = afp_gnn::EMBEDDING_DIM;

/// Architecture hyper-parameters of the actor-critic network.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// Channel widths of the CNN feature extractor.
    pub conv_channels: Vec<usize>,
    /// Output width of the dense projection after the CNN.
    pub cnn_feature_dim: usize,
    /// Channel widths of the three deconvolution stages (first entry is also
    /// the channel count of the reshaped seed activation).
    pub deconv_channels: [usize; 3],
    /// Hidden width of the value MLP.
    pub value_hidden: usize,
}

impl PolicyConfig {
    /// The paper's architecture (§IV-D3).
    pub fn paper() -> Self {
        PolicyConfig {
            conv_channels: vec![16, 32, 32, 64, 64],
            cnn_feature_dim: 512,
            deconv_channels: [32, 16, 8],
            value_hidden: 256,
        }
    }

    /// A reduced architecture for CPU unit tests and fast experimentation.
    pub fn small() -> Self {
        PolicyConfig {
            conv_channels: vec![4],
            cnn_feature_dim: 32,
            deconv_channels: [8, 4, 4],
            value_hidden: 32,
        }
    }

    /// Dimension of the concatenated state embedding.
    pub fn state_dim(&self) -> usize {
        self.cnn_feature_dim + 2 * EMBEDDING_DIM
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::small()
    }
}

/// Output of one policy evaluation.
#[derive(Debug, Clone)]
pub struct PolicyOutput {
    /// Unmasked logits over the flat action space (`[ACTION_SPACE]`).
    pub logits: Tensor,
    /// State-value estimate.
    pub value: f32,
}

/// The actor-critic network.
#[derive(Debug)]
pub struct ActorCritic {
    config: PolicyConfig,
    cnn: Sequential,
    policy_head: Sequential,
    value_head: Sequential,
}

impl ActorCritic {
    /// Creates the network with the given architecture.
    pub fn new<R: Rng + ?Sized>(config: PolicyConfig, rng: &mut R) -> Self {
        // CNN feature extractor.
        let mut cnn = Sequential::new();
        let mut in_ch = STATE_CHANNELS;
        for &out_ch in &config.conv_channels {
            cnn.push(Conv2d::new(in_ch, out_ch, 3, 1, 1, rng));
            cnn.push(Activation::relu());
            in_ch = out_ch;
        }
        cnn.push(Flatten::new());
        let flat_dim = in_ch * GRID_SIZE * GRID_SIZE;
        cnn.push(Dense::new(flat_dim, config.cnn_feature_dim, rng));
        cnn.push(Activation::relu());

        let state_dim = config.state_dim();

        // Deconvolutional policy head.
        let mut policy_head = Sequential::new();
        let seed_channels = config.deconv_channels[0];
        policy_head.push(Dense::new(state_dim, seed_channels * 4 * 4, rng));
        policy_head.push(Activation::relu());
        policy_head.push(Reshape::new(&[seed_channels, 4, 4]));
        policy_head.push(ConvTranspose2d::new(
            config.deconv_channels[0],
            config.deconv_channels[0],
            4,
            2,
            1,
            rng,
        ));
        policy_head.push(Activation::relu());
        policy_head.push(ConvTranspose2d::new(
            config.deconv_channels[0],
            config.deconv_channels[1],
            4,
            2,
            1,
            rng,
        ));
        policy_head.push(Activation::relu());
        policy_head.push(ConvTranspose2d::new(
            config.deconv_channels[1],
            config.deconv_channels[2],
            4,
            2,
            1,
            rng,
        ));
        policy_head.push(Activation::relu());
        // 1×1 convolution down to one channel per candidate shape.
        policy_head.push(Conv2d::new(
            config.deconv_channels[2],
            SHAPES_PER_BLOCK,
            1,
            1,
            0,
            rng,
        ));

        // Value head.
        let mut value_head = Sequential::new();
        value_head.push(Dense::new(state_dim, config.value_hidden, rng));
        value_head.push(Activation::relu());
        value_head.push(Dense::new(config.value_hidden, 1, rng));

        ActorCritic {
            config,
            cnn,
            policy_head,
            value_head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Evaluates the network.
    ///
    /// * `masks` — the `[6, 32, 32]` mask tensor of the observation,
    /// * `graph_embedding` — the 32-dimensional circuit embedding,
    /// * `node_embedding` — the 32-dimensional embedding of the block to place.
    pub fn forward(
        &mut self,
        masks: &Tensor,
        graph_embedding: &Tensor,
        node_embedding: &Tensor,
    ) -> PolicyOutput {
        assert_eq!(
            masks.shape(),
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
            "mask tensor has wrong shape"
        );
        let cnn_features = self.cnn.forward(masks);
        let state = Tensor::concat(&[&cnn_features, graph_embedding, node_embedding]);
        let logits_map = self.policy_head.forward(&state);
        let logits = logits_map.reshape(&[ACTION_SPACE]);
        let value = self.value_head.forward(&state).get(0);
        PolicyOutput { logits, value }
    }

    /// Back-propagates gradients of the loss with respect to the logits and
    /// the value estimate of the **most recent** [`ActorCritic::forward`]
    /// call. Returns the gradient with respect to the concatenated
    /// `(graph, node)` embeddings (useful if the caller wants to fine-tune the
    /// encoder; discarded when the encoder is frozen).
    pub fn backward(&mut self, grad_logits: &Tensor, grad_value: f32) -> Tensor {
        let grad_map = grad_logits.reshape(&[SHAPES_PER_BLOCK, GRID_SIZE, GRID_SIZE]);
        let grad_state_from_policy = self.policy_head.backward(&grad_map);
        let grad_state_from_value = self
            .value_head
            .backward(&Tensor::from_slice(&[grad_value]));
        let grad_state = grad_state_from_policy.add(&grad_state_from_value);
        let split = self.config.cnn_feature_dim;
        let grad_cnn = Tensor::from_slice(&grad_state.data()[..split]);
        let grad_embeddings = Tensor::from_slice(&grad_state.data()[split..]);
        // Nothing consumes dL/d masks, so the first conv skips it.
        self.cnn.backward_params(&grad_cnn);
        grad_embeddings
    }

    /// All learnable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.cnn.params_mut();
        p.extend(self.policy_head.params_mut());
        p.extend(self.value_head.params_mut());
        p
    }

    /// All learnable parameters.
    pub fn params(&self) -> Vec<&Param> {
        let mut p = self.cnn.params();
        p.extend(self.policy_head.params());
        p.extend(self.value_head.params());
        p
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.cnn.zero_grad();
        self.policy_head.zero_grad();
        self.value_head.zero_grad();
    }

    /// Total number of learnable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }

    /// Extracts all weights as a state dict.
    pub fn state_dict(&self) -> StateDict {
        let mut dict = StateDict::new();
        for (i, p) in self.params().iter().enumerate() {
            dict.insert(format!("{i}:{}", p.name), p.value.clone());
        }
        dict
    }

    /// Loads weights from a state dict produced by [`ActorCritic::state_dict`].
    ///
    /// # Errors
    ///
    /// Returns an error string if the parameter count or any shape differs.
    pub fn load_state_dict(&mut self, dict: &StateDict) -> Result<(), String> {
        let mut params = self.params_mut();
        if params.len() != dict.len() {
            return Err(format!(
                "policy has {} parameters, checkpoint has {}",
                params.len(),
                dict.len()
            ));
        }
        for (p, (_, value)) in params.iter_mut().zip(dict.iter()) {
            if p.value.shape() != value.shape() {
                return Err(format!(
                    "shape mismatch for {}: {:?} vs {:?}",
                    p.name,
                    p.value.shape(),
                    value.shape()
                ));
            }
            p.value = value.clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let masks = afp_tensor::Init::XavierUniform.sample(
            &mut rng,
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
            10,
            10,
        );
        let g = afp_tensor::Init::XavierUniform.sample(&mut rng, &[EMBEDDING_DIM], 32, 32);
        let n = afp_tensor::Init::XavierUniform.sample(&mut rng, &[EMBEDDING_DIM], 32, 32);
        (masks, g, n)
    }

    #[test]
    fn forward_produces_full_action_space_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let (masks, g, n) = inputs(1);
        let out = net.forward(&masks, &g, &n);
        assert_eq!(out.logits.len(), ACTION_SPACE);
        assert!(out.logits.is_finite());
        assert!(out.value.is_finite());
    }

    #[test]
    fn paper_config_matches_described_architecture() {
        let cfg = PolicyConfig::paper();
        assert_eq!(cfg.conv_channels, vec![16, 32, 32, 64, 64]);
        assert_eq!(cfg.cnn_feature_dim, 512);
        assert_eq!(cfg.deconv_channels, [32, 16, 8]);
        assert_eq!(cfg.state_dim(), 512 + 64);
    }

    #[test]
    fn backward_populates_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let (masks, g, n) = inputs(3);
        let out = net.forward(&masks, &g, &n);
        net.zero_grad();
        let grad_logits = out.logits.map(|_| 1.0 / ACTION_SPACE as f32);
        let grad_emb = net.backward(&grad_logits, 1.0);
        assert_eq!(grad_emb.len(), 2 * EMBEDDING_DIM);
        assert!(net.params().iter().any(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn state_dict_roundtrip_reproduces_outputs() {
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut net_a = ActorCritic::new(PolicyConfig::small(), &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut net_b = ActorCritic::new(PolicyConfig::small(), &mut rng_b);
        net_b.load_state_dict(&net_a.state_dict()).unwrap();
        let (masks, g, n) = inputs(5);
        let oa = net_a.forward(&masks, &g, &n);
        let ob = net_b.forward(&masks, &g, &n);
        assert_eq!(oa.logits.data(), ob.logits.data());
        assert_eq!(oa.value, ob.value);
    }

    #[test]
    fn load_rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(6);
        let net_small = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let mut other = ActorCritic::new(
            PolicyConfig {
                conv_channels: vec![4, 4],
                ..PolicyConfig::small()
            },
            &mut rng,
        );
        assert!(other.load_state_dict(&net_small.state_dict()).is_err());
    }
}
