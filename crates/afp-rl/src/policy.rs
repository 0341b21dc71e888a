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
use afp_tensor::{Layer, Param, Tensor};

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

/// Output of one batched policy evaluation.
#[derive(Debug, Clone)]
pub struct PolicyBatch {
    /// Unmasked logits, batch-innermost: `[ACTION_SPACE, B]`.
    pub logits: Tensor,
    /// One state-value estimate per sample.
    pub values: Vec<f32>,
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

    /// Evaluates the network on one observation: the `B = 1` case of
    /// [`ActorCritic::forward_batch`].
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
        let out = self.forward_batch(
            Tensor::interleave(&[masks]),
            Tensor::interleave(&[graph_embedding]),
            Tensor::interleave(&[node_embedding]),
        );
        PolicyOutput {
            logits: out.logits.into_shape(&[ACTION_SPACE]),
            value: out.values[0],
        }
    }

    /// Evaluates the network on a batch of `B` observations laid out
    /// batch-innermost (see [`Tensor::interleave`]): `masks` is
    /// `[6, 32, 32, B]` and each embedding `[32, B]`. Every logit and value
    /// is bit-identical to a per-observation [`ActorCritic::forward`].
    pub fn forward_batch(
        &mut self,
        masks: Tensor,
        graph_embeddings: Tensor,
        node_embeddings: Tensor,
    ) -> PolicyBatch {
        let lanes = *masks.shape().last().expect("batched masks");
        assert_eq!(
            masks.shape(),
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE, lanes],
            "mask tensor has wrong shape"
        );
        let cnn_features = self.cnn.forward_batch(masks);
        // Concatenating batch-innermost features is appending their buffers.
        let mut state = cnn_features.into_vec();
        state.extend_from_slice(graph_embeddings.data());
        state.extend_from_slice(node_embeddings.data());
        let state = Tensor::from_vec(state, &[self.config.state_dim(), lanes]);
        let values = self.value_head.forward_batch(state.clone()).into_vec();
        let logits = self.policy_head.forward_batch(state);
        PolicyBatch {
            logits: logits.into_shape(&[ACTION_SPACE, lanes]),
            values,
        }
    }

    /// Back-propagates gradients of the loss with respect to the logits and
    /// the value estimate of the **most recent** [`ActorCritic::forward`]
    /// call. Returns the gradient with respect to the concatenated
    /// `(graph, node)` embeddings (useful if the caller wants to fine-tune the
    /// encoder; discarded when the encoder is frozen).
    pub fn backward(&mut self, grad_logits: &Tensor, grad_value: f32) -> Tensor {
        let grad = self.backward_batch(Tensor::interleave(&[grad_logits]), &[grad_value]);
        grad.into_shape(&[2 * EMBEDDING_DIM])
    }

    /// The batched [`ActorCritic::backward`] of the most recent
    /// [`ActorCritic::forward_batch`]: `grad_logits` is `[ACTION_SPACE, B]`
    /// and `grad_values` holds one value gradient per sample. Parameter
    /// gradients accumulate sample after sample, bit-identical to one
    /// `backward` per sample in batch order. Returns the `[64, B]` embedding
    /// gradient.
    pub fn backward_batch(&mut self, grad_logits: Tensor, grad_values: &[f32]) -> Tensor {
        let lanes = grad_values.len();
        let grad_map = grad_logits.into_shape(&[SHAPES_PER_BLOCK, GRID_SIZE, GRID_SIZE, lanes]);
        let mut grad_state = self.policy_head.backward_batch(grad_map);
        let grad_state_from_value = self
            .value_head
            .backward_batch(Tensor::from_vec(grad_values.to_vec(), &[1, lanes]));
        for (g, v) in grad_state
            .data_mut()
            .iter_mut()
            .zip(grad_state_from_value.data())
        {
            *g += v;
        }
        let mut grad_cnn = grad_state.into_vec();
        let grad_embeddings = grad_cnn.split_off(self.config.cnn_feature_dim * lanes);
        // Nothing consumes dL/d masks, so the first conv skips it.
        self.cnn.backward_params_batch(Tensor::from_vec(
            grad_cnn,
            &[self.config.cnn_feature_dim, lanes],
        ));
        Tensor::from_vec(grad_embeddings, &[2 * EMBEDDING_DIM, lanes])
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
    fn copied_values_reproduce_outputs() {
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut net_a = ActorCritic::new(PolicyConfig::small(), &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut net_b = ActorCritic::new(PolicyConfig::small(), &mut rng_b);
        afp_tensor::copy_values(&mut net_b.params_mut(), &net_a.params()).unwrap();
        let (masks, g, n) = inputs(5);
        let oa = net_a.forward(&masks, &g, &n);
        let ob = net_b.forward(&masks, &g, &n);
        assert_eq!(oa.logits.data(), ob.logits.data());
        assert_eq!(oa.value, ob.value);
    }

    #[test]
    fn copy_rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(6);
        let net_small = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let mut other = ActorCritic::new(
            PolicyConfig {
                conv_channels: vec![4, 4],
                ..PolicyConfig::small()
            },
            &mut rng,
        );
        assert!(afp_tensor::copy_values(&mut other.params_mut(), &net_small.params()).is_err());
    }
}
