//! The R-GCN circuit encoder: 4 relational layers + node mean aggregation.
//!
//! The encoder is pre-trained as part of the reward-prediction model
//! (paper Fig. 3) and then reused — with its MLP head removed — as the circuit
//! / block feature provider of the RL agent (paper §IV-D). Node embeddings
//! `n_k` and the mean-aggregated graph embedding `g` are both 32-dimensional,
//! matching the paper's state description (§IV-A).

use rand::Rng;

use afp_circuit::CircuitGraph;
use afp_tensor::{layers::ActivationKind, Param, Tensor};

use crate::rgcn::RgcnLayer;

/// Dimension of the node and graph embeddings produced by the encoder
/// (32 in the paper).
pub const EMBEDDING_DIM: usize = 32;

/// Output of the encoder for one circuit graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitEmbedding {
    /// Per-node embeddings, `[N, EMBEDDING_DIM]`.
    pub node_embeddings: Tensor,
    /// Mean-aggregated graph embedding, `[EMBEDDING_DIM]`.
    pub graph_embedding: Tensor,
}

impl CircuitEmbedding {
    /// Embedding of one node as a 1-D tensor.
    pub fn node(&self, index: usize) -> Tensor {
        self.node_embeddings.row(index)
    }
}

/// The 4-layer R-GCN encoder.
#[derive(Debug)]
pub struct RgcnEncoder {
    layers: Vec<RgcnLayer>,
}

impl RgcnEncoder {
    /// Creates an encoder with the paper's architecture: four R-GCN layers
    /// narrowing from the node-feature width to [`EMBEDDING_DIM`].
    pub fn new<R: Rng + ?Sized>(input_dim: usize, rng: &mut R) -> Self {
        Self::with_hidden_dims(input_dim, &[64, 64, 48, EMBEDDING_DIM], rng)
    }

    /// Creates an encoder with explicit hidden widths (the last width is the
    /// embedding dimension). Intermediate layers use ReLU, the output layer is
    /// linear so embeddings are not clipped to the positive orthant.
    pub fn with_hidden_dims<R: Rng + ?Sized>(
        input_dim: usize,
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(!hidden.is_empty(), "at least one layer required");
        let mut layers = Vec::with_capacity(hidden.len());
        let mut d_in = input_dim;
        for (i, &d_out) in hidden.iter().enumerate() {
            let act = if i + 1 == hidden.len() {
                None
            } else {
                Some(ActivationKind::Relu)
            };
            layers.push(RgcnLayer::new(d_in, d_out, act, rng));
            d_in = d_out;
        }
        RgcnEncoder { layers }
    }

    /// Number of R-GCN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The embedding dimension produced by the final layer.
    pub fn embedding_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_features()).unwrap_or(0)
    }

    /// Builds the node feature matrix of a graph.
    pub fn input_features(graph: &CircuitGraph) -> Tensor {
        Tensor::from_rows(graph.feature_rows())
    }

    /// Encodes a circuit graph into node and graph embeddings.
    pub fn encode(&mut self, graph: &CircuitGraph) -> CircuitEmbedding {
        let mut x = Self::input_features(graph);
        for layer in &mut self.layers {
            x = layer.forward(graph, &x);
        }
        let graph_embedding = x.mean_rows();
        CircuitEmbedding {
            node_embeddings: x,
            graph_embedding,
        }
    }

    /// Back-propagates a gradient with respect to the node embeddings
    /// (`[N, EMBEDDING_DIM]`), accumulating parameter gradients and returning
    /// the gradient with respect to the input node features.
    pub fn backward(&mut self, grad_node_embeddings: &Tensor) -> Tensor {
        let mut g = grad_node_embeddings.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Back-propagates a gradient with respect to the *graph* embedding
    /// (`[EMBEDDING_DIM]`): the mean aggregation spreads it uniformly over the
    /// node embeddings.
    pub fn backward_from_graph_embedding(&mut self, grad_graph: &Tensor, num_nodes: usize) -> Tensor {
        let scale = 1.0 / num_nodes.max(1) as f32;
        let rows: Vec<Tensor> = (0..num_nodes).map(|_| grad_graph.scale(scale)).collect();
        let grad_nodes = Tensor::stack(&rows);
        self.backward(&grad_nodes)
    }

    /// All learnable parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All learnable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::{generators, NODE_FEATURE_DIM};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encoder_produces_32_dim_embeddings() {
        let circuit = generators::ota8();
        let graph = CircuitGraph::from_circuit(&circuit);
        let mut rng = StdRng::seed_from_u64(0);
        let mut enc = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        assert_eq!(enc.num_layers(), 4);
        assert_eq!(enc.embedding_dim(), EMBEDDING_DIM);
        let emb = enc.encode(&graph);
        assert_eq!(emb.node_embeddings.shape(), &[8, EMBEDDING_DIM]);
        assert_eq!(emb.graph_embedding.shape(), &[EMBEDDING_DIM]);
        assert!(emb.graph_embedding.is_finite());
        assert_eq!(emb.node(3).len(), EMBEDDING_DIM);
    }

    #[test]
    fn different_circuits_get_different_embeddings() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let a = enc.encode(&CircuitGraph::from_circuit(&generators::ota5()));
        let b = enc.encode(&CircuitGraph::from_circuit(&generators::bias9()));
        let diff = a.graph_embedding.sub(&b.graph_embedding).norm();
        assert!(diff > 1e-3, "embeddings are suspiciously identical");
    }

    #[test]
    fn graph_embedding_is_node_mean() {
        let circuit = generators::ota3();
        let graph = CircuitGraph::from_circuit(&circuit);
        let mut rng = StdRng::seed_from_u64(2);
        let mut enc = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let emb = enc.encode(&graph);
        let manual = emb.node_embeddings.mean_rows();
        assert_eq!(manual.data(), emb.graph_embedding.data());
    }

    #[test]
    fn copied_values_preserve_outputs() {
        let circuit = generators::rs_latch();
        let graph = CircuitGraph::from_circuit(&circuit);
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc_a = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(99);
        let mut enc_b = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng2);
        afp_tensor::copy_values(&mut enc_b.params_mut(), &enc_a.params()).unwrap();
        let ea = enc_a.encode(&graph);
        let eb = enc_b.encode(&graph);
        assert_eq!(ea.graph_embedding.data(), eb.graph_embedding.data());
    }

    #[test]
    fn copy_rejects_wrong_architecture() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc_a = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let mut enc_small = RgcnEncoder::with_hidden_dims(NODE_FEATURE_DIM, &[8], &mut rng);
        assert!(afp_tensor::copy_values(&mut enc_small.params_mut(), &enc_a.params()).is_err());
    }

    #[test]
    fn backward_from_graph_embedding_populates_gradients() {
        let circuit = generators::ota5();
        let graph = CircuitGraph::from_circuit(&circuit);
        let mut rng = StdRng::seed_from_u64(5);
        let mut enc = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        enc.zero_grad();
        let emb = enc.encode(&graph);
        let grad = Tensor::ones(&[EMBEDDING_DIM]);
        let _ = enc.backward_from_graph_embedding(&grad, emb.node_embeddings.shape()[0]);
        assert!(enc.params().iter().any(|p| p.grad.norm() > 0.0));
    }
}
