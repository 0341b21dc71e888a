//! Relational graph convolution layers (paper Eq. 2).
//!
//! Each layer computes, for every node `u`,
//!
//! ```text
//! h_u' = σ( W₀ · h_u + Σ_r Σ_{v ∈ N_r(u)} W_r · h_v / c_{u,r} + b )
//! ```
//!
//! where `r` ranges over the five edge relations of the circuit graph
//! (connectivity, horizontal / vertical alignment, horizontal / vertical
//! symmetry) and `c_{u,r} = |N_r(u)|` is the per-relation degree normalizer.
//!
//! The layer keeps explicit forward / backward passes (like the rest of the
//! NN substrate) so the supervised reward-prediction pre-training can be run
//! without an autodiff engine.

use rand::Rng;

use afp_circuit::{CircuitGraph, EdgeRelation};
use afp_tensor::{layers::ActivationKind, Init, Param, Tensor};

/// One relational graph convolution layer.
#[derive(Debug)]
pub struct RgcnLayer {
    /// Self-connection weight, `[d_in, d_out]`.
    w_self: Param,
    /// Per-relation weights, `[d_in, d_out]` each, indexed by
    /// [`EdgeRelation::index`].
    w_rel: Vec<Param>,
    /// Bias, `[d_out]`.
    bias: Param,
    in_features: usize,
    out_features: usize,
    activation: Option<ActivationKind>,
    // Forward cache.
    cached_input: Option<Tensor>,
    cached_adjacency: Option<Vec<Tensor>>,
    cached_preactivation: Option<Tensor>,
}

impl RgcnLayer {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        activation: Option<ActivationKind>,
        rng: &mut R,
    ) -> Self {
        let init = Init::XavierUniform;
        let w_self = Param::new(
            "rgcn.w_self",
            init.sample(rng, &[in_features, out_features], in_features, out_features),
        );
        let w_rel = EdgeRelation::ALL
            .iter()
            .map(|r| {
                Param::new(
                    format!("rgcn.w_{r:?}"),
                    init.sample(rng, &[in_features, out_features], in_features, out_features),
                )
            })
            .collect();
        RgcnLayer {
            w_self,
            w_rel,
            bias: Param::new("rgcn.bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            activation,
            cached_input: None,
            cached_adjacency: None,
            cached_preactivation: None,
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Builds the degree-normalized adjacency matrix of one relation.
    fn normalized_adjacency(graph: &CircuitGraph, relation: EdgeRelation) -> Tensor {
        let n = graph.num_nodes();
        let mut a = Tensor::zeros(&[n, n]);
        for u in 0..n {
            let neighbors = graph.neighbors(relation, u);
            if neighbors.is_empty() {
                continue;
            }
            let norm = 1.0 / neighbors.len() as f32;
            for &v in neighbors {
                *a.at_mut(u, v) = norm;
            }
        }
        a
    }

    fn activate(&self, z: f32) -> f32 {
        match self.activation {
            Some(ActivationKind::Relu) => z.max(0.0),
            Some(ActivationKind::Tanh) => z.tanh(),
            Some(ActivationKind::Sigmoid) => 1.0 / (1.0 + (-z).exp()),
            None => z,
        }
    }

    fn activate_grad(&self, z: f32) -> f32 {
        match self.activation {
            Some(ActivationKind::Relu) => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Some(ActivationKind::Tanh) => {
                let t = z.tanh();
                1.0 - t * t
            }
            Some(ActivationKind::Sigmoid) => {
                let s = 1.0 / (1.0 + (-z).exp());
                s * (1.0 - s)
            }
            None => 1.0,
        }
    }

    /// Runs the layer over the whole graph. `node_features` is `[N, d_in]`;
    /// the result is `[N, d_out]`.
    ///
    /// # Panics
    ///
    /// Panics if the feature width does not match `in_features`.
    pub fn forward(&mut self, graph: &CircuitGraph, node_features: &Tensor) -> Tensor {
        assert_eq!(node_features.ndim(), 2, "node features must be [N, d_in]");
        assert_eq!(
            node_features.shape()[1],
            self.in_features,
            "RgcnLayer expects {} input features, got {}",
            self.in_features,
            node_features.shape()[1]
        );
        let n = graph.num_nodes();
        assert_eq!(node_features.shape()[0], n, "feature row count != node count");

        let adjacency: Vec<Tensor> = EdgeRelation::ALL
            .iter()
            .map(|&r| Self::normalized_adjacency(graph, r))
            .collect();

        // Z = X·W_self + Σ_r A_r·X·W_r + 1·bᵀ
        let mut z = node_features.matmul(&self.w_self.value);
        for (r, a) in adjacency.iter().enumerate() {
            let messages = a.matmul(node_features).matmul(&self.w_rel[r].value);
            z = z.add(&messages);
        }
        for row in 0..n {
            for col in 0..self.out_features {
                *z.at_mut(row, col) += self.bias.value.get(col);
            }
        }
        let out = z.map(|v| self.activate(v));
        self.cached_input = Some(node_features.clone());
        self.cached_adjacency = Some(adjacency);
        self.cached_preactivation = Some(z);
        out
    }

    /// Back-propagates `grad_output = dL/d output` (`[N, d_out]`), accumulating
    /// parameter gradients and returning `dL/d node_features` (`[N, d_in]`).
    ///
    /// # Panics
    ///
    /// Panics if called before [`RgcnLayer::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("RgcnLayer::backward called before forward");
        let adjacency = self.cached_adjacency.as_ref().expect("adjacency cached");
        let z = self.cached_preactivation.as_ref().expect("preactivation cached");

        // dZ = dOut ⊙ σ'(Z)
        let dz = grad_output.zip(z, |g, zz| g * self.activate_grad(zz));

        // Self connection.
        self.w_self
            .grad
            .add_scaled_inplace(&x.transpose().matmul(&dz), 1.0);
        let mut dx = dz.matmul(&self.w_self.value.transpose());

        // Relations.
        for (r, a) in adjacency.iter().enumerate() {
            let ax = a.matmul(x);
            self.w_rel[r]
                .grad
                .add_scaled_inplace(&ax.transpose().matmul(&dz), 1.0);
            let through = a.transpose().matmul(&dz.matmul(&self.w_rel[r].value.transpose()));
            dx = dx.add(&through);
        }

        // Bias: column sums of dZ.
        let n = dz.shape()[0];
        for col in 0..self.out_features {
            let mut s = 0.0;
            for row in 0..n {
                s += dz.at(row, col);
            }
            self.bias.grad.data_mut()[col] += s;
        }
        dx
    }

    /// Immutable access to all parameters.
    pub fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.w_self, &self.bias];
        p.extend(self.w_rel.iter());
        p
    }

    /// Mutable access to all parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.w_self, &mut self.bias];
        p.extend(self.w_rel.iter_mut());
        p
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph_and_features() -> (CircuitGraph, Tensor) {
        let circuit = generators::ota8();
        let graph = CircuitGraph::from_circuit(&circuit);
        let rows: Vec<Vec<f32>> = graph.feature_rows().to_vec();
        let features = Tensor::from_rows(&rows);
        (graph, features)
    }

    #[test]
    fn forward_shape_is_nodes_by_out_features() {
        let (graph, features) = graph_and_features();
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = RgcnLayer::new(graph.feature_dim(), 16, Some(ActivationKind::Relu), &mut rng);
        let out = layer.forward(&graph, &features);
        assert_eq!(out.shape(), &[graph.num_nodes(), 16]);
        assert!(out.is_finite());
    }

    #[test]
    fn isolated_relations_do_not_produce_nan() {
        // ota3 has no alignment edges at all; normalization must not divide by 0.
        let circuit = generators::ota3();
        let graph = CircuitGraph::from_circuit(&circuit);
        let features = Tensor::from_rows(graph.feature_rows());
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = RgcnLayer::new(graph.feature_dim(), 8, None, &mut rng);
        let out = layer.forward(&graph, &features);
        assert!(out.is_finite());
    }

    #[test]
    fn message_passing_uses_neighbours() {
        // With zero self-weight and bias, a node's output depends only on its
        // neighbours' features.
        let (graph, features) = graph_and_features();
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = RgcnLayer::new(graph.feature_dim(), 4, None, &mut rng);
        layer.w_self.value = Tensor::zeros(&[graph.feature_dim(), 4]);
        let out = layer.forward(&graph, &features);
        // A node with at least one neighbour gets a non-zero embedding.
        let busy = (0..graph.num_nodes())
            .find(|&n| graph.degree(n) > 0)
            .unwrap();
        assert!(out.row(busy).norm() > 0.0);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (graph, features) = graph_and_features();
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = RgcnLayer::new(graph.feature_dim(), 6, Some(ActivationKind::Tanh), &mut rng);

        // Probe loss: weighted sum of outputs.
        let probe = |out: &Tensor| -> (f32, Tensor) {
            let w: Vec<f32> = (0..out.len()).map(|i| ((i % 7) as f32 - 3.0) / 3.0).collect();
            let loss = out.data().iter().zip(w.iter()).map(|(o, wi)| o * wi).sum();
            (loss, Tensor::from_vec(w, out.shape()))
        };

        layer.zero_grad();
        let out = layer.forward(&graph, &features);
        let (_, grad_out) = probe(&out);
        let grad_in = layer.backward(&grad_out);
        let analytic_w_self = layer.w_self.grad.clone();

        let eps = 1e-2f32;
        // Check a handful of W_self entries.
        for idx in [0usize, 7, 23, 51] {
            let orig = layer.w_self.value.data()[idx];
            layer.w_self.value.data_mut()[idx] = orig + eps;
            let (lp, _) = probe(&layer.forward(&graph, &features));
            layer.w_self.value.data_mut()[idx] = orig - eps;
            let (lm, _) = probe(&layer.forward(&graph, &features));
            layer.w_self.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_w_self.data()[idx];
            assert!(
                afp_tensor::gradcheck::relative_error(numeric, analytic) < 2e-2,
                "w_self[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check an input-feature gradient entry.
        let mut x = features.clone();
        let fidx = 5;
        let orig = x.data()[fidx];
        x.data_mut()[fidx] = orig + eps;
        let (lp, _) = probe(&layer.forward(&graph, &x));
        x.data_mut()[fidx] = orig - eps;
        let (lm, _) = probe(&layer.forward(&graph, &x));
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            afp_tensor::gradcheck::relative_error(numeric, grad_in.data()[fidx]) < 2e-2,
            "input grad: {numeric} vs {}",
            grad_in.data()[fidx]
        );
    }

    #[test]
    fn params_cover_self_relations_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = RgcnLayer::new(10, 4, None, &mut rng);
        // W_self + bias + 5 relation weights.
        assert_eq!(layer.params().len(), 2 + EdgeRelation::COUNT);
    }
}
