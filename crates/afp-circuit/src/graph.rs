//! Heterogeneous circuit graphs: the R-GCN input representation.
//!
//! Following the paper's §IV-C (and its Fig. 2), a circuit is represented as
//! an undirected graph whose nodes are functional blocks and whose edges carry
//! one of five *relations*: netlist connectivity, horizontal / vertical
//! alignment, and horizontal / vertical symmetry. The relational structure is
//! exactly what distinguishes the R-GCN (paper Eq. 2) from a plain GCN
//! (paper Eq. 1).

use crate::block::BlockId;
use crate::constraint::{Axis, Constraint};
use crate::features::{node_features, NODE_FEATURE_DIM};
use crate::netlist::Circuit;

/// The relation type attached to a circuit-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeRelation {
    /// The two blocks share at least one (non-supply) net.
    Connectivity,
    /// The two blocks belong to a horizontal alignment group.
    HorizontalAlignment,
    /// The two blocks belong to a vertical alignment group.
    VerticalAlignment,
    /// The two blocks are mirrored about a horizontal axis.
    HorizontalSymmetry,
    /// The two blocks are mirrored about a vertical axis.
    VerticalSymmetry,
}

impl EdgeRelation {
    /// All relations in a stable order (indexes the R-GCN weight matrices).
    pub const ALL: [EdgeRelation; 5] = [
        EdgeRelation::Connectivity,
        EdgeRelation::HorizontalAlignment,
        EdgeRelation::VerticalAlignment,
        EdgeRelation::HorizontalSymmetry,
        EdgeRelation::VerticalSymmetry,
    ];

    /// Number of relations.
    pub const COUNT: usize = 5;

    /// Index of the relation within [`EdgeRelation::ALL`].
    pub fn index(self) -> usize {
        EdgeRelation::ALL
            .iter()
            .position(|&r| r == self)
            .expect("relation is a member of ALL")
    }
}

/// An undirected heterogeneous graph over the blocks of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitGraph {
    num_nodes: usize,
    /// `adjacency[r][u]` = neighbours of node `u` under relation `r`.
    adjacency: Vec<Vec<Vec<usize>>>,
    /// Per-node feature vectors of length [`NODE_FEATURE_DIM`].
    features: Vec<Vec<f32>>,
    /// Name of the originating circuit (for diagnostics).
    circuit_name: String,
}

impl CircuitGraph {
    /// Builds the relational graph of a circuit.
    ///
    /// Connectivity edges come from shared non-supply nets; alignment and
    /// symmetry edges from the circuit's constraint set. Every edge is added
    /// in both directions (the graph is undirected).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_blocks();
        let mut adjacency = vec![vec![Vec::new(); n]; EdgeRelation::COUNT];

        let mut add_edge = |rel: EdgeRelation, a: BlockId, b: BlockId| {
            let (ai, bi) = (a.index(), b.index());
            if ai == bi {
                return;
            }
            let adj = &mut adjacency[rel.index()];
            if !adj[ai].contains(&bi) {
                adj[ai].push(bi);
            }
            if !adj[bi].contains(&ai) {
                adj[bi].push(ai);
            }
        };

        for (a, b) in circuit.connectivity_pairs() {
            add_edge(EdgeRelation::Connectivity, a, b);
        }
        for constraint in circuit.constraints.iter() {
            match constraint {
                Constraint::Symmetry(group) => {
                    let rel = match group.axis {
                        Axis::Horizontal => EdgeRelation::HorizontalSymmetry,
                        Axis::Vertical => EdgeRelation::VerticalSymmetry,
                    };
                    for &(a, b) in &group.pairs {
                        add_edge(rel, a, b);
                    }
                }
                Constraint::Alignment(group) => {
                    let rel = match group.axis {
                        Axis::Horizontal => EdgeRelation::HorizontalAlignment,
                        Axis::Vertical => EdgeRelation::VerticalAlignment,
                    };
                    for i in 0..group.blocks.len() {
                        for j in (i + 1)..group.blocks.len() {
                            add_edge(rel, group.blocks[i], group.blocks[j]);
                        }
                    }
                }
            }
        }

        let max_area = circuit
            .blocks
            .iter()
            .map(|b| b.area_um2)
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        let features = circuit
            .blocks
            .iter()
            .map(|b| node_features(b, max_area))
            .collect();

        CircuitGraph {
            num_nodes: n,
            adjacency,
            features,
            circuit_name: circuit.name.clone(),
        }
    }

    /// Number of nodes (blocks).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Width of each node feature vector.
    pub fn feature_dim(&self) -> usize {
        NODE_FEATURE_DIM
    }

    /// Name of the circuit this graph was built from.
    pub fn circuit_name(&self) -> &str {
        &self.circuit_name
    }

    /// Neighbours of `node` under `relation`.
    pub fn neighbors(&self, relation: EdgeRelation, node: usize) -> &[usize] {
        &self.adjacency[relation.index()][node]
    }

    /// Feature vector of `node`.
    pub fn features(&self, node: usize) -> &[f32] {
        &self.features[node]
    }

    /// All feature vectors as rows.
    pub fn feature_rows(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// Total number of undirected edges under a relation.
    pub fn num_edges(&self, relation: EdgeRelation) -> usize {
        self.adjacency[relation.index()]
            .iter()
            .map(|n| n.len())
            .sum::<usize>()
            / 2
    }

    /// Total number of undirected edges across all relations.
    pub fn total_edges(&self) -> usize {
        EdgeRelation::ALL.iter().map(|&r| self.num_edges(r)).sum()
    }

    /// Degree of a node counting every relation.
    pub fn degree(&self, node: usize) -> usize {
        EdgeRelation::ALL
            .iter()
            .map(|&r| self.neighbors(r, node).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockKind;
    use crate::net::NetClass;

    fn sample_circuit() -> Circuit {
        Circuit::builder("g")
            .block("DP", BlockKind::DifferentialPair, 40.0, 4)
            .block("CML", BlockKind::CurrentMirror, 30.0, 3)
            .block("CMR", BlockKind::CurrentMirror, 30.0, 3)
            .block("TAIL", BlockKind::CurrentSource, 20.0, 2)
            .net("inp", &[("DP", "g1"), ("TAIL", "ref")], NetClass::Signal)
            .net("outl", &[("DP", "d1"), ("CML", "d")], NetClass::Signal)
            .net("outr", &[("DP", "d2"), ("CMR", "d")], NetClass::Signal)
            .net("vdd", &[("CML", "s"), ("CMR", "s")], NetClass::Power)
            .symmetry_v(&[("CML", "CMR"), ("DP", "DP")])
            .alignment(crate::constraint::Axis::Horizontal, &["CML", "CMR"])
            .build()
            .unwrap()
    }

    #[test]
    fn graph_has_one_node_per_block() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.feature_dim(), NODE_FEATURE_DIM);
        assert_eq!(g.circuit_name(), "g");
    }

    #[test]
    fn connectivity_edges_skip_supply_nets() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        // inp, outl, outr → 3 edges; vdd skipped.
        assert_eq!(g.num_edges(EdgeRelation::Connectivity), 3);
    }

    #[test]
    fn symmetry_and_alignment_edges_present() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        assert_eq!(g.num_edges(EdgeRelation::VerticalSymmetry), 1);
        assert_eq!(g.num_edges(EdgeRelation::HorizontalAlignment), 1);
        assert_eq!(g.num_edges(EdgeRelation::VerticalAlignment), 0);
        // CML (node 1) is symmetric with CMR (node 2).
        assert_eq!(g.neighbors(EdgeRelation::VerticalSymmetry, 1), &[2]);
    }

    #[test]
    fn edges_are_undirected() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        let fwd = g.neighbors(EdgeRelation::Connectivity, 0).to_vec();
        for n in fwd {
            assert!(g.neighbors(EdgeRelation::Connectivity, n).contains(&0));
        }
    }

    #[test]
    fn features_are_finite_and_nonempty() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        for node in 0..g.num_nodes() {
            assert_eq!(g.features(node).len(), NODE_FEATURE_DIM);
            assert!(g.features(node).iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn degree_counts_all_relations() {
        let g = CircuitGraph::from_circuit(&sample_circuit());
        // CML: connectivity to DP, symmetry to CMR, alignment to CMR.
        assert_eq!(g.degree(1), 3);
        assert!(g.total_edges() >= 5);
    }
}
