//! # afp-circuit — analog circuit model for RL floorplanning
//!
//! This crate models everything the floorplanner needs to know about a
//! circuit, mirroring the front half of the paper's pipeline (Fig. 1):
//!
//! * primitive [`Device`]s and device-level [`Schematic`]s,
//! * automatic [`recognition`] of functional structures (a rule-based
//!   substitute for Infineon's GCN + K-means structure-recognition tool
//!   \[21\]),
//! * typed functional [`Block`]s with the geometry summary the R-GCN node
//!   features require,
//! * block-level [`Net`]s, positional [`constraint`]s (symmetry / alignment)
//!   and the containing [`Circuit`],
//! * the relational [`CircuitGraph`] consumed by the R-GCN encoder,
//! * [`shapes`]: the three fixed-area candidate shapes per block
//!   (multi-shape configuration, paper §IV-B),
//! * [`generators`]: synthetic industrial circuits reproducing the paper's
//!   training and evaluation sets (OTAs, bias networks, driver, RS latch, …).
//!
//! # Examples
//!
//! ```
//! use afp_circuit::{generators, CircuitGraph, shapes};
//!
//! let circuit = generators::ota8();
//! assert_eq!(circuit.num_blocks(), 8);
//!
//! let graph = CircuitGraph::from_circuit(&circuit);
//! assert_eq!(graph.num_nodes(), 8);
//!
//! let shape_sets = shapes::shape_sets(&circuit);
//! assert_eq!(shape_sets.len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod device;
mod error;
mod features;
mod graph;
mod net;
mod netlist;

pub mod constraint;
pub mod generators;
pub mod recognition;
pub mod shapes;
pub mod spice;

pub use block::{Block, BlockId, BlockKind, InternalPlacement, RoutingDirection};
pub use constraint::{AlignmentGroup, Axis, Constraint, ConstraintSet, SymmetryGroup};
pub use device::{Device, DeviceId, DeviceKind};
pub use error::CircuitError;
pub use features::{node_features, NODE_FEATURE_DIM, SCALAR_FEATURES};
pub use graph::{CircuitGraph, EdgeRelation};
pub use net::{Net, NetClass, NetId, Pin};
pub use netlist::{Circuit, CircuitBuilder, Schematic};
pub use shapes::{Shape, ShapeSet, SHAPES_PER_BLOCK};
