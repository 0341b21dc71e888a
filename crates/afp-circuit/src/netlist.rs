//! Circuit containers: the device-level [`Schematic`] and the block-level
//! [`Circuit`] consumed by the floorplanner.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockId, BlockKind};
use crate::constraint::{Constraint, ConstraintSet};
use crate::device::{Device, DeviceId};
use crate::error::CircuitError;
use crate::net::{Net, NetClass, NetId, Pin};

/// A device-level schematic: the input of structure recognition.
///
/// Nets at this level connect device terminals (gate/drain/source/bulk for MOS
/// devices). The [`crate::recognition`] module groups these devices into the
/// functional blocks of a [`Circuit`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schematic {
    /// Schematic name.
    pub name: String,
    /// Devices in declaration order; `DeviceId(i)` indexes this list.
    pub devices: Vec<Device>,
    /// Device-level nets: net name → list of `(device, terminal)` pairs.
    pub connections: Vec<(String, Vec<(DeviceId, String)>)>,
    /// Input cards the parser ignored, as `(line, reason)` pairs.
    ///
    /// Populated by [`crate::spice::parse_spice`] for dot-directives and
    /// unrecognized card types so that ingestion layers can report what was
    /// dropped instead of silently solving a truncated netlist. Empty for
    /// programmatically built schematics.
    pub skipped: Vec<(usize, String)>,
}

impl Schematic {
    /// Creates an empty schematic.
    pub fn new(name: impl Into<String>) -> Self {
        Schematic {
            name: name.into(),
            devices: Vec::new(),
            connections: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Adds a device and returns its id.
    pub fn add_device(&mut self, mut device: Device) -> DeviceId {
        let id = DeviceId(self.devices.len());
        device.id = id;
        self.devices.push(device);
        id
    }

    /// Adds a device-level net.
    pub fn connect(&mut self, net: impl Into<String>, pins: Vec<(DeviceId, &str)>) {
        self.connections.push((
            net.into(),
            pins.into_iter().map(|(d, t)| (d, t.to_string())).collect(),
        ));
    }

    /// Devices sharing a net with `device` (excluding itself).
    pub fn neighbors(&self, device: DeviceId) -> Vec<DeviceId> {
        let mut out = Vec::new();
        for (_, pins) in &self.connections {
            if pins.iter().any(|(d, _)| *d == device) {
                for (d, _) in pins {
                    if *d != device && !out.contains(d) {
                        out.push(*d);
                    }
                }
            }
        }
        out
    }

    /// Nets attached to a specific terminal of a device.
    pub fn nets_on_terminal(&self, device: DeviceId, terminal: &str) -> Vec<&str> {
        self.connections
            .iter()
            .filter(|(_, pins)| pins.iter().any(|(d, t)| *d == device && t == terminal))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// A block-level circuit: the floorplanner's unit of work.
///
/// `Circuit` owns the functional blocks, the block-level nets and the
/// positional constraints. It corresponds to the graph shown in the paper's
/// Fig. 2 before conversion to the R-GCN input.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// Circuit name, e.g. `"OTA-2"`.
    pub name: String,
    /// Functional blocks; `BlockId(i)` indexes this list.
    pub blocks: Vec<Block>,
    /// Block-level nets.
    pub nets: Vec<Net>,
    /// Positional constraints.
    pub constraints: ConstraintSet,
    /// Optional target aspect ratio `R*` for the fixed-outline term of the
    /// episode reward (paper Eq. 5).
    pub target_aspect_ratio: Option<f64>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            blocks: Vec::new(),
            nets: Vec::new(),
            constraints: ConstraintSet::new(),
            target_aspect_ratio: None,
        }
    }

    /// Starts a [`CircuitBuilder`].
    pub fn builder(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder::new(name)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Total block area in µm².
    pub fn total_block_area(&self) -> f64 {
        self.blocks.iter().map(|b| b.area_um2).sum()
    }

    /// Looks up a block by id.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index())
    }

    /// Looks up a block by name.
    pub fn block_by_name(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Block ids ordered by decreasing area — the placement order heuristic
    /// used by the RL agent (paper §IV-D1, after \[22\]).
    pub fn blocks_by_decreasing_area(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.iter().map(|b| b.id).collect();
        ids.sort_by(|a, b| {
            let aa = self.blocks[a.index()].area_um2;
            let ab = self.blocks[b.index()].area_um2;
            ab.partial_cmp(&aa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        });
        ids
    }

    /// Nets touching the given block.
    pub fn nets_of_block(&self, id: BlockId) -> Vec<&Net> {
        self.nets
            .iter()
            .filter(|n| n.blocks().contains(&id))
            .collect()
    }

    /// Pairs of blocks connected by at least one net, with multiplicity
    /// (the connectivity edges of the circuit graph).
    pub fn connectivity_pairs(&self) -> Vec<(BlockId, BlockId)> {
        let mut pairs = Vec::new();
        for net in &self.nets {
            if net.class.is_supply() {
                // Supply nets connect nearly everything; they would turn the
                // graph into a clique and carry no placement signal.
                continue;
            }
            let blocks = net.blocks();
            for i in 0..blocks.len() {
                for j in (i + 1)..blocks.len() {
                    pairs.push((blocks[i], blocks[j]));
                }
            }
        }
        pairs
    }

    /// Validates the internal consistency of the circuit.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] describing the first problem found: empty
    /// circuit, dangling block references in nets or constraints, degenerate
    /// nets, or a block area or stripe width that is not a positive finite
    /// number.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.blocks.is_empty() {
            return Err(CircuitError::EmptyCircuit);
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        for (i, block) in self.blocks.iter().enumerate() {
            if !(positive(block.area_um2) && positive(block.stripe_width_um)) {
                return Err(CircuitError::InvalidGeometry { block: i });
            }
        }
        for net in &self.nets {
            if net.pins.len() < 2 {
                return Err(CircuitError::DegenerateNet {
                    name: net.name.clone(),
                });
            }
            for pin in &net.pins {
                if pin.block.index() >= self.blocks.len() {
                    return Err(CircuitError::UnknownBlock {
                        block: pin.block.index(),
                    });
                }
            }
        }
        for c in self.constraints.iter() {
            let members = c.members();
            if members.is_empty() {
                return Err(CircuitError::InvalidConstraint {
                    reason: "constraint has no members".into(),
                });
            }
            for m in &members {
                if m.index() >= self.blocks.len() {
                    return Err(CircuitError::UnknownBlock { block: m.index() });
                }
            }
            let mut sorted: Vec<usize> = members.iter().map(|m| m.index()).collect();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != members.len() {
                return Err(CircuitError::InvalidConstraint {
                    reason: "constraint references a block more than once".into(),
                });
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Circuit`].
///
/// # Examples
///
/// ```
/// use afp_circuit::{BlockKind, Circuit, NetClass};
///
/// let circuit = Circuit::builder("example")
///     .block("DP", BlockKind::DifferentialPair, 48.0, 4)
///     .block("CM", BlockKind::CurrentMirror, 32.0, 3)
///     .net("vout", &[("DP", "outp"), ("CM", "d")], NetClass::Signal)
///     .symmetry_v(&[("DP", "DP")])
///     .build()
///     .expect("valid circuit");
/// assert_eq!(circuit.num_blocks(), 2);
/// ```
#[derive(Debug)]
pub struct CircuitBuilder {
    circuit: Circuit,
    names: HashMap<String, BlockId>,
}

impl CircuitBuilder {
    /// Creates a builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            circuit: Circuit::new(name),
            names: HashMap::new(),
        }
    }

    /// Adds a functional block.
    pub fn block(mut self, name: &str, kind: BlockKind, area_um2: f64, pins: u32) -> Self {
        let id = BlockId(self.circuit.blocks.len());
        self.circuit
            .blocks
            .push(Block::new(id, name, kind, area_um2, pins));
        self.names.insert(name.to_string(), id);
        self
    }

    /// Adds a pre-built block (for callers that need full control over the
    /// block's geometry summary).
    pub fn block_full(mut self, block: Block) -> Self {
        let id = BlockId(self.circuit.blocks.len());
        let mut block = block;
        block.id = id;
        self.names.insert(block.name.clone(), id);
        self.circuit.blocks.push(block);
        self
    }

    /// Adds a net given `(block name, terminal)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a block name is unknown; the builder is meant for
    /// programmatic construction where this is a bug, not an input error.
    pub fn net(mut self, name: &str, pins: &[(&str, &str)], class: NetClass) -> Self {
        let id = NetId(self.circuit.nets.len());
        let pins = pins
            .iter()
            .map(|(block, term)| {
                let bid = *self
                    .names
                    .get(*block)
                    .unwrap_or_else(|| panic!("unknown block `{block}` in net `{name}`"));
                Pin::new(bid, *term)
            })
            .collect();
        self.circuit
            .nets
            .push(Net::new(id, name, pins).with_class(class));
        self
    }

    /// Adds a vertical-axis symmetry constraint from `(left, right)` block
    /// name pairs; a pair of identical names marks a self-symmetric block.
    ///
    /// # Panics
    ///
    /// Panics if a block name is unknown.
    pub fn symmetry_v(self, pairs: &[(&str, &str)]) -> Self {
        self.symmetry(crate::constraint::Axis::Vertical, pairs)
    }

    /// Adds a horizontal-axis symmetry constraint (see [`Self::symmetry_v`]).
    pub fn symmetry_h(self, pairs: &[(&str, &str)]) -> Self {
        self.symmetry(crate::constraint::Axis::Horizontal, pairs)
    }

    fn symmetry(mut self, axis: crate::constraint::Axis, pairs: &[(&str, &str)]) -> Self {
        let mut group = crate::constraint::SymmetryGroup::new(axis);
        for (a, b) in pairs {
            let ia = *self
                .names
                .get(*a)
                .unwrap_or_else(|| panic!("unknown block `{a}` in symmetry constraint"));
            let ib = *self
                .names
                .get(*b)
                .unwrap_or_else(|| panic!("unknown block `{b}` in symmetry constraint"));
            if ia == ib {
                group = group.with_self_symmetric(ia);
            } else {
                group = group.with_pair(ia, ib);
            }
        }
        self.circuit.constraints.push(Constraint::Symmetry(group));
        self
    }

    /// Adds an alignment constraint over the named blocks.
    ///
    /// # Panics
    ///
    /// Panics if a block name is unknown.
    pub fn alignment(mut self, axis: crate::constraint::Axis, blocks: &[&str]) -> Self {
        let ids = blocks
            .iter()
            .map(|b| {
                *self
                    .names
                    .get(*b)
                    .unwrap_or_else(|| panic!("unknown block `{b}` in alignment constraint"))
            })
            .collect();
        self.circuit
            .constraints
            .push(Constraint::Alignment(crate::constraint::AlignmentGroup::new(
                axis, ids,
            )));
        self
    }

    /// Sets the target aspect ratio used by the fixed-outline reward term.
    pub fn target_aspect_ratio(mut self, ratio: f64) -> Self {
        self.circuit.target_aspect_ratio = Some(ratio);
        self
    }

    /// Finalizes and validates the circuit.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if [`Circuit::validate`] fails.
    pub fn build(self) -> Result<Circuit, CircuitError> {
        self.circuit.validate()?;
        Ok(self.circuit)
    }

    /// Finalizes the circuit without validation (useful for building known
    /// invalid circuits in tests).
    pub fn build_unchecked(self) -> Circuit {
        self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Axis;

    fn two_block_circuit() -> Circuit {
        Circuit::builder("t")
            .block("A", BlockKind::CurrentMirror, 10.0, 3)
            .block("B", BlockKind::DifferentialPair, 20.0, 4)
            .net("n1", &[("A", "d"), ("B", "s")], NetClass::Signal)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let c = two_block_circuit();
        assert_eq!(c.blocks[0].id, BlockId(0));
        assert_eq!(c.blocks[1].id, BlockId(1));
        assert_eq!(c.nets[0].id, NetId(0));
    }

    #[test]
    fn blocks_by_decreasing_area_sorts() {
        let c = two_block_circuit();
        assert_eq!(c.blocks_by_decreasing_area(), vec![BlockId(1), BlockId(0)]);
        assert_eq!(c.total_block_area(), 30.0);
    }

    #[test]
    fn validate_rejects_empty_circuit() {
        let c = Circuit::new("empty");
        assert_eq!(c.validate(), Err(CircuitError::EmptyCircuit));
    }

    #[test]
    fn validate_rejects_non_finite_or_non_positive_geometry() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let mut area = two_block_circuit();
            area.blocks[1].area_um2 = bad;
            assert_eq!(
                area.validate(),
                Err(CircuitError::InvalidGeometry { block: 1 })
            );
            let mut stripe = two_block_circuit();
            stripe.blocks[0].stripe_width_um = bad;
            assert_eq!(
                stripe.validate(),
                Err(CircuitError::InvalidGeometry { block: 0 })
            );
        }
    }

    #[test]
    fn validate_rejects_degenerate_net() {
        let c = Circuit::builder("bad")
            .block("A", BlockKind::CurrentMirror, 10.0, 3)
            .net("n", &[("A", "d")], NetClass::Signal)
            .build_unchecked();
        assert!(matches!(
            c.validate(),
            Err(CircuitError::DegenerateNet { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_constraint_member() {
        let mut c = two_block_circuit();
        c.constraints.push(Constraint::Alignment(
            crate::constraint::AlignmentGroup::new(Axis::Horizontal, vec![BlockId(0), BlockId(0)]),
        ));
        assert!(matches!(
            c.validate(),
            Err(CircuitError::InvalidConstraint { .. })
        ));
    }

    #[test]
    fn symmetry_with_same_name_is_self_symmetric() {
        let c = Circuit::builder("s")
            .block("DP", BlockKind::DifferentialPair, 10.0, 4)
            .block("CM", BlockKind::CurrentMirror, 8.0, 3)
            .net("n", &[("DP", "o"), ("CM", "d")], NetClass::Signal)
            .symmetry_v(&[("CM", "CM")])
            .build()
            .unwrap();
        let c0 = c.constraints.iter().next().unwrap();
        match c0 {
            Constraint::Symmetry(g) => {
                assert!(g.pairs.is_empty());
                assert_eq!(g.self_symmetric, vec![BlockId(1)]);
            }
            _ => panic!("expected symmetry"),
        }
    }

    #[test]
    fn connectivity_pairs_skips_supplies() {
        let c = Circuit::builder("t")
            .block("A", BlockKind::CurrentMirror, 10.0, 3)
            .block("B", BlockKind::DifferentialPair, 20.0, 4)
            .net("sig", &[("A", "d"), ("B", "s")], NetClass::Signal)
            .net("vdd", &[("A", "vdd"), ("B", "vdd")], NetClass::Power)
            .build()
            .unwrap();
        assert_eq!(c.connectivity_pairs().len(), 1);
    }

    #[test]
    fn schematic_neighbors() {
        let mut s = Schematic::new("sch");
        let d0 = s.add_device(Device::new(
            DeviceId(0),
            "N1",
            crate::device::DeviceKind::Nmos,
            4.0,
            0.5,
            1,
        ));
        let d1 = s.add_device(Device::new(
            DeviceId(0),
            "N2",
            crate::device::DeviceKind::Nmos,
            4.0,
            0.5,
            1,
        ));
        let d2 = s.add_device(Device::new(
            DeviceId(0),
            "P1",
            crate::device::DeviceKind::Pmos,
            8.0,
            0.5,
            1,
        ));
        s.connect("net1", vec![(d0, "d"), (d1, "g")]);
        s.connect("net2", vec![(d1, "d"), (d2, "d")]);
        assert_eq!(s.neighbors(d0), vec![d1]);
        assert_eq!(s.neighbors(d1), vec![d0, d2]);
        assert_eq!(s.nets_on_terminal(d1, "g"), vec!["net1"]);
    }

    #[test]
    fn lookup_by_name() {
        let c = two_block_circuit();
        assert!(c.block_by_name("A").is_some());
        assert!(c.block_by_name("Z").is_none());
        assert_eq!(c.nets_of_block(BlockId(0)).len(), 1);
    }
}
