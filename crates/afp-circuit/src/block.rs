//! Functional blocks: the placeable units of analog floorplanning.
//!
//! The structure-recognition step (paper §IV-B, [21]) groups primitive devices
//! into functional structures — current mirrors, differential pairs, cascodes,
//! and so on. Each block carries the information the R-GCN node features need
//! (paper §IV-C): area, internal stripe width, terminal routing direction, pin
//! count and a 28-way one-hot functional-structure encoding.

use crate::device::DeviceId;

/// Identifier of a functional block within a [`crate::Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The functional structure implemented by a block.
///
/// The paper encodes the structure as a 28-dimensional one-hot vector; the
/// variants below cover the structures named in the paper plus the common
/// analog idioms needed to reach 28 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Simple current mirror.
    CurrentMirror,
    /// Cascoded current mirror.
    CascodeCurrentMirror,
    /// Wide-swing current mirror.
    WideSwingCurrentMirror,
    /// Differential pair.
    DifferentialPair,
    /// Cross-coupled differential pair.
    CrossCoupledPair,
    /// Cascode stage.
    Cascode,
    /// Folded cascode stage.
    FoldedCascode,
    /// Single common-source amplifier device.
    CommonSource,
    /// Common-gate stage.
    CommonGate,
    /// Common-drain (source follower) stage.
    CommonDrain,
    /// Push-pull / class-AB output stage.
    OutputStage,
    /// Tail / bias current source.
    CurrentSource,
    /// Bias voltage generator (diode-connected stack).
    BiasGenerator,
    /// Bandgap core.
    BandgapCore,
    /// Start-up circuit.
    StartUp,
    /// Level shifter.
    LevelShifter,
    /// Power (low-side / high-side) driver device.
    PowerDriver,
    /// Pre-driver / gate-driver buffer.
    PreDriver,
    /// Digital inverter or buffer.
    Inverter,
    /// NAND / NOR logic gate.
    LogicGate,
    /// Set-reset latch core.
    LatchCore,
    /// Comparator input stage.
    ComparatorInput,
    /// Regenerative / latch comparator stage.
    RegenerativeStage,
    /// Switch (transmission gate or single pass device).
    Switch,
    /// Resistor or resistor string.
    ResistorBank,
    /// Capacitor or capacitor array.
    CapacitorBank,
    /// Decoupling / compensation capacitor.
    CompensationCap,
    /// Anything the recognizer could not classify.
    Unclassified,
}

impl BlockKind {
    /// All block kinds, in the stable order used by the one-hot encoding.
    pub const ALL: [BlockKind; 28] = [
        BlockKind::CurrentMirror,
        BlockKind::CascodeCurrentMirror,
        BlockKind::WideSwingCurrentMirror,
        BlockKind::DifferentialPair,
        BlockKind::CrossCoupledPair,
        BlockKind::Cascode,
        BlockKind::FoldedCascode,
        BlockKind::CommonSource,
        BlockKind::CommonGate,
        BlockKind::CommonDrain,
        BlockKind::OutputStage,
        BlockKind::CurrentSource,
        BlockKind::BiasGenerator,
        BlockKind::BandgapCore,
        BlockKind::StartUp,
        BlockKind::LevelShifter,
        BlockKind::PowerDriver,
        BlockKind::PreDriver,
        BlockKind::Inverter,
        BlockKind::LogicGate,
        BlockKind::LatchCore,
        BlockKind::ComparatorInput,
        BlockKind::RegenerativeStage,
        BlockKind::Switch,
        BlockKind::ResistorBank,
        BlockKind::CapacitorBank,
        BlockKind::CompensationCap,
        BlockKind::Unclassified,
    ];

    /// Number of distinct block kinds (the one-hot width used by the R-GCN).
    pub const COUNT: usize = 28;

    /// Index of this kind within [`BlockKind::ALL`].
    pub fn index(self) -> usize {
        BlockKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind is a member of ALL")
    }

    /// One-hot encoding of the functional structure.
    pub fn one_hot(self) -> Vec<f32> {
        let mut v = vec![0.0; BlockKind::COUNT];
        v[self.index()] = 1.0;
        v
    }

    /// Returns `true` for structures whose matched halves are usually placed
    /// symmetrically (and therefore attract symmetry constraints).
    pub fn is_symmetric_structure(self) -> bool {
        matches!(
            self,
            BlockKind::DifferentialPair
                | BlockKind::CrossCoupledPair
                | BlockKind::ComparatorInput
                | BlockKind::RegenerativeStage
                | BlockKind::LatchCore
        )
    }
}

/// Preferred direction for a block's terminal routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingDirection {
    /// Terminals exit horizontally (left/right edges).
    Horizontal,
    /// Terminals exit vertically (top/bottom edges).
    Vertical,
    /// No preference.
    Any,
}

/// The internal device-placement style of a multi-device block (paper §IV-B:
/// "internal routing and device placement (CC, Interdigitated)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InternalPlacement {
    /// Common-centroid placement of matched devices.
    CommonCentroid,
    /// Interdigitated fingers of matched devices.
    Interdigitated,
    /// A single row of devices.
    Row,
    /// A single device, no internal arrangement.
    Single,
}

/// A placeable functional block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Identifier within the parent circuit.
    pub id: BlockId,
    /// Instance name, e.g. `"DP"` or `"CM_LOAD"`.
    pub name: String,
    /// Recognized functional structure.
    pub kind: BlockKind,
    /// Devices grouped into this block (may be empty for pre-abstracted
    /// circuits where device-level data is unavailable).
    pub devices: Vec<DeviceId>,
    /// Total active area of the block in µm²; the shape generator keeps this
    /// constant across candidate shapes.
    pub area_um2: f64,
    /// Width of a single transistor / resistor stripe inside the block, µm.
    pub stripe_width_um: f64,
    /// Preferred terminal routing direction.
    pub routing_direction: RoutingDirection,
    /// Number of external pins.
    pub pin_count: u32,
    /// Internal placement style.
    pub internal_placement: InternalPlacement,
}

impl Block {
    /// Creates a block with the given geometry summary.
    pub fn new(
        id: BlockId,
        name: impl Into<String>,
        kind: BlockKind,
        area_um2: f64,
        pin_count: u32,
    ) -> Self {
        Block {
            id,
            name: name.into(),
            kind,
            devices: Vec::new(),
            area_um2,
            stripe_width_um: area_um2.sqrt().max(0.1),
            routing_direction: RoutingDirection::Any,
            pin_count,
            internal_placement: if kind.is_symmetric_structure() {
                InternalPlacement::CommonCentroid
            } else {
                InternalPlacement::Row
            },
        }
    }

    /// Sets the stripe width (builder-style).
    pub fn with_stripe_width(mut self, stripe_width_um: f64) -> Self {
        self.stripe_width_um = stripe_width_um;
        self
    }

    /// Sets the routing direction (builder-style).
    pub fn with_routing_direction(mut self, dir: RoutingDirection) -> Self {
        self.routing_direction = dir;
        self
    }

    /// Sets the internal placement style (builder-style).
    pub fn with_internal_placement(mut self, style: InternalPlacement) -> Self {
        self.internal_placement = style;
        self
    }

    /// Attaches the devices grouped into this block (builder-style).
    pub fn with_devices(mut self, devices: Vec<DeviceId>) -> Self {
        self.devices = devices;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_has_single_one() {
        for kind in BlockKind::ALL {
            let v = kind.one_hot();
            assert_eq!(v.len(), BlockKind::COUNT);
            assert_eq!(v.iter().filter(|&&x| x == 1.0).count(), 1);
            assert_eq!(v[kind.index()], 1.0);
        }
    }

    #[test]
    fn all_kinds_are_distinct() {
        for (i, a) in BlockKind::ALL.iter().enumerate() {
            for (j, b) in BlockKind::ALL.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn count_matches_paper_one_hot_width() {
        assert_eq!(BlockKind::COUNT, 28);
        assert_eq!(BlockKind::ALL.len(), 28);
    }

    #[test]
    fn symmetric_structures_default_to_common_centroid() {
        let dp = Block::new(BlockId(0), "DP", BlockKind::DifferentialPair, 40.0, 3);
        assert_eq!(dp.internal_placement, InternalPlacement::CommonCentroid);
        let cs = Block::new(BlockId(1), "M1", BlockKind::CommonSource, 10.0, 3);
        assert_eq!(cs.internal_placement, InternalPlacement::Row);
    }

    #[test]
    fn builder_methods_apply() {
        let b = Block::new(BlockId(0), "CM", BlockKind::CurrentMirror, 25.0, 3)
            .with_stripe_width(2.5)
            .with_routing_direction(RoutingDirection::Vertical)
            .with_devices(vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(b.stripe_width_um, 2.5);
        assert_eq!(b.routing_direction, RoutingDirection::Vertical);
        assert_eq!(b.devices.len(), 2);
    }
}
