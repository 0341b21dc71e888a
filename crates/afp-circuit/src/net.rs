//! Nets: electrical connections between block pins.

use crate::block::BlockId;

/// Identifier of a net within a [`crate::Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The class of a net; supply nets are left out of the circuit graph's
/// connectivity edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Ordinary signal net.
    Signal,
    /// Sensitive analog net (e.g. differential signals, high-impedance nodes).
    Critical,
    /// Power supply (VDD).
    Power,
    /// Ground (VSS).
    Ground,
    /// Bias distribution net.
    Bias,
    /// Clock net.
    Clock,
}

impl NetClass {
    /// Returns `true` for power/ground distribution nets.
    pub fn is_supply(self) -> bool {
        matches!(self, NetClass::Power | NetClass::Ground)
    }
}

/// A pin of a net: the block it lands on plus a terminal label.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pin {
    /// The block the pin belongs to.
    pub block: BlockId,
    /// Terminal name on that block, e.g. `"out"`, `"gate"`, `"d"`.
    pub terminal: String,
}

impl Pin {
    /// Creates a pin.
    pub fn new(block: BlockId, terminal: impl Into<String>) -> Self {
        Pin {
            block,
            terminal: terminal.into(),
        }
    }
}

/// A net connecting two or more pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Identifier within the parent circuit.
    pub id: NetId,
    /// Net name, e.g. `"vout"`, `"vdd"`.
    pub name: String,
    /// Net class.
    pub class: NetClass,
    /// Pins connected by this net.
    pub pins: Vec<Pin>,
}

impl Net {
    /// Creates a signal net.
    pub fn new(id: NetId, name: impl Into<String>, pins: Vec<Pin>) -> Self {
        Net {
            id,
            name: name.into(),
            class: NetClass::Signal,
            pins,
        }
    }

    /// Sets the net class (builder-style).
    pub fn with_class(mut self, class: NetClass) -> Self {
        self.class = class;
        self
    }

    /// The distinct blocks touched by this net, in first-appearance order.
    pub fn blocks(&self) -> Vec<BlockId> {
        let mut seen = Vec::new();
        for pin in &self.pins {
            if !seen.contains(&pin.block) {
                seen.push(pin.block);
            }
        }
        seen
    }

    /// Number of pins.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_deduplicates() {
        let net = Net::new(
            NetId(0),
            "n1",
            vec![
                Pin::new(BlockId(0), "d"),
                Pin::new(BlockId(1), "g"),
                Pin::new(BlockId(0), "s"),
            ],
        );
        assert_eq!(net.blocks(), vec![BlockId(0), BlockId(1)]);
        assert_eq!(net.degree(), 3);
    }

    #[test]
    fn supply_detection() {
        assert!(NetClass::Power.is_supply());
        assert!(NetClass::Ground.is_supply());
        assert!(!NetClass::Bias.is_supply());
    }

    #[test]
    fn with_class_sets_the_class() {
        let net = Net::new(NetId(0), "vdd", vec![]).with_class(NetClass::Power);
        assert_eq!(net.class, NetClass::Power);
    }
}
