//! Error types for circuit construction and validation.

use std::fmt;

/// Errors raised while building or validating a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A referenced block id does not exist in the circuit.
    UnknownBlock {
        /// The offending block index.
        block: usize,
    },
    /// A referenced device id does not exist in the circuit.
    UnknownDevice {
        /// The offending device index.
        device: usize,
    },
    /// A net references fewer than two pins and therefore cannot be routed.
    DegenerateNet {
        /// Name of the offending net.
        name: String,
    },
    /// A constraint references a block more than once or is otherwise empty.
    InvalidConstraint {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A block's area or stripe width is not a positive finite number, so
    /// the block has no shapes to place.
    InvalidGeometry {
        /// The offending block index.
        block: usize,
    },
    /// A circuit with no blocks cannot be floorplanned.
    EmptyCircuit,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownBlock { block } => write!(f, "unknown block id {block}"),
            CircuitError::UnknownDevice { device } => write!(f, "unknown device id {device}"),
            CircuitError::DegenerateNet { name } => {
                write!(f, "net `{name}` has fewer than two pins")
            }
            CircuitError::InvalidConstraint { reason } => {
                write!(f, "invalid constraint: {reason}")
            }
            CircuitError::InvalidGeometry { block } => write!(
                f,
                "block {block} has a non-finite or non-positive area or stripe width"
            ),
            CircuitError::EmptyCircuit => write!(f, "circuit has no blocks"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_ids() {
        assert!(CircuitError::UnknownBlock { block: 7 }.to_string().contains('7'));
        assert!(CircuitError::DegenerateNet {
            name: "vout".into()
        }
        .to_string()
        .contains("vout"));
        assert!(CircuitError::EmptyCircuit.to_string().contains("no blocks"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CircuitError::EmptyCircuit, CircuitError::EmptyCircuit);
        assert_ne!(
            CircuitError::UnknownBlock { block: 1 },
            CircuitError::UnknownBlock { block: 2 }
        );
    }
}
