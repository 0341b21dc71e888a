//! The joint shape × position action space of the floorplanning MDP.

use afp_circuit::SHAPES_PER_BLOCK;
use afp_layout::{Cell, GRID_SIZE};

/// Size of the flat action space: 3 shapes × 32 × 32 cells = 3072
/// (paper §IV-D1).
pub const ACTION_SPACE: usize = SHAPES_PER_BLOCK * GRID_SIZE * GRID_SIZE;

/// One placement action: a candidate shape and the lower-left grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// Index of the chosen candidate shape (0–2).
    pub shape_index: usize,
    /// Lower-left grid cell of the placement.
    pub cell: Cell,
}

impl Action {
    /// Creates an action.
    pub fn new(shape_index: usize, cell: Cell) -> Self {
        Action { shape_index, cell }
    }

    /// Flattens the action into an index in `[0, ACTION_SPACE)`, laid out as
    /// `shape * 32 * 32 + y * 32 + x` — the same channel-major layout the
    /// deconvolutional policy head produces.
    pub fn to_index(self) -> usize {
        (self.shape_index * GRID_SIZE + self.cell.y) * GRID_SIZE + self.cell.x
    }

    /// Decodes a flat action index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ACTION_SPACE`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < ACTION_SPACE, "action index {index} out of range");
        let shape_index = index / (GRID_SIZE * GRID_SIZE);
        let cell = Cell::new(index % GRID_SIZE, index / GRID_SIZE % GRID_SIZE);
        Action { shape_index, cell }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_space_is_3072() {
        assert_eq!(ACTION_SPACE, 3072);
    }

    #[test]
    fn index_roundtrip() {
        for &idx in &[0usize, 1, 1023, 1024, 2047, 3071] {
            assert_eq!(Action::from_index(idx).to_index(), idx);
        }
        let a = Action::new(2, Cell::new(5, 7));
        assert_eq!(Action::from_index(a.to_index()), a);
        // Channel-major, row-major within a channel.
        assert_eq!(Action::new(1, Cell::new(3, 2)).to_index(), 1024 + 2 * 32 + 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = Action::from_index(ACTION_SPACE);
    }
}
