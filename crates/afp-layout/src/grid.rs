//! The discretized placement canvas.
//!
//! The paper discretizes the layout space into a fixed 32×32 grid
//! (§IV-D1): the canvas side is derived from the total block area and the
//! maximum admissible floorplan aspect ratio `R_max = 11`, so that any
//! reasonable placement of the circuit — including elongated ones — fits on
//! the grid. Real block dimensions are mapped to grid cells with a ceiling so
//! blocks are never under-approximated
//! ([`Floorplan::grid_footprint`](crate::Floorplan::grid_footprint), at the
//! floorplan's own grid side).

use afp_circuit::Circuit;

/// Number of cells along each side of the placement grid (`32` in the paper).
pub const GRID_SIZE: usize = 32;

/// Maximum admissible floorplan aspect ratio used to size the canvas
/// (`R_max = 11` in the paper, empirically derived).
pub const DEFAULT_MAX_ASPECT_RATIO: f64 = 11.0;

/// A cell coordinate on the placement grid (column `x`, row `y`), with the
/// origin at the lower-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Column index, `0 ≤ x <` the floorplan's grid side.
    pub x: usize,
    /// Row index, `0 ≤ y <` the floorplan's grid side.
    pub y: usize,
}

impl Cell {
    /// Creates a cell coordinate.
    pub fn new(x: usize, y: usize) -> Self {
        Cell { x, y }
    }
}

/// The continuous canvas underlying the placement grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Canvas {
    /// Canvas width in µm.
    pub width_um: f64,
    /// Canvas height in µm.
    pub height_um: f64,
}

impl Canvas {
    /// Builds a square canvas sized for the given circuit: the side is
    /// `sqrt(Σ Aᵢ · r_max)` so that even a floorplan stretched to the maximum
    /// admissible aspect ratio fits inside (paper §IV-D1 with `r_max = 11`).
    pub fn for_circuit(circuit: &Circuit) -> Self {
        Canvas::for_circuit_with_ratio(circuit, DEFAULT_MAX_ASPECT_RATIO)
    }

    /// Builds a square canvas with an explicit maximum aspect ratio.
    pub fn for_circuit_with_ratio(circuit: &Circuit, max_aspect_ratio: f64) -> Self {
        let total_area: f64 = circuit.total_block_area();
        let side = (total_area * max_aspect_ratio.max(1.0)).sqrt().max(1e-6);
        Canvas {
            width_um: side,
            height_um: side,
        }
    }

    /// Builds a canvas with explicit dimensions.
    pub fn new(width_um: f64, height_um: f64) -> Self {
        Canvas {
            width_um,
            height_um,
        }
    }

    /// Total canvas area in µm².
    pub fn area_um2(&self) -> f64 {
        self.width_um * self.height_um
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn canvas_fits_total_area_with_margin() {
        let c = generators::ota8();
        let canvas = Canvas::for_circuit(&c);
        assert!(canvas.area_um2() >= c.total_block_area() * DEFAULT_MAX_ASPECT_RATIO * 0.999);
        assert_eq!(canvas.width_um, canvas.height_um);
    }

    #[test]
    fn larger_circuits_get_larger_canvases() {
        let small = Canvas::for_circuit(&generators::ota3());
        let big = Canvas::for_circuit(&generators::driver());
        assert!(big.width_um > small.width_um);
    }
}
