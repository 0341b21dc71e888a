//! Multi-shape block configuration.
//!
//! Following the paper's §IV-B, each functional block is offered to the RL
//! agent in **three candidate shapes** of identical area: the internal device
//! placement (common-centroid, interdigitated, row) is re-arranged while the
//! total device width — and hence the active area — stays fixed. The agent's
//! action space is therefore `3 × 32 × 32` (shape × grid cell, §IV-D1).

use crate::block::{Block, InternalPlacement};

/// Number of candidate shapes offered per block (fixed by the action space).
pub const SHAPES_PER_BLOCK: usize = 3;

/// A rectangular realization of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Width in µm.
    pub width_um: f64,
    /// Height in µm.
    pub height_um: f64,
}

impl Shape {
    /// Creates a shape.
    pub fn new(width_um: f64, height_um: f64) -> Self {
        Shape {
            width_um,
            height_um,
        }
    }

    /// Builds the shape of the given area with the given width/height aspect
    /// ratio (`aspect = width / height`).
    pub fn from_area_and_aspect(area_um2: f64, aspect: f64) -> Self {
        let height = (area_um2 / aspect.max(1e-9)).sqrt();
        let width = area_um2 / height.max(1e-9);
        Shape {
            width_um: width,
            height_um: height,
        }
    }

    /// Area in µm².
    pub fn area_um2(&self) -> f64 {
        self.width_um * self.height_um
    }

    /// Aspect ratio `width / height`.
    pub fn aspect(&self) -> f64 {
        self.width_um / self.height_um.max(1e-12)
    }

    /// The shape rotated by 90°.
    pub fn rotated(&self) -> Shape {
        Shape {
            width_um: self.height_um,
            height_um: self.width_um,
        }
    }
}

/// The three candidate shapes of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeSet {
    shapes: [Shape; SHAPES_PER_BLOCK],
}

impl ShapeSet {
    /// Builds the candidate shapes of a block.
    ///
    /// The aspect-ratio palette depends on the internal placement style:
    /// common-centroid structures stay close to square (they need balanced
    /// rows/columns of matched units), interdigitated structures prefer wide
    /// and flat outlines (a single row of alternating fingers), and plain rows
    /// or single devices span the widest range.
    pub fn for_block(block: &Block) -> Self {
        let aspects: [f64; SHAPES_PER_BLOCK] = match block.internal_placement {
            InternalPlacement::CommonCentroid => [0.7, 1.0, 1.45],
            InternalPlacement::Interdigitated => [1.0, 2.0, 3.5],
            InternalPlacement::Row => [0.5, 1.0, 2.0],
            InternalPlacement::Single => [0.4, 1.0, 2.5],
        };
        let shapes = [
            Shape::from_area_and_aspect(block.area_um2, aspects[0]),
            Shape::from_area_and_aspect(block.area_um2, aspects[1]),
            Shape::from_area_and_aspect(block.area_um2, aspects[2]),
        ];
        ShapeSet { shapes }
    }

    /// Builds a shape set from explicit shapes.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not contain exactly [`SHAPES_PER_BLOCK`] shapes.
    pub fn from_shapes(shapes: &[Shape]) -> Self {
        assert_eq!(shapes.len(), SHAPES_PER_BLOCK, "exactly three shapes required");
        ShapeSet {
            shapes: [shapes[0], shapes[1], shapes[2]],
        }
    }

    /// The candidate shapes.
    pub fn shapes(&self) -> &[Shape; SHAPES_PER_BLOCK] {
        &self.shapes
    }

    /// The shape at the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= SHAPES_PER_BLOCK`.
    pub fn shape(&self, index: usize) -> Shape {
        self.shapes[index]
    }

    /// Index of the candidate closest to a square outline.
    pub fn most_square(&self) -> usize {
        let mut best = 0;
        let mut best_err = f64::MAX;
        for (i, s) in self.shapes.iter().enumerate() {
            let err = (s.aspect().ln()).abs();
            if err < best_err {
                best_err = err;
                best = i;
            }
        }
        best
    }
}

/// Builds the shape sets of every block in a circuit, in block order.
pub fn shape_sets(circuit: &crate::Circuit) -> Vec<ShapeSet> {
    circuit.blocks.iter().map(ShapeSet::for_block).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockId, BlockKind};

    fn block(style: InternalPlacement) -> Block {
        Block::new(BlockId(0), "b", BlockKind::CurrentMirror, 48.0, 3)
            .with_internal_placement(style)
    }

    #[test]
    fn shapes_preserve_area() {
        for style in [
            InternalPlacement::CommonCentroid,
            InternalPlacement::Interdigitated,
            InternalPlacement::Row,
            InternalPlacement::Single,
        ] {
            let set = ShapeSet::for_block(&block(style));
            for s in set.shapes() {
                assert!(
                    (s.area_um2() - 48.0).abs() < 1e-6,
                    "{style:?} produced area {}",
                    s.area_um2()
                );
            }
        }
    }

    #[test]
    fn three_distinct_aspects() {
        let set = ShapeSet::for_block(&block(InternalPlacement::Row));
        let a: Vec<f64> = set.shapes().iter().map(|s| s.aspect()).collect();
        assert!(a[0] < a[1] && a[1] < a[2]);
    }

    #[test]
    fn from_area_and_aspect_consistent() {
        let s = Shape::from_area_and_aspect(100.0, 4.0);
        assert!((s.area_um2() - 100.0).abs() < 1e-9);
        assert!((s.aspect() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_swaps_dimensions() {
        let s = Shape::new(4.0, 2.0);
        let r = s.rotated();
        assert_eq!(r.width_um, 2.0);
        assert_eq!(r.height_um, 4.0);
    }

    #[test]
    fn most_square_picks_unit_aspect() {
        let set = ShapeSet::from_shapes(&[
            Shape::from_area_and_aspect(10.0, 0.2),
            Shape::from_area_and_aspect(10.0, 1.0),
            Shape::from_area_and_aspect(10.0, 5.0),
        ]);
        assert_eq!(set.most_square(), 1);
    }

    #[test]
    fn shape_sets_covers_all_blocks() {
        let c = crate::Circuit::builder("t")
            .block("A", BlockKind::CurrentMirror, 10.0, 3)
            .block("B", BlockKind::DifferentialPair, 20.0, 4)
            .net("n", &[("A", "d"), ("B", "s")], crate::NetClass::Signal)
            .build()
            .unwrap();
        assert_eq!(shape_sets(&c).len(), 2);
    }
}
