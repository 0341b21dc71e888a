//! Incremental floorplan state: which block sits where, on the grid and in µm.

use afp_circuit::{BlockId, Shape};

use crate::bitgrid::{BitGrid, OccupyError};
use crate::grid::{Canvas, Cell, GRID_SIZE};
use crate::rect::Rect;

/// Errors returned when a placement action cannot be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The block footprint would extend past the grid boundary.
    OutOfBounds,
    /// The block footprint would overlap an already placed block.
    Overlap,
    /// The block has already been placed in this floorplan.
    AlreadyPlaced,
}

impl From<OccupyError> for PlaceError {
    fn from(e: OccupyError) -> Self {
        match e {
            OccupyError::OutOfBounds => PlaceError::OutOfBounds,
            OccupyError::Overlap => PlaceError::Overlap,
        }
    }
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::OutOfBounds => write!(f, "placement extends past the grid boundary"),
            PlaceError::Overlap => write!(f, "placement overlaps an existing block"),
            PlaceError::AlreadyPlaced => write!(f, "block is already placed"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A block that has been placed on the floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedBlock {
    /// The placed block.
    pub block: BlockId,
    /// Index of the chosen candidate shape (0–2).
    pub shape_index: usize,
    /// The chosen shape in µm.
    pub shape: Shape,
    /// Lower-left grid cell of the placement.
    pub cell: Cell,
    /// Footprint width in grid cells.
    pub grid_w: usize,
    /// Footprint height in grid cells.
    pub grid_h: usize,
    /// Real (non-quantized) rectangle occupied by the block, in µm, anchored
    /// at the lower-left corner of `cell`.
    pub rect: Rect,
}

/// Sentinel in the block → placement-slot index meaning "not placed".
const UNPLACED: u32 = u32::MAX;

/// The evolving floorplan of one episode: grid occupancy plus the real-valued
/// rectangles of every placed block.
///
/// Occupancy is a [`BitGrid`] (`u64` row words), so footprint probes,
/// placement and the free-anchor maps behind the snap search and the RL
/// positional masks are word-level bit operations. The grid defaults to the
/// paper's `GRID_SIZE × GRID_SIZE` discretization; [`Floorplan::with_grid_side`]
/// instantiates a finer grid (up to 64 cells per side) over the same canvas
/// for circuits with more than 64 blocks.
/// Per-block lookup ([`Floorplan::is_placed`], [`Floorplan::find`]) is O(1)
/// through a block-index → placement-slot table instead of a linear scan.
#[derive(Debug, Clone)]
pub struct Floorplan {
    canvas: Canvas,
    /// Cell dimensions of `canvas`, cached so the placement hot path does
    /// not re-divide per block (bit-identical: same operands, one division).
    cell_w_um: f64,
    cell_h_um: f64,
    grid: BitGrid,
    placed: Vec<PlacedBlock>,
    /// `slot[block.index()]` is the index into `placed`, or [`UNPLACED`].
    /// Grown on demand; trailing entries may be missing for never-seen ids.
    /// Fully derivable from `placed` (and ignored by `PartialEq`).
    slot: Vec<u32>,
}

/// Equality ignores the capacity/length of the lazily grown slot table — two
/// floorplans are equal iff canvas, occupancy and placement history agree.
impl PartialEq for Floorplan {
    fn eq(&self, other: &Self) -> bool {
        self.canvas == other.canvas && self.grid == other.grid && self.placed == other.placed
    }
}

impl Floorplan {
    /// Creates an empty floorplan over the given canvas, on the paper's
    /// default `GRID_SIZE × GRID_SIZE` grid.
    pub fn new(canvas: Canvas) -> Self {
        Floorplan::with_grid_side(canvas, GRID_SIZE)
    }

    /// Creates an empty floorplan over the given canvas on a `side × side`
    /// grid: each cell is `canvas / side` µm. Larger sides keep per-cell
    /// resolution sane for circuits whose block count would otherwise
    /// saturate the 32×32 discretization.
    ///
    /// # Panics
    ///
    /// Panics if `side` is zero or exceeds
    /// [`MAX_GRID_SIDE`](crate::bitgrid::MAX_GRID_SIDE)` = 64`: each grid row
    /// is one `u64` word.
    pub fn with_grid_side(canvas: Canvas, side: usize) -> Self {
        Floorplan {
            canvas,
            cell_w_um: canvas.width_um / side as f64,
            cell_h_um: canvas.height_um / side as f64,
            grid: BitGrid::with_size(side, side),
            placed: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// Cells per grid side for this floorplan (`GRID_SIZE` by default).
    pub fn grid_side(&self) -> usize {
        self.grid.width()
    }

    /// The underlying canvas.
    pub fn canvas(&self) -> &Canvas {
        &self.canvas
    }

    /// The blocks placed so far, in placement order.
    pub fn placed(&self) -> &[PlacedBlock] {
        &self.placed
    }

    /// Number of placed blocks.
    pub fn num_placed(&self) -> usize {
        self.placed.len()
    }

    /// Returns `true` if the given block has been placed. O(1).
    pub fn is_placed(&self, block: BlockId) -> bool {
        self.slot
            .get(block.index())
            .is_some_and(|&s| s != UNPLACED)
    }

    /// The placement record of a block, if placed. O(1).
    pub fn find(&self, block: BlockId) -> Option<&PlacedBlock> {
        match self.slot.get(block.index()) {
            Some(&s) if s != UNPLACED => self.placed.get(s as usize),
            _ => None,
        }
    }

    /// The occupancy bitboard: `u64` row words, bottom row first.
    pub fn grid(&self) -> &BitGrid {
        &self.grid
    }

    /// The grid footprint of a shape on this floorplan's canvas: the paper's
    /// ceiling mapping `w_g = ⌈w · side / W⌉`, `h_g = ⌈h · side / H⌉` (side 32
    /// in the paper), so real dimensions are never under-approximated,
    /// clamped to the grid so degenerate inputs stay representable.
    pub fn grid_footprint(&self, shape: &Shape) -> (usize, usize) {
        let (w, h) = (self.grid.width(), self.grid.height());
        let wg = (shape.width_um * w as f64 / self.canvas.width_um).ceil() as usize;
        let hg = (shape.height_um * h as f64 / self.canvas.height_um).ceil() as usize;
        (wg.clamp(1, w), hg.clamp(1, h))
    }

    /// Returns `true` if a footprint of `grid_w × grid_h` cells anchored at
    /// `cell` stays on the grid and does not overlap occupied cells.
    pub fn fits(&self, cell: Cell, grid_w: usize, grid_h: usize) -> bool {
        self.grid.fits(cell, grid_w, grid_h)
    }

    /// Places a block with the given shape at the given lower-left cell.
    ///
    /// Bounds, overlap and the occupancy update share a single pass over the
    /// footprint's row masks ([`BitGrid::try_occupy`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] if the block is already placed, the footprint
    /// leaves the grid, or it overlaps an existing block.
    pub fn place(
        &mut self,
        block: BlockId,
        shape_index: usize,
        shape: Shape,
        cell: Cell,
    ) -> Result<(), PlaceError> {
        let (grid_w, grid_h) = self.grid_footprint(&shape);
        self.place_prefit(block, shape_index, shape, cell, grid_w, grid_h)
    }

    /// [`Floorplan::place`] with the grid footprint already computed by the
    /// caller — the snap loop of
    /// [`realize_floorplan`](crate::sequence_pair::realize_floorplan) derives
    /// it for the nearest-fit search and must not re-derive it (two divides +
    /// ceils per block). `grid_w`/`grid_h` must equal
    /// `self.grid_footprint(&shape)`.
    pub(crate) fn place_prefit(
        &mut self,
        block: BlockId,
        shape_index: usize,
        shape: Shape,
        cell: Cell,
        grid_w: usize,
        grid_h: usize,
    ) -> Result<(), PlaceError> {
        debug_assert_eq!((grid_w, grid_h), self.grid_footprint(&shape));
        if self.is_placed(block) {
            return Err(PlaceError::AlreadyPlaced);
        }
        self.grid.try_occupy(cell, grid_w, grid_h)?;
        if block.index() >= self.slot.len() {
            self.slot.resize(block.index() + 1, UNPLACED);
        }
        self.slot[block.index()] = self.placed.len() as u32;
        let (x_um, y_um) = (cell.x as f64 * self.cell_w_um, cell.y as f64 * self.cell_h_um);
        self.placed.push(PlacedBlock {
            block,
            shape_index,
            shape,
            cell,
            grid_w,
            grid_h,
            rect: Rect::from_origin_size(x_um, y_um, shape.width_um, shape.height_um),
        });
        Ok(())
    }

    /// Removes the most recently placed block and returns its record.
    /// Used by mask construction to evaluate hypothetical placements cheaply.
    pub fn unplace_last(&mut self) -> Option<PlacedBlock> {
        let last = self.placed.pop()?;
        self.grid.clear_rect(last.cell, last.grid_w, last.grid_h);
        self.slot[last.block.index()] = UNPLACED;
        Some(last)
    }

    /// Clears all placements and rebinds the canvas at this floorplan's grid
    /// side, reusing the placed-block and slot buffers — the allocation-free
    /// alternative to [`Floorplan::with_grid_side`] for evaluation loops that
    /// realize thousands of candidate floorplans.
    pub fn reset(&mut self, canvas: Canvas) {
        self.canvas = canvas;
        self.cell_w_um = canvas.width_um / self.grid.width() as f64;
        self.cell_h_um = canvas.height_um / self.grid.height() as f64;
        self.grid.clear();
        self.placed.clear();
        self.slot.iter_mut().for_each(|s| *s = UNPLACED);
    }

    /// Bounding box (µm) of all placed blocks, or `None` if nothing is placed.
    pub fn bounding_box(&self) -> Option<Rect> {
        Rect::bounding_box(self.placed.iter().map(|p| &p.rect))
    }

    /// Sum of the placed blocks' real areas in µm².
    pub fn placed_area_um2(&self) -> f64 {
        self.placed.iter().map(|p| p.rect.area()).sum()
    }

    /// Centre (µm) of a placed block, if placed.
    pub fn block_center(&self, block: BlockId) -> Option<(f64, f64)> {
        self.find(block).map(|p| p.rect.center())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canvas() -> Canvas {
        Canvas::new(32.0, 32.0) // 1 µm per cell for easy arithmetic
    }

    #[test]
    fn place_and_query() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(3.0, 2.0), Cell::new(1, 1))
            .unwrap();
        assert!(fp.is_placed(BlockId(0)));
        assert_eq!(fp.num_placed(), 1);
        let p = fp.find(BlockId(0)).unwrap();
        assert_eq!((p.grid_w, p.grid_h), (3, 2));
        assert_eq!(p.rect, Rect::from_origin_size(1.0, 1.0, 3.0, 2.0));
        assert_eq!(fp.block_center(BlockId(0)), Some((2.5, 2.0)));
    }

    #[test]
    fn footprint_uses_ceiling_at_every_side() {
        for side in [GRID_SIZE, 64] {
            // 1 µm per cell.
            let fp = Floorplan::with_grid_side(Canvas::new(side as f64, side as f64), side);
            assert_eq!(fp.grid_footprint(&Shape::new(2.1, 0.9)), (3, 1));
        }
    }

    #[test]
    fn footprint_clamps_to_grid() {
        for side in [GRID_SIZE, 64] {
            let fp = Floorplan::with_grid_side(Canvas::new(10.0, 10.0), side);
            assert_eq!(fp.grid_footprint(&Shape::new(100.0, 0.0001)), (side, 1));
        }
    }

    #[test]
    fn rect_origin_scales_with_cell_size() {
        let mut fp = Floorplan::new(Canvas::new(64.0, 32.0)); // 2 µm × 1 µm cells
        fp.place(BlockId(0), 0, Shape::new(1.0, 1.0), Cell::new(2, 3))
            .unwrap();
        assert_eq!(fp.placed()[0].rect, Rect::from_origin_size(4.0, 3.0, 1.0, 1.0));
    }

    #[test]
    fn double_placement_rejected() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(2.0, 2.0), Cell::new(0, 0))
            .unwrap();
        let err = fp.place(BlockId(0), 1, Shape::new(2.0, 2.0), Cell::new(5, 5));
        assert_eq!(err, Err(PlaceError::AlreadyPlaced));
    }

    #[test]
    fn overlap_rejected_and_state_unchanged() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0))
            .unwrap();
        let before = fp.clone();
        let err = fp.place(BlockId(1), 0, Shape::new(2.0, 2.0), Cell::new(3, 3));
        assert_eq!(err, Err(PlaceError::Overlap));
        assert_eq!(fp, before);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut fp = Floorplan::new(canvas());
        let err = fp.place(BlockId(0), 0, Shape::new(5.0, 5.0), Cell::new(30, 0));
        assert_eq!(err, Err(PlaceError::OutOfBounds));
    }

    #[test]
    fn out_of_bounds_at_the_largest_coordinate_is_an_error_not_an_overflow() {
        let mut fp = Floorplan::new(canvas());
        let shape = Shape::new(2.0, 2.0);
        for cell in [Cell::new(usize::MAX, 0), Cell::new(0, usize::MAX)] {
            assert_eq!(
                fp.place(BlockId(0), 0, shape, cell),
                Err(PlaceError::OutOfBounds)
            );
            assert!(!fp.fits(cell, 2, 2));
        }
        assert_eq!(fp.num_placed(), 0);
    }

    #[test]
    fn unplace_restores_occupancy() {
        let mut fp = Floorplan::new(canvas());
        let empty = fp.clone();
        fp.place(BlockId(0), 0, Shape::new(3.0, 3.0), Cell::new(2, 2))
            .unwrap();
        let removed = fp.unplace_last().unwrap();
        assert_eq!(removed.block, BlockId(0));
        assert_eq!(fp, empty);
        assert!(!fp.is_placed(BlockId(0)));
        assert!(fp.unplace_last().is_none());
    }

    #[test]
    fn find_is_correct_after_unplace_of_other_block() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(3), 0, Shape::new(2.0, 2.0), Cell::new(0, 0))
            .unwrap();
        fp.place(BlockId(1), 0, Shape::new(2.0, 2.0), Cell::new(10, 10))
            .unwrap();
        fp.unplace_last();
        assert!(fp.is_placed(BlockId(3)));
        assert!(!fp.is_placed(BlockId(1)));
        assert_eq!(fp.find(BlockId(3)).unwrap().cell, Cell::new(0, 0));
    }

    #[test]
    fn reset_clears_slots_and_grid() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(5), 0, Shape::new(4.0, 4.0), Cell::new(8, 8))
            .unwrap();
        fp.reset(canvas());
        assert_eq!(fp.num_placed(), 0);
        assert!(!fp.is_placed(BlockId(5)));
        assert_eq!(fp.grid().count_occupied(), 0);
        assert_eq!(fp, Floorplan::new(canvas()));
    }

    #[test]
    fn bounding_box_covers_all_blocks() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(2.0, 2.0), Cell::new(0, 0))
            .unwrap();
        fp.place(BlockId(1), 0, Shape::new(2.0, 2.0), Cell::new(10, 10))
            .unwrap();
        let bb = fp.bounding_box().unwrap();
        assert_eq!(bb, Rect::from_corners(0.0, 0.0, 12.0, 12.0));
        assert_eq!(fp.placed_area_um2(), 8.0);
    }

    #[test]
    fn touching_blocks_are_allowed() {
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0))
            .unwrap();
        fp.place(BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(4, 0))
            .unwrap();
        assert_eq!(fp.num_placed(), 2);
    }

    #[test]
    #[should_panic(expected = "each grid row is one u64 word")]
    fn grid_sides_above_one_word_are_rejected() {
        let _ = Floorplan::with_grid_side(canvas(), 65);
    }
}
