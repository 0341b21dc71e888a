//! Bitboard occupancy for the placement grid: one `u64` word per row.
//!
//! The paper's discretization (§IV-D1) fixes the grid at [`GRID_SIZE`]` = 32`
//! cells per side. This module keeps the word-level engine chess engines use
//! for move generation: a grid of up to [`MAX_GRID_SIDE`]` = 64` cells per
//! side stores each row as one `u64`, inline (no heap allocation), so every
//! query below is a handful of register operations per row.
//!
//! * **Footprint probe** ([`BitGrid::fits`]): a `gw`-wide footprint anchored
//!   at `x` covers a row mask; the footprint fits iff that mask ANDs to zero
//!   against each of the `gh` covered rows — one shift-AND per row.
//! * **Occupy / free** ([`BitGrid::try_occupy`], [`BitGrid::clear_rect`]):
//!   OR / AND-NOT of the same masks, with bounds + overlap checked from the
//!   very masks that are then written — no per-cell walk.
//! * **Free-anchor map** ([`BitGrid::free_anchors`]): for every cell at once,
//!   "does a `gw × gh` footprint anchored here fit?". Horizontally, the
//!   classic run-of-`k` shift-AND doubling trick: starting from the free mask
//!   `m = !row`, repeatedly `m &= m >> s` with doubling step `s` builds, in
//!   ⌈log₂ gw⌉ steps, the mask of positions where `gw` consecutive free bits
//!   begin; anchors whose run would cross the right grid edge fall out
//!   because the shift brings in zeros. Vertically, the same doubling ANDs
//!   `gh` consecutive rows in ⌈log₂ gh⌉ passes.
//!
//! The anchor map is what the grid-realization snap search
//! ([`crate::sequence_pair::find_nearest_fit`]) and the RL positional masks
//! `f_p` ([`crate::masks::positional_mask`], paper §IV-D2 after MaskPlace \[4\])
//! are built from; the masks AND a row × column constraint window into its
//! words ([`AnchorMap::and_window`]).

use std::ops::Range;

use crate::grid::{Cell, GRID_SIZE};

/// Largest grid side [`BitGrid`] supports: each row is one `u64` word.
pub const MAX_GRID_SIDE: usize = 64;

/// Why a footprint cannot be occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupyError {
    /// The footprint extends past the grid boundary.
    OutOfBounds,
    /// The footprint overlaps occupied cells.
    Overlap,
}

/// Bitboard over a `width × height` placement grid ([`BitGrid::new`] is the
/// paper's 32×32 default). Bit `x` of row `y` (LSB = column 0) is 1 iff cell
/// `(x, y)` is occupied. Rows at or above `height` and bits at or above
/// `width` stay zero. See the module docs for the word-level algorithms.
#[derive(Debug, Clone)]
pub struct BitGrid {
    width: u16,
    height: u16,
    rows: [u64; MAX_GRID_SIDE],
}

impl Default for BitGrid {
    fn default() -> Self {
        BitGrid::new()
    }
}

impl PartialEq for BitGrid {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.rows() == other.rows()
    }
}

impl Eq for BitGrid {}

impl BitGrid {
    /// An empty grid at the paper's default `GRID_SIZE × GRID_SIZE` size.
    pub const fn new() -> Self {
        BitGrid {
            width: GRID_SIZE as u16,
            height: GRID_SIZE as u16,
            rows: [0; MAX_GRID_SIDE],
        }
    }

    /// An empty `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds [`MAX_GRID_SIDE`].
    pub fn with_size(width: usize, height: usize) -> Self {
        assert!(
            (1..=MAX_GRID_SIDE).contains(&width) && (1..=MAX_GRID_SIDE).contains(&height),
            "BitGrid dimensions {width}x{height} are outside 1..={MAX_GRID_SIDE}: \
             each grid row is one u64 word"
        );
        BitGrid {
            width: width as u16,
            height: height as u16,
            rows: [0; MAX_GRID_SIDE],
        }
    }

    /// Grid width in cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Grid height in cells.
    #[inline]
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// The occupancy words of the grid's rows, bottom row first.
    #[inline]
    fn rows(&self) -> &[u64] {
        &self.rows[..self.height()]
    }

    /// The grid's rows, mutably; indexing past `height` panics instead of
    /// writing the zero padding rows.
    #[inline]
    fn rows_mut(&mut self) -> &mut [u64] {
        let height = self.height();
        &mut self.rows[..height]
    }

    /// 1 for bits that are real grid columns, 0 for the padding past `width`.
    #[inline]
    fn valid_mask(&self) -> u64 {
        u64::MAX >> (MAX_GRID_SIDE - self.width())
    }

    /// Returns `true` if the cell is occupied. `cell` must be on the grid.
    #[inline]
    pub fn get(&self, cell: Cell) -> bool {
        debug_assert!(cell.x < self.width() && cell.y < self.height());
        (self.rows[cell.y] >> cell.x) & 1 == 1
    }

    /// The occupancy word of row `y` (bit `x` is cell `(x, y)`); rows at or
    /// above `height` read 0. `y` must be below [`MAX_GRID_SIDE`].
    #[inline]
    pub fn row(&self, y: usize) -> u64 {
        self.rows[y]
    }

    /// Clears every cell.
    pub fn clear(&mut self) {
        self.rows_mut().fill(0);
    }

    /// Number of occupied cells.
    pub fn count_occupied(&self) -> usize {
        self.rows().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether a `gw × gh` footprint anchored at `cell` stays on the grid.
    /// Overflow-safe for any `cell` (a hostile `usize::MAX` coordinate is
    /// out of bounds, not a wrapped sum), at one compare per axis: the
    /// saturated end is `usize::MAX`, which no grid side reaches.
    #[inline]
    fn in_bounds(&self, cell: Cell, gw: usize, gh: usize) -> bool {
        cell.x.saturating_add(gw) <= self.width() && cell.y.saturating_add(gh) <= self.height()
    }

    /// Returns `true` if a `gw × gh` footprint anchored at `cell` stays on
    /// the grid and overlaps no occupied cell: `gh` shift-AND row probes.
    #[inline]
    pub fn fits(&self, cell: Cell, gw: usize, gh: usize) -> bool {
        if !self.in_bounds(cell, gw, gh) {
            return false;
        }
        let mask = span_mask(cell.x, gw);
        self.rows[cell.y..cell.y + gh]
            .iter()
            .all(|&r| r & mask == 0)
    }

    /// Checks bounds and overlap and occupies the footprint, reusing the
    /// probe masks for the write — the single-pass replacement for the
    /// bounds → `fits` → set-bits triple walk. A failed call leaves the grid
    /// unchanged.
    pub fn try_occupy(&mut self, cell: Cell, gw: usize, gh: usize) -> Result<(), OccupyError> {
        if !self.in_bounds(cell, gw, gh) {
            return Err(OccupyError::OutOfBounds);
        }
        if !self.fits(cell, gw, gh) {
            return Err(OccupyError::Overlap);
        }
        self.set_rect(cell, gw, gh);
        Ok(())
    }

    /// Occupies the footprint unconditionally (bounds must hold): one OR per
    /// covered row.
    pub fn set_rect(&mut self, cell: Cell, gw: usize, gh: usize) {
        debug_assert!(cell.x + gw <= self.width() && cell.y + gh <= self.height());
        let mask = span_mask(cell.x, gw);
        for row in &mut self.rows_mut()[cell.y..cell.y + gh] {
            *row |= mask;
        }
    }

    /// Frees the footprint (AND-NOT of the span mask; bounds must hold).
    pub fn clear_rect(&mut self, cell: Cell, gw: usize, gh: usize) {
        debug_assert!(cell.x + gw <= self.width() && cell.y + gh <= self.height());
        let mask = !span_mask(cell.x, gw);
        for row in &mut self.rows_mut()[cell.y..cell.y + gh] {
            *row &= mask;
        }
    }

    /// The free anchors of row `y`: bit `x` is 1 iff
    /// [`BitGrid::fits`]`(Cell::new(x, y), gw, gh)` — the one-row slice of
    /// [`BitGrid::free_anchors`], for searches that touch only a few rows
    /// (the snap search probes a 7-row band around its start cell). The `gh`
    /// covered rows are OR-combined first, so the horizontal run-of-`gw`
    /// doubling runs once on the union.
    pub fn row_anchors(&self, y: usize, gw: usize, gh: usize) -> u64 {
        if gw == 0 || gh == 0 || gw > self.width() || y + gh > self.height() {
            return 0;
        }
        let occupied = self.rows[y..y + gh].iter().fold(0, |acc, &w| acc | w);
        run_of_gw(!occupied & self.valid_mask(), gw)
    }

    /// The free-anchor map for a `gw × gh` footprint: bit `(x, y)` is 1 iff
    /// [`BitGrid::fits`]`(Cell::new(x, y), gw, gh)` — computed for all cells
    /// at once with the run-of-`gw` shift-AND doubling trick horizontally and
    /// the same doubling over rows vertically (module docs).
    pub fn free_anchors(&self, gw: usize, gh: usize) -> AnchorMap {
        let height = self.height();
        let mut map = AnchorMap {
            width: self.width,
            height: self.height,
            rows: [0; MAX_GRID_SIDE],
        };
        if gw == 0 || gh == 0 || gw > self.width() || gh > height {
            return map;
        }
        let anchors = &mut map.rows[..height];
        // Horizontal pass: bit x survives iff bits x .. x+gw-1 are all free.
        let valid = self.valid_mask();
        for (a, &w) in anchors.iter_mut().zip(self.rows()) {
            *a = run_of_gw(!w & valid, gw);
        }
        // Vertical pass: AND rows y .. y+gh-1 by doubling. Ascending `y`
        // reads row `y + step` before this round overwrites it, so each
        // round combines two runs of the previous round's length; rows whose
        // footprint would cross the top edge collapse to 0.
        let mut run = 1usize;
        while run < gh {
            let step = run.min(gh - run);
            // `step < gh ≤ height`, so the split point is on the slice.
            for y in 0..height - step {
                let upper = anchors[y + step];
                anchors[y] &= upper;
            }
            anchors[height - step..].fill(0);
            run += step;
        }
        map
    }
}

/// The mask a `w`-wide span starting at column `x` covers, given
/// `x + w ≤ 64` (0 for an empty span).
#[inline]
pub(crate) fn span_mask(x: usize, w: usize) -> u64 {
    debug_assert!(x + w <= MAX_GRID_SIDE);
    if w == MAX_GRID_SIDE {
        !0
    } else {
        ((1u64 << w) - 1) << x
    }
}

/// Run-of-`gw` shift-AND doubling on one row word: bit `x` of the result is
/// set iff bits `x .. x+gw-1` of `m` are all set. Every step is at most
/// `gw / 2 ≤ 32`, so each shift is in range.
#[inline]
fn run_of_gw(mut m: u64, gw: usize) -> u64 {
    let mut run = 1usize;
    while run < gw {
        let step = run.min(gw - run);
        m &= m >> step;
        run += step;
    }
    m
}

/// The free-anchor map of a whole grid (see [`BitGrid::free_anchors`]): bit
/// `(x, y)` is set iff a `gw × gh` footprint anchored there fits. Stored like
/// [`BitGrid`] itself, one inline word per row; rows at or above `height`
/// stay zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorMap {
    width: u16,
    height: u16,
    rows: [u64; MAX_GRID_SIDE],
}

impl AnchorMap {
    /// Map width in cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Map height in cells.
    #[inline]
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// Returns `true` if `(x, y)` is an anchor; off-grid cells are not.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        x < self.width() && y < self.height() && (self.rows[y] >> x) & 1 == 1
    }

    /// The anchor word of row `y` (bit `x` is cell `(x, y)`); rows at or
    /// above `height` read 0. `y` must be below [`MAX_GRID_SIDE`].
    #[inline]
    pub fn row(&self, y: usize) -> u64 {
        self.rows[y]
    }

    /// Keeps only the anchors inside a row × column window: `(x, y)` stays
    /// set iff bit `x` of `cols` and bit `y` of `rows` are set.
    pub fn and_window(&mut self, cols: u64, rows: u64) {
        for (y, word) in self.rows.iter_mut().enumerate() {
            if (rows >> y) & 1 == 0 {
                *word = 0;
            } else {
                *word &= cols;
            }
        }
    }

    /// Number of anchors.
    pub fn count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set columns of row `y`, ascending.
    pub fn iter_row(&self, y: usize) -> impl Iterator<Item = usize> {
        let mut bits = self.rows[y];
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let x = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(x)
        })
    }

    /// The first anchor in row-major order (`y` ascending, then `x`), or
    /// `None` if the map is empty.
    pub fn first_set(&self) -> Option<Cell> {
        (0..self.height()).find_map(|y| self.iter_row(y).next().map(|x| Cell::new(x, y)))
    }

    /// Returns `true` if no cell is an anchor.
    pub fn is_empty(&self) -> bool {
        self.rows[..self.height()].iter().all(|&w| w == 0)
    }
}

/// Finds, in a free-anchor map, the set anchor nearest to `start` on the
/// Chebyshev rings of radius `>= min_radius` (ring 0 is `start` itself),
/// under the search order of the historical spiral scan: radius ascending,
/// then `Δy` from `-r` to `r`, then `Δx` ascending — so placements stay
/// bit-identical to the scalar path. `find_nearest_fit` continues here past
/// the rings it already probed.
pub fn nearest_anchor_from(anchors: &AnchorMap, start: Cell, min_radius: usize) -> Option<Cell> {
    let (width, height) = (anchors.width(), anchors.height());
    scan_rings(start, width, height, min_radius..width.max(height), |y| {
        anchors.rows[y]
    })
}

/// The first anchor on the Chebyshev rings around `start` with a radius in
/// `radii`, in the spiral order of [`nearest_anchor_from`]. `row(y)` supplies
/// the anchor word of grid row `y`. Rows on the ring interior contribute only
/// `Δx = ±r`; the two boundary rows take the lowest set bit of their
/// `[x−r, x+r]` window.
pub(crate) fn scan_rings(
    start: Cell,
    width: usize,
    height: usize,
    radii: Range<usize>,
    mut row: impl FnMut(usize) -> u64,
) -> Option<Cell> {
    let (width, height) = (width as isize, height as isize);
    for radius in radii.start as isize..radii.end as isize {
        for dy in -radius..=radius {
            let y = start.y as isize + dy;
            if !(0..height).contains(&y) {
                continue;
            }
            let anchors = row(y as usize);
            if anchors == 0 {
                continue;
            }
            if dy.abs() == radius {
                // Full ring edge: lowest set bit in the clamped window
                // [x - r, x + r] is the smallest admissible Δx.
                let lo = (start.x as isize - radius).max(0) as usize;
                let hi = (start.x as isize + radius).min(width - 1) as usize;
                let hits = anchors & span_mask(lo, hi - lo + 1);
                if hits != 0 {
                    return Some(Cell::new(hits.trailing_zeros() as usize, y as usize));
                }
            } else {
                // Ring side: only Δx = −r then Δx = +r are on the ring.
                let left = start.x as isize - radius;
                if left >= 0 && (anchors >> left) & 1 == 1 {
                    return Some(Cell::new(left as usize, y as usize));
                }
                let right = start.x as isize + radius;
                if right < width && (anchors >> right) & 1 == 1 {
                    return Some(Cell::new(right as usize, y as usize));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar oracle for `fits`.
    fn fits_scalar(g: &BitGrid, cell: Cell, gw: usize, gh: usize) -> bool {
        if cell.x + gw > g.width() || cell.y + gh > g.height() {
            return false;
        }
        (0..gh).all(|dy| (0..gw).all(|dx| !g.get(Cell::new(cell.x + dx, cell.y + dy))))
    }

    /// Asserts `fits`, the anchor map and the per-row anchors against the
    /// scalar oracle on every cell.
    fn assert_matches_scalar(g: &BitGrid, gw: usize, gh: usize) {
        let anchors = g.free_anchors(gw, gh);
        for y in 0..g.height() {
            let row = g.row_anchors(y, gw, gh);
            for x in 0..g.width() {
                let cell = Cell::new(x, y);
                let expected = fits_scalar(g, cell, gw, gh);
                assert_eq!(g.fits(cell, gw, gh), expected, "fits {gw}x{gh} at {x},{y}");
                assert_eq!(anchors.get(x, y), expected, "anchor {gw}x{gh} at {x},{y}");
                assert_eq!(
                    (row >> x) & 1 == 1,
                    expected,
                    "row anchor {gw}x{gh} at {x},{y}"
                );
            }
        }
    }

    #[test]
    fn empty_grid_fits_everywhere_in_bounds() {
        let g = BitGrid::new();
        assert!(g.fits(Cell::new(0, 0), 32, 32));
        assert!(g.fits(Cell::new(31, 31), 1, 1));
        assert!(!g.fits(Cell::new(31, 31), 2, 1));
        assert!(!g.fits(Cell::new(0, 30), 1, 3));
        assert_eq!(g.count_occupied(), 0);
    }

    #[test]
    fn occupy_clear_roundtrip() {
        let mut g = BitGrid::new();
        g.try_occupy(Cell::new(3, 5), 4, 2).unwrap();
        assert_eq!(g.count_occupied(), 8);
        assert!(g.get(Cell::new(3, 5)));
        assert!(g.get(Cell::new(6, 6)));
        assert!(!g.get(Cell::new(7, 5)));
        assert_eq!(
            g.try_occupy(Cell::new(6, 6), 2, 2),
            Err(OccupyError::Overlap)
        );
        assert_eq!(
            g.try_occupy(Cell::new(30, 0), 3, 1),
            Err(OccupyError::OutOfBounds)
        );
        g.clear_rect(Cell::new(3, 5), 4, 2);
        assert_eq!(g, BitGrid::new());
    }

    #[test]
    fn failed_occupy_leaves_grid_unchanged() {
        let mut g = BitGrid::new();
        g.set_rect(Cell::new(10, 10), 2, 2);
        let before = g.clone();
        assert!(g.try_occupy(Cell::new(9, 9), 3, 3).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn free_anchors_match_fits_for_every_cell_and_footprint() {
        let mut g = BitGrid::new();
        g.set_rect(Cell::new(0, 0), 7, 3);
        g.set_rect(Cell::new(20, 12), 5, 9);
        g.set_rect(Cell::new(9, 28), 12, 4);
        g.set_rect(Cell::new(31, 0), 1, 32);
        for &(gw, gh) in &[(1, 1), (2, 5), (5, 2), (7, 7), (32, 1), (1, 32), (32, 32)] {
            assert_matches_scalar(&g, gw, gh);
        }
    }

    #[test]
    fn degenerate_footprints_have_no_anchors() {
        let g = BitGrid::new();
        assert!(g.free_anchors(0, 1).is_empty());
        assert!(g.free_anchors(33, 1).is_empty());
    }

    #[test]
    fn row_anchors_match_the_full_anchor_map() {
        let mut g = BitGrid::new();
        g.set_rect(Cell::new(0, 0), 7, 3);
        g.set_rect(Cell::new(20, 12), 5, 9);
        g.set_rect(Cell::new(9, 28), 12, 4);
        for &(gw, gh) in &[(1, 1), (2, 5), (5, 2), (7, 7), (32, 1), (1, 32)] {
            assert_matches_scalar(&g, gw, gh);
        }
        assert_eq!(g.row_anchors(0, 0, 1), 0);
        assert_eq!(g.row_anchors(31, 1, 2), 0, "top-edge crossing row is empty");
    }

    #[test]
    fn nearest_anchor_prefers_start_then_ring_order() {
        let mut g = BitGrid::new();
        // Block the start cell; nearest free anchors ring around it.
        g.set_rect(Cell::new(10, 10), 1, 1);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(
            nearest_anchor_from(&anchors, Cell::new(10, 10), 0),
            // radius 1, dy = -1 row first, lowest x in window [9, 11].
            Some(Cell::new(9, 9))
        );
        assert_eq!(
            nearest_anchor_from(&anchors, Cell::new(4, 4), 0),
            Some(Cell::new(4, 4))
        );
    }

    #[test]
    fn nearest_anchor_exhausted_grid_is_none() {
        let mut g = BitGrid::new();
        g.set_rect(Cell::new(0, 0), 32, 32);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(nearest_anchor_from(&anchors, Cell::new(16, 16), 0), None);
        assert!(anchors.is_empty());
    }

    // --- Sized grids and the full-word edge cases (widths 63 and 64) -----

    #[test]
    fn default_grid_is_sized() {
        let g = BitGrid::new();
        assert_eq!((g.width(), g.height()), (32, 32));
        let wide = BitGrid::with_size(64, 40);
        assert_eq!((wide.width(), wide.height()), (64, 40));
    }

    #[test]
    #[should_panic(expected = "each grid row is one u64 word")]
    fn oversized_grid_is_rejected() {
        let _ = BitGrid::with_size(65, 4);
    }

    #[test]
    fn full_word_grids_match_scalar_at_the_top_columns() {
        for width in [63usize, 64] {
            let mut g = BitGrid::with_size(width, 8);
            g.set_rect(Cell::new(0, 0), 3, 1);
            g.set_rect(Cell::new(30, 2), 6, 2);
            g.set_rect(Cell::new(width - 3, 7), 3, 1); // against the right edge
            for &(gw, gh) in &[
                (1, 1),
                (2, 3),
                (31, 2),
                (32, 1),
                (33, 2),
                (62, 1),
                (63, 1),
                (64, 1),
            ] {
                assert_matches_scalar(&g, gw, gh);
            }
        }
    }

    /// Footprints ending on the last column: `gw ∈ {62, 63, 64}` anchored so
    /// they cover column 63 through fits / try_occupy / free_anchors /
    /// row_anchors.
    #[test]
    fn footprints_on_the_last_column_roundtrip_exactly() {
        for gw in [1usize, 62, 63, 64] {
            let x = 64 - gw;
            let mut g = BitGrid::with_size(64, 6);
            assert!(
                g.fits(Cell::new(x, 1), gw, 2),
                "empty grid fits {gw} at {x}"
            );
            assert!(
                !g.fits(Cell::new(x + 1, 1), gw, 2),
                "{gw} at {} leaves the grid",
                x + 1
            );
            g.try_occupy(Cell::new(x, 1), gw, 2)
                .unwrap_or_else(|e| panic!("occupy {gw} at {x}: {e:?}"));
            assert_eq!(g.count_occupied(), gw * 2);
            for cx in x..64 {
                assert!(g.get(Cell::new(cx, 1)), "cell {cx} unset for {gw} at {x}");
            }
            if x > 0 {
                assert!(!g.get(Cell::new(x - 1, 1)));
                assert!(g.fits(Cell::new(x - 1, 1), 1, 1));
            }
            assert_eq!(
                g.try_occupy(Cell::new(63, 2), 1, 1),
                Err(OccupyError::Overlap)
            );
            for probe_gw in [1usize, 63, 64] {
                assert_matches_scalar(&g, probe_gw, 2);
            }
            g.clear_rect(Cell::new(x, 1), gw, 2);
            assert_eq!(g, BitGrid::with_size(64, 6));
        }
    }

    #[test]
    fn nearest_anchor_reaches_the_last_column() {
        let mut g = BitGrid::with_size(64, 5);
        // Occupy everything except the top-right corner cell.
        g.set_rect(Cell::new(0, 0), 64, 5);
        g.clear_rect(Cell::new(63, 4), 1, 1);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(
            nearest_anchor_from(&anchors, Cell::new(0, 0), 0),
            Some(Cell::new(63, 4))
        );
        assert_eq!(
            nearest_anchor_from(&anchors, Cell::new(60, 4), 1),
            Some(Cell::new(63, 4))
        );
        assert_eq!(
            nearest_anchor_from(&anchors, Cell::new(63, 4), 1),
            None,
            "min radius skips start"
        );
    }
}
