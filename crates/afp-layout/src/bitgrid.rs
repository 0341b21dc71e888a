//! Bitboard occupancy for the placement grid, in multi-word rows.
//!
//! The paper's discretization (§IV-D1) fixes the grid at [`GRID_SIZE`]` = 32`
//! cells per side, and the historical representation was literally one `u32`
//! per row. This module keeps that word-level engine — the same representation
//! chess engines use for move generation — but generalizes it to runtime
//! `width × height` grids stored as `⌈width/64⌉` `u64` words per row, so the
//! large-n workload tier can realize hundreds of blocks on grids wider than
//! one machine word. The default [`BitGrid::new`] instantiation is still the
//! paper's 32×32 grid, stored inline (no heap allocation) and bit-identical in
//! behaviour to the one-word engine it replaces.
//!
//! * **Footprint probe** ([`BitGrid::fits`]): a `gw`-wide footprint anchored
//!   at `x` covers a row mask; the footprint fits iff that mask ANDs to zero
//!   against each of the `gh` covered rows. On a one-word row that is one
//!   shift-AND per row; on a multi-word row the mask is materialized one word
//!   segment at a time.
//! * **Occupy / free** ([`BitGrid::try_occupy`], [`BitGrid::clear_rect`]):
//!   OR / AND-NOT of the same masks, with bounds + overlap checked from the
//!   very masks that are then written — no per-cell walk.
//! * **Free-anchor map** ([`BitGrid::free_anchors`]): for every cell at once,
//!   "does a `gw × gh` footprint anchored here fit?". Horizontally, the
//!   classic run-of-`k` shift-AND doubling trick: starting from the free mask
//!   `m = !row`, repeatedly `m &= m >> s` with doubling step `s` builds, in
//!   ⌈log₂ gw⌉ steps, the mask of positions where `gw` consecutive free bits
//!   begin. The multi-word shift carries bits across word seams
//!   (`m[i] = (m[i] >> s) | (m[i+1] << (64 − s))`), so a run that straddles a
//!   `u64` boundary is tracked exactly; anchors whose run would cross the
//!   right grid edge fall out because the top word shifts zeros in.
//!   Vertically, the same doubling ANDs `gh` consecutive rows word-wise in
//!   ⌈log₂ gh⌉ passes.
//!
//! The anchor map is what the grid-realization snap search
//! ([`crate::sequence_pair::find_nearest_fit`]) and the RL positional masks
//! `f_p` ([`crate::masks::positional_mask`], paper §IV-D2 after MaskPlace \[4\])
//! are built from.

use serde::{Deserialize, Serialize};

use crate::grid::{Cell, GRID_SIZE};

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words kept inline before spilling to the heap: the default 32×32 grid is
/// exactly 32 one-word rows, so every paper-scale grid is allocation-free.
const INLINE_WORDS: usize = 32;

/// Maximum words per row, bounding [`BitGrid::with_size`] widths at
/// `MAX_WPR · 64 = 512` cells so per-row scratch buffers (the horizontal
/// doubling pass, the snap search's row band) can live on the stack.
pub(crate) const MAX_WPR: usize = 8;

/// Why a footprint cannot be occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupyError {
    /// The footprint extends past the grid boundary.
    OutOfBounds,
    /// The footprint overlaps occupied cells.
    Overlap,
}

/// Row-major word storage shared by [`BitGrid`] and [`AnchorMap`]: row `y`
/// occupies words `[y·wpr, (y+1)·wpr)`, bit `x mod 64` of word `x / 64` is
/// cell `(x, y)`. Unused bits (columns ≥ `width`, inline words beyond the
/// grid) are kept zero as an invariant, so word-wise population counts and
/// equality need no re-masking.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WordStore {
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
}

impl WordStore {
    const fn empty() -> Self {
        WordStore {
            inline: [0; INLINE_WORDS],
            spill: Vec::new(),
        }
    }

    fn with_len(len: usize) -> Self {
        WordStore {
            inline: [0; INLINE_WORDS],
            spill: if len > INLINE_WORDS { vec![0; len] } else { Vec::new() },
        }
    }

    #[inline]
    fn words(&self, len: usize) -> &[u64] {
        if self.spill.is_empty() {
            &self.inline[..len]
        } else {
            &self.spill
        }
    }

    #[inline]
    fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if self.spill.is_empty() {
            &mut self.inline[..len]
        } else {
            &mut self.spill
        }
    }
}

/// Bitboard over a `width × height` placement grid ([`BitGrid::new`] is the
/// paper's 32×32 default). Bit `x` of row `y` (LSB = column 0, words in
/// little-endian column order) is 1 iff cell `(x, y)` is occupied. See the
/// module docs for the word-level algorithms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitGrid {
    width: u16,
    height: u16,
    wpr: u16,
    store: WordStore,
}

impl Default for BitGrid {
    fn default() -> Self {
        BitGrid::new()
    }
}

impl PartialEq for BitGrid {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.words() == other.words()
    }
}

impl Eq for BitGrid {}

impl BitGrid {
    /// An empty grid at the paper's default `GRID_SIZE × GRID_SIZE` size.
    pub const fn new() -> Self {
        BitGrid {
            width: GRID_SIZE as u16,
            height: GRID_SIZE as u16,
            wpr: 1,
            store: WordStore::empty(),
        }
    }

    /// An empty `width × height` grid. Sizes up to `INLINE_WORDS` total
    /// words (the default 32×32 among them) are stored inline; larger grids
    /// spill to one heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds `MAX_WPR · 64 = 512`.
    pub fn with_size(width: usize, height: usize) -> Self {
        assert!(
            (1..=MAX_WPR * WORD_BITS).contains(&width)
                && (1..=MAX_WPR * WORD_BITS).contains(&height),
            "BitGrid dimensions {width}x{height} out of the supported 1..=512 range"
        );
        let wpr = width.div_ceil(WORD_BITS);
        BitGrid {
            width: width as u16,
            height: height as u16,
            wpr: wpr as u16,
            store: WordStore::with_len(height * wpr),
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

    /// Words per row (`⌈width / 64⌉`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.wpr as usize
    }

    /// The raw occupancy words, row-major, bottom row first (see
    /// `WordStore` layout). Exposed for differential tests.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.store.words(self.height as usize * self.wpr as usize)
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self.store.words_mut(self.height as usize * self.wpr as usize)
    }

    /// The valid-column mask of row word `wi`: 1 for bits that are real grid
    /// columns, 0 for padding past `width` in the row's top word.
    #[inline]
    fn valid_mask(&self, wi: usize) -> u64 {
        let lo = wi * WORD_BITS;
        let width = self.width as usize;
        if lo + WORD_BITS <= width {
            !0
        } else if lo >= width {
            0
        } else {
            (1u64 << (width - lo)) - 1
        }
    }

    /// The mask a `gw`-wide footprint anchored at column `x` covers within
    /// one word, given `x + gw ≤ 64`.
    #[inline]
    fn one_word_mask(x: usize, gw: usize) -> u64 {
        debug_assert!(gw >= 1 && x + gw <= WORD_BITS);
        if gw == WORD_BITS {
            !0
        } else {
            ((1u64 << gw) - 1) << x
        }
    }

    /// The part of the span `[x, x + gw)` that falls in word `wi` of a row,
    /// as a bit mask local to that word (0 if the span misses the word).
    #[inline]
    fn segment_mask(wi: usize, x: usize, gw: usize) -> u64 {
        let word_lo = wi * WORD_BITS;
        let lo = x.max(word_lo);
        let hi = (x + gw).min(word_lo + WORD_BITS);
        if lo >= hi {
            return 0;
        }
        Self::one_word_mask(lo - word_lo, hi - lo)
    }

    /// Returns `true` if the cell is occupied. `cell` must be on the grid.
    #[inline]
    pub fn get(&self, cell: Cell) -> bool {
        debug_assert!(cell.x < self.width() && cell.y < self.height());
        let wpr = self.wpr as usize;
        let word = self.words()[cell.y * wpr + cell.x / WORD_BITS];
        (word >> (cell.x % WORD_BITS)) & 1 == 1
    }

    /// Clears every cell.
    pub fn clear(&mut self) {
        self.store.inline = [0; INLINE_WORDS];
        self.store.spill.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of occupied cells.
    pub fn count_occupied(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
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
    /// the grid and overlaps no occupied cell: `gh` shift-AND row probes on a
    /// one-word row, one probe per covered word segment otherwise.
    #[inline]
    pub fn fits(&self, cell: Cell, gw: usize, gh: usize) -> bool {
        if !self.in_bounds(cell, gw, gh) {
            return false;
        }
        let wpr = self.wpr as usize;
        let words = self.words();
        if wpr == 1 {
            let mask = Self::one_word_mask(cell.x, gw);
            return words[cell.y..cell.y + gh].iter().all(|&r| r & mask == 0);
        }
        let w0 = cell.x / WORD_BITS;
        let w1 = (cell.x + gw - 1) / WORD_BITS;
        (cell.y..cell.y + gh).all(|y| {
            let row = &words[y * wpr..(y + 1) * wpr];
            (w0..=w1).all(|wi| row[wi] & Self::segment_mask(wi, cell.x, gw) == 0)
        })
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

    /// Occupies the footprint unconditionally (bounds must hold).
    pub fn set_rect(&mut self, cell: Cell, gw: usize, gh: usize) {
        debug_assert!(cell.x + gw <= self.width() && cell.y + gh <= self.height());
        let wpr = self.wpr as usize;
        let w0 = cell.x / WORD_BITS;
        let w1 = (cell.x + gw - 1) / WORD_BITS;
        let words = self.words_mut();
        if w0 == w1 {
            // Footprint spans one word per row: one precomputed OR per row.
            let mask = Self::segment_mask(w0, cell.x, gw);
            for y in cell.y..cell.y + gh {
                words[y * wpr + w0] |= mask;
            }
            return;
        }
        for y in cell.y..cell.y + gh {
            for wi in w0..=w1 {
                words[y * wpr + wi] |= Self::segment_mask(wi, cell.x, gw);
            }
        }
    }

    /// Frees the footprint (AND-NOT of the span masks; bounds must hold).
    pub fn clear_rect(&mut self, cell: Cell, gw: usize, gh: usize) {
        debug_assert!(cell.x + gw <= self.width() && cell.y + gh <= self.height());
        let wpr = self.wpr as usize;
        let w0 = cell.x / WORD_BITS;
        let w1 = (cell.x + gw - 1) / WORD_BITS;
        let words = self.words_mut();
        if w0 == w1 {
            let mask = !Self::segment_mask(w0, cell.x, gw);
            for y in cell.y..cell.y + gh {
                words[y * wpr + w0] &= mask;
            }
            return;
        }
        for y in cell.y..cell.y + gh {
            for wi in w0..=w1 {
                words[y * wpr + wi] &= !Self::segment_mask(wi, cell.x, gw);
            }
        }
    }

    /// Writes the free anchors of row `y` into `out[..words_per_row()]`: bit
    /// `x` of the result is 1 iff [`BitGrid::fits`]`(Cell::new(x, y), gw,
    /// gh)` — the one-row slice of [`BitGrid::free_anchors`], for searches
    /// that touch only a few rows (the snap search probes a 7-row band around
    /// its start cell). The `gh` covered rows are OR-combined first, so the
    /// horizontal run-of-`gw` doubling runs once on the union.
    pub fn row_anchors_into(&self, y: usize, gw: usize, gh: usize, out: &mut [u64]) {
        let wpr = self.wpr as usize;
        let out = &mut out[..wpr];
        if gw == 0 || gh == 0 || gw > self.width() || y + gh > self.height() {
            out.fill(0);
            return;
        }
        let words = self.words();
        if wpr == 1 {
            // One-word rows: OR the covered rows, negate under the width
            // mask, and run the doubling in a register.
            let mut acc = 0u64;
            for &w in &words[y..y + gh] {
                acc |= w;
            }
            let mut m = !acc & self.valid_mask(0);
            let mut run = 1usize;
            while run < gw {
                let step = run.min(gw - run);
                m &= m >> step;
                run += step;
            }
            out[0] = m;
            return;
        }
        out.fill(0);
        for yy in y..y + gh {
            for (o, &w) in out.iter_mut().zip(&words[yy * wpr..(yy + 1) * wpr]) {
                *o |= w;
            }
        }
        for (wi, o) in out.iter_mut().enumerate() {
            *o = !*o & self.valid_mask(wi);
        }
        run_of_gw(out, gw);
    }

    /// The free anchors of a single grid row as an owned [`RowMask`] —
    /// [`row_anchors_into`](BitGrid::row_anchors_into) for callers without a
    /// word buffer (allocation-free on one-word rows).
    pub fn row_anchors(&self, y: usize, gw: usize, gh: usize) -> RowMask {
        let mut buf = [0u64; MAX_WPR];
        self.row_anchors_into(y, gw, gh, &mut buf);
        RowMask {
            width: self.width,
            word0: buf[0],
            spill: if self.wpr > 1 {
                buf[1..self.wpr as usize].to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// The free-anchor map for a `gw × gh` footprint: bit `(x, y)` is 1 iff
    /// [`BitGrid::fits`]`(Cell::new(x, y), gw, gh)` — computed for all cells
    /// at once with the run-of-`gw` shift-AND doubling trick horizontally
    /// (carrying across word seams) and the same doubling over rows
    /// vertically (module docs).
    pub fn free_anchors(&self, gw: usize, gh: usize) -> AnchorMap {
        let wpr = self.wpr as usize;
        let height = self.height();
        let mut map = AnchorMap {
            width: self.width,
            height: self.height,
            wpr: self.wpr,
            store: WordStore::with_len(height * wpr),
        };
        if gw == 0 || gh == 0 || gw > self.width() || gh > height {
            return map;
        }
        let words = self.words();
        let anchors = map.store.words_mut(height * wpr);
        // Horizontal pass: bit x survives iff bits x .. x+gw-1 are all free.
        // Right-edge anchors die because the top word shifts zeros in.
        if wpr == 1 {
            // One word per row: the whole pass is a negate-mask plus
            // in-register doubling per row, with no seam carries.
            let valid = self.valid_mask(0);
            for (a, &w) in anchors.iter_mut().zip(words) {
                let mut m = !w & valid;
                let mut run = 1usize;
                while run < gw {
                    let step = run.min(gw - run);
                    m &= m >> step;
                    run += step;
                }
                *a = m;
            }
        } else {
            for y in 0..height {
                let row = &mut anchors[y * wpr..(y + 1) * wpr];
                for (wi, (a, &w)) in row.iter_mut().zip(&words[y * wpr..]).enumerate() {
                    *a = !w
                        & if (wi + 1) * WORD_BITS <= self.width as usize {
                            !0
                        } else {
                            (1u64 << (self.width as usize - wi * WORD_BITS)) - 1
                        };
                }
                run_of_gw(row, gw);
            }
        }
        // Vertical pass: AND rows y .. y+gh-1 by doubling. Ascending `y`
        // reads row `y + step` before this round overwrites it, so each
        // round combines two runs of the previous round's length; rows whose
        // footprint would cross the top edge collapse to 0.
        let mut run = 1usize;
        while run < gh {
            let step = run.min(gh - run);
            if wpr == 1 {
                // `step < gh ≤ height`, so the split point is on the slice.
                for y in 0..height - step {
                    let upper = anchors[y + step];
                    anchors[y] &= upper;
                }
                anchors[height - step..height].fill(0);
            } else {
                for y in 0..height {
                    if y + step < height {
                        for wi in 0..wpr {
                            let upper = anchors[(y + step) * wpr + wi];
                            anchors[y * wpr + wi] &= upper;
                        }
                    } else {
                        anchors[y * wpr..(y + 1) * wpr].fill(0);
                    }
                }
            }
            run += step;
        }
        map
    }
}

/// In-place run-of-`gw` doubling on one multi-word row: after the call, bit
/// `x` is set iff bits `x .. x+gw-1` were all set. The shift-AND carries
/// across word seams: shifting the row right by `s` reads
/// `(row[i + s/64] >> s%64) | (row[i + s/64 + 1] << (64 − s%64))`.
fn run_of_gw(row: &mut [u64], gw: usize) {
    if row.len() == 1 {
        // One-word row (every grid up to 64 columns): the classic in-register
        // doubling, no seam carries, no scratch buffer.
        let mut m = row[0];
        let mut run = 1usize;
        while run < gw {
            let step = run.min(gw - run);
            m &= if step == WORD_BITS { 0 } else { m >> step };
            run += step;
        }
        row[0] = m;
        return;
    }
    let wpr = row.len();
    let mut shifted = [0u64; MAX_WPR];
    let mut run = 1usize;
    while run < gw {
        let step = run.min(gw - run);
        let ws = step / WORD_BITS;
        let bs = step % WORD_BITS;
        for i in 0..wpr {
            let lo = row.get(i + ws).copied().unwrap_or(0);
            shifted[i] = if bs == 0 {
                lo
            } else {
                let hi = row.get(i + ws + 1).copied().unwrap_or(0);
                (lo >> bs) | (hi << (WORD_BITS - bs))
            };
        }
        for (r, &s) in row.iter_mut().zip(&shifted) {
            *r &= s;
        }
        run += step;
    }
}

/// Returns `true` if bit `x` of a multi-word row is set.
#[inline]
pub(crate) fn row_bit(words: &[u64], x: usize) -> bool {
    (words[x / WORD_BITS] >> (x % WORD_BITS)) & 1 == 1
}

/// The lowest set bit of a multi-word row within the inclusive column window
/// `[lo, hi]`, or `None`.
pub(crate) fn first_set_in_range(words: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let w0 = lo / WORD_BITS;
    let w1 = hi / WORD_BITS;
    for wi in w0..=w1.min(words.len() - 1) {
        let mut w = words[wi];
        let base = wi * WORD_BITS;
        if wi == w0 {
            w &= !0 << (lo - base);
        }
        if base + WORD_BITS > hi + 1 {
            let keep = hi + 1 - base;
            w &= if keep == WORD_BITS { !0 } else { (1u64 << keep) - 1 };
        }
        if w != 0 {
            return Some(base + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Iterator over the set bit positions of one row, ascending.
struct SetBits<'a> {
    words: std::slice::Iter<'a, u64>,
    current: u64,
    base: usize,
}

impl<'a> Iterator for SetBits<'a> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let x = self.base + self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(x);
            }
            self.current = *self.words.next()?;
            self.base = self.base.wrapping_add(WORD_BITS);
        }
    }
}

fn set_bits(words: &[u64]) -> SetBits<'_> {
    SetBits {
        words: words.iter(),
        current: 0,
        base: 0usize.wrapping_sub(WORD_BITS),
    }
}

/// The free anchors of one grid row, owned (see [`BitGrid::row_anchors`]).
/// One-word rows — every grid up to 64 cells wide — stay allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    width: u16,
    word0: u64,
    spill: Vec<u64>,
}

impl RowMask {
    /// Returns `true` if column `x` is an anchor.
    #[inline]
    pub fn get(&self, x: usize) -> bool {
        debug_assert!(x < self.width as usize);
        if x < WORD_BITS {
            (self.word0 >> x) & 1 == 1
        } else {
            row_bit(&self.spill, x - WORD_BITS)
        }
    }

    /// Returns `true` if any column is an anchor.
    pub fn any(&self) -> bool {
        self.word0 != 0 || self.spill.iter().any(|&w| w != 0)
    }
}

/// The free-anchor map of a whole grid (see [`BitGrid::free_anchors`]): bit
/// `(x, y)` is set iff a `gw × gh` footprint anchored there fits. Stored like
/// [`BitGrid`] itself — inline for the default 32×32 grid.
#[derive(Debug, Clone)]
pub struct AnchorMap {
    width: u16,
    height: u16,
    wpr: u16,
    store: WordStore,
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

    #[inline]
    fn words(&self) -> &[u64] {
        self.store.words(self.height as usize * self.wpr as usize)
    }

    #[inline]
    fn row_words(&self, y: usize) -> &[u64] {
        let wpr = self.wpr as usize;
        &self.words()[y * wpr..(y + 1) * wpr]
    }

    /// Returns `true` if `(x, y)` is an anchor. Must be on the grid.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width() && y < self.height());
        row_bit(self.row_words(y), x)
    }

    /// The set columns of row `y`, ascending.
    pub fn iter_row(&self, y: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.row_words(y))
    }

    /// The first anchor in row-major order (`y` ascending, then `x`), or
    /// `None` if the map is empty.
    pub fn first_set(&self) -> Option<Cell> {
        (0..self.height()).find_map(|y| {
            self.iter_row(y).next().map(|x| Cell::new(x, y))
        })
    }

    /// Returns `true` if no cell is an anchor.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }
}

/// Finds, in a free-anchor map, the set anchor nearest to `start` under the
/// search order of the historical spiral scan: Chebyshev radius ascending,
/// then `Δy` from `-r` to `r`, then `Δx` ascending — so placements stay
/// bit-identical to the scalar path. Rows on the ring interior contribute
/// only `Δx = ±r`; the two boundary rows take the lowest set bit of their
/// `[x−r, x+r]` window.
pub fn nearest_anchor(anchors: &AnchorMap, start: Cell) -> Option<Cell> {
    if anchors.get(start.x, start.y) {
        return Some(start);
    }
    nearest_anchor_from(anchors, start, 1)
}

/// [`nearest_anchor`] restricted to Chebyshev radii `>= min_radius`: the
/// continuation used when smaller rings were already probed cell-by-cell
/// (see `find_nearest_fit`). Scan order within each ring is unchanged.
pub fn nearest_anchor_from(anchors: &AnchorMap, start: Cell, min_radius: usize) -> Option<Cell> {
    let width = anchors.width() as isize;
    let height = anchors.height() as isize;
    let max_radius = width.max(height);
    for radius in min_radius as isize..max_radius {
        for dy in -radius..=radius {
            let y = start.y as isize + dy;
            if !(0..height).contains(&y) {
                continue;
            }
            let row = anchors.row_words(y as usize);
            if row.iter().all(|&w| w == 0) {
                continue;
            }
            if dy.abs() == radius {
                // Full ring edge: lowest set bit in the clamped window
                // [x - r, x + r] is the smallest admissible Δx.
                let lo = (start.x as isize - radius).max(0) as usize;
                let hi = (start.x as isize + radius).min(width - 1) as usize;
                if let Some(x) = first_set_in_range(row, lo, hi) {
                    return Some(Cell::new(x, y as usize));
                }
            } else {
                // Ring side: only Δx = −r then Δx = +r are on the ring.
                let left = start.x as isize - radius;
                if left >= 0 && row_bit(row, left as usize) {
                    return Some(Cell::new(left as usize, y as usize));
                }
                let right = start.x as isize + radius;
                if right < width && row_bit(row, right as usize) {
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
                assert_eq!(row.get(x), expected, "row anchor {gw}x{gh} at {x},{y}");
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
        assert!(!g.row_anchors(0, 0, 1).any());
        assert!(!g.row_anchors(31, 1, 2).any(), "top-edge crossing row is empty");
    }

    #[test]
    fn nearest_anchor_prefers_start_then_ring_order() {
        let mut g = BitGrid::new();
        // Block the start cell; nearest free anchors ring around it.
        g.set_rect(Cell::new(10, 10), 1, 1);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(
            nearest_anchor(&anchors, Cell::new(10, 10)),
            // radius 1, dy = -1 row first, lowest x in window [9, 11].
            Some(Cell::new(9, 9))
        );
        assert_eq!(
            nearest_anchor(&anchors, Cell::new(4, 4)),
            Some(Cell::new(4, 4))
        );
    }

    #[test]
    fn nearest_anchor_exhausted_grid_is_none() {
        let mut g = BitGrid::new();
        g.set_rect(Cell::new(0, 0), 32, 32);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(nearest_anchor(&anchors, Cell::new(16, 16)), None);
        assert!(anchors.is_empty());
    }

    // --- Multi-word grids and u64 word-seam edge cases -----------------

    #[test]
    fn default_grid_is_inline_and_sized() {
        let g = BitGrid::new();
        assert_eq!((g.width(), g.height(), g.words_per_row()), (32, 32, 1));
        let wide = BitGrid::with_size(192, 40);
        assert_eq!((wide.width(), wide.height(), wide.words_per_row()), (192, 40, 3));
        let odd = BitGrid::with_size(65, 3);
        assert_eq!(odd.words_per_row(), 2);
    }

    #[test]
    #[should_panic(expected = "out of the supported")]
    fn oversized_grid_is_rejected() {
        let _ = BitGrid::with_size(513, 4);
    }

    #[test]
    fn wide_grid_queries_match_scalar_across_word_seams() {
        // 192-wide grid: seams at 64 and 128. Occupancy straddles both.
        let mut g = BitGrid::with_size(192, 8);
        g.set_rect(Cell::new(61, 2), 6, 2); // straddles the bit-63/64 seam
        g.set_rect(Cell::new(126, 5), 5, 2); // straddles the bit-127/128 seam
        g.set_rect(Cell::new(0, 0), 3, 1);
        g.set_rect(Cell::new(189, 7), 3, 1); // against the right edge
        for &(gw, gh) in &[(1, 1), (63, 2), (64, 1), (65, 3), (130, 2), (192, 1)] {
            assert_matches_scalar(&g, gw, gh);
        }
    }

    /// The satellite fuzz of the word-boundary kernels: footprints with
    /// `gw ∈ {63, 64, 65}` anchored at columns 62–66 (both sides of the
    /// first seam) through fits / try_occupy / free_anchors / row_anchors.
    #[test]
    fn seam_straddling_footprints_roundtrip_exactly() {
        for gw in [63usize, 64, 65] {
            for x in 62usize..=66 {
                let mut g = BitGrid::with_size(192, 6);
                assert!(g.fits(Cell::new(x, 1), gw, 2), "empty grid fits {gw} at {x}");
                g.try_occupy(Cell::new(x, 1), gw, 2)
                    .unwrap_or_else(|e| panic!("occupy {gw} at {x}: {e:?}"));
                assert_eq!(g.count_occupied(), gw * 2);
                // Every cell of the span is set, the neighbours are not.
                for cx in x..x + gw {
                    assert!(g.get(Cell::new(cx, 1)), "cell {cx} unset for {gw} at {x}");
                }
                assert!(!g.get(Cell::new(x - 1, 1)));
                assert!(!g.get(Cell::new(x + gw, 1)));
                // A 1×1 probe at each span cell overlaps; outside it fits.
                assert_eq!(
                    g.try_occupy(Cell::new(x + gw / 2, 2), 1, 1),
                    Err(OccupyError::Overlap)
                );
                assert!(g.fits(Cell::new(x - 1, 1), 1, 1));
                // Anchor maps agree with the scalar oracle cell-for-cell.
                for probe_gw in [63usize, 64, 65] {
                    assert_matches_scalar(&g, probe_gw, 2);
                }
                g.clear_rect(Cell::new(x, 1), gw, 2);
                assert_eq!(g, BitGrid::with_size(192, 6));
            }
        }
    }

    #[test]
    fn nearest_anchor_crosses_word_seams() {
        let mut g = BitGrid::with_size(130, 5);
        // Occupy everything except one cell just past the first seam.
        g.set_rect(Cell::new(0, 0), 130, 5);
        g.clear_rect(Cell::new(65, 3), 1, 1);
        let anchors = g.free_anchors(1, 1);
        assert_eq!(nearest_anchor(&anchors, Cell::new(60, 3)), Some(Cell::new(65, 3)));
        assert_eq!(nearest_anchor_from(&anchors, Cell::new(63, 3), 1), Some(Cell::new(65, 3)));
        assert_eq!(nearest_anchor_from(&anchors, Cell::new(65, 3), 1), None, "min radius skips start");
    }

    #[test]
    fn tall_runs_double_across_many_words() {
        // gw > 128 exercises doubling steps larger than one word.
        let mut g = BitGrid::with_size(320, 4);
        g.set_rect(Cell::new(200, 1), 1, 1);
        for &(gw, gh) in &[(129, 1), (200, 2), (320, 1)] {
            assert_matches_scalar(&g, gw, gh);
        }
    }
}
