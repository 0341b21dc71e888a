//! Sequence-pair floorplan representation.
//!
//! The metaheuristic baselines of the paper (SA, GA, PSO, and the RL-SA / RL
//! predecessors of \[13\]) operate on the classic sequence-pair topological
//! model \[14\]: two permutations `(s⁺, s⁻)` of the blocks encode the
//! left-of / below relations, and a longest-path evaluation packs the blocks
//! into a minimal enclosing rectangle.
//!
//! # Packing engines
//!
//! Packing is the innermost operation of every optimizer: a single SA run
//! packs thousands of candidate pairs, and the Table I sweep multiplies that
//! across methods, circuits and seeds. Two engines are provided:
//!
//! * [`SequencePair::pack`] / [`SequencePair::pack_into`] — the **FAST-SP**
//!   weighted-LCS evaluation ([`crate::lcs_pack`]), O(n log n) per pack via a
//!   Fenwick prefix-max sweep. `pack_into` reuses a caller-held
//!   [`PackScratch`] and output buffers, making steady-state packing
//!   allocation-free.
//! * [`SequencePair::pack_relaxation`] — the original O(n³) repeated
//!   relaxation longest-path solver. It is retained as a differential-testing
//!   oracle (`tests/properties.rs` asserts bit-identical positions on random
//!   pairs) and as the baseline `bench_snapshot`'s `pack` section measures
//!   speedups against.
//!
//! Both engines evaluate the same recurrence
//! `x[b] = max { x[a] + w[a] : a left of b }` (and the y analogue), so their
//! results agree bit-for-bit; only the asymptotics differ.
//!
//! # Grid realization
//!
//! Realizing a packed pair on the canvas grid (`pack → scale → snap →
//! nearest-fit placement`) is the dominant stage of every SA/GA/PSO cost
//! evaluation. [`realize_floorplan`] does it in one pass: reset the
//! floorplan, then snap every block in placement order. Optimizer loops hold
//! its [`PackScratch`] and output [`Floorplan`] across evaluations, so a warm
//! evaluation allocates nothing; the reused scratch also keeps the previous
//! placement order as the next sort's starting permutation
//! (`sort_placement_order`), which changes no result.

use afp_circuit::{Circuit, Shape};

use crate::grid::{Canvas, Cell};
use crate::lcs_pack::{pack_coords, PackScratch};
use crate::placement::Floorplan;
use crate::rect::Rect;

/// A sequence pair plus a chosen shape per block.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencePair {
    /// Positive sequence `s⁺` (block indices).
    pub positive: Vec<usize>,
    /// Negative sequence `s⁻` (block indices).
    pub negative: Vec<usize>,
    /// Chosen shape (width, height in µm) per block index.
    pub shapes: Vec<Shape>,
}

/// The packed realization of a sequence pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedFloorplan {
    /// Lower-left corners per block index, in µm.
    pub positions: Vec<(f64, f64)>,
    /// Rectangles per block index.
    pub rects: Vec<Rect>,
    /// Total width of the packing.
    pub width: f64,
    /// Total height of the packing.
    pub height: f64,
}

impl SequencePair {
    /// Creates the identity sequence pair (`0, 1, …, n−1` in both sequences)
    /// with the given shapes — this packs every block in a single row.
    pub fn identity(shapes: Vec<Shape>) -> Self {
        let n = shapes.len();
        SequencePair {
            positive: (0..n).collect(),
            negative: (0..n).collect(),
            shapes,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Returns `true` for an empty sequence pair.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Packs the sequence pair with the FAST-SP O(n log n) evaluation and
    /// returns block positions and the enclosing rectangle dimensions.
    ///
    /// Block `a` is left of block `b` iff `a` precedes `b` in both sequences;
    /// `a` is below `b` iff `a` follows `b` in `s⁺` and precedes it in `s⁻`.
    ///
    /// Allocates fresh scratch and output buffers; optimizer inner loops
    /// should hold a [`PackScratch`] + [`PackedFloorplan`] and call
    /// [`Self::pack_into`] instead.
    pub fn pack(&self) -> PackedFloorplan {
        let mut scratch = PackScratch::with_capacity(self.len());
        let mut out = PackedFloorplan::default();
        self.pack_into(&mut scratch, &mut out);
        out
    }

    /// Packs into caller-provided scratch and output buffers; allocation-free
    /// once the buffers have grown to the problem size.
    ///
    /// # Examples
    ///
    /// ```
    /// use afp_circuit::Shape;
    /// use afp_layout::sequence_pair::PackedFloorplan;
    /// use afp_layout::{PackScratch, SequencePair};
    ///
    /// let mut sp = SequencePair::identity(vec![Shape::new(2.0, 3.0), Shape::new(4.0, 3.0)]);
    /// let mut scratch = PackScratch::with_capacity(sp.len());
    /// let mut out = PackedFloorplan::default();
    /// sp.pack_into(&mut scratch, &mut out);
    /// assert_eq!(out.positions, vec![(0.0, 0.0), (2.0, 0.0)]);
    /// assert_eq!((out.width, out.height), (6.0, 3.0));
    ///
    /// // Reusing the same scratch, later packs allocate nothing once warm.
    /// sp.negative.reverse(); // stack the blocks instead
    /// sp.pack_into(&mut scratch, &mut out);
    /// assert_eq!(out.height, 6.0);
    /// ```
    pub fn pack_into(&self, scratch: &mut PackScratch, out: &mut PackedFloorplan) {
        let n = self.len();
        let (mut xs, mut ys) = scratch.take_coords();
        let (width, height) = pack_coords(
            &self.positive,
            &self.negative,
            &self.shapes,
            scratch,
            &mut xs,
            &mut ys,
        );
        out.width = width;
        out.height = height;
        out.positions.clear();
        out.positions.reserve(n);
        out.rects.clear();
        out.rects.reserve(n);
        for i in 0..n {
            out.positions.push((xs[i], ys[i]));
            out.rects.push(Rect::from_origin_size(
                xs[i],
                ys[i],
                self.shapes[i].width_um,
                self.shapes[i].height_um,
            ));
        }
        scratch.store_coords(xs, ys);
    }

    /// Packs with the original O(n³) repeated-relaxation longest-path solver.
    ///
    /// Kept as the differential-testing oracle for the FAST-SP engine and as
    /// the baseline of `bench_snapshot`'s `pack` section.
    pub fn pack_relaxation(&self) -> PackedFloorplan {
        let n = self.len();
        let mut pos_index = vec![0usize; n];
        let mut neg_index = vec![0usize; n];
        for (i, &b) in self.positive.iter().enumerate() {
            pos_index[b] = i;
        }
        for (i, &b) in self.negative.iter().enumerate() {
            neg_index[b] = i;
        }
        let mut x = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        // Longest-path via repeated relaxation in topological-ish order: the
        // precedence relations are acyclic, so n passes suffice.
        for _ in 0..n {
            let mut changed = false;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let before_pos = pos_index[a] < pos_index[b];
                    let before_neg = neg_index[a] < neg_index[b];
                    if before_pos && before_neg {
                        // a left of b
                        let min_x = x[a] + self.shapes[a].width_um;
                        if x[b] < min_x {
                            x[b] = min_x;
                            changed = true;
                        }
                    } else if !before_pos && before_neg {
                        // a below b
                        let min_y = y[a] + self.shapes[a].height_um;
                        if y[b] < min_y {
                            y[b] = min_y;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                Rect::from_origin_size(x[i], y[i], self.shapes[i].width_um, self.shapes[i].height_um)
            })
            .collect();
        let width = rects.iter().map(|r| r.x1).fold(0.0, f64::max);
        let height = rects.iter().map(|r| r.y1).fold(0.0, f64::max);
        PackedFloorplan {
            positions: (0..n).map(|i| (x[i], y[i])).collect(),
            rects,
            width,
            height,
        }
    }
}

/// Packs `(positive, negative, shapes)` with FAST-SP and realizes the result
/// on `canvas` at `fp`'s grid side, writing into `fp`, so that the shared
/// metric functions (HPWL, dead space, reward) apply uniformly to RL and
/// baseline results.
///
/// Block positions are snapped to the placement grid; if the packing does
/// not fit the canvas, it is scaled down uniformly first (this mirrors how a
/// real flow would shrink an over-size baseline floorplan candidate). The
/// slices are taken directly, so optimizer hot loops evaluate a candidate
/// without materializing a [`SequencePair`] (which would clone both
/// sequences and every shape per evaluation).
pub fn realize_floorplan(
    positive: &[usize],
    negative: &[usize],
    shapes: &[Shape],
    circuit: &Circuit,
    canvas: Canvas,
    scratch: &mut PackScratch,
    fp: &mut Floorplan,
) {
    let n = shapes.len();
    let (mut xs, mut ys) = scratch.take_coords();
    let (width, height) = pack_coords(positive, negative, shapes, scratch, &mut xs, &mut ys);
    let scale_x = if width > canvas.width_um {
        canvas.width_um / width
    } else {
        1.0
    };
    let scale_y = if height > canvas.height_um {
        canvas.height_um / height
    } else {
        1.0
    };
    let scale = scale_x.min(scale_y);
    fp.reset(canvas);
    // Place in increasing packed (y, x) order to keep occupancy consistent.
    let mut order = scratch.take_order();
    sort_placement_order(&mut order, &xs, &ys, n);
    // Cell sizes at the floorplan's own grid side (the division `reset` and
    // `with_grid_side` make).
    let side = fp.grid_side();
    let cw = canvas.width_um / side as f64;
    let ch = canvas.height_um / side as f64;
    for &i in &order {
        let (px, py) = (xs[i], ys[i]);
        let shape = Shape::new(shapes[i].width_um * scale, shapes[i].height_um * scale);
        let cell_x = ((px * scale) / cw).round() as usize;
        let cell_y = ((py * scale) / ch).round() as usize;
        let cell = Cell::new(cell_x.min(side - 1), cell_y.min(side - 1));
        // Grid snapping can create spurious overlaps; scan outward for the
        // nearest free anchor so every block ends up placed.
        let (gw, gh) = fp.grid_footprint(&shape);
        let target = find_nearest_fit(fp, cell, gw, gh);
        if let Some(cell) = target {
            let _ = fp.place_prefit(circuit.blocks[i].id, 0, shape, cell, gw, gh);
        }
    }
    scratch.store_coords(xs, ys);
    scratch.store_order(order);
}

/// Fills `order` with `0..n` sorted by increasing packed `(y, x)`, ties by
/// block index — the placement order of [`realize_floorplan`].
///
/// The index tie-break makes the key total and unique, so the result is
/// independent of the input permutation and of sort stability — exactly the
/// order the historical stable `sort_by(partial_cmp)` over a fresh `0..n`
/// produced (ties only arise for degenerate zero-dimension shapes; positive
/// rectangles of a valid packing cannot share a corner). That allows two
/// exact speedups:
///
/// * the previous episode's `order` is kept as the starting permutation —
///   after a local perturbation it is usually nearly sorted already, which
///   the pattern-defeating unstable sort exploits;
/// * packed coordinates are non-negative finite, where the IEEE-754 bit
///   pattern is order-isomorphic to the value, so each comparison is integer
///   compares instead of the f64 `partial_cmp` chain.
fn sort_placement_order(order: &mut Vec<usize>, xs: &[f64], ys: &[f64], n: usize) {
    // The buffer is only ever written by this function, so a length match
    // means it already holds a permutation of `0..n`.
    if order.len() != n {
        order.clear();
        order.extend(0..n);
    }
    order.sort_unstable_by(|&a, &b| {
        (ys[a].to_bits(), xs[a].to_bits(), a).cmp(&(ys[b].to_bits(), xs[b].to_bits(), b))
    });
}

/// Ring radius up to which [`find_nearest_fit`] probes cells directly with
/// word-level `fits` instead of building the full free-anchor map. On packed
/// floorplans ~60 % of snaps collide, but the nearest free anchor is almost
/// always within a couple of cells — a handful of ~2 ns probes beats the
/// O(32·log) anchor-map build by an order of magnitude.
const PROBE_RADIUS: usize = 3;

/// Finds the nearest cell to `start` where a `gw × gh` footprint fits,
/// returning `None` if the grid is exhausted.
///
/// The fast path is a single word-level [`Floorplan::fits`] probe at `start`.
/// On a miss, rings of Chebyshev radius `1..=PROBE_RADIUS` are resolved
/// from per-row anchor masks
/// ([`BitGrid::row_anchors`](crate::bitgrid::BitGrid::row_anchors), computed
/// lazily for the 7-row band and cached across radii): a whole ring row's
/// candidates are answered by one mask AND instead of per-cell probes that
/// each re-AND the `gh` covered rows. Only when those all miss — rare outside
/// near-full grids — one
/// [`BitGrid::free_anchors`](crate::bitgrid::BitGrid::free_anchors) pass
/// answers "where does this footprint fit?" for all cells at once, and
/// [`nearest_anchor_from`](crate::bitgrid::nearest_anchor_from) continues the
/// identical scan from radius `PROBE_RADIUS + 1`. Candidates are considered
/// in the historical spiral order (radius ascending, then Δy from −r to r,
/// then Δx ascending) with the per-cell
/// [`BitGrid::fits`](crate::bitgrid::BitGrid::fits) predicate exactly
/// (an anchor-mask bit ⟺ `fits`), so placements are bit-identical to the
/// historical path.
pub fn find_nearest_fit(fp: &Floorplan, start: Cell, gw: usize, gh: usize) -> Option<Cell> {
    use crate::bitgrid::{nearest_anchor_from, scan_rings};
    if fp.fits(start, gw, gh) {
        return Some(start);
    }
    let grid = fp.grid();
    // Anchor words of the probed band, keyed by Δy, computed on first use.
    let mut band = [None; 2 * PROBE_RADIUS + 1];
    let ring_hit = scan_rings(
        start,
        grid.width(),
        grid.height(),
        1..PROBE_RADIUS + 1,
        |y| *band[y + PROBE_RADIUS - start.y].get_or_insert_with(|| grid.row_anchors(y, gw, gh)),
    );
    ring_hit.or_else(|| nearest_anchor_from(&grid.free_anchors(gw, gh), start, PROBE_RADIUS + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn shapes(n: usize) -> Vec<Shape> {
        (0..n).map(|i| Shape::new(2.0 + i as f64, 3.0)).collect()
    }

    #[test]
    fn identity_packs_in_a_row() {
        let sp = SequencePair::identity(shapes(3));
        let packed = sp.pack();
        assert_eq!(packed.positions[0], (0.0, 0.0));
        assert_eq!(packed.positions[1], (2.0, 0.0));
        assert_eq!(packed.positions[2], (5.0, 0.0));
        assert_eq!(packed.width, 9.0);
        assert_eq!(packed.height, 3.0);
    }

    #[test]
    fn reversed_negative_packs_in_a_column() {
        let mut sp = SequencePair::identity(shapes(3));
        sp.negative.reverse();
        let packed = sp.pack();
        assert_eq!(packed.height, 9.0);
        assert!((packed.width - 4.0).abs() < 1e-9);
    }

    #[test]
    fn packing_has_no_overlaps() {
        let mut sp = SequencePair::identity(shapes(5));
        sp.positive = vec![2, 0, 4, 1, 3];
        sp.negative = vec![4, 1, 2, 3, 0];
        let packed = sp.pack();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(
                    !packed.rects[i].overlaps(&packed.rects[j]),
                    "blocks {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn fast_sp_matches_legacy_relaxation_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        for case in 0..100 {
            let n = rng.gen_range(1usize..24);
            let block_shapes: Vec<Shape> = (0..n)
                .map(|_| Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0)))
                .collect();
            let mut sp = SequencePair::identity(block_shapes);
            sp.positive.shuffle(&mut rng);
            sp.negative.shuffle(&mut rng);
            let fast = sp.pack();
            let legacy = sp.pack_relaxation();
            assert_eq!(fast.positions, legacy.positions, "case {case} positions diverge");
            assert_eq!(fast.width, legacy.width, "case {case} width diverges");
            assert_eq!(fast.height, legacy.height, "case {case} height diverges");
        }
    }

    #[test]
    fn pack_into_reuses_buffers_and_matches_pack() {
        let mut scratch = PackScratch::new();
        let mut out = PackedFloorplan::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(2usize..16);
            let mut sp = SequencePair::identity(
                (0..n)
                    .map(|_| Shape::new(rng.gen_range(1.0..9.0), rng.gen_range(1.0..9.0)))
                    .collect(),
            );
            sp.positive.shuffle(&mut rng);
            sp.negative.shuffle(&mut rng);
            sp.pack_into(&mut scratch, &mut out);
            assert_eq!(out, sp.pack());
        }
    }

    #[test]
    fn realize_floorplan_places_every_block() {
        let circuit = generators::ota5();
        let canvas = Canvas::for_circuit(&circuit);
        let shapes: Vec<Shape> = circuit
            .blocks
            .iter()
            .map(|b| Shape::from_area_and_aspect(b.area_um2, 1.0))
            .collect();
        let sp = SequencePair::identity(shapes);
        let mut fp = Floorplan::new(canvas);
        realize_floorplan(
            &sp.positive,
            &sp.negative,
            &sp.shapes,
            &circuit,
            canvas,
            &mut PackScratch::new(),
            &mut fp,
        );
        assert_eq!(fp.num_placed(), circuit.num_blocks());
    }

    #[test]
    fn empty_sequence_pair() {
        let sp = SequencePair::identity(Vec::new());
        assert!(sp.is_empty());
        let packed = sp.pack();
        assert_eq!(packed.width, 0.0);
        assert_eq!(packed.height, 0.0);
    }
}
