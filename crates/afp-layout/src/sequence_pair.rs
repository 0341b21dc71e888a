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
//! * `SequencePair::pack_relaxation` — the original O(n³) repeated
//!   relaxation longest-path solver, compiled only for tests or under the
//!   `legacy-pack` feature. It is retained as a differential-testing oracle
//!   (`tests/properties.rs` asserts bit-identical positions on random pairs)
//!   and as the baseline `bench_snapshot`'s `pack` section measures speedups
//!   against.
//!
//! Both engines evaluate the same recurrence
//! `x[b] = max { x[a] + w[a] : a left of b }` (and the y analogue), so their
//! results agree bit-for-bit; only the asymptotics differ.
//!
//! # Grid realization engines
//!
//! Realizing a packed pair on the 32×32 canvas (`pack → scale → snap →
//! nearest-fit placement`) is the dominant stage of every SA/GA/PSO cost
//! evaluation, yet a typical perturbation moves only 1–2 blocks — most
//! re-snaps recompute identical placements. Two entry points are provided:
//!
//! * [`realize_floorplan`] — the stateless full path: reset the floorplan and
//!   snap every block.
//! * [`realize_floorplan_incremental`] — the same computation through a
//!   [`RealizeCache`] that remembers the previous episode's snap decisions
//!   (packed position, effective shape, footprint, chosen anchor, and the
//!   occupancy the decision was made against, per placement-order position):
//!   * the longest placement-order **prefix** whose snap inputs are unchanged
//!     is kept placed verbatim — zero work per block;
//!   * later positions whose inputs are unchanged *and* whose occupancy
//!     matches the cached pre-decision grid are **replayed** as one direct
//!     [`BitGrid::try_occupy`](crate::bitgrid::BitGrid::try_occupy) call —
//!     no µm→cell divides, no ring scan;
//!   * everything else re-runs the full snap search.
//!
//! ## Incremental invariants (when the cache must be invalidated)
//!
//! Correctness rests on one induction: a snap decision at placement-order
//! position `k` is a deterministic function of (a) the block's snap inputs —
//! block id, packed position, effective shape, canvas scale — and (b) the
//! grid occupancy left by positions `0..k`. The cache may therefore reuse a
//! decision only while both are provably unchanged, and it re-checks both on
//! every call; callers never need to invalidate on candidate perturbations,
//! undo, crossover, or shape changes — those flow into the diff. The cases a
//! caller **must** handle:
//!
//! * The `fp` buffer passed in must be exactly the floorplan produced by the
//!   previous [`realize_floorplan_incremental`] call with the same cache.
//!   Mutating it between calls (placing, unplacing, resetting) breaks the
//!   prefix-retention step. The cache fingerprints `fp` (canvas, placement
//!   count, full occupancy bitboard) and falls back to a full rebuild on any
//!   mismatch, so realistic interleavings degrade to correct-but-slow; a
//!   mutation that preserves all three fingerprints but alters placement
//!   records requires an explicit [`RealizeCache::invalidate`].
//! * Reusing one cache across different circuits is safe only because block
//!   ids participate in the diff; reusing it across *problems* whose circuits
//!   share ids but differ in connectivity is fine for realization (snap
//!   inputs are id + geometry only) but the caller owns metric consistency.
//! * Canvas or scale changes, different block counts, and a never-filled
//!   cache all degrade to a full rebuild automatically.

use serde::{Deserialize, Serialize};

use afp_circuit::{BlockId, Circuit, Shape};

use crate::bitgrid::BitGrid;
use crate::grid::{Canvas, Cell};
use crate::lcs_pack::{pack_coords, PackScratch};
use crate::placement::Floorplan;
use crate::rect::Rect;

/// A sequence pair plus a chosen shape per block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// the baseline of `bench_snapshot`'s `pack` section; compiled only for
    /// tests or when the `legacy-pack` feature is enabled.
    #[cfg(any(test, feature = "legacy-pack"))]
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

    /// Converts the packed sequence pair into a [`Floorplan`] on the circuit's
    /// canvas, so that the shared metric functions (HPWL, dead space, reward)
    /// can be applied uniformly to RL and baseline results.
    ///
    /// Block positions are snapped to the placement grid; if the packing does
    /// not fit the canvas, it is scaled down uniformly first (this mirrors how
    /// a real flow would shrink an over-size baseline floorplan candidate).
    pub fn to_floorplan(&self, circuit: &Circuit, canvas: Canvas) -> Floorplan {
        let mut scratch = PackScratch::with_capacity(self.len());
        let mut fp = Floorplan::new(canvas);
        self.to_floorplan_into(circuit, canvas, &mut scratch, &mut fp);
        fp
    }

    /// [`Self::to_floorplan`] with caller-held buffers: the pack scratch and
    /// the output floorplan are reused, so a metaheuristic evaluating
    /// thousands of candidates allocates only inside this call's sort.
    pub fn to_floorplan_into(
        &self,
        circuit: &Circuit,
        canvas: Canvas,
        scratch: &mut PackScratch,
        fp: &mut Floorplan,
    ) {
        realize_floorplan(&self.positive, &self.negative, &self.shapes, circuit, canvas, scratch, fp);
    }
}

/// Packs `(positive, negative, shapes)` with FAST-SP and realizes the result
/// on the circuit's canvas, writing into `fp`.
///
/// This slice-based entry point lets optimizer hot loops evaluate a candidate
/// without materializing a [`SequencePair`] (which would clone both sequences
/// and every shape per evaluation).
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
    // Place in increasing x, y order to keep occupancy consistent.
    let mut order = scratch.take_order();
    sort_placement_order(&mut order, &xs, &ys, n);
    // Cell sizes at the floorplan's own grid side: identical bits to
    // `canvas.cell_width_um()` on the default 32×32 grid (same division).
    let side = fp.grid_side();
    let cw = canvas.width_um / side as f64;
    let ch = canvas.height_um / side as f64;
    for &i in &order {
        let (px, py) = (xs[i], ys[i]);
        let shape = Shape::new(shapes[i].width_um * scale, shapes[i].height_um * scale);
        let cell_x = ((px * scale) / cw).round() as usize;
        let cell_y = ((py * scale) / ch).round() as usize;
        let cell = crate::grid::Cell::new(cell_x.min(side - 1), cell_y.min(side - 1));
        // Grid snapping can create spurious overlaps; scan outward for the
        // nearest free anchor so every block ends up placed.
        let (gw, gh) = fp.grid_footprint(&shape);
        let target = find_nearest_fit(fp, cell, gw, gh);
        if let Some(cell) = target {
            let _ = fp.place(BlockId(circuit.blocks[i].id.index()), 0, shape, cell);
        }
    }
    scratch.store_coords(xs, ys);
    scratch.store_order(order);
}

/// Fills `order` with `0..n` sorted by increasing packed `(y, x)`, ties by
/// block index — the placement order both realization paths share.
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

/// One cached snap decision of the incremental realization engine: the inputs
/// that determined it (block, packed position, effective shape), the decision
/// itself (scaled shape, footprint, anchor), and the occupancy the snap
/// search ran against — replaying the anchor is valid only when the current
/// grid is bit-identical to `grid_before`.
#[derive(Debug, Clone, Copy)]
struct SnapStep {
    /// Packed lower-left corner in µm, before canvas scaling.
    px: f64,
    /// See `px`.
    py: f64,
    /// Effective (unscaled) shape the decision was derived from. The placed
    /// (canvas-scaled) shape is recomputed as `shape × scale` on replay —
    /// two multiplies beat 16 cached bytes per step.
    shape: Shape,
    /// Block index (into `shapes`) at this placement-order position.
    block: u32,
    /// The block's circuit id (guards cache reuse across circuits).
    id: u32,
    /// Grid footprint of the scaled shape (grid cells fit in a byte).
    gw: u8,
    /// See `gw`.
    gh: u8,
    /// Snap-search start: the grid cell the packed position rounds to. Two
    /// episodes whose raw coordinates differ but round to the same start make
    /// identical decisions — the diff compares at this level.
    start_x: u8,
    /// See `start_x`.
    start_y: u8,
    /// Snap result: anchor cell, or [`SnapStep::NO_ANCHOR`] in `anchor_x`
    /// when the grid was exhausted.
    anchor_x: u8,
    /// See `anchor_x`.
    anchor_y: u8,
}

impl SnapStep {
    /// `anchor_x` sentinel for "no anchor found". Cells are stored in a byte,
    /// so the incremental engine supports grid sides up to 255 exclusive —
    /// far above the 128-cell side the large-n tier tops out at.
    const NO_ANCHOR: u8 = u8::MAX;

    #[inline]
    fn start(&self) -> Cell {
        Cell::new(self.start_x as usize, self.start_y as usize)
    }

    #[inline]
    fn anchor(&self) -> Option<Cell> {
        (self.anchor_x != Self::NO_ANCHOR)
            .then(|| Cell::new(self.anchor_x as usize, self.anchor_y as usize))
    }

    /// Whether two steps wrote the same footprint to the grid — the per-step
    /// invariant behind the replay chain: while every position so far has an
    /// unchanged footprint, the occupancy equals the cached episode's.
    #[inline]
    fn same_footprint(&self, other: &SnapStep) -> bool {
        self.anchor_x == other.anchor_x
            && self.anchor_y == other.anchor_y
            && self.gw == other.gw
            && self.gh == other.gh
    }
}

/// Cached state of [`realize_floorplan_incremental`]: the previous episode's
/// snap decisions plus a fingerprint of the floorplan they produced. See the
/// module docs for the invariants; [`RealizeCache::invalidate`] forces the
/// next call onto the full path.
///
/// The public counters make the engine observable: `kept_blocks` (prefix
/// placements retained with zero work), `replayed_blocks` (direct
/// `try_occupy` replays), `searched_blocks` (full snap searches) and
/// `full_rebuilds` partition the work across `episodes` calls; the `last_*`
/// fields describe the most recent call only.
#[derive(Debug, Clone, Default)]
pub struct RealizeCache {
    /// Snap decisions of the previous episode, in placement order; updated in
    /// place as the new episode is realized.
    steps: Vec<SnapStep>,
    /// Canvas of the cached episode.
    canvas: Option<Canvas>,
    /// Canvas scale factor of the cached episode.
    scale: f64,
    /// Occupancy after the cached episode — fingerprint of the `fp` buffer.
    final_grid: BitGrid,
    /// Number of blocks actually placed by the cached episode.
    placed_count: usize,
    /// Incremental realizations performed with this cache.
    pub episodes: u64,
    /// Episodes that fell back to a from-scratch realization.
    pub full_rebuilds: u64,
    /// Blocks kept placed verbatim (unchanged placement-order prefix).
    pub kept_blocks: u64,
    /// Blocks replayed as a direct `try_occupy` (no divides, no ring scan).
    pub replayed_blocks: u64,
    /// Blocks that re-ran the full snap search.
    pub searched_blocks: u64,
    /// Prefix length (blocks kept) of the most recent call.
    pub last_kept: usize,
    /// Replayed blocks of the most recent call.
    pub last_replayed: usize,
    /// Searched blocks of the most recent call.
    pub last_searched: usize,
}

impl RealizeCache {
    /// Creates an empty cache; the first realization is a full rebuild.
    pub fn new() -> Self {
        RealizeCache::default()
    }

    /// Drops the cached episode, forcing the next call onto the full path.
    /// Needed only when the floorplan buffer was mutated externally in a way
    /// the fingerprint cannot detect (module docs); perturb/undo/crossover of
    /// the candidate itself never require it.
    pub fn invalidate(&mut self) {
        self.canvas = None;
        self.steps.clear();
    }

    /// Fraction of blocks across all episodes that skipped the snap search
    /// (kept or replayed), or 0.0 before the first episode.
    pub fn hit_rate(&self) -> f64 {
        let total = self.kept_blocks + self.replayed_blocks + self.searched_blocks;
        if total == 0 {
            return 0.0;
        }
        (self.kept_blocks + self.replayed_blocks) as f64 / total as f64
    }
}

/// [`realize_floorplan`] through a [`RealizeCache`]: bit-identical output,
/// but blocks whose snap inputs and observed occupancy are unchanged from the
/// previous episode skip the snap search (module docs). The FAST-SP pack is
/// the same full sweep ([`pack_coords`]) the stateless path runs. `fp` must
/// be the floorplan produced by the previous call with this cache (or any
/// floorplan if the cache is fresh/invalidated — the fingerprint check
/// degrades mismatches to a full rebuild).
///
/// # Examples
///
/// ```
/// use afp_circuit::{generators, Shape};
/// use afp_layout::sequence_pair::{realize_floorplan, realize_floorplan_incremental};
/// use afp_layout::{Canvas, Floorplan, PackScratch, RealizeCache};
///
/// let circuit = generators::ota5();
/// let canvas = Canvas::for_circuit(&circuit);
/// let n = circuit.num_blocks();
/// let mut shapes: Vec<Shape> = circuit
///     .blocks
///     .iter()
///     .map(|b| Shape::from_area_and_aspect(b.area_um2, 1.0))
///     .collect();
/// let positive: Vec<usize> = (0..n).collect();
/// let negative: Vec<usize> = (0..n).collect();
///
/// let mut scratch = PackScratch::with_capacity(n);
/// let mut fp = Floorplan::new(canvas);
/// let mut cache = RealizeCache::new();
/// realize_floorplan_incremental(
///     &positive, &negative, &shapes, &circuit, canvas, &mut scratch, &mut fp, &mut cache,
/// );
///
/// // Perturb one block's shape: only the dirty suffix re-snaps, and the
/// // result stays bit-identical to a from-scratch realization.
/// shapes[2] = Shape::from_area_and_aspect(circuit.blocks[2].area_um2, 2.0);
/// realize_floorplan_incremental(
///     &positive, &negative, &shapes, &circuit, canvas, &mut scratch, &mut fp, &mut cache,
/// );
/// let mut fresh = Floorplan::new(canvas);
/// realize_floorplan(
///     &positive, &negative, &shapes, &circuit, canvas, &mut PackScratch::new(), &mut fresh,
/// );
/// assert_eq!(fp, fresh);
/// assert!(cache.hit_rate() > 0.0, "the unchanged prefix was kept");
/// ```
#[allow(clippy::too_many_arguments)]
pub fn realize_floorplan_incremental(
    positive: &[usize],
    negative: &[usize],
    shapes: &[Shape],
    circuit: &Circuit,
    canvas: Canvas,
    scratch: &mut PackScratch,
    fp: &mut Floorplan,
    cache: &mut RealizeCache,
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

    // Identical placement order to the full path: increasing (y, x).
    let mut order = scratch.take_order();
    sort_placement_order(&mut order, &xs, &ys, n);

    cache.episodes += 1;
    cache.last_kept = 0;
    cache.last_replayed = 0;
    cache.last_searched = 0;
    // The cached episode is reusable only if it was produced under the same
    // canvas/scale/block count AND `fp` still fingerprints as its output.
    let reusable = cache.canvas == Some(canvas)
        && cache.scale == scale
        && cache.steps.len() == n
        && fp.canvas() == &canvas
        && fp.num_placed() == cache.placed_count
        && *fp.grid() == cache.final_grid;

    // Hoisted once per episode (bit-identical to the per-block calls the
    // full path's loop makes — same operands, same operations).
    let side = fp.grid_side();
    assert!(
        side < SnapStep::NO_ANCHOR as usize,
        "incremental realization stores cells in a byte; grid side {side} too large"
    );
    let cw = canvas.width_um / side as f64;
    let ch = canvas.height_um / side as f64;
    let grid_max = side - 1;
    // The snap-search start cell of block `i` — the µm→cell rounding of the
    // full path, verbatim.
    let start_of = |px: f64, py: f64| -> Cell {
        let cell_x = ((px * scale) / cw).round() as usize;
        let cell_y = ((py * scale) / ch).round() as usize;
        Cell::new(cell_x.min(grid_max), cell_y.min(grid_max))
    };

    // Phase 1 — longest placement-order prefix whose snap inputs are
    // unchanged: those placements are kept verbatim; everything after is
    // popped off the floorplan (placements are stored in order, so dropping
    // the dirty suffix is a stack pop). "Unchanged" is judged at the
    // decision level: same block/shape and a packed position that rounds to
    // the same start cell — sub-cell coordinate drift stays clean.
    let mut prefix = 0usize;
    if reusable {
        while prefix < n {
            let i = order[prefix];
            let s = &mut cache.steps[prefix];
            if s.block as usize != i
                || s.id as usize != circuit.blocks[i].id.index()
                || s.shape != shapes[i]
            {
                break;
            }
            if s.px != xs[i] || s.py != ys[i] {
                if start_of(xs[i], ys[i]) != s.start() {
                    break;
                }
                // Same decision from drifted coordinates: keep the placement,
                // refresh the raw coordinates so the next episode's diff hits
                // the cheap bitwise compare again.
                s.px = xs[i];
                s.py = ys[i];
            }
            prefix += 1;
        }
    }
    if prefix == 0 {
        fp.reset(canvas);
        if !reusable {
            cache.full_rebuilds += 1;
            cache.steps.clear();
        }
    } else {
        let keep = cache.steps[..prefix]
            .iter()
            .filter(|s| s.anchor_x != SnapStep::NO_ANCHOR)
            .count();
        fp.truncate_placed(keep);
    }

    // Phase 2 — dirty suffix, updating the cached steps in place. While
    // every position so far re-placed the exact cached footprint, the
    // occupancy still equals the cached episode's (`grid_matches` chain), so
    // a position with unchanged snap inputs replays the cached anchor as one
    // `try_occupy` — no divides, no search. Once a footprint diverges, later
    // positions fall back to the search; a position with an unchanged shape
    // still reuses the cached scaled shape and footprint.
    let mut grid_matches = reusable;
    let full_rebuild = cache.steps.len() != n;
    for pos in prefix..n {
        let i = order[pos];
        let id = circuit.blocks[i].id;
        let (px, py) = (xs[i], ys[i]);
        let mut start = None;
        let mut reuse_shape = None;
        if !full_rebuild {
            let s = &cache.steps[pos];
            if s.block as usize == i && s.id as usize == id.index() && s.shape == shapes[i] {
                let st = if s.px == px && s.py == py {
                    s.start()
                } else {
                    start_of(px, py)
                };
                // Same shape (and episode-constant scale) ⇒ the cached
                // footprint is still exact; the scaled shape recomputes to
                // the same bits.
                let (gw, gh) = (s.gw as usize, s.gh as usize);
                reuse_shape = Some((gw, gh));
                if grid_matches && st == s.start() {
                    if let Some(cell) = s.anchor() {
                        let scaled =
                            Shape::new(shapes[i].width_um * scale, shapes[i].height_um * scale);
                        let replayed = fp.place_prefit(id, 0, scaled, cell, gw, gh);
                        debug_assert!(replayed.is_ok(), "replayed anchor must still fit");
                    }
                    let s = &mut cache.steps[pos];
                    s.px = px;
                    s.py = py;
                    cache.replayed_blocks += 1;
                    cache.last_replayed += 1;
                    continue;
                }
                start = Some(st);
            }
        }
        let scaled = Shape::new(shapes[i].width_um * scale, shapes[i].height_um * scale);
        let (gw, gh) = reuse_shape.unwrap_or_else(|| fp.grid_footprint(&scaled));
        let start = start.unwrap_or_else(|| start_of(px, py));
        let anchor = find_nearest_fit(fp, start, gw, gh);
        if let Some(cell) = anchor {
            let _ = fp.place_prefit(id, 0, scaled, cell, gw, gh);
        }
        let step = SnapStep {
            px,
            py,
            shape: shapes[i],
            block: i as u32,
            id: id.index() as u32,
            gw: gw as u8,
            gh: gh as u8,
            start_x: start.x as u8,
            start_y: start.y as u8,
            anchor_x: anchor.map_or(SnapStep::NO_ANCHOR, |c| c.x as u8),
            anchor_y: anchor.map_or(0, |c| c.y as u8),
        };
        if full_rebuild {
            cache.steps.push(step);
        } else {
            grid_matches = grid_matches && step.same_footprint(&cache.steps[pos]);
            cache.steps[pos] = step;
        }
        cache.searched_blocks += 1;
        cache.last_searched += 1;
    }
    cache.canvas = Some(canvas);
    cache.scale = scale;
    cache.final_grid.clone_from(fp.grid());
    cache.placed_count = fp.num_placed();
    cache.kept_blocks += prefix as u64;
    cache.last_kept = prefix;
    scratch.store_coords(xs, ys);
    scratch.store_order(order);
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
/// then Δx ascending) with the per-cell [`BitGrid::fits`] predicate exactly
/// (an anchor-mask bit ⟺ `fits`), so placements are bit-identical to the
/// historical path.
pub fn find_nearest_fit(
    fp: &Floorplan,
    start: crate::grid::Cell,
    gw: usize,
    gh: usize,
) -> Option<crate::grid::Cell> {
    use crate::bitgrid::{first_set_in_range, row_bit, MAX_WPR};
    if fp.fits(start, gw, gh) {
        return Some(start);
    }
    let grid = fp.grid();
    let width = grid.width() as isize;
    let height = grid.height() as isize;
    let wpr = grid.words_per_row();
    const BAND_ROWS: usize = 2 * PROBE_RADIUS + 1;
    if wpr == 1 {
        // One-word rows (every grid up to 64 columns, the 32×32 default
        // included): each band row's anchor mask is a single u64 held by
        // value, sparing the multi-word band buffer and its per-row slices.
        let mut band = [0u64; BAND_ROWS];
        let mut filled = [false; BAND_ROWS];
        for radius in 1..=(PROBE_RADIUS as isize) {
            for dy in -radius..=radius {
                let y = start.y as isize + dy;
                if !(0..height).contains(&y) {
                    continue;
                }
                let bi = (dy + PROBE_RADIUS as isize) as usize;
                if !filled[bi] {
                    grid.row_anchors_into(
                        y as usize,
                        gw,
                        gh,
                        std::slice::from_mut(&mut band[bi]),
                    );
                    filled[bi] = true;
                }
                let anchors = band[bi];
                if anchors == 0 {
                    continue;
                }
                if dy.abs() == radius {
                    // Ring boundary row: all Δx ascending ⇒ the lowest set
                    // anchor bit in the clamped window [x − r, x + r].
                    let lo = (start.x as isize - radius).max(0) as usize;
                    let hi = ((start.x as isize + radius).min(width - 1)) as usize;
                    let window = if hi - lo + 1 == 64 {
                        !0u64
                    } else {
                        ((1u64 << (hi - lo + 1)) - 1) << lo
                    };
                    let hits = anchors & window;
                    if hits != 0 {
                        return Some(Cell::new(hits.trailing_zeros() as usize, y as usize));
                    }
                } else {
                    // Interior row: only Δx = −r then Δx = +r are on the ring.
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
        let anchors = grid.free_anchors(gw, gh);
        return crate::bitgrid::nearest_anchor_from(&anchors, start, PROBE_RADIUS + 1);
    }
    // Anchor masks of the probed band, keyed by Δy, filled on first use —
    // a stack buffer of `MAX_WPR` words per band row.
    let mut band = [0u64; BAND_ROWS * MAX_WPR];
    let mut filled = [false; BAND_ROWS];
    for radius in 1..=(PROBE_RADIUS as isize) {
        for dy in -radius..=radius {
            let y = start.y as isize + dy;
            if !(0..height).contains(&y) {
                continue;
            }
            let bi = (dy + PROBE_RADIUS as isize) as usize;
            if !filled[bi] {
                grid.row_anchors_into(y as usize, gw, gh, &mut band[bi * MAX_WPR..]);
                filled[bi] = true;
            }
            let anchors = &band[bi * MAX_WPR..bi * MAX_WPR + wpr];
            if anchors.iter().all(|&w| w == 0) {
                continue;
            }
            if dy.abs() == radius {
                // Ring boundary row: all Δx ascending ⇒ the lowest set
                // anchor bit in the clamped window [x − r, x + r].
                let lo = (start.x as isize - radius).max(0) as usize;
                let hi = ((start.x as isize + radius).min(width - 1)) as usize;
                if let Some(x) = first_set_in_range(anchors, lo, hi) {
                    return Some(Cell::new(x, y as usize));
                }
            } else {
                // Interior row: only Δx = −r then Δx = +r are on the ring.
                let left = start.x as isize - radius;
                if left >= 0 && row_bit(anchors, left as usize) {
                    return Some(Cell::new(left as usize, y as usize));
                }
                let right = start.x as isize + radius;
                if right < width && row_bit(anchors, right as usize) {
                    return Some(Cell::new(right as usize, y as usize));
                }
            }
        }
    }
    let anchors = grid.free_anchors(gw, gh);
    crate::bitgrid::nearest_anchor_from(&anchors, start, PROBE_RADIUS + 1)
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
    fn to_floorplan_places_every_block() {
        let circuit = generators::ota5();
        let canvas = Canvas::for_circuit(&circuit);
        let shapes: Vec<Shape> = circuit
            .blocks
            .iter()
            .map(|b| Shape::from_area_and_aspect(b.area_um2, 1.0))
            .collect();
        let sp = SequencePair::identity(shapes);
        let fp = sp.to_floorplan(&circuit, canvas);
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

    // ----- dirty-set computation of the incremental realization engine -----
    //
    // A 4-block circuit on a 32 µm canvas (1 µm cells) with 4×4 µm shapes
    // packs rows/columns exactly on the grid with scale = 1, so each test can
    // predict precisely which placement-order positions go dirty.

    fn incremental_fixture() -> (afp_circuit::Circuit, Canvas, Vec<usize>, Vec<usize>, Vec<Shape>) {
        use afp_circuit::{BlockKind, NetClass};
        let circuit = afp_circuit::Circuit::builder("dirtyset")
            .block("A", BlockKind::CurrentMirror, 16.0, 2)
            .block("B", BlockKind::CurrentMirror, 16.0, 2)
            .block("C", BlockKind::CurrentMirror, 16.0, 2)
            .block("D", BlockKind::CurrentMirror, 16.0, 2)
            .net("n", &[("A", "d"), ("B", "d")], NetClass::Signal)
            .build()
            .expect("fixture circuit is valid");
        let canvas = Canvas::new(32.0, 32.0);
        let positive: Vec<usize> = (0..4).collect();
        let negative: Vec<usize> = (0..4).collect();
        let shapes: Vec<Shape> = (0..4).map(|_| Shape::new(4.0, 4.0)).collect();
        (circuit, canvas, positive, negative, shapes)
    }

    fn realize_both(
        circuit: &afp_circuit::Circuit,
        canvas: Canvas,
        positive: &[usize],
        negative: &[usize],
        shapes: &[Shape],
        scratch: &mut PackScratch,
        fp: &mut Floorplan,
        cache: &mut super::RealizeCache,
    ) {
        realize_floorplan_incremental(
            positive, negative, shapes, circuit, canvas, scratch, fp, cache,
        );
        // Every call must stay bit-identical to a fresh full realization.
        let mut fresh_scratch = PackScratch::new();
        let mut fresh = Floorplan::new(canvas);
        realize_floorplan(
            positive,
            negative,
            shapes,
            circuit,
            canvas,
            &mut fresh_scratch,
            &mut fresh,
        );
        assert_eq!(*fp, fresh, "incremental realization diverged from full");
    }

    #[test]
    fn dirty_set_single_block_move_marks_only_the_suffix() {
        let (circuit, canvas, positive, negative, shapes) = incremental_fixture();
        let mut scratch = PackScratch::new();
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.full_rebuilds, 1);
        assert_eq!(cache.last_searched, 4);

        // Swap the last two blocks in both sequences: blocks 0 and 1 keep
        // their packed positions (prefix), blocks 2 and 3 trade places.
        let (mut positive, mut negative) = (positive, negative);
        positive.swap(2, 3);
        negative.swap(2, 3);
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.last_kept, 2, "unchanged prefix must be kept");
        assert_eq!(cache.last_searched, 2, "exactly the moved blocks re-snap");
        assert_eq!(cache.full_rebuilds, 1, "no fallback for a local move");
    }

    #[test]
    fn dirty_set_shape_swap_marks_the_block_and_its_downstream() {
        let (circuit, canvas, positive, negative, shapes) = incremental_fixture();
        let mut scratch = PackScratch::new();
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );

        // Widening block 1 shifts the packed x of blocks 2 and 3: placement
        // order position 1 and everything after goes dirty.
        let mut shapes = shapes;
        shapes[1] = Shape::new(5.0, 4.0);
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.last_kept, 1);
        assert_eq!(cache.last_searched, 3);
        assert_eq!(cache.last_replayed, 0);
    }

    #[test]
    fn dirty_set_height_only_change_replays_unmoved_downstream_blocks() {
        let (circuit, canvas, positive, negative, shapes) = incremental_fixture();
        let mut scratch = PackScratch::new();
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );

        // Shrinking block 1's height (same grid footprint: ceil(3.5) = 4)
        // changes its snap inputs but nobody's packed position and nobody's
        // occupancy: block 1 re-snaps, blocks 2 and 3 are pure replays.
        let mut shapes = shapes;
        shapes[1] = Shape::new(4.0, 3.5);
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.last_kept, 1);
        assert_eq!(cache.last_searched, 1, "only the reshaped block searches");
        assert_eq!(cache.last_replayed, 2, "unmoved blocks replay via try_occupy");
    }

    #[test]
    fn dirty_set_order_swap_reordering_placement_resnaps_from_the_swap() {
        let (circuit, canvas, positive, negative, shapes) = incremental_fixture();
        // Column layout: reversed negative stacks blocks bottom-to-top, so
        // placement order is the reverse positive order.
        let negative: Vec<usize> = negative.into_iter().rev().collect();
        let mut scratch = PackScratch::new();
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );

        // Swapping the first two blocks of the positive sequence swaps the
        // two *topmost* blocks of the column — placement order positions 2
        // and 3. The two bottom blocks are an unchanged prefix.
        let mut positive = positive;
        positive.swap(0, 1);
        let negative: Vec<usize> = {
            let mut n = negative;
            let a = n.iter().position(|&b| b == 0).unwrap();
            let b = n.iter().position(|&b| b == 1).unwrap();
            n.swap(a, b);
            n
        };
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.last_kept, 2);
        assert_eq!(cache.last_searched, 2);
    }

    #[test]
    fn dirty_set_full_fallback_on_canvas_change_and_external_mutation() {
        let (circuit, canvas, positive, negative, shapes) = incremental_fixture();
        let mut scratch = PackScratch::new();
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        realize_both(
            &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.full_rebuilds, 1);

        // A different canvas invalidates every snap decision.
        let smaller = Canvas::new(24.0, 24.0);
        realize_both(
            &circuit, smaller, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.full_rebuilds, 2, "canvas change falls back to full");
        assert_eq!(cache.last_kept, 0);
        assert_eq!(cache.last_searched, 4);

        // External mutation of the floorplan buffer trips the fingerprint.
        fp.unplace_last();
        realize_both(
            &circuit, smaller, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.full_rebuilds, 3, "fingerprint mismatch falls back");

        // An explicit invalidation also forces the full path.
        cache.invalidate();
        realize_both(
            &circuit, smaller, &positive, &negative, &shapes, &mut scratch, &mut fp, &mut cache,
        );
        assert_eq!(cache.full_rebuilds, 4);
        assert_eq!(cache.hit_rate(), cache.kept_blocks as f64
            / (cache.kept_blocks + cache.replayed_blocks + cache.searched_blocks) as f64);
    }

    #[test]
    fn incremental_realize_matches_full_on_random_walks() {
        let circuit = generators::bias19();
        let canvas = Canvas::for_circuit(&circuit);
        let n = circuit.num_blocks();
        let mut rng = StdRng::seed_from_u64(0x19C);
        let mut positive: Vec<usize> = (0..n).collect();
        let mut negative: Vec<usize> = (0..n).collect();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        let mut shapes: Vec<Shape> = (0..n)
            .map(|_| Shape::new(rng.gen_range(2.0..20.0), rng.gen_range(2.0..20.0)))
            .collect();
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        let mut cache = super::RealizeCache::new();
        for _ in 0..300 {
            match rng.gen_range(0..4) {
                0 => {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    positive.swap(i, j);
                }
                1 => {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    negative.swap(i, j);
                }
                2 => {
                    let b = rng.gen_range(0..n);
                    shapes[b] = Shape::new(rng.gen_range(2.0..20.0), rng.gen_range(2.0..20.0));
                }
                _ => {} // re-realize an identical episode (everything kept)
            }
            realize_both(
                &circuit, canvas, &positive, &negative, &shapes, &mut scratch, &mut fp,
                &mut cache,
            );
        }
        assert!(cache.kept_blocks + cache.replayed_blocks > 0, "cache never hit");
    }
}
