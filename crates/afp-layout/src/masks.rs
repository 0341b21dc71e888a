//! Grid-based observation masks for the RL agent.
//!
//! The agent's state (paper §IV-A, §IV-D2) combines the R-GCN embeddings with
//! six 32×32 feature maps:
//!
//! * `f_g` — the binary grid view of the partial placement (the floorplan's
//!   [`BitGrid`] itself),
//! * `f_w` — the wire mask: normalized HPWL increase for placing the current
//!   block at each cell (after MaskPlace \[4\]),
//! * `f_ds` — the dead-space mask: normalized increase in empty space
//!   (the paper's extension over \[4\]),
//! * `f_p` — three positional masks, one per candidate shape, marking the
//!   cells where the block fits without overlap and keeps its constraints
//!   satisfiable; these also drive invalid-action masking.
//!
//! The binary planes `f_g` and `f_p` stay row words: each positional mask is
//! the footprint's free-anchor map with the constraint window — a row ×
//! column pair of `u64`s — ANDed into its words. Bits become `f32` only at
//! the tensor boundary, [`StateMasks::to_tensor_data`] and
//! [`StateMasks::action_mask`].

use afp_circuit::{BlockId, Circuit, Shape, ShapeSet, SHAPES_PER_BLOCK};

use crate::bitgrid::{AnchorMap, BitGrid};
use crate::constraints::constraint_window;
use crate::grid::{Cell, GRID_SIZE};
use crate::metrics::{dead_space, hpwl};
use crate::placement::Floorplan;

/// A row-major `GRID_SIZE × GRID_SIZE` feature map.
pub type Mask = Vec<f32>;

/// Number of feature maps fed to the CNN state feature extractor
/// (`f_g`, `f_w`, `f_ds` and the three positional masks).
pub const STATE_CHANNELS: usize = 3 + SHAPES_PER_BLOCK;

/// Appends the `GRID_SIZE × GRID_SIZE` plane of the row words `row(y)` (bit
/// `x` of word `y` is cell `(x, y)`) as row-major `0.0` / `1.0` — where the
/// binary planes become the `f32` the tensors take.
fn extend_plane(out: &mut Vec<f32>, row: impl Fn(usize) -> u64) {
    for y in 0..GRID_SIZE {
        let word = row(y);
        out.extend((0..GRID_SIZE).map(|x| ((word >> x) & 1) as f32));
    }
}

/// The positional mask for one candidate shape: the anchors where the
/// footprint fits without overlap *and* the constraints allow it.
///
/// One [`BitGrid::free_anchors`] pass — a run-of-`gw` shift-AND over the row
/// words — with the [`constraint_window`] ANDed into its words.
pub fn positional_mask(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    shape: &Shape,
) -> AnchorMap {
    let (gw, gh) = floorplan.grid_footprint(shape);
    let (cols, rows) = constraint_window(circuit, floorplan, block, gw, gh);
    let mut anchors = floorplan.grid().free_anchors(gw, gh);
    anchors.and_window(cols, rows);
    anchors
}

/// The three positional masks `f_p`, one per candidate shape.
///
/// Candidate shapes that quantize to the same grid footprint produce
/// identical masks (the constraint window depends only on the footprint), so
/// the anchor/window pass runs once per distinct footprint.
pub fn positional_masks(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    shapes: &ShapeSet,
) -> [AnchorMap; SHAPES_PER_BLOCK] {
    let mut footprints = [(0usize, 0usize); SHAPES_PER_BLOCK];
    let mut masks: [Option<AnchorMap>; SHAPES_PER_BLOCK] = Default::default();
    for k in 0..SHAPES_PER_BLOCK {
        footprints[k] = floorplan.grid_footprint(&shapes.shape(k));
        let duplicate_of = (0..k).find(|&j| footprints[j] == footprints[k]);
        masks[k] = Some(match duplicate_of {
            Some(j) => masks[j].clone().expect("earlier mask is built"),
            None => positional_mask(circuit, floorplan, block, &shapes.shape(k)),
        });
    }
    masks.map(|m| m.expect("all masks are built"))
}

/// Panics unless `floorplan` is on the agent's `GRID_SIZE × GRID_SIZE` grid:
/// the observation planes have exactly that many cells.
fn assert_agent_grid(floorplan: &Floorplan) {
    assert_eq!(
        floorplan.grid_side(),
        GRID_SIZE,
        "agent masks need a {GRID_SIZE}×{GRID_SIZE} floorplan grid"
    );
}

/// The wire mask `f_w`: for every admissible cell, the increase in HPWL that
/// placing `block` (with `shape`) there would cause, normalized to `[0, 1]`.
/// Inadmissible cells are set to the maximum value `1.0`.
///
/// # Panics
///
/// Panics if the floorplan's grid side is not [`GRID_SIZE`].
pub fn wire_mask(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    shape: &Shape,
) -> Mask {
    delta_mask(circuit, floorplan, block, shape, hpwl)
}

/// The dead-space mask `f_ds`: normalized increase in floorplan dead space for
/// placing `block` at each cell; occupied / invalid cells are set to `1.0`
/// (paper §IV-D2).
///
/// # Panics
///
/// Panics if the floorplan's grid side is not [`GRID_SIZE`].
pub fn dead_space_mask(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    shape: &Shape,
) -> Mask {
    delta_mask(circuit, floorplan, block, shape, |_, f| dead_space(f))
}

/// Shared implementation of the wire / dead-space masks: evaluates a metric
/// delta for every admissible anchor cell and min-max normalizes it.
fn delta_mask<F>(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    shape: &Shape,
    metric: F,
) -> Mask
where
    F: Fn(&Circuit, &Floorplan) -> f64,
{
    assert_agent_grid(floorplan);
    let (gw, gh) = floorplan.grid_footprint(shape);
    let baseline = metric(circuit, floorplan);
    let mut deltas = vec![f64::NAN; GRID_SIZE * GRID_SIZE];
    let mut scratch = floorplan.clone();
    let mut min_delta = f64::MAX;
    let mut max_delta = f64::MIN;
    // One anchor pass marks every admissible cell; the metric is evaluated
    // only on set bits instead of probing all 1024 footprints.
    let anchors = floorplan.grid().free_anchors(gw, gh);
    for y in 0..anchors.height() {
        for x in anchors.iter_row(y) {
            let cell = Cell::new(x, y);
            if scratch.place(block, 0, *shape, cell).is_err() {
                continue;
            }
            let delta = metric(circuit, &scratch) - baseline;
            scratch.unplace_last();
            deltas[y * GRID_SIZE + x] = delta;
            min_delta = min_delta.min(delta);
            max_delta = max_delta.max(delta);
        }
    }
    let span = (max_delta - min_delta).max(1e-12);
    deltas
        .into_iter()
        .map(|d| {
            if d.is_nan() {
                1.0
            } else if max_delta <= min_delta {
                0.0
            } else {
                ((d - min_delta) / span) as f32
            }
        })
        .collect()
}

/// Bundles the six feature maps of the agent state for the current block.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMasks {
    /// Binary partial-placement grid `f_g`: a copy of the floorplan's grid.
    pub grid: BitGrid,
    /// Wire mask `f_w`.
    pub wire: Mask,
    /// Dead-space mask `f_ds`.
    pub dead_space: Mask,
    /// Positional masks `f_p`, one per candidate shape.
    pub positional: [AnchorMap; SHAPES_PER_BLOCK],
}

impl StateMasks {
    /// Builds all six masks for the block about to be placed. The wire and
    /// dead-space masks are computed with the most-square candidate shape,
    /// since they are shape-agnostic guidance signals.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan's grid side is not [`GRID_SIZE`].
    pub fn build(
        circuit: &Circuit,
        floorplan: &Floorplan,
        block: BlockId,
        shapes: &ShapeSet,
    ) -> Self {
        assert_agent_grid(floorplan);
        let reference_shape = shapes.shape(shapes.most_square());
        StateMasks {
            grid: floorplan.grid().clone(),
            wire: wire_mask(circuit, floorplan, block, &reference_shape),
            dead_space: dead_space_mask(circuit, floorplan, block, &reference_shape),
            positional: positional_masks(circuit, floorplan, block, shapes),
        }
    }

    /// Flattens the masks into a single `[STATE_CHANNELS, 32, 32]`-shaped
    /// buffer (channel-major) ready for the CNN feature extractor; the binary
    /// planes become `0.0` / `1.0` here.
    pub fn to_tensor_data(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(STATE_CHANNELS * GRID_SIZE * GRID_SIZE);
        extend_plane(&mut out, |y| self.grid.row(y));
        out.extend_from_slice(&self.wire);
        out.extend_from_slice(&self.dead_space);
        out.extend(self.action_mask());
        out
    }

    /// The three positional planes `f_p` as one flattened `[3, 32, 32]`
    /// buffer: `1.0` for admissible actions, `0.0` otherwise — the last three
    /// channels of [`StateMasks::to_tensor_data`].
    pub fn action_mask(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(SHAPES_PER_BLOCK * GRID_SIZE * GRID_SIZE);
        for p in &self.positional {
            extend_plane(&mut out, |y| p.row(y));
        }
        out
    }

    /// Returns `true` if no candidate shape has any admissible cell — the
    /// episode is stuck and must be terminated with the violation penalty.
    pub fn is_dead_end(&self) -> bool {
        self.positional.iter().all(AnchorMap::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Canvas;
    use afp_circuit::{generators, BlockKind, NetClass};

    fn small_circuit() -> Circuit {
        Circuit::builder("m")
            .block("A", BlockKind::CurrentMirror, 64.0, 3)
            .block("B", BlockKind::DifferentialPair, 64.0, 4)
            .net("ab", &[("A", "d"), ("B", "s")], NetClass::Signal)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_plane_tracks_occupancy() {
        let c = small_circuit();
        let shapes = afp_circuit::shapes::shape_sets(&c);
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(2.0, 1.0), Cell::new(3, 4)).unwrap();
        let data = StateMasks::build(&c, &fp, BlockId(1), &shapes[1]).to_tensor_data();
        let ones: Vec<usize> = (0..GRID_SIZE * GRID_SIZE).filter(|&i| data[i] == 1.0).collect();
        assert_eq!(ones, [4 * GRID_SIZE + 3, 4 * GRID_SIZE + 4]);
    }

    #[test]
    fn positional_mask_excludes_occupied_cells() {
        let c = small_circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(8.0, 8.0), Cell::new(0, 0)).unwrap();
        let mask = positional_mask(&c, &fp, BlockId(1), &Shape::new(4.0, 4.0));
        // Anchor inside the occupied region is invalid.
        assert!(!mask.get(0, 0));
        assert!(!mask.get(2, 2));
        // Far corner is valid.
        assert!(mask.get(20, 20));
    }

    #[test]
    fn wire_mask_prefers_cells_near_connected_blocks() {
        let c = small_circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        let wm = wire_mask(&c, &fp, BlockId(1), &Shape::new(4.0, 4.0));
        // Placing right next to block A increases HPWL less than placing at
        // the opposite corner.
        let near = wm[4]; // row 0, column 4
        let far = wm[27 * GRID_SIZE + 27];
        assert!(near < far, "near={near} far={far}");
    }

    #[test]
    fn dead_space_mask_marks_occupied_cells_as_max() {
        let c = small_circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(6.0, 6.0), Cell::new(10, 10)).unwrap();
        let ds = dead_space_mask(&c, &fp, BlockId(1), &Shape::new(4.0, 4.0));
        assert_eq!(ds[12 * GRID_SIZE + 12], 1.0);
        // Adjacent placement keeps dead space low.
        let adjacent = ds[10 * GRID_SIZE + 16];
        assert!(adjacent < 0.5, "adjacent={adjacent}");
    }

    #[test]
    fn state_masks_shape_and_dead_end_detection() {
        let circuit = generators::ota5();
        let canvas = Canvas::for_circuit(&circuit);
        let fp = Floorplan::new(canvas);
        let order = circuit.blocks_by_decreasing_area();
        let shapes = afp_circuit::shapes::shape_sets(&circuit);
        let first = order[0];
        let sm = StateMasks::build(&circuit, &fp, first, &shapes[first.index()]);
        assert_eq!(sm.to_tensor_data().len(), STATE_CHANNELS * GRID_SIZE * GRID_SIZE);
        assert!(!sm.is_dead_end());
        assert_eq!(sm.grid.count_occupied(), 0);
        let mut stuck = sm.clone();
        for p in &mut stuck.positional {
            p.and_window(0, u64::MAX);
        }
        assert!(stuck.is_dead_end());
    }

    #[test]
    #[should_panic(expected = "agent masks need a 32×32 floorplan grid")]
    fn state_masks_reject_a_64_side_floorplan() {
        let circuit = generators::ota3();
        let fp = Floorplan::with_grid_side(Canvas::for_circuit(&circuit), 64);
        let shapes = afp_circuit::shapes::shape_sets(&circuit);
        StateMasks::build(&circuit, &fp, BlockId(0), &shapes[0]);
    }

    #[test]
    #[should_panic(expected = "agent masks need a 32×32 floorplan grid")]
    fn wire_mask_rejects_a_64_side_floorplan() {
        let circuit = generators::ota3();
        let fp = Floorplan::with_grid_side(Canvas::for_circuit(&circuit), 64);
        wire_mask(&circuit, &fp, BlockId(0), &Shape::new(1.0, 1.0));
    }

    #[test]
    fn masks_values_are_normalized() {
        let c = small_circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(5, 5)).unwrap();
        for mask in [
            wire_mask(&c, &fp, BlockId(1), &Shape::new(4.0, 4.0)),
            dead_space_mask(&c, &fp, BlockId(1), &Shape::new(4.0, 4.0)),
        ] {
            assert!(mask.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
