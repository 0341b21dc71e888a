//! Property-based tests over the core data structures and invariants, using
//! randomly generated circuits, placements and sequence pairs.

use proptest::prelude::*;

use analog_floorplan::circuit::{Block, BlockId, BlockKind, Shape};
use analog_floorplan::circuit::{node_features, NODE_FEATURE_DIM};
use analog_floorplan::layout::{metrics, Canvas, Cell, Floorplan, SequencePair, GRID_SIZE};
use analog_floorplan::rl::{FloorplanAgent, PpoTrainer};
use analog_floorplan::tensor::optim::Adam;
use analog_floorplan::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod nn_oracle;
use nn_oracle::{
    check_batched, check_dense_forward, check_strided, reference_ppo_update, seeded_small_rollouts,
    Geometry, Kernel, Strided,
};

/// Scalar `Vec<bool>` occupancy grid — the pre-bitboard reference
/// implementation of `fits`, the spiral nearest-fit scan and the positional
/// free-space test, retained as the differential oracle for the `BitGrid`
/// word-level engine (mirroring how `SequencePair::pack_relaxation` oracles
/// FAST-SP). The side is parametric so the same oracle also checks grids up
/// to the 64-column one-word maximum.
struct ScalarGrid {
    side: usize,
    occ: Vec<bool>,
}

impl ScalarGrid {
    fn new() -> Self {
        ScalarGrid::with_side(GRID_SIZE)
    }

    fn with_side(side: usize) -> Self {
        ScalarGrid {
            side,
            occ: vec![false; side * side],
        }
    }

    fn fits(&self, cell: Cell, gw: usize, gh: usize) -> bool {
        if cell.x + gw > self.side || cell.y + gh > self.side {
            return false;
        }
        for dy in 0..gh {
            for dx in 0..gw {
                if self.occ[(cell.y + dy) * self.side + cell.x + dx] {
                    return false;
                }
            }
        }
        true
    }

    fn set_rect(&mut self, cell: Cell, gw: usize, gh: usize) {
        for dy in 0..gh {
            for dx in 0..gw {
                self.occ[(cell.y + dy) * self.side + cell.x + dx] = true;
            }
        }
    }

    /// The historical spiral nearest-fit scan, verbatim.
    fn find_nearest_fit(&self, start: Cell, gw: usize, gh: usize) -> Option<Cell> {
        if self.fits(start, gw, gh) {
            return Some(start);
        }
        for radius in 1..self.side {
            for dy in -(radius as isize)..=(radius as isize) {
                for dx in -(radius as isize)..=(radius as isize) {
                    if dx.abs().max(dy.abs()) != radius as isize {
                        continue;
                    }
                    let x = start.x as isize + dx;
                    let y = start.y as isize + dy;
                    if x < 0 || y < 0 {
                        continue;
                    }
                    let cell = Cell::new(x as usize, y as usize);
                    if cell.x < self.side && cell.y < self.side && self.fits(cell, gw, gh) {
                        return Some(cell);
                    }
                }
            }
        }
        None
    }
}

/// The per-cell constraint mask — the pre-window implementation of
/// positional-constraint admissibility, retained as the differential oracle
/// for `constraints::constraint_window`: a row-major `GRID_SIZE × GRID_SIZE`
/// `0.0` / `1.0` mask, filled by one f64 predicate loop per constraint.
mod constraint_oracle {
    use analog_floorplan::circuit::{Axis, BlockId, Circuit, Constraint, SymmetryGroup};
    use analog_floorplan::layout::{Floorplan, GRID_SIZE};

    const CELL_TOLERANCE: f64 = 0.55;

    /// Whether anchoring a `grid_w × grid_h` footprint of `block` at each cell
    /// keeps every constraint involving `block` satisfiable.
    pub fn constraint_mask(
        circuit: &Circuit,
        floorplan: &Floorplan,
        block: BlockId,
        grid_w: usize,
        grid_h: usize,
    ) -> Vec<f32> {
        let mut mask = vec![1.0f32; GRID_SIZE * GRID_SIZE];
        // Footprint must stay on the grid.
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE {
                if x + grid_w > GRID_SIZE || y + grid_h > GRID_SIZE {
                    mask[y * GRID_SIZE + x] = 0.0;
                }
            }
        }
        for constraint in circuit.constraints.iter() {
            if !constraint.members().contains(&block) {
                continue;
            }
            match constraint {
                Constraint::Symmetry(group) => {
                    apply_symmetry_mask(&mut mask, floorplan, group, block, grid_w, grid_h);
                }
                Constraint::Alignment(group) => {
                    apply_alignment_mask(&mut mask, floorplan, group.axis, &group.blocks, block);
                }
            }
        }
        mask
    }

    fn placed_center_cells(floorplan: &Floorplan, block: BlockId) -> Option<(f64, f64)> {
        let p = floorplan.find(block)?;
        Some((
            p.cell.x as f64 + p.grid_w as f64 / 2.0,
            p.cell.y as f64 + p.grid_h as f64 / 2.0,
        ))
    }

    /// The mean of the placed pair midpoints and self-symmetric centres along
    /// the axis-normal direction, in visitation order.
    fn implied_axis(floorplan: &Floorplan, group: &SymmetryGroup) -> Option<f64> {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for &(a, b) in &group.pairs {
            if let (Some(ca), Some(cb)) = (
                placed_center_cells(floorplan, a),
                placed_center_cells(floorplan, b),
            ) {
                sum += match group.axis {
                    Axis::Vertical => (ca.0 + cb.0) / 2.0,
                    Axis::Horizontal => (ca.1 + cb.1) / 2.0,
                };
                count += 1;
            }
        }
        for &s in &group.self_symmetric {
            if let Some(c) = placed_center_cells(floorplan, s) {
                sum += match group.axis {
                    Axis::Vertical => c.0,
                    Axis::Horizontal => c.1,
                };
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    fn apply_symmetry_mask(
        mask: &mut [f32],
        floorplan: &Floorplan,
        group: &SymmetryGroup,
        block: BlockId,
        grid_w: usize,
        grid_h: usize,
    ) {
        let axis_pos = implied_axis(floorplan, group);
        let partner = group.pairs.iter().find_map(|&(a, b)| {
            if a == block {
                Some(b)
            } else if b == block {
                Some(a)
            } else {
                None
            }
        });
        let is_self = group.self_symmetric.contains(&block);
        let half_w = grid_w as f64 / 2.0;
        let half_h = grid_h as f64 / 2.0;
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE {
                let idx = y * GRID_SIZE + x;
                if mask[idx] == 0.0 {
                    continue;
                }
                let cx = x as f64 + half_w;
                let cy = y as f64 + half_h;
                let mut ok = true;
                if let Some(p) = partner {
                    if let Some((pcx, pcy)) = placed_center_cells(floorplan, p) {
                        match group.axis {
                            Axis::Vertical => {
                                if (cy - pcy).abs() > CELL_TOLERANCE {
                                    ok = false;
                                }
                                if let Some(axis) = axis_pos {
                                    let required = 2.0 * axis - pcx;
                                    if (cx - required).abs() > CELL_TOLERANCE {
                                        ok = false;
                                    }
                                }
                            }
                            Axis::Horizontal => {
                                if (cx - pcx).abs() > CELL_TOLERANCE {
                                    ok = false;
                                }
                                if let Some(axis) = axis_pos {
                                    let required = 2.0 * axis - pcy;
                                    if (cy - required).abs() > CELL_TOLERANCE {
                                        ok = false;
                                    }
                                }
                            }
                        }
                    }
                }
                if ok && is_self {
                    if let Some(axis) = axis_pos {
                        let c = match group.axis {
                            Axis::Vertical => cx,
                            Axis::Horizontal => cy,
                        };
                        if (c - axis).abs() > CELL_TOLERANCE {
                            ok = false;
                        }
                    }
                }
                if !ok {
                    mask[idx] = 0.0;
                }
            }
        }
    }

    fn apply_alignment_mask(
        mask: &mut [f32],
        floorplan: &Floorplan,
        axis: Axis,
        members: &[BlockId],
        block: BlockId,
    ) {
        let reference = members
            .iter()
            .filter(|&&m| m != block)
            .find_map(|&m| floorplan.find(m));
        let Some(reference) = reference else {
            return;
        };
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE {
                let idx = y * GRID_SIZE + x;
                if mask[idx] == 0.0 {
                    continue;
                }
                let aligned = match axis {
                    Axis::Horizontal => y == reference.cell.y,
                    Axis::Vertical => x == reference.cell.x,
                };
                if !aligned {
                    mask[idx] = 0.0;
                }
            }
        }
    }
}

/// Strategy producing a plausible block area in µm².
fn area_strategy() -> impl Strategy<Value = f64> {
    1.0f64..2000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Candidate shapes always preserve the block area, whatever the kind.
    #[test]
    fn shape_sets_preserve_area(area in area_strategy(), kind_idx in 0usize..BlockKind::COUNT) {
        let kind = BlockKind::ALL[kind_idx];
        let block = Block::new(BlockId(0), "b", kind, area, 3);
        let shapes = analog_floorplan::circuit::ShapeSet::for_block(&block);
        for s in shapes.shapes() {
            prop_assert!((s.area_um2() - area).abs() < 1e-6 * area.max(1.0));
            prop_assert!(s.width_um > 0.0 && s.height_um > 0.0);
        }
    }

    /// Node features stay within [0, 1] for any area / pin count combination.
    #[test]
    fn node_features_are_bounded(area in area_strategy(), max_area in area_strategy(), pins in 0u32..40) {
        let block = Block::new(BlockId(0), "b", BlockKind::CurrentMirror, area, pins);
        let f = node_features(&block, area.max(max_area));
        prop_assert_eq!(f.len(), NODE_FEATURE_DIM);
        for v in f {
            prop_assert!((0.0..=1.0).contains(&v), "feature {} out of range", v);
        }
    }

    /// Placement never allows overlapping footprints, regardless of the
    /// requested cells and shapes.
    #[test]
    fn floorplan_never_overlaps(
        placements in prop::collection::vec(((0usize..GRID_SIZE), (0usize..GRID_SIZE), (1.0f64..12.0), (1.0f64..12.0)), 1..12)
    ) {
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        for (i, (x, y, w, h)) in placements.into_iter().enumerate() {
            let _ = fp.place(BlockId(i), 0, Shape::new(w, h), Cell::new(x, y));
        }
        // No two placed rectangles overlap.
        let placed = fp.placed();
        for i in 0..placed.len() {
            for j in (i + 1)..placed.len() {
                prop_assert!(!placed[i].rect.overlaps(&placed[j].rect),
                    "blocks {} and {} overlap", i, j);
            }
        }
        // Dead space stays in [0, 1).
        let ds = metrics::dead_space(&fp);
        prop_assert!((0.0..1.0).contains(&ds) || placed.is_empty());
    }

    /// Sequence-pair packing is always overlap-free and no larger than the
    /// sum of block dimensions.
    #[test]
    fn sequence_pair_packing_is_overlap_free(
        dims in prop::collection::vec((1.0f64..20.0, 1.0f64..20.0), 2..10),
        seed in 0u64..1000
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let shapes: Vec<Shape> = dims.iter().map(|&(w, h)| Shape::new(w, h)).collect();
        let mut sp = SequencePair::identity(shapes.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        sp.positive.shuffle(&mut rng);
        sp.negative.shuffle(&mut rng);
        let packed = sp.pack();
        for i in 0..shapes.len() {
            for j in (i + 1)..shapes.len() {
                prop_assert!(!packed.rects[i].overlaps(&packed.rects[j]),
                    "sequence pair packed blocks {} and {} on top of each other", i, j);
            }
        }
        let total_w: f64 = dims.iter().map(|d| d.0).sum();
        let total_h: f64 = dims.iter().map(|d| d.1).sum();
        prop_assert!(packed.width <= total_w + 1e-9);
        prop_assert!(packed.height <= total_h + 1e-9);
    }

    /// Softmax over arbitrary finite logits is a probability distribution.
    #[test]
    fn softmax_is_a_distribution(values in prop::collection::vec(-30.0f32..30.0, 1..64)) {
        let t = Tensor::from_slice(&values);
        let s = t.softmax();
        let sum: f32 = s.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
        prop_assert!(s.data().iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    /// HPWL is translation-invariant: shifting a whole floorplan does not
    /// change the wirelength.
    #[test]
    fn hpwl_is_translation_invariant(dx in 0usize..8, dy in 0usize..8) {
        use analog_floorplan::circuit::generators;
        let circuit = generators::ota3();
        let canvas = Canvas::new(64.0, 64.0);
        let build = |ox: usize, oy: usize| {
            let mut fp = Floorplan::new(canvas);
            let order = circuit.blocks_by_decreasing_area();
            let mut x = ox;
            for id in order {
                let area = circuit.block(id).unwrap().area_um2;
                let shape = Shape::from_area_and_aspect(area, 1.0);
                fp.place(id, 0, shape, Cell::new(x, oy)).unwrap();
                let (gw, _) = fp.grid_footprint(&shape);
                x += gw;
            }
            fp
        };
        let base = build(0, 0);
        let shifted = build(dx, dy);
        let h0 = metrics::hpwl(&circuit, &base);
        let h1 = metrics::hpwl(&circuit, &shifted);
        prop_assert!((h0 - h1).abs() < 1e-6, "HPWL changed under translation: {} vs {}", h0, h1);
    }
}

proptest! {
    // Run by name in scripts/ci.sh. Each case walks one partial episode and
    // checks every state it visits; 200 cases reach the mirrored-position
    // term of multi-pair symmetry groups.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The agent's masks against the per-cell oracle: a random
    /// `evaluation_set()` circuit through `random_variant` (half of them with
    /// an injected constraint, and half with every constraint axis turned
    /// orthogonal, since the Table I circuits are all vertically symmetric
    /// and row aligned) is walked as a random masked partial episode.
    /// In every visited state, each shape's positional `AnchorMap` must equal
    /// the oracle constraint mask ANDed with the scalar free-space test, the
    /// observation's action mask must be those three planes, and
    /// `StateMasks::to_tensor_data` must be the six-plane `f32` layout
    /// (occupancy, wire, dead space, three positional masks), bit for bit.
    #[test]
    fn positional_masks_match_per_cell_oracle(seed in 0u64..1_000_000) {
        use analog_floorplan::circuit::generators::{evaluation_set, random_variant};
        use analog_floorplan::circuit::{AlignmentGroup, Constraint, SymmetryGroup};
        use analog_floorplan::circuit::shapes::shape_sets;
        use analog_floorplan::layout::masks::{dead_space_mask, wire_mask};
        use analog_floorplan::rl::{inject_random_constraint, Action, FloorplanEnv, Termination};
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(seed);
        let set = evaluation_set();
        let base = &set[rng.gen_range(0..set.len())].circuit;
        let mut circuit = random_variant(base, 0.3, &mut rng);
        if rng.gen_bool(0.5) {
            inject_random_constraint(&mut circuit, &mut rng);
        }
        if rng.gen_bool(0.5) {
            circuit.constraints = circuit
                .constraints
                .iter()
                .map(|c| match c.clone() {
                    Constraint::Symmetry(g) => Constraint::Symmetry(SymmetryGroup {
                        axis: g.axis.orthogonal(),
                        ..g
                    }),
                    Constraint::Alignment(g) => Constraint::Alignment(AlignmentGroup {
                        axis: g.axis.orthogonal(),
                        ..g
                    }),
                })
                .collect();
        }
        let sets = shape_sets(&circuit);
        let steps = rng.gen_range(1..=circuit.num_blocks());
        let mut env = FloorplanEnv::new(circuit.clone());
        let mut obs = env.reset();
        for _ in 0..steps {
            let Some(o) = obs else { break };
            let fp = env.floorplan();
            let block = o.current_block;
            let shapes = &sets[block.index()];
            let mut scalar = ScalarGrid::new();
            for p in fp.placed() {
                scalar.set_rect(p.cell, p.grid_w, p.grid_h);
            }
            let mut planes: Vec<f32> = (0..GRID_SIZE * GRID_SIZE)
                .map(|i| if scalar.occ[i] { 1.0 } else { 0.0 })
                .collect();
            let reference = shapes.shape(shapes.most_square());
            planes.extend(wire_mask(&circuit, fp, block, &reference));
            planes.extend(dead_space_mask(&circuit, fp, block, &reference));
            for (k, anchors) in o.masks.positional.iter().enumerate() {
                let (gw, gh) = fp.grid_footprint(&shapes.shape(k));
                let constraints = constraint_oracle::constraint_mask(&circuit, fp, block, gw, gh);
                for y in 0..GRID_SIZE {
                    for x in 0..GRID_SIZE {
                        let expected = constraints[y * GRID_SIZE + x] == 1.0
                            && scalar.fits(Cell::new(x, y), gw, gh);
                        prop_assert_eq!(anchors.get(x, y), expected,
                            "{}: shape {} of block {:?} diverges at ({}, {})",
                            circuit.name, k, block, x, y);
                        planes.push(if expected { 1.0 } else { 0.0 });
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
            let tensor = o.masks.to_tensor_data();
            prop_assert_eq!(bits(&tensor), bits(&planes),
                "{}: tensor layout diverges for block {:?}", circuit.name, block);
            prop_assert_eq!(bits(&o.action_mask), bits(&planes[3 * GRID_SIZE * GRID_SIZE..]),
                "{}: action mask diverges for block {:?}", circuit.name, block);

            let valid: Vec<usize> = (0..o.action_mask.len())
                .filter(|&i| o.action_mask[i] == 1.0)
                .collect();
            let action = Action::from_index(valid[rng.gen_range(0..valid.len())]);
            let outcome = env.step(action);
            prop_assert!(outcome.termination != Termination::InvalidAction,
                "{}: an admissible action was rejected", circuit.name);
            obs = env.observe();
        }
    }
}

proptest! {
    // 200+ random pairs: the acceptance bar of the FAST-SP packing engine.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Differential test of the packing engines: the FAST-SP O(n log n) LCS
    /// evaluation must produce byte-identical positions and enclosing
    /// dimensions to the legacy O(n³) relaxation oracle
    /// (`SequencePair::pack_relaxation`), and the packing must be
    /// overlap-free. Block counts go up to
    /// 64 — beyond every circuit in the paper.
    #[test]
    fn fast_sp_packing_matches_legacy_relaxation(
        dims in prop::collection::vec((0.5f64..30.0, 0.5f64..30.0), 2..65),
        seed in 0u64..1_000_000
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let shapes: Vec<Shape> = dims.iter().map(|&(w, h)| Shape::new(w, h)).collect();
        let mut sp = SequencePair::identity(shapes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        sp.positive.shuffle(&mut rng);
        sp.negative.shuffle(&mut rng);
        let fast = sp.pack();
        let legacy = sp.pack_relaxation();
        prop_assert_eq!(&fast.positions, &legacy.positions);
        prop_assert_eq!(fast.width, legacy.width);
        prop_assert_eq!(fast.height, legacy.height);
        for i in 0..fast.rects.len() {
            for j in (i + 1)..fast.rects.len() {
                prop_assert!(
                    !fast.rects[i].overlaps(&fast.rects[j]),
                    "FAST-SP packed blocks {} and {} on top of each other", i, j
                );
            }
        }
    }
}

proptest! {
    // 200+ random cases each: the acceptance bar of the BitGrid occupancy
    // engine — every word-level query must agree cell-for-cell with the
    // scalar `Vec<bool>` reference it replaced.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Differential test of the occupancy engine: after a random placement
    /// sequence, `Floorplan::fits`, the free-anchor bitmask and the
    /// bitboard nearest-fit search must agree with the scalar grid and the
    /// historical spiral scan on every cell.
    #[test]
    fn bitboard_fits_anchors_and_nearest_fit_match_scalar(
        placements in prop::collection::vec(
            ((0usize..GRID_SIZE), (0usize..GRID_SIZE), (1.0f64..12.0), (1.0f64..12.0)), 1..14),
        footprint in ((1usize..11), (1usize..11)),
        start in ((0usize..GRID_SIZE), (0usize..GRID_SIZE)),
    ) {
        use analog_floorplan::layout::sequence_pair::find_nearest_fit;
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        let mut scalar = ScalarGrid::new();
        for (i, (x, y, w, h)) in placements.into_iter().enumerate() {
            if fp.place(BlockId(i), 0, Shape::new(w, h), Cell::new(x, y)).is_ok() {
                let p = fp.placed().last().unwrap();
                scalar.set_rect(p.cell, p.grid_w, p.grid_h);
            }
        }
        let (gw, gh) = footprint;
        let anchors = fp.grid().free_anchors(gw, gh);
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE {
                let cell = Cell::new(x, y);
                let expected = scalar.fits(cell, gw, gh);
                prop_assert_eq!(fp.fits(cell, gw, gh), expected,
                    "fits diverges at ({}, {}) for {}x{}", x, y, gw, gh);
                prop_assert_eq!(anchors.get(x, y), expected,
                    "anchor bit diverges at ({}, {}) for {}x{}", x, y, gw, gh);
            }
        }
        let start = Cell::new(start.0, start.1);
        prop_assert_eq!(
            find_nearest_fit(&fp, start, gw, gh),
            scalar.find_nearest_fit(start, gw, gh),
            "nearest fit diverges from spiral scan at start ({}, {})", start.x, start.y
        );
    }

    /// The positional mask `f_p` built from the anchor bitmask must equal the
    /// scalar reference (constraint mask ANDed with per-cell footprint
    /// probes), constraints included.
    #[test]
    fn positional_mask_matches_scalar_reference(
        placements in prop::collection::vec(
            ((0usize..GRID_SIZE), (0usize..GRID_SIZE), (2.0f64..8.0), (2.0f64..8.0)), 0..4),
        shape_dims in ((1.0f64..10.0), (1.0f64..10.0)),
    ) {
        use analog_floorplan::circuit::{Circuit, NetClass};
        use analog_floorplan::layout::masks::positional_mask;
        use constraint_oracle::constraint_mask;
        let circuit = Circuit::builder("diff")
            .block("L", BlockKind::CurrentMirror, 16.0, 3)
            .block("R", BlockKind::CurrentMirror, 16.0, 3)
            .block("T", BlockKind::CurrentSource, 16.0, 2)
            .block("U", BlockKind::BiasGenerator, 16.0, 2)
            .net("n", &[("L", "d"), ("R", "d"), ("T", "g")], NetClass::Signal)
            .net("m", &[("T", "d"), ("U", "g")], NetClass::Signal)
            .symmetry_v(&[("L", "R")])
            .alignment(analog_floorplan::circuit::Axis::Horizontal, &["T", "U"])
            .build()
            .unwrap();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        let mut scalar = ScalarGrid::new();
        for (i, (x, y, w, h)) in placements.into_iter().enumerate() {
            if fp.place(BlockId(i), 0, Shape::new(w, h), Cell::new(x, y)).is_ok() {
                let p = fp.placed().last().unwrap();
                scalar.set_rect(p.cell, p.grid_w, p.grid_h);
            }
        }
        let shape = Shape::new(shape_dims.0, shape_dims.1);
        for block in [BlockId(1), BlockId(3)] {
            if fp.is_placed(block) {
                continue;
            }
            let (gw, gh) = fp.grid_footprint(&shape);
            let constraints = constraint_mask(&circuit, &fp, block, gw, gh);
            let mask = positional_mask(&circuit, &fp, block, &shape);
            for y in 0..GRID_SIZE {
                for x in 0..GRID_SIZE {
                    let idx = y * GRID_SIZE + x;
                    let expected = constraints[idx] == 1.0 && scalar.fits(Cell::new(x, y), gw, gh);
                    prop_assert_eq!(mask.get(x, y), expected,
                        "positional mask diverges at ({}, {}) for block {:?}", x, y, block);
                }
            }
        }
    }

    /// `realize_floorplan` (pack → scale → snap → bitboard nearest-fit) must
    /// produce placements bit-identical to the pre-refactor scalar path
    /// (same pack, scalar occupancy grid, spiral nearest-fit scan).
    #[test]
    fn realize_floorplan_matches_scalar_path(seed in 0u64..1_000_000) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::layout::sequence_pair::realize_floorplan;
        use analog_floorplan::layout::PackScratch;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = generators::random_circuit(&mut rng);
        let canvas = Canvas::for_circuit(&circuit);
        let n = circuit.num_blocks();
        let shapes: Vec<Shape> = (0..n)
            .map(|_| Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0)))
            .collect();
        let mut sp = SequencePair::identity(shapes);
        sp.positive.shuffle(&mut rng);
        sp.negative.shuffle(&mut rng);

        // Bitboard path.
        let mut scratch = PackScratch::with_capacity(n);
        let mut fp = Floorplan::new(canvas);
        realize_floorplan(
            &sp.positive, &sp.negative, &sp.shapes, &circuit, canvas, &mut scratch, &mut fp,
        );

        // Scalar reference path, mirroring the pre-bitboard implementation.
        let packed = sp.pack();
        let scale_x = if packed.width > canvas.width_um {
            canvas.width_um / packed.width
        } else {
            1.0
        };
        let scale_y = if packed.height > canvas.height_um {
            canvas.height_um / packed.height
        } else {
            1.0
        };
        let scale = scale_x.min(scale_y);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (packed.positions[a].1, packed.positions[a].0)
                .partial_cmp(&(packed.positions[b].1, packed.positions[b].0))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut grid = ScalarGrid::new();
        let mut expected: Vec<(BlockId, Cell, usize, usize)> = Vec::new();
        for &i in &order {
            let (px, py) = packed.positions[i];
            let shape = Shape::new(
                sp.shapes[i].width_um * scale,
                sp.shapes[i].height_um * scale,
            );
            // The paper's mapping, written out: cells of W/32 µm, footprints
            // of ⌈w·32/W⌉ cells clamped to the grid.
            let cell_x = ((px * scale) / (canvas.width_um / 32.0)).round() as usize;
            let cell_y = ((py * scale) / (canvas.height_um / 32.0)).round() as usize;
            let cell = Cell::new(cell_x.min(31), cell_y.min(31));
            let gw = ((shape.width_um * 32.0 / canvas.width_um).ceil() as usize).clamp(1, 32);
            let gh = ((shape.height_um * 32.0 / canvas.height_um).ceil() as usize).clamp(1, 32);
            if let Some(cell) = grid.find_nearest_fit(cell, gw, gh) {
                grid.set_rect(cell, gw, gh);
                expected.push((circuit.blocks[i].id, cell, gw, gh));
            }
        }
        let got: Vec<(BlockId, Cell, usize, usize)> = fp
            .placed()
            .iter()
            .map(|p| (p.block, p.cell, p.grid_w, p.grid_h))
            .collect();
        prop_assert_eq!(got, expected, "realized placements diverge (seed {})", seed);
    }
}

/// A deterministic `n`-block chain circuit used by the large-n differential
/// walks: randomized block areas, a chain net per adjacent pair and a
/// vertical-symmetry constraint per adjacent pair — so any `n > 64` is past
/// the historical 64-block / 64-constraint bitmask ceiling.
fn large_circuit(n: usize, seed: u64) -> analog_floorplan::circuit::Circuit {
    use analog_floorplan::circuit::{Circuit, NetClass};
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..n).map(|i| format!("B{i}")).collect();
    let mut builder = Circuit::builder(format!("large-{n}"));
    for name in &names {
        builder = builder.block(name, BlockKind::CurrentMirror, rng.gen_range(4.0..40.0), 3);
    }
    for w in names.windows(2) {
        builder = builder.net(
            &format!("n_{}_{}", &w[0], &w[1]),
            &[(w[0].as_str(), "d"), (w[1].as_str(), "s")],
            NetClass::Signal,
        );
    }
    for w in names.windows(2) {
        builder = builder.symmetry_v(&[(w[0].as_str(), w[1].as_str())]);
    }
    builder.build().expect("large circuit is valid")
}

proptest! {
    // 200+ random cases: the same scalar differential as the block above,
    // but on grids 33–64 columns wide, up to the last bit of the row word.
    // Run by name in scripts/ci.sh.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Full-word occupancy queries versus the scalar oracle: on a grid with
    /// 33–64 columns (half the cases on the 64-column grid that circuits
    /// past 64 blocks realize on), `fits`, the free-anchor map and the
    /// banded nearest-fit search must agree with the scalar grid and the
    /// historical spiral scan on every cell. A 1×1 block on the last column
    /// and footprints one and zero cells narrower than the grid put column
    /// 63 and `gw == 64` under test.
    #[test]
    fn wide_grid_fits_anchors_and_nearest_fit_match_scalar(
        side in 33usize..65,
        full_word in 0usize..2,
        edge_row in 0usize..64,
        placements in prop::collection::vec(
            ((0usize..64), (0usize..64), (1.0f64..18.0), (1.0f64..18.0)), 1..24),
        footprint in ((1usize..20), (1usize..8)),
        start in ((0usize..64), (0usize..64)),
    ) {
        use analog_floorplan::layout::sequence_pair::find_nearest_fit;
        let side = if full_word == 0 { 64 } else { side };
        let canvas = Canvas::new(side as f64, side as f64);
        let mut fp = Floorplan::with_grid_side(canvas, side);
        let mut scalar = ScalarGrid::with_side(side);
        let edge = Cell::new(side - 1, edge_row.min(side - 1));
        fp.place(BlockId(0), 0, Shape::new(1.0, 1.0), edge).unwrap();
        scalar.set_rect(edge, 1, 1);
        for (i, (x, y, w, h)) in placements.into_iter().enumerate() {
            if x >= side || y >= side {
                continue;
            }
            if fp.place(BlockId(i + 1), 0, Shape::new(w, h), Cell::new(x, y)).is_ok() {
                let p = fp.placed().last().unwrap();
                scalar.set_rect(p.cell, p.grid_w, p.grid_h);
            }
        }
        let start = Cell::new(start.0.min(side - 1), start.1.min(side - 1));
        for (gw, gh) in [footprint, (side - 1, 1), (side, 1)] {
            let anchors = fp.grid().free_anchors(gw, gh);
            for y in 0..side {
                for x in 0..side {
                    let cell = Cell::new(x, y);
                    let expected = scalar.fits(cell, gw, gh);
                    prop_assert_eq!(fp.fits(cell, gw, gh), expected,
                        "fits diverges at ({}, {}) for {}x{} on side {}", x, y, gw, gh, side);
                    prop_assert_eq!(anchors.get(x, y), expected,
                        "anchor bit diverges at ({}, {}) for {}x{} on side {}", x, y, gw, gh, side);
                }
            }
            prop_assert_eq!(
                find_nearest_fit(&fp, start, gw, gh),
                scalar.find_nearest_fit(start, gw, gh),
                "nearest fit diverges from spiral scan at start ({}, {}) for {}x{}",
                start.x, start.y, gw, gh
            );
        }
    }
}

/// Buffer-reuse differential of the realization pass: walks `circuit`
/// through `moves` random perturbations (sequence swaps, shape changes,
/// canvas switches, identical episodes) drawn from `rng`, realizing each
/// episode with `realize_floorplan` into one `PackScratch` and `Floorplan`
/// reused along the walk and into fresh buffers, and requires occupancy,
/// anchors, placement records and metrics to match bit for bit. Reuse is
/// live behaviour — the scratch keeps the previous episode's placement order
/// as the next sort's starting permutation, and the floorplan is reset in
/// place.
fn check_reused_buffers_match_fresh(
    circuit: &analog_floorplan::circuit::Circuit,
    side: usize,
    moves: usize,
    rng: &mut StdRng,
) {
    use analog_floorplan::layout::sequence_pair::realize_floorplan;
    use analog_floorplan::layout::PackScratch;
    use rand::seq::SliceRandom;
    use rand::Rng;
    let n = circuit.num_blocks();
    let base_canvas = Canvas::for_circuit(circuit);
    let alt_canvas = Canvas::new(base_canvas.width_um * 0.75, base_canvas.height_um * 1.25);
    let mut positive: Vec<usize> = (0..n).collect();
    let mut negative: Vec<usize> = (0..n).collect();
    positive.shuffle(rng);
    negative.shuffle(rng);
    let mut shapes: Vec<Shape> = (0..n)
        .map(|_| Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0)))
        .collect();
    let mut canvas = base_canvas;

    let mut scratch = PackScratch::with_capacity(n);
    let mut fp = Floorplan::with_grid_side(canvas, side);
    let hpwl_min = metrics::hpwl_lower_bound(circuit);

    for _ in 0..moves {
        match rng.gen_range(0..5) {
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
                shapes[b] = Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0));
            }
            3 => {
                canvas = if canvas == base_canvas {
                    alt_canvas
                } else {
                    base_canvas
                };
            }
            _ => {} // identical episode
        }

        realize_floorplan(
            &positive,
            &negative,
            &shapes,
            circuit,
            canvas,
            &mut scratch,
            &mut fp,
        );

        let mut fresh_scratch = PackScratch::with_capacity(n);
        let mut fresh = Floorplan::with_grid_side(canvas, side);
        realize_floorplan(
            &positive,
            &negative,
            &shapes,
            circuit,
            canvas,
            &mut fresh_scratch,
            &mut fresh,
        );

        // Grid occupancy, block anchors and full placement records.
        prop_assert_eq!(fp.grid(), fresh.grid(), "occupancy diverged");
        prop_assert_eq!(fp.num_placed(), fresh.num_placed());
        for (a, b) in fp.placed().iter().zip(fresh.placed().iter()) {
            prop_assert_eq!(a.block, b.block, "anchor order diverged");
            prop_assert_eq!(a.cell, b.cell, "anchor cell diverged");
            prop_assert_eq!((a.grid_w, a.grid_h), (b.grid_w, b.grid_h));
            prop_assert_eq!(&a.rect, &b.rect);
            prop_assert_eq!(&a.shape, &b.shape);
        }
        prop_assert!(fp == fresh, "floorplans diverged");

        // Metrics computed from both must agree bit-for-bit.
        prop_assert_eq!(metrics::hpwl(circuit, &fp), metrics::hpwl(circuit, &fresh));
        prop_assert_eq!(metrics::dead_space(&fp), metrics::dead_space(&fresh));
        prop_assert_eq!(
            metrics::episode_reward(circuit, &fp, hpwl_min),
            metrics::episode_reward(circuit, &fresh, hpwl_min)
        );
    }
}

proptest! {
    // The two entry points of the buffer-reuse differential
    // (`check_reused_buffers_match_fresh`); run by name in scripts/ci.sh.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Reused vs fresh realization buffers along random walks of up to 13
    /// moves over random paper-class circuits on the default grid.
    #[test]
    fn incremental_realize_matches_full_after_perturbation_sequences(
        seed in 0u64..1_000_000,
        moves in 1usize..14,
    ) {
        use analog_floorplan::circuit::generators;
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generators::random_circuit(&mut rng);
        check_reused_buffers_match_fresh(&circuit, GRID_SIZE, moves, &mut rng);
    }

    /// Reused vs fresh realization buffers past the 64-block ceiling: walks
    /// of up to 4 moves over 65–200 block chain circuits on the 64-cell
    /// grid those circuits realize on.
    #[test]
    fn incremental_realize_matches_full_beyond_64_blocks(
        n in 65usize..201,
        seed in 0u64..1_000_000,
        moves in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = large_circuit(n, seed);
        check_reused_buffers_match_fresh(&circuit, 64, moves, &mut rng);
    }
}

/// Test-only HPWL reference (paper Eq. 3): each net's deduplicated
/// `Net::blocks()`, every centre found by a linear scan of `placed()`, and
/// the per-net half-perimeters summed in net order.
fn reference_hpwl(circuit: &analog_floorplan::circuit::Circuit, fp: &Floorplan) -> f64 {
    let per_net: Vec<f64> = circuit
        .nets
        .iter()
        .filter_map(|net| {
            let centers: Vec<(f64, f64)> = net
                .blocks()
                .iter()
                .filter_map(|&b| fp.placed().iter().find(|p| p.block == b))
                .map(|p| p.rect.center())
                .collect();
            if centers.len() < 2 {
                return None;
            }
            let span = |axis: fn(&(f64, f64)) -> f64| {
                let lo = centers.iter().map(axis).fold(f64::INFINITY, f64::min);
                let hi = centers.iter().map(axis).fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            };
            Some(span(|c| c.0) + span(|c| c.1))
        })
        .collect();
    per_net.iter().sum()
}

/// Test-only Eq. 5 reference with the paper's literal weights (α = 1,
/// β = 5, γ = 5, −50 on an incomplete or violating floorplan), over
/// [`reference_hpwl`].
fn reference_episode_reward(
    circuit: &analog_floorplan::circuit::Circuit,
    fp: &Floorplan,
    hpwl_min: f64,
) -> f64 {
    use analog_floorplan::layout::constraints::has_violations;
    if fp.num_placed() < circuit.num_blocks() || has_violations(circuit, fp) {
        return -50.0;
    }
    let bb = fp.bounding_box().expect("complete floorplans have a box");
    let area_term = 1.0 * bb.area() / circuit.total_block_area().max(1e-9);
    let hpwl_term = 5.0 * reference_hpwl(circuit, fp) / hpwl_min.max(1e-9);
    let outline_term = circuit
        .target_aspect_ratio
        .map_or(0.0, |target| 5.0 * (target - bb.aspect()).powi(2));
    -(area_term + hpwl_term + outline_term)
}

proptest! {
    // Oracle of the metrics stage: run by name in scripts/ci.sh.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `metrics::hpwl` and `metrics::episode_reward` against the per-net
    /// references above, bit for bit: a random paper-class circuit (half of
    /// them unconstrained, so complete floorplans reach the Eq. 5 terms)
    /// realized from a random sequence pair and random candidate shapes on a
    /// 32- or 64-cell grid, with up to three of the last placed blocks
    /// removed again to make it partial.
    #[test]
    fn metrics_match_per_net_reference(
        seed in 0u64..1_000_000,
        wide in 0u8..2,
        removed in 0usize..4,
    ) {
        use analog_floorplan::circuit::{generators, shapes::shape_sets, SHAPES_PER_BLOCK};
        use analog_floorplan::layout::sequence_pair::realize_floorplan;
        use analog_floorplan::layout::PackScratch;
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generators::random_circuit(&mut rng);
        let n = circuit.num_blocks();
        let shapes: Vec<Shape> = shape_sets(&circuit)
            .iter()
            .map(|set| set.shape(rng.gen_range(0..SHAPES_PER_BLOCK)))
            .collect();
        let mut positive: Vec<usize> = (0..n).collect();
        let mut negative: Vec<usize> = (0..n).collect();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        let canvas = Canvas::for_circuit(&circuit);
        let side = if wide == 1 { 64 } else { GRID_SIZE };
        let mut fp = Floorplan::with_grid_side(canvas, side);
        realize_floorplan(
            &positive, &negative, &shapes, &circuit, canvas, &mut PackScratch::new(), &mut fp,
        );
        for _ in 0..removed {
            fp.unplace_last();
        }
        let hpwl_min = metrics::hpwl_lower_bound(&circuit);
        prop_assert_eq!(
            metrics::hpwl(&circuit, &fp).to_bits(),
            reference_hpwl(&circuit, &fp).to_bits(),
            "HPWL diverged from the per-net reference"
        );
        prop_assert_eq!(
            metrics::episode_reward(&circuit, &fp, hpwl_min).to_bits(),
            reference_episode_reward(&circuit, &fp, hpwl_min).to_bits(),
            "episode reward diverged from Eq. 5"
        );
    }
}

proptest! {
    // Differential safety net of the optimizers' scoring path: run by name
    // in scripts/ci.sh.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// One warm `CostCache` — the way GA and PSO score a run's generations —
    /// must return, for random populations, exactly `Problem::cost` for
    /// every candidate, bit-identical `f64`s. Two generations are scored per
    /// case so the second one runs on a warm cache (buffers and memo holding
    /// the previous generation — the steady state GA/PSO live in).
    #[test]
    fn cost_cache_matches_cost_across_perturbed_generations(
        seed in 0u64..1_000_000,
        population in 2usize..24,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{Candidate, CostCache, Problem};
        use rand::SeedableRng;
        let circuit = match seed % 3 {
            0 => generators::ota5(),
            1 => generators::ota8(),
            _ => generators::bias9(),
        };
        let problem = Problem::new(&circuit);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut generation: Vec<Candidate> = (0..population)
            .map(|_| Candidate::random(problem.num_blocks(), &mut rng))
            .collect();

        let mut cache = CostCache::new(&problem);
        for round in 0..2 {
            for candidate in &generation {
                prop_assert_eq!(
                    problem.cost_cached(candidate, &mut cache),
                    problem.cost(candidate),
                    "warm cache diverged from Problem::cost (round {})",
                    round
                );
            }
            // GA-style drift into the next generation: perturb every member.
            for candidate in &mut generation {
                let _ = candidate.perturb(&mut rng);
            }
        }
    }

    /// An SA run under a `RunControl` whose deadline and budget can never
    /// fire must replay the uncontrolled run bit for bit, at any polling
    /// stride and under both move mixes (the uniform walk of
    /// `SaConfig::small()` and the locality-biased Table I mix): the control
    /// layer's polls draw nothing from the RNG, so historical trajectories
    /// are preserved exactly. (An interrupted run is allowed to — and does —
    /// stop early; this pins the *uninterrupted* contract.)
    #[test]
    fn sa_with_generous_deadline_replays_the_unbounded_run(
        seed in 0u64..1_000_000,
        stride in 1u64..200,
        table1_mix in 0u8..2,
    ) {
        use std::time::Duration;
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{
            simulated_annealing_on, CostCache, Problem, RunControl, SaConfig, StopReason,
        };
        let circuit = match seed % 3 {
            0 => generators::ota5(),
            1 => generators::ota8(),
            _ => generators::bias9(),
        };
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 150,
            seed,
            locality_bias: if table1_mix == 1 { SaConfig::table1().locality_bias } else { 0.0 },
            ..SaConfig::small()
        };
        let mut cache = CostCache::new(&problem);
        let unbounded = RunControl::unbounded();
        let plain = simulated_annealing_on(&problem, &cfg, None, &mut cache, &unbounded);
        let control = RunControl::unbounded()
            .with_deadline(Duration::from_secs(3600))
            .with_budget(u64::MAX)
            .with_stride(stride);
        let mut cache = CostCache::new(&problem);
        let controlled = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        prop_assert_eq!(controlled.stop, StopReason::Completed);
        prop_assert_eq!(controlled.reward, plain.reward, "reward diverged (stride {})", stride);
        prop_assert_eq!(controlled.evaluations, plain.evaluations);
        prop_assert_eq!(&controlled.floorplan, &plain.floorplan);
    }
}

/// The run-control contract across every Table I baseline, one row per
/// algorithm on OTA-5: a control that never fires (deadline an hour out,
/// budget far above the run, a non-default stride) replays
/// [`Baseline::run`](analog_floorplan::metaheuristics::Baseline::run) bit for
/// bit, and a 20-evaluation budget stops the run with `StopReason::Budget`
/// at or past the budget — generation-grained optimizers finish the
/// generation they are in — with every block still placed.
#[test]
fn every_baseline_replays_under_generous_control_and_stops_on_budget() {
    use analog_floorplan::circuit::generators;
    use analog_floorplan::metaheuristics::{Baseline, RunControl, StopReason};
    use std::time::Duration;
    const BUDGET: u64 = 20;
    let circuit = generators::ota5();
    for baseline in Baseline::all_small() {
        let name = baseline.name();
        let plain = baseline.run(&circuit, 7);
        assert_eq!(plain.stop, StopReason::Completed, "{name}");

        let generous = RunControl::unbounded()
            .with_deadline(Duration::from_secs(3600))
            .with_budget(1_000_000)
            .with_stride(16);
        let controlled = baseline.run_controlled(&circuit, 7, &generous);
        assert_eq!(controlled.stop, StopReason::Completed, "{name}");
        assert_eq!(controlled.reward, plain.reward, "{name}: reward diverged");
        assert_eq!(controlled.evaluations, plain.evaluations, "{name}");
        assert_eq!(controlled.floorplan, plain.floorplan, "{name}: floorplan");

        let tight = RunControl::unbounded().with_budget(BUDGET);
        let budgeted = baseline.run_controlled(&circuit, 7, &tight);
        assert_eq!(budgeted.stop, StopReason::Budget, "{name}");
        assert!(
            budgeted.evaluations >= BUDGET as usize,
            "{name}: stopped at {} evaluations, before the budget",
            budgeted.evaluations
        );
        assert!(
            budgeted.evaluations < plain.evaluations,
            "{name}: the budget never cut the run"
        );
        assert_eq!(
            budgeted.floorplan.num_placed(),
            circuit.num_blocks(),
            "{name}: budget stop left blocks unplaced"
        );
    }
}

proptest! {
    // Contract proptests of the serve layer (fingerprint + result cache +
    // job engine): run by name in scripts/ci.sh, because memoized results
    // are only safe to return if the solvers are deterministic.
    // Fewer cases than the layer-5 blocks above: each case runs real solves.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fingerprint injectivity and canonicalization over the generator
    /// families: specs that differ in circuit family, block sizing, solver
    /// family, solver knobs, or seed must get distinct fingerprints, while
    /// renaming every block/net/circuit and shuffling every unordered
    /// collection (nets, pins, constraint internals) must not move the
    /// fingerprint.
    #[test]
    fn serve_fingerprints_are_injective_and_canonical(
        seed in 0u64..1_000_000,
        jitter in 0.01f64..0.25,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::circuit::Constraint;
        use analog_floorplan::metaheuristics::{Baseline, GaConfig, SaConfig};
        use analog_floorplan::serve::JobSpec;

        let families = generators::dataset_families();
        let mut specs: Vec<JobSpec> = Vec::new();
        for base in &families {
            // Same circuit under different seeds, solver families, and knobs.
            specs.push(JobSpec::new(base.clone(), Baseline::Sa(SaConfig::small()), seed));
            specs.push(JobSpec::new(base.clone(), Baseline::Sa(SaConfig::small()), seed ^ 1));
            specs.push(JobSpec::new(base.clone(), Baseline::Ga(GaConfig::small()), seed));
            let retuned = SaConfig { cooling: 0.77, ..SaConfig::small() };
            specs.push(JobSpec::new(base.clone(), Baseline::Sa(retuned), seed));
            // Same circuit with jittered sizing.
            let mut resized = base.clone();
            for block in &mut resized.blocks {
                block.area_um2 *= 1.0 + jitter;
            }
            specs.push(JobSpec::new(resized, Baseline::Sa(SaConfig::small()), seed));
        }
        let fps: Vec<_> = specs.iter().map(|s| s.fingerprint()).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                prop_assert!(fps[i] != fps[j], "specs {} and {} collided", i, j);
            }
        }

        // Canonicalization: renaming everything and reversing every
        // unordered collection must not move the fingerprint.
        for spec in &specs {
            let mut scrambled = spec.clone();
            scrambled.circuit.name = format!("{}-renamed", scrambled.circuit.name);
            for block in &mut scrambled.circuit.blocks {
                block.name = format!("b{}", block.id.index());
            }
            scrambled.circuit.nets.reverse();
            for net in &mut scrambled.circuit.nets {
                net.name = format!("n{}", net.id.index());
                net.pins.reverse();
            }
            let mut constraints: Vec<Constraint> =
                scrambled.circuit.constraints.iter().cloned().collect();
            constraints.reverse();
            for constraint in &mut constraints {
                if let Constraint::Symmetry(group) = constraint {
                    group.pairs.reverse();
                    for p in &mut group.pairs {
                        *p = (p.1, p.0);
                    }
                    group.self_symmetric.reverse();
                }
            }
            scrambled.circuit.constraints = constraints.into_iter().collect();
            prop_assert_eq!(spec.fingerprint(), scrambled.fingerprint());
        }
    }

    /// The memoization contract end to end: at every worker count, a cold
    /// solve through the engine is bit-identical to calling the baseline
    /// directly, and an exact repeat submission is answered from the cache
    /// with the very same bits — hit observable in the cache counters.
    #[test]
    fn serve_cache_hit_replays_the_cold_solve_bit_for_bit(
        seed in 0u64..1_000_000,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{
            Baseline, GaConfig, RunControl, SaConfig, StopReason,
        };
        use analog_floorplan::serve::{JobEngine, JobRequest, JobSpec, ServeConfig};

        let circuit = match seed % 3 {
            0 => generators::ota5(),
            1 => generators::ota8(),
            _ => generators::bias9(),
        };
        let solver = if seed % 2 == 0 {
            Baseline::Sa(SaConfig { iterations: 90, ..SaConfig::small() })
        } else {
            Baseline::Ga(GaConfig { generations: 4, ..GaConfig::small() })
        };
        let spec = JobSpec::new(circuit, solver, seed);
        let reference = spec
            .solver
            .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded());
        prop_assert_eq!(reference.stop, StopReason::Completed);

        for workers in [1usize, 2, 4] {
            let engine = JobEngine::new(&ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            let cold = engine.submit(JobRequest::new(spec.clone()));
            let hot = engine.submit(JobRequest::new(spec.clone()));
            engine.run_pending();

            let cold = engine.outcome(cold).unwrap();
            let hot = engine.outcome(hot).unwrap();
            prop_assert!(!cold.cache_hit, "{} workers: first solve hit the cache", workers);
            prop_assert!(hot.cache_hit, "{} workers: repeat missed the cache", workers);
            for (label, r) in [("cold", &cold.result), ("hit", &hot.result)] {
                prop_assert_eq!(
                    r.reward.to_bits(),
                    reference.reward.to_bits(),
                    "{} workers: {} reward diverged from the direct run",
                    workers, label
                );
                prop_assert_eq!(r.evaluations, reference.evaluations, "{}", label);
                prop_assert_eq!(&r.floorplan, &reference.floorplan, "{}", label);
            }
            let stats = engine.cache_stats();
            prop_assert_eq!(stats.hits, 1, "{} workers", workers);
            prop_assert_eq!(stats.insertions, 1, "{} workers", workers);
        }
    }
}

proptest! {
    // Daemon contract: live admission against a running drain loop, with
    // outcomes bit-identical to direct cold solves and fully reconciled
    // counters. Few cases — each spins up a daemon and real threads.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Jobs streamed into a live daemon (including an in-flight duplicate)
    /// all resolve, match their direct cold solves bit for bit, and the
    /// shared-cache counters reconcile: one counted lookup per submission.
    #[test]
    fn serve_daemon_admits_while_draining_and_matches_cold_solves(
        seed in 0u64..1_000_000,
    ) {
        use analog_floorplan::metaheuristics::{Baseline, RunControl, SaConfig, StopReason};
        use analog_floorplan::circuit::generators;
        use analog_floorplan::serve::{JobRequest, JobSpec, ServeConfig, ServeDaemon};

        let workers = [1usize, 2, 4][(seed % 3) as usize];
        let solver = Baseline::Sa(SaConfig { iterations: 60, ..SaConfig::small() });
        let specs = [
            JobSpec::new(generators::ota3(), solver.clone(), seed),
            JobSpec::new(generators::ota5(), solver.clone(), seed ^ 7),
            JobSpec::new(generators::ota3(), solver.clone(), seed ^ 13),
        ];

        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        // Stream the jobs in one at a time so later admissions land while
        // earlier batches drain, plus a duplicate of the first spec.
        let mut ids = Vec::new();
        for spec in &specs {
            ids.push(daemon.submit(JobRequest::new(spec.clone())).expect("admit"));
        }
        ids.push(daemon.submit(JobRequest::new(specs[0].clone())).expect("admit dup"));
        daemon.wait_idle();

        for (i, id) in ids.iter().enumerate() {
            let spec = if i < specs.len() { &specs[i] } else { &specs[0] };
            let outcome = daemon.outcome(*id).expect("job resolved");
            let direct = spec
                .solver
                .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded());
            prop_assert_eq!(outcome.result.stop, StopReason::Completed);
            prop_assert_eq!(
                outcome.result.reward.to_bits(),
                direct.reward.to_bits(),
                "{} workers: daemon solve diverged from direct run",
                workers
            );
            prop_assert_eq!(&outcome.result.floorplan, &direct.floorplan);
        }
        // The duplicate is a hit, not a second solve.
        let dup = daemon.outcome(*ids.last().unwrap()).expect("dup resolved");
        prop_assert!(dup.cache_hit);

        let stats = daemon.engine().cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, ids.len() as u64);
        prop_assert_eq!(stats.insertions, specs.len() as u64);

        let report = daemon.shutdown();
        prop_assert_eq!(report.resolved, ids.len());
        prop_assert_eq!(report.completed, ids.len());
        prop_assert_eq!(report.cancelled, 0);
        prop_assert_eq!(report.failed, 0);
    }
}

/// Concurrency stress: N submitter threads race a live drain loop at every
/// worker count. No job may be lost or double-run, every result must be
/// bit-identical to its cold solve, and the shared-cache counters must
/// reconcile exactly — `hits + misses == submissions`, one insertion per
/// distinct fingerprint.
#[test]
fn serve_daemon_stress_submitters_race_drain() {
    use analog_floorplan::circuit::generators;
    use analog_floorplan::metaheuristics::{Baseline, RunControl, SaConfig, StopReason};
    use analog_floorplan::serve::{JobId, JobRequest, JobSpec, ServeConfig, ServeDaemon};

    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 8;
    let solver = Baseline::Sa(SaConfig {
        iterations: 60,
        ..SaConfig::small()
    });
    let specs: Vec<JobSpec> = (0..6u64)
        .map(|i| {
            let circuit = if i % 2 == 0 {
                generators::ota3()
            } else {
                generators::ota5()
            };
            JobSpec::new(circuit, solver.clone(), 100 + i)
        })
        .collect();
    let direct: Vec<_> = specs
        .iter()
        .map(|spec| {
            spec.solver
                .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded())
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        // (spec index, job id) pairs from every submitter thread.
        let submitted: Vec<(usize, JobId)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|thread| {
                    let daemon = &daemon;
                    let specs = &specs;
                    scope.spawn(move || {
                        (0..PER_THREAD)
                            .map(|i| {
                                let which = (thread + i * SUBMITTERS) % specs.len();
                                let id = daemon
                                    .submit(JobRequest::new(specs[which].clone()))
                                    .expect("unbounded admission");
                                (which, id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        assert_eq!(submitted.len(), SUBMITTERS * PER_THREAD);
        daemon.wait_idle();

        // No job lost: every submission resolved, bit-identical to its
        // spec's cold solve.
        for (which, id) in &submitted {
            let outcome = daemon
                .outcome(*id)
                .unwrap_or_else(|| panic!("job {id:?} lost at {workers} workers"));
            assert_eq!(outcome.result.stop, StopReason::Completed);
            assert_eq!(
                outcome.result.reward.to_bits(),
                direct[*which].reward.to_bits(),
                "{workers} workers: spec {which} diverged"
            );
            assert_eq!(outcome.result.floorplan, direct[*which].floorplan);
            assert_eq!(outcome.result.evaluations, direct[*which].evaluations);
        }

        // No job double-run, counters reconcile: each distinct fingerprint
        // was solved and inserted exactly once, every other submission was
        // a counted hit, and every submission got exactly one counted
        // lookup.
        let stats = daemon.engine().cache_stats();
        assert_eq!(stats.insertions, specs.len() as u64, "{workers} workers");
        assert_eq!(stats.misses, specs.len() as u64, "{workers} workers");
        assert_eq!(
            stats.hits,
            (submitted.len() - specs.len()) as u64,
            "{workers} workers"
        );
        assert_eq!(stats.hits + stats.misses, submitted.len() as u64);

        let report = daemon.shutdown();
        assert_eq!(report.resolved, submitted.len());
        assert_eq!(report.completed, submitted.len());
    }
}

proptest! {
    // Small random geometries so tier-1 (a debug build) stays fast; strides
    // 1–3, padding 0–2 and kernels 1–4 cover stride 2, padding 0 and 1×1.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential test of the order-preserving `Conv2d` kernels against the
    /// historical per-output loops: forward outputs, input gradients and
    /// parameter gradients accumulated over three calls, bit for bit, plus
    /// `backward_params` against `backward`.
    #[test]
    fn conv_kernels_match_naive_oracle_bitwise(
        channels in (1usize..5, 1usize..5),
        window in (1usize..5, 1usize..4, 0usize..3),
        size in (1usize..10, 1usize..10),
        seed in 0u64..1_000_000
    ) {
        let g = Geometry {
            in_c: channels.0, out_c: channels.1, k: window.0, stride: window.1,
            padding: window.2, h: size.0, w: size.1,
        };
        check_strided(Strided::Conv, &g, seed, 3);
    }

    /// The same differential test for the sub-pixel `ConvTranspose2d` kernels
    /// against the historical per-input scatter loops.
    #[test]
    fn deconv_kernels_match_naive_oracle_bitwise(
        channels in (1usize..5, 1usize..5),
        window in (1usize..5, 1usize..4, 0usize..3),
        size in (1usize..8, 1usize..8),
        seed in 0u64..1_000_000
    ) {
        let g = Geometry {
            in_c: channels.0, out_c: channels.1, k: window.0, stride: window.1,
            padding: window.2, h: size.0, w: size.1,
        };
        check_strided(Strided::Deconv, &g, seed, 3);
    }

    /// `Dense::forward` (four rows per pass) against the per-row loop; the
    /// output counts cover every remainder of four.
    #[test]
    fn dense_forward_matches_naive_oracle_bitwise(
        shape in (1usize..70, 1usize..14),
        seed in 0u64..1_000_000
    ) {
        check_dense_forward(shape.0, shape.1, seed);
    }
}

/// The policy's own layer geometries: every small-config conv, deconv and
/// dense layer, and the paper config's first conv and its deconv head (the
/// wide paper convs are left to the random geometries above, which share
/// their code path, to keep this debug-build test fast).
#[test]
fn policy_layer_shapes_match_naive_oracle_bitwise() {
    let g = |in_c, out_c, k, stride, padding, size| Geometry {
        in_c,
        out_c,
        k,
        stride,
        padding,
        h: size,
        w: size,
    };
    let conv = [
        g(6, 4, 3, 1, 1, 32),
        g(4, 3, 1, 1, 0, 32),
        g(6, 16, 3, 1, 1, 32),
        g(8, 3, 1, 1, 0, 32),
    ];
    let deconv = [
        g(8, 8, 4, 2, 1, 4),
        g(8, 4, 4, 2, 1, 8),
        g(4, 4, 4, 2, 1, 16),
        g(32, 32, 4, 2, 1, 4),
        g(32, 16, 4, 2, 1, 8),
        g(16, 8, 4, 2, 1, 16),
    ];
    for (i, geometry) in conv.iter().enumerate() {
        check_strided(Strided::Conv, geometry, i as u64, 3);
    }
    for (i, geometry) in deconv.iter().enumerate() {
        check_strided(Strided::Deconv, geometry, i as u64, 3);
    }
    let dense = [(4096, 32), (96, 128), (96, 32), (32, 1), (576, 512)];
    for (i, (in_f, out_f)) in dense.into_iter().enumerate() {
        check_dense_forward(in_f, out_f, i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The batch-innermost conv, deconv and dense kernels at B ∈ {1, 2, 3, 8,
    /// 11} (11: an eight-lane block plus single lanes) against the per-sample oracle loops run one transition after another:
    /// every lane's forward output and input gradient, and the parameter
    /// gradients accumulated transition-major over two batches, bit for bit.
    #[test]
    fn batched_kernels_match_per_sample_oracle_bitwise(
        kind in 0usize..3,
        channels in (1usize..5, 1usize..5),
        window in (1usize..5, 1usize..4, 0usize..3),
        size in (1usize..8, 1usize..8),
        lanes in 0usize..5,
        seed in 0u64..1_000_000
    ) {
        let g = Geometry {
            in_c: channels.0, out_c: channels.1, k: window.0, stride: window.1,
            padding: window.2, h: size.0, w: size.1,
        };
        let kernel = match kind {
            0 => Kernel::Strided(Strided::Conv, g),
            1 => Kernel::Strided(Strided::Deconv, g),
            // Widths cover every remainder of the 4-, 8- and 16-wide blocks.
            _ => Kernel::Dense { in_f: size.0 * size.1 * channels.0, out_f: size.0 * channels.1 },
        };
        check_batched(kernel, seed, [1, 2, 3, 8, 11][lanes]);
    }
}

/// The policy's own layer geometries (small config, and the paper config's
/// deconv head) as batches of 3, 8 and 11 against the per-sample oracle.
#[test]
fn policy_layer_shapes_match_batched_oracle_bitwise() {
    let g = |in_c, out_c, k, stride, padding, size| Geometry {
        in_c,
        out_c,
        k,
        stride,
        padding,
        h: size,
        w: size,
    };
    let kernels = [
        Kernel::Strided(Strided::Conv, g(6, 4, 3, 1, 1, 32)),
        Kernel::Strided(Strided::Conv, g(4, 3, 1, 1, 0, 32)),
        Kernel::Strided(Strided::Deconv, g(8, 8, 4, 2, 1, 4)),
        Kernel::Strided(Strided::Deconv, g(8, 4, 4, 2, 1, 8)),
        Kernel::Strided(Strided::Deconv, g(4, 4, 4, 2, 1, 16)),
        Kernel::Strided(Strided::Deconv, g(32, 16, 4, 2, 1, 8)),
        Kernel::Dense {
            in_f: 4096,
            out_f: 32,
        },
        Kernel::Dense {
            in_f: 96,
            out_f: 128,
        },
        Kernel::Dense {
            in_f: 96,
            out_f: 32,
        },
        Kernel::Dense { in_f: 32, out_f: 1 },
    ];
    for (i, kernel) in kernels.into_iter().enumerate() {
        for lanes in [3, 8, 11] {
            check_batched(kernel, i as u64, lanes);
        }
    }
}

/// `PpoTrainer::update` (one batched forward and backward per minibatch)
/// against the per-transition reference loop on the same seeded 25-transition
/// buffer (minibatches of 8 leave a remainder of 1): every parameter bit,
/// every loss statistic and the step count, over two consecutive updates so
/// the optimizer state carries over too.
#[test]
fn batched_ppo_update_matches_per_transition_reference() {
    let (mut agent, buffer) = seeded_small_rollouts();
    let (mut reference, _) = seeded_small_rollouts();
    let config = agent.config().ppo.clone();
    assert_eq!((buffer.len(), config.minibatch_size), (25, 8));
    let mut trainer = PpoTrainer::new(config.clone());
    let mut optimizer = Adam::new(config.learning_rate);
    let bits = |agent: &FloorplanAgent| -> Vec<Vec<u32>> {
        agent
            .policy()
            .params()
            .iter()
            .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    for update in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(0x990 + update);
        let stats = trainer.update(agent.policy_mut(), &buffer, &mut rng);
        let mut rng = StdRng::seed_from_u64(0x990 + update);
        let (losses, steps) = reference_ppo_update(
            &config,
            &mut optimizer,
            reference.policy_mut(),
            &buffer,
            &mut rng,
        );
        let batched = [
            stats.policy_loss,
            stats.value_loss,
            stats.entropy,
            stats.approx_kl,
        ];
        assert_eq!(
            (batched.map(f32::to_bits), stats.gradient_steps),
            (losses.map(f32::to_bits), steps),
            "update {update}: loss statistics diverged"
        );
        assert!(
            bits(&agent) == bits(&reference),
            "update {update}: parameters diverged"
        );
    }
}

/// The five-transistor OTA netlist the SPICE mutations start from (the
/// `parse_spice` unit-test fixture).
const FIVE_T_OTA: &str = "* five transistor OTA
M1 outl inp tail 0 nmos W=8u L=0.5u NF=2
M2 out  inn tail 0 nmos W=8u L=0.5u NF=2
M3 outl outl vdd vdd pmos W=12u L=0.5u NF=2
M4 out  outl vdd vdd pmos W=12u L=0.5u NF=2
M5 tail vbias 0 0 nmos W=16u L=1u NF=4
C1 out 0 1.0
.end
";

/// Card tokens spliced into the OTA text: parameter keys with and without
/// values, hostile magnitudes, continuations, directives and stray
/// separators.
const SPICE_TOKENS: &[&str] = &[
    "W=", "L=", "NF=", "M=", "W=0", "W=-8u", "W=inf", "W=nan", "W=1e30", "L=1e-30u", "NF=1000",
    "NF=0", "M=1e9", "+", "+ W=4u", "\n+", ".subckt", ".ends", ".end", ".param", "nmos", "pmos",
    "C9 o 0", "R7 a b", "*", "=", " ", "\n", "\t", "0", "u", "1e308", "M", "C", "outl", "vdd",
];

/// One seeded mutation of the OTA netlist: `edits` rounds of character
/// deletions, token insertions and extra random MOS cards. Tokens and cards
/// usually land on field and line boundaries, so about half the inputs
/// still parse and reach recognition and layout.
fn mutated_spice(seed: u64, edits: usize) -> String {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text: Vec<char> = FIVE_T_OTA.chars().collect();
    // A random position just after a `sep` character, or anywhere when the
    // coin says so (or no `sep` is left).
    let boundary = |text: &[char], sep: char, rng: &mut StdRng| {
        let stops: Vec<usize> = (0..text.len()).filter(|&i| text[i] == sep).collect();
        if stops.is_empty() || rng.gen_bool(0.2) {
            rng.gen_range(0..text.len() + 1)
        } else {
            stops[rng.gen_range(0..stops.len())] + 1
        }
    };
    for _ in 0..edits {
        match rng.gen_range(0..3) {
            0 if !text.is_empty() => {
                let at = rng.gen_range(0..text.len());
                let end = (at + rng.gen_range(1usize..4)).min(text.len());
                text.drain(at..end);
            }
            1 => {
                let at = boundary(&text, ' ', &mut rng);
                let token = SPICE_TOKENS[rng.gen_range(0..SPICE_TOKENS.len())];
                text.splice(at..at, format!("{token} ").chars());
            }
            _ => {
                const NETS: [&str; 7] = ["out", "outl", "tail", "inp", "vdd", "0", "x"];
                const VALUES: [&str; 6] = ["8u", "0.5u", "3e-7", "2u", "120u", "1"];
                let net = |rng: &mut StdRng| NETS[rng.gen_range(0..NETS.len())];
                let value = |rng: &mut StdRng| VALUES[rng.gen_range(0..VALUES.len())];
                let card = format!(
                    "M{} {} {} {} {} {} W={} L={} NF={}\n",
                    rng.gen_range(6..40),
                    net(&mut rng),
                    net(&mut rng),
                    net(&mut rng),
                    net(&mut rng),
                    if rng.gen_bool(0.5) { "nmos" } else { "pmos" },
                    value(&mut rng),
                    value(&mut rng),
                    rng.gen_range(1..9),
                );
                let at = boundary(&text, '\n', &mut rng);
                text.splice(at..at, card.chars());
            }
        }
    }
    text.into_iter().collect()
}

proptest! {
    // Hostile-input contract of the SPICE front end: run by name in
    // scripts/ci.sh. Each case runs a full greedy layout, so fewer cases
    // than the differential blocks.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Mutated SPICE text never panics anywhere in `parse_spice` →
    /// `LayoutPipeline::recognize` → `LayoutPipeline::with_greedy().run`:
    /// a malformed netlist must come back as a `SpiceError`, and any netlist
    /// the parser accepts must lay out.
    #[test]
    fn spice_text_never_panics_through_the_greedy_pipeline(
        seed in 0u64..1_000_000,
        edits in 1usize..9,
    ) {
        use analog_floorplan::circuit::spice::parse_spice;
        use analog_floorplan::core::LayoutPipeline;
        let text = mutated_spice(seed, edits);
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(schematic) = parse_spice("mutated-ota", &text) {
                let circuit = LayoutPipeline::recognize(&schematic);
                let _ = LayoutPipeline::with_greedy().run(&circuit);
            }
        });
        prop_assert!(outcome.is_ok(), "panicked on SPICE input {:?}", text);
    }
}

/// What admission must do with one hostile request.
#[derive(Debug, Clone, Copy)]
enum Admission {
    /// Rejected with a typed `RejectReason`.
    Rejected,
    /// Admitted, and it must end in `JobState::Done`.
    Served,
}

/// Malformed `JobRequest`s built directly (not through `parse_spice`): an
/// empty circuit, a block dimension set to `bad`, a constraint and a net pin
/// naming a block past the end, empty GA/PSO searches, SA and RL-SA cooling
/// schedules with zero moves per temperature, zero-iteration runs
/// of every baseline, and zero budgets and deadlines.
fn hostile_job_requests(
    seed: u64,
    bad: f64,
) -> Vec<(&'static str, analog_floorplan::serve::JobRequest, Admission)> {
    use analog_floorplan::circuit::{
        generators, AlignmentGroup, Axis, Circuit, Constraint, Net, NetId, Pin,
    };
    use analog_floorplan::metaheuristics::{
        Baseline, GaConfig, PsoConfig, RlSaConfig, SaConfig, SpRlConfig,
    };
    use analog_floorplan::serve::{JobRequest, JobSpec};
    use std::time::Duration;

    let base = match seed % 3 {
        0 => generators::ota3(),
        1 => generators::ota5(),
        _ => generators::ota8(),
    };
    let n = base.num_blocks();
    let victim = (seed as usize / 3) % n;
    let past_end = BlockId(n + (seed as usize / 7) % 4);
    let sa = Baseline::Sa(SaConfig {
        iterations: 30,
        ..SaConfig::small()
    });
    let job = |circuit: &Circuit, solver: &Baseline| {
        JobRequest::new(JobSpec::new(circuit.clone(), solver.clone(), seed))
    };

    let mut area = base.clone();
    area.blocks[victim].area_um2 = bad;
    let mut stripe = base.clone();
    stripe.blocks[victim].stripe_width_um = bad;
    let mut constrained = base.clone();
    constrained
        .constraints
        .push(Constraint::Alignment(AlignmentGroup::new(
            Axis::Horizontal,
            vec![BlockId(victim), past_end],
        )));
    let mut wired = base.clone();
    wired.nets.push(Net::new(
        NetId(wired.nets.len()),
        "dangling",
        vec![Pin::new(BlockId(victim), "a"), Pin::new(past_end, "b")],
    ));

    let mut requests = vec![
        (
            "zero blocks",
            job(&Circuit::new("empty"), &sa),
            Admission::Rejected,
        ),
        ("block area", job(&area, &sa), Admission::Rejected),
        ("block stripe width", job(&stripe, &sa), Admission::Rejected),
        (
            "constraint past the end",
            job(&constrained, &sa),
            Admission::Rejected,
        ),
        (
            "net pin past the end",
            job(&wired, &sa),
            Admission::Rejected,
        ),
        (
            "zero GA population",
            job(
                &base,
                &Baseline::Ga(GaConfig {
                    population: 0,
                    ..GaConfig::small()
                }),
            ),
            Admission::Rejected,
        ),
        (
            "zero PSO particles",
            job(
                &base,
                &Baseline::Pso(PsoConfig {
                    particles: 0,
                    ..PsoConfig::small()
                }),
            ),
            Admission::Rejected,
        ),
        (
            "zero SA moves per temperature",
            job(
                &base,
                &Baseline::Sa(SaConfig {
                    moves_per_temperature: 0,
                    ..SaConfig::small()
                }),
            ),
            Admission::Rejected,
        ),
        (
            "zero RL-SA refinement moves per temperature",
            job(
                &base,
                &Baseline::RlSa(RlSaConfig {
                    refinement: SaConfig {
                        moves_per_temperature: 0,
                        ..SaConfig::small()
                    },
                    ..RlSaConfig::small()
                }),
            ),
            Admission::Rejected,
        ),
    ];
    let zero_iterations = [
        Baseline::Sa(SaConfig {
            iterations: 0,
            ..SaConfig::small()
        }),
        Baseline::Ga(GaConfig {
            generations: 0,
            ..GaConfig::small()
        }),
        Baseline::Pso(PsoConfig {
            iterations: 0,
            ..PsoConfig::small()
        }),
        Baseline::SpRl(SpRlConfig {
            episodes: 0,
            ..SpRlConfig::small()
        }),
        Baseline::RlSa(RlSaConfig {
            warmup: SpRlConfig {
                episodes: 0,
                ..SpRlConfig::small()
            },
            refinement: SaConfig {
                iterations: 0,
                ..SaConfig::small()
            },
        }),
    ];
    for solver in &zero_iterations {
        requests.push(("zero iterations", job(&base, solver), Admission::Served));
    }
    let mut budget = job(&base, &sa);
    budget.budget = Some(0);
    requests.push(("zero budget", budget, Admission::Served));
    let mut deadline = job(&base, &sa);
    deadline.deadline = Some(Duration::ZERO);
    requests.push(("zero deadline", deadline, Admission::Served));
    requests
}

proptest! {
    // Hostile-input contract of the serve admission path: run by name in
    // scripts/ci.sh. Each case drains a handful of tiny solves.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Malformed job requests never panic through `try_submit` →
    /// `run_pending`: a request no solver can run is a typed `RejectReason`
    /// at admission, every admitted one ends in `JobState::Done` (never
    /// `Failed`), and a valid job served afterwards still equals its
    /// `Baseline::run` bit for bit.
    #[test]
    fn hostile_job_requests_are_rejected_or_served(
        seed in 0u64..1_000_000,
        bad_index in 0usize..6,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{Baseline, SaConfig};
        use analog_floorplan::serve::{
            JobEngine, JobRequest, JobSpec, JobState, RejectReason, ServeConfig,
        };
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -2.5][bad_index];
        let engine = JobEngine::new(&ServeConfig {
            workers: 1 + (seed % 2) as usize,
            ..ServeConfig::default()
        });
        for (what, request, expected) in hostile_job_requests(seed, bad) {
            let admitted = catch_unwind(AssertUnwindSafe(|| engine.try_submit(request)));
            prop_assert!(admitted.is_ok(), "{}: admission panicked", what);
            match (admitted.unwrap(), expected) {
                (Err(reason), Admission::Rejected) => {
                    prop_assert!(
                        matches!(
                            reason,
                            RejectReason::InvalidCircuit(_) | RejectReason::EmptySearch { .. }
                        ),
                        "{}: rejected as {}", what, reason
                    );
                }
                (Ok(id), Admission::Served) => {
                    let drained = catch_unwind(AssertUnwindSafe(|| engine.run_pending()));
                    prop_assert!(drained.is_ok(), "{}: the drain panicked", what);
                    let state = engine.state(id);
                    prop_assert!(
                        matches!(state, JobState::Done(_)),
                        "{}: ended {:?}, not Done", what, state
                    );
                }
                (outcome, _) => prop_assert!(
                    false,
                    "{}: expected {:?}, admission gave {:?}", what, expected, outcome
                ),
            }
        }

        let spec = JobSpec::new(
            generators::ota5(),
            Baseline::Sa(SaConfig { iterations: 60, ..SaConfig::small() }),
            seed,
        );
        let id = engine.submit(JobRequest::new(spec.clone()));
        engine.run_pending();
        let served = engine.outcome(id).expect("valid job served");
        let direct = spec.solver.run(&spec.circuit, spec.seed);
        prop_assert_eq!(served.result.reward.to_bits(), direct.reward.to_bits());
        prop_assert_eq!(served.result.evaluations, direct.evaluations);
        prop_assert_eq!(&served.result.floorplan, &direct.floorplan);
    }
}
