//! Property-based tests over the core data structures and invariants, using
//! randomly generated circuits, placements and sequence pairs.

use proptest::prelude::*;

use analog_floorplan::circuit::{Block, BlockId, BlockKind, Shape};
use analog_floorplan::circuit::{node_features, NODE_FEATURE_DIM};
use analog_floorplan::layout::{metrics, Canvas, Cell, Floorplan, SequencePair, GRID_SIZE};
use analog_floorplan::tensor::Tensor;

/// Scalar `Vec<bool>` occupancy grid — the pre-bitboard reference
/// implementation of `fits`, the spiral nearest-fit scan and the positional
/// free-space test, retained as the differential oracle for the `BitGrid`
/// word-level engine (mirroring how `legacy-pack` oracles FAST-SP). The side
/// is parametric so the same oracle also checks multi-word grids past the
/// historical 64-column ceiling.
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
    // 200+ random pairs: the acceptance bar of the FAST-SP packing engine.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Differential test of the packing engines: the FAST-SP O(n log n) LCS
    /// evaluation must produce byte-identical positions and enclosing
    /// dimensions to the legacy O(n³) relaxation oracle (`legacy-pack`
    /// feature), and the packing must be overlap-free. Block counts go up to
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
        use analog_floorplan::layout::constraints::constraint_mask;
        use analog_floorplan::layout::masks::positional_mask;
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
                    let expected = if constraints[idx] == 1.0
                        && scalar.fits(Cell::new(x, y), gw, gh)
                    {
                        1.0f32
                    } else {
                        0.0
                    };
                    prop_assert_eq!(mask[idx], expected,
                        "positional mask diverges at ({}, {}) for block {:?}", x, y, block);
                }
            }
        }
    }

    /// Differential test of the incremental realization engine: after any
    /// random perturbation sequence (sequence swaps, shape changes, canvas
    /// switches), `realize_floorplan_incremental` through a warm cache must
    /// be bit-identical to a fresh `realize_floorplan` — grid occupancy,
    /// block anchors and metrics all compared (mirroring the `ScalarGrid`
    /// oracle pattern of the BitGrid PR).
    #[test]
    fn incremental_realize_matches_full_after_perturbation_sequences(
        seed in 0u64..1_000_000,
        moves in 1usize..14,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::layout::sequence_pair::{
            realize_floorplan, realize_floorplan_incremental,
        };
        use analog_floorplan::layout::{PackScratch, RealizeCache};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = generators::random_circuit(&mut rng);
        let base_canvas = Canvas::for_circuit(&circuit);
        let alt_canvas = Canvas::new(base_canvas.width_um * 0.75, base_canvas.height_um * 1.25);
        let n = circuit.num_blocks();
        let mut positive: Vec<usize> = (0..n).collect();
        let mut negative: Vec<usize> = (0..n).collect();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        let mut shapes: Vec<Shape> = (0..n)
            .map(|_| Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0)))
            .collect();
        let mut canvas = base_canvas;

        let mut scratch = PackScratch::with_capacity(n);
        let mut cache = RealizeCache::new();
        let mut fp = Floorplan::new(canvas);
        let hpwl_min = metrics::hpwl_lower_bound(&circuit);
        let weights = metrics::RewardWeights::default();

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
                    canvas = if canvas == base_canvas { alt_canvas } else { base_canvas };
                }
                _ => {} // identical episode: everything should be kept
            }

            realize_floorplan_incremental(
                &positive, &negative, &shapes, &circuit, canvas, &mut scratch, &mut fp,
                &mut cache,
            );

            let mut fresh_scratch = PackScratch::with_capacity(n);
            let mut fresh = Floorplan::new(canvas);
            realize_floorplan(
                &positive, &negative, &shapes, &circuit, canvas, &mut fresh_scratch, &mut fresh,
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
            prop_assert_eq!(metrics::hpwl(&circuit, &fp), metrics::hpwl(&circuit, &fresh));
            prop_assert_eq!(metrics::dead_space(&fp), metrics::dead_space(&fresh));
            prop_assert_eq!(
                metrics::episode_reward(&circuit, &fp, hpwl_min, &weights),
                metrics::episode_reward(&circuit, &fresh, hpwl_min, &weights)
            );
        }
    }

    /// Differential test of the incremental FAST-SP pack: after any random
    /// perturbation sequence (s⁺/s⁻ swaps, shape changes, identical
    /// repeats), `pack_coords_cached` through a warm `PackCache` must return
    /// coordinates and enclosing dimensions bit-identical to a fresh
    /// `pack_coords` sweep — across both the linear-scan (n ≤ 32) and the
    /// Fenwick engine.
    #[test]
    fn incremental_pack_matches_full_on_perturbation_walks(
        seed in 0u64..1_000_000,
        n in 2usize..48,
        moves in 1usize..16,
    ) {
        use analog_floorplan::layout::lcs_pack::{pack_coords, pack_coords_cached, PackCache};
        use analog_floorplan::layout::PackScratch;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut shapes: Vec<Shape> = (0..n)
            .map(|_| Shape::new(rng.gen_range(0.5..25.0), rng.gen_range(0.5..25.0)))
            .collect();
        let mut positive: Vec<usize> = (0..n).collect();
        let mut negative: Vec<usize> = (0..n).collect();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        let mut scratch = PackScratch::with_capacity(n);
        let mut cache = PackCache::new();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for _ in 0..moves {
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
                    shapes[b] = Shape::new(rng.gen_range(0.5..25.0), rng.gen_range(0.5..25.0));
                }
                _ => {} // identical evaluation: both passes replay outright
            }
            let (w, h) = pack_coords_cached(
                &positive, &negative, &shapes, &mut scratch, &mut cache, &mut x, &mut y,
            );
            let mut fresh_scratch = PackScratch::with_capacity(n);
            let (mut fx, mut fy) = (Vec::new(), Vec::new());
            let (fw, fh) =
                pack_coords(&positive, &negative, &shapes, &mut fresh_scratch, &mut fx, &mut fy);
            prop_assert_eq!(&x, &fx, "x coordinates diverged");
            prop_assert_eq!(&y, &fy, "y coordinates diverged");
            prop_assert_eq!((w, h), (fw, fh), "enclosing dimensions diverged");
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
            let cell_x = ((px * scale) / canvas.cell_width_um()).round() as usize;
            let cell_y = ((py * scale) / canvas.cell_height_um()).round() as usize;
            let cell = Cell::new(cell_x.min(GRID_SIZE - 1), cell_y.min(GRID_SIZE - 1));
            let (gw, gh) = canvas.shape_to_cells(&shape);
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
    // 200+ random cases each: the acceptance bar of the multi-word engines —
    // the same scalar / full-rebuild differentials as the blocks above, but
    // on grids wider than one 64-bit word and circuits past the historical
    // 64-block / 64-constraint bitmask ceiling. Run by name in scripts/ci.sh.
    // Neither builds a `CostCache`, so the oracle features cannot change
    // what they check.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Word-spanning occupancy queries versus the scalar oracle: on a grid
    /// with 65–96 columns (2 words per row), `fits`, the free-anchor map and
    /// the banded nearest-fit search must agree with the scalar grid and the
    /// historical spiral scan on every cell — anchors probed across both
    /// word seams.
    #[test]
    fn multiword_grid_fits_anchors_and_nearest_fit_match_scalar(
        side in 65usize..97,
        placements in prop::collection::vec(
            ((0usize..96), (0usize..96), (1.0f64..18.0), (1.0f64..18.0)), 1..24),
        footprint in ((1usize..20), (1usize..8)),
        start in ((0usize..96), (0usize..96)),
    ) {
        use analog_floorplan::layout::sequence_pair::find_nearest_fit;
        let canvas = Canvas::new(side as f64, side as f64);
        let mut fp = Floorplan::with_grid_side(canvas, side);
        let mut scalar = ScalarGrid::with_side(side);
        for (i, (x, y, w, h)) in placements.into_iter().enumerate() {
            if x >= side || y >= side {
                continue;
            }
            if fp.place(BlockId(i), 0, Shape::new(w, h), Cell::new(x, y)).is_ok() {
                let p = fp.placed().last().unwrap();
                scalar.set_rect(p.cell, p.grid_w, p.grid_h);
            }
        }
        let (gw, gh) = footprint;
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
        let start = Cell::new(start.0.min(side - 1), start.1.min(side - 1));
        prop_assert_eq!(
            find_nearest_fit(&fp, start, gw, gh),
            scalar.find_nearest_fit(start, gw, gh),
            "nearest fit diverges from spiral scan at start ({}, {})", start.x, start.y
        );
    }

    /// The incremental realization engine past the 64-block ceiling: along
    /// random perturbation walks of a 65–200 block circuit on a 96-cell
    /// grid, `realize_floorplan_incremental` through a warm cache must stay
    /// bit-identical to a fresh `realize_floorplan` — multi-word occupancy,
    /// anchors, placement records and metrics all compared.
    #[test]
    fn incremental_realize_matches_full_beyond_64_blocks(
        n in 65usize..201,
        seed in 0u64..1_000_000,
        moves in 1usize..5,
    ) {
        use analog_floorplan::layout::sequence_pair::{
            realize_floorplan, realize_floorplan_incremental,
        };
        use analog_floorplan::layout::{PackScratch, RealizeCache};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        const SIDE: usize = 96;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = large_circuit(n, seed);
        let base_canvas = Canvas::for_circuit(&circuit);
        let alt_canvas = Canvas::new(base_canvas.width_um * 0.75, base_canvas.height_um * 1.25);
        let mut positive: Vec<usize> = (0..n).collect();
        let mut negative: Vec<usize> = (0..n).collect();
        positive.shuffle(&mut rng);
        negative.shuffle(&mut rng);
        let mut shapes: Vec<Shape> = (0..n)
            .map(|_| Shape::new(rng.gen_range(0.5..20.0), rng.gen_range(0.5..20.0)))
            .collect();
        let mut canvas = base_canvas;

        let mut scratch = PackScratch::with_capacity(n);
        let mut cache = RealizeCache::new();
        let mut fp = Floorplan::with_grid_side(canvas, SIDE);

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
                    canvas = if canvas == base_canvas { alt_canvas } else { base_canvas };
                }
                _ => {} // identical episode: everything should be kept
            }

            realize_floorplan_incremental(
                &positive, &negative, &shapes, &circuit, canvas, &mut scratch, &mut fp,
                &mut cache,
            );

            let mut fresh_scratch = PackScratch::with_capacity(n);
            let mut fresh = Floorplan::with_grid_side(canvas, SIDE);
            realize_floorplan(
                &positive, &negative, &shapes, &circuit, canvas, &mut fresh_scratch, &mut fresh,
            );

            prop_assert_eq!(fp.grid(), fresh.grid(), "multi-word occupancy diverged");
            prop_assert_eq!(fp.num_placed(), fresh.num_placed());
            for (a, b) in fp.placed().iter().zip(fresh.placed().iter()) {
                prop_assert_eq!(a.block, b.block, "anchor order diverged");
                prop_assert_eq!(a.cell, b.cell, "anchor cell diverged");
                prop_assert_eq!((a.grid_w, a.grid_h), (b.grid_w, b.grid_h));
                prop_assert_eq!(&a.rect, &b.rect);
            }
            prop_assert!(fp == fresh, "floorplans diverged");
            prop_assert_eq!(metrics::hpwl(&circuit, &fp), metrics::hpwl(&circuit, &fresh));
        }
    }
}

proptest! {
    // Differential safety net of the parallel evaluation engine (layer 5,
    // see ARCHITECTURE.md): run by name in scripts/ci.sh under the default
    // and the feature-gated oracle configuration.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `EvalPool::evaluate` must return, for random populations and any
    /// worker count, exactly the costs the serial `cost_cached` loop
    /// produces — in candidate order, bit-identical `f64`s. Two generations
    /// are scored per case so the second batch runs on warm per-worker
    /// caches (the incremental engines diffing against whichever candidate
    /// that worker saw last — the steady state GA/PSO live in).
    #[test]
    fn eval_pool_matches_serial_cost_cached(
        seed in 0u64..1_000_000,
        population in 2usize..24,
        workers in 1usize..5,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{Candidate, CostCache, EvalPool, Problem};
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

        let mut pool = EvalPool::new(&problem, workers);
        let mut serial_cache = CostCache::new(&problem);
        for round in 0..2 {
            let batch = pool.evaluate(&problem, &generation);
            let serial: Vec<f64> = generation
                .iter()
                .map(|c| problem.cost_cached(c, &mut serial_cache))
                .collect();
            prop_assert_eq!(
                &batch, &serial,
                "pool diverged from the serial loop (round {}, {} workers)",
                round, workers
            );
            for (candidate, &cost) in generation.iter().zip(&batch) {
                prop_assert_eq!(cost, problem.cost(candidate), "cost diverged from Problem::cost");
            }
            // GA-style drift into the next generation: perturb every member.
            for candidate in &mut generation {
                let _ = candidate.perturb(&mut rng);
            }
        }

        // The pool's runtime oracle toggle: flip every worker cache to the
        // full-rebuild realization path and re-score — still bit-identical
        // to the uncached cost.
        pool.set_incremental(false);
        let oracle = pool.evaluate(&problem, &generation);
        for (candidate, &cost) in generation.iter().zip(&oracle) {
            prop_assert_eq!(cost, problem.cost(candidate), "oracle-path pool cost diverged");
        }
    }

    /// An N-chain `multistart_sa` run over the persistent worker pool must
    /// be, chain for chain, bit-identical to N sequential
    /// `simulated_annealing_on` runs with the derived chain seeds on
    /// fresh caches — and pick the same winner — for any chain count, any
    /// worker count, and restart schedules on or off. This is the
    /// whole-trajectory analogue of `eval_pool_matches_serial_cost_cached`:
    /// a worker's cache is warm with whatever chain it served last, so any
    /// cache-state leakage into costs would split the trajectories.
    #[test]
    fn multistart_sa_matches_serial_replay(
        seed in 0u64..1_000_000,
        chains in 1usize..5,
        workers in 1usize..5,
        restarts in 0usize..3,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{
            chain_seed, multistart_sa, select_winner, simulated_annealing_on, CostCache,
            MultistartSaConfig, Problem, RunControl, SaConfig,
        };
        let circuit = match seed % 3 {
            0 => generators::ota5(),
            1 => generators::ota8(),
            _ => generators::bias9(),
        };
        let cfg = MultistartSaConfig {
            base: SaConfig {
                iterations: 120,
                seed,
                locality_bias: 0.5,
                restarts,
                ..SaConfig::small()
            },
            chains,
            workers,
        };
        let pooled = multistart_sa(&circuit, &cfg);
        prop_assert_eq!(pooled.chains.len(), chains);

        let problem = Problem::new(&circuit);
        let mut serial = Vec::with_capacity(chains);
        for chain in 0..chains {
            let chain_cfg = SaConfig {
                seed: chain_seed(cfg.base.seed, chain),
                ..cfg.base.clone()
            };
            let mut cache = CostCache::new(&problem);
            let unbounded = RunControl::unbounded();
            let (result, _) =
                simulated_annealing_on(&problem, &chain_cfg, None, &mut cache, &unbounded);
            serial.push(result);
        }
        for (chain, (outcome, s)) in pooled.chains.iter().zip(&serial).enumerate() {
            let p = outcome
                .result()
                .unwrap_or_else(|| panic!("uncontrolled chain {chain} did not finish"));
            prop_assert_eq!(
                p.reward, s.reward,
                "chain {} reward diverged from serial replay ({} workers)",
                chain, workers
            );
            prop_assert_eq!(p.evaluations, s.evaluations, "chain {} budget diverged", chain);
            prop_assert_eq!(
                &p.floorplan, &s.floorplan,
                "chain {} floorplan diverged ({} workers)",
                chain, workers
            );
        }
        prop_assert_eq!(
            pooled.winner,
            Some(select_winner(&circuit, &serial)),
            "winner diverged from the serial reduction"
        );
    }

    /// An SA run under a `RunControl` whose deadline and budget can never
    /// fire must replay the uncontrolled run bit for bit, at any polling
    /// stride: the control layer's polls draw nothing from the RNG, so PR 6
    /// trajectories are preserved exactly. (An interrupted run is allowed to
    /// — and does — stop early; this pins the *uninterrupted* contract.)
    #[test]
    fn sa_with_generous_deadline_replays_the_unbounded_run(
        seed in 0u64..1_000_000,
        stride in 1u64..200,
        restarts in 0usize..3,
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
            restarts,
            ..SaConfig::small()
        };
        let mut cache = CostCache::new(&problem);
        let unbounded = RunControl::unbounded();
        let plain = simulated_annealing_on(&problem, &cfg, None, &mut cache, &unbounded).0;
        let control = RunControl::unbounded()
            .with_deadline(Duration::from_secs(3600))
            .with_budget(u64::MAX)
            .with_stride(stride);
        let mut cache = CostCache::new(&problem);
        let controlled = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control).0;
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
        let (controlled, _) = baseline.run_controlled(&circuit, 7, &generous, None);
        assert_eq!(controlled.stop, StopReason::Completed, "{name}");
        assert_eq!(controlled.reward, plain.reward, "{name}: reward diverged");
        assert_eq!(controlled.evaluations, plain.evaluations, "{name}");
        assert_eq!(controlled.floorplan, plain.floorplan, "{name}: floorplan");

        let tight = RunControl::unbounded().with_budget(BUDGET);
        let (budgeted, _) = baseline.run_controlled(&circuit, 7, &tight, None);
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

/// Robustness proptests of the chain-race failure domains, driven by the
/// deterministic fault-injection harness (`--features fault-inject`; run by
/// name in scripts/ci.sh).
#[cfg(feature = "fault-inject")]
mod fault_injection {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `multistart_sa_injected` under a seeded `FaultPlan`: the set of
        /// panicked chains is exactly the planned set at every worker count,
        /// surviving chains are bit-identical to serial replays with the
        /// derived chain seeds, and the winner reduces deterministically
        /// over the survivors — `None` only when every chain panicked.
        /// Stalls perturb scheduling only; results must not move.
        #[test]
        fn multistart_survivors_winner_is_deterministic_under_injected_faults(
            seed in 0u64..1_000_000,
            chains in 1usize..6,
            panic_percent in 0u8..70,
            stall_percent in 0u8..25,
        ) {
            use analog_floorplan::circuit::generators;
            use analog_floorplan::metaheuristics::{
                chain_seed, multistart_sa_injected, select_surviving_winner,
                simulated_annealing_on, ChainOutcome, CostCache, MultistartSaConfig, Problem,
                RunControl, SaConfig,
            };
            use analog_floorplan::par::fault::FaultPlan;
            let circuit = match seed % 3 {
                0 => generators::ota5(),
                1 => generators::ota8(),
                _ => generators::bias9(),
            };
            let problem = Problem::new(&circuit);
            let cfg = MultistartSaConfig {
                base: SaConfig {
                    iterations: 60,
                    seed,
                    ..SaConfig::small()
                },
                chains,
                workers: 1,
            };
            let plan = FaultPlan::new(seed, panic_percent, stall_percent);

            let reference = multistart_sa_injected(
                &problem,
                &cfg,
                &RunControl::unbounded(),
                &plan,
            );
            prop_assert_eq!(reference.chains.len(), chains);
            for (chain, outcome) in reference.chains.iter().enumerate() {
                if plan.panics(chain as u64) {
                    let message = outcome.panic_message().unwrap_or("");
                    prop_assert!(
                        outcome.is_panicked(),
                        "chain {} was planned to panic but finished",
                        chain
                    );
                    prop_assert!(
                        message.contains("injected fault"),
                        "chain {} lost its panic payload: {:?}",
                        chain, message
                    );
                } else {
                    // A survivor is exactly the serial replay: the panic of a
                    // neighbouring chain must not leak into its trajectory
                    // (its worker's cache was rebuilt from scratch).
                    let result = outcome
                        .result()
                        .unwrap_or_else(|| panic!("chain {chain} neither panicked nor finished"));
                    let chain_cfg = SaConfig {
                        seed: chain_seed(cfg.base.seed, chain),
                        ..cfg.base.clone()
                    };
                    let mut cache = CostCache::new(&problem);
                    let unbounded = RunControl::unbounded();
                    let (replay, _) = simulated_annealing_on(
                        &problem, &chain_cfg, None, &mut cache, &unbounded,
                    );
                    prop_assert_eq!(result.reward, replay.reward, "chain {} diverged", chain);
                    prop_assert_eq!(&result.floorplan, &replay.floorplan);
                }
            }
            prop_assert_eq!(
                reference.winner,
                select_surviving_winner(&circuit, &reference.chains),
                "winner is not the deterministic survivor reduction"
            );
            let any_survivor = reference
                .chains
                .iter()
                .any(|outcome| matches!(outcome, ChainOutcome::Finished(_)));
            prop_assert_eq!(reference.winner.is_some(), any_survivor);

            // The panicked set is the plan's choice, never the scheduler's:
            // the whole outcome vector (and the winner) is identical at
            // every worker count, and each pooled run leaves its pool
            // reusable (the run itself would deadlock or panic otherwise).
            for workers in [2usize, 4] {
                let pooled = multistart_sa_injected(
                    &problem,
                    &MultistartSaConfig { workers, ..cfg.clone() },
                    &RunControl::unbounded(),
                    &plan,
                );
                prop_assert_eq!(pooled.winner, reference.winner, "{} workers", workers);
                for (chain, (p, r)) in
                    pooled.chains.iter().zip(&reference.chains).enumerate()
                {
                    prop_assert_eq!(
                        p.is_panicked(),
                        r.is_panicked(),
                        "chain {} fault set moved at {} workers",
                        chain, workers
                    );
                    match (p.result(), r.result()) {
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.reward, b.reward, "chain {} diverged", chain);
                            prop_assert_eq!(&a.floorplan, &b.floorplan);
                        }
                        (None, None) => {}
                        _ => panic!("chain {chain} outcome class moved at {workers} workers"),
                    }
                }
            }
        }
    }
}

proptest! {
    // Contract proptests of the serve layer (fingerprint + result cache +
    // job engine): run by name in scripts/ci.sh under the default and the
    // feature-gated oracle configuration, because memoized results are only
    // safe to return if the solvers are bit-identical under every oracle.
    // Fewer cases than the layer-5 blocks above: each case runs real solves.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fingerprint injectivity and canonicalization over the generator
    /// families: specs that differ in circuit family, block sizing, solver
    /// family, solver knobs, or seed must get distinct fingerprints, while
    /// renaming every block/net/circuit and shuffling every unordered
    /// collection (nets, pins, constraint internals) must not move the
    /// fingerprint — and a sizing jitter must preserve the topology
    /// fingerprint that keys warm starts.
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
            // Same topology with jittered sizing.
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

        // The jittered variant keys the same warm-start topology as its base.
        for pair in specs.chunks(5) {
            prop_assert_eq!(
                pair[0].topology_fingerprint(),
                pair[4].topology_fingerprint(),
                "sizing jitter moved the topology fingerprint"
            );
        }

        // Canonicalization: renaming everything and reversing every
        // unordered collection must not move either fingerprint.
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
            prop_assert_eq!(spec.topology_fingerprint(), scrambled.topology_fingerprint());
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
            .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded(), None)
            .0;
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
    // Persistence round-trip contract: run by name in scripts/ci.sh under
    // the default and the feature-gated oracle configuration, because a
    // restored cache is only safe if the hits it serves are bit-identical
    // to what the *current* solver stack would produce. Many cases, tiny
    // solves: the surface under test is the snapshot codec, not the solver.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random job mixes → `persist()` → fresh-engine `restore()` → repeats
    /// are cache hits bit-identical to the pre-restart outcomes, at a
    /// per-case worker count drawn from {1, 2, 4}; corrupted, truncated and
    /// version-bumped snapshot bytes load as typed errors and fall back to
    /// cold — never a panic, and never partially restored state.
    #[test]
    fn serve_persist_round_trip_restores_bit_identical_hits(
        seed in 0u64..1_000_000,
    ) {
        use analog_floorplan::circuit::generators;
        use analog_floorplan::metaheuristics::{Baseline, SaConfig, StopReason};
        use analog_floorplan::serve::{
            CacheHandle, JobEngine, JobRequest, JobSpec, PersistError, ServeConfig,
        };
        use analog_floorplan::par::PoolHandle;

        let workers = [1usize, 2, 4][(seed % 3) as usize];
        let solver = Baseline::Sa(SaConfig { iterations: 30, ..SaConfig::small() });
        let specs: Vec<JobSpec> = (0..2 + (seed % 2))
            .map(|i| {
                let circuit = if (seed + i) % 2 == 0 {
                    generators::ota3()
                } else {
                    generators::ota5()
                };
                JobSpec::new(circuit, solver.clone(), seed ^ (i << 8))
            })
            .collect();

        // Solve the mix cold, then snapshot the populated cache.
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let engine = JobEngine::new(&config);
        let ids: Vec<_> = specs
            .iter()
            .map(|s| engine.submit(JobRequest::new(s.clone())))
            .collect();
        engine.run_pending();
        let originals: Vec<_> = ids
            .iter()
            .map(|id| engine.outcome(*id).expect("cold job done"))
            .collect();
        for outcome in &originals {
            prop_assert_eq!(outcome.result.stop, StopReason::Completed);
        }
        let bytes = engine.cache().snapshot_bytes();

        // Restore into a fresh engine: every repeat is a hit, bit-identical
        // to its pre-restart outcome.
        let restored_cache = CacheHandle::new(64);
        prop_assert_eq!(
            restored_cache.restore_bytes(&bytes).expect("restore"),
            specs.len()
        );
        let fresh = JobEngine::with_cache(&config, PoolHandle::new(workers), restored_cache);
        let repeat_ids: Vec<_> = specs
            .iter()
            .map(|s| fresh.submit(JobRequest::new(s.clone())))
            .collect();
        fresh.run_pending();
        for (original, id) in originals.iter().zip(repeat_ids) {
            let repeat = fresh.outcome(id).expect("repeat done");
            prop_assert!(repeat.cache_hit, "restored repeat missed the cache");
            prop_assert_eq!(
                repeat.result.reward.to_bits(),
                original.result.reward.to_bits()
            );
            prop_assert_eq!(&repeat.result.floorplan, &original.result.floorplan);
            prop_assert_eq!(repeat.result.evaluations, original.result.evaluations);
        }
        let stats = fresh.cache_stats();
        prop_assert_eq!(stats.hits, specs.len() as u64);
        prop_assert_eq!(stats.misses, 0);

        // Damaged bytes: typed rejection, cold fallback, never a panic —
        // and the cold engine still solves the job for real.
        let damaged = match seed % 4 {
            0 => {
                let mut b = bytes.clone();
                b.truncate((seed as usize) % bytes.len());
                b
            }
            1 => {
                let mut b = bytes.clone();
                let mid = 12 + (seed as usize) % (bytes.len() - 12);
                b[mid] ^= 0x40;
                b
            }
            2 => {
                let mut b = bytes.clone();
                let bumped = analog_floorplan::serve::persist::FORMAT_VERSION + 1;
                b[4..8].copy_from_slice(&bumped.to_le_bytes());
                b
            }
            _ => {
                let mut b = bytes.clone();
                let bumped = analog_floorplan::serve::fingerprint::TAG_LAYOUT_VERSION + 1;
                b[8..12].copy_from_slice(&bumped.to_le_bytes());
                b
            }
        };
        let cold_cache = CacheHandle::new(64);
        let error = cold_cache.restore_bytes(&damaged);
        match seed % 4 {
            2 => prop_assert!(matches!(
                error,
                Err(PersistError::UnsupportedFormatVersion { .. })
            )),
            3 => prop_assert!(matches!(error, Err(PersistError::TagLayoutMismatch { .. }))),
            _ => prop_assert!(error.is_err(), "damaged bytes restored cleanly"),
        }
        prop_assert!(cold_cache.is_empty(), "partial state escaped a failed restore");
        let cold = JobEngine::with_cache(&config, PoolHandle::new(workers), cold_cache);
        let id = cold.submit(JobRequest::new(specs[0].clone()));
        cold.run_pending();
        let outcome = cold.outcome(id).expect("cold fallback still solves");
        prop_assert!(!outcome.cache_hit);
        prop_assert_eq!(
            outcome.result.reward.to_bits(),
            originals[0].result.reward.to_bits()
        );
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

        // Warm starts off: they seed a solve from whatever same-topology
        // entry happens to be cached when the drain thread picks the job up,
        // which is exactly the history-dependence this bit-identity check
        // must not race against.
        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            warm_start: false,
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
                .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded(), None)
                .0;
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
                .run_controlled(&spec.circuit, spec.seed, &RunControl::unbounded(), None)
                .0
        })
        .collect();

    for workers in [1usize, 2, 4] {
        // Warm starts off for the same reason as the daemon proptest above:
        // bit-identity to a fixed cold solve requires solves that do not
        // depend on which same-topology entries were cached first.
        let daemon = ServeDaemon::spawn(&ServeConfig {
            workers,
            warm_start: false,
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
