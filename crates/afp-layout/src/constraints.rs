//! Grid-level handling of positional constraints.
//!
//! Two services are provided (paper §IV-D1):
//!
//! * [`constraint_window`] — the cells where placing the next block keeps
//!   its symmetry / alignment constraints satisfiable, as a row × column
//!   window of two `u64`s (every predicate reads only the anchor's column or
//!   only its row); the window is ANDed into the free-anchor words of
//!   [`BitGrid::free_anchors`](crate::bitgrid::BitGrid::free_anchors) to form
//!   the positional action masks `f_p`.
//! * [`count_violations`] — the end-of-episode check that triggers the −50
//!   penalty of §IV-D4 when a finished floorplan breaks a constraint.

use afp_circuit::{Axis, BlockId, Circuit, Constraint};

use crate::grid::Cell;
use crate::placement::Floorplan;

/// Tolerance, in cells, within which two coordinates are considered equal
/// when checking symmetry and alignment.
const CELL_TOLERANCE: f64 = 0.55;

/// The constraint window of a `grid_w × grid_h` footprint of `block`: the
/// column bits `cols` and row bits `rows` such that anchoring the footprint's
/// lower-left corner at `(x, y)` keeps every constraint involving `block`
/// satisfiable, given the already placed blocks, iff bit `x` of `cols` and
/// bit `y` of `rows` are both set.
///
/// A window is exact because every symmetry and alignment predicate reads
/// only the anchor's column or only its row. It does not bound the footprint
/// to the grid: the free-anchor map it is ANDed into already does.
pub fn constraint_window(
    circuit: &Circuit,
    floorplan: &Floorplan,
    block: BlockId,
    grid_w: usize,
    grid_h: usize,
) -> (u64, u64) {
    let side = floorplan.grid_side();
    let (half_w, half_h) = (grid_w as f64 / 2.0, grid_h as f64 / 2.0);
    // The anchors whose footprint centre `i + half` is within tolerance of
    // `target` along one axis.
    let near = |half: f64, target: f64| {
        axis_bits(side, |i| (i as f64 + half - target).abs() <= CELL_TOLERANCE)
    };
    let (mut cols, mut rows) = (u64::MAX, u64::MAX);
    for constraint in circuit.constraints.iter() {
        if !constraint.members().contains(&block) {
            continue;
        }
        match constraint {
            Constraint::Symmetry(group) => {
                let axis_pos = implied_axis(floorplan, group);
                let partner = group.pairs.iter().find_map(|&(a, b)| {
                    (a == block).then_some(b).or((b == block).then_some(a))
                });
                // A pair member mirrors its placed partner across the axis.
                if let Some((pcx, pcy)) = partner.and_then(|p| placed_center_cells(floorplan, p)) {
                    match group.axis {
                        Axis::Vertical => {
                            // Mirrored across a vertical line: same row.
                            rows &= near(half_h, pcy);
                            if let Some(axis) = axis_pos {
                                cols &= near(half_w, 2.0 * axis - pcx);
                            }
                        }
                        Axis::Horizontal => {
                            cols &= near(half_w, pcx);
                            if let Some(axis) = axis_pos {
                                rows &= near(half_h, 2.0 * axis - pcy);
                            }
                        }
                    }
                }
                // A self-symmetric member is centred on the axis.
                if let Some(axis) = axis_pos.filter(|_| group.self_symmetric.contains(&block)) {
                    match group.axis {
                        Axis::Vertical => cols &= near(half_w, axis),
                        Axis::Horizontal => rows &= near(half_h, axis),
                    }
                }
            }
            Constraint::Alignment(group) => {
                // Share the bottom row (row alignment) or the left column
                // (column alignment) of a placed other member.
                let reference = group
                    .blocks
                    .iter()
                    .filter(|&&m| m != block)
                    .find_map(|&m| floorplan.find(m));
                match (reference, group.axis) {
                    (None, _) => {}
                    (Some(r), Axis::Horizontal) => rows &= 1 << r.cell.y,
                    (Some(r), Axis::Vertical) => cols &= 1 << r.cell.x,
                }
            }
        }
    }
    (cols, rows)
}

/// The bits `i < side` of one grid axis for which `keep(i)` holds.
fn axis_bits(side: usize, keep: impl Fn(usize) -> bool) -> u64 {
    (0..side).filter(|&i| keep(i)).fold(0, |bits, i| bits | 1 << i)
}

/// Centre of a placed block in fractional cell coordinates.
fn placed_center_cells(floorplan: &Floorplan, block: BlockId) -> Option<(f64, f64)> {
    let p = floorplan.find(block)?;
    Some((
        p.cell.x as f64 + p.grid_w as f64 / 2.0,
        p.cell.y as f64 + p.grid_h as f64 / 2.0,
    ))
}

/// The symmetry-axis coordinate (in fractional cells) implied by the blocks of
/// the group that are already placed, if any: the mean of pair midpoints and
/// self-symmetric centres along the axis-normal direction.
///
/// Accumulates the mean as a running sum in the same visitation order the
/// historical `Vec`-collecting implementation pushed in, so the result is
/// bit-identical — this runs per constraint per cost evaluation, and the
/// allocation dominated the check.
fn implied_axis(
    floorplan: &Floorplan,
    group: &afp_circuit::SymmetryGroup,
) -> Option<f64> {
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

/// Counts how many constraints of the circuit are violated by a floorplan.
///
/// A constraint is violated when any of its member blocks is missing from the
/// floorplan, or when the placed geometry breaks the symmetry / alignment
/// relation by more than half a grid cell.
pub fn count_violations(circuit: &Circuit, floorplan: &Floorplan) -> usize {
    circuit
        .constraints
        .iter()
        .filter(|c| is_violated(floorplan, c))
        .count()
}

/// Whether any constraint is violated — `count_violations(..) > 0` with an
/// early-out on the first hit, for the reward gates that only read the
/// boolean.
pub fn has_violations(circuit: &Circuit, floorplan: &Floorplan) -> bool {
    circuit.constraints.iter().any(|c| is_violated(floorplan, c))
}

/// Whether one constraint is violated by a floorplan — the per-constraint
/// predicate [`count_violations`] counts.
///
/// The missing-member check iterates the member lists directly rather than
/// materializing `Constraint::members()` — this predicate runs per constraint
/// per cost evaluation, where the `Vec` allocation dominated.
fn is_violated(floorplan: &Floorplan, constraint: &Constraint) -> bool {
    match constraint {
        Constraint::Symmetry(group) => {
            group
                .pairs
                .iter()
                .any(|&(a, b)| !floorplan.is_placed(a) || !floorplan.is_placed(b))
                || group.self_symmetric.iter().any(|&s| !floorplan.is_placed(s))
                || symmetry_violated(floorplan, group)
        }
        Constraint::Alignment(group) => {
            group.blocks.iter().any(|&m| !floorplan.is_placed(m))
                || alignment_violated(floorplan, group.axis, &group.blocks)
        }
    }
}

fn symmetry_violated(floorplan: &Floorplan, group: &afp_circuit::SymmetryGroup) -> bool {
    let Some(axis) = implied_axis(floorplan, group) else {
        return false;
    };
    for &(a, b) in &group.pairs {
        let (Some(ca), Some(cb)) = (
            placed_center_cells(floorplan, a),
            placed_center_cells(floorplan, b),
        ) else {
            return true;
        };
        match group.axis {
            Axis::Vertical => {
                if (ca.1 - cb.1).abs() > CELL_TOLERANCE {
                    return true;
                }
                if ((ca.0 + cb.0) / 2.0 - axis).abs() > CELL_TOLERANCE {
                    return true;
                }
            }
            Axis::Horizontal => {
                if (ca.0 - cb.0).abs() > CELL_TOLERANCE {
                    return true;
                }
                if ((ca.1 + cb.1) / 2.0 - axis).abs() > CELL_TOLERANCE {
                    return true;
                }
            }
        }
    }
    for &s in &group.self_symmetric {
        let Some(c) = placed_center_cells(floorplan, s) else {
            return true;
        };
        let coord = match group.axis {
            Axis::Vertical => c.0,
            Axis::Horizontal => c.1,
        };
        if (coord - axis).abs() > CELL_TOLERANCE {
            return true;
        }
    }
    false
}

fn alignment_violated(floorplan: &Floorplan, axis: Axis, members: &[BlockId]) -> bool {
    let mut reference: Option<Cell> = None;
    for &m in members {
        let Some(p) = floorplan.find(m) else {
            return true;
        };
        match reference {
            None => reference = Some(p.cell),
            Some(r) => {
                let aligned = match axis {
                    Axis::Horizontal => p.cell.y == r.y,
                    Axis::Vertical => p.cell.x == r.x,
                };
                if !aligned {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Canvas, GRID_SIZE};
    use afp_circuit::{BlockKind, NetClass, Shape};

    /// Circuit with two symmetric mirrors (vertical axis) and an aligned pair.
    fn constrained_circuit() -> Circuit {
        Circuit::builder("c")
            .block("L", BlockKind::CurrentMirror, 16.0, 3)
            .block("R", BlockKind::CurrentMirror, 16.0, 3)
            .block("T", BlockKind::CurrentSource, 16.0, 2)
            .block("U", BlockKind::BiasGenerator, 16.0, 2)
            .net("n", &[("L", "d"), ("R", "d"), ("T", "g")], NetClass::Signal)
            .net("m", &[("T", "d"), ("U", "g")], NetClass::Signal)
            .symmetry_v(&[("L", "R")])
            .alignment(afp_circuit::Axis::Horizontal, &["T", "U"])
            .build()
            .unwrap()
    }

    fn canvas() -> Canvas {
        Canvas::new(32.0, 32.0)
    }

    #[test]
    fn unconstrained_block_gets_full_mask() {
        let c = constrained_circuit();
        let fp = Floorplan::new(canvas());
        // Block T has an alignment constraint but nothing placed → everything allowed
        assert_eq!(constraint_window(&c, &fp, BlockId(2), 4, 4), (u64::MAX, u64::MAX));
    }

    #[test]
    fn symmetry_restricts_to_partner_row() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(2, 10)).unwrap();
        let (cols, rows) = constraint_window(&c, &fp, BlockId(1), 4, 4);
        // Allowed cells must share the partner's row (same centre y ⇒ y = 10).
        assert_eq!(rows, 1 << 10, "allowed rows off the partner row");
        assert_ne!(cols, 0);
    }

    #[test]
    fn alignment_restricts_to_reference_row() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(5, 7)).unwrap();
        let (_, rows) = constraint_window(&c, &fp, BlockId(3), 4, 4);
        assert_eq!(rows, 1 << 7);
    }

    #[test]
    fn violations_detected_for_broken_symmetry() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        // Same row, both placed → axis defined by their midpoint ⇒ satisfied.
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(2, 10)).unwrap();
        fp.place(BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(20, 10)).unwrap();
        fp.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        fp.place(BlockId(3), 0, Shape::new(4.0, 4.0), Cell::new(8, 0)).unwrap();
        assert_eq!(count_violations(&c, &fp), 0);

        // Different rows → symmetry broken.
        let mut bad = Floorplan::new(canvas());
        bad.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(2, 10)).unwrap();
        bad.place(BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(20, 14)).unwrap();
        bad.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        bad.place(BlockId(3), 0, Shape::new(4.0, 4.0), Cell::new(8, 0)).unwrap();
        assert_eq!(count_violations(&c, &bad), 1);
    }

    #[test]
    fn missing_members_count_as_violations() {
        let c = constrained_circuit();
        let fp = Floorplan::new(canvas());
        // Both constraints have unplaced members.
        assert_eq!(count_violations(&c, &fp), 2);
    }

    #[test]
    fn misaligned_blocks_detected() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(2, 10)).unwrap();
        fp.place(BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(20, 10)).unwrap();
        fp.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        fp.place(BlockId(3), 0, Shape::new(4.0, 4.0), Cell::new(8, 3)).unwrap();
        assert_eq!(count_violations(&c, &fp), 1);
    }

    #[test]
    fn footprint_outside_grid_is_masked() {
        let c = constrained_circuit();
        let fp = Floorplan::new(canvas());
        let mask = crate::masks::positional_mask(&c, &fp, BlockId(2), &Shape::new(8.0, 8.0));
        // The top-right corner cannot host an 8×8 footprint.
        assert!(!mask.get(GRID_SIZE - 1, GRID_SIZE - 1));
        assert!(!mask.get(GRID_SIZE - 8, GRID_SIZE - 7));
        assert!(mask.get(GRID_SIZE - 8, GRID_SIZE - 8));
        assert!(mask.get(0, 0));
    }
}
