//! Grid-level handling of positional constraints.
//!
//! Two services are provided (paper §IV-D1):
//!
//! * [`constraint_mask`] — the binary matrix marking the cells where placing
//!   the next block keeps its symmetry / alignment constraints satisfiable;
//!   this matrix is ANDed with the free-space matrix to form the positional
//!   action masks `f_p`.
//! * [`count_violations`] — the end-of-episode check that triggers the −50
//!   penalty of §IV-D4 when a finished floorplan breaks a constraint.

use afp_circuit::{Axis, BlockId, Circuit, Constraint};

use crate::grid::{Cell, GRID_SIZE};
use crate::placement::Floorplan;

/// Tolerance, in cells, within which two coordinates are considered equal
/// when checking symmetry and alignment.
const CELL_TOLERANCE: f64 = 0.55;

/// Computes, for each grid cell, whether anchoring the lower-left corner of a
/// `grid_w × grid_h` footprint of `block` there keeps every constraint
/// involving `block` satisfiable given the already placed blocks.
///
/// The result is a row-major `GRID_SIZE × GRID_SIZE` vector of `0.0` / `1.0`.
/// Cells where the footprint would leave the grid are marked `0.0`.
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

fn apply_symmetry_mask(
    mask: &mut [f32],
    floorplan: &Floorplan,
    group: &afp_circuit::SymmetryGroup,
    block: BlockId,
    grid_w: usize,
    grid_h: usize,
) {
    let axis_pos = implied_axis(floorplan, group);
    // Is `block` half of a pair, or self-symmetric?
    let partner = group
        .pairs
        .iter()
        .find_map(|&(a, b)| {
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
                            // Mirrored across a vertical line: same row.
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
    // Find a placed reference member (other than the block itself).
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
                // Row alignment: share the bottom row.
                Axis::Horizontal => y == reference.cell.y,
                // Column alignment: share the left column.
                Axis::Vertical => x == reference.cell.x,
            };
            if !aligned {
                mask[idx] = 0.0;
            }
        }
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
    use crate::grid::Canvas;
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
        let mask = constraint_mask(&c, &fp, BlockId(2), 4, 4);
        let allowed = mask.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(allowed, (GRID_SIZE - 3) * (GRID_SIZE - 3));
    }

    #[test]
    fn symmetry_restricts_to_partner_row() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(2, 10)).unwrap();
        let mask = constraint_mask(&c, &fp, BlockId(1), 4, 4);
        // Allowed cells must share the partner's row (same centre y ⇒ y = 10).
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE - 4 {
                let v = mask[y * GRID_SIZE + x];
                if v == 1.0 {
                    assert_eq!(y, 10, "allowed cell off the partner row at y={y}");
                }
            }
        }
        assert!(mask.iter().any(|&v| v == 1.0));
    }

    #[test]
    fn alignment_restricts_to_reference_row() {
        let c = constrained_circuit();
        let mut fp = Floorplan::new(canvas());
        fp.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(5, 7)).unwrap();
        let mask = constraint_mask(&c, &fp, BlockId(3), 4, 4);
        for y in 0..GRID_SIZE {
            for x in 0..GRID_SIZE {
                if mask[y * GRID_SIZE + x] == 1.0 {
                    assert_eq!(y, 7);
                }
            }
        }
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
        let mask = constraint_mask(&c, &fp, BlockId(2), 8, 8);
        // The top-right corner cannot host an 8×8 footprint.
        assert_eq!(mask[(GRID_SIZE - 1) * GRID_SIZE + (GRID_SIZE - 1)], 0.0);
        assert_eq!(mask[0], 1.0);
    }
}
