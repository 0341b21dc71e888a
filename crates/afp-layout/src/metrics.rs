//! Floorplan quality metrics and the paper's reward functions.
//!
//! * HPWL — half-perimeter wirelength over all nets (paper Eq. 3),
//! * dead space — `1 − Σ Aᵢ / F_area` with `F_area` the floorplan bounding
//!   box area,
//! * intermediate reward — `r_t = −(Δ dead-space + Δ HPWL)` (paper Eq. 4),
//! * episode reward — the weighted sum of area, HPWL and fixed-outline error
//!   with the paper's weights α=1, β=5, γ=5 and the −50 constraint-violation
//!   penalty (paper Eq. 5, §IV-D4).

use afp_circuit::Circuit;

use crate::constraints::has_violations;
use crate::placement::Floorplan;

/// Snapshot of the quality metrics of a (possibly partial) floorplan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorplanMetrics {
    /// Half-perimeter wirelength in µm, over nets with ≥ 2 placed blocks.
    pub hpwl_um: f64,
    /// Dead space fraction in `[0, 1)` of the current bounding box.
    pub dead_space: f64,
    /// Bounding-box area in µm².
    pub area_um2: f64,
    /// Bounding-box aspect ratio (width / height); 1.0 when empty.
    pub aspect_ratio: f64,
}

impl FloorplanMetrics {
    /// Metrics of an empty floorplan.
    pub fn empty() -> Self {
        FloorplanMetrics {
            hpwl_um: 0.0,
            dead_space: 0.0,
            area_um2: 0.0,
            aspect_ratio: 1.0,
        }
    }
}

/// Computes the half-perimeter wirelength (paper Eq. 3) of the placed part of
/// the floorplan. Nets with fewer than two placed blocks contribute nothing.
/// Each net counts once, unweighted, matching the paper's definition.
///
/// Centres come from [`Floorplan::block_center`], an O(1) slot lookup per
/// pin. Duplicate pins on one block are harmless: they collapse to the same
/// point, so the bounding box (and the `≥ 2` placed-pin gate) matches the
/// definition over each net's distinct blocks.
pub fn hpwl(circuit: &Circuit, floorplan: &Floorplan) -> f64 {
    circuit
        .nets
        .iter()
        .filter_map(|net| {
            let mut min_x = f64::MAX;
            let mut max_x = f64::MIN;
            let mut min_y = f64::MAX;
            let mut max_y = f64::MIN;
            let mut placed_pins = 0;
            for (cx, cy) in net
                .pins
                .iter()
                .filter_map(|pin| floorplan.block_center(pin.block))
            {
                min_x = min_x.min(cx);
                max_x = max_x.max(cx);
                min_y = min_y.min(cy);
                max_y = max_y.max(cy);
                placed_pins += 1;
            }
            (placed_pins >= 2).then_some((max_x - min_x) + (max_y - min_y))
        })
        .sum()
}

/// Dead space of the current floorplan: `1 − Σ placed area / bounding-box
/// area`. Returns `0.0` while nothing is placed.
pub fn dead_space(floorplan: &Floorplan) -> f64 {
    match floorplan.bounding_box() {
        Some(bb) if bb.area() > 0.0 => {
            (1.0 - floorplan.placed_area_um2() / bb.area()).clamp(0.0, 1.0)
        }
        _ => 0.0,
    }
}

/// Computes the full metric snapshot of a floorplan.
pub fn metrics(circuit: &Circuit, floorplan: &Floorplan) -> FloorplanMetrics {
    let bb = floorplan.bounding_box();
    FloorplanMetrics {
        hpwl_um: hpwl(circuit, floorplan),
        dead_space: dead_space(floorplan),
        area_um2: bb.map(|r| r.area()).unwrap_or(0.0),
        aspect_ratio: bb.map(|r| r.aspect()).unwrap_or(1.0),
    }
}

/// Weight α of the area-ratio term of Eq. 5 (paper §IV-D4).
pub const ALPHA: f64 = 1.0;
/// Weight β of the normalized-HPWL term of Eq. 5 (paper §IV-D4).
pub const BETA: f64 = 5.0;
/// Weight γ of the squared aspect-ratio error term of Eq. 5 (paper §IV-D4).
pub const GAMMA: f64 = 5.0;
/// Reward of a floorplan that violates a constraint or misses a block, and
/// of an inadmissible agent action (paper §IV-D4).
pub const VIOLATION_PENALTY: f64 = -50.0;

/// Intermediate (per-step) reward, paper Eq. 4:
/// `r_t = −(Δ dead-space + Δ HPWL / hpwl_norm)`.
///
/// The HPWL delta is normalized by `hpwl_norm` (an estimate of the circuit's
/// minimum achievable HPWL) so both terms share the same scale; pass `1.0` to
/// reproduce the raw formulation.
pub fn intermediate_reward(
    previous: &FloorplanMetrics,
    current: &FloorplanMetrics,
    hpwl_norm: f64,
) -> f64 {
    let delta_ds = current.dead_space - previous.dead_space;
    let delta_hpwl = (current.hpwl_um - previous.hpwl_um) / hpwl_norm.max(1e-9);
    -(delta_ds + delta_hpwl)
}

/// Episode (terminal) reward, paper Eq. 5:
///
/// `R = −(α · F_area / Σ Aᵢ + β · HPWL / HPWL_min + γ · (R* − R)²)`,
///
/// with [`ALPHA`], [`BETA`] and [`GAMMA`], or [`VIOLATION_PENALTY`] whenever
/// the finished floorplan violates a positional constraint or does not
/// contain every block.
pub fn episode_reward(circuit: &Circuit, floorplan: &Floorplan, hpwl_min: f64) -> f64 {
    if floorplan.num_placed() < circuit.num_blocks() || has_violations(circuit, floorplan) {
        return VIOLATION_PENALTY;
    }
    let m = metrics(circuit, floorplan);
    let total_area = circuit.total_block_area().max(1e-9);
    let area_term = ALPHA * m.area_um2 / total_area;
    let hpwl_term = BETA * m.hpwl_um / hpwl_min.max(1e-9);
    let outline_term = match circuit.target_aspect_ratio {
        Some(target) => GAMMA * (target - m.aspect_ratio).powi(2),
        None => 0.0,
    };
    -(area_term + hpwl_term + outline_term)
}

/// A crude but fast lower-bound estimate of the achievable HPWL used to
/// normalize rewards (`HPWL_min` in Eq. 5): every net is assumed to span at
/// least the side of the square that would hold its blocks packed perfectly.
pub fn hpwl_lower_bound(circuit: &Circuit) -> f64 {
    let mut total = 0.0;
    for net in &circuit.nets {
        let blocks = net.blocks();
        if blocks.len() < 2 {
            continue;
        }
        let net_area: f64 = blocks
            .iter()
            .filter_map(|b| circuit.block(*b))
            .map(|b| b.area_um2)
            .sum();
        // Packed side of the involved blocks, halved: adjacent blocks can
        // always come closer than their joint square side.
        total += net_area.sqrt();
    }
    total.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Canvas, Cell};
    use afp_circuit::{BlockId, BlockKind, NetClass, Shape};

    fn circuit() -> Circuit {
        Circuit::builder("m")
            .block("A", BlockKind::CurrentMirror, 16.0, 3)
            .block("B", BlockKind::DifferentialPair, 16.0, 4)
            .block("C", BlockKind::CurrentSource, 16.0, 2)
            .net("ab", &[("A", "d"), ("B", "s")], NetClass::Signal)
            .net("bc", &[("B", "d"), ("C", "g")], NetClass::Critical)
            .build()
            .unwrap()
    }

    fn place_all(gap: usize) -> (Circuit, Floorplan) {
        let c = circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        fp.place(BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(4 + gap, 0)).unwrap();
        fp.place(BlockId(2), 0, Shape::new(4.0, 4.0), Cell::new(8 + 2 * gap, 0)).unwrap();
        (c, fp)
    }

    #[test]
    fn hpwl_matches_manual_computation() {
        let (c, fp) = place_all(0);
        // Centers at x = 2, 6, 10; same y ⇒ HPWL = 4 + 4 = 8.
        assert!((hpwl(&c, &fp) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn dead_space_zero_for_perfect_packing() {
        let (_, fp) = place_all(0);
        assert!(dead_space(&fp) < 1e-9);
    }

    #[test]
    fn dead_space_grows_with_gaps() {
        let (_, tight) = place_all(0);
        let (_, loose) = place_all(2);
        assert!(dead_space(&loose) > dead_space(&tight));
    }

    #[test]
    fn partial_hpwl_only_counts_placed_nets() {
        let c = circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        assert_eq!(hpwl(&c, &fp), 0.0);
        assert_eq!(metrics(&c, &fp).hpwl_um, 0.0);
    }

    #[test]
    fn intermediate_reward_penalizes_growth() {
        let (c, fp0) = place_all(0);
        let (_, fp1) = place_all(2);
        let m0 = metrics(&c, &fp0);
        let m1 = metrics(&c, &fp1);
        // Moving from the tight to the loose plan should be penalized.
        let r = intermediate_reward(&m0, &m1, 1.0);
        assert!(r < 0.0);
        // The reverse direction is rewarded.
        assert!(intermediate_reward(&m1, &m0, 1.0) > 0.0);
    }

    #[test]
    fn episode_reward_prefers_tighter_floorplans() {
        let (c, tight) = place_all(0);
        let (_, loose) = place_all(2);
        let hpwl_min = hpwl_lower_bound(&c);
        let r_tight = episode_reward(&c, &tight, hpwl_min);
        let r_loose = episode_reward(&c, &loose, hpwl_min);
        assert!(r_tight > r_loose, "{r_tight} vs {r_loose}");
        assert!(r_tight < 0.0);
    }

    #[test]
    fn incomplete_floorplan_gets_penalty() {
        let c = circuit();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 0)).unwrap();
        let r = episode_reward(&c, &fp, 1.0);
        assert_eq!(r, -50.0);
    }

    #[test]
    fn fixed_outline_term_is_applied() {
        let mut c = circuit();
        c.target_aspect_ratio = Some(1.0);
        let (_, fp) = place_all(0);
        let with_outline = episode_reward(&c, &fp, 1.0);
        c.target_aspect_ratio = None;
        let without = episode_reward(&c, &fp, 1.0);
        // The placed row is 12×4, far from square ⇒ outline penalty applies.
        assert!(with_outline < without);
    }

    #[test]
    fn hpwl_lower_bound_positive_and_below_actual() {
        let (c, fp) = place_all(2);
        let lb = hpwl_lower_bound(&c);
        assert!(lb > 0.0);
        assert!(lb <= hpwl(&c, &fp) * 2.0); // sanity scale check
    }
}
