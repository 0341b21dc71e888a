//! Congestion-aware device spacing.
//!
//! The paper's comparison protocol (§V-B) applies "congestion-aware device
//! spacing" to every baseline floorplanner so that their compact placements
//! leave room for routing channels, making them comparable with the proposed
//! method's routing-ready floorplans. This module implements that decoration:
//! each block's shape is inflated by a margin proportional to the routing
//! demand (pin count and incident-net count) around it.

use afp_circuit::{Block, Circuit, Shape};

/// Base routing-track pitch in µm (one track is always reserved).
pub const TRACK_PITCH_UM: f64 = 0.4;
/// Extra tracks reserved per incident net.
pub const TRACKS_PER_NET: f64 = 0.5;
/// Upper bound on the inflation, as a fraction of the block's side.
pub const MAX_RELATIVE_MARGIN: f64 = 0.35;

/// Margin (µm) to add on every side of a block.
fn margin_for(circuit: &Circuit, block: &Block) -> f64 {
    let nets = circuit.nets_of_block(block.id).len() as f64;
    let demand = 1.0 + TRACKS_PER_NET * (nets + block.pin_count as f64 / 2.0);
    let margin = TRACK_PITCH_UM * demand;
    let side = block.area_um2.sqrt();
    margin.min(MAX_RELATIVE_MARGIN * side)
}

/// Inflates a shape by the block's congestion margin (on both sides of each
/// dimension).
pub fn inflate_shape(circuit: &Circuit, block: &Block, shape: &Shape) -> Shape {
    let m = margin_for(circuit, block);
    Shape::new(shape.width_um + 2.0 * m, shape.height_um + 2.0 * m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn margin_is_positive_and_bounded() {
        let circuit = generators::ota8();
        for block in &circuit.blocks {
            let m = margin_for(&circuit, block);
            assert!(m > 0.0);
            assert!(m <= MAX_RELATIVE_MARGIN * block.area_um2.sqrt() + 1e-12);
        }
    }

    #[test]
    fn inflation_increases_area() {
        let circuit = generators::ota5();
        let block = &circuit.blocks[0];
        let shape = Shape::from_area_and_aspect(block.area_um2, 1.0);
        let inflated = inflate_shape(&circuit, block, &shape);
        assert!(inflated.area_um2() > shape.area_um2());
        assert!(inflated.width_um > shape.width_um);
    }

    #[test]
    fn more_connected_blocks_get_more_space() {
        let circuit = generators::driver();
        // The gate-drive net hub (PRE3) has more connectivity than the ESD cell.
        let busy = circuit.block_by_name("PRE3").unwrap();
        let quiet = circuit.block_by_name("ESD").unwrap();
        let busy_nets = circuit.nets_of_block(busy.id).len();
        let quiet_nets = circuit.nets_of_block(quiet.id).len();
        assert!(busy_nets > quiet_nets);
        let margin_busy = margin_for(&circuit, busy);
        let margin_quiet = margin_for(&circuit, quiet);
        assert!(
            margin_busy > margin_quiet,
            "busy={margin_busy} quiet={margin_quiet}"
        );
    }
}
