//! Full pipeline on the 17-structure low-side driver (the circuit behind the
//! paper's Fig. 7 and the largest row of Table II): floorplanning, OARSMT
//! global routing, channel definition and procedural layout completion, with
//! an SVG rendering of the result written to `driver_layout.svg`.
//!
//! ```bash
//! cargo run --release --example driver_full_pipeline
//! ```

use std::fs;

use analog_floorplan::circuit::generators;
use analog_floorplan::core::LayoutPipeline;
use analog_floorplan::metaheuristics::{Baseline, SaConfig};
use analog_floorplan::route::ProceduralConfig;

fn main() {
    let circuit = generators::driver();
    println!(
        "circuit: {} ({} blocks, {} nets, total block area {:.0} um^2)",
        circuit.name,
        circuit.num_blocks(),
        circuit.num_nets(),
        circuit.total_block_area()
    );

    // The driver is large; the greedy constructive placer gives a quick
    // routing-ready floorplan. Swap in `LayoutPipeline::with_agent(...)` to use
    // a trained RL agent, or a baseline as below for comparison.
    let mut ours = LayoutPipeline::with_greedy();
    let result = ours.run(&circuit);
    println!("\n== greedy constructive floorplan + procedural completion ==");
    print_result(&result);

    let mut sa = LayoutPipeline::with_baseline(Baseline::Sa(SaConfig::small()), 1);
    let sa_result = sa.run(&circuit);
    println!("\n== simulated-annealing baseline (congestion-aware spacing) ==");
    print_result(&sa_result);

    let svg = result.to_svg();
    let path = "driver_layout.svg";
    match fs::write(path, &svg) {
        Ok(()) => println!("\nwrote the placed-and-routed layout rendering to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
    println!("\nchannels extracted: {}", result.layout.channels.len());
    let track_pitch_um = ProceduralConfig::default().track_pitch_um;
    let congested = result
        .layout
        .channels
        .iter()
        .filter(|c| c.is_congested(track_pitch_um))
        .count();
    println!("congested channels: {congested}");
}

fn print_result(result: &analog_floorplan::core::PipelineResult) {
    println!(
        "  floorplan: reward {:.2}, HPWL {:.1} um, dead space {:.1}%, {:.2} s",
        result.floorplan_reward,
        result.floorplan_metrics.hpwl_um,
        result.floorplan_metrics.dead_space * 100.0,
        result.floorplan_time_s
    );
    println!(
        "  layout:    area {:.1} um^2, dead space {:.1}%, wirelength {:.1} um, vias {}, DRC violations {}",
        result.layout.area_um2,
        result.layout.dead_space * 100.0,
        result.layout.wirelength_um,
        result.layout.via_count,
        result.layout.drc_violations.len()
    );
}
